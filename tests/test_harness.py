"""The benchmark in perfbench/ reads library names at import and patches
others when tracing; a rename in the library, or a change that makes traced
and untraced outputs differ, must fail here, not only in a benchmark run."""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in ("tracing", "workloads", "references"):
        sys.modules.pop(name, None)


def test_tracer_patch_points_resolve(perfbench):
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    assert isinstance(tracing.N_MAX, int) and tracing.N_MAX > 0

    tracer = tracing.Tracer()
    try:
        tracer.install()  # getattr on every patch point
        patched = list(tracer._patches)
        assert patched
        for owner, attr, orig in patched:
            assert getattr(owner, attr) is not orig, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, orig in patched:
        assert getattr(owner, attr) is orig, (owner, attr)


def test_kept_imports_are_patch_points(perfbench):
    # an import the library keeps only for the tracer to patch must name a
    # patch point on its module: when a patch goes, its import must go too
    marker = "  # noqa: F401 (perfbench patches it here)"
    kept = {(f"cavicore.{path.stem}", name.strip())
            for path in sorted((ROOT / "src" / "cavicore").glob("*.py"))
            for line in path.read_text().splitlines() if line.endswith(marker)
            for name in re.fullmatch(r"from \S+ import (.+)", line[:-len(marker)])[1].split(",")}
    assert kept
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        patched = {(getattr(owner, "__name__", None), attr)
                   for owner, attr, _ in tracer._patches}
    finally:
        tracer.uninstall()
    assert kept <= patched, kept - patched


def test_benchmark_selftest_passes():
    # traced and untraced outputs agree bit for bit, and the metric names are
    # those of BENCHMARK.json
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_compare_digests_finds_no_difference_against_itself():
    # one untraced pass of every workload and the README commands repeat bit
    # for bit in each checkout; a checkout may be named relative to the
    # working directory
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare_digests.py"),
                           ROOT.name, str(ROOT), "--seeds", "0"], cwd=ROOT.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["0 task(s) differ over seeds 0-0",
                                        "0 of 7 README command(s) differ"]
