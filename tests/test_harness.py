"""The benchmark in perfbench/ reads library names at import and patches
others when tracing; a rename in the library must fail here, not only in a
traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
