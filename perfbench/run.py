"""cavicore benchmark: time to an answer, failure share and accuracy for one
workload, or a traced run with per-layer metrics.

    python3 perfbench/run.py --workload catalog-limits --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from ./src. The run
times several fresh processes that import cavicore and build the workload's
inputs (setup_s), then repeats passes over the workload's task list within
--seconds, at least two. With --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics of the traced ones.

The report gives the machine, every metric by name with its unit (timings
with median, quartiles and sample count), the accuracy, the failed tasks by
name with the reasons, and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. A task is one public call;
`failed` counts the tasks that raised, returned a non-finite number,
reported non-convergence, produced a FAIL admissibility row or missed an
analytic reference. `correct` is false, and the exit code 1, when an output
misses its analytic reference or a gate tolerance, when an expected flag is
missing, or when two passes (traced or not) disagree in any output bit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
N_PROBES = 5
MIN_PASSES = 2

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def _import_library():
    if not (SRC / "cavicore" / "__init__.py").is_file():
        sys.exit(f"benchmark: no cavicore sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cavicore
    if Path(cavicore.__file__).resolve().parent != SRC / "cavicore":
        sys.exit(f"benchmark: imported cavicore from {cavicore.__file__}, not {SRC}")


def machine() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads}


def probe_setup(workload: str, seed: int) -> list[dict]:
    """Start N_PROBES fresh processes one after another; each sample is the
    time from start until the process has imported cavicore and built the
    inputs, with the probe's own split of that time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    samples = []
    for _ in range(N_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not line:
            sys.exit(f"benchmark: set-up probe exited with {proc.returncode}")
        rec = json.loads(line)
        rec["setup_s"] = t1 - t0
        samples.append(rec)
    return samples


def summary(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def run_passes(workload, inputs, seconds: float, trace: bool):
    """Passes within `seconds`, at least MIN_PASSES: untraced only, or
    alternating untraced and traced. A further pass starts only if it is
    expected to end within the budget."""
    from tracing import Tracer
    from workloads import traced_inputs

    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = inp = None
        if traced:
            tracer = Tracer()
            inp = traced_inputs(inputs, tracer)
            tracer.install()
        try:
            t0 = time.perf_counter()
            outcomes = workload.run(inp if traced else inputs, tracer)
            wall = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append({"traced": traced, "wall_s": wall, "outcomes": outcomes,
                       "tracer": tracer})
        longest = max(p["wall_s"] for p in passes)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + longest > seconds):
            return passes


def end_to_end_metrics(samples: dict, outcomes: list, rss_mb: float) -> dict:
    """Medians over the probes and the untraced passes, the share of failed
    tasks, and the digits of the worst relative error against an exact
    value."""
    from references import digits
    worst = max((e for o in outcomes for e in o.rel_errors.values()),
                default=math.inf)  # no checked quantity counts as no digits
    return {"setup_s": statistics.median(samples["setup_s"]),
            "wall_s": statistics.median(samples["wall_s"]),
            "fail_frac": sum(o.failed for o in outcomes) / len(outcomes),
            "err_digits": digits(worst),
            "peak_rss_mb": rss_mb}


def per_layer_metrics(samples: dict, traced_spans: list) -> dict:
    """Medians of the set-up split over the probes and of each layer metric
    over the traced passes, and the tracing overhead."""
    from tracing import layer_metrics
    layers = [layer_metrics(spans) for spans in traced_spans]
    out = {"setup.import_s": statistics.median(samples["setup.import_s"]),
           "setup.inputs_s": statistics.median(samples["setup.inputs_s"])}
    for name in layers[0]:
        out[name] = statistics.median(m[name] for m in layers)
    out["trace.overhead_s"] = (statistics.median(samples["traced_wall_s"])
                               - statistics.median(samples["wall_s"]))
    return out


def check(passes) -> list[str]:
    """Outputs that are wrong, and outputs that differ between passes (by
    repr, which round-trips floats exactly and lets NaN equal NaN)."""
    problems = [f"{o.task}: {w}" for o in passes[0]["outcomes"] for w in o.wrong]
    first = repr([(o.task, o.digest) for o in passes[0]["outcomes"]])
    for i, p in enumerate(passes[1:], 2):
        if repr([(o.task, o.digest) for o in p["outcomes"]]) != first:
            kind = "traced" if p["traced"] else "untraced"
            problems.append(f"pass {i} ({kind}) outputs differ from pass 1")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    probes = probe_setup(wl.name, args.seed)
    inputs = wl.build(args.seed)
    passes = run_passes(wl, inputs, args.seconds, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    outcomes = plain[0]["outcomes"]
    samples = {
        "setup_s": [s["setup_s"] for s in probes],
        "wall_s": [p["wall_s"] for p in plain],
        "setup.import_s": [s["import_s"] for s in probes],
        "setup.inputs_s": [s["inputs_s"] for s in probes],
        "traced_wall_s": [p["wall_s"] for p in traced],
    }
    end_to_end = end_to_end_metrics(samples, outcomes, rss_mb)
    per_layer = per_layer_metrics(samples, [p["tracer"].spans for p in traced]) \
        if traced else {}
    problems = check(passes)

    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; "
          f"{len(outcomes)} tasks per pass; {N_PROBES} set-up probes")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"{'metric':36} {'value':>14} {'unit':8} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'n':>3}")
    for name, val in {**end_to_end, **per_layer}.items():
        s = summary(samples[name]) if name in samples else None
        extra = (f" {s['median']:11.5g} {s['q1']:11.5g} {s['q3']:11.5g} {s['n']:3d}"
                 if s else "")
        print(f"{name:36} {val:14.6g} {UNITS[name]:8}{extra}")
    if traced:
        print_spans(traced[0]["tracer"].spans)
    rel = {k: v for o in outcomes for k, v in o.rel_errors.items()}
    if rel:
        worst = max(rel, key=rel.get)
        print(f"accuracy: worst relative error {rel[worst]:.3e} at {worst} "
              f"({len(rel)} quantities with an exact reference)")
    failed_tasks = [o for o in outcomes if o.failed]
    print(f"failed tasks: {len(failed_tasks)} of {len(outcomes)} per pass")
    for o in failed_tasks:
        print(f"  {o.task}: {'; '.join(o.failures)}")
    for p in problems:
        print(f"WRONG: {p}")
        print(f"benchmark: WRONG output: {p}", file=sys.stderr)

    metrics = per_layer if traced else end_to_end
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p["outcomes"]) for p in passes),
        "failed": sum(o.failed for p in passes for o in p["outcomes"]),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}))
    return 1 if problems else 0


def print_spans(spans):
    """Calls, inclusive and self seconds per span name of one traced pass."""
    from tracing import self_times
    rows = {}
    for s, own in zip(spans, self_times(spans)):
        r = rows.setdefault(s.name, [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s.end - s.start
        r[2] += own
    print(f"spans of the first traced pass ({len(spans)}):")
    print(f"  {'name':32} {'calls':>7} {'inclusive_s':>12} {'self_s':>9}")
    for name, (n, incl, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:32} {n:7d} {incl:12.4f} {own:9.4f}")


if __name__ == "__main__":
    sys.exit(main())
