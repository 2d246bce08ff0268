"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Checks that
- self time is a span's duration minus its direct children's;
- on every workload, a traced pass produces outputs identical to an
  untraced pass, bit for bit, no output is wrong, the tracer's root spans
  are the tasks, and removing the tracer leaves the library as it was;
- the traced metrics are exactly the per-layer names in BENCHMARK.json, the
  untraced metrics exactly its end-to-end names, and its workloads and their
  reasons those of workloads.py.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import sys
import time

import run


def check_self_times(fail):
    from tracing import Span, self_times
    spans = [Span("a.x", 0.0, 10.0, -1, "t", {}),
             Span("b.y", 1.0, 4.0, 0, "t", {}),
             Span("b.y", 2.0, 3.0, 1, "t", {}),
             Span("c.z", 5.0, 9.0, 0, "t", {})]
    if self_times(spans) != [3.0, 2.0, 1.0, 4.0]:
        fail(f"self times {self_times(spans)}, expected [3, 2, 1, 4]")


def library_state():
    import cavicore.cavity
    import cavicore.energy
    import cavicore.geometry
    import cavicore.minimize
    import cavicore.recovery
    mods = (cavicore.cavity, cavicore.energy, cavicore.geometry, cavicore.minimize,
            cavicore.recovery, cavicore.geometry.Domain, cavicore.geometry.Confinement)
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()
            if callable(v)}


def main() -> int:
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    run._import_library()
    from workloads import WORKLOADS

    bench = run.BENCH
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    failures = []

    def fail(msg):
        failures.append(msg)
        print(f"FAIL {msg}")

    check_self_times(fail)
    if {w["name"]: w["why"] for w in bench["workloads"]} != {
            w.name: w.why for w in WORKLOADS.values()}:
        fail("BENCHMARK.json workloads or their reasons differ from the benchmark's")

    before = library_state()
    for name, wl in WORKLOADS.items():
        t0, known = time.perf_counter(), len(failures)
        # one untraced pass, then one traced pass, as in a traced run
        plain, traced = run.run_passes(wl, wl.build(args.seed), 0.0, True)
        for problem in run.check([plain, traced]):
            fail(f"{name}: {problem}")
        if library_state() != before:
            fail(f"{name}: the library differs after the tracer was removed")
        spans = traced["tracer"].spans
        roots = {s.run_id for s in spans if s.parent < 0}
        if roots != {o.task for o in traced["outcomes"]}:
            fail(f"{name}: root spans do not match the tasks")
        fake = {k: [1.0] for k in ("setup_s", "setup.import_s", "setup.inputs_s",
                                   "wall_s", "traced_wall_s")}
        names = set(run.end_to_end_metrics(fake, plain["outcomes"], 1.0))
        if names != end_to_end:
            fail(f"{name}: untraced metrics {sorted(names)} differ from "
                 f"BENCHMARK.json end_to_end {sorted(end_to_end)}")
        names = set(run.per_layer_metrics(fake, [spans]))
        if names != per_layer:
            fail(f"{name}: traced metrics differ from BENCHMARK.json per_layer: "
                 f"missing {sorted(per_layer - names)}, extra {sorted(names - per_layer)}")
        status = "ok" if len(failures) == known else "FAILED"
        print(f"{name}: {status}, {len(plain['outcomes'])} tasks, "
              f"{len(spans)} spans ({time.perf_counter() - t0:.1f} s)")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
