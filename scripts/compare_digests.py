#!/usr/bin/env python3
"""Compare the benchmark workloads' outputs between two checkouts.

    python scripts/compare_digests.py OLD NEW --seeds 0-10

For each checkout one subprocess imports that tree's src/ and perfbench/,
builds every workload of perfbench/workloads.py from each seed and runs one
untraced pass. Every task whose digest, failures or relative errors differ
between the checkouts is printed with the largest relative difference of
its digest's numbers and the largest change of one of its relative errors.
The exit code is 1 if any task differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

# one untraced pass of every workload per seed, printed as one JSON object
CHILD = r"""
import json, sys
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import cavicore
if Path(cavicore.__file__).resolve().parent != root / "src" / "cavicore":
    sys.exit(f"imported cavicore from {cavicore.__file__}, not {root / 'src'}")
from workloads import WORKLOADS

def numbers(v):
    if isinstance(v, (tuple, list)):
        return [x for e in v for x in numbers(e)]
    if isinstance(v, (bool, str)) or v is None:
        return []
    return [float(v)]

out = {}
for seed in json.loads(sys.argv[2]):
    for name, wl in WORKLOADS.items():
        out[f"{name} seed {seed}"] = [
            {"task": o.task, "digest": repr(o.digest), "numbers": numbers(o.digest),
             "failures": o.failures, "rel_errors": o.rel_errors}
            for o in wl.run(wl.build(seed), None)]
print(json.dumps(out))
"""


def run_checkout(root: Path, seeds: list[int]) -> dict:
    root = root.resolve()  # the child runs in root, where a relative path would not hold
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root), json.dumps(seeds)],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"compare_digests: the pass in {root} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def rel_diff(a: list[float], b: list[float]) -> float:
    """Largest relative difference of two number lists (inf if their lengths
    or non-finite entries differ)."""
    if len(a) != len(b):
        return math.inf
    worst = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    return worst


def compare(old: dict, new: dict) -> list[str]:
    lines = []
    for run in old.keys() | new.keys():
        a = {o["task"]: o for o in old.get(run, [])}
        b = {o["task"]: o for o in new.get(run, [])}
        for task in sorted(a.keys() | b.keys()):
            if task not in a or task not in b:
                lines.append(f"{run}: {task}: only in {'NEW' if task in b else 'OLD'}")
                continue
            oa, ob = a[task], b[task]
            what = [k for k in ("digest", "failures", "rel_errors") if oa[k] != ob[k]]
            if what:
                keys = sorted(oa["rel_errors"].keys() | ob["rel_errors"].keys())
                ea = [oa["rel_errors"].get(k, math.nan) for k in keys]
                eb = [ob["rel_errors"].get(k, math.nan) for k in keys]
                moved = max((abs(x - y) for x, y in zip(ea, eb) if x != y), default=0.0)
                lines.append(f"{run}: {task}: {', '.join(what)} differ; largest relative "
                             f"difference of the digest's numbers "
                             f"{rel_diff(oa['numbers'], ob['numbers']):.3g}, largest "
                             f"change of a relative error {moved:.3g}")
    return sorted(lines)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seeds", type=seed_range, default=[0], help="A or A-B")
    args = ap.parse_args(argv)
    diffs = compare(run_checkout(args.old, args.seeds), run_checkout(args.new, args.seeds))
    for line in diffs:
        print(line)
    print(f"{len(diffs)} task(s) differ over seeds {args.seeds[0]}-{args.seeds[-1]}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
