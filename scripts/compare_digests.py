#!/usr/bin/env python3
"""Compare the benchmark workloads' outputs and the README commands between
two checkouts.

    python scripts/compare_digests.py OLD NEW --seeds 0-10

For each checkout one subprocess imports that tree's src/ and perfbench/,
builds every workload of perfbench/workloads.py from each seed and runs one
untraced pass. Every task whose digest, failures or relative errors differ
between the checkouts is printed with the largest relative difference of
its digest's numbers and the largest change of one of its relative errors.
The same subprocess then runs each `cavicore ...` line of that checkout's
README Command line block, each in a new temporary directory; every command
whose exit code, stdout or written files differ is printed. The two
checkouts run side by side. The exit code is 1 if any task or command
differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

# one untraced pass of every workload per seed, then each README command given,
# printed as one JSON object
CHILD = r"""
import contextlib, io, json, os, shlex, sys, tempfile
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

from cavicore.cli import main
commands = {}
for argv in json.loads(sys.argv[3]):
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main(argv)
        files = {f.name: f.read_text() for f in sorted(Path(tmp).iterdir())}
        os.chdir(root)
    commands[shlex.join(argv)] = {"exit": code, "stdout": stdout.getvalue(), "files": files}
print(json.dumps({"tasks": out, "commands": commands}))
"""


def readme_commands(readme: Path) -> list[list[str]]:
    """The argument lists of the `cavicore ...` lines of the README's Command
    line block (continuation lines joined)."""
    block = readme.read_text().split("## Command line", 1)[1].split("```sh", 1)[1]
    joined = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines()
            if line.startswith("cavicore ")]


def run_checkouts(roots: list[Path], seeds: list[int]) -> list[dict]:
    """One child per checkout, all started before any is awaited."""
    roots = [r.resolve() for r in roots]  # each child runs in its root, so resolve first
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, str(root), json.dumps(seeds),
                               json.dumps(readme_commands(root / "README.md"))],
                              cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for root in roots]
    outs = [proc.communicate() for proc in procs]
    for root, proc, (_, err) in zip(roots, procs, outs):
        if proc.returncode != 0:
            sys.exit(f"compare_digests: the pass in {root} failed:\n{err}")
    return [json.loads(out) for out, _ in outs]


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


def compare_commands(old: dict, new: dict) -> list[str]:
    lines = []
    for cmd in sorted(old.keys() | new.keys()):
        if cmd not in old or cmd not in new:
            lines.append(f"cavicore {cmd}: only in {'NEW' if cmd in new else 'OLD'}")
            continue
        a, b = old[cmd], new[cmd]
        what = ([f"exit code {a['exit']} -> {b['exit']}"] if a["exit"] != b["exit"] else [])
        what += ["stdout"] if a["stdout"] != b["stdout"] else []
        what += [f"file {name}" for name in sorted(a["files"].keys() | b["files"].keys())
                 if a["files"].get(name) != b["files"].get(name)]
        if what:
            lines.append(f"cavicore {cmd}: {', '.join(what)} differ")
    return lines


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seeds", type=seed_range, default=[0], help="A or A-B")
    args = ap.parse_args(argv)
    old, new = run_checkouts([args.old, args.new], args.seeds)
    diffs = compare(old["tasks"], new["tasks"])
    cmds = compare_commands(old["commands"], new["commands"])
    for line in diffs + cmds:
        print(line)
    print(f"{len(diffs)} task(s) differ over seeds {args.seeds[0]}-{args.seeds[-1]}")
    print(f"{len(cmds)} of {len(old['commands'].keys() | new['commands'].keys())} "
          f"README command(s) differ")
    return 1 if diffs or cmds else 0


if __name__ == "__main__":
    sys.exit(main())
