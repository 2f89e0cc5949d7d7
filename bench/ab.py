#!/usr/bin/env python3
"""Interleaved A/B runs of one repository-benchmark workload.

Usage, from the repository root:

    python3 bench/ab.py [--workload compile] [--seed 1] [--pairs 10]
        [--seconds S]

Checks out the base revision (the merge-base of HEAD and main; see
default_base) in a git worktree under
_build/perfbench-ab/, then alternates `python3 perfbench/run.py` runs of
the workload between that checkout and this one, as it stands, swapping
which side goes first in every other pair so slow drift of the host
cancels.  Runs last BENCHMARK.json's run_seconds unless --seconds says
otherwise.  For each end-to-end metric of BENCHMARK.json it prints the
per-pair ratio change/base, each side's median and quartiles, how many
pairs moved in the metric's better direction, and whether that shows a
gain: the change better in at least nine tenths of the pairs, and the
medians further apart than the base's interquartile range.  Exits 1 if
any run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = os.path.join(ROOT, "_build", "perfbench-ab", "base")


def git(*args, cwd=ROOT):
    return subprocess.run(
        ["git"] + list(args), cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def default_base():
    """The merge-base of HEAD and main; on main itself, the commit this
    checkout's change sits on: HEAD when tracked files have uncommitted
    edits, HEAD~1 otherwise."""
    head = git("rev-parse", "HEAD")
    try:
        base = git("merge-base", "HEAD", "main")
    except subprocess.CalledProcessError:
        base = head
    if base != head:
        return base
    if git("status", "--porcelain", "--untracked-files=no"):
        return head
    return git("rev-parse", "HEAD~1")


def checkout(rev):
    """The base revision in a detached worktree, reused when it is already
    there at that revision."""
    git("worktree", "prune")
    if os.path.isdir(WORKTREE):
        try:
            if git("rev-parse", "HEAD", cwd=WORKTREE) == rev:
                return
        except subprocess.CalledProcessError:
            pass
        git("worktree", "remove", "--force", WORKTREE)
    os.makedirs(os.path.dirname(WORKTREE), exist_ok=True)
    git("worktree", "add", "--detach", WORKTREE, rev)


def quartiles(xs):
    """First quartile, median and third quartile of [xs]."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def run(checkout_dir, args):
    """One benchmark run; its parsed result line, or None on failure."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(
        argv, cwd=checkout_dir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or not result.get("correct") or result.get("failed"):
        return None
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="compile")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None,
                   help="run length (default: BENCHMARK.json's run_seconds)")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    metrics = declared["end_to_end"]
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    base = default_base()
    checkout(base)
    print(f"base {base[:12]} at {os.path.relpath(WORKTREE, ROOT)}; change: this checkout")
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds} s")

    ratios = {m["name"]: [] for m in metrics}
    values = {"base": [], "change": []}
    for i in range(args.pairs):
        order = [("base", WORKTREE), ("change", ROOT)]
        if i % 2:
            order.reverse()
        got = {}
        for side, where in order:
            got[side] = run(where, args)
            if got[side] is None:
                print(f"pair {i + 1}: {side} run failed", file=sys.stderr)
                return 1
        for side in values:
            values[side].append(
                {m["name"]: got[side]["metrics"][m["name"]]["value"] for m in metrics}
            )
        cells = []
        for m in metrics:
            b = got["base"]["metrics"][m["name"]]["value"]
            c = got["change"]["metrics"][m["name"]]["value"]
            r = c / b if b else float("nan")
            ratios[m["name"]].append(r)
            cells.append(f"{m['name']} {b:.4g} -> {c:.4g} ({r:.3f}x)")
        print(f"pair {i + 1}: " + "; ".join(cells), flush=True)

    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        rs = ratios[name]
        sides = {side: [v[name] for v in values[side]] for side in values}
        better = sum(1 for r in rs if r != 1 and (r > 1) == higher)
        b_q1, b_med, b_q3 = quartiles(sides["base"])
        c_q1, c_med, c_q3 = quartiles(sides["change"])
        # A gain counts when the change wins nine tenths of the pairs and
        # the medians differ by more than the base's interquartile range.
        gain = better >= 0.9 * len(rs) and abs(c_med - b_med) > b_q3 - b_q1
        print(
            f"{name}: base {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}], "
            f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]; ratio median "
            f"{statistics.median(rs):.3f}x (range {min(rs):.3f}-{max(rs):.3f}); "
            f"{better}/{len(rs)} pairs better ({m['better']} is better); "
            f"gain {'shown' if gain else 'not shown'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
