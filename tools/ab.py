#!/usr/bin/env python3
"""Interleaved same-box A/B of the end-to-end benchmark.

Exports two revisions of this repository into a scratch directory (by
default the merge-base of HEAD~1 and HEAD as A, and HEAD as B), then runs
``perfbench/run.py --workload W`` on the two trees alternately, pair after
pair, with the same seed inside each pair.  The order inside a pair flips
every pair, so a drift of the host (thermal, a neighbour's load) lands on
both sides equally.  Every timed run lasts BENCHMARK.json's run_seconds.
Each tree builds itself on its first run; a short untimed warm-up run per
tree keeps the build out of the first pair.

Per end-to-end metric of BENCHMARK.json, and for the minor page faults of
each run (getrusage over the run's child processes), it prints the median
of A and of B, the ratio B/A, the interquartile range of A, and in how many
pairs B was better.  A gain is "claimed" (column ``clear``) when B is better in at least
90% of the pairs and the medians differ by more than A's IQR.

Usage:
  tools/ab.py --workload mxn --pairs 10
  tools/ab.py --workload fig1 --base origin/main --head HEAD --pairs 6
  tools/ab.py --workload mxn --trees /path/to/a /path/to/b   # unpacked trees

Revisions are exported into a fresh temporary directory that is removed at
the end.  Only the standard library is used; neither perfbench/ nor
BENCHMARK.json is modified.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_SECONDS = 1.0


# --- statistics (unit-tested in tools/test_ab.py) ---------------------------

def quantile(xs, q):
    """Linear-interpolated quantile of a non-empty sequence (q in [0, 1])."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of an empty sequence")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(xs):
    return quantile(xs, 0.5)


def iqr(xs):
    return quantile(xs, 0.75) - quantile(xs, 0.25)


def summarize(a, b, lower_is_better, need=0.9):
    """Compare paired samples a[i] (base) and b[i] (change) of one metric."""
    if len(a) != len(b) or not a:
        raise ValueError("need the same non-zero number of samples on both sides")
    better = sum(1 for x, y in zip(a, b) if (y < x if lower_is_better else y > x))
    ma, mb = median(a), median(b)
    spread = iqr(a)
    gain = ma - mb if lower_is_better else mb - ma
    return {
        "median_a": ma,
        "median_b": mb,
        "ratio": mb / ma if ma != 0 else float("nan"),
        "iqr_a": spread,
        "better": better,
        "pairs": len(a),
        "clear": better >= need * len(a) and gain > spread,
    }


# --- running ----------------------------------------------------------------

def git(*args):
    return subprocess.check_output(["git", "-C", ROOT] + list(args), text=True).strip()


def export(rev, dest):
    """Unpack the committed files of `rev` into `dest` (no worktree entry)."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.check_call(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0:
        sys.exit("ab: git archive %s failed" % rev)


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    faults0 = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("ab: %s failed in %s:\n%s" % (" ".join(cmd[1:]), tree, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        sys.exit("ab: %s failed its checks in %s: %s" % (workload, tree, lines[-1]))
    sample = {k: v["value"] for k, v in result["metrics"].items()}
    sample["minor_faults"] = faults
    return sample


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=71, help="seed of the first pair")
    ap.add_argument("--base", default="HEAD~1",
                    help="A is the merge-base of this revision and --head")
    ap.add_argument("--head", default="HEAD")
    ap.add_argument("--trees", nargs=2, metavar=("A_DIR", "B_DIR"),
                    help="use two unpacked source trees instead of revisions")
    ap.add_argument("--json", help="also write the per-pair samples here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    # Minor page faults of the whole run (getrusage over the waited-for
    # children: run.py, its build check and the benchmark program).
    metrics.append({"name": "minor_faults", "better": "lower"})

    scratch = None
    try:
        if args.trees:
            trees = [os.path.abspath(t) for t in args.trees]
        else:
            base = git("merge-base", args.base, args.head)
            head = git("rev-parse", args.head)
            scratch = tempfile.mkdtemp(prefix="cca-ab-")
            trees = [os.path.join(scratch, "a-" + base[:10]),
                     os.path.join(scratch, "b-" + head[:10])]
            for rev, tree in zip((base, head), trees):
                export(rev, tree)
            print("A = %s  B = %s" % (base[:10], head[:10]))
        for tree in trees:  # build + warm-up, untimed
            run_once(tree, args.workload, args.seed, WARMUP_SECONDS)
        samples = [[], []]
        for i in range(args.pairs):
            seed = args.seed + i
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                samples[side].append(run_once(trees[side], args.workload, seed, seconds))
            print("pair %d/%d (seed %d) %s" % (
                i + 1, args.pairs, seed,
                "  ".join("%s %.4g/%.4g" % (m["name"], samples[0][-1][m["name"]],
                                             samples[1][-1][m["name"]]) for m in metrics)),
                flush=True)
    finally:
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    print("\n%-12s %12s %12s %8s %10s %7s %6s" %
          ("metric", "median A", "median B", "B/A", "IQR A", "better", "clear"))
    for m in metrics:
        name = m["name"]
        s = summarize([x[name] for x in samples[0]], [x[name] for x in samples[1]],
                      m["better"] == "lower")
        print("%-12s %12.5g %12.5g %8.3f %10.4g %4d/%-2d %6s" %
              (name, s["median_a"], s["median_b"], s["ratio"], s["iqr_a"],
               s["better"], s["pairs"], "yes" if s["clear"] else "no"))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trees": trees, "a": samples[0],
                       "b": samples[1]}, f, indent=1)


if __name__ == "__main__":
    main()
