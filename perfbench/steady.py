"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs N] [--seconds S] [WORKLOAD ...]

Run from the root of the repository.  For each workload it makes two
sets of ``N`` untraced runs, alternating between the sets (A1 B1 A2 B2
...), every run with its own seed.  For each end-to-end metric it
prints each set's median and quartiles, the quartile spread as a share
of the median, and whether the two sets agree: the second set's median
is no worse than the first's by more than the metric's bound in
``BENCHMARK.json``, and each set's spread is within the bound (the
spread of ``setup_s`` is shown but not required).  The ``A+B`` row
pools both sets, one run per seed.  It also compares
the share of failed operations.  Exit code 0 when every workload
agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    all_ok = True
    for workload in args.workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, (name, runs) in enumerate(sets.items()):
                runs.append(one_run(workload, 1 + 2 * i + k, args.seconds))
        print(f"\n## {workload}: {args.runs} runs per set, {args.seconds} s each\n")
        print("| metric | set | median | q1 | q3 | spread | bound | agree |")
        print("|---|---|---|---|---|---|---|---|")
        for name in sorted({m for r in sets["A"] for m in r["metrics"]}):
            bound = metrics[name]["bound"]
            rows = {}
            for label, runs in sets.items():
                rows[label] = summary([r["metrics"][name]["value"] for r in runs])
            med_a, med_b = rows["A"][0], rows["B"][0]
            ok = abs(med_b - med_a) / med_a <= bound and (name == "setup_s" or
                                     max(rows["A"][3], rows["B"][3]) <= bound)
            all_ok &= ok
            rows["A+B"] = summary([r["metrics"][name]["value"]
                                   for runs in sets.values() for r in runs])
            for label, (med, q1, q3, spread) in rows.items():
                verdict = ("yes" if ok else "NO") if label == "B" else ""
                print(f"| {name} | {label} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                      f"{spread:.1%} | {bound:.0%} | {verdict} |")
        shares = {label: {r["failed"] / r["attempted"] for r in runs}
                  for label, runs in sets.items()}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        all_ok &= same
        print(f"\nfailed share: A {sorted(shares['A'])}, B {sorted(shares['B'])}"
              f" -> {'same' if same else 'DIFFERENT'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
