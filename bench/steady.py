"""Steadiness check: two sets of benchmark runs on one commit.

    python3 bench/steady.py

Runs the command in BENCHMARK.json on every workload, for its
``run_seconds``, in two sets of ten runs, each run with its own
seed, workloads interleaved so that drift in the machine's speed reaches
every workload alike.  For each end-to-end metric and workload it prints
each set's median and quartiles, the spread (distance between the
quartiles as a share of the median) against the metric's bound, and
whether the two sets' medians agree within the bound, in either direction.
A spread above the bound fails the check for every metric but ``setup_s``,
whose spread is printed only: set-up is short and the host's drift moves
it most.  The share of failed operations must be exactly equal in the two
sets.  Every result line is appended to ``bench/_runs/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    log = BENCH / "_runs" / "steady.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)

    results: dict[tuple[str, int], list[dict]] = {}
    for s in range(SETS):
        for r in range(RUNS):
            seed = 1000 * (s + 1) + r
            for w in workloads:
                out = run_once(spec, w, seed, seconds)
                results.setdefault((w, s), []).append(out)
                line = {"set": s, "workload": w, "seed": seed, **out}
                with log.open("a") as fh:
                    fh.write(json.dumps(line) + "\n")
                values = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
                print(f"set {s} seed {seed} {w}: correct={out['correct']} "
                      f"attempted={out['attempted']} failed={out['failed']} "
                      f"{values}", flush=True)

    ok = True
    print()
    for w in workloads:
        shares = {s: Fraction(sum(o["failed"] for o in results[(w, s)]),
                              sum(o["attempted"] for o in results[(w, s)]))
                  for s in range(SETS)}
        same = len(set(shares.values())) == 1
        correct = all(o["correct"] for s in range(SETS)
                      for o in results[(w, s)])
        ok &= same and correct
        print(f"{w}: correct {correct}; failed share per set "
              f"{[str(v) for v in shares.values()]} "
              f"{'equal' if same else 'DIFFERENT'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(SETS):
                vals = [o["metrics"][name]["value"] for o in results[(w, s)]]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med
                medians.append(med)
                steady = "steady" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
                if name != "setup_s" and spread > bound:
                    ok = False
                print(f"  {name:12s} set {s}: median {med:.4f}  q1 {q1:.4f}  "
                      f"q3 {q3:.4f}  spread {spread:.3f} (bound {bound}) {steady}")
            moved = (medians[1] - medians[0]) / medians[0]
            agree = abs(moved) <= bound
            ok &= agree
            print(f"  {name:12s} set 1 vs set 0: {moved:+.3f} "
                  f"{'agrees' if agree else 'DISAGREES'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
