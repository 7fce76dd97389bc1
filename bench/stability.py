"""Stability check: do two sets of benchmark runs of the same code agree?

Usage:
    python3 bench/stability.py [--runs 10] [--workloads a,b] [--seconds S] [--out FILE]

Runs `bench/run.py` (untraced) `--runs` times per workload with seeds
1..runs, then a second set with the same seeds. For every workload and
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile distance over the median) and the change of the second
median against the first, and says whether they hold the bounds of
BENCHMARK.json: every spread but setup_s's within its bound, and no median
worse than the first set's by more than its bound. It also confirms that
the failed share is the same in both sets and that `metrics.json` and
`accuracy.csv` are byte-identical across every run of a workload with the
same seed (run.py checks the rounds within one run). Exits 1 if any check
fails. Raw results go to `--out` as JSON, rewritten after every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info = next(json.loads(l[len("# info "):]) for l in lines if l.startswith("# info "))
    return {"workload": workload, "seed": seed, "wall_s": time.monotonic() - t0,
            "result": json.loads(lines[-1]), "info": info}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=str(ROOT / "bench" / "work" / "stability.json"))
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sets: list[list[dict]] = [[], []]
    for s, runs in enumerate(sets):
        for w in workloads:
            for seed in range(1, args.runs + 1):
                r = run_once(w, seed, args.seconds)
                runs.append(r)
                out.write_text(json.dumps(sets, indent=1))
                print(f"set {s + 1} {w} seed {seed}: {r['wall_s']:.1f}s "
                      f"correct={r['result']['correct']}", file=sys.stderr)

    ok = True
    print(f"{'workload':15s} {'metric':25s} {'set':>3s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'change':>7s} {'bound':>6s} verdict")
    for w in workloads:
        per_set = [[r for r in runs if r["workload"] == w] for runs in sets]
        for name, m in bounds.items():
            stats = [summarize([r["result"]["metrics"][name]["value"] for r in runs])
                     for runs in per_set]
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            for s, st in enumerate(stats):
                verdict = []
                if name != "setup_s" and st["spread"] > m["bound"]:
                    verdict.append("SPREAD>BOUND")
                elif st["spread"] > m["bound"] / 3:
                    verdict.append("spread>bound/3")
                if s == 1 and change > m["bound"]:
                    verdict.append("WORSE>BOUND")
                ok &= not any(v.isupper() for v in verdict)
                print(f"{w:15s} {name:25s} {s + 1:3d} {st['median']:12.6g} {st['q1']:12.6g} "
                      f"{st['q3']:12.6g} {st['spread']:7.2%} "
                      f"{(f'{change:+.2%}' if s else ''):>7s} {m['bound']:6.2f} "
                      f"{' '.join(verdict) or 'ok'}")
        shares = [sum(r["result"]["failed"] for r in runs) / sum(r["result"]["attempted"]
                  for r in runs) for runs in per_set]
        correct = all(r["result"]["correct"] and not r["info"]["problems"]
                      for runs in per_set for r in runs)
        identical = True
        for seed in range(1, args.runs + 1):
            digests = [{meth: {f: d[f] for f in ("metrics.json", "accuracy.csv")}
                        for meth, d in r["info"]["digests"].items()}
                       for runs in per_set for r in runs if r["seed"] == seed]
            identical &= all(d == digests[0] for d in digests)
        ok &= shares[0] == shares[1] and correct and identical
        print(f"{w}: failed share {shares[0]:.4f} / {shares[1]:.4f}; all runs correct: "
              f"{correct}; metrics.json and accuracy.csv byte-identical per seed: {identical}")
    print("STABLE" if ok else "NOT STABLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
