"""Measure the benchmark's baseline: ten untraced runs per workload, each in
its own interpreter with its own seed, as ``perfbench/baseline.json``.

    python3 perfbench/baseline.py [--seconds S] [--seeds 101-110] [--out FILE]

For every end-to-end metric of ``BENCHMARK.json`` the file holds the ten
values, their median, their quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median that the metric's bound is checked against.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1]), wall


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args(argv)
    out = {"about": __doc__.split("\n\n")[0].replace("\n", " "),
           "machine": platform.platform(), "run_seconds": args.seconds,
           "seeds": args.seeds, "workloads": {}}
    for w in spec["workloads"]:
        runs = [one_run(w["name"], seed, args.seconds) for seed in args.seeds]
        entry = {"jobs_per_run": [rec["jobs"] for rec, _, _ in runs],
                 "failed_per_run": [res["failed"] for _, res, _ in runs],
                 "correct": all(res["correct"] for _, res, _ in runs),
                 "run_wall_s": [round(wall, 2) for _, _, wall in runs],
                 "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [res["metrics"][m["name"]]["value"] for _, res, _ in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "bound": m["bound"],
                "runs": values}
        out["workloads"][w["name"]] = entry
        print(json.dumps({w["name"]: {k: round(v["spread"], 4)
                                      for k, v in entry["end_to_end"].items()}}), flush=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
