"""Print every benchmark metric for every workload, by name and unit.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

Runs perfbench/run.py once per workload untraced (end-to-end metrics) and
once traced (per-layer metrics), each in its own process, and prints one
table of each with fail_rate = failed / attempted operations per run.  The
traced run's trace.overhead_s is traced minus untraced pass time.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"{workload} trace {trace}: exit {res.returncode}")
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["provenance"] = json.loads(lines[-2])["provenance"]
    return result


def table(title, results) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{title}")
    print(f"{'metric':36s}" + "".join(f"{w:>16s}" for w in results) + "  unit")
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:>16.6g}"
                        for r in results.values())
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        print(f"{name:36s}{cells}  {unit}")
    rates = "".join(f"{r['failed'] / r['attempted']:>16.4g}"
                    for r in results.values())
    print(f"{'fail_rate':36s}{rates}  failed/attempted")
    ops = "".join(f"{r['attempted']:>16d}" for r in results.values())
    print(f"{'operations attempted':36s}{ops}  count")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    untraced = {w: run_one(w, args.seed, args.seconds, 0) for w in names}
    traced = {w: run_one(w, args.seed, args.seconds, 1) for w in names}
    prov = dict(next(iter(untraced.values()))["provenance"])
    for key in ("workload", "trace"):
        prov.pop(key)
    print("provenance " + json.dumps(prov))
    table("end-to-end (untraced runs)", untraced)
    table("per-layer (traced runs)", traced)
    return 0 if all(r["correct"] for r in (*untraced.values(),
                                           *traced.values())) else 1


if __name__ == "__main__":
    sys.exit(main())
