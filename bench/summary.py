"""Run every workload once, one after another, and print one table.

    python3 bench/summary.py [--seed 0] [--seconds 20]

Columns: the end-to-end metrics, the operations attempted and
failed_frac (failed / attempted, unit 1).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("paired", "sweep", "shear-verify", "replay")
COLUMNS = ("setup_s", "op_s", "cpu_s", "peak_rss_mb")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    results = {}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True)
        results[w] = json.loads(proc.stdout.splitlines()[-1])
    units = results[WORKLOADS[0]]["metrics"]
    head = [f"{c} [{units[c]['unit']}]" for c in COLUMNS] + ["ops", "failed_frac [1]"]
    print(f"{'workload':14s}" + "".join(f"{h:>18s}" for h in head))
    for w, r in results.items():
        cells = [f"{r['metrics'][c]['value']:.4g}" for c in COLUMNS]
        cells += [str(r["attempted"]), f"{r['failed'] / r['attempted']:.4g}"]
        print(f"{w:14s}" + "".join(f"{c:>18s}" for c in cells))


if __name__ == "__main__":
    main()
