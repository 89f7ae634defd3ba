#!/usr/bin/env python3
"""Run every example convergence config and print a compact summary.

Exits 1 when any config's ``converge`` run fails or aborts a row (its
``regime_report.json`` lists aborted rows), 0 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    summary, status = [], 0
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        out = Path(args.out) / cfg_path.stem
        cmd = [sys.executable, "-m", "bubblelab.cli", "converge",
               "--config", str(cfg_path), "--out", str(out)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print(f"== {cfg_path.name}")
        res = subprocess.run(cmd)
        if res.returncode != 0:
            summary.append((cfg_path.stem, f"exit {res.returncode}"))
            status = 1
            continue
        fit = json.loads((out / "rate_fit.json").read_text())
        slope = "skipped" if fit["slope"] is None else f"{fit['slope']:+.3f}"  # too few rows
        line = f"slope {slope} predicted {fit['predicted_exponent']:+.3f}"
        aborted = json.loads((out / "regime_report.json").read_text())["aborted_rows"]
        if aborted:
            line += f", {len(aborted)} aborted row(s)"
            status = 1
        summary.append((cfg_path.stem, line))
    width = max(len(name) for name, _ in summary)
    print("\nsummary:")
    for name, line in summary:
        print(f"  {name:<{width}}  {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
