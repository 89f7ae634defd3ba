"""Regenerate the stored reference outputs that run.py checks against.

    python3 perfbench/make_reference.py [--size full|tiny] [--workload NAME ...]

Runs each workload's CLI command at REFERENCE_SEED and writes the checked
outputs to perfbench/reference/<workload>.<size>.json.  A seeded workload is
also run at every seed in SEED_TABLE: its error-table rows are stored per
seed, and `seed_rtol`, the tolerance for seeds outside the table, is set to
SEED_MARGIN times the largest deviation of its point-interaction outputs from
the reference seed.  Rerun this only
when a change is meant to alter results, and say so where it lands.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import check
from run import BLAS_THREADS, RUNS_DIR, child_env, spawn
from workloads import REFERENCE_SEED, SIZES, WORKLOADS

SEED_TABLE = range(32)
SEED_MARGIN = 1.5  # seed_rtol over the largest deviation seen across SEED_TABLE


def seed_deviation(got: dict, ref: dict) -> float:
    """Largest relative deviation of the point-interaction outputs from ref."""
    devs = [check.far_dev(vals, ref["far_fields"][key])
            for key, vals in got["far_fields"].items() if key.startswith("fl_")]
    for col in (3, 4):
        scale = max(abs(r[col]) for r in ref["rows"])
        devs += [abs(g[col] - r[col]) / scale for g, r in zip(got["rows"], ref["rows"])]
    return max(devs)


def run_cli(wl, seed: int, size: str, tmp: Path) -> dict:
    config = tmp / f"{wl.name}-{seed}.json"
    config.write_text(json.dumps(wl.config(seed, size)))
    out = tmp / f"{wl.name}-{seed}"
    log = tmp / f"{wl.name}-{seed}.log"
    res = spawn([sys.executable, "-m", "bubblelab.cli", "converge", "--config", config,
                 "--out", out], tmp, child_env(BLAS_THREADS), log,
                time.perf_counter() + 600.0)
    if res["exit"] != 0:
        raise RuntimeError(f"{wl.name} seed {seed} exited {res['exit']}:\n{log.read_text()}")
    outputs = check.extract(out)
    shutil.rmtree(out)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--workload", nargs="*", choices=sorted(WORKLOADS),
                        default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    RUNS_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=RUNS_DIR))
    try:
        for name in args.workload:
            wl = WORKLOADS[name]
            outputs = run_cli(wl, REFERENCE_SEED, args.size, tmp)
            if outputs.get("aborted"):
                raise RuntimeError(f"{name}: aborted rows {outputs['aborted']}")
            doc = {"seed": REFERENCE_SEED, "outputs": outputs}
            if wl.seeded:
                runs = {seed: run_cli(wl, seed, args.size, tmp) for seed in SEED_TABLE}
                doc["seed_rows"] = {str(seed): got["rows"] for seed, got in runs.items()}
                doc["model_variants"] = variants = {}
                for got in runs.values():
                    for key, vals in got["far_fields"].items():
                        known = [outputs["far_fields"][key], *variants.get(key, [])]
                        if key.startswith("model_") and all(
                                check.far_dev(vals, ref) > check.TIGHT_RTOL for ref in known):
                            variants.setdefault(key, []).append(vals)
                worst = max(seed_deviation(got, outputs) for got in runs.values())
                doc["seed_rtol"] = float(f"{SEED_MARGIN * worst:.2g}")
                print(f"{name}: seeds {SEED_TABLE.start}..{SEED_TABLE.stop - 1} move the "
                      f"point-interaction outputs by up to {worst:.3g}; seed_rtol "
                      f"{doc['seed_rtol']:g}")
            path = check.REFERENCE_DIR / f"{name}.{args.size}.json"
            path.write_text(json.dumps(doc) + "\n")
            print(f"{name} -> {path}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
