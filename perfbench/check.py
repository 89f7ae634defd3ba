"""Output check behind the benchmark's failure count.

A workload run passes when the CLI exits 0, no row is aborted in
`regime_report.json`, and its outputs match the stored reference (`reference/<workload>.<size>.json`, made at
REFERENCE_SEED by `make_reference.py`):

- M, N and the radius scale of every `error_table.csv` row match exactly;
- `sup_err`, `field_scale` and every far-field value match to TIGHT_RTOL,
  relative to the largest reference magnitude of that quantity.

The point-interaction outputs of a seeded workload (`fl_sweep`) move with
the jitter of the extra centres.  At a seed other than the reference one its
`sup_err`, `field_scale` and `farfield_fl_*` values are held to the
reference's `seed_rtol` against the reference seed, and, for the seeds in its
`seed_rows` table, `sup_err` and `field_scale` to TIGHT_RTOL against that
seed's own rows.  M, N and the comparator far fields stay exact or tight;
with a sweep of incidence directions a row keeps the comparator far field of
the direction with the largest error, which one depending on the seed, so any
comparator far field in the reference's `model_variants` is accepted.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

TIGHT_RTOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _far_field(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [[float(r[3]), float(r[4])] for r in rows]


def extract(out_dir) -> dict:
    """The checked outputs of one `converge` run, read from its output directory."""
    out = Path(out_dir)
    with open(out / "error_table.csv", newline="") as fh:
        rows = [[float(r["a"]), int(r["M"]), int(r["N"]), float(r["sup_err"]),
                 float(r["field_scale"])] for r in csv.DictReader(fh)]
    far = {}
    for i in range(len(rows)):
        far[f"fl_row{i}"] = _far_field(out / f"farfield_fl_row{i}.csv")
        far[f"model_row{i}"] = _far_field(out / f"farfield_model_row{i}.csv")
    report = json.loads((out / "regime_report.json").read_text())
    return {"rows": rows, "far_fields": far, "aborted": report["aborted_rows"]}


def compare(got: dict, ref: dict, fl_tol: float, variants=None) -> list:
    """Problems found comparing extracted outputs to a reference; [] means pass.

    fl_tol bounds the point-interaction outputs (`sup_err`, `field_scale`,
    `fl_row*` far fields); everything else is held to TIGHT_RTOL.  variants
    maps a far-field name to further accepted reference values.
    """
    problems = []
    variants = variants or {}
    if got.get("aborted"):
        problems.append(f"aborted rows: {got['aborted']}")
    problems += compare_rows(got.get("rows", []), ref["rows"], fl_tol)
    far, ref_far = got.get("far_fields", {}), ref["far_fields"]
    if sorted(far) != sorted(ref_far):
        problems.append(f"far fields {sorted(far)} != reference {sorted(ref_far)}")
    else:
        for name, ref_vals in ref_far.items():
            vals = far[name]
            tol = fl_tol if name.startswith("fl_") else TIGHT_RTOL
            if len(vals) != len(ref_vals):
                problems.append(f"{name}: {len(vals)} directions, reference {len(ref_vals)}")
                continue
            dev = min(far_dev(vals, ref) for ref in [ref_vals, *variants.get(name, [])])
            if not dev <= tol:
                problems.append(f"{name} deviates by {dev:.3g} (tolerance {tol:g})")
    return problems


def compare_rows(rows: list, ref_rows: list, tol: float) -> list:
    """(a, M, N) exact; sup_err and field_scale within tol of the largest reference."""
    if [r[:3] for r in rows] != [r[:3] for r in ref_rows]:
        return [f"(a, M, N) rows {[r[:3] for r in rows]} != "
                f"reference {[r[:3] for r in ref_rows]}"]
    problems = []
    for col, name in ((3, "sup_err"), (4, "field_scale")):
        ref_col = [r[col] for r in ref_rows]
        scale = max(abs(v) for v in ref_col) or 1.0
        dev = max(abs(r[col] - v) for r, v in zip(rows, ref_col)) / scale
        if not dev <= tol:
            problems.append(f"{name} deviates by {dev:.3g} (tolerance {tol:g})")
    return problems


def far_dev(vals, ref_vals) -> float:
    scale = max(abs(complex(*r)) for r in ref_vals) or 1.0
    return max(abs(complex(*g) - complex(*r)) for g, r in zip(vals, ref_vals)) / scale


def check_outputs(got: dict, reference: dict, seeded: bool, seed: int) -> list:
    """Check one run's outputs against a stored reference file's contents."""
    if not seeded or seed == reference["seed"]:
        return compare(got, reference["outputs"], TIGHT_RTOL)
    problems = compare(got, reference["outputs"], reference["seed_rtol"],
                       reference.get("model_variants"))
    rows = reference.get("seed_rows", {}).get(str(seed))
    if rows is not None:
        problems += compare_rows(got.get("rows", []), rows, TIGHT_RTOL)
    return problems


def load_reference(workload: str, size: str):
    path = REFERENCE_DIR / f"{workload}.{size}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())
