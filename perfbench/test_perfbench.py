"""The benchmark's own tests, on the tiny size of each workload.

    python3 -m pytest perfbench

Kept out of the repository's tier-1 suite (pytest's testpaths is `tests`);
they take about a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import tracer  # noqa: E402
from run import child_env  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    res = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *map(str, args)],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_cli(workload, seed, out, size="tiny", config_doc=None):
    wl = WORKLOADS[workload]
    config = out.parent / f"{out.name}.json"
    config.write_text(json.dumps(config_doc or wl.config(seed, size)))
    subprocess.run([sys.executable, "-m", "bubblelab.cli", "converge", "--config", str(config),
                    "--out", str(out)], cwd=out.parent, env=child_env(1), check=True,
                   capture_output=True, timeout=300)
    return check.extract(out)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = bench("--workload", workload, "--seed", 3, "--seconds", 0.1, "--trace", trace,
                   "--size", "tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_output_check_rejects_a_perturbed_far_field(tmp_path):
    ref = check.load_reference("ls_fft", "tiny")
    out = tmp_path / "ls"
    got = run_cli("ls_fft", REFERENCE_SEED, out)
    assert check.check_outputs(got, ref, False, REFERENCE_SEED) == []
    path = out / "farfield_model_row1.csv"
    lines = path.read_text().splitlines()
    fields = lines[5].split(",")
    fields[3] = repr(float(fields[3]) * (1 + 1e-6) + 1e-9)
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    problems = check.check_outputs(check.extract(out), ref, False, REFERENCE_SEED)
    assert problems and "model_row1" in problems[0]


def test_seeded_check_holds_tabled_seeds_tightly():
    ref = check.load_reference("fl_sweep", "tiny")
    got = {"rows": [list(r) for r in ref["seed_rows"]["7"]],
           "far_fields": ref["outputs"]["far_fields"], "aborted": []}
    assert check.check_outputs(got, ref, True, 7) == []
    got["rows"][0][3] *= 1 + 1e-6
    assert check.check_outputs(got, ref, True, 7)


def test_seed_moves_the_fl_sweep_cluster(tmp_path):
    doc = WORKLOADS["fl_sweep"].config(1, "full")
    # the first fl_sweep row against the 24^3 comparator of configs/medium_volumetric.json
    doc["a_sequence"] = [0.008, 0.006, 0.004]
    doc["tolerances"]["grid_n"] = 24
    sup = {}
    for seed in (1, 7):
        doc["seed"] = seed
        rows = run_cli("fl_sweep", seed, tmp_path / f"s{seed}", config_doc=doc)["rows"]
        sup[seed] = rows[-1][3]
    assert sup[1] == pytest.approx(14.57, abs=0.01)
    assert sup[7] == pytest.approx(14.78, abs=0.01)


def test_trace_integrity_fails_loudly_on_a_missing_entry_point():
    code = ("import bubblelab.cli, bubblelab.pointscat as p, tracer; del p.assemble; "
            "tracer.Tracer().install()")
    res = subprocess.run([sys.executable, "-c", code], cwd=BENCH_DIR, env=child_env(1),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert "pointscat.assemble" in res.stderr


def test_trace_integrity_fails_on_zero_calls():
    spans = [["harness.run", 0.0, 1.0, -1, 0]]
    with pytest.raises(tracer.TraceIntegrityError, match="pointscat.assemble"):
        tracer.check_calls(spans, ("harness.run", "pointscat.assemble"))


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0],
             ["b", 5.0, 6.0, 0, 0]]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_refuses_to_run_without_a_source_tree(tmp_path):
    bench_copy = tmp_path / "perfbench"
    bench_copy.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench_copy / path.name).write_bytes(path.read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, str(bench_copy / "run.py"), "--workload", "ls_fft",
                          "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
