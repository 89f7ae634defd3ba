"""bubblelab benchmark: one workload as a closed loop with a single client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|tiny]

Run from a source tree that holds `src/bubblelab`.  Every sample is a fresh
child process, run one at a time, with `src` on PYTHONPATH and BLAS_THREADS
BLAS threads (never more than the usable cores).  Peak RSS is read from each
child's own rusage (`os.wait4`), so no child inherits another's peak.

--trace 0 alternates the workload's CLI command with a set-up-only child
until S seconds have passed and reports the end-to-end metrics: median
spawn-to-exit wall time of the command, median set-up time, median peak RSS.
--trace 1 alternates untraced and traced runs of the command and reports the
median per-layer self times and counts of the traced runs, plus the tracing
overhead.  Every run's outputs are checked against the stored reference and,
within one invocation, must be byte-identical; a run that fails either check
or exits non-zero counts in `failed`.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Run records (samples, quartiles, host facts) go to `.perfbench/` in the tree.
Exit codes: 0 result printed, 2 no bubblelab source tree, 3 trace integrity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
import tracer
from workloads import SIZES, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0  # every child is killed past this point of the run
MIN_WORK_RUNS = 2
MIN_SETUP_RUNS = 5
# One BLAS thread per child (at most nproc, as every child runs alone): on a
# shared 2-vCPU host two OpenBLAS threads made fl_sweep both slower and far
# noisier (3.1-6.2 s per run against 2.8-3.5 s with one thread).
BLAS_THREADS = 1
INTEGRITY_FAILURE_EXIT = 3


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv, cwd: Path, env: dict, log_path: Path, kill_at: float) -> dict:
    """Run one child to its end; wall time from spawn to exit, its own peak RSS."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(kill_at - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def summary(values) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def host_facts(threads: int) -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bubblelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        .get("version"),
        "scipy_openblas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        .get("version"),
        "blas_threads": threads,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Run:
    """One benchmark invocation: its children, checks and records."""

    def __init__(self, workload, seed: int, size: str, run_dir: Path):
        self.wl = workload
        self.seed = seed
        self.size = size
        self.dir = run_dir
        self.threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
        self.env = child_env(self.threads)
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps(workload.config(seed, size), indent=1))
        self.reference = check.load_reference(workload.name, size)
        self.error_table = None  # bytes every run of this seed must reproduce
        self.kill_at = time.perf_counter() + HARD_LIMIT_S
        self.children = []

    def _cli_args(self, out: Path):
        return ["converge", "--config", self.config, "--out", out]

    def setup(self) -> dict:
        i = len(self.children)
        res = spawn([sys.executable, BENCH_DIR / "setup_child.py", self.config], self.dir,
                    self.env, self.dir / f"setup{i}.log", self.kill_at)
        res.update(kind="setup", problems=[] if res["exit"] == 0 else
                   [f"set-up child exited {res['exit']}"])
        self.children.append(res)
        return res

    def workload(self, traced: bool) -> dict:
        i = len(self.children)
        out = self.dir / f"out{i}"
        if traced:
            spans_path = self.dir / f"spans{i}.json"
            argv = [sys.executable, BENCH_DIR / "traced_child.py", spans_path]
        else:
            argv = [sys.executable, "-m", "bubblelab.cli"]
        res = spawn(argv + self._cli_args(out), self.dir, self.env, self.dir / f"run{i}.log",
                    self.kill_at)
        res["kind"] = "traced" if traced else "run"
        if traced and res["exit"] == tracer.INTEGRITY_EXIT:
            raise tracer.TraceIntegrityError((self.dir / f"run{i}.log").read_text().strip())
        res["problems"] = self._check(out, res["exit"])
        if traced and res["exit"] == 0:
            spans = json.loads(spans_path.read_text())["spans"]
            tracer.check_calls(spans, self.wl.must_call)
            size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
            res["layers"] = tracer.layer_metrics(spans, size, res["wall_s"])
        shutil.rmtree(out, ignore_errors=True)
        self.children.append(res)
        return res

    def _check(self, out: Path, exit_code: int) -> list:
        if exit_code != 0:
            return [f"exited {exit_code}"]
        if self.reference is None:
            return [f"no reference for {self.wl.name} at size {self.size}"]
        try:
            got = check.extract(out)
            table = (out / "error_table.csv").read_bytes()
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable outputs: {exc!r}"]
        problems = check.check_outputs(got, self.reference, self.wl.seeded, self.seed)
        if self.error_table is None:
            self.error_table = table
        elif table != self.error_table:
            problems.append("error_table.csv differs from the first run of this seed")
        return problems

    def of(self, kind: str) -> list:
        return [c for c in self.children if c["kind"] == kind]


def measure(run: Run, seconds: float, traced: bool) -> dict:
    """Closed loop until `seconds` have passed; returns metric -> (value, unit)."""
    start = time.perf_counter()
    deadline = start + seconds

    def another(rounds: int, minimum: int) -> bool:
        # start a round if one of average length ends less than half a round late
        now = time.perf_counter()
        return rounds < minimum or now + 0.5 * (now - start) / rounds <= deadline

    if not traced:
        while another(len(run.of("run")), MIN_WORK_RUNS):
            run.workload(traced=False)
            run.setup()
        while len(run.of("setup")) < MIN_SETUP_RUNS:
            run.setup()
        runs = run.of("run")
        return {
            "wall_s": (summary([c["wall_s"] for c in runs]), "s"),
            "setup_s": (summary([c["wall_s"] for c in run.of("setup")]), "s"),
            "peak_rss_mb": (summary([c["rss_mib"] for c in runs]), "MiB"),
        }
    while another(len(run.of("traced")), 1):
        run.workload(traced=False)
        run.workload(traced=True)
    traced_runs = [c for c in run.of("traced") if "layers" in c]
    metrics = {}
    if traced_runs:
        for name, (_, unit) in traced_runs[0]["layers"].items():
            metrics[name] = (summary([c["layers"][name][0] for c in traced_runs]), unit)
    untraced = statistics.median(c["wall_s"] for c in run.of("run"))
    traced_wall = statistics.median(c["wall_s"] for c in run.of("traced"))
    metrics["trace.overhead_s"] = (summary([traced_wall - untraced]), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bubblelab" / "cli.py").is_file():
        print(f"no bubblelab source tree under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    run_dir = RUNS_DIR / f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, args.seed, args.size, run_dir)
    try:
        metrics = measure(run, args.seconds, bool(args.trace))
    except tracer.TraceIntegrityError as exc:
        print(f"trace integrity failure on {wl.name}: {exc}", file=sys.stderr)
        return INTEGRITY_FAILURE_EXIT

    work = run.of("traced" if args.trace else "run") + (run.of("run") if args.trace else [])
    failed = sum(1 for c in work if c["problems"])
    setup_problems = [p for c in run.of("setup") for p in c["problems"]]
    facts = host_facts(run.threads)
    record = {
        "workload": wl.name, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "host": facts,
        "metrics": {k: {"unit": u, **s} for k, (s, u) in metrics.items()},
        "children": [{k: v for k, v in c.items() if k != "layers"} for c in run.children],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1))

    print(f"workload={wl.name} size={args.size} seed={args.seed} trace={args.trace} "
          f"attempted={len(work)} failed={failed} fail_frac={failed / len(work):.3f}")
    for name, (s, unit) in metrics.items():
        print(f"  {name:28s} {s['median']:.6g} {unit}  q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"n={s['n']}")
    for c in run.children:
        for problem in c["problems"]:
            print(f"  FAILED {c['kind']}: {problem}")
    print("host " + json.dumps(facts))
    print(json.dumps({
        "correct": failed == 0 and not setup_problems,
        "attempted": len(work),
        "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": u} for k, (s, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
