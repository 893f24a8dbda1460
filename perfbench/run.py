"""Benchmark driver for demostab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
interpreter (perfbench/worker.py) with BLAS pinned to one thread, and the
calls into demostab are timed from outside, in seconds scaled to a reference
interpreter speed (perfbench/speed.py).  With ``--trace 0`` the run makes
as many passes as fit in S seconds plus a few set-up-only interpreters and
prints the end-to-end metrics as medians over them.  With ``--trace 1`` it
makes one plain pass, one traced pass and the geometry probe, and prints the
per-layer metrics.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Scratch output goes to
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("ball_beam_all", "quad_track_all", "multi_hull_mc")
# A seed that no tuning of the benchmark or of demostab has used; recheck
# claims on multi_hull_mc with it.
HELD_OUT_SEED = 7177
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0

PASS_METRICS = ("synth_s", "validate_s", "total_s", "peak_rss_mb")
WALL_METRICS = ("setup_s", "synth_s", "validate_s", "total_s")
END_TO_END_UNITS = {"setup_s": "s", "synth_s": "s", "validate_s": "s", "total_s": "s",
                    "peak_rss_mb": "MB"}


def clock() -> float:
    # The clock perfbench/speed.py uses: CLOCK_MONOTONIC is shared by all processes.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerError(RuntimeError):
    pass


class Workers:
    """Spawns worker interpreters with BLAS pinned and a private bytecode cache."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = dict(os.environ, **BLAS_PIN,
                        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                 os.environ.get("PYTHONPATH")])),
                        PYTHONPYCACHEPREFIX=str(work / "pycache"))
        # Set-up is measured with warm bytecode, as an installed package runs.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def spawn(self, mode: str) -> dict:
        """Run one worker interpreter and return its result."""
        out = self.work / self.workload / mode
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--out", str(out), "--mode", mode]
        with open(out / "stderr.txt", "w") as err:
            try:
                proc = subprocess.run(cmd + ["--spawned-at", repr(clock())], cwd=ROOT,
                                      env=self.env, stdout=subprocess.PIPE, stderr=err,
                                      text=True, timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise WorkerError(f"{mode} worker for {self.workload} timed out") from None
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
            tail = (out / "stderr.txt").read_text()[-2000:]
            raise WorkerError(f"{mode} worker for {self.workload} exited with "
                              f"{proc.returncode}:\n{tail}")
        return json.loads(lines[-1].removeprefix("RESULT "))


def metadata(meta_from_worker: dict) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "demostab").glob("*.py")))
    return {
        **meta_from_worker,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
        "src_demostab_lines": src_lines,
        "held_out_seed_multi_hull_mc": HELD_OUT_SEED,
    }


def run_end_to_end(workers: Workers, seconds: float):
    setups = [workers.spawn("setup") for _ in range(SETUP_SAMPLES)]
    passes, attempted, failed, failures = [], 0, 0, []
    started = clock()
    planned = 1
    while len(passes) < planned:
        res = workers.spawn("pass")
        passes.append(res)
        attempted, failed = attempted + res["attempted"], failed + res["failed"]
        failures += res["failures"]
        if len(passes) == 1:
            # Whole passes only: as many as fit the requested run length.
            planned = max(1, round(seconds / (clock() - started)))
    runs = {"setup_s": setups + passes, **{k: passes for k in PASS_METRICS}}
    metrics = {k: statistics.median(r[k] for r in rs) for k, rs in runs.items()}
    wall = {k: statistics.median(r["wall"][k] for r in rs)
            for k, rs in runs.items() if k in WALL_METRICS}
    print(f"{workers.workload}: {len(passes)} passes, {len(setups) + len(passes)} set-ups")
    for k, v in wall.items():
        print(f"{workers.workload}: unscaled wall {k} = {v} s")
    return metrics, attempted, failed, failures


def run_traced(workers: Workers):
    plain = workers.spawn("pass")
    traced = workers.spawn("traced")
    probe = workers.spawn("probe")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics = {
        **traced["layers"],
        "trace.overhead_frac": traced["total_s"] / plain["total_s"] - 1.0,
        "fail_frac": failed / attempted,
        **probe,
    }
    print(f"{workers.workload}: spans in {workers.work / workers.workload / 'traced'}")
    return metrics, attempted, failed, plain["failures"] + traced["failures"]


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "demostab" / "__init__.py").is_file():
        print(f"perfbench: no demostab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work"
    workers = Workers(args.workload, args.seed, work)
    try:
        # Warm-up: compiles bytecode and fills the page cache; not measured.
        meta = metadata(workers.spawn("setup").get("meta", {}))
    except WorkerError as exc:
        print(f"perfbench: cannot start demostab: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, attempted, failed, failures = run_traced(workers)
        else:
            metrics, attempted, failed, failures = run_end_to_end(workers, args.seconds)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for f in failures:
        print(f"FAILED: {f}")
    if not args.trace:
        print(f"{args.workload}: fail_frac = {failed / attempted} ({failed} of {attempted})")
    for name, value in metrics.items():
        print(f"{args.workload}: {name} = {value} {unit_of(name)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
