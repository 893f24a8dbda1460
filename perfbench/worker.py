"""One pass of one workload in a fresh interpreter; spawned by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --mode MODE \
        --spawned-at T

MODE is ``setup`` (import demostab and write the inputs, then stop), ``pass``,
``traced`` (a pass under the tracer, spans written to DIR/trace.json) or
``probe`` (the geometry scaling probe).  T is the CLOCK_MONOTONIC time at which
the parent started this interpreter.  The last line on standard output is
``RESULT <json>``; everything demostab prints goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import Sampler, clock

# Sample interpreter speed from the first moment, so set-up is covered too.
SAMPLER = Sampler()
SAMPLER.start()

PROTO = sys.stdout
sys.stdout = sys.stderr


def emit_result(payload: dict) -> None:
    PROTO.write(f"RESULT {json.dumps(payload)}\n")
    PROTO.flush()


# Certificate max norms ||Psi(T)|| recorded at the commit that introduced the
# benchmark, and the acceptance suite's certificate tolerance.
CERT_MAX_NORM = {"ball_beam_all": 0.0237, "quad_track_all": 0.6807, "multi_hull_mc": 0.3281}
CERT_TOL = 1e-3

# The README benchmark configurations.
BALL_BEAM = {
    "preset": "ball_beam",
    "preset_params": {"b_bar": 0.7143, "g_bar": 9.81, "w": [1, 3, 3]},
    "T": 8.0,
    "dt": 0.001,
    "t_tilde_grid": [2.0, 4.0, 8.0],
    "simulate": {"x0": [6.0, 0.0, 0.345, 0.0], "duration": 40.0},
}
QUAD = {
    "preset": "flat_quad_3d",
    "T": 2.0,
    "dt": 0.001,
    "simulate": {"x0": [0, 0, 0, 0, 0, 0, 0, 0, 0], "duration": 10.0},
    "track": {"f": 0.1, "duration": 20.0},
}

# multi_hull_mc: chain4 with 16 demonstrations (trivial, e_1..e_4, 11 seeded
# N(0, I) starts) and a Monte Carlo contraction sweep with as many starts
# inside the hull as outside it.  24 + 24 starts with evenly spaced outside
# radii keep the seed-to-seed spread of the projection count near 5 %
# (16 + 16 random radii: about 25 %).
MULTI_N = 4
MULTI_RANDOM_STARTS = 11
MC_INSIDE = 24
MC_OUTSIDE = 24
MC_P_MAX = 3
MC_DT = 0.01

# demos + learn take 1-2 s on the chain workloads: repeat them within a pass
# until this much wall time is covered and report the median repetition.
SYNTH_MIN_S = 3.0

STAGES = {
    "ball_beam_all": (["demos", "learn"], ["simulate"]),
    "quad_track_all": (["demos", "learn"], ["simulate", "track"]),
    "multi_hull_mc": (["demos", "learn"], []),
}


def make_inputs(workload: str, seed: int, out: Path):
    """Write the workload's config; return (config path, Monte Carlo starts or None)."""
    import numpy as np

    if workload == "ball_beam_all":
        cfg, mc = BALL_BEAM, None
    elif workload == "quad_track_all":
        cfg, mc = QUAD, None
    else:
        rng = np.random.default_rng(seed)
        starts = np.vstack([np.eye(MULTI_N), rng.standard_normal((MULTI_RANDOM_STARTS, MULTI_N))])
        cfg = {"preset": f"chain{MULTI_N}", "multi": True, "T": 6.0, "dt": MC_DT,
               "initial_conditions": starts.tolist()}
        # Chain presets are already in chain coordinates, so Z(0) is the
        # trivial start plus the configured ones.
        Z0 = np.vstack([np.zeros(MULTI_N), starts])
        radius = float(np.linalg.norm(Z0, axis=1).max())
        inside = rng.dirichlet(np.ones(len(Z0)), size=MC_INSIDE) @ Z0
        dirs = rng.standard_normal((MC_OUTSIDE, MULTI_N))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        # Farther from the origin than every vertex, hence outside the hull.
        scale = 1.5 + 1.5 * (np.arange(MC_OUTSIDE) + 0.5) / MC_OUTSIDE
        outside = dirs * (radius * scale)[:, None]
        mc = np.vstack([inside, outside]).T
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    return path, mc


def run_pass(workload: str, config: Path, out: Path, mc, tracer, spawned_at: float,
             ready: float) -> dict:
    from demostab import certify, cli, learner

    def stage(name):
        try:
            return cli.main([name, "--config", str(config), "--out", str(out / "run")])
        except Exception as exc:  # a crash is a failed operation, not a failed benchmark
            return f"{type(exc).__name__}: {exc}"

    synth, validate = STAGES[workload]
    ops = []  # (stage, exit code or exception text), one per operation
    reps = []  # (start, end) of each demos + learn repetition
    # One repetition under the tracer, so that its counts repeat exactly.
    synth_min_s = 0.0 if tracer is not None else SYNTH_MIN_S
    while not reps or reps[-1][1] - reps[0][0] < synth_min_s:
        start = clock()
        ops += [(name, stage(name)) for name in synth]
        reps.append((start, clock()))
    t1 = clock()
    ops += [(name, stage(name)) for name in validate]
    report = None
    if mc is not None:
        try:
            # Looked up at call time so that traced wrappers are used.
            ctrl = learner.load_controller(out / "run" / "controller.json")
            report = certify.contraction_check(ctrl, mc, p_max=MC_P_MAX, dt=MC_DT)
        except Exception as exc:
            report = f"{type(exc).__name__}: {exc}"
    t2 = clock()
    SAMPLER.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_starts = mc.shape[1] if mc is not None else 0
    failures = check_outputs(workload, out / "run", ops, report, n_starts)
    result = {
        "setup_s": SAMPLER.scaled(spawned_at, ready),
        "synth_s": statistics.median(SAMPLER.scaled(a, b) for a, b in reps),
        "validate_s": SAMPLER.scaled(t1, t2),
        "total_s": SAMPLER.scaled(spawned_at, reps[0][1]) + SAMPLER.scaled(t1, t2),
        "peak_rss_mb": rss_mb,
        "wall": {"setup_s": ready - spawned_at,
                 "synth_s": statistics.median(b - a for a, b in reps),
                 "validate_s": t2 - t1, "total_s": reps[0][1] - spawned_at + t2 - t1},
        "attempted": len(ops) + n_starts,
        "failed": len(failures),
        "failures": failures,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, out / "run")
        tracer.dump(out / "trace.json")
    return result


def check_outputs(workload: str, out: Path, ops: list, report, n_starts: int) -> list[str]:
    """One entry per failed operation (a stage call or a Monte Carlo start).

    The output files are those of the last call of each stage; repeated
    demos + learn calls write byte-identical files.
    """
    import numpy as np

    failures = [f"stage {s} exited with {c}" for s, c in ops if c != 0]
    codes = dict(ops)
    if codes.get("learn") == 0:
        cert = json.loads((out / "certificate.json").read_text())
        max_norm = 1.0 - cert["margin"]
        if cert["verdict"] != "pass" or abs(max_norm - CERT_MAX_NORM[workload]) > CERT_TOL:
            failures.append(f"certificate {cert['verdict']} with max norm {max_norm:.6f}, "
                            f"expected {CERT_MAX_NORM[workload]} +- {CERT_TOL}")
    if workload == "ball_beam_all" and codes.get("simulate") == 0:
        traj = json.loads((out / "trajectory.json").read_text())
        x = np.column_stack([traj[f"x{k}"] for k in range(1, 5)])
        below = np.flatnonzero(np.linalg.norm(x, axis=1) < 1e-2)
        if len(below) == 0 or traj["t"][below[0]] >= 40.0:
            failures.append("ball-beam ||x|| did not fall below 1e-2 before 40 s")
    if workload == "quad_track_all" and codes.get("track") == 0:
        summary = json.loads((out / "tracking_summary.json").read_text())
        after, first = summary["max_error_after_first_period"], summary["max_error_first_period"]
        if after is None or not (after < 0.05 and after < first):
            failures.append(f"tracking error after the first period {after} "
                            f"(first period {first})")
    if isinstance(report, str):
        failures += [f"Monte Carlo sweep raised {report}"] * n_starts
    elif report is not None:
        ok = np.all(report.sampled_norms <= report.bounds + 1e-12, axis=0)
        failures += [f"Monte Carlo start {k} broke the contraction bound"
                     for k in np.flatnonzero(~ok)]
    return failures


def layer_metrics(tracer, cli_out: Path) -> dict:
    own = tracer.self_times()
    counts = tracer.counts

    def s(name):
        return own.get(name, 0.0)

    def rate(steps, seconds):
        return steps / seconds if seconds > 0 else 0.0

    selections = counts["multi.select_calls"]
    return {
        "sim.record_s": s("sim.record"),
        "sim.record_steps": counts["sim.record_steps"],
        "demos.to_zv_s": s("demos.to_zv"),
        "demos.validate_s": s("demos.validate"),
        "demos.io_s": s("demos.io"),
        "demos.io_bytes": counts["demos.io_bytes"],
        "embed.transform_s": s("embed.transform"),
        "embed.closed_loop_s": s("embed.closed_loop"),
        "embed.closed_loop_steps": counts["embed.closed_loop_steps"],
        "embed.closed_loop_steps_per_s": rate(counts["embed.closed_loop_steps"],
                                              s("embed.closed_loop")),
        "learner.build_basis_s": s("learner.build_basis"),
        "learner.build_basis_calls": counts["learner.build_basis_calls"],
        "learner.chain_sim_s": s("learner.chain_sim"),
        "learner.chain_steps": counts["learner.chain_steps"],
        "learner.chain_steps_per_s": rate(counts["learner.chain_steps"], s("learner.chain_sim")),
        "learner.ctrl_evals": counts["learner.ctrl_evals"],
        "learner.io_s": s("learner.io"),
        "certify.certificate_s": s("certify.certificate"),
        "certify.find_T_tilde_s": s("certify.find_T_tilde"),
        "certify.contraction_self_s": s("certify.contraction"),
        "geometry.delaunay_s": s("geometry.delaunay"),
        "geometry.locate_calls": counts["geometry.locate_calls"],
        "geometry.locate_s": s("geometry.locate"),
        "geometry.project_calls": counts["geometry.project_calls"],
        "geometry.project_s": s("geometry.project"),
        "multi.build_self_s": s("multi.build"),
        "multi.select_calls": selections,
        "multi.select_self_s": s("multi.select"),
        "multi.outside_hull_frac": (counts["geometry.project_calls"] / selections
                                    if selections else 0.0),
        "systems.quad_demos_s": s("systems.quad_demos"),
        "systems.tracking_self_s": s("systems.tracking"),
        "cli.self_s": s("cli.stage"),
        "cli.bytes_written": sum(p.stat().st_size for p in cli_out.iterdir()),
    }


# Geometry probe: fixed point sets whose seeds do not follow --seed, so the
# numbers stay comparable across every later change.
PROBE_SIZES = [(M, n) for M in (10, 16, 20) for n in (3, 5)]
PROBE_LOCATES = 32
PROBE_PROJECTS = 2


def run_probe() -> dict:
    import numpy as np
    from demostab import geometry

    metrics = {}
    for M, n in PROBE_SIZES:
        rng = np.random.default_rng(1000 * M + n)
        points = rng.standard_normal((M, n))
        inside = rng.dirichlet(np.ones(M), size=PROBE_LOCATES) @ points
        radius = float(np.linalg.norm(points, axis=1).max())
        dirs = rng.standard_normal((PROBE_PROJECTS, n))
        outside = 2.0 * radius * dirs / np.linalg.norm(dirs, axis=1)[:, None]
        t0 = time.perf_counter()
        tri = geometry.delaunay(points)
        t1 = time.perf_counter()
        found = [geometry.locate(tri, q) for q in inside]
        t2 = time.perf_counter()
        for q in outside:
            geometry.project_to_hull(points, q)
        t3 = time.perf_counter()
        if any(j is None for j in found):
            raise RuntimeError(f"probe M={M} n={n}: a hull point was not located")
        tag = f"M{M}n{n}"
        metrics[f"geometry.delaunay_s.{tag}"] = t1 - t0
        metrics[f"geometry.locate_s.{tag}"] = (t2 - t1) / PROBE_LOCATES
        metrics[f"geometry.project_s.{tag}"] = (t3 - t2) / PROBE_PROJECTS
    return metrics


def versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(STAGES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "pass", "traced", "probe"])
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    out = Path(args.out)
    (out / "run").mkdir(parents=True, exist_ok=True)

    import demostab  # noqa: F401  (import cost belongs to set-up)

    if args.mode == "probe":
        SAMPLER.stop()
        emit_result(run_probe())
        return 0
    config, mc = make_inputs(args.workload, args.seed, out)
    ready = clock()
    if args.mode == "setup":
        SAMPLER.stop()
        emit_result({"setup_s": SAMPLER.scaled(args.spawned_at, ready),
                     "wall": {"setup_s": ready - args.spawned_at}, "meta": versions()})
        return 0
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    emit_result(run_pass(args.workload, config, out, mc, tracer, args.spawned_at, ready))
    return 0


if __name__ == "__main__":
    sys.exit(main())
