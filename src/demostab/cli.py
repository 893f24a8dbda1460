"""Batch front end: demos -> validate -> learn -> certify -> simulate/track.

Configuration is a single JSON document naming a preset; PRESETS states each
preset's facts once, and every stage writes plot-ready CSV and JSON into the
output directory.  The demos stage records all expert runs of a preset as one
batch on their shared grid and writes the demonstration block straight from
it.  Runs are reproducible bit for bit on one machine: fixed-step
integration, deterministic tie-breaks, and no randomness anywhere in the
pipeline.  The README configurations write the same bytes under any BLAS
thread count.

A stage reports success on standard output and raises on failure; main maps
the exception to the exit code and prints one line, "usage error: ..." or
"<stage>: ...", to standard error:

    _UsageError, OSError (a file that cannot be read or written)   1
    RiccatiError (expert weights, or the preset_params the line
        names if the config sets any, with no accurate LQR gain)   1
    AffineDependenceError, DegenerateGeometryError                 2
    _StageFailure (a certificate verdict, a missing stage file or
        tracking reference, a failed validation report)            its code: 1, 2 or 3
    DivergenceError, DomainError, SingularEmbeddingError           4

Exit 0 is success, 1 usage, 2 validation failure, 3 certification failure and
4 divergence, a state outside the plant domain or a singular embedding.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import certify as certify_mod
from . import demos as demos_mod
from . import embed as embed_mod
from . import systems
from .errors import AffineDependenceError, DegenerateGeometryError, DivergenceError, DomainError, \
    RiccatiError, SingularEmbeddingError
from .files import read_json, write_csv, write_json
from .learner import CONTROLLER_MEMO, learn_controller, load_controller, save_controller, \
    simulate_chain_closed_loop
from .plant import chain_preset, expert_lqr
from .sim import MAX_STEPS, whole_steps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CERTIFICATION = 3
EXIT_DIVERGENCE = 4


class _UsageError(Exception):
    pass


class _StageFailure(Exception):
    """A stage's own failure (a certificate verdict, a missing input file or tracking
    reference, a failed validation report), which ends the run with exit code ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _numbers(value) -> bool:
    """True for a JSON number (an int or a float, not a bool) or a list of them, at any depth."""
    return all(map(_numbers, value)) if isinstance(value, list) else type(value) in (int, float)


def _floats(what: str, value, kind: str) -> np.ndarray:
    """value, a JSON number or a list of them, as floats; otherwise "<what> must be <kind>"."""
    try:
        if _numbers(value):
            return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # a ragged list; an int past the float range
        pass
    raise _UsageError(f"{what} must be {kind}, got {value!r}")


def _number(what: str, value, positive: bool = False) -> float:
    if isinstance(value, list):
        raise _UsageError(f"{what} must be a number, got {value!r}")
    x = float(_floats(what, value, "a number"))
    if positive and not 0.0 < x < math.inf:
        raise _UsageError(f"{what} must be a positive number, got {value!r}")
    return x


def _vector(what: str, value, n: int) -> np.ndarray:
    x = _floats(what, value, "numbers")
    if x.shape != (n,):
        raise _UsageError(f"{what} must have {n} entries, got {value!r}")
    return x


def _read(path: Path, load: Callable = read_json):
    """load(path); a file that does not decode or hold what load expects is a usage error."""
    try:
        return load(path)
    except (KeyError, TypeError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise _UsageError(f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _known(what: str, data: dict, keys: tuple) -> dict:
    """data; a key outside keys, which no stage would read, is a usage error."""
    for key in data:
        if key not in keys:
            raise _UsageError(f"unknown key {key!r} in {what}; "
                              f"known keys: {', '.join(keys) or 'none'}")
    return data


def _section(data: dict, key: str, keys: tuple) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        raise _UsageError(f"{key} must be a JSON object, got {value!r}")
    return _known(key, dict(value), keys)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """Everything the stages need to know about one preset, each fact stated once.

    plant(preset_params) builds the plant and its integrator-chain embedding,
    or None for a plant whose demonstrations reach chain form by feedback
    linearization; flat_quad_3d has neither, because systems.flat_quad_demo_set
    records it from fixed starts (starts None).  params pairs each
    preset_params key plant reads with its number of entries, None for a
    number.  expert(plant, Q, R) is the
    expert u = expert(x) for the LQR weights Q (default: the diagonal entries
    given here) and R.  starts are the default recorded starts, x0 the
    default simulate start (None: the first recorded start), simulate(cfg,
    ctrl, x0) the closed loop of the simulate stage, returning (times, CSV
    header, CSV columns, state norms), and reference(f, axis) the track
    reference, or None for no tracking.
    """

    Q: tuple
    R: float
    simulate: Callable
    x0: Optional[tuple] = None
    plant: Callable = lambda params: (None, None)
    params: tuple = ()
    expert: Optional[Callable] = None
    starts: Optional[tuple | np.ndarray] = None
    reference: Optional[Callable] = None


def _simulate_chain(cfg: RunConfig, ctrl, z0: np.ndarray):
    traj = simulate_chain_closed_loop(ctrl, z0, cfg.simulate_duration)
    # Chain presets are in normal form (a = 0, b = 1), so the physical input
    # u equals the chain input v; both columns are emitted per the file contract.
    n = traj.states.shape[1]
    header = ["t"] + [f"z{k + 1}" for k in range(n)]
    cols = [traj.times] + [traj.states[:, k] for k in range(n)]
    u = np.atleast_2d(traj.inputs.T).T
    m = u.shape[1]
    header += ["v", "u"] if m == 1 else (
        [f"v{j + 1}" for j in range(m)] + [f"u{j + 1}" for j in range(m)])
    cols += [u[:, j] for j in range(m)] + [u[:, j] for j in range(m)]
    return traj.times, header, cols, np.linalg.norm(traj.states, axis=1)


def _simulate_embedded(cfg: RunConfig, ctrl, x0: np.ndarray):
    n = cfg.embedding.n
    xi0 = _vector("simulate.xi0", cfg.simulate.get("xi0", [0.0] * (n - 1)), n - 1)
    traj = embed_mod.simulate_embedded_closed_loop(cfg.embedding, ctrl, x0, xi0,
                                                   cfg.simulate_duration)
    header = (["t"] + [f"x{k + 1}" for k in range(n)]
              + [f"xi{k + 1}" for k in range(n - 1)] + ["v", "u"])
    cols = ([traj.times] + [traj.x[:, k] for k in range(n)]
            + [traj.xi[:, k] for k in range(n - 1)] + [traj.v, traj.u])
    return traj.times, header, cols, np.linalg.norm(traj.x, axis=1)


def _chain(n: int) -> Preset:
    """chain<n>: unit-vector starts, simulated by default from the first recorded one;
    the 3-chain tracks one axis of the figure eight."""
    unit = np.eye(n)
    unit.flags.writeable = False
    return Preset(plant=lambda params: (chain_preset(n), None), expert=expert_lqr,
                  Q=(1.0,) * n, R=1.0, starts=unit, simulate=_simulate_chain,
                  reference=systems.figure_eight_axis if n == 3 else None)


PRESETS = {
    "flat_quad_axis": _chain(3),
    # Simulated by default from e_1, the first of the fixed starts it records.
    "flat_quad_3d": Preset(Q=(40.0,) * 9, R=1.0, x0=(1.0,) + (0.0,) * 8,
                           simulate=_simulate_chain,
                           reference=lambda f, axis: systems.figure_eight(f)),
    # The expert's weights keep the recorded runs from the default starts
    # inside |phi| < pi/2 (the omega = 10 start is the binding one) while
    # leaving the position response gentle enough that the learned
    # controller, which amplifies the demonstrations affinely, stays inside
    # the beam-angle domain from far-out starts as well.
    "ball_beam": Preset(
        plant=lambda params: systems.ball_beam_preset(**params),
        params=(("b_bar", None), ("g_bar", None), ("w", 3)),
        expert=systems.ball_beam_expert, Q=(0.2, 0.5, 1.0, 2.0), R=0.1,
        starts=((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                (0.0, 0.0, math.pi / 8.0, 0.0), (0.0, 0.0, 0.0, 10.0)),
        x0=(6.0, 0.0, 0.345, 0.0), simulate=_simulate_embedded),
}


def _preset(name) -> Preset:
    """The PRESETS entry, or chain<N> for a positive integer N in plain digits."""
    if not isinstance(name, str):
        raise _UsageError(f"preset must be a string, got {name!r}")
    chain = re.fullmatch(r"chain([0-9]+)", name)
    if chain and int(chain[1]) > 0:
        return _chain(int(chain[1]))
    if name not in PRESETS:
        raise _UsageError(f"unknown preset {name!r}")
    return PRESETS[name]


# The keys each part of a config may hold; any other key is a usage error.
CONFIG_KEYS = ("preset", "T", "dt", "preset_params", "expert", "initial_conditions", "multi",
               "feedback", "t_tilde_grid", "simulate", "track")
SIMULATE_KEYS = ("x0", "duration")  # and xi0, the auxiliary start, on an embedding
TRACK_KEYS = ("f", "duration", "axis", "z0")
EXPERT_KEYS = ("Q", "R")


class RunConfig:
    """Validated view of the JSON configuration document.

    The preset's plant and embedding are built here, once per run.
    """

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise _UsageError(f"the config must be a JSON object, got {data!r}")
        _known("the config", data, CONFIG_KEYS)
        try:
            self.name = data["preset"]
            self.preset = _preset(self.name)
            self.T = _number("T", data["T"], positive=True)
            self.dt = _number("dt", data["dt"], positive=True)
        except KeyError as exc:
            raise _UsageError(f"config missing required key: {exc}") from exc
        sizes = dict(self.preset.params)
        self.preset_params = _section(data, "preset_params", tuple(sizes))
        params = {key: _number(f"preset_params.{key}", value) if sizes[key] is None
                  else _vector(f"preset_params.{key}", value, sizes[key])
                  for key, value in self.preset_params.items()}
        try:
            self.plant, self.embedding = self.preset.plant(params)
        except ValueError as exc:
            raise _UsageError(f"preset_params: {exc}") from exc
        self.expert_params = _section(data, "expert", EXPERT_KEYS)
        self.multi = data.get("multi", False)
        if not isinstance(self.multi, bool):
            raise _UsageError(f"multi must be true or false, got {self.multi!r}")
        self.feedback = data.get("feedback", "closed_loop")
        if self.feedback not in ("closed_loop", "open_loop"):
            raise _UsageError(f"feedback must be closed_loop or open_loop, got {self.feedback!r}")
        grid = data.get("t_tilde_grid", [])
        if not isinstance(grid, list):
            raise _UsageError(f"t_tilde_grid must be a list of numbers, got {grid!r}")
        self.t_tilde_grid = [_number("t_tilde_grid entry", t) for t in grid]
        if not all(0.0 <= t <= self.T for t in self.t_tilde_grid):
            raise _UsageError(f"t_tilde_grid entries must lie in [0, T] with T = {self.T}, "
                              f"got {grid!r}")
        self.simulate = _section(data, "simulate",
                                 SIMULATE_KEYS + ("xi0",) * (self.embedding is not None))
        self.simulate_duration = _number("simulate.duration",
                                         self.simulate.get("duration", 5.0 * self.T), positive=True)
        self.track = _section(data, "track", TRACK_KEYS)
        self.track_f = _number("track.f", self.track.get("f", 0.1), positive=True)
        # Two periods by default, rounded up to whole steps; inf (f = 1e-320) is refused below.
        periods = 2.0 / self.track_f
        if periods / self.dt <= MAX_STEPS:
            periods = math.ceil(periods / self.dt - 1e-9) * self.dt
        self.track_duration = _number("track.duration", self.track.get("duration", periods),
                                      positive=True)
        self.track_axis = self.track.get("axis", 0)
        if type(self.track_axis) is not int or self.track_axis not in (0, 1, 2):
            raise _UsageError(f"track.axis must be the integer 0, 1 or 2, got {self.track_axis!r}")
        for what, span in (("T", self.T), ("simulate.duration", self.simulate_duration),
                           ("track.duration", self.track_duration)):
            try:
                whole_steps(span, self.dt)
            except ValueError as exc:
                raise _UsageError(f"{what}: {exc}") from exc
        if self.track and self.preset.reference is None:  # refused before any stage runs
            raise _UsageError(f"track: the {self.name} preset has no tracking reference")
        self.starts = self._starts(data.get("initial_conditions", "default"))

    def expert_QR(self) -> tuple[np.ndarray, float]:
        """Expert LQR weights: Q (a diagonal or a full n x n matrix, SPD) and scalar R > 0.

        A weight the config leaves out is the preset's default.
        """
        n = len(self.preset.Q)
        Q = self.expert_params.get("Q")
        Q = _floats("expert.Q", list(self.preset.Q) if Q is None else Q, "numbers")
        if Q.ndim == 1:
            Q = np.diag(Q)
        if Q.shape != (n, n):
            raise _UsageError(f"expert.Q must be {n} diagonal entries or {n}x{n}, "
                              f"got shape {Q.shape}")
        if not (np.all(np.isfinite(Q)) and np.allclose(Q, Q.T)
                and np.all(np.linalg.eigvalsh(Q) > 0)):
            raise _UsageError(f"expert.Q must be symmetric positive definite, "
                              f"got {Q.tolist()}")
        R = self.expert_params.get("R")
        return Q, _number("expert.R", self.preset.R if R is None else R, positive=True)

    def _starts(self, given) -> list:
        """The recorded starts: the preset's, or the config's list of at least n states.

        With the trivial run recorded first, n starts give the n+1
        demonstrations a controller needs.
        """
        default = self.preset.starts
        if default is None:
            if given != "default":
                raise _UsageError(f"{self.name} records from its fixed unit-vector starts: "
                                  f"initial_conditions must be \"default\", got {given!r}")
            return []
        if given == "default":
            return [np.asarray(ic, dtype=float) for ic in default]
        if not isinstance(given, list):
            raise _UsageError("initial_conditions must be \"default\" or a list of states, "
                              f"got {given!r}")
        n = len(default[0])
        if len(given) < n:
            raise _UsageError(f"initial_conditions must list at least n = {n} starts for "
                              f"{self.name}, got {len(given)}")
        return [_vector(f"initial_conditions[{k}]", ic, n) for k, ic in enumerate(given)]


# ---------------------------------------------------------------------------
# Demo recording
# ---------------------------------------------------------------------------


def _build_demo_set(cfg: RunConfig):
    """Returns (DemonstrationSet, the embedding's xi (N, n-1, M) or None)."""
    Q, R = cfg.expert_QR()
    if cfg.preset.starts is None:
        return systems.flat_quad_demo_set(cfg.T, cfg.dt, Q, R), None
    plant = cfg.plant
    batch = demos_mod.record_expert(plant, cfg.preset.expert(plant, Q, R), cfg.starts, cfg.T,
                                    cfg.dt)
    if cfg.embedding is None:
        return demos_mod.to_zv(plant, batch), None
    return embed_mod.transform_demos(cfg.embedding, batch)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_demos(cfg: RunConfig, out: Path) -> None:
    demos_mod.SET_MEMO.release()
    dset, xi = _build_demo_set(cfg)
    # The stage owns dset: held under the digest of the bytes written, so that a later
    # stage of this process reads demo_set.json without decoding it.
    demos_mod.SET_MEMO.hold(demos_mod.save_demo_set(
        dset, out / "demo_set.json", [out / f"demo_{i:02d}.csv" for i in range(dset.M)]), dset)
    # A set recorded earlier into out may have had more demonstrations or an embedding.
    for path in out.glob("demo_*.csv"):
        index = re.fullmatch(r"demo_(\d+)\.csv", path.name, re.ASCII)
        if index and path.name == f"demo_{int(index[1]):02d}.csv" and int(index[1]) >= dset.M:
            path.unlink()
    if xi is None:
        (out / "embedded_demos.json").unlink(missing_ok=True)
    else:
        # z and v are in demo_set.json and the demo CSVs; only xi is new here.
        payload = {
            "n": dset.n,
            "w": list(cfg.embedding.w),
            "T": dset.T,
            "dt": dset.dt,
            "demos": [{"xi": xi[:, :, i]} for i in range(dset.M)],
        }
        write_json(out / "embedded_demos.json", payload)
    # A multi controller triangulates all M starts: their differences must span.
    report = demos_mod.validate_affine_independence(dset, range(dset.M) if cfg.multi else None)
    write_json(out / "validation.json", asdict(report))
    if not report.passed:
        raise _StageFailure(EXIT_VALIDATION, f"affine-independence validation failed "
                            f"(min sigma {report.min_sigma:.3e} at t={report.argmin_time})")
    print(f"demos: wrote {dset.M} demonstrations to {out}")


def cmd_learn(cfg: RunConfig, out: Path) -> None:
    demo_path = _require(out / "demo_set.json", "demo set", "demos")
    dset, sha256 = _read(demo_path, demos_mod.read_demo_set)
    _check_grid(cfg, demo_path, "demonstration set", dset)
    CONTROLLER_MEMO.release()
    ctrl = learn_controller(dset, sha256, cfg.multi, cfg.feedback)
    cert = certify_mod.certificate(ctrl)
    CONTROLLER_MEMO.hold(save_controller(ctrl, out / "controller.json"), ctrl)
    write_json(out / "certificate.json", cert.to_dict())
    if not cert.verdict:
        grid = cfg.t_tilde_grid or [cfg.T / 8, cfg.T / 4, cfg.T / 2, cfg.T]
        suggestion = certify_mod.find_T_tilde(ctrl, grid)
        hint = (f"; smallest passing horizon on the search grid: {suggestion}"
                if suggestion is not None else "; no passing horizon on the search grid")
        raise _StageFailure(EXIT_CERTIFICATION, f"certificate failed at T={cert.T} "
                            f"(max norm {1 - cert.margin:.4f}){hint}")
    print(f"learn: certificate passed (margin {cert.margin:.4f}); wrote controller to {out}")


def cmd_certify(cfg: RunConfig, out: Path) -> None:
    cert = certify_mod.certificate(_load_controller(cfg, out))
    write_json(out / "certificate.json", cert.to_dict())
    verdict = f"verdict {'pass' if cert.verdict else 'fail'} (max norm {1 - cert.margin:.4f})"
    if not cert.verdict:
        raise _StageFailure(EXIT_CERTIFICATION, verdict)
    print(f"certify: {verdict}")


def _require(path: Path, what: str, stage: str) -> Path:
    """path; a failure with exit 1 if it does not exist, naming the stage that writes it."""
    if not path.exists():
        raise _StageFailure(EXIT_USAGE, f"no {what} at {path}; run the {stage} stage first")
    return path


def _check_certificate(out: Path, force: bool) -> None:
    cert_path = _require(out / "certificate.json", "certificate", "learn")
    verdict = _read(cert_path, lambda path: read_json(path)["verdict"])
    if verdict != "pass" and not force:
        raise _StageFailure(EXIT_CERTIFICATION, f"certificate verdict is {verdict!r}; "
                            "pass --force to simulate anyway")


def _check_grid(cfg: RunConfig, path: Path, what: str, obj):
    """obj, the demonstration set or controller read from path; a usage error unless it has
    the preset's n and the config's T and dt."""
    for key, learned, given in (("n", obj.n, len(cfg.preset.Q)), ("T", obj.T, cfg.T),
                                ("dt", obj.dt, cfg.dt)):
        if abs(learned - given) > 1e-9 * given:
            raise _UsageError(f"{path} holds a {what} with {key} = {learned}, "
                              f"but the {cfg.name} config has {key} = {given}")
    return obj


def _load_controller(cfg: RunConfig, out: Path):
    path = _require(out / "controller.json", "controller", "learn")
    _require(out / "demo_set.json", "demo set", "demos")
    return _check_grid(cfg, path, "controller", _read(path, load_controller))


def cmd_simulate(cfg: RunConfig, out: Path, force: bool = False) -> None:
    _check_certificate(out, force)
    ctrl = _load_controller(cfg, out)
    x0 = cfg.starts[0].tolist() if cfg.preset.x0 is None else list(cfg.preset.x0)
    x0 = _vector("simulate.x0", cfg.simulate.get("x0", x0), len(cfg.preset.Q))
    times, header, cols, norms = cfg.preset.simulate(cfg, ctrl, x0)
    write_json(out / "trajectory.json", dict(zip(header, cols)),
               [(out / "trajectory.csv", header, cols)])

    samples = norms[:: whole_steps(cfg.T, cfg.dt)]
    ratios = [
        samples[p + 1] / samples[p] if samples[p] > 0 else 0.0
        for p in range(len(samples) - 1)
    ]
    write_json(
        out / "summary.json",
        {
            "final_norm": float(norms[-1]),
            "final_time": float(times[-1]),
            "decay_ratio_per_period": ratios,
            "min_norm": float(norms.min()),
        },
    )
    print(f"simulate: final state norm {norms[-1]:.3e} at t={times[-1]}")


def cmd_track(cfg: RunConfig, out: Path, force: bool = False) -> None:
    if cfg.preset.reference is None:
        raise _StageFailure(EXIT_USAGE, f"the {cfg.name} preset has no tracking reference")
    _check_certificate(out, force)
    ctrl = _load_controller(cfg, out)
    f, duration = cfg.track_f, cfg.track_duration
    ref = cfg.preset.reference(f, cfg.track_axis)
    z0 = _vector("track.z0", cfg.track.get("z0", [0.0] * ref.n), ref.n)
    res = systems.simulate_tracking(ctrl, ref, z0, duration)

    n, m = res.z.shape[1], res.v.shape[1]
    header = (["t"] + [f"z{k + 1}" for k in range(n)] + [f"zr{k + 1}" for k in range(n)]
              + [f"v{j + 1}" for j in range(m)] + [f"u{j + 1}" for j in range(m)]
              + ["err_norm"])
    cols = ([res.times] + [res.z[:, k] for k in range(n)]
            + [res.z_ref[:, k] for k in range(n)]
            + [res.v[:, j] for j in range(m)] + [res.u[:, j] for j in range(m)]
            + [res.error_norm])
    write_csv(out / "tracking.csv", header, cols)

    period = 1.0 / f
    first = res.error_norm[res.times <= period]
    after = res.error_norm[res.times > period]
    write_json(
        out / "tracking_summary.json",
        {
            "max_error_first_period": float(first.max()),
            "max_error_after_first_period": float(after.max()) if len(after) else None,
            "final_error": float(res.error_norm[-1]),
            "reference": ref.description,
        },
    )
    print(f"track: final error {res.error_norm[-1]:.3e} over {duration} s")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _fail(who: str, exc: Exception, code: int) -> int:
    """Print exc, with any notes, as the one standard-error line "who: message"; code."""
    notes = "".join(f"; {note}" for note in getattr(exc, "__notes__", []))
    print(f"{who}: {exc}{notes}", file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(prog="demostab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command",
                        choices=["demos", "learn", "certify", "simulate", "track", "all"])
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--out", default=None, help="output directory (default: config's dir)")
    parser.add_argument("--force", action="store_true",
                        help="simulate/track even if the certificate failed")
    stage = parser.prog
    try:
        args = parser.parse_args(argv)
        config_path = Path(args.config)
        if not config_path.exists():
            raise _UsageError(f"config file not found: {config_path}")
        cfg = RunConfig(_read(config_path))
        out = Path(args.out) if args.out else config_path.parent
        out.mkdir(parents=True, exist_ok=True)
        stages = [args.command]
        if args.command == "all":
            stages = ["demos", "learn", "simulate"] + ["track"] * bool(cfg.track)
        for stage in stages:
            force = (args.force,) if stage in ("simulate", "track") else ()
            # Looked up by name at each call, so that a rebound stage is the one run.
            globals()[f"cmd_{stage}"](cfg, out, *force)
    # The one map from a failure to its exit code.
    except (_UsageError, OSError) as exc:  # OSError: the config, --out or an output file
        return _fail("usage error", exc, EXIT_USAGE)
    except RiccatiError as exc:  # raised for the expert's LQR gain only, after cfg is read
        # The plant's parameters shape the linearization the gain is solved for.
        given = f" or preset_params {json.dumps(cfg.preset_params)}" if cfg.preset_params else ""
        return _fail(f"usage error: expert weights Q and R{given}", exc, EXIT_USAGE)
    except _StageFailure as exc:
        return _fail(stage, exc, exc.code)
    except (AffineDependenceError, DegenerateGeometryError) as exc:
        return _fail(stage, exc, EXIT_VALIDATION)
    except (DivergenceError, DomainError, SingularEmbeddingError) as exc:
        if stage == "demos":  # the expert's recording failed, or its embedding
            stage += (": transform failed" if isinstance(exc, SingularEmbeddingError)
                      else ": recording failed")
        return _fail(stage, exc, EXIT_DIVERGENCE)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
