"""Batch pipeline: subcommands, exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from demostab.cli import (
    EXIT_CERTIFICATION,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    main,
)


def write_config(path: Path, **overrides) -> Path:
    config = {
        "preset": "chain2",
        "expert": {"Q": [1.0, 2.0], "R": 1.0},
        "initial_conditions": "default",
        "T": 1.0,
        "dt": 0.01,
        "simulate": {"x0": [0.5, 0.5], "duration": 8.0},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


def test_full_chain_pipeline(tmp_path):
    cfg = write_config(tmp_path / "config.json", T=2.0)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    for name in ("demo_set.json", "validation.json", "controller.json",
                 "certificate.json", "trajectory.csv", "trajectory.json",
                 "summary.json"):
        assert (tmp_path / name).exists(), name
    assert (tmp_path / "demo_00.csv").exists()
    table = json.loads((tmp_path / "trajectory.json").read_text())
    assert set(table) == {"t", "z1", "z2", "v", "u"}
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "pass"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_norm"] < 1e-2


def test_duplicate_initial_conditions_exit_validation(tmp_path):
    cfg = write_config(tmp_path / "config.json",
                       initial_conditions=[[1.0, 0.0], [1.0, 0.0]])
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_failed_certificate_exit_and_suggestion(tmp_path, capsys):
    # A stiff, lightly damped expert overshoots: ||Psi(0.5)|| ~ 1.4 > 1, so a
    # half-second horizon cannot certify and the exit message reports the
    # grid-search outcome.
    cfg = write_config(tmp_path / "config.json", T=0.5,
                       expert={"Q": [100.0, 0.01], "R": 1.0},
                       t_tilde_grid=[0.125, 0.25, 0.5])
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    code = main(["learn", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_CERTIFICATION
    err = capsys.readouterr().err
    assert "no passing horizon" in err or "smallest passing horizon" in err
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["verdict"] == "fail"


def test_simulate_requires_certificate_pass_unless_forced(tmp_path):
    cfg = write_config(tmp_path / "config.json", T=0.5,
                       expert={"Q": [100.0, 0.01], "R": 1.0})
    main(["demos", "--config", str(cfg), "--out", str(tmp_path)])
    main(["learn", "--config", str(cfg), "--out", str(tmp_path)])
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) \
        == EXIT_CERTIFICATION
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--force"]) == EXIT_OK


def test_usage_errors(tmp_path):
    assert main(["demos", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"preset": "warp_drive", "T": 1.0, "dt": 0.01}))
    assert main(["demos", "--config", str(bad)]) == EXIT_USAGE
    # T not a multiple of dt.
    bad2 = write_config(tmp_path / "bad2.json", T=1.0005)
    assert main(["demos", "--config", str(bad2)]) == EXIT_USAGE
    # Simulate without a prior learn stage.
    cfg = write_config(tmp_path / "config.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE


def test_non_numeric_horizon_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", T="abc")
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("case", ["out_is_a_file", "config_is_a_directory",
                                  "output_path_is_a_directory"])
def test_filesystem_error_is_usage_error(tmp_path, capsys, case):
    cfg = write_config(tmp_path / "config.json")
    out = tmp_path / "out"
    if case == "out_is_a_file":
        out.write_text("")
    elif case == "config_is_a_directory":
        cfg = tmp_path / "cfgdir"
        cfg.mkdir()
    else:
        (out / "demo_set.json").mkdir(parents=True)
    assert main(["demos", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("overrides", [
    {"t_tilde_grid": [1.0, "x"]},
    {"simulate": {"x0": [0.5, 0.5], "duration": "abc"}},
    {"track": {"f": "abc"}},
    {"track": {"duration": "abc"}},
    {"track": {"axis": "x"}},
    {"initial_conditions": [[1.0], [0.0, 1.0]]},
    {"t_tilde_grid": 5},
    {"simulate": "abc"},
    {"simulate": {"x0": [0.5, 0.5, 0.5], "duration": 8.0}},
    {"expert": {"Q": "abc"}},
    {"expert": {"Q": [1.0, 2.0, 3.0]}},
    {"expert": {"Q": [1.0, -2.0]}},
    {"initial_conditions": 5},
    {"simulate": {"x0": [0.5, 0.5], "duration": 0.0}},
    {"track": {"duration": -20.0}},
    {"T": 0.5, "expert": {"Q": [100.0, 0.01], "R": 1.0}, "t_tilde_grid": [-0.25, 0.5]},
    {"preset": "flat_quad_3d", "expert": {"Q": [-40.0] + [1.0] * 8}},
    {"preset": "flat_quad_3d", "expert": {}, "initial_conditions": [[1, 2]],
     "simulate": {"duration": 1.0}},
    {"multi": "no"},
    # Over the step budget (sim.MAX_STEPS = 1e8 steps of dt = 0.01): caught
    # before any stage allocates a grid, also for the default durations 5T
    # and 2/f.
    {"simulate": {"x0": [0.5, 0.5], "duration": 1e9}},
    {"T": 1e7},
    {"T": 3e5, "simulate": {"x0": [0.5, 0.5]}},
    {"track": {"f": 1e-9}},
    {"preset": 5},
    {"preset": None},
    {"preset": ["chain2"]},
    # chain<N> takes a positive integer N in plain digits only: int() would
    # read these three as chain20, chain2 and chain2.
    {"preset": "chain2_0", "expert": {}},
    {"preset": "chain 2", "expert": {}},
    {"preset": "chain+2", "expert": {}},
    {"track": {"axis": True}},
], ids=["t_tilde_grid", "simulate.duration", "track.f", "track.duration", "track.axis",
        "ragged_initial_conditions", "t_tilde_grid_not_a_list", "simulate_not_an_object",
        "simulate.x0_length", "expert.Q", "expert.Q_shape", "expert.Q_indefinite",
        "initial_conditions_not_a_list", "simulate.duration_not_positive",
        "track.duration_not_positive", "t_tilde_grid_negative", "flat_quad_3d.Q_indefinite",
        "flat_quad_3d.initial_conditions", "multi_not_a_bool", "simulate.duration_over_budget",
        "T_over_budget", "simulate.default_duration_over_budget", "track.f_over_budget",
        "preset_is_a_number", "preset_is_null", "preset_is_a_list", "preset_chain2_0",
        "preset_chain_space_2", "preset_chain_plus_2", "track.axis_is_a_bool"])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "config.json", **overrides)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("document", [["a"], 5, None, "chain2"],
                         ids=["list", "number", "null", "string"])
def test_config_not_an_object_is_usage_error(tmp_path, capsys, document):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(document))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("preset", ["ball_beam", "chain2"])
def test_track_without_reference_is_one_line(tmp_path, capsys, preset):
    # Neither preset has a tracking reference (chain2 is no 3-state axis
    # chain): track refuses from the preset alone, before it looks for a
    # certificate or a controller.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": preset, "T": 1.0, "dt": 0.01, "track": {"f": 0.1}}))
    assert main(["track", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "no tracking reference" in err[0]


@pytest.mark.parametrize("stage", ["simulate", "track"])
def test_controller_of_another_size_is_usage_error(tmp_path, capsys, stage):
    # A chain2 controller in the output directory, read by a 3-state preset.
    cfg = write_config(tmp_path / "config.json", T=2.0)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    other = write_config(tmp_path / "axis.json", preset="flat_quad_axis", expert={},
                         simulate={"duration": 2.0}, track={"f": 0.1, "duration": 2.0})
    assert main([stage, "--config", str(other), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and "n = 2" in err[0]


# Weights under which a 3-chain certifies at T = 2.
AXIS_EXPERT = {"Q": [40.0, 40.0, 40.0], "R": 1.0}


@pytest.mark.parametrize("stage", ["simulate", "track"])
@pytest.mark.parametrize("T, dt, named", [(2.1, 0.003, "T = 2.0"), (2.0, 0.002, "dt = 0.001")],
                         ids=["other_T_and_dt", "other_dt"])
def test_controller_of_another_grid_is_usage_error(tmp_path, capsys, stage, T, dt, named):
    # A chain3 controller learned at T = 2, dt = 1e-3, read under a config
    # with another horizon or step: refused, naming the learned and the
    # configured value, instead of failing in (or silently leaving) the
    # controller's grid.
    learned = write_config(tmp_path / "config.json", preset="chain3", expert=AXIS_EXPERT,
                           T=2.0, dt=1e-3)
    for step in ("demos", "learn"):
        assert main([step, "--config", str(learned), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    other = write_config(tmp_path / "other.json", preset="chain3", expert=AXIS_EXPERT, T=T, dt=dt,
                         simulate={"x0": [0.5, 0.5, 0.0], "duration": 4.2},
                         track={"f": 0.5, "duration": 4.2})
    assert main([stage, "--config", str(other), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    key = named.split()[0]
    assert named in err[0] and f"{key} = {T if key == 'T' else dt}" in err[0]


@pytest.mark.parametrize("name, text, stage", [
    ("demo_set.json", "{", "learn"),
    ("demo_set.json", '{"n": 2}', "learn"),
    ("controller.json", "[1, 2", "certify"),
    ("controller.json", "{}", "simulate"),
    ("certificate.json", "not json", "simulate"),
    ("certificate.json", "{}", "track"),
    ("certificate.json", "[]", "simulate"),
    ("config.json", "{", "demos"),
], ids=["demo_set_undecodable", "demo_set_missing_key", "controller_undecodable",
        "controller_missing_key", "certificate_undecodable", "certificate_missing_key",
        "certificate_not_an_object", "config_undecodable"])
def test_unreadable_stage_file_is_usage_error(tmp_path, capsys, name, text, stage):
    # A stage file (or the config) that does not decode, lacks a key or is
    # no JSON object: one usage line naming that file.
    cfg = write_config(tmp_path / "config.json", preset="chain3", expert=AXIS_EXPERT, T=2.0,
                       simulate={"x0": [0.5, 0.5, 0.0], "duration": 2.0},
                       track={"f": 0.5, "duration": 2.0})
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    (tmp_path / name).write_text(text)
    assert main([stage, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert str(tmp_path / name) in err[0]


def test_demo_start_outside_domain_exit_divergence(tmp_path, capsys):
    # |phi| >= pi/2 is outside the ball-beam domain: one line, exit 4.
    config = {"preset": "ball_beam", "T": 1.0, "dt": 0.01,
              "initial_conditions": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.6, 0.0], [0.0, 0.0, 0.0, 1.0]]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "outside the domain" in err[0]


def test_demo_start_outside_domain_names_the_start(tmp_path, capsys):
    # The failing configured start, the third one (column 3 of the recorded
    # batch, after the trivial run), is named on the same single line.
    config = {"preset": "ball_beam", "T": 1.0, "dt": 0.01,
              "initial_conditions": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.6, 0.0], [0.0, 0.0, 0.0, 1.0]]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code = main(["demos", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == EXIT_DIVERGENCE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "recording from x0=[0.  0.  1.6 0. ] failed" in err[0]


def test_demo_singular_embedding_is_one_line(tmp_path, capsys):
    # r(x) = 2 b x2 x4 - b g cos x3 + 2 w3 b x1 x4 vanishes at the first
    # configured start (6 * 1.635 = g): the transform fails, not the recording.
    config = {"preset": "ball_beam", "T": 1.0, "dt": 0.01,
              "initial_conditions": [[1.635, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 0.3, 0]]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("demos: transform failed: r(x) = ")
    assert "along demonstration 1 at t=0.000000" in err[0]
    assert not (tmp_path / "demo_set.json").exists()


def test_multi_pipeline_writes_per_simplex_certificate(tmp_path):
    cfg = write_config(
        tmp_path / "config.json",
        T=2.0,
        multi=True,
        initial_conditions=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.5]],
    )
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert len(cert["per_simplex"]) >= 2
    ctrl = json.loads((tmp_path / "controller.json").read_text())
    assert ctrl["mode"] == "multi"


def test_determinism_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path / "config.json", T=1.0)
    for out in (out_a, out_b):
        assert main(["all", "--config", str(cfg.resolve()), "--out", str(out)]) == EXIT_OK
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_ball_beam_divergence_exit(tmp_path):
    config = {
        "preset": "ball_beam",
        "T": 2.0,
        "dt": 0.005,
        "t_tilde_grid": [1.0, 2.0],
        "simulate": {"x0": [0.0, 0.0, 1.5, 8.0], "duration": 4.0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "embedded_demos.json").exists()
    # Two seconds is too short a horizon to certify; the controller file is
    # still written, and --force lets the simulation attempt proceed.
    assert main(["learn", "--config", str(cfg), "--out", str(tmp_path)]) \
        == EXIT_CERTIFICATION
    # The beam angle starts at 1.5 rad with high spin: the run leaves the
    # domain and must report divergence.
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--force"]) == EXIT_DIVERGENCE


def test_ball_beam_start_outside_the_domain_is_one_line(tmp_path, capsys):
    # The committed state at t = 0 leaves the domain (|phi| >= pi/2): the
    # line rk4's grid-point guard wrote, now from the anchor read.
    config = {
        "preset": "ball_beam",
        "T": 2.0,
        "dt": 0.005,
        "t_tilde_grid": [1.0, 2.0],
        "simulate": {"x0": [0.0, 0.0, 2.0, 0.0], "duration": 4.0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["learn", "--config", str(cfg), "--out", str(tmp_path)]) \
        == EXIT_CERTIFICATION
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                 "--force"]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err.splitlines()
    assert err == ["simulate: state [0. 0. 2. 0.] is outside the domain of ball_beam "
                   "at t=0.000000"]


def test_ball_beam_start_past_the_divergence_bound_is_one_line(tmp_path, capsys):
    # A start past the norm bound fails at t = 0 as any committed state
    # does, before a stage evaluates it: one line, no warning, exit 4.
    config = {
        "preset": "ball_beam",
        "T": 2.0,
        "dt": 0.005,
        "t_tilde_grid": [1.0, 2.0],
        "simulate": {"x0": [6.0, 0.0, 0.345, 1e200], "duration": 4.0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["learn", "--config", str(cfg), "--out", str(tmp_path)]) \
        == EXIT_CERTIFICATION
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                     "--force"]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err.splitlines()
    assert err == ["simulate: state diverged at t=0.000000"]


@pytest.mark.parametrize("module", ["demostab", "demostab.cli"])
def test_import_leaves_the_multi_geometry_unloaded(module):
    # scipy.optimize and scipy.spatial serve multi controllers only; a fresh
    # interpreter loads them on the first use of MultiController.
    import demostab

    code = f"""
import sys
import {module}
assert "scipy.optimize" not in sys.modules and "scipy.spatial" not in sys.modules, [
    m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules]
from demostab import MultiController
from demostab.multi import MultiController as direct
assert MultiController is direct and "scipy.spatial" in sys.modules
"""
    src = str(Path(demostab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr


def test_quadrotor_track_pipeline(tmp_path):
    config = {
        "preset": "flat_quad_3d",
        "T": 2.0,
        "dt": 0.01,
        "simulate": {"x0": [0.0] * 9, "duration": 2.0},
        "track": {"f": 0.1, "duration": 10.0},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    # Ten demonstration files: nine unit-vector starts plus the trivial one.
    assert len(list(tmp_path.glob("demo_*.csv"))) == 10
    assert (tmp_path / "tracking.csv").exists()
    header = (tmp_path / "tracking.csv").read_text().splitlines()[0].split(",")
    assert "zr1" in header and "err_norm" in header and "u3" in header
    summary = json.loads((tmp_path / "tracking_summary.json").read_text())
    assert summary["max_error_first_period"] > 0.0


def readme_config(preset: str) -> dict:
    """The README's JSON configuration block for a preset."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in text.split("```json\n")[1:]]
    return next(c for c in map(json.loads, blocks) if c.get("preset") == preset)


def test_readme_quadrotor_simulate_decays(tmp_path):
    # The README start is off the equilibrium, so the simulate stage shows
    # the certified decay instead of integrating zero.
    config = readme_config("flat_quad_3d")
    config["simulate"]["duration"] = 3 * config["T"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    for stage in ("demos", "learn", "simulate"):
        assert main([stage, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    x0_norm = sum(x * x for x in config["simulate"]["x0"]) ** 0.5
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert 0.0 < summary["final_norm"] < x0_norm
    assert len(summary["decay_ratio_per_period"]) == 3
    assert all(r < 1.0 for r in summary["decay_ratio_per_period"])


def test_ball_beam_demo_file_count(tmp_path):
    config = {"preset": "ball_beam", "T": 1.0, "dt": 0.01}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    main(["demos", "--config", str(cfg), "--out", str(tmp_path)])
    # Five demonstration files: four recorded starts plus the trivial one.
    assert len(list(tmp_path.glob("demo_*.csv"))) == 5


def test_simulate_zero_state_stays_zero(tmp_path):
    cfg = write_config(tmp_path / "config.json", T=1.0,
                       simulate={"x0": [0.0, 0.0], "duration": 2.0})
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    table = json.loads((tmp_path / "trajectory.json").read_text())
    assert all(v == 0.0 for v in table["z1"])
    assert all(v == 0.0 for v in table["u"])


def test_flat_quad_axis_preset_is_three_chain(tmp_path):
    cfg = write_config(tmp_path / "config.json", preset="flat_quad_axis", T=2.0,
                       expert={"Q": [40.0, 40.0, 40.0], "R": 1.0},
                       simulate={"x0": [0.5, 0.0, 0.0], "duration": 4.0})
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    dset = json.loads((tmp_path / "demo_set.json").read_text())
    assert dset["n"] == 3 and dset["M"] == 4


def test_flat_quad_expert_weights_are_used(tmp_path):
    # The whole expert Q reaches the quadrotor's LQR gain: 40 I is the
    # default, and changing a weight other than the first changes the demos.
    def demo_set_bytes(name, **overrides):
        config = {"preset": "flat_quad_3d", "T": 0.5, "dt": 0.01, **overrides}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        assert main(["demos", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
        return (tmp_path / name / "demo_set.json").read_bytes()

    default = demo_set_bytes("default")
    assert demo_set_bytes("diagonal", expert={"Q": [40.0] * 9, "R": 1.0}) == default
    assert demo_set_bytes("first_only", expert={"Q": [40.0] + [1.0] * 8}) != default
    assert demo_set_bytes("input_weight", expert={"R": 2.0}) != default


def test_certify_subcommand(tmp_path):
    cfg = write_config(tmp_path / "config.json", T=2.0)
    main(["demos", "--config", str(cfg), "--out", str(tmp_path)])
    main(["learn", "--config", str(cfg), "--out", str(tmp_path)])
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
