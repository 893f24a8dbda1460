"""Batch pipeline: subcommands, exit codes, file outputs, determinism."""

import hashlib
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
    RunConfig,
    main,
)
from demostab.files import write_json


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


@pytest.mark.parametrize("starts, message", [
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], "learn: points [3] coincide with other points"),
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-13]], "learn: nearly affinely dependent vertices: "
                                              "[[0.0, 0.0], [1.0, 0.0], [1.0, 1e-13]]"),
], ids=["repeated_start", "nearly_dependent_start"])
def test_degenerate_multi_starts_exit_validation(tmp_path, capsys, starts, message):
    # A multi controller triangulates the starts: a start that repeats
    # another, or one 1e-13 off it, leaves no usable Delaunay simplex.  The
    # demonstrations are recorded; learn refuses them with one line, exit 2.
    cfg = write_config(tmp_path / "config.json", multi=True, initial_conditions=starts)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err.splitlines() == [message]
    assert not (tmp_path / "controller.json").exists()


def test_multi_set_is_validated_over_all_its_demonstrations(tmp_path, capsys):
    # Demonstrations 0..n of this set are affinely dependent: the starts
    # (1, 0) and (2, 0) lie on a line through the trivial run's 0.  The
    # multi controller triangulates all four starts into the simplices
    # (0, 1, 3) and (1, 2, 3), which the validation of all M demonstrations
    # accepts.
    cfg = write_config(tmp_path / "config.json", expert={}, multi=True,
                       initial_conditions=[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "validation.json").read_text())
    assert report["passed"] and report["min_sigma"] > 0.2


@pytest.mark.parametrize("preset, starts", [
    ("chain3", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ("ball_beam", [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.1, 0.0]]),
], ids=["chain3_two_starts", "ball_beam_three_starts"])
def test_too_few_starts_is_usage_error(tmp_path, capsys, preset, starts):
    # n starts and the trivial run make the n+1 demonstrations a controller
    # needs; fewer are refused with the config, naming n and the count given.
    cfg = write_config(tmp_path / "config.json", preset=preset, expert={},
                       initial_conditions=starts)
    assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    n = len(starts[0])
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert f"n = {n}" in err[0] and f"got {len(starts)}" in err[0]
    assert not (tmp_path / "demo_set.json").exists()


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


def test_failed_certify_verdict_is_one_stderr_line(tmp_path, capsys):
    # The certify stage on the controller that fails at T = 0.5: the verdict
    # is the one line on standard error, and nothing goes to standard output.
    cfg = write_config(tmp_path / "config.json", T=0.5,
                       expert={"Q": [100.0, 0.01], "R": 1.0})
    main(["demos", "--config", str(cfg), "--out", str(tmp_path)])
    main(["learn", "--config", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) \
        == EXIT_CERTIFICATION
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["certify: verdict fail (max norm 1.3976)"]


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
    # Over the step budget (sim.MAX_STEPS = 2^22 = 4194304 steps of dt = 0.01):
    # caught before any stage allocates a grid, also for the default durations
    # 5T and 2/f.
    {"simulate": {"x0": [0.5, 0.5], "duration": 1e9}},
    {"T": 1e7},
    {"T": 3e4, "simulate": {"x0": [0.5, 0.5]}},
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
    # A nonzero xi0 would move the trivial demonstration off z = 0.
    {"preset": "ball_beam", "expert": {}, "preset_params": {"xi0": [0.1, 0.0, 0.0]}},
    # T = 1: a horizon past the demonstrations could never be searched.
    {"t_tilde_grid": [0.5, 2.0]},
    # A key no stage reads, which would otherwise leave its default in force.
    {"feedbak": "open_loop"},
    {"simulate": {"x0": [0.5, 0.5], "duraton": 30.0}},
    {"simulate": {"x0": [0.5, 0.5], "xi0": [0.0]}},
    {"track": {"freq": 0.1}},
    {"expert": {"Q": [1.0, 2.0], "r": 1.0}},
    {"preset_params": {"b_bar": 0.5}},
    {"preset": "flat_quad_3d", "expert": {}, "initial_conditions": "default",
     "preset_params": {"w": [1.0]}},
    {"preset": "ball_beam", "expert": {}, "preset_params": {"b_barr": 0.5}},
    # Numbers are JSON numbers: no string, no bool, no int past the float range.
    {"T": "1"},
    {"T": True},
    {"dt": "0.01"},
    {"expert": {"Q": ["1", True]}},
    {"initial_conditions": [["1", 0], [0, 1]]},
    {"t_tilde_grid": ["0.5", True]},
    {"preset": "ball_beam", "expert": {}, "preset_params": {"g_bar": "9.81"}},
    {"preset": "ball_beam", "expert": {}, "preset_params": {"w": [True, 3, 3]}},
    {"preset": "ball_beam", "expert": {}, "preset_params": {"b_bar": [0.5]}},
    {"T": 10**400},
    {"simulate": {"x0": [10**400, 0.5], "duration": 8.0}},
], ids=["t_tilde_grid", "simulate.duration", "track.f", "track.duration", "track.axis",
        "ragged_initial_conditions", "t_tilde_grid_not_a_list", "simulate_not_an_object",
        "simulate.x0_length", "expert.Q", "expert.Q_shape", "expert.Q_indefinite",
        "initial_conditions_not_a_list", "simulate.duration_not_positive",
        "track.duration_not_positive", "t_tilde_grid_negative", "flat_quad_3d.Q_indefinite",
        "flat_quad_3d.initial_conditions", "multi_not_a_bool", "simulate.duration_over_budget",
        "T_over_budget", "simulate.default_duration_over_budget", "track.f_over_budget",
        "preset_is_a_number", "preset_is_null", "preset_is_a_list", "preset_chain2_0",
        "preset_chain_space_2", "preset_chain_plus_2", "track.axis_is_a_bool",
        "ball_beam.preset_params.xi0", "t_tilde_grid_above_T", "unknown_key",
        "simulate.unknown_key", "chain2.simulate.xi0", "track.unknown_key", "expert.unknown_key",
        "chain2.preset_params", "flat_quad_3d.preset_params", "ball_beam.preset_params.typo",
        "T_a_string", "T_a_bool", "dt_a_string", "expert.Q_a_string_and_a_bool",
        "initial_conditions_a_string", "t_tilde_grid_a_string_and_a_bool",
        "ball_beam.preset_params.g_bar_a_string", "ball_beam.preset_params.w_a_bool",
        "ball_beam.preset_params.b_bar_a_list", "T_past_the_float_range",
        "simulate.x0_past_the_float_range"])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "config.json", **overrides)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")


@pytest.mark.parametrize("overrides, message", [
    ({"T": "1"}, "T must be a number, got '1'"),
    ({"preset_params": {"g_bar": "9.81"}}, "preset_params.g_bar must be a number, got '9.81'"),
    ({"preset_params": {"w": [True, 3, 3]}}, "preset_params.w must be numbers, got [True, 3, 3]"),
    ({"preset_params": {"g_bar": float("inf")}},
     "preset_params: b_bar and g_bar must be positive and finite"),
], ids=["T", "g_bar", "w", "g_bar_inf"])
def test_config_number_is_refused_by_its_key(tmp_path, capsys, overrides, message):
    # A ball-beam parameter that is not a finite positive number is refused
    # while the config is read, not blamed later on the expert's weights.
    cfg = write_config(tmp_path / "config.json", preset="ball_beam", expert={},
                       simulate={"duration": 8.0}, **overrides)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [f"usage error: {message}"]


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", simulate={"x0": [0.5, 0.5], "duraton": 30.0})
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["usage error: unknown key 'duraton' in simulate; known keys: x0, duration"]


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
    # all refuses the track section before any stage runs: no file is written.
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "all")]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "no tracking reference" in err[0]
    assert not (tmp_path / "all" / "demo_set.json").exists()


@pytest.mark.parametrize("stage", ["certify", "simulate", "track"])
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


@pytest.mark.parametrize("stage", ["learn", "certify", "simulate", "track"])
@pytest.mark.parametrize("T, dt, named", [(2.1, 0.003, "T = 2.0"), (2.0, 0.002, "dt = 0.001")],
                         ids=["other_T_and_dt", "other_dt"])
def test_controller_of_another_grid_is_usage_error(tmp_path, capsys, stage, T, dt, named):
    # A chain3 controller learned at T = 2, dt = 1e-3, read under a config
    # with another horizon or step: refused, naming the learned and the
    # configured value, instead of failing in (or silently leaving) the
    # controller's grid.  learn refuses the demonstration set of that grid
    # the same way.
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


def _chain3_run(tmp_path, capsys) -> Path:
    """A certified chain3 run in tmp_path, with simulate and track settings; its config."""
    cfg = write_config(tmp_path / "config.json", preset="chain3", expert=AXIS_EXPERT, T=2.0,
                       simulate={"x0": [0.5, 0.5, 0.0], "duration": 2.0},
                       track={"f": 0.5, "duration": 2.0})
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    return cfg


def _chain3_demo_set(*lengths_and_starts, first=(0.0, 0.0, 0.0)) -> str:
    """A chain3 demo_set.json on the grid 0, 0.01, 0.02; each demonstration holds
    its start for the given number of samples, the first one held at first."""
    demos = [{"z": [list(first)] * 3, "v": [0.0] * 3}]
    demos += [{"z": [list(z0)] * length, "v": [0.0] * length}
              for length, z0 in lengths_and_starts]
    return json.dumps({"n": 3, "m": 1, "M": len(demos), "T": 0.02, "dt": 0.01, "demos": demos})


@pytest.mark.parametrize("name, text, stage, detail", [
    ("demo_set.json", "{", "learn", ""),
    ("demo_set.json", '{"n": 2}', "learn", ""),
    ("demo_set.json", _chain3_demo_set((3, (1, 0, 0)), (2, (0, 1, 0)), (3, (0, 0, 1))), "learn",
     "z of demonstration 2 has 2 samples, z of demonstration 0 has 3"),
    ("demo_set.json", _chain3_demo_set((3, (1, 0, 0)), (3, (0, 1, 0)), (3, (0, 0, 1)),
                                       first=(0.0, 0.0, 1e-9)), "learn", ""),
    ("demo_set.json", _chain3_demo_set((3, (1, 0, 0)), (3, (0, 1, 0))), "learn", ""),
    ("controller.json", "[1, 2", "certify", ""),
    ("controller.json", "{}", "simulate", ""),
    ("controller.json", json.dumps({"mode": "single", "feedback_mode": "closed_loop", "T": 2.0,
                                    "dt": 0.01, "n": 3, "m": 1, "I": [0, 1, 2, 3],
                                    "demo_set_sha256": "0" * 64}), "simulate",
     "demo_set.json is not the demonstration set"),
    ("certificate.json", "not json", "simulate", ""),
    ("certificate.json", "{}", "track", ""),
    ("certificate.json", "[]", "simulate", ""),
    ("config.json", "{", "demos", ""),
], ids=["demo_set_undecodable", "demo_set_missing_key", "demo_set_unequal_lengths",
        "demo_set_first_not_zero", "demo_set_too_few", "controller_undecodable",
        "controller_missing_key", "controller_digest_mismatch", "certificate_undecodable",
        "certificate_missing_key", "certificate_not_an_object", "config_undecodable"])
def test_unreadable_stage_file_is_usage_error(tmp_path, capsys, name, text, stage, detail):
    # A stage file (or the config) that does not decode, lacks a key, is no
    # JSON object or holds a demonstration set that breaks its invariants
    # (demonstrations of unequal length, a first one that is not zero, fewer
    # than n+1), or a controller whose digest is not its demo_set.json's: one
    # usage line naming that file, and for unequal lengths the demonstration
    # and both sample counts.
    cfg = _chain3_run(tmp_path, capsys)
    (tmp_path / name).write_text(text)
    assert main([stage, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert str(tmp_path / name) in err[0] and detail in err[0]


def test_controller_file_names_its_demo_set(tmp_path, capsys):
    # controller.json records how the controller was learned, with no float
    # array and no path; the set itself stays in demo_set.json.
    _chain3_run(tmp_path, capsys)
    record = json.loads((tmp_path / "controller.json").read_text())
    assert record == {"mode": "single", "feedback_mode": "closed_loop", "T": 2.0, "dt": 0.01,
                      "n": 3, "m": 1, "I": [0, 1, 2, 3],
                      "demo_set_sha256": hashlib.sha256(
                          (tmp_path / "demo_set.json").read_bytes()).hexdigest()}


@pytest.mark.parametrize("stage", ["certify", "simulate", "track"])
def test_demo_set_edited_after_learn_is_refused(tmp_path, capsys, stage):
    # One v sample of demonstration 1 changed after learn: the controller no
    # longer names this set, so every stage that loads it refuses with one
    # line naming both files.
    cfg = _chain3_run(tmp_path, capsys)
    demo_path = tmp_path / "demo_set.json"
    data = json.loads(demo_path.read_text())
    data["demos"][1]["v"][5] += 1e-3
    write_json(demo_path, data)
    assert main([stage, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")
    assert str(demo_path) in err[0] and str(tmp_path / "controller.json") in err[0]


def test_controller_index_set_edited_after_learn_is_refused(tmp_path, capsys):
    # The digest in controller.json covers demo_set.json, not the index set,
    # so a load checks the edited set's conditioning again: demonstrations
    # 0, 1 and 3 (starts 0, e_1 and 2 e_1) are collinear.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "chain2", "T": 1.0, "dt": 0.01,
                               "initial_conditions": [[1, 0], [0, 1], [2, 0]]}))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "controller.json"
    record = json.loads(path.read_text())
    assert record["I"] == [0, 1, 2]
    record["I"] = [0, 1, 3]
    write_json(path, record)
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "affinely dependent" in err[0]


@pytest.mark.parametrize("multi, key, position, value", [
    (False, "I", 0, 2.0),
    (False, "I", 0, -1),
    (False, "I", 0, True),
    (True, "simplices", 2, 1e308),
], ids=["float", "negative", "bool", "huge_in_simplex"])
def test_controller_index_outside_the_set_is_one_line(tmp_path, capsys, multi, key, position,
                                                      value):
    # An index must be an integer in 0..M-1: 2.0 and 1e308 are no index, -1
    # would read as Python's M-1 and true as 1.
    starts = [[1, 0], [0, 1], [-1, -1]] if multi else [[1, 0], [0, 1], [2, 0]]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "chain2", "T": 1.0, "dt": 0.01, "multi": multi,
                               "initial_conditions": starts}))
    main(["all", "--config", str(cfg), "--out", str(tmp_path)])
    path = tmp_path / "controller.json"
    record = json.loads(path.read_text())
    (record[key] if multi else [record[key]])[0][position] = value
    write_json(path, record)
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--force"]) \
        == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and "0..3" in err[0], err


def test_demos_rerun_without_learn_is_refused(tmp_path, capsys):
    # New starts recorded over the set a controller was learned from, and no
    # learn stage after them: simulate refuses the stale controller.
    cfg = write_config(tmp_path / "config.json", T=2.0)
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    other = write_config(tmp_path / "other.json", T=2.0,
                         initial_conditions=[[1.0, 0.5], [-0.5, 1.0]])
    assert main(["demos", "--config", str(other), "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["simulate", "--config", str(other), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "is not the demonstration set" in err[0]


@pytest.mark.parametrize("missing, what, writer", [("controller.json", "controller", "learn"),
                                                   ("demo_set.json", "demo set", "demos")],
                         ids=["no_controller", "no_demo_set"])
@pytest.mark.parametrize("stage", ["certify", "simulate", "track"])
def test_missing_stage_file_names_the_stage_that_writes_it(tmp_path, capsys, stage, missing,
                                                           what, writer):
    # Every stage that loads the controller needs controller.json and the
    # demo_set.json it was learned from; without either it exits 1 with one
    # line naming the stage that writes the file.
    cfg = _chain3_run(tmp_path, capsys)
    (tmp_path / missing).unlink()
    assert main([stage, "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"{stage}: no {what} at {tmp_path / missing}; run the {writer} stage first"]


def test_subnormal_start_is_one_line(tmp_path, capsys):
    # sigma_max / sigma_min of a subnormal sigma_min overflows to inf, silently.
    cfg = write_config(tmp_path / "config.json",
                       initial_conditions=[[1.0, 0.0], [0.0, -1e-320], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["demos", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("demos: affine-independence validation failed")


@pytest.mark.parametrize("preset, Q", [("chain2", [1e308, 1e308]), ("chain2", [1e-300, 1.0]),
                                       ("chain17", None)])
def test_expert_weights_without_a_riccati_solution_are_one_line(tmp_path, capsys, preset, Q):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": preset, "T": 1.0, "dt": 0.01,
                               "expert": {} if Q is None else {"Q": Q}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: expert weights Q and R: "), err
    assert not (tmp_path / "demo_set.json").exists()


@pytest.mark.parametrize("params", [{"b_bar": 1e308}, {"g_bar": 1e308}, {"b_bar": 1e160},
                                    {"b_bar": 1e-20}],
                         ids=["b_bar_1e308", "g_bar_1e308", "b_bar_1e160", "b_bar_1e-20"])
def test_preset_params_without_a_riccati_solution_are_named(tmp_path, capsys, params):
    # The default weights have a gain for the default ball-beam, but not for
    # these plants' linearizations: the one line names the preset_params too.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "ball_beam", "T": 0.5, "dt": 0.001,
                               "preset_params": params}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"usage error: expert weights Q and R or preset_params {json.dumps(params)}: "), err
    assert not (tmp_path / "demo_set.json").exists()


def test_expert_too_stiff_for_the_step_is_one_line(tmp_path, capsys):
    # Q = diag(1e200, 1e-200) has an accurate gain, K = (1e100, 1.4e50), whose
    # closed loop no step of 0.01 s can follow: the recording diverges.
    cfg = write_config(tmp_path / "config.json", expert={"Q": [1e200, 1e-200]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_DIVERGENCE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("demos: recording failed: state diverged"), err


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
    assert ctrl["mode"] == "multi" and "demo_set" not in ctrl
    assert set(ctrl) == {"mode", "feedback_mode", "T", "dt", "n", "m", "kind", "simplices",
                         "demo_set_sha256"}


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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="pins a process to a CPU")
def test_outputs_on_one_cpu_and_on_two(tmp_path):
    # A chain2 run whose demo set (3001 rows) and trajectory (10001 rows) span several
    # blocks of rows: pinned to one CPU every block is formatted in process, unpinned a
    # helper formats every other one. The trees are byte-identical, and when demostab all
    # returns, no process it started is left, running or a zombie.
    cfg = write_config(tmp_path / "config.json", T=3.0, dt=1e-3,
                       simulate={"x0": [0.5, 0.5], "duration": 10.0})
    cpu, cpus = min(os.sched_getaffinity(0)), len(os.sched_getaffinity(0))
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("two", None)):
        code = f"""
import os
from demostab.cli import main
helpers, fork = [], os.fork
os.fork = lambda: helpers.append(fork()) or helpers[-1]
assert main(["all", "--config", {str(cfg)!r}, "--out", {str(tmp_path / name)!r}]) == 0
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(os.getpid(), len(helpers))
"""
        result = _fresh_python(code, preexec_fn=pin, start_new_session=True, timeout=60)
        assert result.returncode == 0, result.stderr
        pid, helpers = map(int, result.stdout.splitlines()[-1].split())
        assert helpers == (0 if name == "one" or cpus < 2 else 2), (name, helpers)
        with pytest.raises(ProcessLookupError):  # nothing left in the run's process group
            os.killpg(pid, 0)
    one, two = tmp_path / "one", tmp_path / "two"
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir()) and names
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


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
    code = f"""
import sys
import {module}
assert "scipy.optimize" not in sys.modules and "scipy.spatial" not in sys.modules, [
    m for m in ("scipy.optimize", "scipy.spatial") if m in sys.modules]
from demostab import MultiController
from demostab.multi import MultiController as direct
assert MultiController is direct and "scipy.spatial" in sys.modules
"""
    result = _fresh_python(code)
    assert result.returncode == 0, result.stderr


def _fresh_python(code: str, **kwargs) -> subprocess.CompletedProcess:
    """code run by a fresh interpreter that imports demostab from this checkout; kwargs go
    to subprocess.run."""
    import demostab

    src = str(Path(demostab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          **kwargs)


def test_single_controller_run_loads_no_scipy(tmp_path):
    # The expert's Riccati solve and every single-basis stage are NumPy only;
    # scipy serves multi controllers alone.
    cfg = write_config(tmp_path / "config.json")
    code = f"""
import sys
import demostab.cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert not scipy_modules(), scipy_modules()
assert demostab.cli.main(["all", "--config", {str(cfg)!r}, "--out", {str(tmp_path)!r}]) == 0
assert not scipy_modules(), scipy_modules()
"""
    result = _fresh_python(code)
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


@pytest.mark.parametrize("preset, section, duration", [
    ("ball_beam", "simulate", 40.0005),
    ("flat_quad_3d", "track", 20.0005),
], ids=["ball_beam.simulate", "flat_quad_3d.track"])
def test_duration_off_the_grid_is_one_line(tmp_path, capsys, preset, section, duration):
    # A duration that is no whole number of steps dt is refused before any
    # stage runs, naming the duration and dt.
    config = readme_config(preset)
    config[section]["duration"] = duration
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"usage error: {section}.duration: {duration} is not a whole multiple "
                   f"of dt=0.001"]
    assert not (tmp_path / "demo_set.json").exists()


@pytest.mark.parametrize("f, steps", [(0.3, 6667), (0.1, 20000), (0.25, 8000), (7.0, 286)])
def test_default_track_duration_is_two_periods_in_whole_steps(f, steps):
    # 2/f, rounded up to whole steps of dt = 1e-3 where it is not whole:
    # 6.667 s for f = 0.3.
    config = readme_config("flat_quad_3d")
    config["track"] = {"f": f}
    assert RunConfig(config).track_duration == steps * 1e-3


def test_default_track_duration_of_a_vanishing_frequency_is_one_line(tmp_path, capsys):
    # 2/f overflows to inf for f = 1e-320: refused with one line, no traceback.
    cfg = write_config(tmp_path / "config.json", preset="flat_quad_axis", expert={},
                       simulate={"duration": 2.0}, track={"f": 1e-320})
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: track.duration")


def test_chain_simulate_starts_at_the_first_recorded_start(tmp_path, capsys):
    # With no simulate section a chain preset simulates from its first
    # recorded start, e_1, not from the equilibrium: the run decays.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "chain2", "T": 1.0, "dt": 0.01}))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1].endswith("at t=5.0")
    summary = json.loads((tmp_path / "summary.json").read_text())
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[1].split(",")[:3] == ["0.0", "1.0", "0.0"]
    assert 0.0 < summary["final_norm"] < 1.0


def test_quadrotor_simulate_starts_at_the_first_recorded_start(tmp_path):
    # With no simulate.x0 the quadrotor simulates from e_1, the first of its
    # fixed starts, not from the equilibrium: the run decays.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "flat_quad_3d", "T": 2.0, "dt": 0.01,
                               "simulate": {"duration": 6.0}}))
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[1].split(",")[1:10] == ["1.0"] + ["0.0"] * 8
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert 0.0 < summary["final_norm"] < 1.0


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


def test_demos_rerun_removes_its_stale_files(tmp_path):
    # A set of fewer demonstrations, or one without an embedding, recorded into
    # the same directory leaves none of the earlier set's files behind; files
    # that only look like its names stay.
    out = tmp_path / "out"
    beam = tmp_path / "beam.json"
    beam.write_text(json.dumps({"preset": "ball_beam", "T": 1.0, "dt": 0.01}))
    assert main(["demos", "--config", str(beam), "--out", str(out)]) == EXIT_OK
    assert (out / "embedded_demos.json").exists()
    bystanders = ["demo_003.csv", "demo_x.csv", "demo_07.txt", "demo_.csv"]
    for name in bystanders:
        (out / name).write_text("kept")
    for starts in ([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [-1.0, 0.3]], [[1.0, 0.0], [0.0, 1.0]]):
        cfg = write_config(tmp_path / "config.json", initial_conditions=starts)
        assert main(["demos", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert not (out / "embedded_demos.json").exists()
        assert sorted(p.name for p in out.glob("demo_??.csv")) \
            == [f"demo_{i:02d}.csv" for i in range(len(starts) + 1)]
    assert json.loads((out / "demo_set.json").read_text())["M"] == 3
    assert all((out / name).read_text() == "kept" for name in bystanders)


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


def test_certify_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "config.json", T=2.0)
    main(["demos", "--config", str(cfg), "--out", str(tmp_path)])
    main(["learn", "--config", str(cfg), "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == "certify: verdict pass (max norm 0.5733)\n" and err == ""
