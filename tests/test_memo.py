"""One decode per process: the demonstration-set and controller memos keyed by SHA-256.

Every stage still reads demo_set.json and controller.json and checks the
digest; a stage decodes the set, or learns the controller again, only when
this process does not already hold the object of those exact bytes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from demostab import cli, demos, learner, multi
from demostab.cli import EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from demostab.demos import SET_MEMO, read_demo_set, save_demo_set
from demostab.files import write_json
from demostab.learner import CONTROLLER_MEMO, load_controller, save_controller

from conftest import analytic_double_int_set, save_learned

CONFIGS = {
    "chain2": {"preset": "chain2", "expert": {"Q": [1.0, 2.0], "R": 1.0}, "T": 2.0, "dt": 0.01,
               "simulate": {"x0": [0.5, 0.5], "duration": 8.0}},
    # The chain4 multi config of the README checks.
    "chain4_multi": {"preset": "chain4", "multi": True, "T": 6.0, "dt": 0.01,
                     "initial_conditions": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                                            [0, 0, 0, 1], [0.5, 0.5, 0.5, 0.5],
                                            [-0.5, 0.3, -0.2, 0.4]],
                     "simulate": {"x0": [0.2, -0.1, 0.1, 0.0], "duration": 30.0}},
}


@pytest.fixture(autouse=True)
def empty_memos():
    """Each test starts with both slots empty."""
    SET_MEMO.release()
    CONTROLLER_MEMO.release()


def _config(tmp_path: Path, name: str) -> Path:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    return path


def _all(cfg: Path, out: Path) -> None:
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


def _tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _arrays(obj, seen=None):
    """Every ndarray reachable from obj through tuples, lists and demostab attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item, seen)
    elif type(obj).__module__.startswith("demostab."):
        for item in vars(obj).values():
            yield from _arrays(item, seen)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_all_tree_matches_stages_run_in_their_own_processes(tmp_path, name):
    # The set and controller that all hands from stage to stage in memory
    # write the same bytes as the ones each stage decodes in a fresh process.
    cfg = _config(tmp_path, name)
    _all(cfg, tmp_path / "all")
    src = str(Path(demos.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for stage in ("demos", "learn", "simulate"):
        result = subprocess.run([sys.executable, "-m", "demostab.cli", stage, "--config",
                                 str(cfg), "--out", str(tmp_path / "stages")],
                                env=env, capture_output=True, text=True)
        assert result.returncode == EXIT_OK, result.stderr
    all_tree, stage_tree = _tree(tmp_path / "all"), _tree(tmp_path / "stages")
    assert sorted(all_tree) == sorted(stage_tree)
    for file_name, data in all_tree.items():
        assert data == stage_tree[file_name], file_name


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_all_decodes_no_demo_set_and_builds_bases_only_in_learn(tmp_path, monkeypatch, name):
    stage, decodes, builds = [None], [], []

    def traced(fn, log):
        def wrapper(*args, **kwargs):
            log.append(stage[0])
            return fn(*args, **kwargs)
        return wrapper

    def staged(cmd_name):
        cmd = getattr(cli, cmd_name)

        def wrapper(*args, **kwargs):
            stage[0] = cmd_name
            return cmd(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(demos, "demo_set_from_dict", traced(demos.demo_set_from_dict, decodes))
    build_basis = traced(learner.build_basis, builds)
    for module in (learner, multi):
        monkeypatch.setattr(module, "build_basis", build_basis)
    for cmd_name in ("cmd_demos", "cmd_learn", "cmd_simulate"):
        monkeypatch.setattr(cli, cmd_name, staged(cmd_name))
    _all(_config(tmp_path, name), tmp_path)
    assert stage[0] == "cmd_simulate"
    assert decodes == []
    bases = len(json.loads((tmp_path / "controller.json").read_text()).get("simplices", [0]))
    assert builds == ["cmd_learn"] * bases


def test_demo_set_edited_after_all_is_refused_by_its_digest(tmp_path, capsys):
    cfg = _config(tmp_path, "chain2")
    _all(cfg, tmp_path)
    demo_path = tmp_path / "demo_set.json"
    data = json.loads(demo_path.read_text())
    data["demos"][1]["v"][5] += 1e-3
    write_json(demo_path, data)
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: cannot read {tmp_path / 'controller.json'}: ValueError: {demo_path} is "
        "not the demonstration set the controller was learned from (its SHA-256 differs); "
        "run the learn stage again"]


def test_truncated_demo_set_after_all_is_the_usage_error_of_a_decode(tmp_path, capsys):
    cfg = _config(tmp_path, "chain2")
    _all(cfg, tmp_path)
    demo_path = tmp_path / "demo_set.json"
    demo_path.write_bytes(demo_path.read_bytes()[:1000])
    capsys.readouterr()
    assert main(["learn", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"usage error: cannot read {demo_path}: JSONDecodeError: ")


def test_index_set_edited_after_a_held_load_is_checked_again(tmp_path, capsys):
    # The controller of the unedited file is held after all and after a
    # simulate that reads it; the edited file's bytes are another key, so the
    # load builds the collinear basis 0, 1, 3 and refuses it.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": "chain2", "T": 1.0, "dt": 0.01,
                               "initial_conditions": [[1, 0], [0, 1], [2, 0]]}))
    _all(cfg, tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    path = tmp_path / "controller.json"
    record = json.loads(path.read_text())
    record["I"] = [0, 1, 3]
    write_json(path, record)
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "affinely dependent" in err[0]


def test_held_set_and_controller_are_read_only(tmp_path):
    _all(_config(tmp_path, "chain4_multi"), tmp_path)
    dset, digest = read_demo_set(tmp_path / "demo_set.json")
    assert SET_MEMO.get(digest) is dset
    ctrl = load_controller(tmp_path / "controller.json")
    assert load_controller(tmp_path / "controller.json") is ctrl and ctrl.dset is dset
    arrays = list(_arrays(ctrl))
    assert len(arrays) >= 5 * ctrl.P + 5
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        dset.z[0, 0, 1] = 1.0


def test_one_slot_holds_the_last_set_read(tmp_path, monkeypatch):
    decodes = []
    decode = demos.demo_set_from_dict
    monkeypatch.setattr(demos, "demo_set_from_dict", lambda data: decodes.append(1) or
                        decode(data))
    first, second = tmp_path / "a" / "demo_set.json", tmp_path / "b" / "demo_set.json"
    starts = [np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    for path, dset in ((first, analytic_double_int_set()),
                       (second, analytic_double_int_set(starts=starts))):
        path.parent.mkdir()
        save_demo_set(dset, path)
    a = read_demo_set(first)[0]
    assert read_demo_set(first)[0] is a and len(decodes) == 1
    b = read_demo_set(second)[0]
    assert b is not a and b.M == 4 and len(decodes) == 2
    again = read_demo_set(first)[0]
    assert again is not a and len(decodes) == 3
    assert np.array_equal(again.z, a.z)


def test_writers_neither_copy_nor_freeze_nor_hold(tmp_path):
    dset = analytic_double_int_set()
    digest = save_demo_set(dset, tmp_path / "demo_set.json")
    assert digest == hashlib.sha256((tmp_path / "demo_set.json").read_bytes()).hexdigest()
    assert SET_MEMO.get(digest) is None
    assert all(a.flags.writeable for a in (dset.grid, dset.z, dset.v))
    ctrl = learner.LearnedController(learner.build_basis(dset), A=dset.A, B=dset.B)
    save_learned(ctrl, dset, tmp_path / "controller.json")
    digest = save_controller(ctrl, tmp_path / "controller.json")
    assert digest == hashlib.sha256((tmp_path / "controller.json").read_bytes()).hexdigest()
    assert CONTROLLER_MEMO.get(digest) is None
    assert all(a.flags.writeable for a in _arrays(ctrl))
