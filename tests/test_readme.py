"""The README's configurations run through `all`, and the files they leave.

Each JSON block of README.md is read as the documentation shows it, run
once through `demostab all` for the whole session, and its output tree is
checked: the demo CSVs against demo_set.json, trajectory.csv against
trajectory.json and the shape of tracking.csv, also of a `track` run at
f = 0.3 over the default duration (2/f rounded up to whole steps).
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from demostab.cli import EXIT_OK, main
from demostab.demos import load_demo_set

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_configs() -> dict:
    """Each JSON block of README.md, keyed by its preset."""
    configs = {}
    for block in README.read_text().split("```json\n")[1:]:
        config = json.loads(block.split("```", 1)[0])
        configs[config["preset"]] = config
    return configs


@pytest.fixture(scope="session")
def readme_runs(tmp_path_factory) -> dict:
    """preset -> the output directory of one `all` run of its README config."""
    root = tmp_path_factory.mktemp("readme")
    runs = {}
    for preset, config in readme_configs().items():
        path = root / f"{preset}.json"
        path.write_text(json.dumps(config))
        runs[preset] = root / preset
        assert main(["all", "--config", str(path), "--out", str(runs[preset])]) == EXIT_OK
    quad = dict(readme_configs()["flat_quad_3d"], track={"f": 0.3})
    path, runs["flat_quad_3d_f03"] = root / "flat_quad_3d_f03.json", root / "flat_quad_3d_f03"
    path.write_text(json.dumps(quad))
    shutil.copytree(runs["flat_quad_3d"], runs["flat_quad_3d_f03"])
    assert main(["track", "--config", str(path), "--out", str(runs["flat_quad_3d_f03"])]) == EXIT_OK
    return runs


def _table(lines: list[str]) -> np.ndarray:
    return np.array([[float(cell) for cell in line.split(",")] for line in lines])


def test_readme_has_the_ball_beam_and_quadrotor_configs():
    assert sorted(readme_configs()) == ["ball_beam", "flat_quad_3d"]


@pytest.mark.parametrize("preset", ["ball_beam", "flat_quad_3d"])
def test_demo_csvs_hold_the_demo_set(readme_runs, preset):
    # Exactly M files demo_NN.csv, each the columns (grid, z[:, :, i], v[:, :, i])
    # of demo_set.json bit for bit.
    run = readme_runs[preset]
    dset = load_demo_set(run / "demo_set.json")
    names = sorted(p.name for p in run.glob("demo_*.csv"))
    assert names == [f"demo_{i:02d}.csv" for i in range(dset.M)]
    for i, name in enumerate(names):
        table = _table((run / name).read_text().splitlines()[1:])
        want = np.column_stack([dset.grid, dset.z[:, :, i], dset.v[:, :, i]])
        assert table.shape == want.shape and table.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("preset", ["ball_beam", "flat_quad_3d"])
def test_trajectory_csv_holds_the_trajectory_json_arrays(readme_runs, preset):
    # The header is the set of trajectory.json's keys, once each, and each
    # column is that key's array bit for bit.
    run = readme_runs[preset]
    header, *lines = (run / "trajectory.csv").read_text().splitlines()
    header = header.split(",")
    doc = json.loads((run / "trajectory.json").read_text())
    assert len(set(header)) == len(header) and set(header) == set(doc)
    table = _table(lines)
    want = np.column_stack([doc[name] for name in header])
    assert table.shape == want.shape and table.tobytes() == want.tobytes()


@pytest.mark.parametrize("run, rows", [("flat_quad_3d", 20001), ("flat_quad_3d_f03", 6668)])
def test_tracking_csv_rows_are_as_wide_as_the_header(readme_runs, run, rows):
    header, *lines = (readme_runs[run] / "tracking.csv").read_text().splitlines()
    assert len(lines) == rows
    assert {len(line.split(",")) for line in lines} == {len(header.split(","))}
