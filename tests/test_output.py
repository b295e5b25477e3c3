import numpy as np
import pytest

from qdsim.dynamics import Trajectory
from qdsim.errors import DomainError, ValidityError
from qdsim.output import PALETTE, PlotSpec, emit_csv, emit_svg

HALF = 0.5 * np.eye(2, dtype=complex)


def make_traj():
    times = np.array([0.0, 0.5, 1.0])
    derived = {
        "up": np.array([1.0, 1.0 / 3.0, 0.25]),
        "down": np.array([0.0, 0.5, 0.75]),
        "psi": np.ones((3, 2), dtype=complex),  # not a scalar series
    }
    return Trajectory(times=times, states=(HALF,) * 3, derived=derived)


def test_csv_layout(tmp_path):
    path = tmp_path / "series.csv"
    emit_csv(make_traj(), path)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.split(b"\n")
    assert lines[0] == b"t,up,down"  # 2-d series dropped
    assert lines[-1] == b""  # trailing newline
    assert len(lines) == 5
    # 17 significant digits
    assert b"0.33333333333333331" in lines[2]
    assert lines[1].startswith(b"0,1,")


def test_csv_observable_selection(tmp_path):
    path = tmp_path / "series.csv"
    emit_csv(make_traj(), path, observables=("down", "up"))
    assert path.read_text().splitlines()[0] == "t,down,up"
    with pytest.raises(DomainError):
        emit_csv(make_traj(), path, observables=("sideways",))


def test_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(make_traj(), a)
    emit_csv(make_traj(), b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_trajectory_rejected(tmp_path):
    empty = Trajectory(times=np.zeros(0), states=())
    with pytest.raises(ValidityError):
        emit_csv(empty, tmp_path / "x.csv")
    with pytest.raises(ValidityError):
        emit_svg(empty, PlotSpec(), tmp_path / "x.svg")


def test_svg_structure(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg(make_traj(), PlotSpec(title="demo", observables=("up", "down")),
             path)
    text = path.read_text()
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.endswith("</svg>\n")
    assert text.count("<polyline") == 2
    assert f'stroke="{PALETTE[0]}"' in text
    assert ">demo</text>" in text
    assert ">up</text>" in text  # legend entries

    again = tmp_path / "again.svg"
    emit_svg(make_traj(), PlotSpec(title="demo", observables=("up", "down")),
             again)
    assert again.read_bytes() == path.read_bytes()


def test_svg_unknown_observable(tmp_path):
    with pytest.raises(DomainError):
        emit_svg(make_traj(), PlotSpec(observables=("nope",)),
                 tmp_path / "x.svg")


def test_svg_log_axis_drops_origin(tmp_path):
    path = tmp_path / "log.svg"
    assert emit_svg(make_traj(), PlotSpec(observables=("up",), log_x=True), path) == 1
    text = path.read_text()
    assert "log10(t)" in text
    assert text.count("<polyline") == 1
    assert emit_svg(make_traj(), PlotSpec(observables=("up",)), path) == 0


def test_svg_log_axis_needs_positive_samples(tmp_path):
    traj = Trajectory(times=np.array([-2.0, -1.0]), states=(HALF,) * 2,
                      derived={"up": np.array([1.0, 2.0])})
    with pytest.raises(ValidityError, match="no samples remain"):
        emit_svg(traj, PlotSpec(observables=("up",), log_x=True), tmp_path / "x.svg")


def test_svg_flat_series_still_renders(tmp_path):
    traj = Trajectory(times=np.array([0.0, 1.0]), states=(HALF,) * 2,
                      derived={"c": np.array([0.7, 0.7])})
    path = tmp_path / "flat.svg"
    emit_svg(traj, PlotSpec(observables=("c",)), path)
    assert "<polyline" in path.read_text()
