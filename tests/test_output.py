import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qdsim.errors import DimensionError, DomainError, ValidityError
from qdsim.output import PALETTE, PlotSpec, emit_csv, emit_svg

TIMES = np.array([0.0, 0.5, 1.0])


def make_columns():
    return {
        "up": np.array([1.0, 1.0 / 3.0, 0.25]),
        "down": np.array([0.0, 0.5, 0.75]),
    }


def test_csv_layout(tmp_path):
    path = tmp_path / "series.csv"
    emit_csv(TIMES, make_columns(), path)
    data = path.read_bytes()
    assert b"\r" not in data
    lines = data.split(b"\n")
    assert lines[0] == b"t,up,down"  # table order
    assert lines[-1] == b""  # trailing newline
    assert len(lines) == 5
    # 17 significant digits
    assert b"0.33333333333333331" in lines[2]
    assert lines[1].startswith(b"0,1,")


def test_csv_observable_selection(tmp_path):
    path = tmp_path / "series.csv"
    emit_csv(TIMES, make_columns(), path, observables=("down", "up"))
    assert path.read_text().splitlines()[0] == "t,down,up"
    with pytest.raises(DomainError):
        emit_csv(TIMES, make_columns(), path, observables=("sideways",))


@pytest.mark.parametrize("bad", [np.ones((3, 2)), np.ones(3, dtype=complex)])
def test_column_that_is_not_a_real_series_refused(tmp_path, bad):
    cols = {**make_columns(), "psi": bad}
    with pytest.raises(DimensionError, match="'psi'"):
        emit_csv(TIMES, cols, tmp_path / "x.csv")
    with pytest.raises(DimensionError, match="'psi'"):
        emit_svg(TIMES, cols, PlotSpec(), tmp_path / "x.svg")


def test_column_length_must_match_times(tmp_path):
    cols = {**make_columns(), "short": np.array([1.0, 2.0])}
    with pytest.raises(DimensionError, match="'short'"):
        emit_csv(TIMES, cols, tmp_path / "x.csv", observables=("up", "short"))
    with pytest.raises(DimensionError, match="'short'"):
        emit_svg(TIMES, cols, PlotSpec(observables=("short",)), tmp_path / "x.svg")


def test_csv_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(TIMES, make_columns(), a)
    emit_csv(TIMES, make_columns(), b)
    assert a.read_bytes() == b.read_bytes()


def test_empty_trajectory_rejected(tmp_path):
    empty = {"up": np.zeros(0)}
    with pytest.raises(ValidityError):
        emit_csv(np.zeros(0), empty, tmp_path / "x.csv")
    with pytest.raises(ValidityError):
        emit_svg(np.zeros(0), empty, PlotSpec(), tmp_path / "x.svg")


def test_svg_structure(tmp_path):
    path = tmp_path / "plot.svg"
    emit_svg(TIMES, make_columns(), PlotSpec(title="demo", observables=("up", "down")),
             path)
    text = path.read_text()
    assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert text.endswith("</svg>\n")
    assert text.count("<polyline") == 2
    assert f'stroke="{PALETTE[0]}"' in text
    assert ">demo</text>" in text
    assert ">up</text>" in text  # legend entries

    again = tmp_path / "again.svg"
    emit_svg(TIMES, make_columns(), PlotSpec(title="demo", observables=("up", "down")),
             again)
    assert again.read_bytes() == path.read_bytes()


def test_svg_title_is_escaped(tmp_path):
    path = tmp_path / "plot.svg"
    title = "P(up) < 1 & rising > 0"
    emit_svg(TIMES, make_columns(), PlotSpec(title=title), path)
    root = ET.parse(path).getroot()
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert texts[0] == title


def test_svg_unknown_observable(tmp_path):
    with pytest.raises(DomainError):
        emit_svg(TIMES, make_columns(), PlotSpec(observables=("nope",)),
                 tmp_path / "x.svg")


def test_svg_log_axis_drops_origin(tmp_path):
    path = tmp_path / "log.svg"
    assert emit_svg(TIMES, make_columns(), PlotSpec(observables=("up",), log_x=True), path) == 1
    text = path.read_text()
    assert "log10(t)" in text
    assert text.count("<polyline") == 1
    assert emit_svg(TIMES, make_columns(), PlotSpec(observables=("up",)), path) == 0


def test_svg_log_axis_needs_positive_samples(tmp_path):
    times, cols = np.array([-2.0, -1.0]), {"up": np.array([1.0, 2.0])}
    with pytest.raises(ValidityError, match="no samples remain"):
        emit_svg(times, cols, PlotSpec(observables=("up",), log_x=True), tmp_path / "x.svg")


def test_svg_flat_series_still_renders(tmp_path):
    times, cols = np.array([0.0, 1.0]), {"c": np.array([0.7, 0.7])}
    path = tmp_path / "flat.svg"
    emit_svg(times, cols, PlotSpec(observables=("c",)), path)
    assert "<polyline" in path.read_text()
