import re
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdsim import output
from qdsim.errors import DimensionError, DomainError, ValidityError
from qdsim.output import PALETTE, PlotSpec, emit_csv, emit_svg
from qdsim.run import run
from qdsim.scenario import read_scenario

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


@pytest.mark.parametrize("log_x", [False, True])
def test_svg_legend_and_axis_title_are_escaped(tmp_path, log_x):
    # every text the caller names is escaped: the series names in the
    # legend and the x-axis title, as the title is
    path = tmp_path / "plot.svg"
    name, label = "P(up) < 1 & rising", "t < T"
    emit_svg(np.array([0.0, 1.0, 2.0]) + log_x, {name: np.array([0.0, 1.0, 0.5])},
             PlotSpec(x_label=label, log_x=log_x), path)
    texts = [el.text for el in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert (f"log10({label})" if log_x else label) in texts
    assert texts[-1] == name


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


# The emitters format whole arrays through numpy kernels. The references
# below are the per-value loops they replaced, one numpy scalar per value,
# and the emitters must write the same bytes.

def per_value_csv(times, columns, names):
    times = np.asarray(times, dtype=float)
    cols = {n: np.asarray(columns[n]).astype(float) for n in names}
    out = "t," + ",".join(names) + "\n"
    for i, t in enumerate(times):
        row = [f"{t:.17g}"] + [f"{cols[n][i]:.17g}" for n in names]
        out += ",".join(row) + "\n"
    return out.encode()


def per_value_points(times, columns, names, log_x=False):
    """Each series' polyline points as emit_svg wrote them point by point."""
    t = np.asarray(times, dtype=float)
    mask = t > 0.0 if log_x else np.ones(t.shape[0], dtype=bool)
    x = np.log10(t[mask]) if log_x else t[mask]
    series = [np.asarray(columns[n]).astype(float)[mask] for n in names]
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi <= x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    y_all = np.concatenate(series)
    y_lo, y_hi = float(y_all.min()), float(y_all.max())
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(v):
        return 72 + (v - x_lo) / (x_hi - x_lo) * (760 - 72 - 18)

    def sy(v):
        return 460 - 52 - (v - y_lo) / (y_hi - y_lo) * (460 - 42 - 52)

    return [" ".join(f"{sx(xv):.2f},{sy(yv):.2f}" for xv, yv in zip(x, ys))
            for ys in series]


def spanning_columns(n, rng):
    """Magnitudes from 1e-300 to 1e300 of both signs, -0.0, integers and a
    constant series."""
    wide = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    wide[n // 2] = -0.0
    return {
        "wide": wide,
        "unit": rng.normal(size=n),
        "count": np.arange(n, dtype=np.int64) * 7 - 3,
        "flat": np.full(n, 0.7),
    }


def assert_written_match(times, cols, names, csv_path=None, svg_path=None, log_x=False):
    """The CSV and the SVG polylines written for names are the per-value bytes."""
    if csv_path is not None:
        assert csv_path.read_bytes() == per_value_csv(times, cols, names)
    if svg_path is not None:
        points = re.findall(r'points="([^"]*)"', svg_path.read_text())
        assert points == per_value_points(times, cols, names, log_x)


def assert_both_match(times, cols, tmp_path, names=None, log_x=False):
    names = list(cols) if names is None else list(names)
    emit_csv(times, cols, tmp_path / "c.csv", observables=names)
    emit_svg(times, cols, PlotSpec(observables=tuple(names), log_x=log_x),
             tmp_path / "p.svg")
    assert_written_match(times, cols, names, tmp_path / "c.csv", tmp_path / "p.svg", log_x)


@pytest.mark.parametrize("names", [None, ("unit", "count"), ("flat",), ("wide",)],
                         ids=["all", "unit-count", "flat", "wide"])
def test_column_emitters_write_the_per_value_bytes(tmp_path, rng, names):
    times = np.linspace(0.0, 3.0, 301)
    assert_both_match(times, spanning_columns(301, rng), tmp_path, names)


def test_column_emitters_match_on_one_row_and_on_a_log_axis(tmp_path, rng):
    cols = spanning_columns(1, rng)
    assert_both_match(np.array([0.25]), cols, tmp_path, ("unit", "count"))
    times = np.concatenate([[0.0], np.logspace(-3, 2, 200)])
    cols = spanning_columns(201, rng)
    assert_both_match(times, cols, tmp_path, ("unit", "flat"), log_x=True)


# one shipped scenario of each kind, cut short; the Morse run keeps one
# sample in 20 of its steps and the BMT run one in 100
CUT_RUNS = {
    "qubit-closed-form": ("tilted_attractor_purification", 0.5),
    "single-lindblad": ("lindblad_entropy_plateau", 0.5),  # with a log_x plot
    "gksl-ode": ("instability_morse", 1000.0),
    "jaynes-cummings": ("jc_collapse_blocks", 0.2),  # with two plots
    "bmt": ("bmt_spin_damping_a", 20.0),
    "neutrino": ("neutrino_damping_10mev", 20000.0),
}


@pytest.mark.parametrize("kind", sorted(CUT_RUNS))
def test_each_scenario_kind_writes_the_per_value_bytes(tmp_path, kind):
    stem, t_end = CUT_RUNS[kind]
    scn = read_scenario(resources.files("qdsim").joinpath("scenarios", f"{stem}.scn"))
    assert scn.kind == kind
    times, cols, _ = run(scn, out_dir=str(tmp_path), check=False, t_end=t_end)
    for out in scn.outputs:
        names = list(out.observables or cols)
        assert_written_match(times, cols, names,
                             tmp_path / out.csv if out.csv else None,
                             tmp_path / out.svg if out.svg else None, out.log_x)


def g17_texts(values):
    """Each value as the CSV kernel writes it."""
    values = np.asarray(values, dtype=float)
    cells, slow = output._g17_cells(values)
    cells.view(np.uint8)[:, 44] = ord("\n")
    return output._text(cells, values, slow, "%.17g").decode().split("\n")[:-1]


def f2_texts(values):
    """Each value as the SVG kernel writes it."""
    values = np.asarray(values, dtype=float)
    words, slow = output._f2_words(values)
    words |= np.uint64(ord("\n")) << np.uint64(56)
    return output._text(words, values, slow, "%.2f").decode().split("\n")[:-1]


def f2_grid_texts(values):
    """Each value of a (2, n) grid as the SVG kernel writes it, row by row,
    as emit_svg passes it the y pixels of two series."""
    grid = np.asarray(values, dtype=float).reshape(2, -1)
    words, slow = output._f2_words(grid)
    assert words.shape == slow.shape == grid.shape
    words |= np.uint64(ord("\n")) << np.uint64(56)
    return output._text(words.ravel(), grid.ravel(), slow.ravel(), "%.2f").decode().split("\n")[:-1]


def per_value(fmt, values):
    return [fmt % v for v in np.asarray(values, dtype=float).tolist()]


@given(st.lists(st.one_of(st.floats(width=64), st.floats(-1e16, 1e16)), min_size=1,
                max_size=64))
def test_csv_kernel_writes_what_percent_17g_writes(values):
    assert g17_texts(values) == per_value("%.17g", values)


@given(st.lists(st.one_of(st.floats(width=64), st.floats(0.0, 1e4)), min_size=1, max_size=64))
def test_svg_kernel_writes_what_percent_2f_writes(values):
    assert f2_texts(values) == per_value("%.2f", values)
    assert f2_grid_texts(values + values) == per_value("%.2f", values + values)


def edge_values():
    """Both signs of: each side of every power of ten from 1e-8 to 1e18,
    where 17-digit rounding can carry into the next power; the zeros; the
    smallest subnormal; the largest double and an overflowing literal."""
    powers = 10.0 ** np.arange(-8, 19)
    ends = [np.nextafter(powers, -np.inf), powers, np.nextafter(powers, np.inf),
            [0.0, 5e-324, sys.float_info.max, 1.8e308]]
    v = np.concatenate(ends)
    return np.concatenate([v, -v])


def test_kernels_at_powers_of_ten_and_the_ends_of_the_double_range():
    v = edge_values()
    assert g17_texts(v) == per_value("%.17g", v)
    assert f2_texts(v) == per_value("%.2f", v)


def test_kernels_round_exact_ties_half_to_even():
    # k/8 puts an exact tie at every odd k/8 in the hundredths; 13 integer
    # digits and an odd number of 32nds put one in the 17th digit
    eighths = np.arange(80001) / 8.0
    assert f2_texts(eighths) == per_value("%.2f", eighths)
    assert f2_grid_texts(eighths[1:]) == per_value("%.2f", eighths[1:])
    rng = np.random.default_rng(11)
    ties = rng.integers(10 ** 12, 10 ** 13, 2000) + (2 * rng.integers(0, 16, 2000) + 1) / 32.0
    assert g17_texts(ties) == per_value("%.17g", ties)


def test_svg_kernel_rounds_near_ties_by_the_exact_product():
    # 0.155 is stored just below 0.155, yet 100 times it rounds to 15.5
    # exactly; only the product's rounding error says to round down
    fives = (10 * np.arange(100000) + 5) / 1000.0
    assert f2_texts(fives) == per_value("%.2f", fives)
    assert f2_texts([0.155]) == ["0.15"]


def test_svg_rounds_an_exact_tie_among_several_series(tmp_path):
    # sy(3) = 408 - (11/176)·366 = 385.125: 100·sy is an exact half at
    # flat position 1 of the (series, points) y pixels
    times = np.array([0.0, 1.0, 2.0])
    assert_both_match(times, {"v": np.array([0.0, 3.0, 160.0])}, tmp_path)
    cols = {"u": np.array([0.0, 3.0, 160.0]), "v": np.array([1.0, 2.0, 3.0]),
            "w": np.array([160.0, 3.0, 0.0])}
    assert_both_match(times, cols, tmp_path)
    assert "385.12" in (tmp_path / "p.svg").read_text()


def test_kernels_fall_back_only_outside_their_domain(rng):
    inside = np.concatenate([rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-6, 16, 4000),
                             [0.0, -0.0, np.nextafter(1e-6, 1.0), np.nextafter(1e16, 0.0)]])
    outside = np.array([np.nan, np.inf, -np.inf, 5e-324, 1e-6, 9e-7, 1e16, -1e300])
    assert not output._g17_cells(inside)[1].any()
    assert output._g17_cells(outside)[1].all()
    pixels = np.concatenate([rng.uniform(0.0, 9999.99, 4000), [0.0, 9999.994]])
    beyond = np.array([np.nan, np.inf, -0.0, -0.001, 1e4, 9999.995, 1e300])
    assert not output._f2_words(pixels)[1].any()
    assert output._f2_words(beyond)[1].all()
    assert f2_texts(beyond) == per_value("%.2f", beyond)


def test_csv_writes_non_finite_values_as_before(tmp_path):
    cols = {"v": np.array([np.nan, np.inf, -np.inf, 5e-324, 1.8e308, -0.0])}
    times = np.arange(6.0)
    emit_csv(times, cols, tmp_path / "c.csv")
    data = (tmp_path / "c.csv").read_bytes()
    assert data == per_value_csv(times, cols, ["v"])
    assert data.split(b"\n")[1:4] == [b"0,nan", b"1,inf", b"2,-inf"]


def test_csv_spanning_several_row_blocks(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(output, "_ROW_BLOCK", 7)
    times = np.linspace(0.0, 1.0, 50)  # seven full blocks and one of one row
    cols = spanning_columns(50, rng)
    emit_csv(times, cols, tmp_path / "c.csv")
    assert (tmp_path / "c.csv").read_bytes() == per_value_csv(times, cols, list(cols))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_svg_refuses_a_non_finite_plotted_value(tmp_path, value):
    cols = {**make_columns(), "bad": np.array([0.1, value, 0.3])}
    path = tmp_path / "x.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidityError, match=r"column 'bad' .* at t=0\.5"):
            emit_svg(TIMES, cols, PlotSpec(), path)
    assert not path.exists()
    # a column the plot leaves out does not matter
    emit_svg(TIMES, cols, PlotSpec(observables=("up", "down")), path)
    assert "nan" not in path.read_text()


@pytest.mark.parametrize("times, values", [
    ([0.0, 0.5, 1.0], [1e308, -1e308, 0.0]),  # the y span overflows
    ([0.0, 0.5, 1.0], [1.7e308, 0.0, 0.0]),  # only its 5 % padding does
    ([-1e308, 0.0, 1e308], [0.1, 0.2, 0.3]),  # the x span overflows
    ([0.0, 1.0], [1e20, 1e20]),  # flat: +-1 is lost to rounding
], ids=["y-overflow", "y-pad-overflow", "x-overflow", "y-flat-at-1e20"])
def test_svg_refuses_a_span_it_cannot_scale(tmp_path, times, values):
    path = tmp_path / "x.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidityError, match="a plot needs a positive finite span"):
            emit_svg(np.array(times), {"v": np.array(values)}, PlotSpec(), path)
    assert not path.exists()


def test_csv_holds_one_block_of_rows_at_a_time(tmp_path):
    # 10**5 rows of four columns peak near 0.4 MB blocked and 35 MB when
    # the whole table is formatted at once
    n = 10 ** 5
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, n)
    cols = {name: rng.normal(size=n) for name in ("a", "b", "c")}
    tracemalloc.start()
    try:
        emit_csv(times, cols, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
