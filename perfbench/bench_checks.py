"""Correctness checks on qdsim's outputs, computed apart from the program.

Each check recomputes what a run wrote by another route (a normalized
``scipy.linalg.expm`` propagation, the vectorised superoperator of the
master equation, or an exact property the output must have) and compares.
Nothing here compares with a stored copy of earlier output. Scenario files
are read with this module's own small parser, so a fault in qdsim's parser
cannot hide in the reference values either.

A failed check raises ``CheckFailure`` naming the quantity, its worst
violation and the tolerance.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np
import scipy.linalg

ID2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# model constants of the neutrino scenarios: the radius past which the
# matter potential is zero, and the defaults of the [neutrino] keys used
NEUTRINO_CUTOFF_KM = 365767.0
NEUTRINO_DEFAULTS = {"theta12": 0.59, "dm2_ev2": 8e-5, "eps": 5.08}


class CheckFailure(Exception):
    pass


def expect(name: str, violation: float, tol: float) -> None:
    if not violation <= tol:  # also catches NaN
        raise CheckFailure(f"{name}: violation {violation:.3e} exceeds {tol:.1e}")


# -- inputs ---------------------------------------------------------------

def scenario_sections(text: str) -> list:
    """[(section, {key: raw value text})] in file order, comments dropped."""
    sections = []
    for raw in text.splitlines():
        line = _strip_comment(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append((line[1:-1], {}))
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        sections[-1][1][key] = value
    return sections


def read_scenario(text: str) -> dict:
    """Sections of a scenario file as {section: {key: value}}; [output]
    sections as a list under "output". Vectors become float tuples, numbers
    floats, everything else stays a string."""
    out = {"output": []}
    for name, items in scenario_sections(text):
        values = {key: _value(value) for key, value in items.items()}
        if name == "output":
            out["output"].append(values)
        else:
            out[name] = values
    return out


def _strip_comment(raw: str) -> str:
    """The line without a trailing comment; '#' inside parentheses is kept."""
    depth = 0
    for i, ch in enumerate(raw):
        depth += (ch == "(") - (ch == ")")
        if ch == "#" and depth == 0:
            return raw[:i].strip()
    return raw.strip()


def _value(text: str):
    if text.startswith("(") and text.endswith(")"):
        return tuple(float(p) for p in text[1:-1].split(","))
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """The columns of a CSV written by qdsim, as {header name: float array}."""
    with open(path, encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(names):
        raise CheckFailure(f"{path}: {data.shape[1]} columns under {len(names)} names")
    return {name: data[:, k] for k, name in enumerate(names)}


# -- reference propagation -----------------------------------------------

def density(n) -> np.ndarray:
    return 0.5 * (ID2 + sum(c * s for c, s in zip(n, PAULI)))


def bloch(rho) -> np.ndarray:
    return np.array([np.trace(rho @ s).real for s in PAULI])


def pauli(v) -> np.ndarray:
    return sum(c * s for c, s in zip(v, PAULI))


def superoperator(h, g, lindblads=()) -> np.ndarray:
    """S = M (x) I + I (x) conj(M) + sum L (x) conj(L) with M = G - iH, acting
    on the row-major vec(rho); rho(t) is the normalized exp(tS) vec(rho0)."""
    m = g - 1j * h
    eye = np.eye(m.shape[0])
    s = np.kron(m, eye) + np.kron(eye, m.conj())
    for lop in lindblads:
        s = s + np.kron(lop, lop.conj())
    return s


def propagate(s: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    d = rho0.shape[0]
    rho = (scipy.linalg.expm(t * s) @ rho0.reshape(-1)).reshape(d, d)
    return rho / np.trace(rho).real


def sample_rows(n: int, k: int = 32) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(k, n)).astype(int))


# -- per-kind checks --------------------------------------------------------

def check_grid(cols, t_end: float) -> None:
    t = cols["t"]
    expect("t[0]", abs(t[0]), 0.0)
    expect("horizon reached", abs(t[-1] - t_end), 1e-9 * t_end)
    if not (np.diff(t) > 0.0).all():
        raise CheckFailure("times are not strictly increasing")


def check_qubit_columns(cols) -> None:
    """purity = (1+|n|^2)/2, entropy from the eigenvalues (1 +- |n|)/2,
    p_plus + p_minus = 1, wherever those columns were written."""
    r = np.sqrt(cols["n1"] ** 2 + cols["n2"] ** 2 + cols["n3"] ** 2)
    if "purity" in cols:
        expect("purity", np.abs(cols["purity"] - 0.5 * (1.0 + r * r)).max(), 1e-9)
    if "entropy" in cols:
        lam = np.clip(np.stack([(1.0 + r) / 2.0, (1.0 - r) / 2.0]), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            ent = -np.where(lam > 0.0, lam * np.log(lam), 0.0).sum(axis=0)
        expect("entropy", np.abs(cols["entropy"] - ent).max(), 1e-9)
    if "p_plus" in cols:
        expect("p_plus + p_minus", np.abs(cols["p_plus"] + cols["p_minus"] - 1.0).max(), 1e-12)


def _compare_bloch(cols, rows, reference) -> float:
    got = np.stack([cols["n1"][rows], cols["n2"][rows], cols["n3"][rows]], axis=1)
    return float(np.linalg.norm(got - reference, axis=1).max())


def check_qubit_closed_form(scn: dict, cols) -> None:
    p = scn["qubit"]
    omega, g, xi = (np.array(p[k]) for k in ("omega", "g", "xi"))
    s = superoperator(0.5 * pauli(omega), 0.5 * pauli(g))
    rho0 = density(xi)
    rows = sample_rows(len(cols["t"]))
    ref = np.array([bloch(propagate(s, rho0, cols["t"][k])) for k in rows])
    expect("bloch vs expm", _compare_bloch(cols, rows, ref), 1e-9)
    w_hat = omega / np.linalg.norm(omega)
    expect("p_minus vs expm", np.abs(cols["p_minus"][rows] - 0.5 * (1.0 - ref @ w_hat)).max(), 1e-9)
    gn, wn = np.linalg.norm(g), np.linalg.norm(omega)
    s2 = gn * gn + wn * wn
    rabi = gn * gn / (2.0 * s2) * (1.0 - np.cos(cols["t"] * math.sqrt(s2)))
    expect("rabi formula", np.abs(cols["rabi"] - rabi).max(), 1e-12)
    check_qubit_columns(cols)


def check_single_lindblad(scn: dict, cols) -> None:
    p = scn["lindblad"]
    jump = np.array([[0.0, p["l"]], [0.0, 0.0]], dtype=complex)
    s = superoperator(0.5 * p["omega"] * PAULI[2], 0.5 * p["g"] * PAULI[2], (jump,))
    rho0 = density(p["xi"])
    rows = sample_rows(len(cols["t"]))
    ref = np.array([bloch(propagate(s, rho0, cols["t"][k])) for k in rows])
    expect("bloch vs superoperator expm", _compare_bloch(cols, rows, ref), 1e-9)
    check_qubit_columns(cols)


def _poisson(nbar: float, n_max: int) -> np.ndarray:
    w = np.array([math.exp(-nbar) * nbar ** n / math.factorial(n) for n in range(n_max + 1)])
    return w / w.sum()


def check_jaynes_cummings(scn: dict, cols) -> None:
    """Each photon block n is a qubit with H_n = omega_f (n + 1/2) I +
    omega_a sigma_3 / 2 and G_n = g sqrt(n+1) sigma_1 / 2; its weight is
    carried by the unnormalized block trace."""
    p = scn["jc"]
    n_max = int(p["n_max"])
    lam0 = _poisson(p["nbar"], n_max)
    rho0 = density(p["xi"])
    ham = [p["omega_f"] * (n + 0.5) * ID2 + 0.5 * p["omega_a"] * PAULI[2] for n in range(n_max + 1)]
    gain = [0.5 * p["g"] * math.sqrt(n + 1.0) * PAULI[0] for n in range(n_max + 1)]
    lam_cols = np.stack([cols[f"lambda{n}"] for n in range(n_max + 1)], axis=1)
    expect("weights sum", np.abs(lam_cols.sum(axis=1) - 1.0).max(), 1e-9)
    expect("weights_sum column", np.abs(cols["weights_sum"] - 1.0).max(), 1e-9)
    worst_w = worst_inv = worst_e = 0.0
    for k in sample_rows(len(cols["t"])):
        t = cols["t"][k]
        raws = []
        for n in range(n_max + 1):
            kop = scipy.linalg.expm((gain[n] - 1j * ham[n]) * t)
            raws.append(kop @ rho0 @ kop.conj().T)
        traces = np.array([np.trace(r).real for r in raws])
        lam = lam0 * traces / (lam0 * traces).sum()
        blocks = [r / tr for r, tr in zip(raws, traces)]
        inv = sum(w * np.trace(b @ PAULI[2]).real for w, b in zip(lam, blocks))
        energy = sum(w * np.trace(b @ h).real for w, b, h in zip(lam, blocks, ham))
        worst_w = max(worst_w, float(np.abs(lam_cols[k] - lam).max()))
        worst_inv = max(worst_inv, abs(cols["inversion"][k] - inv))
        worst_e = max(worst_e, abs(cols["mean_energy"][k] - energy) / max(1.0, abs(energy)))
    expect("block weights vs expm", worst_w, 1e-9)
    expect("inversion vs expm", worst_inv, 1e-9)
    expect("mean energy vs expm", worst_e, 1e-9)


def check_morse(scn: dict, cols) -> None:
    p = scn["qubit"]
    u = 1.0 - np.exp(-p["nu"] * cols["t"])
    expect("g_norm profile", np.abs(cols["g_norm"] - p["q"] * (1.0 - u * u)).max(), 1e-12 * p["q"])
    r = np.sqrt(cols["n1"] ** 2 + cols["n2"] ** 2 + cols["n3"] ** 2)
    # a density matrix may dip to the eigenvalue floor -1e-9, so |n| <= 1 + 2e-9
    expect("|n| <= 1", max(0.0, float(r.max()) - 1.0), 2e-9)
    check_qubit_columns(cols)


def _rk4_phase_error(y: float) -> float:
    """Phase error per step of RK4 on z' = i z with step y: arg P(iy) - y."""
    z = 1j * y
    return abs(np.angle(1.0 + z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0) - y)


def check_neutrino(scn: dict, cols, step: float) -> None:
    """Past the cutoff the potential is zero, so the generator is the vacuum
    precession H = (eps/2) omega_vac . sigma. Samples there must be the exact
    expm propagation of the first sample past the cutoff. The tolerance is
    the phase RK4 can lose at this step: the two eigen-amplitudes turn at
    -+y per step with y = h eps |omega_vac| / 2, RK4 turns each by
    arg P(-+iy), and the Bloch vector turns about omega_vac by twice their
    difference, which moves it by at most that angle times its component
    perpendicular to omega_vac."""
    p = {**NEUTRINO_DEFAULTS, **scn["neutrino"]}
    r = np.sqrt(cols["n1"] ** 2 + cols["n2"] ** 2 + cols["n3"] ** 2)
    expect("|n| = 1", np.abs(r - 1.0).max(), 1e-9)
    expect("survival = (1+n3)/2", np.abs(cols["survival"] - 0.5 * (1.0 + cols["n3"])).max(), 1e-12)
    delta = p["dm2_ev2"] / (2.0 * p["energy_gev"])
    th = 2.0 * p["theta12"]
    omega = p["eps"] * delta * np.array([math.sin(th), 0.0, -math.cos(th)])
    ham = 0.5 * pauli(omega)
    past = np.nonzero(cols["t"] > NEUTRINO_CUTOFF_KM)[0]
    if past.size < 2:
        raise CheckFailure("fewer than two samples past the cutoff")
    k0 = past[0]
    n0 = np.array([cols["n1"][k0], cols["n2"][k0], cols["n3"][k0]])
    rho0 = density(n0 / np.linalg.norm(n0))
    rows = past[sample_rows(past.size)]
    worst = 0.0
    for k in rows:
        u = scipy.linalg.expm(-1j * ham * (cols["t"][k] - cols["t"][k0]))
        ref = bloch(u @ rho0 @ u.conj().T)
        got = np.array([cols["n1"][k], cols["n2"][k], cols["n3"][k]])
        worst = max(worst, float(np.linalg.norm(got - ref)))
    n_steps = (cols["t"][-1] - cols["t"][k0]) / step
    w_hat = omega / np.linalg.norm(omega)
    n_perp = np.linalg.norm(n0 - (n0 @ w_hat) * w_hat)
    turn = 2.0 * _rk4_phase_error(0.5 * step * np.linalg.norm(omega)) * n_steps
    expect("vacuum precession vs expm", worst, 2.0 * turn * n_perp + 1e-9)


def check_bmt(scn: dict, cols) -> None:
    p = scn["bmt"]
    mc2 = (p.get("mass", 1.0) * p.get("c", 1.0)) ** 2
    pv = np.stack([cols[f"p{k}"] for k in range(4)], axis=1)
    wv = np.stack([cols[f"w{k}"] for k in range(4)], axis=1)
    metric = np.array([1.0, -1.0, -1.0, -1.0])
    pp = (pv * pv) @ metric
    pw = (pv * wv) @ metric
    expect("p.p = (mc)^2", np.abs(pp - mc2).max() / mc2, 1e-6)
    expect("p.w = 0", np.abs(pw).max() / mc2, 1e-6)


def check_svg(path, n_series: int) -> None:
    root = ET.parse(path).getroot()
    lines = [el for el in root.iter() if el.tag.endswith("polyline")]
    if len(lines) != n_series:
        raise CheckFailure(f"{path}: {len(lines)} polylines, expected {n_series}")
    for el in lines:
        if len(el.get("points", "").split()) < 2:
            raise CheckFailure(f"{path}: a polyline has fewer than two points")
