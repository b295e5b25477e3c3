"""Sectioned key = value scenario files.

Grammar: blank lines and full-line comments (#) are skipped; a trailing
# outside parentheses starts a comment; '[name]' opens a section;
'key = value' assigns within the current section. Values are typed per
key: finite floats, ints, booleans (true/false), identifiers, identifier
lists (comma separated), vectors '(a, b, c)' of finite floats of length
3 or 4, and raw strings (kept verbatim). Unknown sections, unknown keys,
duplicate keys, an output path named twice, type mismatches and nan or
infinite numbers are rejected with their line numbers; every scenario
kind declares which keys it requires, and a parameter section of another
kind is refused.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

from .errors import DomainError, QdsimError
from .tolerances import TOL

@dataclass(frozen=True)
class KindSpec:
    """What a scenario kind reads and how it runs: its parameter section,
    the keys of that section it reads (None: all of them), whether it
    samples every step and so refuses sample_stride, its default
    [integrator] step and the x-axis label of its figures."""

    section: str
    reads: tuple = None
    every_step: bool = False
    step: float = 1e-3
    x_label: str = "t"


# the one declaration of each kind; run.py holds one runner per kind
KINDS = {
    "qubit-closed-form": KindSpec("qubit", ("omega", "g", "xi", "case"), every_step=True),
    # q and nu only with the inverted-morse g_profile
    "gksl-ode": KindSpec("qubit", ("omega", "g", "xi", "g_profile", "q", "nu")),
    "single-lindblad": KindSpec("lindblad", every_step=True),
    "jaynes-cummings": KindSpec("jc", every_step=True),
    "bmt": KindSpec("bmt", x_label="tau"),
    "neutrino": KindSpec("neutrino", step=1.0, x_label="L [km]"),
}

# key -> type tag, per section
_SCHEMA = {
    "scenario": {"kind": "ident", "name": "raw"},
    "qubit": {
        "omega": "vec3",
        "g": "vec3",
        "xi": "vec3",
        "case": "ident",
        "g_profile": "ident",
        "q": "float",
        "nu": "float",
    },
    "lindblad": {
        "g": "float",
        "omega": "float",
        "l": "float",
        "kappa": "float",
        "xi": "vec3",
    },
    "jc": {
        "omega_f": "float",
        "omega_a": "float",
        "g": "float",
        "n_max": "int",
        "nbar": "float",
        "xi": "vec3",
    },
    "bmt": {
        "e": "vec3",
        "b": "vec3",
        "xi": "vec3",
        "p": "vec4",
        "charge": "float",
        "mass": "float",
        "c": "float",
        "hbar": "float",
    },
    "neutrino": {
        "energy_gev": "float",
        "mode": "ident",
        "theta12": "float",
        "dm2_ev2": "float",
        "eps": "float",
        "r_s_km": "float",
        "v_scale": "float",
        "g_tilt_rad": "float",
        "g_orientation": "float",
    },
    "integrator": {
        "t_end": "float",
        "step": "float",
        "sample_stride": "int",
    },
    "output": {
        "csv": "raw",
        "svg": "raw",
        "observables": "ident_list",
        "log_x": "bool",
        "title": "raw",
    },
}

_REQUIRED = {
    "scenario": ("kind",),
    "qubit": ("omega", "g", "xi"),
    "lindblad": ("g", "omega", "l", "xi"),
    "jc": ("omega_f", "omega_a", "g", "n_max", "nbar", "xi"),
    "bmt": ("e", "b", "xi"),
    "neutrino": ("energy_gev",),
    "integrator": ("t_end",),
    "output": (),
}


class ScenarioSyntaxError(QdsimError):
    """Malformed line; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScenarioKeyError(QdsimError):
    """Unknown or duplicated section/key; carries the 1-based line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class ScenarioMissingKeyError(QdsimError):
    """A required key never appeared."""

    def __init__(self, section: str, key: str) -> None:
        super().__init__(f"section [{section}] is missing required key {key!r}")
        self.section = section
        self.key = key


@dataclass(frozen=True)
class OutputRequest:
    csv: str = ""
    svg: str = ""
    observables: tuple = ()
    log_x: bool = False
    title: str = ""


@dataclass(frozen=True)
class Scenario:
    kind: str
    name: str
    parameters: dict
    integrator: dict
    outputs: tuple = ()


_SECTION_RE = re.compile(r"^\[([a-z][a-z0-9_-]*)\]$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_IDENT_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")


def _strip_comment(line: str) -> str:
    depth = 0
    for i, ch in enumerate(line):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "#" and depth == 0:
            return line[:i]
    return line


def _parse_value(tag: str, text: str, line_no: int, column: int):
    text = text.strip()
    if not text:
        raise ScenarioSyntaxError("empty value", line_no, column)
    if tag == "raw":
        return text
    if tag == "ident":
        if not _IDENT_RE.match(text):
            raise ScenarioSyntaxError(f"not an identifier: {text!r}", line_no, column)
        return text
    if tag == "ident_list":
        parts = [p.strip() for p in text.split(",")]
        for p in parts:
            if not _IDENT_RE.match(p):
                raise ScenarioSyntaxError(f"not an identifier: {p!r}", line_no, column)
        return tuple(parts)
    if tag == "bool":
        if text == "true":
            return True
        if text == "false":
            return False
        raise ScenarioSyntaxError(f"expected true/false, got {text!r}", line_no, column)
    if tag == "int":
        try:
            return int(text)
        except ValueError:
            raise ScenarioSyntaxError(f"not an integer: {text!r}", line_no, column)
    if tag == "float":
        try:
            values = (float(text),)
        except ValueError:
            raise ScenarioSyntaxError(f"not a number: {text!r}", line_no, column)
    elif tag in ("vec3", "vec4"):
        if not (text.startswith("(") and text.endswith(")")):
            raise ScenarioSyntaxError("vector must be written (a, b, c)", line_no, column)
        parts = text[1:-1].split(",")
        want = 3 if tag == "vec3" else 4
        if len(parts) != want:
            raise ScenarioSyntaxError(
                f"expected {want} components, got {len(parts)}", line_no, column
            )
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ScenarioSyntaxError(f"non-numeric component in {text!r}", line_no, column)
    else:
        raise AssertionError(f"unhandled type tag {tag}")
    if not all(map(math.isfinite, values)):
        raise DomainError(f"line {line_no}, column {column}: non-finite number in {text!r}")
    return values[0] if tag == "float" else values


def parse_scenario(text: str) -> Scenario:
    sections = {}
    outputs = []
    output_lines = {}  # normalised csv/svg path -> line that names it
    current = None  # (name, dict)
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        m = _SECTION_RE.match(line)
        if m:
            name = m.group(1)
            if name not in _SCHEMA:
                raise ScenarioKeyError(f"unknown section [{name}]", line_no)
            if name == "output":
                current = (name, {})
                outputs.append(current[1])
            else:
                if name in sections:
                    raise ScenarioKeyError(f"section [{name}] appears twice", line_no)
                current = (name, {})
                sections[name] = current[1]
            continue
        if "=" not in line:
            raise ScenarioSyntaxError(
                "expected 'key = value' or '[section]'", line_no, raw_line.index(line[0]) + 1
            )
        if current is None:
            raise ScenarioSyntaxError("assignment before any [section]", line_no)
        key_text, value_text = line.split("=", 1)
        key = key_text.strip()
        if not _KEY_RE.match(key):
            raise ScenarioSyntaxError(f"bad key {key!r}", line_no)
        section_name, store = current
        schema = _SCHEMA[section_name]
        if key not in schema:
            raise ScenarioKeyError(f"unknown key {key!r} in [{section_name}]", line_no)
        if key in store:
            raise ScenarioKeyError(f"key {key!r} repeated in [{section_name}]", line_no)
        column = raw_line.index("=") + 2
        store[key] = _parse_value(schema[key], value_text, line_no, column)
        if section_name == "output" and key in ("csv", "svg"):
            named = os.path.normpath(store[key])
            if named in output_lines:
                raise ScenarioKeyError(f"output path {store[key]!r} is already named on "
                                       f"line {output_lines[named]}", line_no)
            output_lines[named] = line_no

    head = sections.get("scenario", {})
    for req in _REQUIRED["scenario"]:
        if req not in head:
            raise ScenarioMissingKeyError("scenario", req)
    kind = head["kind"]
    if kind not in KINDS:
        raise DomainError(f"unknown scenario kind {kind!r}; expected one of {tuple(KINDS)}")
    param_section = KINDS[kind].section
    for section in sections:
        if section != param_section and any(s.section == section for s in KINDS.values()):
            raise DomainError(f"section [{section}] is not read by kind {kind}")
    for section in (param_section, "integrator"):
        for req in _REQUIRED[section]:
            if req not in sections.get(section, {}):
                raise ScenarioMissingKeyError(section, req)
    for out in outputs:
        if not out.get("csv") and not out.get("svg"):
            raise DomainError("an [output] section needs a csv or svg path")

    _validate_domains(kind, sections[param_section], sections["integrator"])
    name = head.get("name", kind)
    return Scenario(
        kind=kind,
        name=name,
        parameters=dict(sections[param_section]),
        integrator=dict(sections["integrator"]),
        outputs=tuple(
            OutputRequest(
                csv=o.get("csv", ""),
                svg=o.get("svg", ""),
                observables=tuple(o.get("observables", ())),
                log_x=o.get("log_x", False),
                title=o.get("title", ""),
            )
            for o in outputs
        ),
    )


def read_scenario(path) -> Scenario:
    """parse_scenario of a file's UTF-8 text; a byte that is not UTF-8 is a
    ScenarioSyntaxError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode; "x" stands for it
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ScenarioSyntaxError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}",
                                  len(lines), len(lines[-1])) from None
    return parse_scenario(text)


def _validate_domains(kind: str, params: dict, integrator: dict) -> None:
    """Early unit checks that do not need a model built."""
    spec = KINDS[kind]
    if "sample_stride" in integrator and spec.every_step:
        raise DomainError(f"sample_stride does not apply to kind {kind}, which samples "
                          "every step; set step instead")
    xi = params.get("xi")
    if xi is not None:
        norm = sum(v * v for v in xi) ** 0.5
        if norm > 1.0 + TOL.bloch_ball:
            raise DomainError(f"|xi| = {norm:.6g} lies outside the unit ball")
    profile = params.get("g_profile", "constant") if spec.section == "qubit" else None
    if profile is not None:
        if profile not in ("constant", "inverted-morse"):
            raise DomainError(f"unknown g_profile {profile!r}")
        case = params.get("case", "auto")
        if case not in ("auto", "parabolic", "hyperbolic-damped", "oscillatory"):
            raise DomainError(f"unknown case {case!r}")
    for key in params:
        if spec.reads is not None and key not in spec.reads:
            raise DomainError(f"[{spec.section}] key {key!r} is not read by kind {kind}")
        if key in ("q", "nu") and profile == "constant":
            raise DomainError(f"[qubit] key {key!r} is not read by kind {kind} "
                              "with the constant g_profile")
    if profile == "inverted-morse" and ("q" not in params or "nu" not in params):
        raise DomainError("inverted-morse profile needs keys q and nu")
    if kind == "neutrino":
        mode = params.get("mode", "msw")
        if mode not in ("msw", "damping"):
            raise DomainError(f"unknown neutrino mode {mode!r}")
