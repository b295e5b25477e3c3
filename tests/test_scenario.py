from importlib.resources import files

import pytest

from qdsim.dynamics import whole_steps
from qdsim.errors import DomainError
from qdsim.scenario import (
    KINDS,
    Scenario,
    ScenarioKeyError,
    ScenarioMissingKeyError,
    ScenarioSyntaxError,
    parse_scenario,
    serialize_scenario,
)

MINIMAL = """\
[scenario]
kind = qubit-closed-form

[qubit]
omega = (0.0, 0.0, 6.0)
g = (4.0, 0.0, 0.0)
xi = (0.0, 0.0, 1.0)

[integrator]
t_end = 4.0
"""


def test_minimal_scenario():
    s = parse_scenario(MINIMAL)
    assert s.kind == "qubit-closed-form"
    assert s.name == "qubit-closed-form"  # defaults to the kind
    assert s.parameters["omega"] == (0.0, 0.0, 6.0)
    assert s.integrator["t_end"] == 4.0
    assert s.outputs == ()


def test_comments_and_blank_lines():
    text = MINIMAL.replace("t_end = 4.0", "t_end = 4.0   # run length")
    text = "# header comment\n\n" + text
    s = parse_scenario(text)
    assert s.integrator["t_end"] == 4.0


def test_hash_inside_parens_survives():
    text = MINIMAL + "\n[output]\nsvg = out.svg\ntitle = sweep (#4) # trailing\n"
    s = parse_scenario(text)
    assert s.outputs[0].title == "sweep (#4)"
    assert s.outputs[0].svg == "out.svg"


def test_multiple_outputs():
    text = (MINIMAL
            + "\n[output]\ncsv = a.csv\nobservables = p_minus, rabi\n"
            + "\n[output]\nsvg = b.svg\nlog_x = true\n")
    s = parse_scenario(text)
    assert len(s.outputs) == 2
    assert s.outputs[0].observables == ("p_minus", "rabi")
    assert s.outputs[0].log_x is False
    assert s.outputs[1].log_x is True


def test_unknown_section_line_number():
    text = MINIMAL + "\n[mystery]\n"
    with pytest.raises(ScenarioKeyError) as err:
        parse_scenario(text)
    assert err.value.line == len(MINIMAL.splitlines()) + 2
    assert "mystery" in str(err.value)


def test_unknown_key():
    text = MINIMAL.replace("t_end = 4.0", "t_end = 4.0\nwarp = 9")
    with pytest.raises(ScenarioKeyError) as err:
        parse_scenario(text)
    assert err.value.line == 11
    assert "warp" in str(err.value)


@pytest.mark.parametrize("line", ["renormalize = true", "eigenvalue_floor = -1e-6"])
def test_removed_integrator_keys_are_unknown(line):
    with pytest.raises(ScenarioKeyError) as err:
        parse_scenario(MINIMAL + line + "\n")
    assert err.value.line == 11
    assert line.split()[0] in str(err.value)


def test_shipped_horizons_are_whole_steps():
    shipped = [p for p in files("qdsim").joinpath("scenarios").iterdir()
               if p.name.endswith(".scn")]
    assert len(shipped) == 14
    for path in shipped:
        icfg = parse_scenario(path.read_text()).integrator
        assert whole_steps(icfg["t_end"], icfg["step"]) > 0, path.name


def test_duplicate_key_and_section():
    with pytest.raises(ScenarioKeyError) as err:
        parse_scenario(MINIMAL + "t_end = 5.0\n")
    assert "repeated" in str(err.value)
    with pytest.raises(ScenarioKeyError) as err:
        parse_scenario(MINIMAL + "\n[integrator]\nstep = 0.1\n")
    assert "twice" in str(err.value)


def test_vector_arity_error_carries_position():
    text = MINIMAL.replace("g = (4.0, 0.0, 0.0)", "g = (4.0, 0.0)")
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(text)
    assert err.value.line == 6
    assert err.value.column == 4  # one past the equals sign
    assert "expected 3" in str(err.value)


BMT = """\
[scenario]
kind = bmt

[bmt]
e = (0.0, 0.5, 0.0)
b = (0.0, 0.0, 1.0)
xi = (0.0, 0.0, 1.0)
p = (1.0, 0.0, 0.0, 0.0)
charge = 1.0

[integrator]
t_end = 1.0
"""


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, tag", [("charge", "float"), ("e", "vec3"), ("p", "vec4"),
                                      ("t_end", "float")])
def test_non_finite_numbers_are_rejected_with_their_position(key, tag, literal):
    lines = BMT.splitlines()
    line_no = next(i for i, ln in enumerate(lines, start=1) if ln.startswith(f"{key} ="))
    value = lines[line_no - 1].split("= ", 1)[1]
    if tag == "float":
        value = literal
    else:
        parts = value[1:-1].split(", ")
        parts[1] = literal
        value = "(" + ", ".join(parts) + ")"
    lines[line_no - 1] = f"{key}   = {value}"
    with pytest.raises(DomainError) as err:
        parse_scenario("\n".join(lines) + "\n")
    # the value column is the 1-based position just past the '='
    assert str(err.value).startswith(f"line {line_no}, column {len(key) + 5}:")
    assert literal in str(err.value)


def test_scalar_type_errors():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(MINIMAL.replace("4.0", "fast"))
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(MINIMAL + "\n[output]\ncsv = a.csv\nlog_x = yes\n")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(MINIMAL + "sample_stride = 2.5\n")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(MINIMAL + "step =   \n")


def test_assignment_before_section():
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("kind = bmt\n" + MINIMAL)
    assert err.value.line == 1


def test_line_without_equals():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario(MINIMAL + "just words\n")


def test_missing_required_keys():
    with pytest.raises(ScenarioMissingKeyError) as err:
        parse_scenario(MINIMAL.replace("[integrator]\nt_end = 4.0\n", ""))
    assert (err.value.section, err.value.key) == ("integrator", "t_end")
    with pytest.raises(ScenarioMissingKeyError) as err:
        parse_scenario(MINIMAL.replace("xi = (0.0, 0.0, 1.0)\n", ""))
    assert (err.value.section, err.value.key) == ("qubit", "xi")
    with pytest.raises(ScenarioMissingKeyError):
        parse_scenario("[integrator]\nt_end = 1.0\n")


def test_unknown_kind_rejected():
    with pytest.raises(DomainError):
        parse_scenario(MINIMAL.replace("qubit-closed-form", "magic"))


def with_qubit_keys(extra: str) -> str:
    return MINIMAL.replace("xi = (0.0, 0.0, 1.0)\n",
                           "xi = (0.0, 0.0, 1.0)\n" + extra)


def test_domain_validation():
    with pytest.raises(DomainError):
        parse_scenario(MINIMAL.replace("xi = (0.0, 0.0, 1.0)",
                                       "xi = (0.8, 0.8, 0.8)"))
    with pytest.raises(DomainError):
        parse_scenario(with_qubit_keys("g_profile = linear\n"))
    # morse profile requires the ode kind and its two shape keys
    text = with_qubit_keys("g_profile = inverted-morse\nq = 0.01\nnu = 0.001\n")
    with pytest.raises(DomainError):
        parse_scenario(text)
    ode = text.replace("qubit-closed-form", "gksl-ode")
    assert parse_scenario(ode).parameters["g_profile"] == "inverted-morse"
    with pytest.raises(DomainError):
        parse_scenario(ode.replace("q = 0.01\n", ""))
    with pytest.raises(DomainError):
        parse_scenario(with_qubit_keys("case = overdamped\n"))
    neutrino = ("[scenario]\nkind = neutrino\n\n[neutrino]\n"
                "energy_gev = 0.01\nmode = vacuum\n\n[integrator]\nt_end = 1.0\n")
    with pytest.raises(DomainError):
        parse_scenario(neutrino)
    assert parse_scenario(neutrino.replace("vacuum", "msw")).kind == "neutrino"


@pytest.mark.parametrize("kind, keys, refused", [
    # gksl-ode integrates whatever rates it is given; it never reads case
    ("gksl-ode", "case = parabolic\n", "'case'"),
    ("gksl-ode", "q = 0.01\nnu = 0.001\n", "'q'"),
    ("gksl-ode", "g_profile = constant\nnu = 0.001\n", "'nu'"),
    ("qubit-closed-form", "g_profile = constant\n", "'g_profile'"),
    ("qubit-closed-form", "q = 0.01\n", "'q'"),
    ("qubit-closed-form", "nu = 0.001\n", "'nu'"),
])
def test_qubit_keys_a_kind_does_not_read_are_refused(kind, keys, refused):
    with pytest.raises(DomainError) as err:
        parse_scenario(with_qubit_keys(keys).replace("qubit-closed-form", kind))
    msg = str(err.value)
    assert refused in msg and kind in msg and "\n" not in msg


def _shipped_with_stride(stem: str) -> str:
    text = files("qdsim").joinpath("scenarios", f"{stem}.scn").read_text()
    if "sample_stride" not in text:
        text = text.replace("[integrator]\n", "[integrator]\nsample_stride = 10\n")
    return text


@pytest.mark.parametrize("stem, kind", [
    ("damped_rabi_w6_g4", "qubit-closed-form"),
    ("lindblad_entropy_plateau", "single-lindblad"),
    ("jc_collapse_blocks", "jaynes-cummings"),
])
def test_sample_stride_refused_where_every_step_is_sampled(stem, kind):
    with pytest.raises(DomainError) as err:
        parse_scenario(_shipped_with_stride(stem))
    msg = str(err.value)
    assert "sample_stride" in msg and kind in msg and "set step instead" in msg
    assert "\n" not in msg


@pytest.mark.parametrize("stem", ["instability_morse", "bmt_spin_damping_a",
                                  "neutrino_msw_10mev"])
def test_stepping_kinds_keep_sample_stride(stem):
    assert parse_scenario(_shipped_with_stride(stem)).integrator["sample_stride"] > 1


def test_output_needs_a_path():
    with pytest.raises(DomainError):
        parse_scenario(MINIMAL + "\n[output]\nobservables = n3\n")


def test_round_trip_on_shipped_scenarios():
    scn_dir = files("qdsim") / "scenarios"
    names = sorted(p.name for p in scn_dir.iterdir() if p.name.endswith(".scn"))
    assert len(names) >= 14
    kinds_seen = set()
    for name in names:
        text = (scn_dir / name).read_text()
        first = parse_scenario(text)
        again = parse_scenario(serialize_scenario(first))
        assert again == first, name
        kinds_seen.add(first.kind)
    assert kinds_seen == set(KINDS)


def test_serialize_emits_parseable_defaults():
    s = Scenario(kind="neutrino", name="demo",
                 parameters={"energy_gev": 0.01, "mode": "damping"},
                 integrator={"t_end": 100.0, "step": 1.0})
    again = parse_scenario(serialize_scenario(s))
    assert again.parameters["mode"] == "damping"
    assert again.integrator["step"] == 1.0
