"""Property tests of the input boundary: configs drawn from the CLI's key
table with one fault each, structured set and function specs with numeric
edge values inside them, and the library's text formats."""

import itertools
import json
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bohrlab import build_group, cli, from_cayley_table
from bohrlab.cli import COMMON, KINDS, main, run_experiment
from bohrlab.groups import parse_function, parse_subset

from test_cli import assert_plain

GROUPS = ("zmod:1", "zmod:5", "zmod:12", "dihedral:3", "dihedral:6",
          "quaternion:8", "sym:3", "alt:4", "product:zmod:2,zmod:6")
# A valid value for each required key, and small budgets so that the runs a
# fault leaves valid end quickly.
REQUIRED = {"summands": "0", "delta": "1.0", "function": "random-pm1",
            "function_b": "random-uniform", "epsilon": "0.5",
            "set_a": "random:0.5", "set_b": "evens", "alpha": "0.5"}
SMALL = {"budget": "200", "cap": "4", "max_candidates": "20", "trials": "3",
         "seed": "3", "expect": "none"}


# Delta grids with one delta outside (0, 2], first or after a good one
_BAD_GRIDS = st.tuples(st.sampled_from(["", "2.0,", "1.0,0.5,"]),
                       st.sampled_from(["-1", "0", "2.5", "nan", "inf", "-inf"])
                       ).map("".join)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@st.composite
def _faulty_configs(draw):
    """(kind, config, expected error or None) with one fault applied."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    keys = {**COMMON, **KINDS[kind][1]}
    config = {"group": draw(st.sampled_from(GROUPS))}
    config.update({k: REQUIRED[k] for k, d in keys.items()
                   if isinstance(d, type) and k in REQUIRED})
    config.update({k: v for k, v in SMALL.items()
                   if k in keys and draw(st.booleans())})
    fault = draw(st.sampled_from(("drop", "misspell", "non-numeric", "grid")))
    if fault == "grid":
        if "delta_grid" not in keys:
            return kind, config, None
        # a check of the sets or alpha may fail first, so the run must end
        # with exit 1 and one line, whichever message it gives
        config["delta_grid"] = draw(_BAD_GRIDS)
        return kind, config, "error: "
    if fault == "drop":
        key = draw(st.sampled_from([k for k in config if isinstance(keys[k], type)]))
        del config[key]
        return kind, config, f"missing config key {key!r}"
    key = draw(st.sampled_from(sorted(config)))
    if fault == "misspell":
        i = draw(st.integers(0, len(key) - 1))
        letter = draw(st.sampled_from(string.ascii_lowercase + "_"))
        typo = draw(st.sampled_from((key[:i] + key[i + 1:], key[:i] + letter + key[i:],
                                     key[:i] + letter + key[i + 1:])))
        if not typo or typo in keys or typo in config:
            return kind, config, None
        config[typo] = config.pop(key)
        return kind, config, f"unknown config key {typo!r}"
    text = draw(st.text(string.ascii_letters, min_size=1, max_size=8))
    if text.lower() in ("nan", "inf", "infinity", "true", "false"):
        return kind, config, None
    config[key] = text
    default = keys[key]
    typed = str not in (default, type(default))
    return kind, config, f"config key {key!r}: " if typed else None


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_faulty_configs())
def test_faulty_configs_keep_the_exit_contract(tmp_path, capsys, case):
    _check_exit_contract(tmp_path, capsys, *case)


# Each example writes its config and report under fresh names: on some
# filesystems overwriting a file costs tens of milliseconds, creating one
# a few microseconds.
_EXAMPLE_IDS = itertools.count()


def _check_exit_contract(tmp_path, capsys, kind, config, expected):
    # exit 1 gives one stderr line and no report; 0 or 2 give strict JSON
    example = next(_EXAMPLE_IDS)
    cfg = tmp_path / f"c{example}.ini"
    cfg.write_text("[experiment]\n" + "".join(f"{k} = {v}\n"
                                                for k, v in config.items()))
    out = tmp_path / f"o{example}.json"
    reports = []  # the report objects, so their payloads' own types are walked

    def recorded(config):
        reports.append(run_experiment(config))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_experiment", recorded)
        code = main([kind, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if expected is not None:
        assert code == 1, (config, err)
        assert expected in err, (config, err)
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, (config, err)
        assert not out.exists()
    else:
        assert code in (0, 2), (config, err)
        json.loads(out.read_text(), parse_constant=_reject_constant)
        assert_plain(reports[-1].payload)


_TOKENS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "0.5", "-0.5", "2.5",
                           "nan", "inf", "1e400", "x", "dim", "order", "99999",
                           "2147483648", "-2147483649"])
_LINES = st.lists(st.lists(_TOKENS, max_size=9).map(" ".join), max_size=6)
_TEXTS = st.one_of(st.text(max_size=30), _LINES.map("\n".join))
_Z3 = build_group("zmod:3")


@settings(max_examples=150, deadline=None)
@given(_TEXTS)
def test_text_formats_return_or_raise_value_error(text):
    for parse in (from_cayley_table, lambda t: parse_subset(_Z3, t),
                  lambda t: parse_function(_Z3, t)):
        try:
            parse(text)
        except ValueError:
            pass


# Numeric edge values inside structured specs: negative, zero, a hair past
# +-1, beyond every order and every float, non-finite and empty.
_EDGES = st.sampled_from(["-2", "-1", "0", "1", "3", "0.5", "1.000000000001",
                          "-1.000000000001", str(10**20), "nan", "inf", "-inf",
                          "1e400", ""])


@st.composite
def _set_specs(draw):
    head = draw(st.sampled_from(("random:", "random_size:", "interval:", "evens",
                                 "halfrange")))
    spec = head + (draw(_EDGES) if head.endswith(":") else "")
    if draw(st.booleans()):
        spec += "-minus:" + draw(_EDGES)
    return spec


@st.composite
def _function_specs(draw):
    head = draw(st.sampled_from(("conv", "overlap", "indicator", "constant")))
    if head == "conv":
        return f"conv:{draw(_set_specs())}|{draw(_set_specs())}"
    if head == "constant":
        return "constant:" + draw(_EDGES)
    return f"{head}:{draw(_set_specs())}"


@st.composite
def _spec_configs(draw):
    kind = draw(st.sampled_from(("ladder", "convolve", "two-set")))
    config = {"group": draw(st.sampled_from(GROUPS))}
    if kind == "ladder":
        config.update(function=draw(_function_specs()), epsilon="0.5",
                      budget="200", cap="4")
    elif kind == "convolve":
        config.update(function=draw(_function_specs()),
                      function_b=draw(_function_specs()))
    else:
        config.update(set_a=draw(_set_specs()), set_b=draw(_set_specs()),
                      alpha="0.5", max_candidates="20")
    return kind, config


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_spec_configs())
def test_structured_specs_keep_the_exit_contract(tmp_path, capsys, case):
    _check_exit_contract(tmp_path, capsys, *case, None)
