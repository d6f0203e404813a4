import csv
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bohrlab
from bohrlab.cli import (COMMON, KINDS, ConfigError, load_config, main,
                         replay_report, run_experiment)

from test_guards import _labbench_module, _labbench_workloads

FIXTURES = Path(__file__).parent / "fixtures"


def _write_config(path, config):
    path.write_text("[experiment]\n" + "".join(f"{k} = {v}\n"
                                                for k, v in config.items()))
    return path


def _run(name, **overrides):
    config = load_config(str(FIXTURES / name))
    config.update({k: str(v) for k, v in overrides.items()})
    return run_experiment(config)


def test_group_info_payload():
    report = _run("group_info_z12.ini")
    assert report.status == "ok"
    assert report.payload["order"] == 12
    assert report.payload["abelian"] is True
    assert report.config["seed"] == "0"


def test_irreps_payload():
    report = _run("irreps_s4.ini")
    assert report.status == "ok"
    assert sorted(report.payload["dims"]) == [1, 1, 2, 3, 3]
    assert report.payload["sum_dim_sq"] == 24
    assert report.payload["max_hom_residual"] <= 1e-9


def test_irreps_report_the_hom_residual_at_every_order():
    # one payload shape at every order: the residual over all pairs, which
    # the characters' integer certificate makes cheap, never a looser bound
    for n in (316, 317):
        payload = run_experiment({"kind": "irreps", "group": f"zmod:{n}"}).payload
        assert payload["max_hom_residual"] <= 1e-10
        assert not [key for key in payload if "bound" in key]


@pytest.mark.parametrize("desc", ["zmod:317", "zmod:1024"])
def test_labbench_checker_passes_large_abelian_irreps(desc):
    checker = _labbench_module("verify").Checker(
        lambda d: bohrlab.build_group(d).table)
    config = {"kind": "irreps", "group": desc}
    report = run_experiment(config)
    assert checker.check(report.config, report.status, report.payload) == []


def test_bohr_payload():
    report = _run("bohr_z12.ini")
    assert report.status == "ok"
    assert report.payload["spec"]["realized_members"] == [0, 1, 11]
    assert report.payload["cover_count"] == 4
    assert report.payload["nm"] == {"m": 1, "size": 3, "cover_bound": 7,
                                    "cover_actual": 4, "bound_ok": True}


def test_bohr_set_on_zmod_2048_is_symmetric(tmp_path):
    # delta = 2 sin(341 pi / 2048): elements 341 and 1707 = -341 lie exactly on
    # the boundary of chi2047's Bohr set, so both are out and the set is symmetric
    cfg = _write_config(tmp_path / "bohr.ini", {
        "kind": "bohr", "group": "zmod:2048", "summands": 2047,
        "delta": 0.9991142250901637})
    out = tmp_path / "bohr.json"
    assert main(["bohr", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    members = set(payload["spec"]["realized_members"])
    assert 341 not in members and 1707 not in members
    assert members == {(-x) % 2048 for x in members}
    assert payload["size"] == 681


def test_bohr_nonabelian_nm():
    # quaternion:8 irreps sort with the 2-dim irrep last (index 4)
    report = run_experiment({"kind": "bohr", "group": "quaternion:8",
                             "summands": "4", "delta": "1.0", "nm": "true"})
    assert report.status == "ok"
    assert report.payload["nm"]["m"] == 2
    assert report.payload["spec"]["kind"] == "unitary"


def test_bohr_nm_simple_group_errors(tmp_path):
    cfg = tmp_path / "a5.ini"
    cfg.write_text("[experiment]\nkind = bohr\ngroup = alt:5\n"
                   "summands = 1\ndelta = 1.0\nnm = true\n")
    code = main(["bohr", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1


def test_help_uses_an_before_a_vowel(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert "run an irreps experiment" in out
    assert "run a ladder experiment" in out


@pytest.mark.parametrize("summands", ["99", "-1"])
def test_bohr_summand_index_out_of_range(tmp_path, capsys, summands):
    cfg = tmp_path / "bohr.ini"
    cfg.write_text("[experiment]\nkind = bohr\ngroup = zmod:12\n"
                   f"summands = {summands}\ndelta = 1.0\n")
    code = main(["bohr", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_ladder_non_finite_epsilon_errors(tmp_path, capsys, epsilon):
    cfg = tmp_path / "ladder.ini"
    cfg.write_text("[experiment]\nkind = ladder\ngroup = zmod:12\n"
                   f"function = random-pm1\nepsilon = {epsilon}\n")
    code = main(["ladder", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: eps must be positive and finite\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
@pytest.mark.parametrize("kind, keys", [
    ("regularity", "function = random-uniform\nzeta = const:0.05\n"),
    ("croot-sisask", "set_a = random:0.5\np = 2\n"),
])
def test_search_non_finite_epsilon_errors(tmp_path, capsys, kind, keys, epsilon):
    cfg = tmp_path / "search.ini"
    cfg.write_text(f"[experiment]\nkind = {kind}\ngroup = zmod:12\n{keys}"
                   f"epsilon = {epsilon}\n")
    code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: eps must be positive and finite\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind, keys, message", [
    ("regularity", "function = random-uniform\nepsilon = 0.1\nzeta = const:nan\n",
     "zeta values must be positive and finite"),
    ("two-set", "set_a = evens-minus:1\nset_b = evens\nalpha = 0.4\n"
     "zeta = power:nan,1\n", "zeta parameters must be positive and finite"),
    ("croot-sisask", "set_a = random:0.5\np = nan\nepsilon = 0.1\n",
     "p must lie in [1, inf), got nan"),
    ("bogolyubov", "set_a = evens\nalpha = -1\n",
     "alpha must lie in (0, 1], got -1.0"),
    ("bogolyubov", "set_a = random:5\nalpha = 0.3\n",
     "density must lie in [0, 1], got 5.0"),
    ("regularity", "function = random-uniform\nepsilon = 0.1\nmax_candidates = -3\n",
     "max_dim, max_summands and max_candidates must be >= 1"),
    ("bogolyubov", "set_a = interval:-3\nalpha = 0.3\n",
     "interval radius must be >= 0, got -3"),
    ("bogolyubov", "set_a = random_size:99999999999999999999\nalpha = 0.3\n",
     "set size must lie in [0, 12], got 99999999999999999999"),
    ("bogolyubov", "set_a = random_size:-1\nalpha = 0.3\n",
     "set size must lie in [0, 12], got -1"),
    ("bogolyubov", "set_a = evens-minus:-2\nalpha = 0.3\n",
     "points to remove must lie in [0, 6], got -2"),
])
def test_out_of_range_parameters_error(tmp_path, capsys, kind, keys, message):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[experiment]\ngroup = zmod:12\nseed = 1\n{keys}")
    code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind, keys, grid", [
    ("bogolyubov", "set_a = evens\nalpha = 0.5\n", "2.0,-1"),
    ("bogolyubov", "set_a = evens\nalpha = 0.5\n", "2.0,nan"),
    ("bogolyubov", "set_a = evens\nalpha = 0.5\n", "2.0,inf"),
    ("regularity", "function = random-uniform\nepsilon = 0.1\n", "3.0,1.0"),
])
def test_bad_delta_grid_errors_wherever_the_walk_stops(tmp_path, capsys, kind,
                                                       keys, grid):
    # the bogolyubov search accepts at delta 2.0, before it reaches -1; each
    # config runs twice in one process, so state kept on the group cannot
    # hide the fault
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[experiment]\ngroup = zmod:12\nseed = 1\n{keys}"
                   f"delta_grid = {grid}\n")
    for _ in range(2):
        code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: delta must lie in (0, 2], got ")
        assert err.count("\n") == 1
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind, keys", [
    ("regularity", "function = random-uniform\nepsilon = 0.1\n"),
    ("two-set", "set_a = random:0.1\nset_b = random:0.1\nalpha = 0.05\n"),
], ids=["regularity", "two-set"])
def test_zeta_power_overflow_errors(tmp_path, capsys, kind, keys):
    # gamma (delta / c)^(n^2) leaves the float range at the dim-6 irrep
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[experiment]\ngroup = sym:5\n{keys}zeta = power:1e-300,1e-10\n"
                   "delta_grid = 2.0\nmax_summands = 1\n")
    code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == ("error: zeta rule power:1e-300,1e-10 "
                                       "overflows at delta 2.0, n 6\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind, keys, spec", [
    ("two-set", "set_b = evens\nalpha = 0.4\nset_a = ", "evens-minus:"),
    ("two-set", "set_b = evens\nalpha = 0.4\nset_a = ", "random_size:12-minus:"),
    ("bogolyubov", "alpha = 0.3\nset_a = ", "evens-minus:2.5"),
    ("ladder", "epsilon = 0.1\nfunction = ", "indicator:evens-minus:x"),
])
def test_removal_count_must_be_an_integer(tmp_path, capsys, kind, keys, spec):
    # "-minus:" with no count, or a count that is no integer, is an error,
    # not a removal of nothing
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[experiment]\ngroup = zmod:12\nseed = 1\n{keys}{spec}\n")
    code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    set_spec = spec.removeprefix("indicator:")
    assert capsys.readouterr().err == (f"error: set spec {set_spec!r} needs an "
                                       "integer count after '-minus:'\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("kind, keys, message", [
    ("ladder", "function = random-uniform\nepsilon = 0.1\nbudget = -5\n",
     "budget must be >= 1, got -5"),
    ("quasirandom", "alpha = 0.3\ntrials = 0\n", "trials must be >= 1, got 0"),
    ("quasirandom", "alpha = 0.3\nsize = -1\n",
     "size must lie in [1, 12], got -1"),
    ("croot-sisask", "set_a = random:0.5\np = 2\nepsilon = 0.1\nmin_size = -4\n",
     "min_size must lie in [1, 12], got -4"),
], ids=["ladder-budget", "quasirandom-trials", "quasirandom-size",
        "croot-sisask-min_size"])
def test_out_of_range_budgets_error(tmp_path, capsys, kind, keys, message):
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[experiment]\ngroup = zmod:12\nseed = 1\n{keys}")
    code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("text", [
    "[experiment]\nkind = group-info\ngroup = zmod:12\n[experiment]\nseed = 1\n",
    "kind = group-info\ngroup = zmod:12\n",
    "[experiment]\ngroup = zmod:12\nout = 50%.json\n",
])
def test_malformed_config_file_errors(tmp_path, capsys, text):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match="^malformed config: "):
        load_config(str(cfg))
    code = main(["group-info", "--config", str(cfg),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed config: ") and err.count("\n") == 1
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("size", ["21", None])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e400"])
def test_quasirandom_alpha_out_of_range_errors(tmp_path, capsys, alpha, size):
    config = load_config(str(FIXTURES / "quasirandom_a5.ini"))
    config["alpha"] = alpha
    if size is None:
        del config["size"]
    cfg = _write_config(tmp_path / "q.ini", config)
    code = main(["quasirandom", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    message = f"alpha must lie in (0, 1], got {float(alpha)}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.json").exists()


def test_quasirandom_size_below_the_density_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path / "q.ini", {"kind": "quasirandom", "group": "zmod:12",
                                             "alpha": "0.5", "size": 5})
    code = main(["quasirandom", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: mu(A) = 5/12 < alpha = 0.5\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("group, alpha, size", [
    ("zmod:10", "0.1", 2), ("dihedral:5", "0.2", 3), ("dihedral:10", "0.4", 9)])
def test_quasirandom_default_size_meets_the_density_check(tmp_path, capsys,
                                                         group, alpha, size):
    # the float alpha lies above alpha * |G|'s integer, so the float ceil
    # falls one short of the exact ceil the density check asks for
    cfg = _write_config(tmp_path / "q.ini", {"kind": "quasirandom", "group": group,
                                             "alpha": alpha, "trials": 2})
    out = tmp_path / "o.json"
    assert main(["quasirandom", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["payload"]["size"] == size


def test_quasirandom_computes_d_once(monkeypatch):
    # d belongs to the group: ten trials still ask for it once
    calls = []
    orig = bohrlab.reps.min_nontrivial_dim

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("bohrlab") and getattr(mod, "min_nontrivial_dim",
                                                  None) is orig:
            monkeypatch.setattr(mod, "min_nontrivial_dim", counted)
    report = _run("quasirandom_a5.ini")
    assert len(report.payload["table"]) == 10
    assert report.payload["d"] == 3
    assert len(calls) == 1


def assert_plain(obj, where="payload"):
    """Fail unless every node of obj has one of the exact types a payload
    may hold: dict with str keys, list, str, int, float, bool or None.
    run_experiment reports the runner's dict as built, so a numpy scalar
    would reach the JSON writer as it is (np.float64 subclasses float)."""
    if type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, f"{where}: key {key!r}"
            assert_plain(value, f"{where}.{key}")
    elif type(obj) is list:
        for i, value in enumerate(obj):
            assert_plain(value, f"{where}[{i}]")
    else:
        assert type(obj) in (str, int, float, bool, type(None)), \
            f"{where}: {type(obj).__name__}"


def test_payloads_hold_plain_json_types():
    # the 12 fixtures and the benchmark's seed-101 experiment lists
    configs = [load_config(str(path)) for path in sorted(FIXTURES.glob("*.ini"))]
    assert len(configs) >= 12
    workloads = _labbench_workloads()
    for name in workloads.WORKLOADS:
        configs += workloads.build(name, 101, 30)
    for config in configs:
        assert_plain(run_experiment(config).payload)


def test_table_file_order_out_of_range_errors(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("-1\n5\n")
    cfg = _write_config(tmp_path / "c.ini",
                        {"kind": "group-info", "group": f"file:{table}"})
    code = main(["group-info", "--config", str(cfg),
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: table order -1 outside [1, 2048]\n"
    assert not (tmp_path / "o.json").exists()


def test_failed_decomposition_ends_with_one_line(tmp_path, monkeypatch, capsys):
    # a file: group is never shared, so its irreps are decomposed here
    from bohrlab.groups import build_group
    from conftest import format_cayley_table

    def fail(group, rng):
        raise bohrlab.reps.RepDecompositionError("eigenvalues did not separate")

    monkeypatch.setattr(bohrlab.reps, "_decompose_once", fail)
    table = tmp_path / "t.txt"
    table.write_text(format_cayley_table(build_group("sym:3")))
    cfg = _write_config(tmp_path / "c.ini", {"group": f"file:{table}"})
    code = main(["irreps", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == ("error: decomposition failed after 6 seeds: "
                                       "eigenvalues did not separate\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("desc, a, b", [
    ("zmod:4", "1.000000000001", "1.000000000001"),
    ("zmod:16", "-1.000000000001", "1.000000000001"),
])
def test_convolution_past_one_ends_with_one_line(tmp_path, capsys, desc, a, b):
    # each value is within VALUE_TOL of [-1, 1], their convolution is not;
    # the direct path ends the run before the FFT path, which
    # test_convolve.py checks on its own
    cfg = _write_config(tmp_path / "c.ini", {"group": desc, "function": f"constant:{a}",
                                             "function_b": f"constant:{b}"})
    code = main(["convolve", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    err = capsys.readouterr().err
    assert code == 1 and not (tmp_path / "o.json").exists()
    assert err.startswith("error: values exceed [-1,1] bound") and err.count("\n") == 1


def test_product_over_cap_ends_with_one_line(tmp_path, capsys):
    # the 2048^2-order product table would ask numpy for 128 TiB
    cfg = _write_config(tmp_path / "c.ini", {"group": "product:zmod:2048,zmod:2048"})
    code = main(["group-info", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: product order 4194304 exceeds cap 2048\n"
    assert not (tmp_path / "o.json").exists()


def test_allocation_failure_ends_with_one_line(tmp_path, monkeypatch, capsys):
    def fail(reps):
        raise MemoryError()

    monkeypatch.setattr(bohrlab.cli, "direct_sum_hom", fail)
    cfg = _write_config(tmp_path / "c.ini", {"group": "zmod:12", "summands": "1,1",
                                             "delta": "1.0"})
    code = main(["bohr", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("group", ["sym:4", "dihedral:12"])
def test_irreps_payload_does_not_depend_on_the_seed(monkeypatch, group):
    # a fresh group for each seed, so each run decomposes it anew
    payloads = set()
    for seed in (0, 7, 101):
        monkeypatch.setattr(bohrlab.groups, "_SHARED", {})
        config = {"kind": "irreps", "group": group, "seed": str(seed)}
        payloads.add(run_experiment(config).payload_canonical())
    assert len(payloads) == 1


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _numeric_variants(config):
    """(key, value) for each numeric value, or numeric tail after the last
    ':', of a config, replaced by each non-finite or overflowing number."""
    for key, value in config.items():
        head, colon, tail = value.rpartition(":")
        try:
            float(tail)
        except ValueError:
            continue
        for bad in ("nan", "inf", "-inf", "1e400"):
            yield key, head + colon + bad


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ini")),
                         ids=lambda path: path.stem)
def test_non_finite_config_values_end_cleanly(tmp_path, capsys, path):
    # every run ends with exit 1 and one stderr line, or with exit 0 or 2
    # and a strict JSON report; never with a traceback
    base = load_config(str(path))
    out = tmp_path / "o.json"
    variants = list(_numeric_variants(base))
    assert variants
    for key, value in variants:
        cfg = _write_config(tmp_path / "c.ini", {**base, key: value})
        out.unlink(missing_ok=True)
        code = main([base["kind"], "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (key, value)
            assert not out.exists(), (key, value)
        else:
            assert code in (0, 2), (key, value)
            json.loads(out.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ini")),
                         ids=lambda path: path.stem)
def test_fixture_reports_are_strict_json(tmp_path, path):
    out = tmp_path / "report.json"
    kind = load_config(str(path))["kind"]
    code = main([kind, "--config", str(path), "--out", str(out),
                 "--format", "json"])
    assert code in (0, 2)
    json.loads(out.read_text(), parse_constant=_reject_constant)


def test_ladder_payload_and_budget_exhaustion():
    ok = _run("ladder_z4.ini")
    assert ok.status == "ok"
    assert ok.payload["search_status"] in ("exact", "capped")
    starved = _run("ladder_budget1.ini")
    assert starved.status == "inconclusive"
    assert starved.payload["search_status"] == "inconclusive"


def test_convolve_payload():
    report = _run("convolve_z16.ini")
    assert report.status == "ok"
    assert report.payload["fubini_residual"] < 1e-12
    assert report.payload["fft_residual"] < 1e-10


def test_regularity_fixture_certificate():
    report = _run("regularity_zpz.ini")
    assert report.status == "ok"
    cert = report.payload["certificate"]
    assert cert["max_defect"] == 0.0
    assert cert["bohr_spec"]["kind"] == "torus"
    assert report.payload["table"]


def test_regularity_csv_columns(tmp_path):
    report = _run("regularity_zpz.ini")
    text = report.to_csv()
    rows = list(csv.DictReader(text.splitlines()))
    assert set(rows[0].keys()) == {"translate_rep", "defect", "range"}
    assert len(rows) == 101


def test_quasirandom_csv_rows():
    report = _run("quasirandom_a5.ini")
    assert report.status == "ok"
    text = report.to_csv()
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 10
    assert {"trial", "seed", "ab_density", "abc_covers"} == set(rows[0].keys())
    assert report.payload["d"] == 3
    assert report.payload["all_covers"] is True


def test_bogolyubov_fixture():
    report = _run("bogolyubov_z200.ini")
    assert report.status == "ok"
    members = report.payload["spec"]["realized_members"]
    assert members and all(m % 2 == 0 for m in members)
    assert report.payload["separated"]["covers"] is True


def test_two_set_fixture():
    report = _run("two_set_z12.ini")
    assert report.status == "ok"
    assert report.payload["conditions"] == {"i": True, "ii": True, "iii": True}


def test_croot_sisask_fixture():
    report = _run("croot_sisask_z101.ini")
    assert report.status == "ok"
    assert report.payload["size"] >= 3
    assert report.payload["sup_norm"] < 0.1


def test_expected_failure_fixture_reports_none(tmp_path):
    report = _run("regularity_noise_expect_none.ini")
    assert report.status == "none-within-budget"
    assert report.config["expect"] == "none"
    assert "certificate" not in report.payload
    assert report.payload["candidates_scored"] == 150
    code = main(["regularity", "--config",
                 str(FIXTURES / "regularity_noise_expect_none.ini"),
                 "--out", str(tmp_path / "noise.json")])
    assert code == 2


# Search outcomes of the fixtures; the candidate walk's order and its budget
# accounting decide them.
SEARCH_PINS = {
    "bogolyubov_z200.ini": dict(
        status="ok", candidates_scored=101, irrep_multiset=["chi100"],
        delta=2.0, realized_members=list(range(0, 200, 2))),
    "croot_sisask_z101.ini": dict(
        status="ok", candidates_scored=1, irrep_multiset=["chi0"],
        delta=2.0, realized_members=list(range(101))),
    "regularity_noise_expect_none.ini": dict(
        status="none-within-budget", candidates_scored=150),
    "regularity_zpz.ini": dict(
        status="ok", candidates_scored=305, irrep_multiset=["chi1"],
        delta=0.25, realized_members=[0, 1, 2, 3, 4, 97, 98, 99, 100]),
    "two_set_z12.ini": dict(
        status="ok", candidates_scored=7, irrep_multiset=["chi6"],
        delta=2.0, realized_members=[0, 2, 4, 6, 8, 10],
        g_best=0, defect_count=0),
}


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_search_fixture_outcomes_pinned(name):
    report = _run(name)
    payload = report.payload
    spec = payload.get("spec") or payload.get("certificate", {}).get("bohr_spec")
    got = {"status": report.status,
           "candidates_scored": payload["candidates_scored"]}
    if spec is not None:
        got.update({k: spec[k] for k in
                    ("irrep_multiset", "delta", "realized_members")})
    if "g_best" in payload:
        got.update(g_best=payload["g_best"],
                   defect_count=payload["defect_count"])
    assert got == SEARCH_PINS[name]


def test_file_based_inputs(tmp_path, z12):
    from conftest import format_cayley_table, format_subset
    from bohrlab import Subset

    table_path = tmp_path / "z12.txt"
    table_path.write_text(format_cayley_table(z12))
    set_path = tmp_path / "evens.txt"
    set_path.write_text(format_subset(Subset.from_indices(z12, range(0, 12, 2))))
    report = run_experiment({
        "kind": "bogolyubov", "group": f"file:{table_path}",
        "set_a": f"file:{set_path}", "alpha": "0.5"})
    assert report.status == "ok"
    members = report.payload["spec"]["realized_members"]
    assert members and all(m % 2 == 0 for m in members)


def test_file_inputs_close_their_handles(tmp_path, z12, monkeypatch):
    # an unclosed file warns from its finalizer, where a ResourceWarning
    # raised as an error can only reach sys.unraisablehook
    from conftest import format_cayley_table, format_function, format_subset
    from bohrlab import GroupFunction, Subset

    table_path = tmp_path / "z12.txt"
    table_path.write_text(format_cayley_table(z12))
    set_path = tmp_path / "evens.txt"
    set_path.write_text(format_subset(Subset.from_indices(z12, range(0, 12, 2))))
    fn_path = tmp_path / "f.txt"
    fn_path.write_text(format_function(GroupFunction(z12, [0.5] * 12)))
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        report = run_experiment({
            "kind": "convolve", "group": f"file:{table_path}",
            "function": f"indicator:file:{set_path}",
            "function_b": f"file:{fn_path}"})
        gc.collect()
    assert report.status == "ok"
    assert report.payload["mean_conv"] == pytest.approx(0.25)
    assert [u.exc_value for u in unraisable] == []


def test_missing_referenced_path_errors(tmp_path):
    with pytest.raises(ConfigError):
        run_experiment({"kind": "bogolyubov", "group": "zmod:12",
                        "set_a": f"file:{tmp_path}/nope.txt", "alpha": "0.5"})


@pytest.mark.parametrize("what, kind, keys", [
    ("table", "group-info", {"group": "file:{}"}),
    ("set", "bogolyubov", {"group": "zmod:12", "set_a": "file:{}", "alpha": "0.5"}),
    ("function", "convolve", {"group": "zmod:12", "function": "file:{}",
                              "function_b": "constant:1"}),
])
def test_missing_referenced_file_ends_with_one_line(tmp_path, capsys, what, kind, keys):
    missing = tmp_path / "nope.txt"
    cfg = _write_config(tmp_path / "c.ini",
                        {k: v.format(missing) for k, v in keys.items()})
    code = main([kind, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: referenced {what} file does not exist: {missing}\n")
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("entry", ["2147483648", "-2147483649", "99999999999",
                                   "99999999999999999999999"])
def test_table_entry_beyond_int32_ends_with_one_line(tmp_path, capsys, entry):
    table = tmp_path / "table.txt"
    table.write_text(f"2\n0 1\n1 {entry}\n")
    cfg = _write_config(tmp_path / "c.ini", {"group": f"file:{table}"})
    code = main(["group-info", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: entry out of range at (1, 1)\n"
    assert not (tmp_path / "o.json").exists()


def test_replay_round_trip(tmp_path):
    report = _run("regularity_zpz.ini")
    path = tmp_path / "report.json"
    path.write_text(report.to_json())
    doc = json.loads(path.read_text())
    assert replay_report(doc)


def test_seed_override_changes_payload():
    base = _run("croot_sisask_z101.ini")
    other = _run("croot_sisask_z101.ini", seed=8)
    assert base.config["seed"] != other.config["seed"]


def test_missing_config_key():
    with pytest.raises(ConfigError, match="^missing config key 'function'$"):
        run_experiment({"kind": "ladder", "group": "zmod:4"})
    with pytest.raises(ConfigError, match="^missing config key 'epsilon'$"):
        run_experiment({"kind": "ladder", "group": "zmod:4",
                        "function": "random-pm1"})
    with pytest.raises(ConfigError, match="^unknown experiment kind 'nope'$"):
        run_experiment({"kind": "nope", "group": "zmod:4"})


def test_main_exit_codes(tmp_path):
    out = tmp_path / "r.json"
    code = main(["group-info", "--config", str(FIXTURES / "group_info_z12.ini"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "ok"
    assert doc["toolkit_version"]

    code = main(["ladder", "--config", str(FIXTURES / "ladder_budget1.ini"),
                 "--out", str(tmp_path / "l.json")])
    assert code == 2

    code = main(["ladder", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(out)])
    assert code == 1


def test_env_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BOHRLAB_OUT_DIR", str(tmp_path))
    code = main(["group-info", "--config", str(FIXTURES / "group_info_z12.ini")])
    assert code == 0
    assert (tmp_path / "group-info.json").exists()


def _child_env(**extra):
    # The child must import the same bohrlab as this process, whether it is
    # installed or found through a (possibly relative) PYTHONPATH, so put the
    # imported package's parent directory first; children run outside the
    # checkout.
    package_root = str(Path(bohrlab.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}


def test_console_entry_point(tmp_path):
    out = tmp_path / "cli.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab", "group-info",
         "--config", str(FIXTURES / "group_info_z12.ini"), "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["payload"]["order"] == 12


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ini")),
                         ids=lambda path: path.stem)
def test_fixture_payloads_identical_across_processes(tmp_path, path):
    # string hashing is salted per process; payloads must not depend on it
    kind = load_config(str(path))["kind"]
    reports = []
    # in this process too, where the second run reads the first run's caches
    for _ in range(2):
        report = run_experiment(load_config(str(path)))
        reports.append((report.status, json.dumps(report.payload, sort_keys=True)))
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hash{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "bohrlab", kind, "--config", str(path),
             "--out", str(out), "--format", "json"],
            capture_output=True, text=True, cwd=tmp_path,
            env=_child_env(PYTHONHASHSEED=hash_seed))
        assert proc.returncode in (0, 2), proc.stderr
        doc = json.loads(out.read_text())
        reports.append((doc["status"],
                        json.dumps(doc["payload"], sort_keys=True)))
    assert len(set(reports)) == 1


def test_irreps_payloads_identical_across_blas_thread_counts(tmp_path):
    # a nonabelian decomposition and its residual sweeps run at one BLAS
    # thread whatever the process runs at (from order 100 up, how BLAS
    # splits the order-n eigh and qr between threads moves their last
    # bits); an abelian group's certificates use no BLAS at any order
    configs = [{"kind": "irreps", "group": group}
               for group in ("sym:4", "dihedral:12", "alt:5", "dihedral:30",
                             "zmod:129", "zmod:317", "dihedral:50", "sym:5",
                             "product:sym:4,zmod:8")]
    configs += [{"kind": "bohr", "group": "dihedral:50", "summands": "1,5,20",
                 "delta": "0.9", "nm": "true"},
                {"kind": "regularity", "group": "dihedral:50",
                 "function": "random-pm1", "epsilon": "0.1",
                 "zeta": "const:0.000001", "max_summands": "1",
                 "max_candidates": "150", "seed": "1"}]
    code = ("import json, sys\nfrom bohrlab.cli import run_experiment\n"
            "for config in json.loads(sys.argv[1]):\n"
            "    report = run_experiment(config)\n"
            "    print(json.dumps(report.payload, sort_keys=True))\n")
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(configs)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=_child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == len(configs)
    assert outputs[0] == outputs[1]


def test_decomposition_runs_at_one_blas_thread_and_restores_the_count(tmp_path):
    # in a process at two threads: one thread inside every attempt and every
    # matrix sweep, two again after them, also after all six attempts fail
    code = ("import json\nfrom bohrlab import build_group, reps\n"
            "calls = reps._blas_thread_calls()\n"
            "if calls is None:\n"
            "    print('null')\n"
            "    raise SystemExit\n"
            "get, seen = calls[0], []\n"
            "real, sweep = reps._decompose_once, reps._residual_blocks\n"
            "def attempt(group, rng):\n"
            "    seen.append(get())\n"
            "    return real(group, rng)\n"
            "def blocks(rep):\n"
            "    seen.append(get())\n"
            "    return sweep(rep)\n"
            "reps._decompose_once, reps._residual_blocks = attempt, blocks\n"
            "irreps = reps.decompose_regular(build_group('sym:4'))\n"
            "after = [get()]\n"
            "for rep in irreps:\n"
            "    rep.hom_residual\n"
            "after.append(get())\n"
            "def fail(group, rng):\n"
            "    seen.append(get())\n"
            "    raise reps.RepDecompositionError('planted')\n"
            "reps._decompose_once = fail\n"
            "try:\n"
            "    reps.decompose_regular(build_group('sym:3'))\n"
            "except reps.RepDecompositionError:\n"
            "    after.append(get())\n"
            "print(json.dumps([seen, after]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path,
                          env=_child_env(OPENBLAS_NUM_THREADS="2"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result is None:
        pytest.skip("numpy bundles no OpenBLAS with a thread-count setter")
    seen, after = result
    # one attempt and three sweeps above dimension 1, then six failed attempts
    assert seen == [1] * 10
    assert after == [2, 2, 2]


def test_experiments_leave_numpy_ma_unimported(tmp_path):
    # numpy 2's np.unique imports numpy.ma on its first call, about 6 ms of
    # every CLI process; one experiment of every kind must not pay it
    code = ("import json, sys\n"
            "from bohrlab.cli import load_config, run_experiment\n"
            "kinds = set()\n"
            "for path in sys.argv[1:]:\n"
            "    config = load_config(path)\n"
            "    kinds.add(config['kind'])\n"
            "    run_experiment(config)\n"
            "print(json.dumps([sorted(kinds), 'numpy.ma' in sys.modules]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, sorted(FIXTURES.glob("*.ini")))],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [sorted(KINDS), False]


def test_second_zmod101_searches_report_what_a_fresh_process_does(tmp_path):
    # the first searches leave distance rows on the shared zmod:101's
    # characters (and no matrices); the second ones must not see a difference
    configs = [{"kind": "regularity", "group": "zmod:101",
                "function": "random-pm1", "epsilon": "0.1",
                "zeta": "const:0.000001", "max_summands": "1",
                "max_candidates": "150", "seed": "1"},
               {"kind": "bohr", "group": "zmod:101", "summands": "1,2,40",
                "delta": "0.9", "nm": "true"}]
    code = ("import json, sys\nfrom bohrlab.cli import run_experiment\n"
            "for config in json.loads(sys.argv[1]):\n"
            "    report = run_experiment(config)\n"
            "    print(json.dumps([report.status, report.payload], sort_keys=True))\n")

    def run(batch):
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(batch)],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=_child_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    fresh = [line for config in configs for line in run([config])]
    assert run(configs * 2) == fresh * 2


def test_candidate_walk_ends_past_reachable_dimension(tmp_path):
    # Z/12 has twelve 1-dim irreps, so no candidate of at most three
    # summands has dimension above 3; a huge max_dim must end the same walk
    # as max_dim = 8, in a child process that a wall-clock bound can kill
    keys = {"kind": "croot-sisask", "group": "zmod:12", "set_a": "random:0.5",
            "epsilon": "0.01", "min_size": "12", "seed": "1"}
    small = run_experiment({**keys, "max_dim": "8"})
    assert small.status == "none-within-budget"
    cfg = _write_config(tmp_path / "c.ini", {**keys, "max_dim": str(10**6)})
    out = tmp_path / "o.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bohrlab", "croot-sisask", "--config", str(cfg),
         "--out", str(out)],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        timeout=30)
    assert proc.returncode == 2, proc.stderr
    payload = json.loads(out.read_text())["payload"]
    assert payload == small.payload


def _optional_keys(kind):
    keys = {**COMMON, **KINDS[kind][1]}
    # kind, out and format are read by main; out would redirect the report
    return sorted(k for k, d in keys.items() if not isinstance(d, type)
                  and k not in ("out", "format"))


def _main_error(tmp_path, capsys, kind, config, *flags):
    """Run main on a written config; return its one stderr line."""
    cfg = _write_config(tmp_path / "c.ini", config)
    out = tmp_path / "o.json"
    code = main([kind, "--config", str(cfg), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 1 and not out.exists(), err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ini")),
                         ids=lambda path: path.stem)
def test_misspelled_optional_keys_error(tmp_path, capsys, path):
    # an unknown key would silently run a different experiment
    base = load_config(str(path))
    for key in _optional_keys(base["kind"]):
        typo = key + key[-1]
        config = {k: v for k, v in base.items() if k != key}
        config[typo] = base.get(key, "1")
        err = _main_error(tmp_path, capsys, base["kind"], config)
        assert f"unknown config key {typo!r}" in err, err
        assert f"nearest known key {key!r}" in err, err


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.ini")),
                         ids=lambda path: path.stem)
def test_non_numeric_values_name_their_key(tmp_path, capsys, path):
    base = load_config(str(path))
    keys = {**COMMON, **KINDS[base["kind"]][1]}
    typed = [k for k, d in keys.items() if str not in (d, type(d))]
    assert typed
    for key in typed:
        err = _main_error(tmp_path, capsys, base["kind"], {**base, key: "abc"})
        assert err.startswith(f"error: config key {key!r}: "), err


@pytest.mark.parametrize("value", ["yes", "1", "on", ""])
def test_nm_accepts_only_true_or_false(tmp_path, capsys, value):
    base = load_config(str(FIXTURES / "bohr_z12.ini"))
    err = _main_error(tmp_path, capsys, "bohr", {**base, "nm": value})
    assert err == f"error: config key 'nm': expected true or false, got {value!r}\n"


def test_nm_is_case_insensitive():
    for value in ("TRUE", "True", "false", "FALSE"):
        report = _run("bohr_z12.ini", nm=value)
        assert ("nm" in report.payload) == (value.lower() == "true")


@pytest.mark.parametrize("kind", [k for k, (_, keys) in KINDS.items()
                                  if not {"budget", "max_candidates"} & set(keys)])
def test_budget_flag_on_kind_without_budget_errors(tmp_path, capsys, kind):
    path = next(p for p in FIXTURES.glob("*.ini")
                if load_config(str(p))["kind"] == kind)
    err = _main_error(tmp_path, capsys, kind, load_config(str(path)),
                      "--budget", "5")
    assert err == f"error: --budget does not apply to kind {kind!r}\n"


@pytest.mark.parametrize("name, key", [
    ("ladder_z4.ini", "budget"), ("regularity_zpz.ini", "max_candidates"),
    ("bogolyubov_z200.ini", "max_candidates"), ("two_set_z12.ini", "max_candidates"),
    ("croot_sisask_z101.ini", "max_candidates")])
def test_budget_flag_sets_the_declared_budget(tmp_path, name, key):
    out = tmp_path / "o.json"
    kind = load_config(str(FIXTURES / name))["kind"]
    code = main([kind, "--config", str(FIXTURES / name), "--out", str(out),
                 "--budget", "1"])
    doc = json.loads(out.read_text())
    assert doc["config"][key] == "1"
    assert doc["payload"].get("nodes", doc["payload"].get("candidates_scored")) <= 1
    assert code in (0, 2)
