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


def test_irreps_bound_the_residual_above_order_316():
    # the measured residual up to order 316, the certified bound above it;
    # neither is a sampled estimate
    for n, key, other in ((316, "max_hom_residual", "max_hom_residual_bound"),
                          (317, "max_hom_residual_bound", "max_hom_residual")):
        payload = run_experiment({"kind": "irreps", "group": f"zmod:{n}"}).payload
        assert payload[key] <= 1e-10 and other not in payload


def test_bohr_payload():
    report = _run("bohr_z12.ini")
    assert report.status == "ok"
    assert report.payload["spec"]["realized_members"] == [0, 1, 11]
    assert report.payload["cover_count"] == 4
    assert report.payload["nm"] == {"m": 1, "size": 3, "cover_bound": 7,
                                    "cover_actual": 4, "bound_ok": True}


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
    from bohrlab.groups import build_group, format_cayley_table

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
    from bohrlab.groups import format_cayley_table, format_subset
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
    from bohrlab.groups import format_cayley_table, format_function, format_subset
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
