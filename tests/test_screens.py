"""The Bohr searches' span screens, checked row by row and search by search.

Every search hands ``bohr.first_accepted`` a screen that drops, a span of
candidates at a time, candidates its ``accept`` rejects. These tests call
``accept`` on every dropped row, ask every screen again once its search
has ended, and compare each search with a loop that calls ``accept`` on
every candidate of the walk, kept here as the reference.
"""

import math

import numpy as np
import pytest

from bohrlab import (BohrSpec, FiniteGroup, GroupFunction, SearchSpace, ZetaRule,
                     bogolyubov_search, build_group, four_product_bohr,
                     search_regular_bohr, shift_invariance_search,
                     two_set_bogolyubov)
from bohrlab import bohr, cli, productsets, regularity
from bohrlab.bohr import SearchResult, enumerate_bohr_candidates
from bohrlab.cli import main
from bohrlab.convolve import _lp, overlap_function
from bohrlab.gen import (random_pm1_function, random_subset,
                         random_subset_of_size, rng_from_seed)

from test_cli import _write_config

GROUPS = ["zmod:101", "zmod:200", "dihedral:12", "dihedral:30", "sym:4", "alt:5"]
SPACE = SearchSpace(max_candidates=300)
# tiny below n = 8 and overflowing there at delta 2: the rows whose zeta
# raises go to accept, which raises in order
RAISING = ZetaRule.power(1e-300, 1e-5)


def _reference_first_accepted(group, space, accept, screen):
    """first_accepted as the per-candidate loop over the walk; the screen
    is not called."""
    scored = 0
    for scored, spec in enumerate(enumerate_bohr_candidates(group, space), 1):
        if len(spec.realized) == 0:
            continue
        found = accept(spec)
        if found is not None:
            return SearchResult("ok", spec, found, scored)
    return SearchResult("none-within-budget", None, None, scored)


def _searches(desc, seed):
    """(name, search) for every first_accepted caller, on random functions
    and sets of ``desc``."""
    g = build_group(desc)
    rng = rng_from_seed(seed)
    n = g.order
    noise = random_pm1_function(g, rng)
    overlap = overlap_function(random_subset(g, 0.5, rng))
    only_2 = SearchSpace(delta_grid=(2.0,), max_candidates=300)
    out = []
    for name, f in (("noise", noise), ("overlap", overlap)):
        for zeta in (ZetaRule.constant(1e-6), ZetaRule.constant(1e-3),
                     ZetaRule.constant(0.05), ZetaRule.power(0.5, 2.0)):
            out.append((f"regularity {name} {zeta.describe()}",
                        lambda f=f, zeta=zeta: search_regular_bohr(f, 0.1, zeta, SPACE)))
        out.append((f"regularity {name} raising", lambda f=f: search_regular_bohr(
            f, 0.1, RAISING, only_2)))
        # below WINDOW_GUARD only one-element sets fit
        out.append((f"regularity {name} eps 1e-13", lambda f=f: search_regular_bohr(
            f, 1e-13, ZetaRule.constant(1e-6), SPACE)))
        # eps at quantiles of the shift norms, so that some shifts reach it
        norms = [_lp(f.values[g.table[t]] - f.values, 2) for t in range(1, n)]
        for q, min_size in ((0.1, 1), (0.3, 1), (0.5, 3)):
            eps = float(np.quantile(norms, q))
            out.append((f"croot-sisask {name} {q} {min_size}",
                        lambda f=f, eps=eps, m=min_size: shift_invariance_search(
                            f, 2, eps, SPACE, min_size=m)))
    # dense sets have product sets of all of G, sets of three elements have
    # small ones, so their searches reject most candidates
    for size in (math.ceil(0.5 * n), 3):
        a, b, c = (random_subset_of_size(g, size, rng) for _ in range(3))
        alpha = (size - 0.5) / n
        out += [
            (f"bogolyubov {size}", lambda a=a, alpha=alpha: bogolyubov_search(
                a, alpha, SPACE)),
            (f"two-set {size}", lambda b=b, c=c, alpha=alpha: two_set_bogolyubov(
                b, c, alpha, ZetaRule.constant(0.05), SPACE)),
            (f"two-set {size} raising", lambda b=b, c=c, alpha=alpha:
             two_set_bogolyubov(b, c, alpha, RAISING, only_2)),
            (f"four-product {size}", lambda a=a, alpha=alpha: four_product_bohr(
                a, alpha, SPACE)),
        ]
    return out


def _outcome(search):
    """A search's result in comparable form, or the error it raised."""
    try:
        res = search()
    except ValueError as exc:
        return "raised", str(exc)
    found = res.found
    if isinstance(found, tuple) and all(isinstance(s, BohrSpec) for s in found):
        found = [s.to_json_dict() for s in found]
    elif hasattr(found, "to_json_dict"):
        found = found.to_json_dict()
    return (res.status, res.candidates_scored,
            res.spec and res.spec.to_json_dict(), found)


def _searching_with(monkeypatch, first_accepted):
    for module in (regularity, productsets):
        monkeypatch.setattr(module, "first_accepted", first_accepted)


@pytest.mark.parametrize("desc", GROUPS)
def test_screens_drop_only_rows_accept_rejects(desc, monkeypatch):
    dropped = {}

    def checked(group, space, accept, screen):
        def check(span):
            keep = screen(span)
            for i in np.flatnonzero(~keep & (span.sizes > 0)).tolist():
                assert accept(span.spec(i)) is None, (name, i)
                dropped[name] = dropped.get(name, 0) + 1
            return keep
        return bohr.first_accepted(group, space, accept, check)

    _searching_with(monkeypatch, checked)
    outcomes = set()
    for seed in (1, 2):
        for name, search in _searches(desc, seed):
            outcomes.add(_outcome(search)[0])
    # the screen of every kind of search drops rows on some of these
    assert {name.split()[0] for name in dropped} == {
        "regularity", "croot-sisask", "bogolyubov", "two-set", "four-product"}
    assert {"ok", "none-within-budget"} <= outcomes


@pytest.mark.parametrize("desc", GROUPS)
def test_screened_searches_match_the_per_candidate_loop(desc, monkeypatch):
    searches = _searches(desc, 3)
    screened = [_outcome(search) for _, search in searches]
    _searching_with(monkeypatch, _reference_first_accepted)
    reference = [_outcome(search) for _, search in searches]
    for (name, _), got, want in zip(searches, screened, reference):
        assert got == want, name
    assert {o[0] for o in reference} >= {"ok", "none-within-budget"}


@pytest.mark.parametrize("desc", ["zmod:101", "dihedral:30", "alt:5"])
def test_screens_read_nothing_the_walk_writes(desc, monkeypatch):
    # a screen asked again once its search has ended gives each span the
    # mask it gave during the walk, so where spans end changes no mask
    seen = []

    def recording(group, space, accept, screen):
        def record(span):
            keep = screen(span)
            seen.append((screen, span, keep.copy()))
            return keep
        return bohr.first_accepted(group, space, accept, record)

    _searching_with(monkeypatch, recording)
    names = set()
    for seed in (1, 2):
        for name, search in _searches(desc, seed):
            seen.clear()
            _outcome(search)
            for screen, span, keep in seen:
                assert np.array_equal(screen(span), keep), name
            names.add(name.split()[0])
    assert names == {"regularity", "croot-sisask", "bogolyubov", "two-set",
                     "four-product"}


def test_raising_zeta_raises_in_order():
    # on sym:4 the walk first reaches n = 8, where RAISING overflows, after
    # rows the regularity screen drops
    noise = random_pm1_function(build_group("sym:4"), rng_from_seed(1))
    with pytest.raises(ValueError, match="overflows at delta 2.0, n 8"):
        search_regular_bohr(noise, 0.1, RAISING,
                            SearchSpace(delta_grid=(2.0,), max_candidates=300))


def test_builds_specs_only_for_rows_the_screen_keeps(monkeypatch):
    g = FiniteGroup(build_group("zmod:101").table, "zmod:101")
    space = SearchSpace(max_summands=1, max_candidates=150)
    # the rows the screen keeps, and every CandidateSpan.spec call
    kept, built = set(), []
    real_spec = bohr.CandidateSpan.spec

    def spec(span, i):
        built.append((span, i))
        return real_spec(span, i)

    def recording(group, space, accept, screen):
        def record(span):
            keep = screen(span)
            nonempty = keep & (span.sizes > 0)
            kept.update((span, i) for i in np.flatnonzero(nonempty).tolist())
            return keep
        return bohr.first_accepted(group, space, accept, record)

    monkeypatch.setattr(bohr.CandidateSpan, "spec", spec)
    monkeypatch.setattr(regularity, "first_accepted", recording)
    # f is constant off three elements: the screen keeps the sets that miss
    # them, and accept rejects those too, as some translate meets them
    values = np.zeros(g.order)
    values[[1, 40, 77]] = 1.0
    res = search_regular_bohr(GroupFunction(g, values), 0.5,
                              ZetaRule.constant(1e-6), space)
    assert res.status == "none-within-budget" and res.candidates_scored == 150
    assert set(built) == kept and len(built) == len(kept)  # once each
    assert 0 < len(kept) < 150 // 4


# zeta rules that overflow at the two larger radii of a grid but not at the
# smallest, at level n: n = 8 on sym:4 (one combo, 2 + 3 + 3) and n = 3 on
# zmod:12 (220 combos), each level walked as one span of its three rounds
MERGED_RAISING = {
    "sym:4": ("power:1e-300,2.85e-05", "2.0,1.95,1.8", 8),
    "zmod:12": ("power:1e-300,1e-34", "2.0,1.9,1.5", 3),
}


@pytest.mark.parametrize("kind, keys", [
    ("regularity", {"function": "random-uniform", "epsilon": "0.1"}),
    # AB is one element, so no set of two or more has a translate inside it
    ("two-set", {"set_a": "random_size:1", "set_b": "random_size:1",
                 "alpha": "0.04"}),
], ids=["regularity", "two-set"])
@pytest.mark.parametrize("desc", sorted(MERGED_RAISING))
def test_zeta_raising_inside_a_merged_span(desc, kind, keys, tmp_path, capsys,
                                           monkeypatch):
    rule, grid, n = MERGED_RAISING[desc]
    config = {"kind": kind, "group": desc, "seed": "1", "zeta": rule,
              "delta_grid": grid, **keys}
    message = f"zeta rule {rule} overflows at delta 2.0, n {n}"
    cfg = _write_config(tmp_path / "c.ini", config)
    out = tmp_path / "o.json"
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()

    def raised_at(first_accepted):
        """The error and the candidate accept raised it at, and the last
        span screened."""
        seen = {}

        def recording(group, space, accept, screen):
            def record_accept(spec):
                seen["spec"] = spec.to_json_dict()
                return accept(spec)

            def record_screen(span):
                seen["span"] = span
                return screen(span)
            return first_accepted(group, space, record_accept, record_screen)

        _searching_with(monkeypatch, recording)
        with pytest.raises(ValueError) as exc:
            cli.run_experiment(config)
        return str(exc.value), seen["spec"], seen.get("span")

    got, spec, span = raised_at(bohr.first_accepted)
    want, ref_spec, _ = raised_at(_reference_first_accepted)
    assert got == want == message
    assert spec == ref_spec and spec["delta"] == 2.0
    # the span that raised holds the level's three rounds, and zeta raises
    # at two of its radii only
    zeta = ZetaRule.parse(rule)
    radii = sorted(set(span.radii.tolist()), reverse=True)
    assert span.dim == n and radii == [float(d) for d in grid.split(",")]
    assert len(span) == 3 * len(span.combos)
    for delta in radii[:2]:
        with pytest.raises(ValueError, match="overflows"):
            zeta.value(delta, n)
    assert math.isfinite(zeta.value(radii[2], n))
