import functools
import hashlib
import itertools
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import (BohrSpec, GroupFunction, SearchSpace, Subset, UnitaryRep,
                     ZetaRule, abelian_characters, bohr_set, build_group,
                     convolve, enumerate_bohr_candidates,
                     largest_eps_constant_subset, overlap_function, regularity,
                     search_regular_bohr, subgroup_obstruction_check,
                     translate_defect)
from bohrlab import groups, irreps_of, ladder_index, measure_hom_residual
from bohrlab.bohr import first_accepted
from bohrlab.cli import load_config, run_experiment
from bohrlab.gen import random_pm1_function, random_subset, rng_from_seed
from bohrlab.groups import catalog_descriptors
from bohrlab.regularity import TranslateDefect, _all_subgroups

from conftest import pass_all

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(scope="module")
def zpz_fixture(z101):
    a = Subset.from_indices(z101, range(51))
    return overlap_function(a)


def test_window_constant(z12):
    f = GroupFunction.constant(z12, 0.7)
    b = Subset.from_indices(z12, [1, 4, 7])
    assert largest_eps_constant_subset(f, b, 0.2) == b


def test_window_z4_values(z4):
    f = GroupFunction(z4, [0.5, 0.25, 0.0, 0.25])
    full = Subset.full(z4)
    sub = largest_eps_constant_subset(f, full, 0.3)
    assert sorted(sub.indices) == [1, 2, 3]
    assert largest_eps_constant_subset(f, full, 0.6) == full


def test_window_empty(z4):
    f = GroupFunction.constant(z4, 0.0)
    assert len(largest_eps_constant_subset(f, Subset.empty(z4), 0.5)) == 0


def _brute_force_window(f, b, eps):
    best = 0
    idx = list(b.indices)
    for r in range(1, len(idx) + 1):
        for combo in itertools.combinations(idx, r):
            vals = f.values[list(combo)]
            if vals.max() - vals.min() < eps - 1e-12:
                best = max(best, r)
    return best


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                min_size=8, max_size=8),
       st.sampled_from([0.15, 0.4, 0.9]))
def test_window_exact_against_brute_force(vals, eps):
    g = build_group("zmod:8")
    f = GroupFunction(g, vals)
    b = Subset.full(g)
    ours = largest_eps_constant_subset(f, b, eps)
    assert len(ours) == _brute_force_window(f, b, eps)
    on = f.values[ours.indices]
    assert on.max() - on.min() < eps


def test_translate_defect_constant(z12):
    f = GroupFunction.constant(z12, 0.1)
    spec = bohr_set(z12, abelian_characters(z12)[1], 1.0)
    cert = translate_defect(f, spec, 0.05)
    assert cert.max_defect == 0.0


def test_translate_defect_zpz_interval(z101, zpz_fixture):
    # chi_1 at delta = 0.15 realizes the interval {-2..2}
    spec = bohr_set(z101, abelian_characters(z101)[1], 0.15)
    assert sorted(spec.realized.indices) == [0, 1, 2, 99, 100]
    cert = translate_defect(zpz_fixture, spec, 0.1)
    assert cert.max_defect == 0.0
    assert len(cert.per_translate) == 101


def test_translate_defect_full_group_positive(z101, zpz_fixture):
    spec = bohr_set(z101, abelian_characters(z101)[0], 2.0)
    cert = translate_defect(zpz_fixture, spec, 0.1)
    # independent defect computation: best window over sorted values
    vals = np.sort(zpz_fixture.values)
    best = 0
    for i in range(len(vals)):
        j = i
        while j < len(vals) and vals[j] - vals[i] < 0.1 - 1e-12:
            j += 1
        best = max(best, j - i)
    expected = 1.0 - best / 101
    assert cert.max_defect == pytest.approx(expected)
    assert cert.max_defect > 0


def test_certificate_revalidates(z101, zpz_fixture):
    spec = bohr_set(z101, abelian_characters(z101)[1], 0.25)
    cert = translate_defect(zpz_fixture, spec, 0.1)
    for entry in cert.per_translate:
        vals = zpz_fixture.values[list(entry.subset_indices)]
        assert vals.max() - vals.min() < 0.1
        assert entry.value_range == pytest.approx(float(vals.max() - vals.min()))


def test_defect_monotone_in_eps(z101, zpz_fixture):
    spec = bohr_set(z101, abelian_characters(z101)[1], 0.5)
    defects = [translate_defect(zpz_fixture, spec, e).max_defect
               for e in (0.05, 0.1, 0.2, 0.4)]
    assert all(defects[i] >= defects[i + 1] for i in range(len(defects) - 1))


def test_search_constant_accepts_trivial(z12):
    f = GroupFunction.constant(z12, 0.4)
    res = search_regular_bohr(f, 0.1, ZetaRule.constant(0.001))
    assert res.status == "ok"
    cert = res.found
    assert cert.spec.delta == 2.0
    assert cert.spec.tau.label == "chi0"
    assert len(cert.spec.realized) == 12
    assert cert.max_defect == 0.0


def test_search_zpz_finds_interval_certificate(z101, zpz_fixture):
    res = search_regular_bohr(zpz_fixture, 0.1, ZetaRule.constant(0.001))
    assert res.status == "ok"
    cert = res.found
    assert cert.max_defect == 0.0
    assert cert.spec.kind == "torus"  # abelian: direct sums of characters
    # realized set is a cyclic interval around 0
    members = sorted(int(i) for i in cert.spec.realized.indices)
    radius = (len(members) - 1) // 2
    assert members == sorted(x % 101 for x in range(-radius, radius + 1))
    assert cert.zeta_budget == pytest.approx(0.001)


def test_search_noise_none_within_budget(z101):
    f = random_pm1_function(z101, rng_from_seed(1))
    space = SearchSpace(max_summands=1, max_candidates=150)
    res = search_regular_bohr(f, 0.1, ZetaRule.constant(1e-6), space)
    assert res.status == "none-within-budget"
    assert res.found is None
    assert res.candidates_scored == 150


def test_zeta_rules():
    const = ZetaRule.constant(0.25)
    assert const.value(1.0, 3) == 0.25
    power = ZetaRule.power(0.1, 2.0)
    assert power.value(1.0, 2) == pytest.approx(0.1 * (1 / 2) ** 4)
    assert power.value(2.0, 1) == pytest.approx(0.1)
    assert ZetaRule.parse("const:0.25").value(1, 1) == 0.25
    assert ZetaRule.parse("power:0.1,2.0").params == (0.1, 2.0)
    with pytest.raises(ValueError):
        ZetaRule.constant(-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            ZetaRule.constant(bad)
        with pytest.raises(ValueError, match="positive and finite"):
            ZetaRule.power(bad, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            ZetaRule.power(0.1, bad)
    round_trip = ZetaRule.parse(power.describe())
    assert round_trip == power
    # the power form past the float range, by pow and by the product
    for rule, delta, n in ((power, 1e300, 2), (ZetaRule.power(1e308, 1.0), 2.0, 2)):
        message = f"overflows at delta {delta!r}, n {n}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rule.value(delta, n)


@pytest.mark.parametrize("text", ["power:1", "power:1,2,3", "power:",
                                  "power:a,1", "const:x", "const:1,2"])
def test_zeta_parse_error_names_the_rule(text):
    message = f"cannot parse zeta rule {text!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ZetaRule.parse(text)


# Known subgroup counts; Z/n has tau(n) subgroups and the dihedral group of
# order 2n has tau(n) + sigma(n) (tau counts divisors, sigma sums them)
SUBGROUP_COUNTS = {
    "sym:3": 6, "sym:4": 30, "alt:4": 10, "alt:5": 59, "quaternion:8": 6,
    "product:zmod:2,zmod:2": 5, "product:zmod:2,zmod:4": 8,
    "product:zmod:2,zmod:2,zmod:2": 16, "product:zmod:3,zmod:3": 6,
    "product:zmod:4,zmod:4": 15,
}


def _expected_subgroup_count(desc):
    head, _, rest = desc.partition(":")
    if head not in ("zmod", "dihedral"):
        return SUBGROUP_COUNTS[desc]
    n = int(rest)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors) + (sum(divisors) if head == "dihedral" else 0)


@pytest.mark.parametrize("desc", catalog_descriptors(60))
def test_all_subgroups_counts_and_closure(desc):
    g = build_group(desc)
    subgroups = _all_subgroups(g)
    assert len(subgroups) == len(set(subgroups)) == _expected_subgroup_count(desc)
    for h in subgroups:
        assert g.identity in h
        assert all(g.mul(a, b) in h for a in h for b in h)


def test_obstruction_prime_cyclic(z101, zpz_fixture):
    report = subgroup_obstruction_check(zpz_fixture, 0.1, index_cap=10)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.index == 1
    assert row.max_defect > 0
    assert not row.passes


def test_obstruction_constant_passes_everything(z12):
    f = GroupFunction.constant(z12, 0.0)
    report = subgroup_obstruction_check(f, 0.1, index_cap=12)
    assert len(report.rows) >= 6  # subgroup per divisor of 12
    assert all(row.passes for row in report.rows)


def test_obstruction_kernel_convolution(klein8):
    chars = abelian_characters(klein8)
    nontrivial = next(c for c in chars if np.max(np.abs(c.character() - 1)) > 1e-6)
    kernel = Subset(klein8, np.abs(nontrivial.character() - 1) < 1e-9)
    ind = GroupFunction.indicator(kernel)
    f = convolve(ind, ind)
    report = subgroup_obstruction_check(f, 0.1, index_cap=2)
    kernel_row = next(r for r in report.rows
                      if set(r.members) == {int(i) for i in kernel.indices})
    assert kernel_row.max_defect == 0.0
    assert kernel_row.passes


def test_certificate_json(z101, zpz_fixture):
    res = search_regular_bohr(zpz_fixture, 0.1, ZetaRule.constant(0.001))
    doc = res.found.to_json_dict()
    assert set(doc) == {"bohr_spec", "epsilon", "zeta_value", "max_defect",
                        "per_translate"}
    assert doc["max_defect"] == 0.0
    assert all(set(row) == {"rep_element", "defect", "range"}
               for row in doc["per_translate"])


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.1])
def test_bad_eps_rejected(z12, eps):
    f = random_pm1_function(z12, rng_from_seed(3))
    spec = bohr_set(z12, abelian_characters(z12)[1], 1.0)
    calls = [
        lambda: largest_eps_constant_subset(f, spec.realized, eps),
        lambda: translate_defect(f, spec, eps),
        lambda: search_regular_bohr(f, eps, ZetaRule.constant(0.5)),
        lambda: subgroup_obstruction_check(f, eps, index_cap=12),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            call()


def _python_translates(group, members):
    """(g, gS) for each distinct left translate, g the first to give it."""
    seen, out = set(), []
    for g in group.elements():
        t = frozenset(group.mul(g, s) for s in members)
        if t not in seen:
            seen.add(t)
            out.append((g, t))
    return out


def _reference_defect(f, g, translate, eps):
    block = Subset.from_indices(f.group, translate)
    sub = largest_eps_constant_subset(f, block, eps)
    on = f.values[sub.indices]
    return TranslateDefect(rep_element=g,
                           defect=block.measure - sub.measure,
                           value_range=float(on.max() - on.min()),
                           subset_indices=tuple(int(i) for i in sub.indices))


@functools.lru_cache(maxsize=None)
def _group_with_trivial_rep(descriptor):
    grp = build_group(descriptor)
    return grp, UnitaryRep(grp, np.ones((grp.order, 1, 1)), label="chi0")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zmod:8", "zmod:12", "dihedral:6", "sym:4"]),
       st.data(), st.sampled_from([0.25, 0.3, 0.5, 1.0]))
def test_translate_kernel_matches_scalar_windows(descriptor, data, eps):
    # values on a quarter grid, so that ties and gaps of exactly eps occur,
    # plus the guarded threshold, so that a gap equal to it occurs as well
    grp, trivial = _group_with_trivial_rep(descriptor)
    n = grp.order
    grid = [k / 4 for k in range(-4, 5)] + [eps - regularity.WINDOW_GUARD]
    values = data.draw(st.lists(st.sampled_from(grid), min_size=n, max_size=n))
    f = GroupFunction(grp, values)
    members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    spec = BohrSpec(tau=trivial, delta=1.0, kind="torus",
                    realized=Subset.from_indices(grp, members))
    cert = translate_defect(f, spec, eps)
    expected = tuple(_reference_defect(f, g, t, eps)
                     for g, t in _python_translates(grp, members))
    assert cert.per_translate == expected
    assert cert.max_defect == max(e.defect for e in expected)

    zeta = data.draw(st.sampled_from([0.05, 0.2]))
    for row in subgroup_obstruction_check(f, eps, index_cap=n, zeta=zeta).rows:
        worst = max(_reference_defect(f, g, t, eps).defect
                    for g, t in _python_translates(grp, row.members))
        assert row.max_defect == worst
        assert row.passes == (worst <= zeta)


def _bits(entry):
    return (entry.rep_element, repr(entry.defect), repr(entry.value_range),
            entry.subset_indices)


@pytest.mark.parametrize("descriptor", ["dihedral:30", "alt:5", "sym:4", "zmod:101"])
def test_translate_defect_matches_scalar_windows_bitwise(descriptor):
    # values on a grid of eighths, so windows tie and values sit exactly
    # 0.25 apart, the gap the first eps guards; zeros of both signs are the
    # commonest value, so the 0.1 windows are often zeros alone
    grp, trivial = _group_with_trivial_rep(descriptor)
    rng = np.random.default_rng(23)
    grid = [-0.5, -0.25, -0.0, -0.0, 0.0, 0.0, 0.125, 0.25, 0.75]
    f = GroupFunction(grp, rng.choice(grid, size=grp.order))
    signed_zero_windows = 0
    for eps in (0.25 + regularity.WINDOW_GUARD, 0.1, 1e-13):
        for size in (1, 4, grp.order // 3, grp.order - 1):
            members = rng.choice(grp.order, size=size, replace=False)
            spec = BohrSpec(tau=trivial, delta=1.0, kind="torus",
                            realized=Subset.from_indices(grp, members))
            cert = translate_defect(f, spec, eps)
            expected = [_reference_defect(f, g, t, eps)
                        for g, t in _python_translates(grp, members)]
            assert list(map(_bits, cert.per_translate)) == list(map(_bits, expected))
            signed_zero_windows += sum(
                len(set(np.signbit(f.values[list(e.subset_indices)]))) == 2
                and e.value_range == 0.0 for e in expected)
    assert signed_zero_windows > 0


def _windows_bitwise(f, members, eps, monkeypatch):
    """translate_defect of f on S at eps, checked bitwise against the scalar
    window of every translate and, block by block, against the kernel that
    sorts every translate by value and searches its window; returns how
    many blocks took that search, and of how many."""
    grp, trivial = _group_with_trivial_rep(f.group.descriptor)
    spec = BohrSpec(tau=trivial, delta=1.0, kind="torus",
                    realized=Subset.from_indices(grp, members))
    cert = translate_defect(f, spec, eps)
    expected = [_reference_defect(f, g, t, eps)
                for g, t in _python_translates(grp, members)]
    assert list(map(_bits, cert.per_translate)) == list(map(_bits, expected))
    searched = []
    real = regularity._longest_windows

    def counting(svals, thr):
        searched.append(len(svals))
        return real(svals, thr)
    monkeypatch.setattr(regularity, "_longest_windows", counting)
    blocks = list(regularity._translate_windows(f, spec.realized, eps))
    monkeypatch.setattr(regularity, "_longest_windows", real)
    idx, n = spec.realized.indices, grp.order
    for g, window, length, ranges in blocks:
        rows = np.sort(grp.table[np.ix_(g, idx)], axis=1)
        vals = f.values[rows]
        order = np.argsort(vals, axis=1, kind="stable")
        by_value = np.take_along_axis(rows, order, axis=1)
        svals = np.take_along_axis(vals, order, axis=1)
        lo, want = real(svals, eps - regularity.WINDOW_GUARD)
        k = np.arange(g.size)
        assert length.dtype == want.dtype and np.array_equal(length, want)
        assert ranges.dtype == svals.dtype and ranges.tobytes() == (
            svals[k, lo + want - 1] - svals[k, lo] + 0.0).tobytes()
        assert window.tolist() == [
            sorted(row[a:a + m]) + [n] * (idx.size - m)
            for row, a, m in zip(by_value.tolist(), lo.tolist(), want.tolist())]
    return len(searched), len(blocks)


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize("descriptor", ["dihedral:30", "alt:5", "sym:4", "zmod:101"])
def test_whole_windows_match_the_window_search_bitwise(descriptor, block_rows,
                                                       monkeypatch):
    # f is mid everywhere but top at x and 0 at y, both in the translate
    # g0 S. With top one ulp below thr every translate fits whole and no
    # block is searched; with top at thr, the translates holding both x and
    # y miss it by one ulp and their blocks are searched. Zeros of both
    # signs fit whole, with range 0.0. Below WINDOW_GUARD, thr <= 0, every
    # block is searched, constant f too.
    grp, _ = _group_with_trivial_rep(descriptor)
    rng = np.random.default_rng(44)
    eps = 0.1
    thr = eps - regularity.WINDOW_GUARD
    members = rng.choice(grp.order, size=grp.order // 4, replace=False)
    g0 = int(rng.integers(grp.order))
    x, y = grp.table[g0, members[:2]].tolist()
    if block_rows:  # blocks of three translates
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block_rows * len(members))
    for top, searched in ((np.nextafter(thr, 0.0), False), (thr, True)):
        values = np.full(grp.order, thr / 2)
        values[[x, y]] = top, 0.0
        assert (top - 0.0 < thr) != searched and top - thr / 2 < thr
        blocks, total = _windows_bitwise(GroupFunction(grp, values), members,
                                         eps, monkeypatch)
        assert (blocks > 0) == searched
        # in blocks of three, the translates that fit are not searched
        assert blocks < total or not block_rows
    zeros = GroupFunction(grp, rng.choice([-0.0, 0.0], size=grp.order))
    assert _windows_bitwise(zeros, members, eps, monkeypatch)[0] == 0
    constant = GroupFunction.constant(grp, 0.0)
    for tiny in (1e-13, regularity.WINDOW_GUARD):
        assert tiny - regularity.WINDOW_GUARD <= 0
        blocks, total = _windows_bitwise(constant, members, tiny, monkeypatch)
        assert blocks == total


def test_search_scores_each_realized_set_once(z101, monkeypatch):
    f = random_pm1_function(z101, rng_from_seed(1))
    space = SearchSpace(max_summands=1, max_candidates=150)
    distinct = {spec.realized.mask.tobytes()
                for spec in enumerate_bohr_candidates(z101, space)
                if len(spec.realized)}
    screened, kernel = [], []

    def counting(name, calls):
        wrapped = getattr(regularity, name)

        def call(f, subset, eps, *allowance):
            calls.append(subset.mask.tobytes())
            return wrapped(f, subset, eps, *allowance)
        monkeypatch.setattr(regularity, name, call)

    counting("_defect_within", screened)
    counting("_translate_windows", kernel)
    res = search_regular_bohr(f, 0.1, ZetaRule.constant(1e-6), space)
    assert res.status == "none-within-budget"
    assert res.candidates_scored == 150
    # an allowance below 1/n rejects every set of two or more elements on
    # which f's range reaches eps - WINDOW_GUARD, so the walk's screen drops
    # those and accept screens each other distinct set once
    thr = 0.1 - regularity.WINDOW_GUARD
    kept = {key for key in distinct
            if np.ptp(f.values[np.frombuffer(key, dtype=bool)]) < thr}
    assert len(screened) == len(kept) < len(distinct) < 150
    assert set(screened) == kept
    # and leaves nothing for the kernel to decide
    assert kernel == []

    # an allowance of at least 1/n sends every distinct set to accept, and
    # each is decided there once; the kernel runs only for a certificate
    screened.clear()
    res = search_regular_bohr(f, 0.1, ZetaRule.constant(0.05), space)
    assert res.status == "none-within-budget"
    assert sorted(screened) == sorted(distinct)
    assert kernel == []


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["zmod:8", "zmod:12", "dihedral:6", "sym:4"]), st.data(),
       st.sampled_from([1e-13, regularity.WINDOW_GUARD, 0.25, 0.3, 0.5, 1.0]))
def test_range_screen_is_exact(descriptor, data, eps):
    # the quarter grid of the kernel test, with eps at or below the guard
    # and sets of one element drawn too; values 0 and eps - WINDOW_GUARD
    # alone make every translate's range 0 or exactly the threshold
    grp, _ = _group_with_trivial_rep(descriptor)
    n = grp.order
    grid = data.draw(st.sampled_from([
        [k / 4 for k in range(-4, 5)] + [eps - regularity.WINDOW_GUARD],
        [0.0, eps - regularity.WINDOW_GUARD]]))
    f = GroupFunction(grp, data.draw(st.lists(st.sampled_from(grid),
                                              min_size=n, max_size=n)))
    members = data.draw(st.one_of(st.sets(st.integers(0, n - 1), min_size=1,
                                          max_size=1),
                                  st.sets(st.integers(0, n - 1), min_size=1)))
    subset = Subset.from_indices(grp, members)
    fits = regularity._defect_within(f, subset, eps, 0.0)
    assert fits == all(
        len(t) == 1 or np.ptp(f.values[sorted(t)]) < eps - regularity.WINDOW_GUARD
        for _, t in _python_translates(grp, members))
    worst = regularity._max_defect(f, subset, eps)
    assert fits == (worst == 0.0)
    size = len(members)
    if not fits:
        assert worst >= size / n - (size - 1) / n


@pytest.mark.parametrize("descriptor", ["zmod:101", "dihedral:30", "alt:5"])
def test_screen_agrees_with_python_translates(descriptor):
    # uniform values in [-1, 1): eps 2.5 fits every translate, 0.1 few;
    # the planted set is constant under f, so only its translates can fail
    grp = build_group(descriptor)
    n = grp.order
    rng = np.random.default_rng(11)
    values = rng.uniform(-1.0, 1.0, n)
    planted = rng.choice(n, 4, replace=False)
    values[planted] = 0.3
    f = GroupFunction(grp, values)
    member_sets = [[int(rng.integers(n))], list(range(n)), planted.tolist(),
                   rng.choice(n, 2, replace=False).tolist(),
                   rng.choice(n, 7, replace=False).tolist()]
    own_fits_only = 0
    for members in member_sets:
        subset = Subset.from_indices(grp, members)
        for eps in (0.1, 0.5, 2.5):
            thr = eps - regularity.WINDOW_GUARD
            brute = [len(t) == 1 or np.ptp(f.values[sorted(t)]) < thr
                     for _, t in _python_translates(grp, members)]
            fits = regularity._defect_within(f, subset, eps, 0.0)
            assert fits == all(brute), (members, eps)
            assert fits == (regularity._max_defect(f, subset, eps) == 0.0)
            own = len(members) == 1 or np.ptp(values[members]) < thr
            own_fits_only += own and not fits
    assert own_fits_only > 0


def _unscreened_search(f, eps, zeta, space):
    """search_regular_bohr with the exact max defect of every distinct set
    and no range screen."""
    max_defects = {}

    def accept(spec):
        key = spec.realized.mask.tobytes()
        if key not in max_defects:
            max_defects[key] = regularity._max_defect(f, spec.realized, eps)
        allowance = zeta.value(spec.delta, spec.tau.dim)
        if not max_defects[key] <= allowance:
            return None
        return replace(translate_defect(f, spec, eps), zeta_budget=allowance)

    return first_accepted(f.group, space, accept, pass_all)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["zmod:8", "dihedral:4", "zmod:12", "dihedral:6",
                        "sym:4"]), st.data(), st.sampled_from([0.25, 0.3, 1.0]))
def test_screened_search_matches_unscreened(descriptor, data, eps):
    # allowances on both sides of 1/n, so the kernel decides some candidates;
    # at order 8 the allowance 1/n equals the bound |S|/n - (|S| - 1)/n
    grp = build_group(descriptor)
    n = grp.order
    grid = [k / 4 for k in range(-4, 5)] + [eps - regularity.WINDOW_GUARD]
    f = GroupFunction(grp, data.draw(st.lists(st.sampled_from(grid),
                                              min_size=n, max_size=n)))
    zeta = data.draw(st.sampled_from([
        ZetaRule.constant(1e-6), ZetaRule.constant(0.5 / n),
        ZetaRule.constant(1 / n), ZetaRule.constant(3 / n),
        ZetaRule.constant(0.25), ZetaRule.power(2 / n, 1.0),
        ZetaRule.power(0.5, 2.0)]))
    # short budgets end in none-within-budget, long ones reach an accept
    space = SearchSpace(max_summands=2,
                        max_candidates=data.draw(st.sampled_from([4, 15, 60])))
    res = search_regular_bohr(f, eps, zeta, space)
    ref = _unscreened_search(f, eps, zeta, space)
    cert, scored = ref.found, ref.candidates_scored
    assert res.candidates_scored == scored
    assert res.status == ("ok" if cert else "none-within-budget")
    if cert is not None:
        assert res.found.to_json_dict() == cert.to_json_dict()


def _pilot_ladder(descriptor, seed):
    g = build_group(descriptor)
    rng = rng_from_seed(seed)
    a, b = random_subset(g, 0.3, rng), random_subset(g, 0.3, rng)
    f = convolve(GroupFunction.indicator(a), GroupFunction.indicator(b))
    idx = ladder_index(f, 0.1, cap=8, budget=10_000)
    return idx.k_max, idx.status, idx.nodes, idx.witness.a_seq, idx.witness.b_seq


def test_translate_kernel_blocks_agree(z12, z101, zpz_fixture, monkeypatch):
    # every blocked kernel splits only independent rows, so tiny blocks give
    # the same bits, nodes, witnesses and residuals as the default ones
    spec = bohr_set(z101, abelian_characters(z101)[1], 0.5)
    f12 = random_pm1_function(z12, rng_from_seed(5))
    whole = translate_defect(zpz_fixture, spec, 0.1)
    rows = subgroup_obstruction_check(f12, 0.5, index_cap=12).rows
    ladder = _pilot_ladder("zmod:20", 1003)
    assert ladder == (3, "exact", 27, (0, 16, 0), (2, 11, 11))  # PILOT_PINS
    rep = next(r for r in irreps_of(build_group("dihedral:6")) if r.dim >= 2)
    residual = measure_hom_residual(rep)
    chi = abelian_characters(z101)[1]
    residual_1 = measure_hom_residual(chi)
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 7)
    assert translate_defect(zpz_fixture, spec, 0.1) == whole
    assert subgroup_obstruction_check(f12, 0.5, index_cap=12).rows == rows
    assert _pilot_ladder("zmod:20", 1003) == ladder
    assert measure_hom_residual(rep) == residual
    assert measure_hom_residual(chi) == residual_1


def test_eps_below_window_guard_keeps_single_elements(z12):
    # at eps <= WINDOW_GUARD no two values fit a window, not even equal ones
    f = GroupFunction(z12, [0.5] * 6 + [0.0] * 6)
    b = Subset.from_indices(z12, [2, 3, 7, 9])
    assert list(largest_eps_constant_subset(f, b, 1e-13).indices) == [7]
    spec = BohrSpec(tau=abelian_characters(z12)[0], delta=1.0,
                    kind="torus", realized=b)
    cert = translate_defect(f, spec, 1e-13)
    assert all(len(t.subset_indices) == 1 for t in cert.per_translate)
    assert cert.max_defect == pytest.approx(3 / 12)


def test_translate_defect_rejects_a_spec_on_another_group():
    # a sym:4 spec realizes indices that all exist on zmod:24, a zmod:12 one
    # fewer than f's n; both are rejected before any translate is read
    f = random_pm1_function(build_group("zmod:24"), rng_from_seed(3))
    for descriptor in ("sym:4", "zmod:12"):
        spec = bohr_set(*_group_with_trivial_rep(descriptor), 0.5)
        with pytest.raises(ValueError, match="different groups"):
            translate_defect(f, spec, 0.1)


@pytest.mark.parametrize("descriptor", ["zmod:7", "zmod:101", "zmod:12",
                                        "dihedral:6"])
def test_obstruction_cap_filters_every_subgroup(descriptor):
    # prime orders list G then {e}; the others list _all_subgroups' order;
    # each cap keeps the rows of index at most the cap, G at every cap
    grp = build_group(descriptor)
    n = grp.order
    f = random_pm1_function(grp, rng_from_seed(2))
    full = subgroup_obstruction_check(f, 0.5, index_cap=n).rows
    if n in (7, 101):
        assert [row.index for row in full] == [1, n]
    else:
        assert [set(row.members) for row in full] == _all_subgroups(grp)
    for cap in (1, 2, n, np.int64(2)):
        rows = subgroup_obstruction_check(f, 0.5, index_cap=cap).rows
        assert rows == tuple(row for row in full if row.index <= cap)
        assert 1 in [row.index for row in rows]


def test_obstruction_rejects_bad_caps_and_zetas(z12):
    f = GroupFunction.constant(z12, 0.25)
    for cap in (0, -1, 1.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="index_cap must be an integer >= 1"):
            subgroup_obstruction_check(f, 0.5, index_cap=cap)
    for zeta in (math.nan, -1e-300, -math.inf, math.inf):
        with pytest.raises(ValueError, match="zeta must be nonnegative and finite"):
            subgroup_obstruction_check(f, 0.5, index_cap=2, zeta=zeta)
    # a zeta of 0.0 passes the exact-zero defects of a constant f
    rows = subgroup_obstruction_check(f, 0.5, index_cap=12, zeta=0.0).rows
    assert rows and all(row.max_defect == 0.0 and row.passes for row in rows)


def _allowances_around(defects, floor, n):
    """0.0, the floor, each defect, the floats next to the floor and to each
    defect on both sides, 1/n and infinity."""
    points = {floor, *defects}
    return sorted({0.0, 1 / n, math.inf, *points,
                   *(np.nextafter(p, side) for p in points
                     for side in (-math.inf, math.inf))})


@pytest.mark.parametrize("block_entries", [None, 400])
@pytest.mark.parametrize("descriptor", ["zmod:200", "dihedral:30", "alt:5",
                                        "sym:4", "product:zmod:12,zmod:18"])
def test_defect_decision_matches_the_exact_max(descriptor, block_entries,
                                               monkeypatch):
    # uniform values and quarter values with zeros of both signs; eps 1e-13
    # puts the threshold below 0, where no two values share a window. The
    # planted f is 0.5 but for 1 and 0 on x and y, which the translate by
    # the last element holds: at eps 0.5 the translates holding both are the
    # only ones that fail
    grp = build_group(descriptor)
    n = grp.order
    rng = np.random.default_rng(49)
    if block_entries:  # a few translates per block
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block_entries)
    quarters = [k / 4 for k in range(-4, 5)] + [-0.0]
    functions = [GroupFunction(grp, rng.uniform(-1.0, 1.0, n)),
                 GroupFunction(grp, rng.choice(quarters, n))]
    member_sets = [[int(rng.integers(n))], list(range(n))] + [
        rng.choice(n, size, replace=False).tolist()
        for size in (2, 3, 6, n // 10, n // 3)]
    cases = list(itertools.product(functions, member_sets))
    for members in member_sets[2:5]:
        planted = np.full(n, 0.5)
        planted[grp.table[n - 1, members[:2]]] = 1.0, 0.0
        cases.append((GroupFunction(grp, planted), members))
    outcomes = set()
    for (f, members), eps in itertools.product(cases, (1e-13, 0.1, 0.5)):
        subset = Subset.from_indices(grp, members)
        size = len(subset)
        worst = regularity._max_defect(f, subset, eps)
        defects = {float(d) for _, _, length, _ in
                   regularity._translate_windows(f, subset, eps)
                   for d in size / n - length / n}
        assert worst == max(defects)
        for allowance in _allowances_around(defects, size / n - (size - 1) / n, n):
            within = regularity._defect_within(f, subset, eps, allowance)
            assert within == (worst <= allowance), (members, eps, allowance)
            outcomes.add(within)
    assert outcomes == {True, False}


def test_regularity_zpz_on_zmod_1024_stays_fast(monkeypatch):
    # the fixture's keys on zmod:1024: zeta 0.001 is above 1/n, so the walk's
    # screen keeps the sets that fail on S, and accept decides 1,032 distinct
    # ones; a fresh group cache keeps zmod:1024 from evicting the groups other
    # tests share
    monkeypatch.setattr(groups, "_SHARED", {})
    config = load_config(str(FIXTURES / "regularity_zpz.ini"))
    config["group"] = "zmod:1024"
    start = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - start
    assert report.status == "ok"
    assert report.payload["candidates_scored"] == 3074
    assert hashlib.sha256(report.payload_canonical().encode()).hexdigest() == (
        "a818bbc2a2cfc61bcd113aae2336b3c719b55dd387cb00b86820c5bf07325131")
    assert elapsed < 5.0
