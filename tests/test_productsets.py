import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bohrlab import (GroupFunction, Subset, ZetaRule, bogolyubov_search,
                     build_group, convolve, four_product_bohr, inverse_set,
                     level_set_claim, min_nontrivial_dim, product_set, quasirandom_check, quasirandom_trials,
                     separated_cover, shift_invariance_search,
                     symmetric_covering_check, translate_covering_check,
                     two_set_bogolyubov)
from bohrlab import groups, productsets
from bohrlab.bohr import SearchSpace, first_accepted
from bohrlab.cli import run_experiment
from bohrlab.convolve import _lp
from bohrlab.gen import (evens_subset, random_pm1_function, random_subset,
                         random_subset_of_size, remove_random_points,
                         rng_from_seed)

from conftest import pass_all


def _brute_product(group, a_idx, b_idx):
    return {int(group.table[x, y]) for x in a_idx for y in b_idx}


def test_separated_cover_full_group(z12):
    cov = separated_cover(Subset.full(z12), 1.0)
    assert cov.count == 1
    assert len(cov.s_set) == 12
    assert cov.covers


def test_separated_cover_evens(z12):
    evens = evens_subset(z12)
    cov = separated_cover(evens, 0.5)
    assert cov.count <= 4
    assert evens.is_subset_of(cov.s_set)
    assert cov.covers


def test_separated_cover_random_sweep():
    for desc in ("zmod:30", "dihedral:6", "sym:4"):
        g = build_group(desc)
        for t in range(15):
            rng = rng_from_seed(100 + t)
            a = random_subset(g, 0.45, rng)
            if len(a) / g.order < 0.3:
                continue
            cov = separated_cover(a, 0.3)
            assert cov.covers
            assert cov.count <= np.ceil(2 / 0.3)


def test_separated_cover_precondition(z12):
    with pytest.raises(ValueError):
        separated_cover(Subset.from_indices(z12, [0]), 0.5)


def _fraction_separated_cover(a, alpha):
    """S, F and the threshold of separated_cover, from set intersections
    and one Fraction per comparison; also the counts |A intersect xA|."""
    grp, members = a.group, set(a.indices.tolist())
    n, eps = grp.order, Fraction(alpha) ** 2 / 2
    counts = [len(members & {int(grp.table[x, y]) for y in members})
              for x in range(n)]
    s_set = [x for x in range(n) if Fraction(counts[x], n) > eps]
    f_elems = []
    for g in range(n):
        if all(Fraction(counts[grp.table[grp.inverse[g], h]], n) <= eps
               for h in f_elems):
            f_elems.append(g)
    return s_set, f_elems, float(eps), counts


def test_level_sets_match_fractions_on_the_cut():
    # alpha^2 |G| / 2 = 3 at alpha 0.5 on order 24, so counts of exactly 3
    # sit on the cut, where > and >= part; at alpha 0.3 it is 1.08, where
    # floor and ceil part
    on_cut = {"separated": 0, "level": 0}
    for desc in ("zmod:24", "dihedral:12", "sym:4"):
        g = build_group(desc)
        for t in range(10):
            a = (Subset.from_indices(g, [(t + i) % 24 for i in range(12)]) if t < 2
                 else random_subset_of_size(g, 12 + t % 3, rng_from_seed(300 + t)))
            b = random_subset_of_size(g, 12 + t % 4, rng_from_seed(400 + t))
            # (1_A * 1_B)(x) |G| counts the pairs (x', y) in A x B with x'y = x
            pairs = Counter(int(g.table[x, y]) for x in a.indices for y in b.indices)
            level = [pairs[x] for x in range(g.order)]
            for alpha in (0.5, 0.3):
                s_set, f_elems, threshold, counts = _fraction_separated_cover(a, alpha)
                cov = separated_cover(a, alpha)
                assert cov.s_set.indices.tolist() == s_set
                assert cov.f_elements == tuple(f_elems)
                assert cov.threshold == threshold
                eps = Fraction(alpha) ** 2 / 2
                assert level_set_claim(a, b, alpha) == {
                    "s_size": sum(Fraction(c, g.order) > eps for c in level),
                    "bound": float(eps) * g.order}
            on_cut["separated"] += counts.count(3)
            on_cut["level"] += level.count(3)
    assert min(on_cut.values()) > 0


def test_symmetric_covering_example(z12):
    x = Subset.from_indices(z12, [0, 1, 11])
    y = product_set(x, x)
    chk = symmetric_covering_check(x, y)
    assert chk.hypothesis_met and chk.conclusion_holds
    target = {(a - b) % 12 for a in y.indices for b in y.indices}
    assert {0, 1, 11} <= target


def test_symmetric_covering_trivial(z12):
    x = Subset.singleton(z12, 0)
    y = Subset.from_indices(z12, [0, 5])
    chk = symmetric_covering_check(x, y)
    assert chk.hypothesis_met and chk.conclusion_holds


def test_symmetric_covering_exhaustive_z6(z6):
    holding = violations = 0
    for xa in range(64):
        for ya in range(64):
            x = Subset(z6, np.array([(xa >> i) & 1 for i in range(6)], bool))
            y = Subset(z6, np.array([(ya >> i) & 1 for i in range(6)], bool))
            chk = symmetric_covering_check(x, y)
            if chk.hypothesis_met:
                holding += 1
                if not chk.conclusion_holds:
                    violations += 1
    assert violations == 0
    assert holding > 0


def test_translate_covering_z12(z12):
    c = Subset.from_indices(z12, range(4))
    x = Subset.from_indices(z12, [0, 1, 11])
    d = product_set(x, x)  # X^2 \ D empty, |C|/k = 1
    chk = translate_covering_check(c, x, d, 4)
    assert chk.hypothesis_met
    assert chk.conclusion_holds
    # verify the returned translate directly
    t = chk.witness["translate"]
    cd = {(ci - di) % 12 for ci in c.indices for di in d.indices}
    assert {(t + xi) % 12 for xi in x.indices} <= cd


def test_translate_covering_hypothesis_gate(z12):
    asym = Subset.from_indices(z12, [0, 1])  # not symmetric
    chk = translate_covering_check(Subset.full(z12), asym, Subset.full(z12), 12)
    assert not chk.hypothesis_met


def test_bogolyubov_full_group(z12):
    res = bogolyubov_search(Subset.full(z12), 1.0)
    assert res.status == "ok"
    assert res.found is True


def test_bogolyubov_evens(z12):
    evens = evens_subset(z12)
    res = bogolyubov_search(evens, 0.5)
    assert res.status == "ok"
    target = _brute_product(z12, *(2 * [list(_brute_product(
        z12, evens.indices, inverse_set(evens).indices))]))
    members = {int(i) for i in res.spec.realized.indices}
    assert members <= target
    assert members == set(range(0, 12, 2))


def test_bogolyubov_precondition(z12):
    with pytest.raises(ValueError):
        bogolyubov_search(Subset.from_indices(z12, [0]), 0.5)


def test_bogolyubov_perturbed_interval(z101):
    rng = rng_from_seed(17)
    base = Subset(z101, np.array(
        [2 * abs(np.sin(np.pi * x / 101)) < 0.6 for x in range(101)]))
    a = remove_random_points(base, 5, rng)
    assert a.measure >= 0.13
    res = bogolyubov_search(a, 0.13)
    assert res.status == "ok"
    diff = product_set(a, inverse_set(a))
    target = product_set(diff, diff)
    assert res.spec.realized.is_subset_of(target)


def test_two_set_full(z12):
    res = two_set_bogolyubov(Subset.full(z12), Subset.full(z12), 1.0,
                             ZetaRule.constant(0.05))
    assert res.status == "ok"
    assert res.found == (0, 0)  # (i)-(iii) hold with g_best 0, no defect


def test_two_set_evens(z12):
    evens = evens_subset(z12)
    res = two_set_bogolyubov(evens, evens, 0.5, ZetaRule.constant(0.05))
    assert res.status == "ok"
    assert res.found[1] == 0
    claim1 = level_set_claim(evens, evens, 0.5)
    assert claim1["s_size"] >= claim1["bound"]
    members = {int(i) for i in res.spec.realized.indices}
    assert members <= set(range(0, 12, 2))


@pytest.mark.parametrize("sparse", ["A", "B"])
def test_level_set_claim_checks_density_as_the_search_does(z12, sparse):
    thin, full = Subset.from_indices(z12, [0]), Subset.full(z12)
    a, b = (thin, full) if sparse == "A" else (full, thin)
    with pytest.raises(ValueError, match=rf"mu\({sparse}\) = 1/12") as claim:
        level_set_claim(a, b, 0.5)
    with pytest.raises(ValueError) as search:
        two_set_bogolyubov(a, b, 0.5, ZetaRule.constant(0.05))
    assert str(claim.value) == str(search.value)


def test_two_set_claim1_exact_random(a5=None):
    g = build_group("zmod:60")
    for t in range(100):
        rng = rng_from_seed(500 + t)
        a = random_subset_of_size(g, 18 + int(rng.integers(0, 20)), rng)
        b = random_subset_of_size(g, 18 + int(rng.integers(0, 20)), rng)
        binv_rows = b.mask[g.table[g.inverse, :]]
        counts = a.mask.astype(np.int64) @ binv_rows
        assert counts.sum() == len(a) * len(b)
        thr = 0.3 ** 2 / 2
        s_size = int((counts / g.order > thr).sum())
        assert s_size >= thr * g.order - 1e-9


def test_four_product_full(z12):
    res = four_product_bohr(Subset.full(z12), 1.0)
    assert res.status == "ok"


def test_four_product_abelian_coincides(z12):
    evens = evens_subset(z12)
    res = four_product_bohr(evens, 0.5)
    single = bogolyubov_search(evens, 0.5)
    assert res.status == "ok"
    assert res.spec.realized == single.spec.realized
    # abelian, so the four product sets are one and the one walk is bogolyubov's
    assert [s.realized for s in res.found] == [single.spec.realized] * 4
    assert res.candidates_scored == single.candidates_scored


def test_four_product_builds_each_product_once(monkeypatch):
    # AA^-1, A^-1A, AA and A^-1A^-1 once each, then the four targets
    calls = []
    monkeypatch.setattr(productsets, "product_set",
                        lambda x, y: calls.append(1) or product_set(x, y))
    g = build_group("dihedral:6")
    a = random_subset_of_size(g, 4, rng_from_seed(1))
    assert four_product_bohr(a, 4 / g.order).status == "ok"
    assert len(calls) == 8


@pytest.mark.parametrize("desc,seed", [
    ("dihedral:6", 1), ("dihedral:6", 2), ("alt:4", 0), ("alt:4", 1),
    ("alt:4", 3), ("alt:4", 5), ("product:zmod:2,sym:3", 1)])
def test_four_product_one_walk_matches_four_walks(desc, seed):
    """Cases whose four product sets take different first specs: the one walk
    finds each walk's spec and scores as many candidates as the longest."""
    g = build_group(desc)
    a = random_subset_of_size(g, max(1, int(0.3 * g.order)), rng_from_seed(seed))
    res = four_product_bohr(a, (len(a) - 0.5) / g.order)
    ainv = inverse_set(a)
    targets = [product_set(product_set(x, y), product_set(z, w)) for x, y, z, w in (
        (a, ainv, a, ainv), (ainv, a, ainv, a), (a, a, ainv, ainv), (ainv, ainv, a, a))]
    walks = [first_accepted(g, SearchSpace(),
                            lambda s, t=t: s.realized.is_subset_of(t) or None,
                            pass_all)
             for t in targets]
    assert res.status == "ok"
    assert len({(s.tau.label, s.delta) for s in res.found}) > 1
    assert [(s.tau.label, s.delta, s.realized) for s in res.found] == [
        (w.spec.tau.label, w.spec.delta, w.spec.realized) for w in walks]
    assert res.candidates_scored == max(w.candidates_scored for w in walks)


def test_four_product_dihedral6():
    g = build_group("dihedral:6")
    a = Subset.from_indices(g, list(range(6)) + [6])
    res = four_product_bohr(a, 0.5)
    assert res.status == "ok"
    ainv = inverse_set(a)
    for left, right in ((a, ainv), (ainv, a)):
        sq = product_set(left, right)
        assert res.spec.realized.is_subset_of(product_set(sq, sq))
    a2 = product_set(a, a)
    ainv2 = product_set(ainv, ainv)
    assert res.spec.realized.is_subset_of(product_set(a2, ainv2))
    assert res.spec.realized.is_subset_of(product_set(ainv2, a2))


def test_quasirandom_full(z12):
    full = Subset.full(z12)
    chk = quasirandom_check(full, full, full, 1.0)
    assert chk.ab_density == 1.0 and chk.abc_covers


def test_quasirandom_a5_trials(a5):
    assert min_nontrivial_dim(a5) == 3
    for t in range(10):
        rng = rng_from_seed(900 + t)
        a = random_subset_of_size(a5, 21, rng)
        b = random_subset_of_size(a5, 21, rng)
        c = random_subset_of_size(a5, 21, rng)
        chk = quasirandom_check(a, b, c, 0.35)
        assert chk.ab_density > 0.65
        assert chk.abc_covers


def test_quasirandom_z12_counterexample(z12):
    evens = evens_subset(z12)
    chk = quasirandom_check(evens, evens, evens, 0.35)
    assert min_nontrivial_dim(z12) == 1
    assert chk.ab_density == 0.5
    assert not chk.abc_covers


def test_quasirandom_precondition(z12):
    tiny = Subset.from_indices(z12, [0])
    with pytest.raises(ValueError):
        quasirandom_check(tiny, tiny, tiny, 0.5)


def test_quasirandom_trials_match_separate_draws(a5):
    rows = quasirandom_trials(a5, 0.35, 3, 21, seed=9)
    assert [s for s, _ in rows] == [900027, 900028, 900029]
    for trial_seed, chk in rows:
        rng = rng_from_seed(trial_seed)
        a, b, c = (random_subset_of_size(a5, 21, rng) for _ in range(3))
        assert chk == quasirandom_check(a, b, c, 0.35)


@pytest.mark.parametrize("trials, size, message", [
    (0, 4, "trials must be >= 1"), (2, 0, "size must lie in"),
    (2, 13, "size must lie in")])
def test_quasirandom_trials_range_checked(z12, trials, size, message):
    with pytest.raises(ValueError, match=message):
        quasirandom_trials(z12, 0.3, trials, size)


# per group: alpha, so that zmod:12's small sets leave some ABC short of G
QUASIRANDOM_GROUPS = {"zmod:12": 0.2, "zmod:60": 0.35, "alt:5": 0.35,
                      "dihedral:30": 0.35, "sym:5": 0.35}


@pytest.mark.parametrize("block", ["default", "three-trial", "one-entry"])
@pytest.mark.parametrize("trials", [1, 10, 100])
@pytest.mark.parametrize("desc", sorted(QUASIRANDOM_GROUPS))
def test_quasirandom_blocks_match_the_per_trial_check(monkeypatch, desc,
                                                     trials, block):
    # blocks of three split 1, 10 and 100 trials with a one-trial block
    # last; a one-entry budget still takes a trial a block
    g = build_group(desc)
    alpha = QUASIRANDOM_GROUPS[desc]
    size = productsets.density_size(alpha, g.order)
    if block != "default":
        monkeypatch.setattr(groups, "BLOCK_ENTRIES",
                            3 * g.order * size if block == "three-trial" else 1)
    rows = quasirandom_trials(g, alpha, trials, size, seed=5)
    assert [s for s, _ in rows] == list(range(500015, 500015 + trials))
    for trial_seed, chk in rows:
        rng = rng_from_seed(trial_seed)
        a, b, c = (random_subset_of_size(g, size, rng) for _ in range(3))
        assert chk == quasirandom_check(a, b, c, alpha)
        assert type(chk.ab_density) is float and type(chk.abc_covers) is bool
    if desc == "zmod:12" and trials == 100:
        assert {chk.abc_covers for _, chk in rows} == {True, False}


def test_quasirandom_trials_density_error(z12, monkeypatch):
    # the error comes before any trial is drawn
    monkeypatch.setattr(productsets, "rng_from_seed", None)
    with pytest.raises(ValueError) as err:
        quasirandom_trials(z12, 0.5, 3, 5)
    assert str(err.value) == "mu(A) = 5/12 < alpha = 0.5"


def test_quasirandom_trials_memory_is_one_block(a5):
    # 2,000 trials at once would gather 2000 * 60 * 21 table entries (10 MB
    # as int32); a block at a time, the peak beyond the returned list stays
    # within two 8-byte words per BLOCK_ENTRIES entry
    quasirandom_trials(a5, 0.35, 2, 21)  # first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = quasirandom_trials(a5, 0.35, 2000, 21)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 2000 and held > before
    assert peak - held <= 16 * groups.BLOCK_ENTRIES


@pytest.mark.parametrize("min_size", [0, -4, 13])
def test_shift_invariance_min_size_range_checked(z12, min_size):
    f = GroupFunction.constant(z12, 0.5)
    with pytest.raises(ValueError, match="min_size must lie in"):
        shift_invariance_search(f, 2, 0.1, min_size=min_size)


def test_shift_invariance_degenerate_floor():
    g = build_group("zmod:8")
    noise = random_pm1_function(g, rng_from_seed(2))
    res = shift_invariance_search(noise, 2, 0.05)
    assert res.status == "ok"
    assert len(res.spec.realized) == 1
    # the runner flags a one-element Bohr set as degenerate
    report = run_experiment({"kind": "croot-sisask", "group": "zmod:8",
                             "set_a": "random:0.5", "epsilon": "0.001"})
    assert report.payload["size"] == 1 and report.payload["degenerate"] is True
    assert res.found == 0.0


def test_shift_invariance_noise_fails_without_singleton():
    g = build_group("zmod:8")
    noise = random_pm1_function(g, rng_from_seed(2))
    res = shift_invariance_search(noise, 2, 0.05, min_size=3)
    assert res.status == "none-within-budget"


def test_shift_invariance_convolution(z101):
    rng = rng_from_seed(7)
    a = random_subset(z101, 0.5, rng)
    ind = GroupFunction.indicator(a)
    f = convolve(ind, ind)
    res = shift_invariance_search(f, 2, 0.1, min_size=3)
    assert res.status == "ok"
    assert len(res.spec.realized) >= 3
    assert res.found < 0.1
    # independent sup-norm check
    sup = max(
        float(np.mean(np.abs(f.values[z101.table[t, :]] - f.values) ** 2) ** 0.5)
        for t in res.spec.realized.indices)
    assert sup == pytest.approx(res.found)


@pytest.mark.parametrize("desc", ["zmod:101", "alt:5", "dihedral:30", "zmod:2048"])
def test_shift_norms_are_lp_bitwise(desc):
    # the norms a croot-sisask search computes before its walk are the
    # floats _lp gives each shift alone; zmod:2048 takes 128 row blocks
    g = build_group(desc)
    ind = GroupFunction.indicator(random_subset(g, 0.5, rng_from_seed(5)))
    f = convolve(ind, ind)
    for p in (1, 1.5, 2, 2.5, 3):
        want = [_lp(f.values[g.table[t, :]] - f.values, p) for t in range(g.order)]
        assert productsets._shift_norms(f, p).tolist() == want, p


@pytest.mark.parametrize("desc, p", [("zmod:101", 2.0), ("dihedral:30", 1.0),
                                     ("alt:5", 3.0)])
def test_shift_norm_memo_matches_the_loop(desc, p):
    # the search against the per-t ``_lp`` loop: same sup, spec and
    # candidate count as computing each candidate's norms afresh
    g = build_group(desc)
    ind = GroupFunction.indicator(random_subset(g, 0.5, rng_from_seed(11)))
    f = convolve(ind, ind)
    outcomes = set()
    for eps in (0.02, 0.1, 0.3):
        def accept(spec):
            if len(spec.realized) < 3:
                return None
            sup = 0.0
            for t in spec.realized.indices:
                sup = max(sup, _lp(f.values[g.table[t, :]] - f.values, p))
                if sup >= eps:
                    return None
            return sup

        res = shift_invariance_search(f, p, eps, min_size=3)
        ref = first_accepted(g, SearchSpace(), accept, pass_all)
        assert res.status == ref.status
        assert res.candidates_scored == ref.candidates_scored
        assert repr(res.found) == repr(ref.found)
        if res.spec is not None:
            assert res.spec.to_json_dict() == ref.spec.to_json_dict()
        outcomes.add(res.status)
    assert outcomes == {"ok", "none-within-budget"}
