import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bohrlab import (FiniteGroup, GroupFunction, SearchSpace, Subset, ZetaRule,
                     abelian_characters, bogolyubov_search, bohr_set, build_group,
                     catalog_descriptors, cover_bound_check,
                     decompose_regular, direct_sum_hom,
                     enumerate_bohr_candidates, greedy_cover, inverse_set,
                     irreps_of, nm_refine, search_regular_bohr,
                     shift_invariance_search, subgroup_test, translate_set,
                     two_set_bogolyubov)
from bohrlab import bohr
from bohrlab.bohr import NoDiagonalRefinementError
from bohrlab.cli import KINDS
from bohrlab.gen import (evens_subset, random_pm1_function,
                         random_subset_of_size, rng_from_seed)
from bohrlab.regularity import _all_subgroups


@pytest.fixture(scope="module")
def z12_chars(z12):
    return abelian_characters(z12)


def test_z12_chi1_delta1(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[1], 1.0)
    assert sorted(spec.realized.indices) == [0, 1, 11]
    assert spec.kind == "torus"
    # x = 2 sits exactly on the boundary 2|sin(pi/6)| = 1 and is excluded
    assert 2 in spec.boundary_excluded
    assert z12.identity in spec.realized


@pytest.mark.parametrize("desc", [
    "zmod:12", "zmod:101", "zmod:360", "zmod:1024", "zmod:2048",
    "product:zmod:12,zmod:18", "product:zmod:32,zmod:64"])
def test_character_bohr_sets_are_exact_and_symmetric(desc):
    # at delta = 2 sin(pi j / e) a character's Bohr set is exactly the x whose
    # integer phase p (chi(x) = exp(2 pi i p / e)) has min(p, e - p) < j; the
    # elements at p = +-j lie on the boundary and are excluded
    g = build_group(desc)
    e = int(g.element_orders().max())
    for rep in abelian_characters(g):
        values = rep.matrices[:, 0, 0]
        p = np.rint(np.angle(values) * e / (2 * np.pi)).astype(np.int64) % e
        turns = np.minimum(p, e - p)
        for j in (1, e // 6, e // 3, e // 2):
            spec = bohr_set(g, rep, 2 * math.sin(math.pi * j / e))
            mask = spec.realized.mask
            assert np.array_equal(mask, mask[g.inverse]), (rep.label, j)
            assert np.array_equal(mask, turns < j), (rep.label, j)
            assert set(np.flatnonzero(turns == j).tolist()) <= set(spec.boundary_excluded)


def test_trivial_rep_full_group(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[0], 2.0)
    assert len(spec.realized) == 12


def test_klein_kernel(klein8):
    chars = abelian_characters(klein8)
    nontrivial = next(c for c in chars
                      if np.max(np.abs(c.character() - 1)) > 1e-6)
    spec = bohr_set(klein8, nontrivial, 1.0)
    assert len(spec.realized) == 4
    assert subgroup_test(spec.realized) == (True, True)


def test_delta_range_validated(z12, z12_chars):
    # bohr_set checks when called, though the kernel behind it is lazy
    for bad in (0.0, -1.0, 2.5, math.nan):
        with pytest.raises(ValueError, match="delta must lie"):
            bohr_set(z12, z12_chars[1], bad)
    other = abelian_characters(build_group("zmod:6"))[1]
    with pytest.raises(ValueError, match="representation of the given group"):
        bohr_set(z12, other, 1.0)


def test_greedy_cover_examples(z12):
    full = Subset.full(z12)
    assert greedy_cover(z12, full) == (1, [0])
    b = Subset.from_indices(z12, [0, 1, 11])
    count, translates = greedy_cover(z12, b)
    assert count == 4
    assert translates == [0, 3, 6, 9]
    singleton = Subset.singleton(z12, z12.identity)
    assert greedy_cover(z12, singleton)[0] == 12
    with pytest.raises(ValueError):
        greedy_cover(z12, Subset.empty(z12))


def test_subgroup_test_examples(z12):
    b = Subset.from_indices(z12, [0, 1, 11])
    is_sub, _ = subgroup_test(b)
    assert not is_sub  # 1+1 = 2 is missing
    assert subgroup_test(Subset.singleton(z12, 0)) == (True, True)


def test_subgroup_test_nonnormal(s3):
    # order-2 subgroup generated by a transposition is not normal in S3
    t = next(g for g in s3.elements() if s3.element_order(g) == 2)
    sub = Subset.from_indices(s3, [s3.identity, t])
    is_sub, is_norm = subgroup_test(sub)
    assert is_sub and not is_norm


@pytest.mark.parametrize("desc, normal", [("sym:3", 3), ("sym:4", 4), ("alt:4", 3),
                                          ("alt:5", 2), ("quaternion:8", 6),
                                          ("dihedral:6", 7)])
def test_subgroup_test_normality_against_python_sets(desc, normal):
    # known normal subgroup counts, and each verdict against a python loop
    g = build_group(desc)
    verdicts = []
    for h in _all_subgroups(g):
        is_normal = all(g.conjugate(x, a) in h for x in g.elements() for a in h)
        assert subgroup_test(Subset.from_indices(g, h)) == (True, is_normal)
        verdicts.append(is_normal)
    assert sum(verdicts) == normal


def test_nm_refine_abelian_is_whole_image(z12, z12_chars):
    spec, m = nm_refine(z12, z12_chars[1], 1.0)
    assert m == 1
    assert spec.kind == "nm"
    assert sorted(spec.realized.indices) == [0, 1, 11]


def test_nm_refine_quaternion(q8):
    irr = decompose_regular(q8)
    two = next(i for i in irr if i.dim == 2)
    faithful = np.flatnonzero(two.identity_distances() <= 1e-9)
    assert faithful.tolist() == [q8.identity]
    spec, m = nm_refine(q8, two, 1.0)
    assert m == 2
    assert len(spec.nm_subgroup) == 4
    assert spec.nm_subgroup.group is q8
    base = bohr_set(q8, two, 1.0)
    assert spec.realized.is_subset_of(base.realized)


def test_nm_refine_trivial_tau(z12, z12_chars):
    spec, m = nm_refine(z12, z12_chars[0], 2.0)
    assert m == 1
    assert len(spec.realized) == 12


def test_nm_refine_simple_group_fails(a5):
    irr = decompose_regular(a5)
    three = next(i for i in irr if i.dim == 3)
    with pytest.raises(NoDiagonalRefinementError):
        nm_refine(a5, three, 1.0)


# nm_refine on every irrep of irreps_of(G) at delta 0.5, 1.0 and 2.0, as the
# earlier implementation computed it on a numerical copy of the image group:
# (m, realized members), "*" for all of G, or None where it raises
# NoDiagonalRefinementError
NM_PINS = {
    ("sym:4", 0): 3 * [(1, "0 3 4 7 8 11 12 15 16 19 20 23")],
    ("sym:4", 1): 3 * [(1, "*")],
    ("sym:4", 2): 3 * [None],
    ("sym:4", 3): 3 * [None],
    ("sym:4", 4): 3 * [None],
    ("alt:4", 0): [(1, "0 3 8 11"), (1, "0 3 8 11"), (1, "*")],
    ("alt:4", 1): [(1, "0 3 8 11"), (1, "0 3 8 11"), (1, "*")],
    ("alt:4", 2): 3 * [(1, "*")],
    ("alt:4", 3): 3 * [None],
    ("alt:5", 0): 3 * [(1, "*")],
    ("alt:5", 1): 3 * [None],
    ("alt:5", 2): 3 * [None],
    ("alt:5", 3): 3 * [None],
    ("alt:5", 4): 3 * [None],
    ("dihedral:6", 0): 3 * [(1, "0 2 4 7 9 11")],
    ("dihedral:6", 1): 3 * [(1, "0 2 4 6 8 10")],
    ("dihedral:6", 2): 3 * [(1, "0 1 2 3 4 5")],
    ("dihedral:6", 3): 3 * [(1, "*")],
    ("dihedral:6", 4): [(2, "0 3"), (2, "0 3"), (2, "0 1 2 3 4 5")],
    ("dihedral:6", 5): [(2, "0"), (2, "0"), (2, "0 1 2 4 5")],
    ("dihedral:12", 0): 3 * [(1, "0 2 4 6 8 10 13 15 17 19 21 23")],
    ("dihedral:12", 1): 3 * [(1, "0 2 4 6 8 10 12 14 16 18 20 22")],
    ("dihedral:12", 2): 3 * [(1, "0 1 2 3 4 5 6 7 8 9 10 11")],
    ("dihedral:12", 3): 3 * [(1, "*")],
    ("dihedral:12", 4): [(2, "0"), (2, "0 5 7"), (2, "0 1 2 3 4 5 7 8 9 10 11")],
    ("dihedral:12", 5): [(2, "0 3 6 9"), (2, "0 3 6 9"),
                          (2, "0 1 2 3 4 5 6 7 8 9 10 11")],
    ("dihedral:12", 6): [(2, "0 4 8"), (2, "0 4 8"), (2, "0 1 3 4 5 7 8 9 11")],
    ("dihedral:12", 7): [(2, "0 6"), (2, "0 6"), (2, "0 1 2 4 5 6 7 8 10 11")],
    ("dihedral:12", 8): [(2, "0"), (2, "0 1 11"), (2, "0 1 2 3 4 5 7 8 9 10 11")],
    ("quaternion:8", 0): 3 * [(1, "0 1 6 7")],
    ("quaternion:8", 1): 3 * [(1, "0 1 4 5")],
    ("quaternion:8", 2): 3 * [(1, "0 1 2 3")],
    ("quaternion:8", 3): 3 * [(1, "*")],
    ("quaternion:8", 4): [(2, "0"), (2, "0"), (2, "0 2 3")],
}


@pytest.mark.parametrize("desc", sorted({d for d, _ in NM_PINS}))
def test_nm_refine_pins(desc):
    g = build_group(desc)
    irreps = irreps_of(g)
    assert len(irreps) == sum(d == desc for d, _ in NM_PINS)
    for i, ir in enumerate(irreps):
        for delta, pin in zip((0.5, 1.0, 2.0), NM_PINS[desc, i]):
            if pin is None:
                with pytest.raises(NoDiagonalRefinementError):
                    nm_refine(g, ir, delta)
                continue
            spec, m = nm_refine(g, ir, delta)
            members = (list(g.elements()) if pin[1] == "*"
                       else [int(t) for t in pin[1].split()])
            assert (m, spec.realized.indices.tolist()) == (pin[0], members)


def _distinct_matrices(rep):
    """The distinct matrices of tau(G), rounded to 6 decimals, and the
    diagonal ones among them."""
    mats = np.round(rep.matrices, 6) + 0.0  # folds -0.0 into 0.0
    distinct = list({m.tobytes(): m for m in mats}.values())
    return distinct, [m for m in distinct if not np.any(m - np.diag(np.diag(m)))]


@pytest.mark.parametrize("desc", sorted({d for d, _ in NM_PINS}))
def test_nm_refine_index_by_matrices(desc):
    g = build_group(desc)
    irreps = irreps_of(g)
    reps = list(irreps)
    reps += [direct_sum_hom([irreps[i], irreps[j]])
             for i, j in itertools.combinations(range(4), 2)]
    refined = 0
    for rep in reps:
        try:
            spec, m = nm_refine(g, rep, 1.0)
        except NoDiagonalRefinementError:
            continue
        refined += 1
        distinct, diagonal = _distinct_matrices(rep)
        assert m == len(distinct) // len(diagonal)
        assert len(distinct) % len(diagonal) == 0
        # |K| = |tau(K)| * |ker tau|
        kernel = np.flatnonzero(rep.identity_distances() <= 1e-9)
        assert len(spec.nm_subgroup) == len(diagonal) * len(kernel)
    assert refined > 0


def test_cover_bound_examples(z12, z12_chars, klein8):
    spec, _ = nm_refine(z12, z12_chars[1], 1.0)
    assert cover_bound_check(spec) == (7, 4, True)

    chars8 = abelian_characters(klein8)
    nontrivial = next(c for c in chars8 if np.max(np.abs(c.character() - 1)) > 1e-6)
    spec8, _ = nm_refine(klein8, nontrivial, 1.0)
    assert cover_bound_check(spec8) == (7, 2, True)

    full_spec, m = nm_refine(z12, z12_chars[0], 2.0)
    bound, actual, ok = cover_bound_check(full_spec)
    assert ok and actual == 1 and bound >= 1


def test_cover_bound_requires_nm(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[1], 1.0)
    with pytest.raises(ValueError):
        cover_bound_check(spec)


def _constructed_specs(group, deltas=(2.0, 1.0, 0.5, 0.25, 0.1)):
    irreps = irreps_of(group)
    reps = list(irreps[:4])
    if len(reps) >= 2:
        reps.append(direct_sum_hom([irreps[0], irreps[1]]))
    for rep in reps:
        for delta in deltas:
            yield bohr_set(group, rep, delta)


@pytest.mark.parametrize("desc", ["zmod:12", "sym:3", "quaternion:8",
                                  "product:zmod:2,zmod:4", "dihedral:5"])
def test_bohr_symmetry_and_normality(desc):
    g = build_group(desc)
    for spec in _constructed_specs(g):
        b = spec.realized
        assert b == inverse_set(b)
        for x in g.elements():
            assert translate_set(x, b, "left") == translate_set(x, b, "right")


@pytest.mark.parametrize("desc", ["zmod:12", "sym:3"])
def test_delta_monotone(desc):
    g = build_group(desc)
    irreps = irreps_of(g)
    grid = sorted((2.0, 1.0, 0.5, 0.25, 0.15, 0.1, 0.05))
    for ir in irreps:
        prev = None
        for delta in grid:
            cur = bohr_set(g, ir, delta).realized
            if prev is not None:
                assert prev.is_subset_of(cur)
            prev = cur


@pytest.mark.parametrize("desc,r", [("product:zmod:2,zmod:2,zmod:2", 2),
                                    ("product:zmod:3,zmod:3", 3),
                                    ("zmod:4", 4), ("quaternion:8", 4),
                                    ("dihedral:4", 4)])
def test_exponent_threshold_gives_normal_subgroups(desc, r):
    g = build_group(desc)
    assert g.exponent() == r
    threshold = 2 * math.sin(math.pi / r)
    deltas = [d for d in (2.0, 1.0, 0.5, 0.25, 0.1) if d <= threshold]
    deltas.append(threshold)
    space = SearchSpace(delta_grid=tuple(deltas), max_candidates=400)
    seen = 0
    for spec in enumerate_bohr_candidates(g, space):
        assert subgroup_test(spec.realized) == (True, True)
        seen += 1
    assert seen > 0


def test_enumeration_preference_order():
    # the docstring's order, built independently: smaller total dimension n,
    # then larger delta, then fewer summands, then lexicographic indices
    space = SearchSpace()
    for desc in ("zmod:12", "dihedral:6", "sym:4"):
        g = build_group(desc)
        irreps = irreps_of(g)
        keyed = []
        for count in range(1, space.max_summands + 1):
            for combo in itertools.combinations(range(len(irreps)), count):
                n = sum(irreps[i].dim for i in combo)
                if n <= space.max_dim:
                    keyed += [(n, -delta, count, combo)
                              for delta in space.delta_grid]
        keyed.sort()
        expected = [("+".join(irreps[i].label for i in combo), -neg_delta)
                    for _, neg_delta, _, combo in keyed[:space.max_candidates]]
        got = [(s.tau.label, s.delta)
               for s in enumerate_bohr_candidates(g, space)]
        assert got == expected, desc


def _spec_key(spec):
    return (spec.tau.label, spec.delta, spec.kind, spec.boundary_excluded,
            spec.realized.mask.tobytes())


def _scalar_spec(tau, delta):
    """The per-candidate membership test, element by element."""
    dist = tau.identity_distances()
    mask = np.array([d < delta - bohr.BOUNDARY_TOL for d in dist.tolist()])
    boundary = tuple(g for g, d in enumerate(dist.tolist())
                     if abs(d - delta) <= bohr.BOUNDARY_TOL)
    flat = all(s.dim == 1 for s in (tau.summands or (tau,)))
    return mask, float(delta), "torus" if flat else "unitary", boundary


REPLAY_GROUPS = ["zmod:12", "zmod:101", "dihedral:12", "sym:4", "alt:5",
                 "product:zmod:2,zmod:6"]
REPLAY_SPACES = {"default": SearchSpace(),
                 "one summand": SearchSpace(max_summands=1, max_candidates=150),
                 "custom grid": SearchSpace(delta_grid=(0.3, 1.7, 1.0, 0.3),
                                            max_dim=4, max_candidates=300)}


@pytest.mark.parametrize("desc,space", [
    pytest.param(desc, space, id=desc if space == "default" else f"{desc}-{space}")
    for desc in ["zmod:12", "zmod:101", "dihedral:12", "sym:4", "alt:5",
                 "quaternion:8", "product:zmod:2,zmod:6"]
    for space in sorted(REPLAY_SPACES)])
def test_block_kernel_matches_scalar_reference(desc, space, monkeypatch):
    space = REPLAY_SPACES[space]
    g = build_group(desc)
    specs = list(enumerate_bohr_candidates(g, space))
    assert specs
    for spec in specs:
        mask, delta, kind, boundary = _scalar_spec(spec.tau, spec.delta)
        assert np.array_equal(spec.realized.mask, mask), spec.tau.label
        assert (spec.delta, spec.kind, spec.boundary_excluded) == (
            delta, kind, boundary), spec.tau.label
    # blocks of one candidate give the same walk, on a group that builds
    # its own level table
    monkeypatch.setattr(bohr, "BLOCK_ENTRIES", 1)
    single = list(enumerate_bohr_candidates(FiniteGroup(g.table, desc), space))
    assert [_spec_key(s) for s in single] == [_spec_key(s) for s in specs]


@pytest.mark.parametrize("desc", ["zmod:101", "sym:4"])
def test_each_grid_walks_as_on_a_fresh_group(desc):
    # a group keeps the level table of its last grid only: walking grid A,
    # then B, then A again replaces it twice, and each walk is a fresh
    # group's
    table = build_group(desc).table
    g = FiniteGroup(table, desc)
    grids = [(2.0, 0.5, 0.1), (1.7, 1.0, 0.3), (2.0, 0.5, 0.1)]
    for grid in grids:
        space = SearchSpace(delta_grid=grid, max_candidates=400)
        fresh = [_spec_key(s) for s in enumerate_bohr_candidates(
            FiniteGroup(table, desc), space)]
        assert [_spec_key(s) for s in enumerate_bohr_candidates(g, space)] \
            == fresh
        assert g._levels[0] == grid


def test_boundary_candidates_share_a_block(z12, z12_chars):
    # at delta 1.0, chi1 and chi2 have elements at distance exactly 1, while
    # chi0 and chi3 have none; the walk's first span holding rows at delta
    # 1.0 holds all four
    expected = {"chi0": (), "chi1": (2, 10), "chi2": (1, 5, 7, 11), "chi3": ()}
    span = next(span for span in bohr._spans(z12, SearchSpace())
                if (span.radii == 1.0).any())
    rows = np.flatnonzero(span.radii == 1.0)[:4].tolist()
    block = [span.spec(i) for i in rows]
    assert [spec.tau.label for spec in block] == list(expected)
    walk = enumerate_bohr_candidates(z12, SearchSpace(delta_grid=(1.0,)))
    for spec, walked in zip(block, walk):
        assert spec.boundary_excluded == expected[spec.tau.label]
        assert (walked.tau.label, walked.boundary_excluded,
                walked.realized) == (spec.tau.label, spec.boundary_excluded,
                                     spec.realized)
        alone = bohr_set(z12, spec.tau, 1.0)
        assert (alone.realized, alone.boundary_excluded) == (
            spec.realized, spec.boundary_excluded)
    assert sorted(block[1].realized.indices) == [0, 1, 11]


@pytest.mark.parametrize("budget", [1, 2, 3, 7, 8, 9, 17, 150])
def test_budget_cuts_the_walk_exactly(z12, budget):
    # z12's levels hold 12 candidates at n = 1 and 66 at n = 2, each span
    # whole radius rounds of one level: budgets up to 17 end a walk inside
    # a round, 150 at a round's edge
    full = [(s.tau.label, s.delta)
            for s in enumerate_bohr_candidates(z12, SearchSpace())]
    got = [(s.tau.label, s.delta) for s in enumerate_bohr_candidates(
        z12, SearchSpace(max_candidates=budget))]
    assert got == full[:budget]
    assert len(got) == budget


@pytest.mark.parametrize("desc", catalog_descriptors(24))
def test_torus_kind_exactly_when_every_matrix_is_diagonal(desc):
    # the reference: every dense matrix of tau is diagonal within 1e-9
    g = build_group(desc)
    irreps = irreps_of(g)
    reps = list(irreps) + [direct_sum_hom(list(pair))
                           for pair in itertools.combinations(irreps, 2)]
    for rep in reps:
        off = rep.matrices * (1.0 - np.eye(rep.dim))
        diagonal = bool(np.max(np.abs(off)) < 1e-9)
        assert (bohr_set(g, rep, 1.0).kind == "torus") == diagonal, rep.label


def test_exhaustive_enumeration_holds_no_block_matrices():
    # a direct sum keeps its summands' distances, not an (n, D, D) stack
    g = build_group("dihedral:50")
    irreps_of(g)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_bohr_candidates(g, SearchSpace()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count > 0
    assert peak < 8 << 20, peak


def test_abelian_searches_leave_the_character_matrices_unbuilt():
    # a Bohr search reads each character's distance row, never its matrices,
    # and a torus's (delta, n, m) refinement is all of G without them; the
    # irreps kind reads its certificates off the integer phases
    z200 = FiniteGroup(build_group("zmod:200").table, "zmod:200")
    assert sum(1 for _ in enumerate_bohr_candidates(z200, SearchSpace())) == 5000
    z101 = FiniteGroup(build_group("zmod:101").table, "zmod:101")
    f = random_pm1_function(z101, rng_from_seed(1))
    res = search_regular_bohr(f, 0.1, ZetaRule.constant(1e-6),
                              SearchSpace(max_summands=1, max_candidates=150))
    assert res.status == "none-within-budget"
    chars = irreps_of(z101)
    spec, m = nm_refine(z101, direct_sum_hom(chars[1:3]), 0.5)
    assert m == 1 and spec.nm_subgroup.mask.all()
    assert spec.realized == bohr_set(z101, direct_sum_hom(chars[1:3]), 0.5).realized
    z317 = FiniteGroup(build_group("zmod:317").table, "zmod:317")
    status, payload = KINDS["irreps"][0](z317, None, 0)
    assert status == "ok" and payload["max_hom_residual"] <= 1e-10
    for g in (z200, z101, z317):
        assert not any("matrices" in vars(rep) for rep in irreps_of(g))


@pytest.mark.parametrize("space", sorted(REPLAY_SPACES))
@pytest.mark.parametrize("desc", REPLAY_GROUPS)
def test_replay_matches_an_unshared_walk(desc, space):
    # the shared group keeps its level table and combos from the first call
    # and walks again on them, cut at each budget; an unshared copy builds
    # its own
    space = REPLAY_SPACES[space]
    g = build_group(desc)
    fresh = [_spec_key(s) for s in enumerate_bohr_candidates(
        FiniteGroup(g.table, desc), space)]
    assert fresh
    for budget in (len(fresh), 1, 9, len(fresh) // 2 + 1, len(fresh)):
        cut = dataclasses.replace(space, max_candidates=budget)
        assert [_spec_key(s) for s in enumerate_bohr_candidates(g, cut)] == \
            fresh[:budget]


@pytest.mark.parametrize("space", sorted(REPLAY_SPACES))
@pytest.mark.parametrize("desc", REPLAY_GROUPS)
def test_spans_hold_one_level_each(desc, space):
    # every span is a block of one (n, delta) level, or whole radius rounds
    # of one level, on walks cut at budgets 1, 9 and half the walk, most
    # inside a span, and on the whole walk
    space = REPLAY_SPACES[space]
    g = build_group(desc)
    fresh = [_spec_key(s) for s in enumerate_bohr_candidates(
        FiniteGroup(g.table, desc), space)]
    grid = sorted(set(space.delta_grid), reverse=True)
    size = max(1, bohr.BLOCK_ENTRIES // g.order)
    for budget in (len(fresh), 1, 9, len(fresh) // 2 + 1):
        walk = list(bohr._spans(g, dataclasses.replace(space, max_candidates=budget)))
        specs = [span.spec(i) for span in walk for i in range(len(span))]
        assert [_spec_key(s) for s in specs] == fresh[:budget]
        for span in walk:
            radii = span.radii.tolist()
            assert all(span.spec(i).tau.dim == span.dim
                       and span.spec(i).delta == radii[i]
                       for i in range(len(span)))
            assert radii == sorted(radii, reverse=True)
            if len(set(radii)) > 1:
                # whole rounds of the level, in walk order, the last cut
                # at the budget only
                level = bohr._combos(g, irreps_of(g), span.dim,
                                     min(span.dim, space.max_summands))
                assert np.array_equal(span.combos, level)
                rounds = len(set(radii))
                assert len(span) == rounds * len(level) or span is walk[-1]
                assert len(span) > (rounds - 1) * len(level)
                assert rounds * len(level) <= size // len(grid)


@pytest.mark.parametrize("budget", [None, 25])
@pytest.mark.parametrize("desc", ["zmod:101", "dihedral:30"])
def test_threads_walk_one_group_at_once(desc, budget):
    # four threads run two searches each under two grids on one cold shared
    # group, switching often, so its level table is built and replaced
    # under them; each gets the results of serial searches on fresh groups,
    # with the whole budget of 400 candidates and with walks cut at 25
    table = build_group(desc).table
    values = random_pm1_function(FiniteGroup(table, desc), rng_from_seed(1)).values
    members = random_subset_of_size(FiniteGroup(table, desc), 4,
                                    rng_from_seed(3)).indices
    grids = [SearchSpace(max_candidates=budget or 400),
             SearchSpace(delta_grid=(1.5, 0.75, 0.3), max_candidates=budget or 400)]

    def searches(g, order):
        f = GroupFunction(g, values)
        a = Subset.from_indices(g, members)
        out = []
        for space in (grids[k] for k in order):
            for res in (search_regular_bohr(f, 0.1, ZetaRule.constant(1e-6), space),
                        bogolyubov_search(a, 2 / g.order, space)):
                out.append((res.status, res.candidates_scored,
                            res.spec and _spec_key(res.spec)))
        return out

    orders = [(0, 1), (1, 0), (0, 1), (1, 0)]
    serial = [searches(FiniteGroup(table, desc), order) for order in orders]
    assert {scored for run in serial for _, scored, _ in run} != {1}
    shared = FiniteGroup(table, desc)
    start = threading.Barrier(4)
    got = [None] * 4

    def run(i):
        start.wait(timeout=60)
        got[i] = searches(shared, orders[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


def test_failed_walk_stores_nothing(monkeypatch):
    # a level table build that raises after some of its rows leaves the
    # group's last table in place, and the next search is a fresh group's
    g = FiniteGroup(build_group("zmod:12").table, "zmod:12")
    list(enumerate_bohr_candidates(g, SearchSpace(max_candidates=10)))
    levels = g._levels
    space = SearchSpace(delta_grid=(1.5, 0.5), max_candidates=30)
    rep_type = type(irreps_of(g)[0])
    real = rep_type.identity_distances
    read = []

    def fail(rep):
        read.append(rep)
        if len(read) > 5:
            raise MemoryError
        return real(rep)

    monkeypatch.setattr(rep_type, "identity_distances", fail)
    with pytest.raises(MemoryError):
        list(enumerate_bohr_candidates(g, space))
    assert g._levels is levels
    monkeypatch.undo()
    fresh = [_spec_key(s) for s in enumerate_bohr_candidates(
        FiniteGroup(g.table, "zmod:12"), space)]
    assert [_spec_key(s) for s in enumerate_bohr_candidates(g, space)] == fresh
    assert g._levels[0] == space.delta_grid


@pytest.mark.parametrize("grid", [(), (2.0, -1.0), (2.0, math.nan),
                                  (2.0, math.inf), (0.0,), (3.0, 1.0)])
def test_search_space_checks_the_grid(grid):
    with pytest.raises(ValueError, match="delta"):
        SearchSpace(delta_grid=grid)


@pytest.mark.parametrize("field,value", [("max_dim", 2.5),
                                         ("max_summands", 1.5),
                                         ("max_candidates", 20.0),
                                         ("max_candidates", "20")])
def test_search_space_takes_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SearchSpace(**{field: value})


def test_nm_contained_in_plain(q8):
    irr = decompose_regular(q8)
    two = next(i for i in irr if i.dim == 2)
    for delta in (0.5, 1.0, 1.5, 2.0):
        plain = bohr_set(q8, two, delta)
        refined, _ = nm_refine(q8, two, delta)
        assert refined.realized.is_subset_of(plain.realized)


@pytest.mark.parametrize("field", ["max_dim", "max_summands", "max_candidates"])
@pytest.mark.parametrize("value", [0, -3])
def test_search_space_rejects_empty_budgets(field, value):
    with pytest.raises(ValueError, match="must be >= 1"):
        SearchSpace(**{field: value})


def test_spec_json(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[1], 1.0)
    doc = spec.to_json_dict()
    assert doc["descriptor"] == "zmod:12"
    assert doc["kind"] == "torus"
    assert doc["realized_members"] == [0, 1, 11]
    assert doc["m"] == 1


# On Z/12, each search rejects its first candidate, the whole group (noise is
# not constant on it, and the evens' product sets are the evens), and each
# reaches an accept within the default budget
SEARCHES = {
    "regularity": lambda noise, evens, space: search_regular_bohr(
        noise, 0.1, ZetaRule.constant(1e-6), space),
    "bogolyubov": lambda noise, evens, space: bogolyubov_search(
        evens, 0.5, space),
    "two-set": lambda noise, evens, space: two_set_bogolyubov(
        evens, evens, 0.5, ZetaRule.constant(0.05), space),
    "croot-sisask": lambda noise, evens, space: shift_invariance_search(
        noise, 2, 0.05, space),
}


@pytest.mark.parametrize("budget,status", [(1, "none-within-budget"),
                                           (5000, "ok")])
@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_every_search_returns_one_result(z12, search, budget, status):
    noise = random_pm1_function(z12, rng_from_seed(2))
    space = SearchSpace(max_candidates=budget)
    res = SEARCHES[search](noise, evens_subset(z12), space)
    assert res.status == status
    assert (res.status == "ok") == (res.spec is not None and res.found is not None)
    assert res.status == "ok" or (res.spec is None and res.found is None)
    assert 1 <= res.candidates_scored <= space.max_candidates
