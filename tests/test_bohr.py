import itertools
import math

import numpy as np
import pytest

from bohrlab import (SearchSpace, Subset, abelian_characters, bohr_set,
                     build_group, cover_bound_check, decompose_regular,
                     direct_sum_hom, enumerate_bohr_candidates, greedy_cover,
                     inverse_set, irreps_of, nm_refine, subgroup_test,
                     translate_set)
from bohrlab.bohr import NoDiagonalRefinementError, image_group


@pytest.fixture(scope="module")
def z12_chars(z12):
    return abelian_characters(z12)


def test_z12_chi1_delta1(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[1].rep, 1.0)
    assert sorted(spec.realized.indices) == [0, 1, 11]
    assert spec.kind == "torus"
    # x = 2 sits exactly on the boundary 2|sin(pi/6)| = 1 and is excluded
    assert 2 in spec.boundary_excluded
    assert z12.identity in spec.realized


def test_trivial_rep_full_group(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[0].rep, 2.0)
    assert len(spec.realized) == 12


def test_klein_kernel(klein8):
    chars = abelian_characters(klein8)
    nontrivial = next(c for c in chars
                      if np.max(np.abs(c.character - 1)) > 1e-6)
    spec = bohr_set(klein8, nontrivial.rep, 1.0)
    assert len(spec.realized) == 4
    assert subgroup_test(spec.realized) == (True, True)


def test_delta_range_validated(z12, z12_chars):
    for bad in (0.0, -1.0, 2.5):
        with pytest.raises(ValueError):
            bohr_set(z12, z12_chars[1].rep, bad)


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


def test_nm_refine_abelian_is_whole_image(z12, z12_chars):
    spec, m = nm_refine(z12, z12_chars[1].rep, 1.0)
    assert m == 1
    assert spec.kind == "nm"
    assert sorted(spec.realized.indices) == [0, 1, 11]


def test_nm_refine_quaternion(q8):
    irr = decompose_regular(q8)
    two = next(i.rep for i in irr if i.dim == 2)
    spec, m = nm_refine(q8, two, 1.0)
    assert m == 2
    assert len(spec.nm_subgroup) == 4
    assert spec.nm_subgroup.group.order == 8
    base = bohr_set(q8, two, 1.0)
    assert spec.realized.is_subset_of(base.realized)


def test_nm_refine_trivial_tau(z12, z12_chars):
    spec, m = nm_refine(z12, z12_chars[0].rep, 2.0)
    assert m == 1
    assert len(spec.realized) == 12


def test_nm_refine_simple_group_fails(a5):
    irr = decompose_regular(a5)
    three = next(i.rep for i in irr if i.dim == 3)
    with pytest.raises(NoDiagonalRefinementError):
        nm_refine(a5, three, 1.0)


def test_image_group_quaternion(q8):
    irr = decompose_regular(q8)
    two = next(i.rep for i in irr if i.dim == 2)
    img, elem_to_img, stack = image_group(two)
    assert img.order == 8  # faithful
    assert sorted(set(int(i) for i in elem_to_img)) == list(range(8))


def test_cover_bound_examples(z12, z12_chars, klein8):
    spec, _ = nm_refine(z12, z12_chars[1].rep, 1.0)
    assert cover_bound_check(spec) == (7, 4, True)

    chars8 = abelian_characters(klein8)
    nontrivial = next(c for c in chars8 if np.max(np.abs(c.character - 1)) > 1e-6)
    spec8, _ = nm_refine(klein8, nontrivial.rep, 1.0)
    assert cover_bound_check(spec8) == (7, 2, True)

    full_spec, m = nm_refine(z12, z12_chars[0].rep, 2.0)
    bound, actual, ok = cover_bound_check(full_spec)
    assert ok and actual == 1 and bound >= 1


def test_cover_bound_requires_nm(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[1].rep, 1.0)
    with pytest.raises(ValueError):
        cover_bound_check(spec)


def _constructed_specs(group, deltas=(2.0, 1.0, 0.5, 0.25, 0.1)):
    irreps = irreps_of(group)
    reps = [ir.rep for ir in irreps[:4]]
    if len(reps) >= 2:
        reps.append(direct_sum_hom([irreps[0].rep, irreps[1].rep]))
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
            cur = bohr_set(g, ir.rep, delta).realized
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
        expected = [("+".join(irreps[i].rep.label for i in combo), -neg_delta)
                    for _, neg_delta, _, combo in keyed[:space.max_candidates]]
        got = [(s.tau.label, s.delta)
               for s in enumerate_bohr_candidates(g, space)]
        assert got == expected, desc


def test_nm_contained_in_plain(q8):
    irr = decompose_regular(q8)
    two = next(i.rep for i in irr if i.dim == 2)
    for delta in (0.5, 1.0, 1.5, 2.0):
        plain = bohr_set(q8, two, delta)
        refined, _ = nm_refine(q8, two, delta)
        assert refined.realized.is_subset_of(plain.realized)


def test_spec_json(z12, z12_chars):
    spec = bohr_set(z12, z12_chars[1].rep, 1.0)
    doc = spec.to_json_dict()
    assert doc["descriptor"] == "zmod:12"
    assert doc["kind"] == "torus"
    assert doc["realized_members"] == [0, 1, 11]
    assert doc["m"] == 1
