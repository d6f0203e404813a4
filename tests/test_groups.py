import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import (GroupValidationError, Subset, build_group,
                     catalog_descriptors, from_cayley_table, inverse_set,
                     product_set, translate_set)
from bohrlab.gen import interval_subset
from bohrlab.groups import (GroupFunction, format_cayley_table, format_function,
                            format_subset, parse_function, parse_subset)

# order-5 loop: Latin square with identity 0 that fails associativity at (1,1,2)
NONASSOC_LOOP = """5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


def test_zmod6_basic():
    g = build_group("zmod:6")
    assert g.order == 6
    assert g.is_abelian
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4


def test_dihedral4_validates_by_brute_force():
    g = build_group("dihedral:4")
    assert g.order == 8
    assert not g.is_abelian
    # independent re-validation with plain loops
    t = g.table
    n = g.order
    for row in range(n):
        assert sorted(t[row]) == list(range(n))
        assert sorted(t[:, row]) == list(range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a, b], c] == t[a, t[b, c]]


def test_alt5_is_simple_by_brute_force(a5):
    assert a5.order == 60
    assert not a5.is_abelian
    # the normal closure of any non-identity element is the whole group
    for g in range(1, a5.order, 7):
        closure = {a5.identity, g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            new = {a5.conjugate(h, x) for h in a5.elements()}
            new |= {a5.mul(x, y) for y in list(closure)}
            new |= {a5.inv(x)}
            for y in new:
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert len(closure) == 60


def test_quaternion8():
    g = build_group("quaternion:8")
    assert g.order == 8
    assert not g.is_abelian
    assert g.exponent() == 4
    # exactly one element of order 2 (-1)
    assert sum(1 for a in g.elements() if g.element_order(a) == 2) == 1


def test_from_cayley_table_z2():
    g = from_cayley_table("2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.identity == 0


def test_from_cayley_table_rejects_non_latin():
    with pytest.raises(GroupValidationError, match="Latin"):
        from_cayley_table("2\n0 0\n1 0\n")
    try:
        from_cayley_table("2\n0 0\n1 0\n")
    except GroupValidationError as exc:
        assert exc.witness == 0


def test_from_cayley_table_rejects_nonassociative():
    with pytest.raises(GroupValidationError, match="associative"):
        from_cayley_table(NONASSOC_LOOP)
    try:
        from_cayley_table(NONASSOC_LOOP)
    except GroupValidationError as exc:
        a, b, c = exc.witness
        t = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                      [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
        assert t[t[a, b], c] != t[a, t[b, c]]


def test_from_cayley_table_rejects_missing_identity():
    # Latin square with no two-sided identity
    with pytest.raises(GroupValidationError, match="identity"):
        from_cayley_table("3\n0 1 2\n2 0 1\n1 2 0\n")


def test_cayley_round_trip(s3):
    text = format_cayley_table(s3)
    g2 = from_cayley_table(text)
    assert g2.order == 6
    assert not g2.is_abelian
    assert np.array_equal(g2.table, s3.table)


def test_unknown_descriptor_errors():
    with pytest.raises(ValueError):
        build_group("frobnicate:5")
    with pytest.raises(ValueError):
        build_group("sym:6")


def test_product_set_examples(z4):
    a = Subset.from_indices(z4, [0, 1])
    assert sorted(product_set(a, Subset.singleton(z4, 0)).indices) == [0, 1]
    # enumerate the 4 pairs by hand
    expected = sorted({(x + y) % 4 for x in (0, 1) for y in (0, 1)})
    assert sorted(product_set(a, a).indices) == expected == [0, 1, 2]
    full = Subset.full(z4)
    assert product_set(full, a) == full


def test_inverse_set_examples(z4):
    a = Subset.from_indices(z4, [0, 1])
    assert sorted(inverse_set(a).indices) == [0, 3]
    sym = Subset.from_indices(z4, [1, 3])
    assert inverse_set(sym) == sym
    assert inverse_set(inverse_set(a)) == a


def test_translate_examples(z4):
    a = Subset.from_indices(z4, [0, 1])
    assert translate_set(z4.identity, a) == a
    assert sorted(translate_set(2, a, "left").indices) == [2, 3]
    for g in z4.elements():
        assert len(translate_set(g, a, "left")) == len(a)
        assert len(translate_set(g, a, "right")) == len(a)


def test_group_mismatch_errors(z4, z6):
    a = Subset.from_indices(z4, [0])
    b = Subset.from_indices(z6, [0])
    with pytest.raises(ValueError):
        product_set(a, b)


def test_measure_invariance_exhaustive_small():
    rng = np.random.default_rng(5)
    for desc in catalog_descriptors(24):
        g = build_group(desc)
        for _ in range(3):
            a = Subset(g, rng.random(g.order) < 0.4)
            for x in g.elements():
                assert len(translate_set(x, a, "left")) == len(a)
                assert len(translate_set(x, a, "right")) == len(a)


def test_product_set_associative_sampled(z12, s3):
    rng = np.random.default_rng(9)
    for g in (z12, s3):
        for _ in range(10):
            a = Subset(g, rng.random(g.order) < 0.4)
            b = Subset(g, rng.random(g.order) < 0.4)
            c = Subset(g, rng.random(g.order) < 0.4)
            assert product_set(product_set(a, b), c) == product_set(a, product_set(b, c))


def test_catalog_builds_and_validates():
    for desc in catalog_descriptors(100):
        g = build_group(desc)
        assert g.mul(g.identity, 1 % g.order) == 1 % g.order
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == g.identity
        if desc.startswith(("zmod", "product")):
            assert g.is_abelian
        if desc.startswith(("dihedral:3", "dihedral:4", "sym", "alt:4", "alt:5",
                            "quaternion")):
            assert not g.is_abelian


def test_subset_files_round_trip(z12):
    a = Subset.from_indices(z12, [0, 3, 7])
    assert parse_subset(z12, format_subset(a)) == a
    assert parse_subset(z12, "") == Subset.empty(z12)


def test_function_files_round_trip(z12):
    f = GroupFunction(z12, np.linspace(-1, 1, 12))
    g = parse_function(z12, format_function(f))
    assert np.array_equal(g.values, f.values)


def test_function_bound_enforced(z4):
    with pytest.raises(ValueError):
        GroupFunction(z4, [0.0, 0.5, 1.5, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_function_values_must_be_finite(z4, bad):
    with pytest.raises(ValueError, match="finite"):
        GroupFunction(z4, [0.0, 0.5, bad, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11)))
def test_inverse_set_involution_property(members):
    g = build_group("zmod:12")
    a = Subset.from_indices(g, members)
    assert inverse_set(inverse_set(a)) == a
    assert len(inverse_set(a)) == len(a)


@pytest.mark.parametrize("n", [1, 2, 11, 12])
def test_interval_subset_matches_residues(n):
    g = build_group(f"zmod:{n}")
    for r in range(2 * n + 2):
        expected = {x % n for x in range(-r, r + 1)}
        assert set(interval_subset(g, r).indices.tolist()) == expected


def test_interval_subset_wide_radius_costs_o_n(z12):
    # from r = n // 2 on the interval is all of Z/n; a radius of 10**6 must
    # not list its 2 * 10**6 + 1 residues
    tracemalloc.start()
    try:
        wide = interval_subset(z12, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wide == Subset.full(z12)
    assert peak < 1 << 20


def test_interval_subset_rejects_negative_radius(z12):
    with pytest.raises(ValueError, match="interval radius must be >= 0, got -3"):
        interval_subset(z12, -3)
