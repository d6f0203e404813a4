import math

import numpy as np
import pytest

from bohrlab import (abelian_characters, build_group, catalog_descriptors,
                     decompose_regular, direct_sum_hom, measure_hom_residual,
                     min_nontrivial_dim, operator_distance)
from bohrlab.reps import UnitaryRep, export_rep, parse_rep


def test_abelian_characters_z3():
    g = build_group("zmod:3")
    chars = abelian_characters(g)
    assert len(chars) == 3
    assert chars[1].character[1] == pytest.approx(np.exp(2j * np.pi / 3))
    assert all(c.dim == 1 for c in chars)


def test_abelian_characters_klein():
    g = build_group("product:zmod:2,zmod:2")
    chars = abelian_characters(g)
    assert len(chars) == 4
    for c in chars:
        assert np.allclose(np.abs(c.character.imag), 0, atol=1e-14)
        assert set(np.round(c.character.real).astype(int)) <= {1, -1}


def test_character_orthogonality_exact():
    g = build_group("zmod:12")
    chars = abelian_characters(g)
    mat = np.array([c.character for c in chars])
    gram = mat @ mat.conj().T / g.order
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


def test_abelian_characters_rejects_nonabelian(s3):
    with pytest.raises(ValueError):
        abelian_characters(s3)


def test_decompose_z3():
    g = build_group("zmod:3")
    irr = decompose_regular(g)
    assert sorted(i.dim for i in irr) == [1, 1, 1]


def test_decompose_s3(s3):
    irr = decompose_regular(s3, seed=0)
    dims = sorted(i.dim for i in irr)
    assert dims == [1, 1, 2]
    assert sum(d * d for d in dims) == 6
    chars = [i.character for i in irr]
    for a in range(3):
        for b in range(3):
            ip = np.vdot(chars[a], chars[b]) / 6
            assert abs(ip - (1 if a == b else 0)) < 1e-6


def test_decompose_alt5(a5):
    irr = decompose_regular(a5, seed=0)
    assert sorted(i.dim for i in irr) == [1, 3, 3, 4, 5]
    assert min_nontrivial_dim(a5) == 3


def test_multiplicity_equals_dim(s3, q8):
    for g in (s3, q8):
        for ir in decompose_regular(g):
            assert ir.multiplicity_in_regular == ir.dim


def test_direct_sum_single_is_same(z12):
    rep = abelian_characters(z12)[1].rep
    assert direct_sum_hom([rep]) is rep


def test_direct_sum_two_characters(z12):
    chars = abelian_characters(z12)
    combined = direct_sum_hom([chars[1].rep, chars[2].rep])
    assert combined.dim == 2
    for x in z12.elements():
        d1 = operator_distance(chars[1].rep.matrix(x))
        d2 = operator_distance(chars[2].rep.matrix(x))
        assert operator_distance(combined.matrix(x)) == pytest.approx(max(d1, d2))


def test_direct_sum_all_s3_irreps_is_faithful(s3):
    irr = decompose_regular(s3)
    total = direct_sum_hom([i.rep for i in irr])
    assert total.dim == 4
    assert list(total.kernel_indices()) == [s3.identity]


def test_hom_residuals():
    z5 = build_group("zmod:5")
    trivial = abelian_characters(z5)[0].rep
    assert trivial.hom_residual == 0.0
    for c in abelian_characters(z5):
        assert c.rep.hom_residual <= 1e-12
    for ir in decompose_regular(build_group("sym:4")):
        assert ir.rep.hom_residual <= 1e-9
        assert ir.rep.unitarity_residual <= 1e-9


def test_operator_distance_examples():
    assert operator_distance(np.eye(3)) == pytest.approx(0.0)
    for dim in (1, 2, 4):
        assert operator_distance(-np.eye(dim)) == pytest.approx(2.0)
    m = np.diag([np.exp(2j * np.pi / 12), 1.0])
    assert operator_distance(m) == pytest.approx(2 * math.sin(math.pi / 12))
    with pytest.raises(ValueError):
        operator_distance(np.ones((2, 3)))


def test_min_nontrivial_dims(s3):
    assert min_nontrivial_dim(build_group("zmod:7")) == 1
    assert min_nontrivial_dim(s3) == 1  # sign character


def test_metric_bi_invariance():
    rng = np.random.default_rng(0)
    for dim in (2, 3):
        for _ in range(5):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0]
            v = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0]
            lhs = np.linalg.svd(u @ m @ v - u @ v, compute_uv=False)[0]
            assert lhs == pytest.approx(operator_distance(m), abs=1e-10)


def test_sum_dim_sq_catalog_small():
    for desc in catalog_descriptors(24):
        g = build_group(desc)
        irr = decompose_regular(g)
        assert sum(i.dim ** 2 for i in irr) == g.order


def test_identity_snapped(q8):
    for ir in decompose_regular(q8):
        assert np.array_equal(ir.rep.matrix(q8.identity), np.eye(ir.dim))


def test_export_parse_round_trip(s3):
    irr = decompose_regular(s3)
    two = next(i.rep for i in irr if i.dim == 2)
    text = export_rep(two)
    back = parse_rep(text, s3)
    assert back.dim == 2
    assert np.max(np.abs(back.matrices - two.matrices)) < 1e-15
    assert back.hom_residual <= 1e-9


def test_sampled_residual_large_group():
    # above order 316 the n^2 pairs outnumber the sample
    g = build_group("zmod:400")
    x = np.arange(g.order)
    rep = UnitaryRep(g, np.exp(2j * np.pi * 3 * x / g.order).reshape(-1, 1, 1))
    assert measure_hom_residual(rep) <= 1e-12


def _brute_force_residual(rep):
    mats, table = rep.matrices, rep.group.table
    diff = mats[table] - np.einsum("aij,bjk->abik", mats, mats)
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(-2, -1))))


def test_residual_exhaustive_on_z101_characters():
    g = build_group("zmod:101")
    reps = [c.rep for c in abelian_characters(g)]
    planted = abelian_characters(g)[7].character.copy()
    planted[40] *= np.exp(1e-6j)
    reps.append(UnitaryRep(g, planted.reshape(-1, 1, 1), label="planted"))
    for rep in reps:
        assert rep.hom_residual == measure_hom_residual(rep)
        assert abs(rep.hom_residual - _brute_force_residual(rep)) <= 1e-15
    assert reps[-1].hom_residual > 0.9e-6


def test_residual_exhaustive_on_dihedral50_irreps():
    irreps = decompose_regular(build_group("dihedral:50"))
    assert len(irreps) == 28
    for ir in irreps:
        assert abs(measure_hom_residual(ir.rep)
                   - _brute_force_residual(ir.rep)) <= 1e-15
