import math

import numpy as np
import pytest

from bohrlab import (GroupFunction, Subset, build_group, convolve,
                     convolve_fft_cyclic, inverse_set, lp_norm,
                     overlap_function, product_set, shift)
from bohrlab.gen import random_subset, random_uniform_function, rng_from_seed


def test_constant_convolution(z12):
    one = GroupFunction.constant(z12, 1.0)
    assert np.allclose(convolve(one, one).values, 1.0)


def test_z4_convolution_by_hand(z4):
    f = GroupFunction.indicator(Subset.from_indices(z4, [0, 1]))
    g = GroupFunction.indicator(Subset.from_indices(z4, [0, 3]))
    out = convolve(f, g)
    # independent 16-term sum
    expected = [sum(f(t) * g((x - t) % 4) for t in range(4)) / 4 for x in range(4)]
    assert np.allclose(out.values, expected)
    assert np.allclose(out.values, [0.5, 0.25, 0.0, 0.25])
    # Fubini identity, rescaled to counting measure
    assert out.values.sum() == pytest.approx(f.values.sum() * g.values.sum() / 4)
    assert out.values.sum() == pytest.approx(1.0)


def test_group_mismatch(z4, z12):
    with pytest.raises(ValueError):
        convolve(GroupFunction.constant(z4, 1.0), GroupFunction.constant(z12, 1.0))


def test_overlap_full_group(z12):
    assert np.allclose(overlap_function(Subset.full(z12)).values, 1.0)


def test_overlap_zpz_endpoints(z101):
    a = Subset.from_indices(z101, range(51))
    f = overlap_function(a)
    assert f(0) == pytest.approx(51 / 101)
    assert f(50) == pytest.approx(1 / 101)


def test_overlap_equals_convolution(z12, s3):
    rng = rng_from_seed(3)
    for g in (z12, s3):
        for _ in range(10):
            a = random_subset(g, 0.45, rng)
            direct = overlap_function(a)
            via_conv = convolve(GroupFunction.indicator(a),
                                GroupFunction.indicator(inverse_set(a)))
            assert np.max(np.abs(direct.values - via_conv.values)) < 1e-12


def test_overlap_support_is_product(z12):
    rng = rng_from_seed(11)
    for _ in range(5):
        a = random_subset(z12, 0.3, rng)
        if len(a) == 0:
            continue
        f = overlap_function(a)
        support = Subset(z12, f.values > 0)
        assert support == product_set(a, inverse_set(a))


def test_fft_matches_naive():
    g = build_group("zmod:16")
    rng = rng_from_seed(0)
    for _ in range(5):
        f = random_uniform_function(g, rng)
        h = random_uniform_function(g, rng)
        naive = convolve(f, h)
        fast = convolve_fft_cyclic(f, h)
        assert np.max(np.abs(naive.values - fast.values)) < 1e-10


def test_fft_point_mass(z12):
    delta = GroupFunction.indicator(Subset.singleton(z12, 0))
    g = random_uniform_function(z12, rng_from_seed(2))
    out = convolve_fft_cyclic(delta, g)
    assert np.allclose(out.values, g.values / 12)


def test_fft_constant(z12):
    a = GroupFunction.constant(z12, 0.5)
    b = GroupFunction.constant(z12, 0.5)
    assert np.allclose(convolve_fft_cyclic(a, b).values, 0.25)


@pytest.mark.parametrize("conv", [convolve, convolve_fft_cyclic])
def test_convolution_past_one_is_a_value_error(conv):
    # inputs a hair past [-1, 1] meet the max|f| max|g| guard, and their
    # result is one GroupFunction rejects
    g = build_group("zmod:16")
    f, h = GroupFunction.constant(g, -1 - 1e-12), GroupFunction.constant(g, 1 + 1e-12)
    with pytest.raises(ValueError, match="exceed"):
        conv(f, h)


def test_fft_rejects_noncyclic(s3):
    f = GroupFunction.constant(s3, 1.0)
    with pytest.raises(ValueError):
        convolve_fft_cyclic(f, f)


def test_lp_examples(z4):
    one = GroupFunction.constant(z4, 1.0)
    for p in (1, 2, 3.5):
        assert lp_norm(one, p) == pytest.approx(1.0)
    f = GroupFunction(z4, [0.5, 0.25, 0.0, 0.25])
    assert lp_norm(f, 1) == pytest.approx(0.25)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"p must lie in \[1, inf\)"):
            lp_norm(f, bad)


@pytest.mark.parametrize("density", [-0.1, 1.5, math.nan])
def test_random_subset_density_range(z12, density):
    with pytest.raises(ValueError, match=r"density must lie in \[0, 1\]"):
        random_subset(z12, density, rng_from_seed(0))


def test_shift_identity_and_invariance(z12):
    f = random_uniform_function(z12, rng_from_seed(4))
    assert np.array_equal(shift(f, z12.identity).values, f.values)
    for t in z12.elements():
        for p in (1, 2):
            assert lp_norm(shift(f, t), p) == pytest.approx(lp_norm(f, p))


def test_fubini_random(z12, s3, q8):
    rng = rng_from_seed(8)
    for g in (z12, s3, q8):
        for _ in range(20):
            f = random_uniform_function(g, rng)
            h = random_uniform_function(g, rng)
            out = convolve(f, h)
            assert abs(out.mean - f.mean * h.mean) < 1e-12
