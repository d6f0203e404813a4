"""Convolutions, overlap functions, shifts, and L^p norms.

All integrals are exact sums under the normalized counting measure; nothing
is sampled. Convolution output is not clamped: |f*g| <= max|f| max|g| holds
mathematically and a post-check guards the numerics.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import GroupFunction, Subset

_GUARD = 1e-12


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = (1/|G|) sum_t f(t) g(t^-1 x)."""
    grp = f.group
    if g.group is not grp:
        raise ValueError("convolve requires functions on the same group")
    # row t of shifted holds g(t^-1 x) over x
    shifted = g.values[grp.table[grp.inverse, :]]
    return _checked(f, g, f.values @ shifted / grp.order)


def overlap_function(a: Subset) -> GroupFunction:
    """x -> mu(A intersect xA), computed by direct counting.

    Equals convolve(1_A, 1_{A^-1}); the direct count keeps this routine
    independent of the convolution path.
    """
    grp = a.group
    idx = a.indices
    if idx.size == 0:
        return GroupFunction.constant(grp, 0.0)
    counts = a.mask[grp.table[:, idx]].sum(axis=1)
    return GroupFunction(grp, counts / grp.order)


def convolve_fft_cyclic(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """FFT convolution path; requires a zmod:n group."""
    grp = f.group
    if g.group is not grp:
        raise ValueError("convolve requires functions on the same group")
    if not grp.descriptor.startswith("zmod:"):
        raise ValueError(f"FFT path requires a zmod group, got {grp.descriptor!r}")
    n = grp.order
    return _checked(f, g, np.fft.irfft(np.fft.rfft(f.values)
                                       * np.fft.rfft(g.values), n=n) / n)


def _checked(f: GroupFunction, g: GroupFunction, out: np.ndarray) -> GroupFunction:
    """f*g from its values ``out``, held to max|f| max|g| + _GUARD; a result
    past 1 + VALUE_TOL is GroupFunction's ValueError."""
    bound = np.max(np.abs(f.values)) * np.max(np.abs(g.values))
    if not np.max(np.abs(out)) <= bound + _GUARD:  # NaN fails too
        raise RuntimeError("convolution output left max|f| max|g|")
    return GroupFunction(f.group, out)


def shift(f: GroupFunction, t: int) -> GroupFunction:
    """The shifted function x -> f(t x)."""
    return GroupFunction(f.group, f.values[f.group.table[t, :]])


def lp_norm(f: GroupFunction, p: float) -> float:
    """(mean |f|^p)^(1/p) under the normalized counting measure."""
    return _lp(f.values, p)


def _lp(values: np.ndarray, p: float) -> float:
    if not 1 <= p < math.inf:  # NaN fails too
        raise ValueError(f"p must lie in [1, inf), got {p}")
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))
