"""Seeded generators for test sets and functions.

Everything here is deterministic given a seed; experiment reports record the
seed so payloads replay byte-identically.
"""

from __future__ import annotations

import numpy as np

from .groups import FiniteGroup, GroupFunction, Subset


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_subset(group: FiniteGroup, density: float,
                  rng: np.random.Generator) -> Subset:
    """Independent membership flips at the given density."""
    if not 0 <= density <= 1:  # NaN fails too
        raise ValueError(f"density must lie in [0, 1], got {density}")
    return Subset(group, rng.random(group.order) < density)


def random_subset_of_size(group: FiniteGroup, size: int,
                          rng: np.random.Generator) -> Subset:
    """A uniformly drawn set of exactly ``size`` elements."""
    if not 0 <= size <= group.order:
        raise ValueError(f"set size must lie in [0, {group.order}], got {size}")
    idx = rng.choice(group.order, size=size, replace=False)
    return Subset.from_indices(group, idx)


def random_pm1_function(group: FiniteGroup, rng: np.random.Generator) -> GroupFunction:
    return GroupFunction(group, rng.choice([-1.0, 1.0], size=group.order))


def random_uniform_function(group: FiniteGroup,
                            rng: np.random.Generator) -> GroupFunction:
    return GroupFunction(group, rng.uniform(-1.0, 1.0, size=group.order))


def random_indicator_function(group: FiniteGroup,
                              rng: np.random.Generator) -> GroupFunction:
    return GroupFunction.indicator(random_subset(group, 0.5, rng))


def interval_subset(group: FiniteGroup, radius: int) -> Subset:
    """The cyclic interval {-radius..radius} in a zmod group."""
    _require_zmod(group)
    if radius < 0:
        raise ValueError(f"interval radius must be >= 0, got {radius}")
    n = group.order
    radius = min(radius, n // 2)  # from n // 2 on the interval is all of Z/n
    return Subset.from_indices(group, np.arange(-radius, radius + 1) % n)


def halfrange_subset(group: FiniteGroup) -> Subset:
    """{0..(n-1)/2} in a zmod group of odd order."""
    _require_zmod(group)
    return Subset.from_indices(group, range((group.order - 1) // 2 + 1))


def evens_subset(group: FiniteGroup) -> Subset:
    """Even residues in a zmod group of even order (an index-2 subgroup)."""
    _require_zmod(group)
    if group.order % 2:
        raise ValueError("evens_subset needs even order")
    return Subset.from_indices(group, range(0, group.order, 2))


def remove_random_points(subset: Subset, count: int,
                         rng: np.random.Generator) -> Subset:
    """Drop ``count`` uniformly chosen members."""
    idx = subset.indices
    if not 0 <= count <= idx.size:
        raise ValueError(f"points to remove must lie in [0, {idx.size}], got {count}")
    drop = rng.choice(idx, size=count, replace=False)
    mask = subset.mask.copy()
    mask[drop] = False
    return Subset(subset.group, mask)


def _require_zmod(group: FiniteGroup) -> None:
    if not group.descriptor.startswith("zmod:"):
        raise ValueError(f"needs a zmod group, got {group.descriptor!r}")
