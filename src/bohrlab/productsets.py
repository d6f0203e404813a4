"""Bohr neighborhoods inside product sets, covering lemmas, quasirandom
products, and shift almost-invariance.

Every probabilistic-sounding claim here is checked with exact counting; set
containments are verified exhaustively and re-verifiable from the returned
flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bohr import (BohrSpec, CandidateSpan, SearchResult, SearchSpace,
                   bohr_set, first_accepted, greedy_cover, is_symmetric)
from .convolve import overlap_function
from .gen import rng_from_seed
from .groups import (BLOCK_ENTRIES, FiniteGroup, GroupFunction, Subset,
                     check_eps, inverse_set, product_set, row_blocks)
from .regularity import ZetaRule, _allowance
from .reps import direct_sum_hom


@dataclass(frozen=True)
class SeparatedCover:
    """Greedy separated set F and high-overlap set S with G = F.S."""

    threshold: float
    s_set: Subset
    f_elements: tuple[int, ...]
    covers: bool

    @property
    def count(self) -> int:
        return len(self.f_elements)


def separated_cover(a: Subset, alpha: float) -> SeparatedCover:
    """Build S = {x : mu(A intersect xA) > alpha^2/2} and a maximal separated
    set F (mu(gA intersect hA) <= alpha^2/2 for distinct g, h in F), scanning
    elements in index order. Verifies G = F.S and |F| <= 2/alpha.
    """
    grp = a.group
    p, q = _require_density(a, alpha)
    cut = _half_square_cut(p, q, grp.order)
    counts = overlap_function(a).values * grp.order  # |A intersect xA|, integral
    counts = np.rint(counts).astype(np.int64)
    s_mask = counts > cut
    # mu(gA intersect hA) = overlap(g^-1 h): each h put in F blocks every g
    # too close to it, h itself included, as mu(A) >= alpha > alpha^2/2
    f_elems: list[int] = []
    blocked = np.zeros(grp.order, dtype=bool)
    while not blocked.all():
        h = int(np.argmin(blocked))
        f_elems.append(h)
        blocked |= counts[grp.table[grp.inverse, h]] > cut
    if len(f_elems) * p > 2 * q:
        raise RuntimeError("separated set exceeds the 2/alpha bound")
    covered = np.zeros(grp.order, dtype=bool)
    s_idx = np.flatnonzero(s_mask)
    for g in f_elems:
        covered[grp.table[g, s_idx]] = True
    if not covered.all():
        raise RuntimeError("F.S failed to cover the group")
    return SeparatedCover(threshold=p * p / (2 * q * q),
                          s_set=Subset(grp, s_mask),
                          f_elements=tuple(f_elems), covers=True)


@dataclass(frozen=True)
class CoveringCheck:
    """One covering lemma, checked exhaustively. When its hypotheses fail,
    ``conclusion_holds`` is None and ``witness`` gives the reason; a
    hypothesis-holding violation is a hard failure upstream."""

    hypothesis_met: bool
    conclusion_holds: Optional[bool]
    witness: dict


def symmetric_covering_check(x: Subset, y: Subset) -> CoveringCheck:
    """If 1 in X and mu(X^2 \\ Y) < mu(X)/2, check that X <= Y Y^-1."""
    if len(x) == 0 or x.group.identity not in x:
        return CoveringCheck(False, None, {"reason": "identity not in X"})
    gap = len(product_set(x, x).difference(y))
    if 2 * gap >= len(x):
        return CoveringCheck(False, None,
                             {"reason": "mu(X^2\\Y) >= mu(X)/2", "gap": gap})
    target = product_set(y, inverse_set(y))
    ok = x.is_subset_of(target)
    witness = {}
    if not ok:
        witness["violator"] = int(x.difference(target).indices[0])
    return CoveringCheck(True, ok, witness)


def translate_covering_check(c: Subset, x: Subset, d: Subset,
                             k: int) -> CoveringCheck:
    """If X = X^-1, G is covered by <= k left translates of X (certified by
    the greedy cover), and |X^2 \\ D| < |C|/k, check that C D^-1 contains a
    left translate of X."""
    grp = x.group
    if len(x) == 0 or not is_symmetric(x):
        return CoveringCheck(False, None, {"reason": "X not symmetric"})
    count, _ = greedy_cover(grp, x)
    if count > k:
        return CoveringCheck(False, None,
                             {"reason": "greedy cover exceeds k", "count": count})
    if k * len(product_set(x, x).difference(d)) >= len(c):
        return CoveringCheck(False, None, {"reason": "|X^2\\D| >= |C|/k"})
    target = product_set(c, inverse_set(d))
    hit = target.mask[grp.table[:, x.indices]].all(axis=1)
    ok = bool(hit.any())
    witness = {"translate": int(np.argmax(hit))} if ok else {}
    return CoveringCheck(True, ok, witness)


# ---------------------------------------------------------------------------
# Bogolyubov-type searches


def check_alpha(alpha: float) -> None:
    if not 0 < alpha <= 1:  # NaN fails too
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def density_size(alpha: float, order: int) -> int:
    """The least size of a subset of measure at least alpha in a group of
    ``order`` elements: ceil(alpha * order), exact for the float alpha."""
    check_alpha(alpha)
    p, q = float(alpha).as_integer_ratio()
    return -(-p * order // q)


def _half_square_cut(p: int, q: int, order: int) -> int:
    """floor(alpha^2 |G| / 2) for alpha = p / q: an integer count c has
    c / |G| > alpha^2 / 2 exactly when c > this cut."""
    return p * p * order // (2 * q * q)


def _require_density(a: Subset, alpha: float,
                     name: str = "A") -> tuple[int, int]:
    """Check mu(A) >= alpha; return alpha as the integer ratio (p, q)."""
    if len(a) < density_size(alpha, a.group.order):
        raise ValueError(f"mu({name}) = {len(a)}/{a.group.order} < alpha = {alpha}")
    return float(alpha).as_integer_ratio()


def _require_pair(a: Subset, b: Subset, alpha: float) -> tuple[int, int]:
    if b.group is not a.group:
        raise ValueError("A and B must live on the same group")
    ratio = _require_density(a, alpha, "A")
    _require_density(b, alpha, "B")
    return ratio


def _avoids(span: CandidateSpan, outside: np.ndarray) -> np.ndarray:
    """Which candidates of a span realize a set that meets no element of
    ``outside``, a mask: the sets inside the target it complements."""
    return ~(span.realized & outside).any(axis=1)


def bogolyubov_search(a: Subset, alpha: float,
                      space: SearchSpace = SearchSpace()) -> SearchResult[bool]:
    """First Bohr spec with realized set inside (A A^-1)^2, exhaustively
    verified (found is True); none-within-budget status otherwise."""
    _require_density(a, alpha)
    diff = product_set(a, inverse_set(a))
    target = product_set(diff, diff)
    outside = ~target.mask
    return first_accepted(
        a.group, space, lambda s: s.realized.is_subset_of(target) or None,
        lambda span: _avoids(span, outside))


def level_set_claim(a: Subset, b: Subset, alpha: float) -> dict:
    """Claim 1 of the two-set theorem, checked in exact integer arithmetic:
    S = {x : (1_A * 1_B)(x) > alpha^2/2} has |S| >= (alpha^2/2)|G|.
    Returns {"s_size": |S|, "bound": (alpha^2/2)|G|}."""
    grp = a.group
    p, q = _require_pair(a, b, alpha)
    # integer counts c(x) = |A intersect x B^-1| = |G| (1_A * 1_B)(x)
    binv_rows = b.mask[grp.table[grp.inverse, :]]
    counts = (a.mask.astype(np.int64) @ binv_rows).astype(np.int64)
    if int(counts.sum()) != len(a) * len(b):  # Fubini, exact
        raise RuntimeError("convolution counts do not sum to |A||B|")
    s_size = int(np.count_nonzero(counts > _half_square_cut(p, q, grp.order)))
    if 2 * q * q * s_size < p * p * grp.order:  # |S|/|G| < alpha^2/2
        raise RuntimeError("level-set lower bound failed (should be impossible)")
    return {"s_size": s_size, "bound": p * p / (2 * q * q) * grp.order}


def two_set_bogolyubov(a: Subset, b: Subset, alpha: float, zeta: ZetaRule,
                       space: SearchSpace = SearchSpace()
                       ) -> SearchResult[tuple[int, int]]:
    """Two-set Bogolyubov: find U with (i) |gU \\ AB| < zeta(delta,n)|G| for
    the best g, (ii) A B A^-1 containing a translate of U, and (iii)
    U <= AB (AB)^-1, all verified exhaustively. Found is (g_best, |gU \\ AB|).
    """
    grp = a.group
    _require_pair(a, b, alpha)
    ab = product_set(a, b)
    aba = product_set(ab, inverse_set(a))
    quad = product_set(ab, inverse_set(ab))

    def accept(spec: BohrSpec) -> Optional[tuple[int, int]]:
        rows = grp.table[:, spec.realized.indices]
        out_counts = (~ab.mask[rows]).sum(axis=1)
        g_best = int(np.argmin(out_counts))
        defect = int(out_counts[g_best])
        if (defect < zeta.value(spec.delta, spec.tau.dim) * grp.order
                and aba.mask[rows].all(axis=1).any()
                and spec.realized.is_subset_of(quad)):
            return g_best, defect
        return None

    outside_quad = ~quad.mask
    allowances = _allowance(zeta)

    def screen(span: CandidateSpan) -> np.ndarray:
        # accept evaluates zeta before its containments, so a row whose
        # zeta raises goes to it
        return _avoids(span, outside_quad) | np.isnan(allowances(span))

    return first_accepted(grp, space, accept, screen)


def four_product_bohr(a: Subset, alpha: float,
                      space: SearchSpace = SearchSpace()
                      ) -> SearchResult[tuple[BohrSpec, ...]]:
    """Find one Bohr spec inside all four product sets (AA^-1)^2, (A^-1 A)^2,
    A^2 A^-2, A^-2 A^2 by combining per-product specs block-diagonally at the
    smallest of their radii. One candidate walk gives each product set its
    first spec inside it, stopping once all four have one. The spec is the
    combined one, found the four per-product specs, candidates scored the
    walk's; a combined set outside a product set raises RuntimeError."""
    _require_density(a, alpha)
    grp = a.group
    ainv = inverse_set(a)
    diff, rdiff = product_set(a, ainv), product_set(ainv, a)
    square, isquare = product_set(a, a), product_set(ainv, ainv)
    targets = (product_set(diff, diff), product_set(rdiff, rdiff),
               product_set(square, isquare), product_set(isquare, square))
    found: list[Optional[BohrSpec]] = [None] * len(targets)
    outsides = [~t.mask for t in targets]

    def accept(spec: BohrSpec) -> Optional[bool]:
        for i, target in enumerate(targets):
            if found[i] is None and spec.realized.is_subset_of(target):
                found[i] = spec
        return all(found) or None

    # a row inside no product set completes nothing
    res = first_accepted(grp, space, accept, lambda span: np.any(
        [_avoids(span, outside) for outside in outsides], axis=0))
    if res.spec is None:
        return res
    combined = bohr_set(grp, direct_sum_hom([s.tau for s in found]),
                        min(s.delta for s in found))
    if not all(combined.realized.is_subset_of(t) for t in targets):
        raise RuntimeError("combined Bohr set escaped the intersection")
    return SearchResult("ok", combined, tuple(found), res.candidates_scored)


@dataclass(frozen=True)
class QuasirandomCheck:
    ab_density: float
    abc_covers: bool


def quasirandom_check(a: Subset, b: Subset, c: Subset,
                      alpha: float) -> QuasirandomCheck:
    """Exact |AB|/|G| and whether ABC = G. The quasirandomness degree d
    belongs to the group, not to a trial: see ``min_nontrivial_dim``."""
    grp = a.group
    for name, s in (("A", a), ("B", b), ("C", c)):
        _require_density(s, alpha, name)
    ab = product_set(a, b)
    abc = product_set(ab, c)
    return QuasirandomCheck(ab_density=len(ab) / grp.order,
                            abc_covers=len(abc) == grp.order)


def quasirandom_trials(group: FiniteGroup, alpha: float, trials: int, size: int,
                       seed: int = 0) -> list[tuple[int, QuasirandomCheck]]:
    """``trials`` quasirandom checks of three random ``size``-subsets each.

    Trial t draws A, B, C in turn from seed ``seed * 100003 + t`` and is
    returned as (that seed, ``quasirandom_check`` of those sets). The draws
    are made per trial; the checks run a block of trials at a time, with
    one gather for every trial's AB and one for ABC, each of at most
    BLOCK_ENTRIES entries (one trial at least).
    """
    if not trials >= 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = group.order
    if not 1 <= size <= n:
        raise ValueError(f"size must lie in [1, {n}], got {size}")
    if size < density_size(alpha, n):
        raise ValueError(f"mu(A) = {size}/{n} < alpha = {alpha}")
    table, out = group.table, []
    # the ABC gather takes n * size entries a trial, the AB one size * size
    for rows in row_blocks(trials, n * size):
        seeds = range(seed * 100003 + rows.start, seed * 100003 + rows.stop)
        k = len(seeds)
        a, b, c = draws = np.empty((3, k, size), dtype=np.int64)
        for i, trial_seed in enumerate(seeds):
            rng = rng_from_seed(trial_seed)  # as random_subset_of_size draws
            draws[:, i] = [rng.choice(n, size=size, replace=False)
                           for _ in range(3)]
        at = np.arange(0, k * n, n)  # each trial's row in the flat masks
        ab = np.zeros(k * n, dtype=bool)
        prods = table[a[:, :, None], b[:, None, :]]
        prods += at[:, None, None]
        ab[prods] = True
        # g in ABC iff g c^-1 in AB for some c in C
        idx = table[:, group.inverse[c]]
        idx += at[:, None]
        covers = ab[idx].any(axis=2).all(axis=0)
        out += [(s, QuasirandomCheck(int(m) / n, bool(cov))) for s, m, cov
                in zip(seeds, ab.reshape(k, n).sum(axis=1), covers)]
    return out


def shift_invariance_search(f: GroupFunction, p: float, eps: float,
                            space: SearchSpace = SearchSpace(),
                            min_size: int = 1) -> SearchResult[float]:
    """First Bohr spec B with sup over t in B of ||f_t - f||_p < eps, found
    with that sup: the first Bohr set inside f's almost-periods.

    Every t's norm is computed before the walk, so the screen is the exact
    test: the size, and no shift whose norm reaches eps. The singleton Bohr
    set trivially passes; ``min_size`` can exclude it (and other small
    sets), which still count as scored.
    """
    if not 1 <= p < math.inf:  # NaN fails too
        raise ValueError(f"p must lie in [1, inf), got {p}")
    check_eps(eps)
    if not 1 <= min_size <= f.group.order:
        raise ValueError(
            f"min_size must lie in [1, {f.group.order}], got {min_size}")
    norms = _shift_norms(f, p)
    far = norms >= eps

    def accept(spec: BohrSpec) -> Optional[float]:
        sup = float(norms[spec.realized.indices].max(initial=0.0))
        return sup if len(spec.realized) >= min_size and sup < eps else None

    return first_accepted(f.group, space, accept, lambda span: (
        (span.sizes >= min_size) & _avoids(span, far)))


def _shift_norms(f: GroupFunction, p: float) -> np.ndarray:
    """||f_t - f||_p for every t, bitwise ``_lp``'s: a row block at a time in
    one buffer, each root taken alone (an array power rounds some apart)."""
    n, table = f.group.order, f.group.table
    norms, buf = np.empty(n), np.empty((min(n, max(1, BLOCK_ENTRIES // n)), n))
    for rows in row_blocks(n, n):
        diff = np.take(f.values, table[rows], out=buf[:rows.stop - rows.start],
                       mode="clip")  # "raise" would buffer the output
        diff -= f.values
        np.abs(diff, out=diff)
        diff **= p
        norms[rows] = [m ** (1.0 / p) for m in diff.mean(axis=1)]
    return norms
