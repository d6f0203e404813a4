"""(delta,K)-Bohr neighborhoods from unitary homomorphisms.

A Bohr neighborhood is the preimage under a homomorphism tau: G -> U(n) of
the open identity ball of radius delta in the operator-norm metric. This
module constructs them, measures covering numbers, tests subgroup structure,
and refines them through a diagonal normal subgroup of the image when one
exists in the stored basis.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, Optional, TypeVar

import numpy as np

from .groups import BLOCK_ENTRIES, FiniteGroup, Subset, inverse_set, row_blocks
from .reps import UnitaryRep, direct_sum_hom, irreps_of

logger = logging.getLogger("bohrlab.bohr")

BOUNDARY_TOL = 1e-12
DIAGONAL_TOL = 1e-8
DEFAULT_DELTA_GRID = (2.0, 1.0, 0.5, 0.25, 0.15, 0.1, 0.05)
T = TypeVar("T")


class NoDiagonalRefinementError(ValueError):
    """The image has no diagonal normal subgroup in the stored basis."""


@dataclass(frozen=True)
class BohrSpec:
    """A realized Bohr neighborhood: homomorphism, radius, and element set.

    ``kind`` is ``torus`` when every summand of tau has dim 1, ``nm`` for a
    refinement through a diagonal normal subgroup, and ``unitary`` otherwise.
    For ``nm``, ``nm_subgroup`` is K <= G, the elements with diagonal tau(g),
    and ``m`` its index: tau(K) is the diagonal part of the image, and
    |K| = |tau(K)| * |ker tau|.
    """

    tau: UnitaryRep
    delta: float
    kind: str
    realized: Subset
    m: int = 1
    nm_subgroup: Optional[Subset] = None
    boundary_excluded: tuple[int, ...] = field(default=())

    @property
    def group(self) -> FiniteGroup:
        return self.tau.group

    def to_json_dict(self) -> dict:
        return {
            "descriptor": self.group.descriptor,
            "irrep_multiset": self.tau.label.split("+"),
            "delta": self.delta,
            "kind": self.kind,
            "m": self.m,
            "realized_members": [int(i) for i in self.realized.indices],
        }


def bohr_set(group: FiniteGroup, tau: UnitaryRep, delta: float) -> BohrSpec:
    """The (delta, U(n))-Bohr neighborhood {g : ||tau(g) - I||_op < delta}.

    Membership is strict (open ball); elements whose distance sits within
    1e-12 of delta are excluded and logged as boundary cases. The candidate
    walk makes the same comparisons through its level table.
    """
    if tau.group is not group:
        raise ValueError("tau is not a representation of the given group")
    _check_delta(delta)
    dist = tau.identity_distances()
    return _spec(tau, delta, dist, dist < delta - BOUNDARY_TOL)


def _spec(tau: UnitaryRep, delta: float, dist: np.ndarray,
          realized: np.ndarray) -> BohrSpec:
    """The spec of tau's Bohr set at delta, given tau's distance row and
    the mask ``dist < delta - BOUNDARY_TOL``; the elements whose distance
    is within BOUNDARY_TOL of delta are logged as the boundary it
    excludes."""
    boundary = tuple((np.abs(dist - delta) <= BOUNDARY_TOL).nonzero()[0].tolist())
    if boundary:
        logger.debug("bohr_set %s delta=%g: excluded boundary elements %s",
                     tau.label, delta, list(boundary))
    # an irreducible of dim >= 2 has no basis making all its matrices diagonal
    kind = "torus" if tau.dim == (len(tau.summands) or 1) else "unitary"
    return BohrSpec(tau=tau, delta=float(delta), kind=kind,
                    realized=Subset(tau.group, realized),
                    boundary_excluded=boundary)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")


def greedy_cover(group: FiniteGroup, b: Subset) -> tuple[int, list[int]]:
    """Cover G by left translates of B, greedily.

    Each step picks the translate covering the most uncovered elements, ties
    broken by smallest translating element; the count upper-bounds the true
    covering number.
    """
    if b.group is not group:
        raise ValueError("subset belongs to a different group")
    if len(b) == 0:
        raise ValueError("cannot cover with an empty set")
    translate_rows = group.table[:, b.indices]  # row g = elements of gB
    uncovered = np.ones(group.order, dtype=bool)
    picks: list[int] = []
    while uncovered.any():
        gains = uncovered[translate_rows].sum(axis=1)
        g = int(np.argmax(gains))
        picks.append(g)
        uncovered[translate_rows[g]] = False
    return len(picks), picks


def subgroup_test(b: Subset) -> tuple[bool, bool]:
    """Exhaustive closure and conjugation checks.

    Returns (is_subgroup, is_normal) where normality means gBg^-1 = B for
    every g (checked whether or not B is a subgroup).
    """
    grp = b.group
    idx = b.indices
    if idx.size == 0:
        return False, False
    closed = bool(b.mask[grp.table[np.ix_(idx, idx)]].all())
    has_identity = grp.identity in b
    has_inverses = bool(b.mask[grp.inverse[idx]].all())
    is_subgroup = closed and has_identity and has_inverses

    # row g holds g b g^-1 over b in B
    conj = grp.table[grp.table[:, idx], grp.inverse[:, None]]
    return is_subgroup, bool(b.mask[conj].all())


# ---------------------------------------------------------------------------
# (delta, n, m) refinement


def nm_refine(group: FiniteGroup, tau: UnitaryRep,
              delta: float) -> tuple[BohrSpec, int]:
    """Refine a Bohr set through the diagonal part of the image.

    K = {g : tau(g) is diagonal in the stored basis} contains ker tau, so by
    the correspondence theorem tau(K) is a normal subgroup of index m in
    tau(G) exactly when K is a normal subgroup of index m in G. Then the
    (delta, n, m)-Bohr set is B(tau, delta) intersect K, contained in the
    plain Bohr set. Raises NoDiagonalRefinementError otherwise. A torus is
    diagonal everywhere, so its K is G and its matrices are not read.
    """
    base = bohr_set(group, tau, delta)
    if base.kind == "torus":
        k_sub = Subset(group, np.ones(group.order, dtype=bool))
    else:
        off_diag = tau.matrices * (1.0 - np.eye(tau.dim))
        k_sub = Subset(group, np.max(np.abs(off_diag), axis=(1, 2)) <= DIAGONAL_TOL)
        if subgroup_test(k_sub) != (True, True):
            raise NoDiagonalRefinementError("no diagonal refinement in given basis")
    m = group.order // len(k_sub)
    spec = BohrSpec(tau=tau, delta=float(delta), kind="nm",
                    realized=base.realized.intersection(k_sub),
                    m=m, nm_subgroup=k_sub,
                    boundary_excluded=base.boundary_excluded)
    return spec, m


def cover_bound_check(spec: BohrSpec) -> tuple[int, int, bool]:
    """Check the measured cover count against m * ceil(2*pi/delta)^n.

    Requires an nm-kind spec. Returns (bound, actual, ok).
    """
    if spec.kind != "nm":
        raise ValueError("cover_bound_check requires an nm-kind Bohr spec")
    bound = spec.m * math.ceil(2.0 * math.pi / spec.delta) ** spec.tau.dim
    actual, _ = greedy_cover(spec.group, spec.realized)
    return bound, actual, actual <= bound


# ---------------------------------------------------------------------------
# Candidate enumeration shared by the search operations


@dataclass(frozen=True)
class SearchSpace:
    """Budgeted enumeration space over direct sums of computed irreducibles.

    Every delta of the grid is checked here, so a search's outcome does not
    depend on how far its walk gets before it reaches a bad one.
    """

    delta_grid: tuple[float, ...] = DEFAULT_DELTA_GRID
    max_dim: int = 8
    max_summands: int = 3
    max_candidates: int = 5000

    def __post_init__(self):
        for name in ("max_dim", "max_summands", "max_candidates"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}") from None
        if min(self.max_dim, self.max_summands, self.max_candidates) < 1:
            raise ValueError("max_dim, max_summands and max_candidates must be >= 1")
        if not self.delta_grid:
            raise ValueError("delta_grid must hold at least one delta")
        for delta in self.delta_grid:
            _check_delta(delta)


class CandidateSpan:
    """A block of the walk: candidates of one (n, delta) level, in walk
    order, or whole radius rounds of one small level. The span's rows run
    through ``combos`` once per radius, from the grid's delta ``first``
    on: row i is the direct sum of the irreps ``combos[i % len(combos)]``
    indexes (increasing, padded by repeating the last index), of total
    dimension ``dim``, at radius ``grid[first + i // len(combos)]``.
    ``realized`` holds the rows' realized sets as a boolean matrix (a row
    per candidate, a column per element) and ``sizes`` their sizes.
    ``spec(i)`` builds row i's direct sum and BohrSpec, so a search builds
    them only for the rows it reads."""

    def __init__(self, irreps: list[UnitaryRep], combos: np.ndarray,
                 grid: tuple[float, ...], first: int, dim: int,
                 realized: np.ndarray):
        self.irreps, self.combos, self.grid = irreps, combos, grid
        self.first, self.dim = first, dim
        self.rounds = -(-len(realized) // len(combos))
        self.realized, self.sizes = realized, realized.sum(axis=1)

    def __len__(self) -> int:
        return len(self.realized)

    def per_row(self, values: np.ndarray) -> np.ndarray:
        """``values``, one per delta of the grid, at each row's radius."""
        return np.repeat(values[self.first:self.first + self.rounds],
                         len(self.combos))[:len(self)]

    @property
    def radii(self) -> np.ndarray:
        """Each row's radius."""
        return self.per_row(np.array(self.grid, dtype=float))

    def spec(self, i: int) -> BohrSpec:
        combo, step = self.combos[i % len(self.combos)], i // len(self.combos)
        tau = direct_sum_hom([self.irreps[k] for k in sorted(set(combo.tolist()))])
        return _spec(tau, self.grid[self.first + step], tau.identity_distances(),
                     self.realized[i])


def _level_table(group: FiniteGroup, irreps: list[UnitaryRep],
                 grid: tuple[float, ...]) -> np.ndarray:
    """The level table L of the irreps under the grid delta_0 > delta_1 >
    ...: L[k, g] counts the i with d_k(g) < delta_i - BOUNDARY_TOL, d_k
    being irrep k's distance row, in the smallest unsigned dtype that holds
    len(grid).

    Those thresholds do not increase with i, so d_k(g) < delta_i -
    BOUNDARY_TOL exactly when L[k, g] > i. A direct sum's distance is the
    max of its summands', so a candidate C realizes at delta_i exactly
    {g : min over k in C of L[k, g] > i}, on the floats ``bohr_set``
    compares. The group keeps the table of the last grid it was searched
    under. A table is built in row blocks, and published whole by one
    assignment.
    """
    slot = group._levels
    if slot is not None and slot[0] == grid:
        return slot[1]
    table = np.zeros((len(irreps), group.order),
                     dtype=np.min_scalar_type(len(grid)))
    for rows in row_blocks(len(irreps), group.order):
        dist = np.array([rep.identity_distances() for rep in irreps[rows]])
        for delta in grid:
            table[rows] += dist < delta - BOUNDARY_TOL
    group._levels = (grid, table)
    return table


def _combos(group: FiniteGroup, irreps: list[UnitaryRep], n: int,
            width: int) -> np.ndarray:
    """Level n's combos of at most ``width`` <= n summands: every set of
    that many irreps of total dimension n, fewer summands first, then
    lexicographic, one row each of increasing indices padded to ``width``
    by repeating the last. Generated straight into the array and kept on
    the group."""
    combos = group._combos.get((n, width))
    if combos is None:
        dims = [rep.dim for rep in irreps]
        rows = (combo + combo[-1:] * (width - count)
                for count in range(1, width + 1) if count * max(dims) >= n
                for combo in itertools.combinations(range(len(irreps)), count)
                if sum(dims[k] for k in combo) == n)
        combos = np.fromiter(itertools.chain.from_iterable(rows),
                             np.min_scalar_type(len(irreps) - 1)
                             ).reshape(-1, width)
        group._combos[(n, width)] = combos
    return combos


def _spans(group: FiniteGroup, space: SearchSpace) -> Iterator[CandidateSpan]:
    """The candidate walk of ``space`` on ``group``, a span at a time,
    realized from the group's level table (see ``_level_table``). A level
    is walked radius-major: every combo at delta_0, then at delta_1, and so
    on. With size = max(1, BLOCK_ENTRIES // |G|), a level of ``count``
    combos whose rounds = size // len(grid) // count is at least 1 is
    walked ``rounds`` whole radius rounds a span (at most size // len(grid)
    rows), from one realization of its combos, their min level row, round i
    being ``mins > i``. A larger level is walked a radius at a time, cut
    into spans of ``size`` combos. Spans end early at the budget. Every
    search walks afresh: what it reads off the group (its irreps, level
    table and combos) depends on the group and the sorted distinct grid
    alone.
    """
    grid = tuple(sorted(set(space.delta_grid), reverse=True))
    irreps = irreps_of(group)
    levels = _level_table(group, irreps, grid)
    dims = sorted([rep.dim for rep in irreps], reverse=True)
    top = min(space.max_dim, sum(dims[:space.max_summands]))
    size, left = max(1, BLOCK_ENTRIES // group.order), space.max_candidates
    for n in range(1, top + 1):
        if not left:
            return
        # at most n summands, as each has dim >= 1
        combos = _combos(group, irreps, n, min(n, space.max_summands))
        count = len(combos)
        rounds = size // len(grid) // count if count else 0
        if rounds:
            walked = min(left, count * len(grid))
            block = combos[:walked]
            mins = np.minimum.reduce(levels.take(block.T, axis=0))
            for start in range(0, walked, rounds * count):
                rows = min(rounds * count, walked - start)
                first = start // count
                # each round's index, in the table's dtype (a mixed compare
                # is slower)
                steps = np.arange(first, first - (-rows // count),
                                  dtype=levels.dtype)[:, None, None]
                realized = (mins > steps).reshape(-1, group.order)[:rows]
                yield CandidateSpan(irreps, block, grid, first, n, realized)
            left -= walked
            continue
        for i in range(len(grid)):
            walked = combos[:left]
            for start in range(0, len(walked), size):
                block = walked[start:start + size]
                realized = np.minimum.reduce(levels.take(block.T, axis=0)) > i
                yield CandidateSpan(irreps, block, grid, i, n, realized)
            left -= len(walked)


def enumerate_bohr_candidates(group: FiniteGroup,
                              space: SearchSpace = SearchSpace()) -> Iterator[BohrSpec]:
    """Yield candidate Bohr specs in preference order.

    Order: smaller total dimension n first, then larger delta, then fewer
    irrep summands, then lexicographic irrep indices. Stops after
    ``space.max_candidates`` yields, or once n passes the largest total
    dimension that ``space.max_summands`` irreps reach. Each call walks
    afresh (see ``_spans``) and builds a spec per candidate it yields.
    """
    for span in _spans(group, space):
        for i in range(len(span)):
            yield span.spec(i)


@dataclass(frozen=True)
class SearchResult(Generic[T]):
    """A Bohr search's outcome: ``ok`` with the accepted spec and what
    ``accept`` returned for it, or ``none-within-budget`` with both None."""

    status: str  # "ok" | "none-within-budget"
    spec: Optional[BohrSpec]
    found: Optional[T]
    candidates_scored: int


def first_accepted(group: FiniteGroup, space: SearchSpace,
                   accept: Callable[[BohrSpec], Optional[T]],
                   screen: Callable[[CandidateSpan], np.ndarray]
                   ) -> SearchResult[T]:
    """The first candidate, in preference order, that ``accept`` takes.

    Every candidate of the walk up to the accepted one counts as scored;
    empty realized sets are skipped. ``accept`` returns None to reject.

    The walk is read a span at a time, each span a block of candidates of
    one (n, delta) level, or whole radius rounds of one small level, of a
    fresh walk (see ``_spans``); a span's rows may so hold several radii,
    given by ``span.per_row``. ``screen(span)`` runs once per span, before
    ``accept`` sees any of its rows, and returns a boolean mask over them;
    ``accept`` then runs in order on the rows it keeps, so a direct sum and
    a BohrSpec are built for those alone.
    The screen's contract: it reads only its span and values fixed before
    the walk (or memos of what the span's grid and dim fix, such as zeta
    over the grid), so where spans end changes no mask; a row it drops is
    one that ``accept`` rejects, whatever ran before it, decided on the same
    floats that ``accept`` compares. A screen raises nothing; it keeps a
    row whose test would raise, so that ``accept`` raises in order. The
    accepted candidate and the count scored are then those of a loop that
    calls ``accept`` on every candidate.
    """
    scored = 0
    for span in _spans(group, space):
        for i in (screen(span) & (span.sizes > 0)).nonzero()[0].tolist():
            spec = span.spec(i)
            found = accept(spec)
            if found is not None:
                return SearchResult("ok", spec, found, scored + i + 1)
        scored += len(span)
    return SearchResult("none-within-budget", None, None, scored)


def is_symmetric(subset: Subset) -> bool:
    """True when A = A^-1."""
    return subset == inverse_set(subset)
