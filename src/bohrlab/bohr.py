"""(delta,K)-Bohr neighborhoods from unitary homomorphisms.

A Bohr neighborhood is the preimage under a homomorphism tau: G -> U(n) of
the open identity ball of radius delta in the operator-norm metric. This
module constructs them, measures covering numbers, tests subgroup structure,
and refines them through a diagonal normal subgroup of the image when one
exists in the stored basis.
"""

from __future__ import annotations

import copy
import itertools
import logging
import math
import operator
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, Optional, TypeVar

import numpy as np

from .groups import BLOCK_ENTRIES, FiniteGroup, Subset, inverse_set
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
    1e-12 of delta are excluded and logged as boundary cases. This is the
    one-candidate case of the block kernel the candidate walk uses.
    """
    if tau.group is not group:
        raise ValueError("tau is not a representation of the given group")
    masks, boundary = _realize(group, [tau], delta)
    return _spec(tau, delta, Subset(group, masks[0]), boundary.get(0, ()))


def _realize(group: FiniteGroup, taus: list[UnitaryRep], delta: float
             ) -> tuple[np.ndarray, dict[int, tuple[int, ...]]]:
    """The Bohr sets of a block of reps of ``group`` at one delta: a boolean
    matrix with a row per rep, and the boundary elements each row excludes,
    by row where there are any.

    The block's identity distances are stacked and compared with delta in
    one pass. Raises ValueError for a delta outside (0, 2].
    """
    _check_delta(delta)
    dist = np.array([tau.identity_distances() for tau in taus]).reshape(
        len(taus), group.order)
    near = np.abs(dist - delta) <= BOUNDARY_TOL
    boundary = {}
    for i in np.flatnonzero(near.any(axis=1)).tolist():
        boundary[i] = tuple(np.flatnonzero(near[i]).tolist())
        logger.debug("bohr_set %s delta=%g: excluded boundary elements %s",
                     taus[i].label, delta, list(boundary[i]))
    return dist < delta - BOUNDARY_TOL, boundary


def _spec(tau: UnitaryRep, delta: float, realized: Subset,
          boundary: tuple[int, ...]) -> BohrSpec:
    """The spec of tau's Bohr set at delta, realized by ``_realize``."""
    # an irreducible of dim >= 2 has no basis making all its matrices diagonal
    kind = "torus" if tau.dim == (len(tau.summands) or 1) else "unitary"
    return BohrSpec(tau=tau, delta=float(delta), kind=kind, realized=realized,
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


# Every group's stored walks together hold at most STORED_ENTRIES entries,
# a candidate of a group of order n counting n + 64: its n-byte row of its
# span's realized matrix, at most 16 bytes per element more for the member
# indices a search reads and its direct sum's distances, and about 1 KB for
# its size, its share of its direct sum and its spec once one is built. So
# they stay under ~9 MB however many groups build_group keeps; the oldest
# stream is dropped first.
STORED_ENTRIES = 1 << 19
_LOCK = threading.Lock()  # guards every stream, its spans' specs, and _STREAMS
_STREAMS: list[weakref.ref] = []  # oldest first; a stream dies with its group


class CandidateSpan:
    """A block of the walk: candidates of one (n, delta) level, in walk
    order. ``taus`` are their direct sums, each of total dimension ``dim``,
    ``realized`` their realized sets as a read-only boolean matrix (a row
    per candidate, a column per element) and ``sizes`` their sizes;
    ``boundary`` maps a row to the boundary elements it excludes, where
    there are any. ``spec(i)`` is row i's BohrSpec, built when first asked
    for and kept, so a replay returns the same object; its Subset owns a
    copy of the row, so a spec kept past its stream holds its own n bytes,
    not the span's matrix."""

    def __init__(self, taus: list[UnitaryRep], delta: float,
                 realized: np.ndarray, boundary: dict[int, tuple[int, ...]]):
        self.taus, self.delta, self.boundary = taus, float(delta), boundary
        self.dim = taus[0].dim if taus else 0
        self.realized, self.sizes = realized, realized.sum(axis=1)
        realized.setflags(write=False)
        self.sizes.setflags(write=False)
        self.specs: list[Optional[BohrSpec]] = [None] * len(taus)

    def __len__(self) -> int:
        return len(self.taus)

    def head(self, count: int) -> CandidateSpan:
        """The span's first ``count`` candidates, sharing its specs."""
        head = copy.copy(self)
        head.taus = self.taus[:count]
        head.realized, head.sizes = self.realized[:count], self.sizes[:count]
        return head

    def spec(self, i: int) -> BohrSpec:
        spec = self.specs[i]
        if spec is None:
            with _LOCK:  # one spec per row, however many threads ask
                if self.specs[i] is None:
                    tau = self.taus[i]
                    self.specs[i] = _spec(tau, self.delta,
                                          Subset(tau.group, self.realized[i]),
                                          self.boundary.get(i, ()))
                spec = self.specs[i]
        return spec


class _Walk:
    """The candidate walk of one group under one key, resumable from its
    position: the total dimension n, the index of delta in the grid and the
    offset into the level's combos. ``taus`` holds the direct sums of the
    level's combos built so far, which every later delta of the level reuses.
    """

    def __init__(self, group: FiniteGroup, key: tuple):
        self.group = group
        self.grid, max_dim, self.max_summands = key
        self.irreps = irreps_of(group)
        dims = sorted((rep.dim for rep in self.irreps), reverse=True)
        self.top = min(max_dim, sum(dims[:self.max_summands]))
        self.n, self.d, self.start = 0, len(self.grid) - 1, 0
        self.combos: list[tuple[int, ...]] = []
        self.taus: list[UnitaryRep] = []

    def _combos(self, n: int) -> list[tuple[int, ...]]:
        # at most n summands, as each has dim >= 1; lex order is preference order
        return [combo
                for count in range(1, min(n, self.max_summands) + 1)
                for combo in itertools.combinations(range(len(self.irreps)), count)
                if sum(self.irreps[i].dim for i in combo) == n]

    def block(self, count: int) -> CandidateSpan:
        """The next at most ``count`` candidates, all of one (n, delta)
        level, realized as one span; an empty span once the walk is done."""
        while self.start == len(self.combos):
            if self.d + 1 < len(self.grid):
                self.d, self.start = self.d + 1, 0
            elif self.n < self.top:
                combos = self._combos(self.n + 1)
                self.n, self.d, self.start = self.n + 1, 0, 0
                self.combos, self.taus = combos, []
            else:
                break
        stop = min(self.start + count, len(self.combos))
        taus = self.taus[self.start:stop] if self.d else [
            direct_sum_hom([self.irreps[i] for i in combo])
            for combo in self.combos[self.start:stop]]
        delta = self.grid[self.d]
        span = CandidateSpan(taus, delta, *_realize(self.group, taus, delta))
        if not self.d:
            self.taus = self.taus + taus  # rebound, so a copied walk keeps its own
        self.start = stop
        return span


class _Stream:
    """A group's stored walk under one key: the spans it produced so far,
    ``count`` candidates in all, and the walk positioned after the last of
    them. A stream that is dropped, or cannot grow within STORED_ENTRIES,
    stops growing."""

    def __init__(self, group: FiniteGroup, key: tuple):
        self.group, self.key = group, key
        self.cost = group.order + 64  # entries per candidate, see STORED_ENTRIES
        self.spans: list[CandidateSpan] = []
        self.count = 0
        self.walk: Optional[_Walk] = None
        self.growing = True

    def entries(self) -> int:
        return self.count * self.cost


def _stream(group: FiniteGroup, key: tuple) -> _Stream:
    with _LOCK:
        stream = group._streams.get(key)
        if stream is None:
            stream = group._streams[key] = _Stream(group, key)
            _STREAMS.append(weakref.ref(stream))
        return stream


def _room(stream: _Stream, count: int) -> bool:
    """Whether ``count`` more candidates may be stored on ``stream``,
    dropping the oldest other streams to make room. Called under _LOCK."""
    need = count * stream.cost
    if not stream.growing or stream.entries() + need > STORED_ENTRIES:
        stream.growing = False
        return False
    live = [s for s in (ref() for ref in _STREAMS) if s is not None]
    total = sum(s.entries() for s in live) + need
    for old in [s for s in live if s is not stream]:
        if total <= STORED_ENTRIES:
            break
        total -= old.entries()
        old.growing = False
        live.remove(old)
        del old.group._streams[old.key]  # a registered stream is its group's
    _STREAMS[:] = [weakref.ref(s) for s in live]
    return True


def _extend(stream: _Stream, count: int) -> tuple[CandidateSpan, Optional[_Walk]]:
    """The stream's next block of at most ``count`` candidates, stored if
    it fits, with None; else the block and the walk past it, to go on with
    unstored. A block that raises leaves the stream as it was. Called under
    _LOCK."""
    walk = copy.copy(stream.walk or _Walk(stream.group, stream.key))
    span = walk.block(count)
    if not _room(stream, len(span)):
        return span, walk
    stream.walk = walk
    stream.spans.append(span)  # an empty span, stored once, ends every replay
    stream.count += len(span)
    return span, None


def _spans(group: FiniteGroup, space: SearchSpace) -> Iterator[CandidateSpan]:
    """The candidate walk of ``space`` on ``group``, a span at a time: each
    span is one block of one (n, delta) level.

    The walk depends on the group and on the key (the sorted distinct delta
    grid, max_dim, max_summands) alone, so the group stores the spans it
    produces: a later walk replays them in order, the last cut at its own
    budget, and extends the stored walk only past them. Each block is
    realized by the kernel behind ``bohr_set``. A walk's new blocks start
    at 8 candidates and double, up to max(1, BLOCK_ENTRIES // |G|), so a
    search that accepts early builds few candidates past it; none passes
    its budget. A walk that finds its stream full goes on from the stream's
    position without storing.
    """
    key = (tuple(sorted(set(space.delta_grid), reverse=True)),
           space.max_dim, space.max_summands)
    stream = _stream(group, key)
    widest = max(1, BLOCK_ENTRIES // group.order)
    size = min(8, widest)
    done, replayed, walk = 0, 0, None
    while done < space.max_candidates:
        left = space.max_candidates - done
        if walk is None:
            with _LOCK:
                if replayed < len(stream.spans):
                    span = stream.spans[replayed]
                else:
                    span, walk = _extend(stream, min(size, left))
                    size = min(2 * size, widest)
                replayed += 1
        else:
            span = walk.block(min(size, left))
            size = min(2 * size, widest)
        if not len(span):
            return
        if len(span) > left:
            span = span.head(left)
        yield span
        done += len(span)


def enumerate_bohr_candidates(group: FiniteGroup,
                              space: SearchSpace = SearchSpace()) -> Iterator[BohrSpec]:
    """Yield candidate Bohr specs in preference order.

    Order: smaller total dimension n first, then larger delta, then fewer
    irrep summands, then lexicographic irrep indices. Stops after
    ``space.max_candidates`` yields, or once n passes the largest total
    dimension that ``space.max_summands`` irreps reach. The candidates come
    from the group's stored walk (see ``_spans``); a stored candidate's
    spec is built once and yielded again on every replay.
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
    one (n, delta) level (see ``_spans``). ``screen(span)`` runs once per
    span, before ``accept`` sees any of its rows, and returns a boolean
    mask over them; ``accept`` then runs in order on the rows it keeps, so
    a BohrSpec is built for those alone.
    The screen's contract: a row it drops is one that ``accept`` rejects,
    decided on the same floats that ``accept`` compares, and still rejects
    after running on the span's earlier rows. A screen raises nothing; it
    keeps a row whose test would raise, so that ``accept`` raises in order.
    The accepted candidate and the count scored are then those of a loop
    that calls ``accept`` on every candidate.
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
