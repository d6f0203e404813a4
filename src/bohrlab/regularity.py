"""Almost-constancy measurement and the regular-Bohr-neighborhood search.

A function is eps-constant on B when its values there span an open interval
of length eps; it is zeta-almost eps-constant when this holds after removing
a set of measure at most zeta (the absolute-defect convention
mu(B') >= mu(B) - zeta). The search enumerates Bohr candidates and accepts
the first whose worst translate defect fits the zeta budget.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .bohr import (BohrSpec, CandidateSpan, SearchResult, SearchSpace,
                   first_accepted)
from .groups import (FiniteGroup, GroupFunction, Subset, check_eps, closure,
                     row_blocks)

WINDOW_GUARD = 1e-12


@dataclass(frozen=True)
class ZetaRule:
    """A defect budget zeta(delta, n), supplied as a constant or the power
    form gamma * (delta / c)^(n^2)."""

    kind: str
    params: tuple = ()

    @classmethod
    def constant(cls, value: float) -> "ZetaRule":
        if not 0 < value < math.inf:  # NaN fails too
            raise ValueError("zeta values must be positive and finite")
        return cls("const", (float(value),))

    @classmethod
    def power(cls, gamma: float, c: float) -> "ZetaRule":
        if not (0 < gamma < math.inf and 0 < c < math.inf):
            raise ValueError("zeta parameters must be positive and finite")
        return cls("power", (float(gamma), float(c)))

    def value(self, delta: float, n: int) -> float:
        if self.kind == "const":
            return self.params[0]
        gamma, c = self.params
        try:
            out = gamma * (delta / c) ** (n * n)
        except OverflowError:
            out = math.inf
        if not math.isfinite(out):
            raise ValueError(f"zeta rule {self.describe()} overflows at "
                             f"delta {delta!r}, n {n}")
        return out

    def describe(self) -> str:
        if self.kind == "const":
            return f"const:{self.params[0]!r}"
        return f"power:{self.params[0]!r},{self.params[1]!r}"

    @classmethod
    def parse(cls, text: str) -> "ZetaRule":
        head, _, rest = text.partition(":")
        try:
            params = [float(t) for t in rest.split(",")]
        except ValueError:
            params = []
        if head == "const" and len(params) == 1:
            return cls.constant(*params)
        if head == "power" and len(params) == 2:
            return cls.power(*params)
        raise ValueError(f"cannot parse zeta rule {text!r}")


@dataclass(frozen=True)
class TranslateDefect:
    """Almost-constancy data for one translate gB."""

    rep_element: int
    defect: float
    value_range: float
    subset_indices: tuple[int, ...]


@dataclass(frozen=True)
class RegularityCertificate:
    """Per-translate defects of f against a Bohr spec at a given eps."""

    spec: BohrSpec
    epsilon: float
    per_translate: tuple[TranslateDefect, ...]
    max_defect: float
    zeta_budget: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "bohr_spec": self.spec.to_json_dict(),
            "epsilon": self.epsilon,
            "zeta_value": self.zeta_budget,
            "max_defect": self.max_defect,
            "per_translate": [
                {"rep_element": t.rep_element, "defect": t.defect,
                 "range": t.value_range}
                for t in self.per_translate
            ],
        }


def largest_eps_constant_subset(f: GroupFunction, b: Subset, eps: float) -> Subset:
    """A maximum-cardinality B' <= B on which f has value range < eps.

    Exact: sort the values on B and slide a window of range < eps (with a
    1e-12 guard against float-boundary flips); ties break toward the
    earliest window in sorted order. This scalar form is the reference for
    the translate kernel below.
    """
    check_eps(eps)
    if f.group is not b.group:
        raise ValueError("function and subset live on different groups")
    idx = b.indices
    if idx.size == 0:
        return Subset.empty(b.group)
    vals = f.values[idx]
    order = np.lexsort((idx, vals))
    svals = vals[order]
    best_lo, best_len = 0, 1
    lo = 0
    for hi in range(len(svals)):
        while lo < hi and svals[hi] - svals[lo] >= eps - WINDOW_GUARD:
            lo += 1
        if hi - lo + 1 > best_len:
            best_lo, best_len = lo, hi - lo + 1
    chosen = idx[order[best_lo:best_lo + best_len]]
    return Subset.from_indices(b.group, chosen)


def _translate_windows(f: GroupFunction, subset: Subset,
                       eps: float) -> Iterator[tuple[np.ndarray, ...]]:
    """The window of largest_eps_constant_subset on every distinct left
    translate gS of a nonempty S, scored a block of translates at a time.

    Yields blocks (g, window, length, ranges): g holds, in increasing order,
    the first element giving each translate; row k of window lists the
    length[k] elements of the window the scalar routine picks on g_k S, in
    increasing order, then n for each element of g_k S outside it; ranges[k]
    is the window's value range, max - min as that routine's floats. A block
    where every translate fits whole, max - min < eps - WINDOW_GUARD, takes
    no sort by value and no window search: as float subtraction is
    monotone, no pair of a translate's values then reaches the threshold,
    so every window holds all of gS.
    """
    grp, idx = f.group, subset.indices
    table, n, size = grp.table, grp.order, idx.size
    # gS = hS iff h^-1 g lies in the stabilizer H = {x : xS = S} (xS <= S
    # suffices, as |xS| = |S|), so the first elements of the translates are
    # the least elements of the left cosets gH, every element when H = {e}
    stab = np.concatenate([
        np.flatnonzero(subset.mask[table[blk, idx]].all(axis=1)) + blk.start
        for blk in row_blocks(n, size)])
    firsts = np.arange(n) if stab.size == 1 else np.concatenate([
        np.flatnonzero(table[blk][:, stab].min(axis=1)
                       == np.arange(n)[blk]) + blk.start
        for blk in row_blocks(n, stab.size)])
    thr = eps - WINDOW_GUARD
    for blk in row_blocks(firsts.size, size):
        g = firsts[blk]
        rows = np.sort(table[np.ix_(g, idx)], axis=1)
        vals = f.values[rows]
        # + 0.0 turns the -0.0 of zeros of both signs into 0.0, so that the
        # range does not depend on which zero is the max or the min
        spread = vals.max(axis=1) - vals.min(axis=1) + 0.0
        if (spread < thr).all():
            yield g, rows, np.full(g.size, size, dtype=np.int64), spread
            continue
        # a stable sort of the values of ascending elements is the scalar
        # routine's lexsort by (value, element)
        order = np.argsort(vals, axis=1, kind="stable")
        members = np.take_along_axis(rows, order, axis=1)
        svals = np.take_along_axis(vals, order, axis=1)
        lo, length = _longest_windows(svals, thr)
        k = np.arange(g.size)
        # elements outside the window (set to n) sort past those inside
        cols = np.arange(size)
        inside = (cols >= lo[:, None]) & (cols < (lo + length)[:, None])
        yield (g, np.sort(np.where(inside, members, n), axis=1), length,
               svals[k, lo + length - 1] - svals[k, lo] + 0.0)


def _longest_windows(svals: np.ndarray, thr: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, length) of the first longest window of each row of sorted
    values, a window holding no pair that reaches ``thr``, found by binary
    search."""
    # start[k, hi]: the first lo < hi failing svals[hi] - svals[lo] >= thr,
    # else hi, as in the scalar window; the predicate holds on a prefix of
    # lo, so a binary search over [0, hi] finds it
    size = svals.shape[1]
    his = np.arange(size)
    start = np.zeros(svals.shape, dtype=np.int64)
    stop = np.broadcast_to(his, svals.shape)
    for _ in range(size.bit_length()):
        mid = (start + stop) // 2
        hit = svals - np.take_along_axis(svals, mid, axis=1) >= thr
        start = np.where(hit, mid + 1, start)
        stop = np.where(hit, stop, mid)
    # start passes hi only where thr <= 0
    start = np.minimum(start, his)
    hi = np.argmax(his - start, axis=1)  # the first longest window
    lo = start[np.arange(len(svals)), hi]
    return lo, hi - lo + 1


def _defect_within(f: GroupFunction, subset: Subset, eps: float,
                   allowance: float) -> bool:
    """Whether _max_defect(f, subset, eps) <= allowance, on the same floats,
    scanning S = eS first, then every gS in blocks, up to the first
    translate past the allowance. A translate of range below eps -
    WINDOW_GUARD fits whole, at defect 0.0; any other keeps at most |S| - 1
    elements, a defect of at least |S|/n - (|S| - 1)/n. Repeated translates
    share their values, so none is deduplicated; np.sort orders them as the
    kernel's stable argsort does, up to -0.0 and 0.0, which compare alike."""
    grp, idx = f.group, subset.indices
    n, size = grp.order, idx.size
    if size == 1:
        return 0.0 <= allowance
    thr = eps - WINDOW_GUARD
    floor = size / n - (size - 1) / n
    for blk in (slice(grp.identity, grp.identity + 1), *row_blocks(n, size)):
        vals = f.values[grp.table[blk][:, idx]]
        wide = ~(vals.max(axis=1) - vals.min(axis=1) < thr)
        if not wide.any():
            continue
        if floor > allowance:
            return False
        _, length = _longest_windows(np.sort(vals[wide], axis=1), thr)
        if (size / n - length / n > allowance).any():
            return False
    return 0.0 <= allowance


def _max_defect(f: GroupFunction, subset: Subset, eps: float) -> float:
    """max over translates gS of mu(gS) - mu(B'), B' the scalar window."""
    n, size = f.group.order, len(subset)
    return max(float(np.max(size / n - length / n))
               for _, _, length, _ in _translate_windows(f, subset, eps))


def translate_defect(f: GroupFunction, spec: BohrSpec,
                     eps: float) -> RegularityCertificate:
    """Defect mu(gB) - mu(B') on a transversal of the distinct translates gB."""
    check_eps(eps)
    realized = spec.realized
    if realized.group is not f.group:
        raise ValueError("function and Bohr spec live on different groups")
    if len(realized) == 0:
        raise ValueError("Bohr set is empty")
    n = f.group.order
    entries: list[TranslateDefect] = []
    for g, window, length, ranges in _translate_windows(f, realized, eps):
        entries.extend(map(
            TranslateDefect, g.tolist(),
            (realized.measure - length / n).tolist(), ranges.tolist(),
            (tuple(row[:m]) for row, m in zip(window.tolist(), length.tolist()))))
    max_defect = max(e.defect for e in entries)
    return RegularityCertificate(spec=spec, epsilon=eps,
                                 per_translate=tuple(entries),
                                 max_defect=max_defect)


def _allowance(zeta: ZetaRule) -> Callable[[CandidateSpan], np.ndarray]:
    """A search's allowances: for a span, zeta(delta_i, n) at each row's
    radius delta_i, NaN where the rule raises. zeta is computed once per
    level dimension n, over the whole grid, and kept for the search's later
    spans."""
    by_dim: dict[int, np.ndarray] = {}

    def rows(span: CandidateSpan) -> np.ndarray:
        over_grid = by_dim.get(span.dim)
        if over_grid is None:
            over_grid = by_dim[span.dim] = np.array(
                [_zeta_or_nan(zeta, delta, span.dim) for delta in span.grid])
        return span.per_row(over_grid)
    return rows


def _zeta_or_nan(zeta: ZetaRule, delta: float, n: int) -> float:
    try:
        return zeta.value(delta, n)
    except ValueError:  # accept raises it, in order
        return math.nan


def search_regular_bohr(f: GroupFunction, eps: float, zeta: ZetaRule,
                        space: SearchSpace = SearchSpace()
                        ) -> SearchResult[RegularityCertificate]:
    """First Bohr spec (in preference order) whose max translate defect is
    within zeta(delta, n), found with its certificate; explicit
    none-within-budget status otherwise.

    Each distinct (realized set S, allowance) reaching ``accept`` is decided
    once, by a scan of S and then every translate gS that stops at the first
    translate past the allowance (_defect_within); only the accepted spec
    runs the certificate kernel. The walk's screen drops, a span at a time,
    the rows that S itself decides: f's range on S reaches eps -
    WINDOW_GUARD, and the allowance is below |S|/n - (|S| - 1)/n.
    """
    check_eps(eps)
    n = f.group.order
    thr = eps - WINDOW_GUARD
    rejected: set[tuple[bytes, float]] = set()
    # |S|/n - (|S| - 1)/n by |S|, the floats _defect_within compares; a set
    # of fewer than two elements fits
    bound = np.arange(n + 1) / n - (np.arange(n + 1) - 1) / n
    bound[:2] = -np.inf
    allowances = _allowance(zeta)
    # f's values in increasing order: a row's min and max on S are the
    # values of its first and last member in this order
    order = np.argsort(f.values, kind="stable")
    ranked = f.values[order]

    def screen(span: CandidateSpan) -> np.ndarray:
        # max - min of f on S, the floats _defect_within compares first, but
        # for the sign of a zero difference, which no compare with thr sees
        # (an empty row reads some other value, and first_accepted skips it)
        in_order = span.realized[:, order]
        lo = ranked[in_order.argmax(axis=1)]
        hi = ranked[n - 1 - in_order[:, ::-1].argmax(axis=1)]
        return (hi - lo < thr) | ~(bound[span.sizes] > allowances(span))

    def accept(spec: BohrSpec) -> Optional[RegularityCertificate]:
        allowance = zeta.value(spec.delta, spec.tau.dim)
        key = spec.realized.mask.tobytes(), allowance
        if key in rejected or not _defect_within(f, spec.realized, eps,
                                                 allowance):
            rejected.add(key)
            return None
        return replace(translate_defect(f, spec, eps), zeta_budget=allowance)

    return first_accepted(f.group, space, accept, screen)


# ---------------------------------------------------------------------------
# Subgroup obstruction


@dataclass(frozen=True)
class SubgroupDefectRow:
    members: tuple[int, ...]
    index: int
    max_defect: float
    passes: bool


@dataclass(frozen=True)
class ObstructionReport:
    epsilon: float
    zeta: float
    index_cap: int
    rows: tuple[SubgroupDefectRow, ...]


def _all_subgroups(group: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup, as joins of cyclic subgroups (order <= 60)."""
    if group.order > 60:
        raise ValueError("subgroup enumeration caps at order 60")

    def generated(elems) -> frozenset[int]:
        mark = np.zeros(group.order, dtype=bool)
        mark[list(elems)] = True
        return frozenset(closure(group.table, mark).tolist())

    cyclics = {generated([g]) for g in group.elements()}
    subgroups = set(cyclics)
    worklist = list(cyclics)
    while worklist:
        h = worklist.pop()
        for c in cyclics:
            joined = generated(h | c)
            if joined not in subgroups:
                subgroups.add(joined)
                worklist.append(joined)
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(math.isqrt(n)) + 1))


def subgroup_obstruction_check(f: GroupFunction, eps: float, index_cap: int,
                               zeta: Optional[float] = None) -> ObstructionReport:
    """Per-subgroup defect table for all subgroups of index <= index_cap.

    A subgroup passes when f is zeta-almost eps-constant on all of its cosets
    (zeta defaults to eps, and must be nonnegative and finite). A group of
    prime order has the subgroups G and {e} alone; otherwise subgroups are
    enumerated by brute force for order <= 60.
    """
    check_eps(eps)
    grp = f.group
    if zeta is None:
        zeta = eps
    if not 0 <= zeta < math.inf:  # NaN fails too
        raise ValueError("zeta must be nonnegative and finite")
    try:
        valid_cap = operator.index(index_cap) >= 1
    except TypeError:
        valid_cap = False
    if not valid_cap:
        raise ValueError(f"index_cap must be an integer >= 1, got {index_cap!r}")
    if _is_prime(grp.order):
        subgroups = [frozenset(grp.elements()), frozenset({grp.identity})]
    else:
        subgroups = _all_subgroups(grp)
    candidates = [h for h in subgroups if grp.order // len(h) <= index_cap]
    rows = []
    for h in candidates:
        worst = _max_defect(f, Subset.from_indices(grp, h), eps)
        rows.append(SubgroupDefectRow(
            members=tuple(sorted(h)), index=grp.order // len(h),
            max_defect=worst, passes=worst <= zeta))
    return ObstructionReport(epsilon=eps, zeta=zeta, index_cap=index_cap,
                             rows=tuple(rows))
