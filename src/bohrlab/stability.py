"""Ladder search and (k,epsilon)-stability measurement for group functions.

A ladder of length k for f is a pair of sequences a_1..a_k, b_1..b_k with
|f(a_i b_j) - f(a_j b_i)| >= eps for all i < j; the ladder index at eps is
the longest such ladder. The search is a budgeted depth-first extension; the
oracle reduces the same question to maximum clique on a pair-compatibility
graph and solves it by branch and bound, independently of the search path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import GroupFunction, Subset, check_eps

DEFAULT_BUDGET = 10_000_000
ORACLE_ORDER_CAP = 12
# Compatibility rows memoized by one ladder search, in bytes of row bits;
# rows past it are rebuilt on each use instead of stored
ROW_MEMO_BYTES = 64 << 20


@dataclass(frozen=True)
class LadderWitness:
    """A realized ladder refuting (k, epsilon)-stability.

    ``deltas`` lists the k(k-1)/2 realized gaps |f(a_i b_j) - f(a_j b_i)| in
    lexicographic (i, j) order. Sequences carry no distinctness constraint,
    although equal pairs can never co-occur (their gap is zero).
    """

    a_seq: tuple[int, ...]
    b_seq: tuple[int, ...]
    epsilon: float
    deltas: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.a_seq)

    @property
    def min_gap(self) -> float:
        return min(self.deltas) if self.deltas else float("inf")

    def recompute_gaps(self, f: GroupFunction) -> list[float]:
        """Re-derive every gap from f, independently of the search."""
        table = f.group.table
        out = []
        for i in range(self.k):
            for j in range(i + 1, self.k):
                x = f.values[table[self.a_seq[i], self.b_seq[j]]]
                y = f.values[table[self.a_seq[j], self.b_seq[i]]]
                out.append(abs(float(x - y)))
        return out

    def is_valid_for(self, f: GroupFunction) -> bool:
        return all(gap >= self.epsilon for gap in self.recompute_gaps(f))

    def to_json_dict(self) -> dict:
        # a k = 1 witness has no gaps, and JSON has no Infinity
        return {"k": self.k, "epsilon": self.epsilon,
                "a": list(self.a_seq), "b": list(self.b_seq),
                "min_gap": self.min_gap if self.deltas else None}


@dataclass(frozen=True)
class LadderOutcome:
    """Result of a fixed-length ladder search.

    ``status`` is ``found`` (witness attached), ``none`` (search space
    exhausted, no witness exists), or ``inconclusive`` (budget ran out; this
    is distinct from nonexistence).
    """

    status: str
    witness: Optional[LadderWitness]
    nodes: int


@dataclass(frozen=True)
class LadderIndex:
    """Measured maximum ladder length: exact, capped, or inconclusive."""

    k_max: int
    status: str
    witness: Optional[LadderWitness]
    nodes: int


@dataclass(frozen=True)
class StabilityProfile:
    """Per-epsilon ladder indices; nonincreasing in epsilon by construction."""

    eps_grid: tuple[float, ...]
    indices: tuple[int, ...]
    statuses: tuple[str, ...]


def _pair_table(f: GroupFunction) -> np.ndarray:
    """F[a, b] = f(a * b)."""
    return f.values[f.group.table]


def _domain_mask(f: GroupFunction, domain: Optional[Subset]) -> np.ndarray:
    if domain is None:
        return np.ones(f.group.order, dtype=bool)
    if domain.group is not f.group:
        raise ValueError("domain subset belongs to a different group")
    return domain.mask


def _max_ladder(F: np.ndarray, eps: float, cap: int, budget: int,
                a_allowed: np.ndarray, b_allowed: np.ndarray):
    """Depth-first maximum-ladder search with incremental candidate masks.

    A partial ladder of length m extends by (a, b) iff
    |F[a_i, b] - F[a, b_i]| >= eps for all i <= m; candidates are scanned in
    element-index order. Symmetry pruning: the ladder property is invariant
    under jointly permuting the (a_i, b_i) pairs (the constraint on {i, j} is
    symmetric in i and j), so any witness can be reordered to put a pair with
    minimal a first; the search therefore only extends a root (a1, b1) by
    pairs with a >= a1, which preserves completeness.

    Candidate masks are bit-parallel (San Segundo, Rodriguez-Losada and
    Jimenez, Computers & OR 2011): pair (a, b) is bit a*n + b of a Python int,
    so scanning by lowest set bit visits pairs in row-major order. A child's
    mask is the parent's ANDed with the compatibility row of (a, b), whose bit
    a'*n + b' is set iff |F[a, b'] - F[a', b]| >= eps. Rows are built on first
    use and memoized for the call: the memo holds at most min(n^2, nodes)
    rows of n^2 bits each, and stops storing new rows once it holds
    ROW_MEMO_BYTES of them, so its size does not grow with the order.

    The budget counts node expansions (one per candidate scan of a partial
    ladder). Returns (best_depth, pairs, exhausted, nodes).
    """
    n = F.shape[0]
    base = _bits(np.outer(a_allowed, b_allowed))
    rows: dict[int, int] = {}
    max_rows = ROW_MEMO_BYTES // ((n * n + 7) // 8)
    diff = np.empty((n, n))
    hit = np.empty((n, n), dtype=bool)
    state = {"nodes": 0, "exhausted": True, "best": 0, "pairs": [], "stop": False}
    a_stack: list[int] = []
    b_stack: list[int] = []

    def visit(mask: int) -> None:
        depth = len(a_stack)
        if depth > state["best"]:
            state["best"] = depth
            state["pairs"] = list(zip(a_stack, b_stack))
            if depth >= cap:
                state["stop"] = True
                return
        if depth >= cap:
            return
        if state["nodes"] >= budget:
            state["exhausted"] = False
            state["stop"] = True
            return
        state["nodes"] += 1
        if not mask:
            return
        if depth + 1 >= cap and cap > state["best"]:
            # any candidate completes a cap-length ladder
            a, b = divmod((mask & -mask).bit_length() - 1, n)
            state["best"] = cap
            state["pairs"] = list(zip(a_stack + [a], b_stack + [b]))
            state["stop"] = True
            return
        rest = mask
        while rest:
            if state["stop"]:
                return
            low = rest & -rest
            rest ^= low
            pair = low.bit_length() - 1
            a, b = divmod(pair, n)
            row = rows.get(pair)
            if row is None:
                np.subtract(F[a, :][None, :], F[:, b][:, None], out=diff)
                np.abs(diff, out=diff)
                np.greater_equal(diff, eps, out=hit)
                row = _bits(hit)
                if len(rows) < max_rows:
                    rows[pair] = row
            child = mask & row
            if depth == 0:
                child &= ~((1 << (a * n)) - 1)  # canonical form: a1 minimal
            a_stack.append(a)
            b_stack.append(b)
            visit(child)
            a_stack.pop()
            b_stack.pop()

    try:
        if cap >= 1:
            visit(base)
    finally:
        # visit reaches itself through its closure cell; break that cycle so
        # reference counting frees the rows now, not a later gc pass
        del visit
    return state["best"], state["pairs"], state["exhausted"], state["nodes"]


def _check_budget(budget: int) -> None:
    """A budget below one node ends every search inconclusive unsearched."""
    if not budget >= 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


def _bits(mask: np.ndarray) -> int:
    """Row-major boolean array -> Python int with bit i set iff flat[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _witness_from(f: GroupFunction, pairs, eps: float) -> LadderWitness:
    a_seq = tuple(int(a) for a, _ in pairs)
    b_seq = tuple(int(b) for _, b in pairs)
    wit = LadderWitness(a_seq, b_seq, eps, ())
    return LadderWitness(a_seq, b_seq, eps, tuple(wit.recompute_gaps(f)))


def ladder_search(f: GroupFunction, k: int, eps: float,
                  budget: int = DEFAULT_BUDGET,
                  a_domain: Optional[Subset] = None,
                  b_domain: Optional[Subset] = None) -> LadderOutcome:
    """Search for a ladder of length exactly k; see LadderOutcome."""
    if k < 1:
        raise ValueError("k must be >= 1")
    check_eps(eps)
    _check_budget(budget)
    F = _pair_table(f)
    best, pairs, exhausted, nodes = _max_ladder(
        F, eps, k, budget, _domain_mask(f, a_domain), _domain_mask(f, b_domain))
    if best >= k:
        return LadderOutcome("found", _witness_from(f, pairs, eps), nodes)
    if exhausted:
        return LadderOutcome("none", None, nodes)
    return LadderOutcome("inconclusive", None, nodes)


def ladder_index(f: GroupFunction, eps: float, cap: int = 8,
                 budget: int = DEFAULT_BUDGET,
                 a_domain: Optional[Subset] = None,
                 b_domain: Optional[Subset] = None) -> LadderIndex:
    """Largest k <= cap admitting a ladder; exact when the tree is exhausted."""
    check_eps(eps)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    _check_budget(budget)
    F = _pair_table(f)
    best, pairs, exhausted, nodes = _max_ladder(
        F, eps, cap, budget, _domain_mask(f, a_domain), _domain_mask(f, b_domain))
    witness = _witness_from(f, pairs, eps) if pairs else None
    if best >= cap:
        return LadderIndex(best, "capped", witness, nodes)
    if exhausted:
        return LadderIndex(best, "exact", witness, nodes)
    return LadderIndex(best, "inconclusive", witness, nodes)


def stability_profile(f: GroupFunction, eps_grid, cap: int = 8,
                      budget: int = DEFAULT_BUDGET) -> StabilityProfile:
    """ladder_index across an epsilon grid, monotone by construction."""
    _check_budget(budget)
    grid = tuple(sorted(float(e) for e in eps_grid))
    indices: list[int] = []
    statuses: list[str] = []
    for eps in grid:
        res = ladder_index(f, eps, cap=cap, budget=budget)
        k = res.k_max if not indices else min(res.k_max, indices[-1])
        indices.append(k)
        statuses.append(res.status)
    return StabilityProfile(grid, tuple(indices), tuple(statuses))


# ---------------------------------------------------------------------------
# Brute-force oracle: maximum clique on the pair-compatibility graph


def oracle_ladder_index(f: GroupFunction, eps: float, cap: Optional[int] = None,
                        a_domain: Optional[Subset] = None,
                        b_domain: Optional[Subset] = None) -> int:
    """Exact maximum ladder length by exhaustive combinatorial search.

    Vertices are all pairs (a, b); two pairs p = (a, b), q = (a', b') are
    compatible iff |F[a, b'] - F[a', b]| >= eps, a symmetric relation, so
    ladders of length k are exactly k-cliques of the compatibility graph.
    Solved by branch and bound with a greedy coloring bound; ``cap`` allows
    early exit once a clique of that size is found.
    """
    n = f.group.order
    if n > ORACLE_ORDER_CAP:
        raise ValueError(f"oracle caps at order {ORACLE_ORDER_CAP}")
    check_eps(eps)
    F = _pair_table(f)
    amask = _domain_mask(f, a_domain)
    bmask = _domain_mask(f, b_domain)
    a_arr = np.repeat(np.flatnonzero(amask), int(bmask.sum()))
    b_arr = np.tile(np.flatnonzero(bmask), int(amask.sum()))
    if a_arr.size == 0:
        return 0
    e1 = F[a_arr[:, None], b_arr[None, :]]
    adj = np.abs(e1 - e1.T) >= eps
    return _max_clique(adj, cap)


def _max_clique(adj: np.ndarray, cap: Optional[int]) -> int:
    nv = adj.shape[0]
    if nv == 0:
        return 0
    target = cap if cap is not None else nv
    nb = []
    for v in range(nv):
        bits = 0
        for u in np.flatnonzero(adj[v]):
            bits |= 1 << int(u)
        nb.append(bits)
    state = {"best": 0, "done": False}

    def color_order(p: int) -> list[tuple[int, int]]:
        out = []
        color = 0
        uncolored = p
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                out.append((v, color))
                avail &= ~(1 << v)
                avail &= ~nb[v]
                uncolored &= ~(1 << v)
        return out

    def expand(size: int, p: int) -> None:
        if state["done"]:
            return
        if p == 0:
            if size > state["best"]:
                state["best"] = size
                if size >= target:
                    state["done"] = True
            return
        ordered = color_order(p)
        for v, c in reversed(ordered):
            if state["done"]:
                return
            if size + c <= state["best"]:
                return
            expand(size + 1, p & nb[v])
            p &= ~(1 << v)

    expand(0, (1 << nv) - 1)
    return min(state["best"], target)
