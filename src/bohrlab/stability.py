"""Ladder search and (k,epsilon)-stability measurement for group functions.

A ladder of length k for f is a pair of sequences a_1..a_k, b_1..b_k with
|f(a_i b_j) - f(a_j b_i)| >= eps for all i < j; the ladder index at eps is
the longest such ladder. The search is a budgeted branch and bound on the
pair-compatibility graph, whose k-cliques are the ladders of length k; the
oracle solves the same maximum-clique question on an explicit adjacency
matrix, independently of the search's roots, masks and rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional

import numpy as np

from .groups import GroupFunction, Subset, check_eps, row_blocks

DEFAULT_BUDGET = 10_000_000
ORACLE_ORDER_CAP = 12
# Bytes of compatibility-row bits one local graph may take: a mask of m pairs
# goes local only when its m^2 bits fit
LOCAL_GRAPH_BYTES = 64 << 20


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
class LadderIndex:
    """Measured maximum ladder length k_max <= cap, realized by witness.

    ``capped``: a ladder of length cap exists. ``exact``: the search space
    was exhausted, so none is longer than k_max. ``inconclusive``: the
    budget ran out, and k_max is only a lower bound.
    """

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


def _max_ladder(F: np.ndarray, table: np.ndarray, eps: float, cap: int,
                budget: int, a_allowed: np.ndarray, b_allowed: np.ndarray):
    """Branch-and-bound maximum-ladder search on bit-parallel pair masks.

    Ladders of length k are the k-cliques of the pair-compatibility graph:
    pairs (a, b) and (a', b') are adjacent iff |F[a, b'] - F[a', b]| >= eps.
    Pair (a, b) has index a*n + b. Every node searches the subgraph on an
    ascending array of pair indices, pairs: bit i of its candidate mask, a
    Python int (San Segundo, Rodriguez-Losada and Jimenez, Computers & OR
    2011), is pairs[i]. Rows are non-neighbour rows: bit j of the row of
    pair v, on the same bits, is set iff pair j is not compatible with v
    and j != v. A child's mask is its parent's, less the pair it adds,
    ANDed with the complement of that pair's row. Bits keep the pairs'
    index order, so the traversal does not depend on the subgraph.

    Dive: one greedy index-order descent (always the lowest candidate) runs
    first and is charged to the budget, so a cap reached on that first path
    costs at most cap nodes; the ladder it finds is the first lower bound.

    Roots: when both domains are the whole group (table is its
    multiplication table), (a_i, b_i) -> (a_i g, g^-1 b_i) keeps every
    product a_i b_j, so every gap, and so each pair's diagonal product a b.
    Let key(a, b) be the b* with 0 b* = a b, element 0 times b* (0 need not
    be the identity, so the key goes through row 0 of the table: a pair
    (0, b) has key b). Take any ladder and its pair (a, b) of least key c;
    g = a^-1 0 maps it to (0, c), since 0 (g^-1 b) = a b = 0 c, and every
    other pair keeps its key, which is >= c. So root (0, b) searches only
    its compatible pairs p != (0, b) with key(p) >= b; ties use >=, since
    two pairs of one ladder may share a diagonal product. This contains the
    rule "index > b": a root (0, b') has key b', and b' < b is left out.
    With a restricted domain the search starts from the whole domain instead.

    Below the roots (MCQ, Tomita and Seki, DMTCS 2003): a node colours its
    mask greedily in index order, each colour class a set of pairwise
    incompatible pairs, branches in reverse colour order, prunes once
    depth + colour <= best, and drops each branched pair from its mask.
    This bound must not be mixed with an index-order prefix cut such as
    "a_1 minimal": each is sound alone, but together they miss ladders.

    Rows: a node whose mask's m pairs have an m x m non-neighbour matrix of
    at most LOCAL_GRAPH_BYTES of bits stores that matrix (``_local_graph``)
    and searches its whole subtree on it. Until then no row is stored: each
    is built where it is read, from the pair's n^2-entry row selected at
    pairs. That serves the dive, and the top node or roots too large to
    store (the full order-256 domain would need 512 MB); the roots' own
    rows are built in blocks and each read once.

    The budget counts node expansions (one per candidate scan of a partial
    ladder). Returns (best_depth, pairs, exhausted, nodes).
    """
    n = F.shape[0]
    local_bits = 8 * LOCAL_GRAPH_BYTES
    state = {"nodes": 0, "exhausted": True, "best": 0, "ladder": [], "stop": False}
    stack: list[int] = []  # pair indices of the partial ladder

    def enter(depth: int) -> bool:
        """Record the partial ladder and charge one node; False to stop."""
        if depth > state["best"]:
            state["best"] = depth
            state["ladder"] = list(stack)
            if depth >= cap:
                state["stop"] = True
                return False
        if state["nodes"] >= budget:
            state["exhausted"] = False
            state["stop"] = True
            return False
        state["nodes"] += 1
        return True

    def visit(mask: int, pairs, apart) -> None:
        """Branch and bound below the partial ladder on the stack.

        Bit i of mask and of each row of apart is pairs[i].
        """
        depth = len(stack)
        if not enter(depth) or not mask:
            return
        if depth + 1 >= cap:
            # any candidate completes a cap-length ladder
            stack.append(pairs[(mask & -mask).bit_length() - 1])
            enter(cap)
            stack.pop()
            return
        if isinstance(apart, _UnstoredRows) and mask.bit_count() ** 2 <= local_bits:
            if mask.bit_count() < len(pairs):  # a root's mask has every pair: no copy
                pairs = pairs[_set_bits(mask, len(pairs))]
            mask, pairs, apart = _local_graph(F, eps, pairs)
        for v, colour in reversed(_colour_classes(mask, apart, state["best"] - depth)):
            if state["stop"] or depth + colour <= state["best"]:
                return
            stack.append(pairs[v])
            mask ^= 1 << v
            visit(mask & ~apart[v], pairs, apart)
            stack.pop()

    try:
        pairs = np.flatnonzero(np.outer(a_allowed, b_allowed))  # all domain pairs
        apart = _UnstoredRows(F, eps, pairs)
        mask = (1 << pairs.size) - 1
        while enter(len(stack)) and mask:  # the dive
            v = (mask & -mask).bit_length() - 1
            stack.append(pairs[v])
            mask ^= 1 << v
            mask &= ~apart[v]
        stack.clear()
        if not (state["stop"] or a_allowed.all() and b_allowed.all()):
            visit((1 << pairs.size) - 1, pairs, apart)  # the restricted domain
        elif not state["stop"] and enter(0):  # the roots (0, b)
            del pairs, apart  # the roots never read these n^2 indices (0.5 MB, n = 256)
            products = table.ravel()
            rank = np.argsort(table[0])  # rank[x] = the b* with 0 b* = x
            for b, hit in enumerate(_pair_rows(F, eps, range(n))):
                if state["stop"]:
                    break
                stack.append(b)
                rest = np.flatnonzero(hit)  # (0, b) itself has gap 0: not in hit
                rest = rest[rank[products.take(rest)] >= b]
                visit((1 << rest.size) - 1, rest, _UnstoredRows(F, eps, rest))
                stack.pop()
    finally:
        # visit reaches itself through its closure cell; break that cycle so
        # reference counting frees the rows now, not a later gc pass
        del visit
    pairs = [divmod(p, n) for p in state["ladder"]]
    return state["best"], pairs, state["exhausted"], state["nodes"]


def _pair_rows(F: np.ndarray, eps: float, pairs):
    """Yield the boolean n^2-entry compatibility row of each pair, in order.

    Entry a'*n + b' of the row of pair (a, b) is True iff
    |F[a, b'] - F[a', b]| >= eps. Rows are built in ``row_blocks`` of n^2
    entries of F a row, and none is kept once yielded.
    """
    n = F.shape[0]
    diff = None
    for blk in row_blocks(len(pairs), F.size):
        chunk = pairs[blk]
        if diff is None:  # the first block is the largest; the rest reuse it
            diff = np.empty((len(chunk),) + F.shape)
        block = diff[:len(chunk)]
        for j, pair in enumerate(chunk):
            a, b = divmod(pair, n)
            # block[j, a', b'] = F[a, b'] - F[a', b]; row by row, since numpy
            # buffers a broadcast across the whole block
            np.subtract(F[a], F[:, b][:, None], out=block[j])
        yield from np.abs(block, out=block).reshape(len(block), -1) >= eps


class _UnstoredRows:
    """Non-neighbour rows on the bits of ascending pairs, as ``_local_graph``
    returns them: row v is the complement of pairs[v]'s n^2-entry row from
    ``_pair_rows``, selected at pairs, with bit v clear. Each is built on
    read and not kept."""

    def __init__(self, F: np.ndarray, eps: float, pairs: np.ndarray):
        self.F, self.eps, self.pairs = F, eps, pairs

    def __getitem__(self, v: int) -> int:
        hit = next(_pair_rows(self.F, self.eps, self.pairs[v:v + 1]))
        near = ~hit.take(self.pairs)
        near[v] = False
        return _int_rows(near[None])[0]


def _set_bits(mask: int, nbits: int) -> np.ndarray:
    """Indices of the set bits of mask, ascending."""
    octets = np.frombuffer(mask.to_bytes((nbits + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


def _int_rows(hit: np.ndarray) -> list[int]:
    """2-D boolean array -> one Python int per row, bit j set iff hit[i, j]."""
    packed = np.packbits(hit, axis=1, bitorder="little")
    width = packed.shape[1]
    if width <= 8:  # rows of at most 64 bits: one little-endian uint64 each
        words = np.zeros((len(packed), 8), np.uint8)
        words[:, :width] = packed
        return words.view("<u8").ravel().tolist()
    # wider rows: one bytes object per row, read in one pass over the buffer
    chunks = packed.view(np.dtype((np.void, width))).ravel().tolist()
    return list(map(int.from_bytes, chunks, repeat("little")))


def _local_graph(F: np.ndarray, eps: float, pairs: np.ndarray):
    """The subgraph on ascending pair indices: (all-ones mask, pairs, apart).

    Bit i of the mask and of every row is pairs[i], returned as a list.
    apart holds non-neighbour rows: bit j of row i is set iff pairs i and j
    are not compatible and j != i, i.e. |F[a_i, b_j] - F[a_j, b_i]| < eps.
    Since ``GroupFunction`` rejects non-finite values and ``check_eps``
    keeps eps finite and positive, that < is exactly the complement of the
    search's >= eps. Each block of rows gathers rows of F, then columns, so
    the float temporaries (``row_blocks`` of max(m, n) entries a row) stay
    within BLOCK_ENTRIES while the rows themselves take m^2 bits.
    """
    n, m = F.shape[0], len(pairs)
    a, b = np.divmod(pairs, n)
    apart: list[int] = []
    for blk in row_blocks(m, max(m, n)):
        # entry (i, j) is F[a_i, b_j] - F[a_j, b_i]
        diff = F.take(a[blk], axis=0).take(b, axis=1)
        diff -= F.take(b[blk], axis=1).T.take(a, axis=1)
        near = np.abs(diff, out=diff) < eps
        near.reshape(-1)[blk.start::m + 1] = False  # entries (i, blk.start + i)
        apart += _int_rows(near)
    return (1 << m) - 1, pairs.tolist(), apart


def _colour_classes(mask: int, apart, skip: int) -> list[tuple[int, int]]:
    """Greedy colouring in index order: (vertex, colour) for colours > skip.

    Colour c is the set of vertices, taken in index order, that are adjacent
    to no vertex already given colour c, so a clique among the vertices of
    colours <= c has at most c of them. apart[v] is v's non-neighbour row
    (bit v clear), so one AND leaves the vertices still free for colour c.
    Pairs are listed by ascending colour; those of colour <= skip cannot
    extend the best ladder and are left out.
    """
    out = []
    colour = 0
    while mask:
        colour += 1
        avail = mask
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            if colour > skip:
                out.append((v, colour))
            avail &= apart[v]
            mask ^= low
    return out


def _check_budget(budget: int) -> None:
    """A budget below one node ends every search inconclusive unsearched."""
    if not budget >= 1:
        raise ValueError(f"budget must be >= 1, got {budget}")


def _witness_from(f: GroupFunction, pairs, eps: float) -> LadderWitness:
    a_seq = tuple(int(a) for a, _ in pairs)
    b_seq = tuple(int(b) for _, b in pairs)
    wit = LadderWitness(a_seq, b_seq, eps, ())
    return LadderWitness(a_seq, b_seq, eps, tuple(wit.recompute_gaps(f)))


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
        F, f.group.table, eps, cap, budget,
        _domain_mask(f, a_domain), _domain_mask(f, b_domain))
    witness = _witness_from(f, pairs, eps) if pairs else None
    if best >= cap:
        return LadderIndex(best, "capped", witness, nodes)
    if exhausted:
        return LadderIndex(best, "exact", witness, nodes)
    return LadderIndex(best, "inconclusive", witness, nodes)


def stability_profile(f: GroupFunction, eps_grid, cap: int = 8,
                      budget: int = DEFAULT_BUDGET) -> StabilityProfile:
    """ladder_index across an epsilon grid, monotone by construction.

    A ladder at eps is a ladder at every smaller eps, so the index at eps is
    the longest ladder found at eps or above. It is ``capped`` once that
    reaches cap, and ``exact`` when an exhausted search at eps or below
    found no longer one; otherwise it is only a lower bound.
    """
    _check_budget(budget)
    grid = tuple(sorted(float(e) for e in eps_grid))
    runs = [ladder_index(f, eps, cap=cap, budget=budget) for eps in grid]
    indices = list(accumulate(reversed([r.k_max for r in runs]), max))[::-1]
    statuses: list[str] = []
    bound = math.inf  # least k of an exhausted search at eps or below
    for res, k in zip(runs, indices):
        if res.status == "exact":
            bound = min(bound, res.k_max)
        statuses.append("capped" if k >= cap else
                        "exact" if bound == k else "inconclusive")
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
