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
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Optional

import numpy as np

from . import groups
from .groups import GroupFunction, Subset, check_eps, row_blocks

DEFAULT_BUDGET = 10_000_000
ORACLE_ORDER_CAP = 12
# Bytes of compatibility-row bits one local graph may take: a mask of m pairs
# goes local only when its m^2 bits fit
LOCAL_GRAPH_BYTES = 64 << 20
# Roots of 1 to this many kept pairs build their local graphs a batch of
# roots at a time (``_root_pairs``): R roots padded to the batch's largest,
# M pairs, take R * M^2 <= BLOCK_ENTRIES // 4 (8,192) floats
SMALL_ROOT_PAIRS = 40
# 2**j at index j, the weight of bit j of a row of at most 64 bits
_BIT_WEIGHTS = np.left_shift(1, np.arange(64, dtype=np.uint64))


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


def _max_ladder(F: np.ndarray, table: np.ndarray, inverse: np.ndarray,
                eps: float, cap: int, budget: int, a_allowed: np.ndarray,
                b_allowed: np.ndarray):
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
    index order, so narrowing a mask's pairs to its set bits reorders none.

    Dive: one greedy index-order descent (always the lowest candidate) runs
    first and is charged to the budget, so a cap reached on that first path
    costs at most cap nodes; the ladder it finds is the first lower bound.

    Roots: when both domains are the whole group (table is its
    multiplication table), (a_i, b_i) -> (a_i g, g^-1 b_i) keeps every
    product a_i b_j, so every gap, and so each pair's diagonal product a b.
    Let key(a, b) be b* = 0^-1 a b, so 0 b* = a b and a pair (0, b) has
    key b. Take any ladder and its pair (a, b) of least key c; g = a^-1 0
    maps it to (0, c), since 0 (g^-1 b) = a b = 0 c, and every other pair
    keeps its key, which is >= c. So root (0, b) searches only its
    compatible pairs p != (0, b) with key(p) >= b; ties use >=, since two
    pairs of one ladder may share a diagonal product. This contains the
    rule "index > b": a root (0, b') has key b', and b' < b is left out.
    The roots' pairs come from one base set (``_root_pairs``): the a' with
    a' b = a'' 0 has F[a', b] = F[a'', 0], so root b's compatible pairs are
    S = {(a'', b') : |F[0, b'] - F[a'', 0]| >= eps} with a'' lifted to
    a' = (a'' 0) b^-1 through inverse, each gap bitwise the one a direct
    scan computes, and a search scans n^2 gaps once, not once a root. Roots
    are lifted max(1, BLOCK_ENTRIES // |S|) at a time, each block when the
    search reaches it, so the temporaries stay within BLOCK_ENTRIES entries
    (or one root's |S|) and a search that stops lifts no further block.
    With a restricted domain the search starts from the whole domain instead.

    Below the roots (MCQ, Tomita and Seki, DMTCS 2003): a node colours its
    mask greedily in index order, each colour class a set of pairwise
    incompatible pairs, branches in reverse colour order, prunes once
    depth + colour <= best, and drops each branched pair from its mask.
    This bound must not be mixed with a global index-order prefix cut such
    as "a_1 minimal": each is sound alone, but together they miss ladders.
    A node returns right after it is charged when depth + popcount(mask)
    <= best: a colouring of mask has at most popcount(mask) colours, so it
    would prune every branch, as would the first bound of a node too large
    to store, which is popcount(mask) itself. Such a node builds no local
    graph and colours nothing, and every node count and ladder stays the
    same.

    Rows: a node whose m pairs have an m x m non-neighbour matrix of at
    most LOCAL_GRAPH_BYTES of bits stores that matrix (``_local_graph``)
    and searches its whole subtree on it, colouring as above. A larger node
    (the full order-256 domain would need 512 MB) does not colour: it
    branches on its pairs in index order, drops each branched pair from its
    own mask as the colouring branch does, and stops once
    depth + popcount(mask) <= best (Carraghan and Pardalos, Oper. Res.
    Lett. 1990). It splits its pair indices into (a, b) once and builds
    only the branched pair's row, from 2m entries of F (``_apart_row``), as
    the dive does on its one split of the domain. Each row is built for a
    node the budget charges (a dive step before it, a child after), so a
    budget of N nodes builds at most N + 1 rows and N local graphs of more
    than SMALL_ROOT_PAIRS pairs. A root of 1 to SMALL_ROOT_PAIRS pairs
    whose m^2 bits fit takes its matrix from a batch (``_root_pairs``):
    consecutive such roots of the block already lifted, while their count
    times the square of their most pairs stays within BLOCK_ENTRIES // 4,
    are built in one pass when the search reaches the batch's first root,
    each bitwise its ``_local_graph``. So those graphs are built only within
    a lifted block, at most one batch ahead of the search, and a root's
    node is charged, and can return, before it reads its rows.

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

        Bit i of mask and of each row of apart is pairs[i]; apart is None
        until a node stores its rows.
        """
        depth, size = len(stack), mask.bit_count()
        if not enter(depth) or depth + size <= state["best"]:
            return  # every branch would be pruned (an empty mask too)
        if depth + 1 >= cap:
            # any candidate completes a cap-length ladder
            stack.append(pairs[(mask & -mask).bit_length() - 1])
            enter(cap)
            stack.pop()
            return
        if apart is None:
            if size < len(pairs):  # a root's mask has every pair: no copy
                pairs = pairs[_set_bits(mask, len(pairs))]
            m = len(pairs)
            mask = (1 << m) - 1
            if m * m <= local_bits:
                mask, pairs, apart = _local_graph(F, eps, pairs)
            else:
                a, b = np.divmod(pairs, n)  # split once: one row a branch
        # a node too large to store branches in index order, bounded by the
        # pairs left, and builds one row a branch
        branches = (zip(range(m), range(m, 0, -1)) if apart is None else
                    reversed(_colour_classes(mask, apart, state["best"] - depth)))
        for v, bound in branches:
            if state["stop"] or depth + bound <= state["best"]:
                return
            stack.append(pairs[v])
            mask ^= 1 << v
            row = _apart_row(F, eps, a, b, v) if apart is None else apart[v]
            visit(mask & ~row, pairs, apart)
            stack.pop()

    try:
        pairs = np.flatnonzero(np.outer(a_allowed, b_allowed))  # all domain pairs
        mask = (1 << pairs.size) - 1
        dive_a, dive_b = np.divmod(pairs, n)
        while enter(len(stack)) and mask:  # the dive
            v = (mask & -mask).bit_length() - 1
            stack.append(pairs[v])
            mask ^= 1 << v
            mask &= ~_apart_row(F, eps, dive_a, dive_b, v)
        del dive_a, dive_b  # 1 MB at n = 256, which the roots never read
        stack.clear()
        if not (state["stop"] or a_allowed.all() and b_allowed.all()):
            visit((1 << pairs.size) - 1, pairs, None)  # the restricted domain
        elif not state["stop"] and enter(0):  # the roots (0, b)
            del pairs  # the roots never read these n^2 indices (0.5 MB, n = 256)
            for b, rest, apart in _root_pairs(F, table, inverse, eps):
                stack.append(b)
                visit((1 << len(rest)) - 1, rest, apart)
                stack.pop()
                if state["stop"]:  # lift no further block of roots
                    break
    finally:
        # visit reaches itself through its closure cell; break that cycle so
        # reference counting frees the rows now, not a later gc pass
        del visit
    pairs = [divmod(p, n) for p in state["ladder"]]
    return state["best"], pairs, state["exhausted"], state["nodes"]


def _root_pairs(F: np.ndarray, table: np.ndarray, inverse: np.ndarray,
                eps: float):
    """Yield (b, rest, apart) for the roots (0, b) in order: rest holds,
    ascending, the indices of the pairs compatible with (0, b) whose key is
    >= b, lifted through inverse from one base set (``_max_ladder``, Roots).
    apart is None, or, for a root of 1 to SMALL_ROOT_PAIRS pairs whose m^2
    bits fit LOCAL_GRAPH_BYTES, the rows ``_local_graph`` would build, with
    rest its pair list (``_root_graphs``)."""
    n = F.shape[0]
    base_a, base_b = np.nonzero(np.abs(F[0] - F[:, 0, None]) >= eps)
    base_x = table[base_a, 0]  # a'' 0
    products = table.ravel()
    rank = table[inverse[0]]  # rank[x] = 0^-1 x, the key of x
    most = min(SMALL_ROOT_PAIRS, math.isqrt(8 * LOCAL_GRAPH_BYTES))
    entries = groups.BLOCK_ENTRIES // 4  # a batch's padded R * M^2 floats
    for blk in row_blocks(n, base_a.size):
        roots = np.arange(blk.start, blk.stop)
        # a' = (a'' 0) b^-1, read off the table's columns inverse[b]
        lifted = table.take(inverse[blk], axis=1).T.take(base_x, axis=1) * n + base_b
        lifted.sort(axis=1)  # bits keep index order
        keep = rank.take(products.take(lifted)) >= roots[:, None]
        sizes = np.count_nonzero(keep, axis=1)
        batched = (sizes > 0) & (sizes <= most)
        # the small roots' kept pairs, root after root: each batch a slice
        small_pairs = lifted[keep & batched[:, None]]
        batches = _batches(np.flatnonzero(batched).tolist(), sizes.tolist(), entries)
        ready: dict = {}  # offset -> (pairs, apart) of the batch being read
        start = 0  # of the next batch's pairs in small_pairs
        for i, (b, pairs, kept, graph) in enumerate(
                zip(roots.tolist(), lifted, keep, batched.tolist())):
            if not graph:
                yield b, pairs[kept], None
                continue
            if not ready:  # the search has reached the next batch
                batch = next(batches)
                m = sizes[batch]
                stop = start + int(m.sum())
                ready = dict(zip(batch, _root_graphs(F, eps, small_pairs[start:stop], m)))
                start = stop
            yield b, *ready.pop(i)


def _batches(todo: list[int], sizes: list[int], entries: int):
    """Split the ascending root offsets todo into runs whose padded R * M^2
    entries (M the run's most pairs) stay within entries, one root at
    least."""
    run: list[int] = []
    width = 0  # the most pairs of the run and root i
    for i in todo:
        width = max(width, sizes[i])
        if run and (len(run) + 1) * width * width > entries:
            yield run
            run, width = [], sizes[i]
        run.append(i)
    if run:
        yield run


def _root_graphs(F: np.ndarray, eps: float, pairs: np.ndarray,
                 m: np.ndarray) -> list[tuple[list[int], list[int]]]:
    """(pairs, apart) of each of R roots whose ascending pair indices are
    the runs of m[r] entries of pairs, the pair list and rows
    ``_local_graph`` returns on them, built in one padded (R, M, M) pass.

    Row r of the pad lists root r's m_r pairs, then pads with pair 0. Entry
    (r, i, j) of the flat gather is F[a_ri, b_rj] and its (r, j, i) is
    F[a_rj, b_ri], so each gap is the same subtraction of the same two
    floats as E - E.T; the diagonal and the padded columns are cleared, and
    each root keeps its first m_r rows.
    """
    n = F.shape[0]
    width = int(m.max())
    slot = np.arange(width) < m[:, None]  # row r: m_r pairs, then padding
    pad = np.zeros(slot.shape, dtype=pairs.dtype)
    pad[slot] = pairs
    b = pad % n
    gaps = F.take((pad - b)[:, :, None] + b[:, None, :])  # pad - b = a n
    diff = gaps - gaps.transpose(0, 2, 1)
    near = np.abs(diff, out=diff) < eps
    near &= slot[:, None, :]
    near.reshape(len(m), -1)[:, ::width + 1] = False  # entries (r, i, i)
    rows = _int_rows(near.reshape(-1, width))
    return [(listed[:k], rows[r * width:r * width + k])
            for r, (k, listed) in enumerate(zip(m.tolist(), pad.tolist()))]


def _set_bits(mask: int, nbits: int) -> np.ndarray:
    """Indices of the set bits of mask, ascending."""
    octets = np.frombuffer(mask.to_bytes((nbits + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


def _int_rows(hit: np.ndarray) -> list[int]:
    """2-D boolean array -> one Python int per row, bit j set iff hit[i, j]."""
    width = hit.shape[1]
    if width <= 64:  # one exact uint64 a row: a sum of distinct powers of two
        return (hit @ _BIT_WEIGHTS[:width]).tolist()
    # wider rows: one bytes object per row, read in one pass over the buffer
    packed = np.packbits(hit, axis=1, bitorder="little")
    chunks = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
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

    A graph whose m rows make one such block (m * max(m, n) <=
    BLOCK_ENTRIES, read at call time) gathers E = F[a][:, b] once and
    takes E - E.T: E[j, i] is F[a_j, b_i], so each entry is the same
    subtraction of the same two floats as a block's second gather gives,
    and the rows are bitwise those of the blocked path.
    """
    n, m = F.shape[0], len(pairs)
    a, b = np.divmod(pairs, n)
    if m * max(m, n) <= groups.BLOCK_ENTRIES:  # one row block
        # entry (i, j) of the gather is F[a_i, b_j], and F[a_j, b_i] its (j, i)
        diff = F.take(a, axis=0).take(b, axis=1)
        return (1 << m) - 1, pairs.tolist(), _near_rows(diff - diff.T, eps, 0)
    apart: list[int] = []
    for blk in row_blocks(m, max(m, n)):
        # entry (i, j) is F[a_i, b_j] - F[a_j, b_i]
        diff = F.take(a[blk], axis=0).take(b, axis=1)
        diff -= F.take(b[blk], axis=1).T.take(a, axis=1)
        apart += _near_rows(diff, eps, blk.start)
    return (1 << m) - 1, pairs.tolist(), apart


def _apart_row(F: np.ndarray, eps: float, a: np.ndarray, b: np.ndarray,
               v: int) -> int:
    """Row v of the non-neighbour matrix ``_local_graph`` builds on the pairs
    a * n + b, gathered from the same 2m entries of F by the same subtraction."""
    return _near_rows((F[a[v]].take(b) - F[:, b[v]].take(a))[None], eps, v)[0]


def _near_rows(diff: np.ndarray, eps: float, start: int) -> list[int]:
    """Non-neighbour rows of a block of gaps whose row i is pair start + i:
    bit j is set iff |diff[i, j]| < eps and j != start + i. Overwrites diff."""
    near = np.abs(diff, out=diff) < eps
    near.reshape(-1)[start::diff.shape[1] + 1] = False  # entries (i, start + i)
    return _int_rows(near)


def _colour_classes(mask: int, apart, skip: int) -> list[tuple[int, int]]:
    """Greedy colouring in index order: (vertex, colour) for colours > skip.

    Colour c is the set of vertices, taken in index order, that are adjacent
    to no vertex already given colour c, so a clique among the vertices of
    colours <= c has at most c of them. apart[v] is v's non-neighbour row
    (bit v clear), so one AND leaves the vertices still free for colour c.
    Pairs are listed by ascending colour; those of colour <= skip cannot
    extend the best ladder and are left out.
    """
    colour = 0
    while mask and colour < skip:  # classes that cannot branch: no record
        colour += 1
        avail = mask
        while avail:
            low = avail & -avail
            avail &= apart[low.bit_length() - 1]
            mask ^= low
    out = []
    while mask:
        colour += 1
        avail = mask
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            out.append((v, colour))
            avail &= apart[v]
            mask ^= low
    return out


def _check_count(name: str, value: int) -> None:
    """cap counts pairs and budget nodes, so each is an integer, and >= 1: a
    budget below one node ends every search inconclusive unsearched."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


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
    _check_count("cap", cap)
    _check_count("budget", budget)
    F = _pair_table(f)
    best, pairs, exhausted, nodes = _max_ladder(
        F, f.group.table, f.group.inverse, eps, cap, budget,
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
    _check_count("cap", cap)
    _check_count("budget", budget)
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
    if cap is not None:
        _check_count("cap", cap)
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
