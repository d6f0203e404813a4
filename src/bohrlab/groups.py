"""Finite groups as validated Cayley tables, with subsets and bounded functions.

Elements are dense indices 0..order-1 and every higher layer addresses them
only by index. Each constructor validates the table (Latin square,
associativity, identity, inverses) before returning, so downstream code may
assume a genuine group. The measure is always normalized counting:
mu(A) = |A| / order.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from pathlib import Path
from typing import Iterator

import numpy as np

MAX_ORDER = 2048
VALUE_TOL = 1e-12
# Cap on the entries of one block of rows in a numpy temporary, so that
# blocked kernels stay a few megabytes even at order 2048
BLOCK_ENTRIES = 1 << 15


class GroupValidationError(ValueError):
    """A Cayley table failed validation; ``witness`` localizes the failure."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class FiniteGroup:
    """A finite group on elements 0..order-1 backed by a Cayley table.

    Immutable after construction. ``table[a, b]`` is the product a*b,
    ``inverse[a]`` the inverse of a, ``identity`` the identity index, and
    ``generators`` the generating set that validation checked associativity
    on (empty for the trivial group).
    """

    def __init__(self, table, descriptor: str = "table"):
        # a read-only int32 C array that owns its data is kept as it is
        if not (isinstance(table, np.ndarray) and table.dtype == np.int32
                and table.flags.c_contiguous and table.flags.owndata
                and not table.flags.writeable):
            table = np.array(table, dtype=np.int32, order="C")
        self.identity, self.generators = _validate_table(table)
        self.table = table
        self.order = int(table.shape[0])
        self.inverse = np.ascontiguousarray(
            np.argmax(table == self.identity, axis=1).astype(np.int32))
        self.descriptor = descriptor
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self._abelian: bool | None = None
        self._orders: np.ndarray | None = None
        self._irreps = None  # filled by reps.irreps_of
        self._levels = None  # (grid, level table), see bohr._level_table
        self._combos = {}  # the Bohr walk's combos by level, see bohr._combos

    def _check_elements(self, *elements: int) -> None:
        """Raise ValueError unless each element is an index 0..order-1 (a
        negative one would wrap round the table)."""
        try:
            valid = all(0 <= operator.index(a) < self.order for a in elements)
        except TypeError:
            valid = False
        if not valid:
            raise ValueError("element index out of range")

    def mul(self, a: int, b: int) -> int:
        self._check_elements(a, b)
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        self._check_elements(a)
        return int(self.inverse[a])

    def conjugate(self, g: int, a: int) -> int:
        """Return g * a * g^-1."""
        self._check_elements(g, a)
        return int(self.table[self.table[g, a], self.inverse[g]])

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def element_order(self, a: int) -> int:
        self._check_elements(a)
        k, x = 1, int(a)
        while x != self.identity:
            x = int(self.table[x, a])
            k += 1
        return k

    def element_orders(self) -> np.ndarray:
        """Order of every element, computed once and kept read-only, as a
        product over the primes p of |G|: with p^a the largest power of p
        dividing |G|, g^(|G|/p^a) has order the p-part of g's order, counted
        by taking p-th powers until e."""
        if self._orders is not None:
            return self._orders
        n = self.order
        primes = [p for p in range(2, n + 1)
                  if n % p == 0 and all(p % q for q in range(2, p))]
        orders = np.ones(n, dtype=np.int64)
        for p in primes:
            q = p
            while n % (q * p) == 0:
                q *= p
            live = np.arange(n)
            h = self._power(live, n // q)
            while live.size:
                keep = h != self.identity
                live, h = live[keep], h[keep]
                orders[live] *= p
                h = self._power(h, p)
        orders.setflags(write=False)
        self._orders = orders
        return orders

    def _power(self, elems: np.ndarray, k: int) -> np.ndarray:
        """elems[i] ** k for every i and one k >= 1, by square-and-multiply."""
        result = None
        while True:
            if k & 1:
                result = elems if result is None else self.table[result, elems]
            k >>= 1
            if not k:
                return result
            elems = self.table[elems, elems]

    def exponent(self) -> int:
        return int(np.lcm.reduce(self.element_orders()))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.descriptor!r}, order={self.order})"


def _validate_table(table: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Raise ``GroupValidationError`` unless ``table`` is a group's Cayley
    table; return its identity and the generating set Light's test checked."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupValidationError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n < 1:
        raise GroupValidationError("group order must be positive")
    if n > MAX_ORDER:
        raise GroupValidationError(f"order {n} exceeds cap {MAX_ORDER}")
    if table.min() < 0 or table.max() >= n:
        bad = tuple(int(x) for x in np.argwhere((table < 0) | (table >= n))[0])
        raise GroupValidationError(f"entry out of range at {bad}", witness=bad)

    ident = np.arange(n, dtype=np.int32)
    for lines, name in ((table, "row"), (table.T, "column")):
        for blk in row_blocks(n, n):
            # a C-ordered copy sorts a block of columns as rows, several
            # times faster than a strided sort along axis 0
            block = np.array(lines[blk], order="C")
            block.sort(axis=1)
            ok = (block == ident).all(axis=1)
            if not ok.all():
                bad = blk.start + int(np.argmin(ok))
                raise GroupValidationError(
                    f"not a Latin square: {name} {bad} is not a permutation",
                    witness=bad)

    hits = np.flatnonzero((table == ident).all(axis=1)
                          & (table == ident[:, None]).all(axis=0))
    if hits.size == 0:
        raise GroupValidationError("no identity element")
    identity = int(hits[0])
    return identity, _check_associative(table, identity)


def _check_associative(table: np.ndarray, identity: int) -> tuple[int, ...]:
    """Light's associativity test (Clifford and Preston, 1961, section 1.2).

    The elements s with (xs)y = x(sy) for all x, y are closed under
    products, so checking them on a generating set decides associativity.
    Elements are walked in index order and s is checked only when it lies
    outside the closure of those checked before it; the identity passes
    without a check. Cost O(n^2) per generator instead of O(n^3). Returns
    the checked elements, which generate the group.
    """
    n = table.shape[0]
    inside = np.zeros(n, dtype=bool)
    inside[identity] = True
    checked: list[int] = []
    for s in range(n):
        if inside[s]:
            continue
        for blk in row_blocks(n, n):
            lhs = table[table[blk, s]]                   # (x*s)*y, x in blk
            rhs = np.take(table[blk], table[s], axis=1)  # x*(s*y)
            if not np.array_equal(lhs, rhs):
                x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
                x += blk.start
                raise GroupValidationError(
                    f"not associative at ({x},{s},{y})", witness=(x, s, y))
        checked.append(s)
        inside[s] = True
        if closure(table, inside).size == n:
            break
    return tuple(checked)


def closure(table: np.ndarray, mark: np.ndarray) -> np.ndarray:
    """Close the marked elements of a Cayley table under products, in place.

    S gains SS by table lookup until it stops growing or is the whole
    group; a nonempty S then holds the subgroup it generates (in a finite
    group, closure under products brings e and inverses). Returns the
    members in increasing order.
    """
    s = np.flatnonzero(mark)
    while s.size < mark.size:
        mark[np.take(table[s], s, axis=1)] = True
        grown = np.flatnonzero(mark)
        if grown.size == s.size:
            break
        s = grown
    return s


class Subset:
    """Immutable subset of a FiniteGroup, stored as a boolean mask."""

    def __init__(self, group: FiniteGroup, mask):
        mask = np.array(mask, dtype=bool, order="C")
        if mask.shape != (group.order,):
            raise ValueError(f"mask length {mask.shape} != order {group.order}")
        self.group = group
        self.mask = mask
        self.mask.setflags(write=False)
        self._indices: np.ndarray | None = None
        self._len: int | None = None

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices) -> "Subset":
        """The subset of the given elements: an integer array as it is, any
        other iterable of ints read through a list."""
        idx = indices
        if not (isinstance(idx, np.ndarray) and idx.dtype.kind in "iu"):
            try:
                idx = np.asarray(list(indices), dtype=np.int64)
            except OverflowError:  # an index beyond int64 is out of range
                raise ValueError("subset index out of range") from None
        if idx.size and (idx.min() < 0 or idx.max() >= group.order):
            raise ValueError("subset index out of range")
        mask = np.zeros(group.order, dtype=bool)
        mask[idx] = True
        return cls(group, mask)

    @classmethod
    def full(cls, group: FiniteGroup) -> "Subset":
        return cls(group, np.ones(group.order, dtype=bool))

    @classmethod
    def empty(cls, group: FiniteGroup) -> "Subset":
        return cls(group, np.zeros(group.order, dtype=bool))

    @classmethod
    def singleton(cls, group: FiniteGroup, g: int) -> "Subset":
        return cls.from_indices(group, [g])

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = np.flatnonzero(self.mask)
            self._indices.setflags(write=False)
        return self._indices

    @property
    def measure(self) -> float:
        return len(self) / self.group.order

    def union(self, other: "Subset") -> "Subset":
        self._check_group(other)
        return Subset(self.group, self.mask | other.mask)

    def intersection(self, other: "Subset") -> "Subset":
        self._check_group(other)
        return Subset(self.group, self.mask & other.mask)

    def difference(self, other: "Subset") -> "Subset":
        self._check_group(other)
        return Subset(self.group, self.mask & ~other.mask)

    def is_subset_of(self, other: "Subset") -> bool:
        self._check_group(other)
        return bool((~self.mask | other.mask).all())

    def _check_group(self, other: "Subset") -> None:
        if other.group is not self.group:
            raise ValueError("subsets belong to different groups")

    def __len__(self) -> int:
        if self._len is None:  # the mask is read-only, so the count holds
            self._len = int(self.mask.sum())
        return self._len

    def __contains__(self, g: int) -> bool:
        return bool(self.mask[g])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subset) and other.group is self.group
                and np.array_equal(other.mask, self.mask))

    def __hash__(self) -> int:
        return hash((id(self.group), self.mask.tobytes()))

    def __repr__(self) -> str:
        return f"Subset({self.group.descriptor}, {sorted(int(i) for i in self.indices)})"


def check_eps(eps: float) -> None:
    """Reject an eps that is not positive and finite.

    NaN fails every comparison, so a NaN eps would reject nothing (or
    everything) downstream and yield a false exact or ok status.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")


class GroupFunction:
    """A function G -> [-1, 1] stored as a dense real vector over indices."""

    def __init__(self, group: FiniteGroup, values):
        values = np.array(values, dtype=np.float64, order="C")
        if values.shape != (group.order,):
            raise ValueError(f"values length {values.shape} != order {group.order}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        top = float(np.max(np.abs(values))) if values.size else 0.0
        if top > 1.0 + VALUE_TOL:
            raise ValueError(f"values exceed [-1,1] bound: max |v| = {top}")
        self.group = group
        self.values = values
        self.values.setflags(write=False)

    @classmethod
    def constant(cls, group: FiniteGroup, value: float) -> "GroupFunction":
        return cls(group, np.full(group.order, float(value)))

    @classmethod
    def indicator(cls, subset: Subset) -> "GroupFunction":
        return cls(subset.group, subset.mask.astype(np.float64))

    def __call__(self, g: int) -> float:
        return float(self.values[g])

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def __repr__(self) -> str:
        return f"GroupFunction({self.group.descriptor}, n={self.group.order})"


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Slices of range(rows) of at most BLOCK_ENTRIES // width rows (>= 1)."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


# ---------------------------------------------------------------------------
# Subset algebra


def product_set(a: Subset, b: Subset) -> Subset:
    """Return the exact product set {x*y : x in A, y in B}."""
    if a.group is not b.group:
        raise ValueError("product_set requires subsets of the same group")
    g = a.group
    ai, bi = a.indices, b.indices
    mask = np.zeros(g.order, dtype=bool)
    if ai.size and bi.size:
        mask[g.table[np.ix_(ai, bi)]] = True  # repeats set the same entry
    return Subset(g, mask)


def inverse_set(a: Subset) -> Subset:
    """Return {x^-1 : x in A}; an involution."""
    mask = np.zeros(a.group.order, dtype=bool)
    mask[a.group.inverse[a.indices]] = True
    return Subset(a.group, mask)


def translate_set(g: int, a: Subset, side: str = "left") -> Subset:
    """Return gA (side='left') or Ag (side='right'); measure is preserved."""
    grp = a.group
    grp._check_elements(g)
    mask = np.zeros(grp.order, dtype=bool)
    if side == "left":
        mask[grp.table[g, a.indices]] = True
    elif side == "right":
        mask[grp.table[a.indices, g]] = True
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return Subset(grp, mask)


# ---------------------------------------------------------------------------
# Constructors


def _cyclic_table(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int32)
    table = np.add.outer(idx, idx)
    table %= n
    return table


def _product_table(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    n1, n2 = t1.shape[0], t2.shape[0]
    big = (t1[:, None, :, None].astype(np.int64) * n2 + t2[None, :, None, :])
    return big.reshape(n1 * n2, n1 * n2).astype(np.int32)


def _dihedral_table(n: int) -> np.ndarray:
    # index i < n: rotation x -> x+i; index n+a: reflection x -> a-x
    i = np.arange(n, dtype=np.int32)
    plus = (i[:, None] + i[None, :]) % n
    minus = (i[:, None] - i[None, :]) % n
    # rot . rot, rot . refl; refl . rot, refl . refl
    return np.block([[plus, n + plus], [n + minus, minus]])


def _quaternion_table() -> np.ndarray:
    # element 2u + (1 if negated) for u over 1, i, j, k, as 2x2 matrices with exact products
    one, i, j = np.eye(2), np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]])
    elems = np.array([s * u for u in (one, i, j, i @ j) for s in (1, -1)])
    prods = elems[:, None, None] @ elems[None, :, None]   # (a, b, 1, 2, 2)
    return np.argmax((prods == elems).all(axis=(3, 4)), axis=2).astype(np.int32)


def _permutation_table(perms: list[tuple[int, ...]]) -> np.ndarray:
    """Cayley table of a closed list of permutations of 0..k-1, composed by
    the left action (a.b)(x) = a(b(x)). Each composite is looked up by its
    base-k code among the codes of ``perms``."""
    p = np.array(perms, dtype=np.int64).reshape(len(perms), -1)
    comp = p[np.arange(len(p))[:, None, None], p[None, :, :]]   # a(b(x))
    weights = p.shape[1] ** np.arange(p.shape[1])[::-1]
    codes = p @ weights
    by_code = np.argsort(codes)
    found = np.searchsorted(codes[by_code], comp @ weights)
    return by_code[found].astype(np.int32)


def _perm_parity(p: tuple[int, ...]) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


# Catalog groups by descriptor, oldest first, while their squared orders sum
# to at most SHARED_ORDER_SQ. A kept group holds at most 4 + 16 + 8 + 1 bytes
# per n^2 entry (table, nonabelian irreps' matrices, the distances a Bohr
# search reads, and its level table of 1 byte per irrep and element for a
# grid of up to 255 radii): about 29 MB. Abelian characters hold 1 or 2
# bytes of phase and 8 of distance per entry, and 16 more only once their
# matrices are read. The combos of each level a Bohr walk entered come on
# top, 1 or 2 bytes per summand: at most 2 bytes per entry for the pairs of
# an abelian group, and about n^3 / 6 combos at the level past them, which
# only a budget past every pair reaches.
SHARED_ORDER_SQ = 1 << 20
_SHARED: dict[str, FiniteGroup] = {}


def build_group(descriptor: str) -> FiniteGroup:
    """A validated group from a descriptor string.

    Supported forms: ``zmod:n``, ``product:<d1>,<d2>,...`` (comma-separated
    atomic descriptors), ``dihedral:n``, ``quaternion:8``, ``sym:n`` and
    ``alt:n`` for n <= 5, and ``file:<path>`` for a Cayley-table text file.
    A catalog descriptor gives one shared object, with its irreps, level
    table and combos, while it is kept (see SHARED_ORDER_SQ); a ``file:``
    table is read on every call, as the file may change.
    """
    descriptor = descriptor.strip()
    head, _, rest = descriptor.partition(":")
    if head == "file":
        return from_cayley_table(Path(rest).read_text(encoding="utf-8"), descriptor)
    if descriptor in _SHARED:
        return _SHARED[descriptor]
    if head == "product":
        parts = [p.strip() for p in rest.split(",") if p]
        if not parts:
            raise ValueError(f"empty product descriptor {descriptor!r}")
        # a catalog factor's order is read off its descriptor, so a product
        # over the cap builds no factor table; file: and product: factors
        # are built (a file is read once)
        built = {p: build_group(p) for p in parts
                 if p.partition(":")[0] in ("file", "product")}
        order = math.prod(built[p].order if p in built else _catalog_order(p)
                          for p in parts)
        if order > MAX_ORDER:  # checked before the (n1 n2)^2 table
            raise ValueError(f"product order {order} exceeds cap {MAX_ORDER}")
        table = reduce(_product_table, [(built.get(p) or build_group(p)).table
                                        for p in parts])
    else:
        order = _catalog_order(descriptor)
        if head == "zmod":
            table = _cyclic_table(order)
        elif head == "dihedral":
            table = _dihedral_table(order // 2)
        elif head == "quaternion":
            table = _quaternion_table()
        else:
            perms = [tuple(p) for p in itertools.permutations(range(int(rest)))]
            if head == "alt":
                perms = [p for p in perms if _perm_parity(p) == 0]
            table = _permutation_table(perms)
    table.setflags(write=False)  # a fresh table: the group keeps it uncopied
    group = FiniteGroup(table, descriptor)
    if group.order ** 2 <= SHARED_ORDER_SQ:  # else built but not kept
        _SHARED[descriptor] = group
        while sum(g.order ** 2 for g in _SHARED.values()) > SHARED_ORDER_SQ:
            del _SHARED[next(iter(_SHARED))]
    return group


def _catalog_order(descriptor: str) -> int:
    """The order of the group a catalog descriptor (not ``file:`` or
    ``product:``) names, read off the descriptor and checked against the
    catalog ranges: zmod n, dihedral 2n, quaternion 8, sym n!, alt n!/2."""
    head, _, rest = descriptor.partition(":")
    if head == "zmod":
        return _parse_count(rest, descriptor, 1, MAX_ORDER)
    if head == "dihedral":
        return 2 * _parse_count(rest, descriptor, 1, MAX_ORDER // 2)
    if head == "quaternion":
        if rest != "8":
            raise ValueError(f"only quaternion:8 is in the catalog, got {descriptor!r}")
        return 8
    if head in ("sym", "alt"):
        n = _parse_count(rest, descriptor, 1, 5)
        return max(1, math.factorial(n) // (2 if head == "alt" else 1))
    raise ValueError(f"unknown group descriptor {descriptor!r}")


def _parse_count(text: str, descriptor: str, lo: int, hi: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"bad group descriptor {descriptor!r}") from None
    if not lo <= n <= hi:
        raise ValueError(f"{descriptor!r}: size {n} outside catalog range [{lo},{hi}]")
    return n


def _table_tokens(text: str) -> Iterator[str]:
    """The whitespace-separated tokens of ``text``, split a line at a time
    so that only one line's tokens are held as strings."""
    return itertools.chain.from_iterable(map(str.split, text.splitlines()))


def from_cayley_table(text: str, descriptor: str = "table") -> FiniteGroup:
    """Parse and validate a Cayley table.

    Format: first line is the order n, then n lines of n whitespace-separated
    element indices, row a listing the products a*b.
    """
    tokens = _table_tokens(text)
    try:
        n = int(next(tokens))
    except StopIteration:
        raise GroupValidationError("empty table text") from None
    except ValueError as exc:
        raise GroupValidationError(f"non-integer token in table: {exc}") from None
    if not 1 <= n <= MAX_ORDER:
        raise GroupValidationError(f"table order {n} outside [1, {MAX_ORDER}]")
    try:
        try:
            entries = np.fromiter(map(int, tokens), dtype=np.int64)
        except OverflowError:
            # an entry beyond int64 lies outside [0, n) too: parse again,
            # each entry clamped to [-1, n], so that the check places it
            entries = np.fromiter(
                (min(max(int(t), -1), n)
                 for t in itertools.islice(_table_tokens(text), 1, None)),
                dtype=np.int64)
    except ValueError as exc:
        raise GroupValidationError(f"non-integer token in table: {exc}") from None
    if entries.size != n * n:
        raise GroupValidationError(
            f"expected {n * n} entries for order {n}, got {entries.size}")
    table = np.empty((n, n), dtype=np.int32)
    # an entry outside [-1, n] is clamped into int32 and stays outside [0, n),
    # so _validate_table names the first bad entry as for any other
    table.ravel()[:] = np.clip(entries, -1, n, out=entries)
    table.setflags(write=False)  # a fresh table: the group keeps it uncopied
    return FiniteGroup(table, descriptor)


# ---------------------------------------------------------------------------
# Text formats for subsets and functions


def parse_subset(group: FiniteGroup, text: str) -> Subset:
    """Parse one line of whitespace-separated element indices."""
    return Subset.from_indices(group, (int(t) for t in text.split()))


def parse_function(group: FiniteGroup, text: str) -> GroupFunction:
    """Parse n lines holding one decimal real in [-1,1] per element index."""
    vals = [float(t) for t in text.split()]
    if len(vals) != group.order:
        raise ValueError(f"expected {group.order} values, got {len(vals)}")
    return GroupFunction(group, vals)


# ---------------------------------------------------------------------------
# Catalog


_CATALOG: tuple[tuple[str, int], ...] = (
    ("zmod:2", 2), ("zmod:3", 3), ("zmod:4", 4), ("zmod:5", 5), ("zmod:6", 6),
    ("zmod:7", 7), ("zmod:8", 8), ("zmod:9", 9), ("zmod:10", 10), ("zmod:12", 12),
    ("zmod:15", 15), ("zmod:16", 16), ("zmod:20", 20), ("zmod:24", 24),
    ("zmod:30", 30), ("zmod:36", 36), ("zmod:48", 48), ("zmod:60", 60),
    ("zmod:100", 100),
    ("product:zmod:2,zmod:2", 4), ("product:zmod:2,zmod:4", 8),
    ("product:zmod:2,zmod:2,zmod:2", 8), ("product:zmod:3,zmod:3", 9),
    ("product:zmod:4,zmod:4", 16),
    ("dihedral:2", 4), ("dihedral:3", 6), ("dihedral:4", 8), ("dihedral:5", 10),
    ("dihedral:6", 12), ("dihedral:9", 18), ("dihedral:10", 20), ("dihedral:12", 24),
    ("dihedral:15", 30),
    ("dihedral:30", 60), ("dihedral:50", 100),
    ("quaternion:8", 8),
    ("sym:3", 6), ("sym:4", 24),
    ("alt:4", 12), ("alt:5", 60),
)


def catalog_descriptors(max_order: int) -> list[str]:
    """Descriptors of the fixed test catalog with order <= max_order."""
    return [d for d, o in _CATALOG if o <= max_order]
