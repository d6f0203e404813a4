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
        table = np.array(table, dtype=np.int32, order="C")
        self.generators = _validate_table(table)
        self.table = table
        self.order = int(table.shape[0])
        self.identity = _find_identity(table)
        self.inverse = np.ascontiguousarray(
            np.argmax(table == self.identity, axis=1).astype(np.int32))
        self.descriptor = descriptor
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self._abelian: bool | None = None
        self._exponent: int | None = None
        self._irreps = None  # filled by reps.irreps_of

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conjugate(self, g: int, a: int) -> int:
        """Return g * a * g^-1."""
        return int(self.table[self.table[g, a], self.inverse[g]])

    def elements(self) -> range:
        return range(self.order)

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def element_order(self, a: int) -> int:
        k, x = 1, int(a)
        while x != self.identity:
            x = int(self.table[x, a])
            k += 1
        return k

    def element_orders(self) -> np.ndarray:
        """Order of every element, from one power walk over all of them."""
        elems = power = np.arange(self.order)
        orders = np.ones(self.order, dtype=np.int64)
        live = power != self.identity
        while live.any():
            power = self.table[power, elems]
            orders += live
            live &= power != self.identity
        return orders

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = reduce(math.lcm, self.element_orders().tolist(), 1)
        return self._exponent

    def __repr__(self) -> str:
        return f"FiniteGroup({self.descriptor!r}, order={self.order})"


def _validate_table(table: np.ndarray) -> tuple[int, ...]:
    """Raise ``GroupValidationError`` unless ``table`` is a group's Cayley
    table; return the generating set Light's test checked."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupValidationError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if n < 1:
        raise GroupValidationError("group order must be positive")
    if n > MAX_ORDER:
        raise GroupValidationError(f"order {n} exceeds cap {MAX_ORDER}")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise GroupValidationError(
            f"entry out of range at {tuple(bad)}", witness=tuple(int(x) for x in bad))

    ident = np.arange(n, dtype=np.int32)
    # columns are sorted as the rows of a contiguous transposed copy, which
    # is several times faster than a strided sort along axis 0
    for lines, name in ((table, "row"), (np.ascontiguousarray(table.T), "column")):
        ok = (np.sort(lines, axis=1) == ident).all(axis=1)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise GroupValidationError(
                f"not a Latin square: {name} {bad} is not a permutation", witness=bad)

    return _check_associative(table, _find_identity(table))


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
        lhs = table[table[:, s]]                     # (x*s)*y
        rhs = np.take(table, table[s], axis=1)       # x*(s*y)
        if not np.array_equal(lhs, rhs):
            x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise GroupValidationError(
                f"not associative at ({x},{s},{y})", witness=(x, s, y))
        # grow the closure of the checked elements by squaring it
        checked.append(s)
        inside[s] = True
        closed = np.flatnonzero(inside)
        while len(closed) < n:
            inside[np.take(table[closed], closed, axis=1)] = True
            if inside.sum() == len(closed):
                break
            closed = np.flatnonzero(inside)
        if len(closed) == n:
            break
    return tuple(checked)


def _find_identity(table: np.ndarray) -> int:
    n = table.shape[0]
    ident = np.arange(n, dtype=table.dtype)
    rows = (table == ident[None, :]).all(axis=1)
    cols = (table == ident[:, None]).all(axis=0)
    hits = np.flatnonzero(rows & cols)
    if hits.size == 0:
        raise GroupValidationError("no identity element")
    return int(hits[0])


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

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices) -> "Subset":
        mask = np.zeros(group.order, dtype=bool)
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= group.order):
            raise ValueError("subset index out of range")
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

    def complement(self) -> "Subset":
        return Subset(self.group, ~self.mask)

    def is_subset_of(self, other: "Subset") -> bool:
        self._check_group(other)
        return bool((~self.mask | other.mask).all())

    def _check_group(self, other: "Subset") -> None:
        if other.group is not self.group:
            raise ValueError("subsets belong to different groups")

    def __len__(self) -> int:
        return int(self.mask.sum())

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
    return (idx[:, None] + idx[None, :]) % n


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


_QUAT_UNITS = ("1", "i", "j", "k")
_QUAT_MULT = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _quaternion_table() -> np.ndarray:
    # element 2u + (0 if sign +1 else 1) for unit index u: 1,-1,i,-i,j,-j,k,-k
    elems = [(s, u) for u in _QUAT_UNITS for s in (1, -1)]
    index = {e: i for i, e in enumerate(elems)}
    table = np.zeros((8, 8), dtype=np.int32)
    for a, (sa, ua) in enumerate(elems):
        for b, (sb, ub) in enumerate(elems):
            sm, um = _QUAT_MULT[(ua, ub)]
            table[a, b] = index[(sa * sb * sm, um)]
    return table


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
# to at most SHARED_ORDER_SQ. A kept group holds 4 + 16 + 8 bytes per n^2
# entry (table, irreps, the distances a Bohr search reads): about 28 MB.
SHARED_ORDER_SQ = 1 << 20
_SHARED: dict[str, FiniteGroup] = {}


def build_group(descriptor: str) -> FiniteGroup:
    """A validated group from a descriptor string.

    Supported forms: ``zmod:n``, ``product:<d1>,<d2>,...`` (comma-separated
    atomic descriptors), ``dihedral:n``, ``quaternion:8``, ``sym:n`` and
    ``alt:n`` for n <= 5, and ``file:<path>`` for a Cayley-table text file.
    A catalog descriptor gives one shared object, with its irreps, while it
    is kept (about 28 MB in all, see SHARED_ORDER_SQ); a ``file:`` table is
    read on every call, as the file may change.
    """
    descriptor = descriptor.strip()
    head, _, rest = descriptor.partition(":")
    if head == "file":
        return from_cayley_table(Path(rest).read_text(encoding="utf-8"), descriptor)
    if descriptor in _SHARED:
        return _SHARED[descriptor]
    if head == "zmod":
        table = _cyclic_table(_parse_count(rest, descriptor, 1, MAX_ORDER))
    elif head == "product":
        parts = [p for p in rest.split(",") if p]
        if not parts:
            raise ValueError(f"empty product descriptor {descriptor!r}")
        tables = [build_group(p).table for p in parts]
        order = math.prod(len(t) for t in tables)  # checked before the (n1 n2)^2 table
        if order > MAX_ORDER:
            raise ValueError(f"product order {order} exceeds cap {MAX_ORDER}")
        table = reduce(_product_table, tables)
    elif head == "dihedral":
        table = _dihedral_table(_parse_count(rest, descriptor, 1, MAX_ORDER // 2))
    elif head == "quaternion":
        if rest != "8":
            raise ValueError(f"only quaternion:8 is in the catalog, got {descriptor!r}")
        table = _quaternion_table()
    elif head in ("sym", "alt"):
        n = _parse_count(rest, descriptor, 1, 5)
        perms = [tuple(p) for p in itertools.permutations(range(n))]
        if head == "alt":
            perms = [p for p in perms if _perm_parity(p) == 0]
        table = _permutation_table(perms)
    else:
        raise ValueError(f"unknown group descriptor {descriptor!r}")
    group = FiniteGroup(table, descriptor)
    if group.order ** 2 <= SHARED_ORDER_SQ:  # else built but not kept
        _SHARED[descriptor] = group
        while sum(g.order ** 2 for g in _SHARED.values()) > SHARED_ORDER_SQ:
            del _SHARED[next(iter(_SHARED))]
    return group


def _parse_count(text: str, descriptor: str, lo: int, hi: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"bad group descriptor {descriptor!r}") from None
    if not lo <= n <= hi:
        raise ValueError(f"{descriptor!r}: size {n} outside catalog range [{lo},{hi}]")
    return n


def from_cayley_table(text: str, descriptor: str = "table") -> FiniteGroup:
    """Parse and validate a Cayley table.

    Format: first line is the order n, then n lines of n whitespace-separated
    element indices, row a listing the products a*b.
    """
    tokens = text.split()
    if not tokens:
        raise GroupValidationError("empty table text")
    try:
        n = int(tokens[0])
    except ValueError as exc:
        raise GroupValidationError(f"non-integer token in table: {exc}") from None
    if not 1 <= n <= MAX_ORDER:
        raise GroupValidationError(f"table order {n} outside [1, {MAX_ORDER}]")
    try:
        entries = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise GroupValidationError(f"non-integer token in table: {exc}") from None
    if len(entries) != n * n:
        raise GroupValidationError(
            f"expected {n * n} entries for order {n}, got {len(entries)}")
    table = np.asarray(entries, dtype=np.int32).reshape(n, n)
    return FiniteGroup(table, descriptor)


def format_cayley_table(group: FiniteGroup) -> str:
    lines = [str(group.order)]
    lines += [" ".join(str(int(x)) for x in row) for row in group.table]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Text formats for subsets and functions


def parse_subset(group: FiniteGroup, text: str) -> Subset:
    """Parse one line of whitespace-separated element indices."""
    return Subset.from_indices(group, (int(t) for t in text.split()))


def format_subset(subset: Subset) -> str:
    return " ".join(str(int(i)) for i in subset.indices) + "\n"


def parse_function(group: FiniteGroup, text: str) -> GroupFunction:
    """Parse n lines holding one decimal real in [-1,1] per element index."""
    vals = [float(t) for t in text.split()]
    if len(vals) != group.order:
        raise ValueError(f"expected {group.order} values, got {len(vals)}")
    return GroupFunction(group, vals)


def format_function(fn: GroupFunction) -> str:
    return "\n".join(repr(float(v)) for v in fn.values) + "\n"


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
