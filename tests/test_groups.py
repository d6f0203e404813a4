import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrlab import (FiniteGroup, GroupValidationError, Subset, build_group,
                     catalog_descriptors, from_cayley_table, inverse_set,
                     irreps_of, product_set, translate_set)
from bohrlab import groups
from bohrlab.gen import interval_subset
from bohrlab.groups import (GroupFunction, _dihedral_table, _perm_parity,
                            _permutation_table, parse_function, parse_subset)
from conftest import format_cayley_table, format_function, format_subset

# order-5 loop: Latin square with identity 0 that fails associativity at (1,1,2)
NONASSOC_LOOP = """5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


def test_zmod6_basic():
    g = build_group("zmod:6")
    assert g.order == 6
    assert g.is_abelian
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4


def test_dihedral4_validates_by_brute_force():
    g = build_group("dihedral:4")
    assert g.order == 8
    assert not g.is_abelian
    # independent re-validation with plain loops
    t = g.table
    n = g.order
    for row in range(n):
        assert sorted(t[row]) == list(range(n))
        assert sorted(t[:, row]) == list(range(n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert t[t[a, b], c] == t[a, t[b, c]]


def _dihedral_reference(n):
    # index i < n: rotation x -> x+i; index n+a: reflection x -> a-x
    table = np.zeros((2 * n, 2 * n), dtype=np.int32)
    for i in range(n):
        for j in range(n):
            table[i, j] = (i + j) % n
            table[i, n + j] = n + (i + j) % n
            table[n + i, j] = n + (i - j) % n
            table[n + i, n + j] = (i - j) % n
    return table


def test_dihedral_table_matches_reference_loop():
    for n in [*range(1, 65), 1024]:
        table = _dihedral_table(n)
        assert table.dtype == np.int32, n
        assert np.array_equal(table, _dihedral_reference(n)), n


def test_alt5_is_simple_by_brute_force(a5):
    assert a5.order == 60
    assert not a5.is_abelian
    # the normal closure of any non-identity element is the whole group
    for g in range(1, a5.order, 7):
        closure = {a5.identity, g}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            new = {a5.conjugate(h, x) for h in a5.elements()}
            new |= {a5.mul(x, y) for y in list(closure)}
            new |= {a5.inv(x)}
            for y in new:
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
        assert len(closure) == 60


def test_quaternion8():
    g = build_group("quaternion:8")
    assert g.order == 8
    assert not g.is_abelian
    assert g.exponent() == 4
    # exactly one element of order 2 (-1)
    assert sum(1 for a in g.elements() if g.element_order(a) == 2) == 1


def test_quaternion8_layout():
    """Element 2u + (1 for a minus sign) for u over 1, i, j, k."""
    table = build_group("quaternion:8").table
    assert table[2, 4] == 6  # i j = k
    assert table[4, 2] == 7  # j i = -k
    assert table[2, 2] == 1  # i^2 = -1
    assert table.tolist() == [[0, 1, 2, 3, 4, 5, 6, 7],
                              [1, 0, 3, 2, 5, 4, 7, 6],
                              [2, 3, 1, 0, 6, 7, 5, 4],
                              [3, 2, 0, 1, 7, 6, 4, 5],
                              [4, 5, 7, 6, 1, 0, 2, 3],
                              [5, 4, 6, 7, 0, 1, 3, 2],
                              [6, 7, 4, 5, 3, 2, 1, 0],
                              [7, 6, 5, 4, 2, 3, 0, 1]]


def test_from_cayley_table_z2():
    g = from_cayley_table("2\n0 1\n1 0\n")
    assert g.order == 2
    assert g.identity == 0


def test_from_cayley_table_rejects_non_latin():
    with pytest.raises(GroupValidationError, match="Latin"):
        from_cayley_table("2\n0 0\n1 0\n")
    try:
        from_cayley_table("2\n0 0\n1 0\n")
    except GroupValidationError as exc:
        assert exc.witness == 0


def test_from_cayley_table_rejects_non_latin_column():
    # rows stay permutations after swapping two entries of row 2 of Z/5,
    # which breaks columns 1 and 3; the first is the witness
    t = (np.arange(5)[:, None] + np.arange(5)[None, :]) % 5
    t[2, [1, 3]] = t[2, [3, 1]]
    text = "5\n" + "\n".join(" ".join(map(str, row)) for row in t) + "\n"
    with pytest.raises(GroupValidationError,
                       match="not a Latin square: column 1 is not a permutation") as exc:
        from_cayley_table(text)
    assert exc.value.witness == 1


def _permutation_table_by_loop(perms):
    """The Cayley table by a python loop over pairs and a dict lookup."""
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((len(perms), len(perms)), dtype=np.int32)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            table[a, b] = index[tuple(pa[x] for x in pb)]
    return table


@pytest.mark.parametrize("head", ["sym", "alt"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_permutation_table_matches_loop(head, k):
    perms = list(itertools.permutations(range(k)))
    if head == "alt":
        perms = [p for p in perms if _perm_parity(p) == 0]
    table = _permutation_table(perms)
    assert table.dtype == np.int32
    assert table.tobytes() == _permutation_table_by_loop(perms).tobytes()
    assert np.array_equal(build_group(f"{head}:{k}").table, table)


def test_from_cayley_table_rejects_nonassociative():
    with pytest.raises(GroupValidationError, match="associative"):
        from_cayley_table(NONASSOC_LOOP)
    try:
        from_cayley_table(NONASSOC_LOOP)
    except GroupValidationError as exc:
        a, b, c = exc.witness
        t = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                      [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
        assert t[t[a, b], c] != t[a, t[b, c]]


def _associative_by_triple_scan(t):
    """Brute force over all n^3 triples: (ab)c == a(bc)."""
    n = len(t)
    a, b, c = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    return bool(np.array_equal(t[t[a, b], c], t[a, t[b, c]]))


def _random_latin_square(n, rng):
    """A random Latin square, by randomized cell-by-cell backtracking."""
    t = -np.ones((n, n), dtype=np.int64)

    def fill(cell):
        if cell == n * n:
            return True
        r, c = divmod(cell, n)
        for v in rng.permutation(n):
            if v not in t[r, :c] and v not in t[:r, c]:
                t[r, c] = v
                if fill(cell + 1):
                    return True
        t[r, c] = -1
        return False

    fill(0)
    return t


def _random_loop(n, rng):
    """A loop table of order n, relabelled so its identity sits anywhere.

    Half the time an isotope of a catalog group of order n (a loop isotopic
    to a group is a group), else a random Latin square; either is reduced so
    row and column 0 read 0..n-1.
    """
    groups = [d for d in catalog_descriptors(8) if build_group(d).order == n]
    if rng.random() < 0.5:
        base = build_group(groups[rng.integers(len(groups))]).table
        sym = rng.permutation(n)
        square = sym[base][rng.permutation(n)][:, rng.permutation(n)]
    else:
        square = _random_latin_square(n, rng)
    square = square[:, np.argsort(square[0])]
    square = square[np.argsort(square[:, 0])]
    relabel = rng.permutation(n)
    loop = np.empty_like(square)
    loop[np.ix_(relabel, relabel)] = relabel[square]
    return loop


def test_light_test_agrees_with_triple_scan_on_random_loops():
    rng = np.random.default_rng(2024)
    verdicts = {True: 0, False: 0}
    for _ in range(1200):
        t = _random_loop(int(rng.integers(2, 9)), rng)
        expected = _associative_by_triple_scan(t)
        verdicts[expected] += 1
        if expected:
            assert FiniteGroup(t).order == len(t)
            continue
        with pytest.raises(GroupValidationError, match="not associative") as err:
            FiniteGroup(t)
        a, b, c = err.value.witness
        assert t[t[a, b], c] != t[a, t[b, c]]
    assert min(verdicts.values()) >= 250, verdicts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_light_test_checks_past_the_middle_nucleus(k):
    # in Q x Z/k the elements (e, g) associate with everything; they come
    # first in index order, so the walk checks them and closes over them
    # before it reaches the first element of Q, which fails
    q = np.array([row.split() for row in NONASSOC_LOOP.splitlines()[1:]],
                 dtype=int)
    z = build_group(f"zmod:{k}").table
    t = (q[:, None, :, None] * k + z[None, :, None, :]).reshape(5 * k, 5 * k)
    assert not _associative_by_triple_scan(t)
    with pytest.raises(GroupValidationError, match="not associative") as err:
        FiniteGroup(t)
    x, s, y = err.value.witness
    assert s == k
    assert t[t[x, s], y] != t[x, t[s, y]]


def test_light_test_rejects_one_intercalate_swap_on_z300():
    # rows a and a+150, columns b and b+150 of Z/300 form a 2x2 Latin
    # subsquare; swapping it keeps a Latin square with identity 0
    t = build_group("zmod:300").table.copy()
    a, b = 1, 2
    for row in (a, a + 150):
        t[row, [b, b + 150]] = t[row, [b + 150, b]]
    with pytest.raises(GroupValidationError, match="not associative") as err:
        FiniteGroup(t)
    x, s, y = err.value.witness
    assert t[t[x, s], y] != t[x, t[s, y]]


def _broken_z300_tables():
    """Tables of Z/300 that fail validation past their first block of rows:
    rows 200 and 250 swapped at column 57 (its column stays a permutation),
    columns 210 and 260 swapped at row 33 (its row stays one), and an
    intercalate swap on rows 101 and 251, columns 102 and 252, which keeps
    a Latin square with identity 0 but breaks associativity."""
    z = build_group("zmod:300").table
    rows, cols, swap = z.copy(), z.copy(), z.copy()
    rows[[200, 250], 57] = rows[[250, 200], 57]
    cols[33, [210, 260]] = cols[33, [260, 210]]
    for r in (101, 251):
        swap[r, [102, 252]] = swap[r, [252, 102]]
    return [rows, cols, swap]


@pytest.mark.parametrize("block_entries", [None, 1, 1000])
def test_blocked_validation_reports_the_first_failure(monkeypatch, block_entries):
    # blocks of 109 rows as shipped, of one row, and of three rows must all
    # report the failure an unblocked row-major scan meets first
    if block_entries is not None:
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block_entries)
    found = []
    for t in _broken_z300_tables():
        with pytest.raises(GroupValidationError) as err:
            FiniteGroup(t)
        found.append((str(err.value), err.value.witness))
    assert found == [
        ("not a Latin square: row 200 is not a permutation", 200),
        ("not a Latin square: column 210 is not a permutation", 210),
        ("not associative at (100,1,102)", (100, 1, 102))]


def test_validation_peak_stays_within_a_few_blocks():
    # an order-2048 table is 16 MiB of int32; validating it whole took
    # transposed copies, sorts and products of 16 MiB each (a 76 MiB peak)
    table = build_group("zmod:2048").table.copy()
    tracemalloc.start()
    try:
        FiniteGroup(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_group_copies_a_writable_table_and_shares_a_read_only_one():
    table = groups._cyclic_table(6)
    g = FiniteGroup(table)
    table[0, 0] = 5  # a later write to the caller's array
    assert g.table is not table and g.mul(0, 0) == 0
    assert g.table.tolist() == groups._cyclic_table(6).tolist()
    table = groups._cyclic_table(6)
    table.setflags(write=False)
    assert FiniteGroup(table).table is table
    wide = table.astype(np.int64)
    wide.setflags(write=False)
    for other in (table[:], wide):  # a read-only view or dtype is copied too
        assert FiniteGroup(other).table is not other


def _walked_orders(g):
    """Every element's order by the plain power walk, one table gather of
    all elements per power, up to the exponent."""
    elems = power = np.arange(g.order)
    orders = np.ones(g.order, dtype=np.int64)
    live = power != g.identity
    while live.any():
        power = g.table[power, elems]
        orders += live
        live &= power != g.identity
    return orders


@pytest.mark.parametrize("desc", catalog_descriptors(256)
                         + ["zmod:2048", "product:zmod:2,zmod:1024"])
def test_element_orders_match_the_power_walk(desc):
    g = build_group(desc)
    orders = g.element_orders()
    assert orders.dtype == np.int64
    assert np.array_equal(orders, _walked_orders(g))


def test_element_orders_match_element_order():
    for desc in catalog_descriptors(100):
        g = build_group(desc)
        assert g.element_orders().tolist() == [g.element_order(a)
                                               for a in g.elements()], desc


def test_element_orders_are_computed_once_and_read_only():
    g = build_group("dihedral:6")
    orders = g.element_orders()
    assert g.element_orders() is orders
    with pytest.raises(ValueError):
        orders[1] = 5


def _python_closure(g, members):
    s = set(members)
    while True:
        grown = s | {g.mul(a, b) for a in s for b in s}
        if grown == s:
            return s
        s = grown


@pytest.mark.parametrize("desc", catalog_descriptors(60))
def test_closure_matches_python_sets(desc):
    g = build_group(desc)
    rng = np.random.default_rng(g.order)
    subsets = [[], [g.identity]] + [
        rng.choice(g.order, size=min(k, g.order), replace=False).tolist()
        for k in (1, 1, 2, 2, 3)]
    for members in subsets:
        mark = np.zeros(g.order, dtype=bool)
        mark[members] = True
        got = groups.closure(g.table, mark)
        assert got.tolist() == sorted(_python_closure(g, members)), members
        assert np.array_equal(np.flatnonzero(mark), got)


def test_from_cayley_table_rejects_missing_identity():
    # Latin square with no two-sided identity
    with pytest.raises(GroupValidationError, match="identity"):
        from_cayley_table("3\n0 1 2\n2 0 1\n1 2 0\n")


def test_cayley_round_trip(s3):
    text = format_cayley_table(s3)
    g2 = from_cayley_table(text)
    assert g2.order == 6
    assert not g2.is_abelian
    assert np.array_equal(g2.table, s3.table)


def _list_table_parse(text):
    """The table from_cayley_table builds from ``text``, or its error
    message, with the entries parsed through lists of tokens and ints."""
    try:
        tokens = text.split()
        if not tokens:
            raise GroupValidationError("empty table text")
        try:
            n = int(tokens[0])
        except ValueError as exc:
            raise GroupValidationError(f"non-integer token in table: {exc}") from None
        if not 1 <= n <= groups.MAX_ORDER:
            raise GroupValidationError(
                f"table order {n} outside [1, {groups.MAX_ORDER}]")
        try:
            entries = [int(t) for t in tokens[1:]]
        except ValueError as exc:
            raise GroupValidationError(f"non-integer token in table: {exc}") from None
        if len(entries) != n * n:
            raise GroupValidationError(
                f"expected {n * n} entries for order {n}, got {len(entries)}")
        return FiniteGroup(np.array(entries, dtype=np.int32).reshape(n, n)).table.tolist()
    except GroupValidationError as exc:
        return str(exc)


# what int() reads (signs, underscores, other decimal digits), whitespace
# that ends a line, and each error before the table is built
TABLE_TEXTS = [
    "2\n0 1\n1 0\n", "2\n+0 +1\n+1 -0", "2\n0_0 1\n1 0",
    "2\n\u0660 \u0661\n\u0661 \u0660", "2\u20280 1\x1c1 0\x851\r0", "  2 0 1 1 0  ",
    "", "\n \t\n", "x 0 1 1 0", "2.0\n0 1\n1 0", "2\n0 1\n1 x",
    "2\n0 1\n1 0.5", "2\n0 1\n1", "2\n0 1\n1 0 0", "0", "2049",
    "2\n0 1\n1 5", "2\n0 1\n1 -1", "2\n0 1\n1 99999999999999999999999 x",
    "2\n0 1\n1 99999999999999999999999 0 0", "2\n0 1\n1 1",
]


@pytest.mark.parametrize("text", TABLE_TEXTS)
def test_table_parse_matches_the_list_parse(text):
    try:
        got = from_cayley_table(text).table.tolist()
    except GroupValidationError as exc:
        got = str(exc)
    assert got == _list_table_parse(text)


def test_table_parse_holds_no_list_of_entries():
    # parsed through lists of its million tokens and ints, this 4 MiB table
    # peaked at 96.5 MiB
    z1024 = build_group("zmod:1024")
    text = format_cayley_table(z1024)
    tracemalloc.start()
    try:
        g = from_cayley_table(text, "zmod:1024")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(g.table, z1024.table)
    assert peak < 48 << 20, peak


@pytest.mark.parametrize("indices", [range(2, 9, 3), range(0), range(10, 14),
                                     range(-1, 2), range(2**63, 2**63 + 2)])
def test_from_indices_reads_every_form_alike(z12, indices):
    forms = [list(indices), indices, (i for i in indices)]
    if all(-2**63 <= i < 2**63 for i in indices):
        forms.append(np.array(list(indices), dtype=np.int64))
    if all(0 <= i < 2**64 for i in indices):
        forms.append(np.array(list(indices), dtype=np.uint64))
    outcomes = []
    for form in forms:
        try:
            outcomes.append(Subset.from_indices(z12, form))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert len(forms) >= 4
    assert all(outcome == outcomes[0] for outcome in outcomes), outcomes


def test_unknown_descriptor_errors():
    with pytest.raises(ValueError):
        build_group("frobnicate:5")
    with pytest.raises(ValueError):
        build_group("sym:6")


def test_product_set_examples(z4):
    a = Subset.from_indices(z4, [0, 1])
    assert sorted(product_set(a, Subset.singleton(z4, 0)).indices) == [0, 1]
    # enumerate the 4 pairs by hand
    expected = sorted({(x + y) % 4 for x in (0, 1) for y in (0, 1)})
    assert sorted(product_set(a, a).indices) == expected == [0, 1, 2]
    full = Subset.full(z4)
    assert product_set(full, a) == full


def test_inverse_set_examples(z4):
    a = Subset.from_indices(z4, [0, 1])
    assert sorted(inverse_set(a).indices) == [0, 3]
    sym = Subset.from_indices(z4, [1, 3])
    assert inverse_set(sym) == sym
    assert inverse_set(inverse_set(a)) == a


def test_translate_examples(z4):
    a = Subset.from_indices(z4, [0, 1])
    assert translate_set(z4.identity, a) == a
    assert sorted(translate_set(2, a, "left").indices) == [2, 3]
    for g in z4.elements():
        assert len(translate_set(g, a, "left")) == len(a)
        assert len(translate_set(g, a, "right")) == len(a)


_ELEMENT_HELPERS = {
    "mul": lambda g, x: g.mul(x, 0),
    "mul, right": lambda g, x: g.mul(0, x),
    "inv": lambda g, x: g.inv(x),
    "conjugate": lambda g, x: g.conjugate(x, 1),
    "conjugate, inner": lambda g, x: g.conjugate(1, x),
    "element_order": lambda g, x: g.element_order(x),
    "translate_set": lambda g, x: translate_set(x, Subset.from_indices(g, [1, 2])),
    "translate_set, right": lambda g, x: translate_set(
        x, Subset.from_indices(g, [1, 2]), "right"),
}


@pytest.mark.parametrize("helper", list(_ELEMENT_HELPERS))
@pytest.mark.parametrize("element", [-1, 12, 2**63, 1.0])
def test_element_helpers_reject_elements_out_of_range(z12, helper, element):
    # a negative index would wrap round the table, a large one raise
    # IndexError
    with pytest.raises(ValueError, match="element index out of range"):
        _ELEMENT_HELPERS[helper](z12, element)


@pytest.mark.parametrize("helper", list(_ELEMENT_HELPERS))
def test_element_helpers_take_every_element(z12, helper):
    for x in (0, np.int64(11), np.int32(5)):
        _ELEMENT_HELPERS[helper](z12, x)
    assert (z12.mul(11, 1), z12.inv(11), z12.element_order(11)) == (0, 1, 12)


def test_len_counts_the_mask(z12):
    a = Subset.from_indices(z12, [0, 3, 5, 11])
    b = Subset.from_indices(z12, [3, 4, 5])
    subsets = [Subset.empty(z12), Subset.full(z12), a, b,
               a.intersection(b), a.union(b), Subset.from_indices(z12, [])]
    for s in subsets:
        assert len(s) == int(s.mask.sum())
        assert len(s) == int(s.mask.sum())  # the cached count
    assert [len(s) for s in subsets] == [0, 12, 4, 3, 2, 5, 0]


def test_group_mismatch_errors(z4, z6):
    a = Subset.from_indices(z4, [0])
    b = Subset.from_indices(z6, [0])
    with pytest.raises(ValueError):
        product_set(a, b)


def test_measure_invariance_exhaustive_small():
    rng = np.random.default_rng(5)
    for desc in catalog_descriptors(24):
        g = build_group(desc)
        for _ in range(3):
            a = Subset(g, rng.random(g.order) < 0.4)
            for x in g.elements():
                assert len(translate_set(x, a, "left")) == len(a)
                assert len(translate_set(x, a, "right")) == len(a)


def test_product_set_associative_sampled(z12, s3):
    rng = np.random.default_rng(9)
    for g in (z12, s3):
        for _ in range(10):
            a = Subset(g, rng.random(g.order) < 0.4)
            b = Subset(g, rng.random(g.order) < 0.4)
            c = Subset(g, rng.random(g.order) < 0.4)
            assert product_set(product_set(a, b), c) == product_set(a, product_set(b, c))


def test_catalog_builds_and_validates():
    for desc in catalog_descriptors(2048):
        g = build_group(desc)
        assert _associative_by_triple_scan(g.table), desc
        assert g.mul(g.identity, 1 % g.order) == 1 % g.order
        for a in g.elements():
            assert g.mul(a, g.inv(a)) == g.identity
        if desc.startswith(("zmod", "product")):
            assert g.is_abelian
        if desc.startswith(("dihedral:3", "dihedral:4", "sym", "alt:4", "alt:5",
                            "quaternion")):
            assert not g.is_abelian


def test_catalog_descriptor_gives_one_shared_group():
    # validation and irreps are then computed once per descriptor
    g = build_group("dihedral:12")
    assert build_group("  dihedral:12\n") is g and build_group("dihedral:12") is g
    assert build_group("zmod:24") is not build_group("product:zmod:3,zmod:8")


def test_product_over_cap_raises_before_building_its_table():
    build_group("zmod:64")  # warm the shared factor
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="product order 4096 exceeds cap 2048"):
            build_group("product:zmod:64,zmod:64")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4096^2 product table would take 128 MiB of int64
    assert peak < 1 << 20


def test_product_order_is_read_before_any_factor_is_built():
    # an order-2048 factor alone is a 32 MiB table, validated before use
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="product order 4194304 exceeds cap 2048"):
            build_group("product:zmod:2048,zmod:2048")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("desc,order", [
    ("zmod:7", 7), ("dihedral:9", 18), ("quaternion:8", 8), ("sym:1", 1),
    ("sym:4", 24), ("alt:1", 1), ("alt:2", 1), ("alt:3", 3), ("alt:5", 60)])
def test_catalog_order_read_off_descriptor_is_built_order(desc, order):
    assert groups._catalog_order(desc) == order == build_group(desc).order


def test_product_reads_file_factors(tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text(format_cayley_table(build_group("sym:3")))
    g = build_group(f"product:zmod:2,file:{path}")
    assert g.order == 12 and not g.is_abelian
    with pytest.raises(ValueError, match="product order 6144 exceeds cap 2048"):
        build_group(f"product:file:{path},zmod:1024")
    path.write_text("not a table")
    with pytest.raises(ValueError):
        build_group(f"product:zmod:2048,file:{path}")


def test_file_group_is_read_on_every_call(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(format_cayley_table(build_group("zmod:3")))
    first = build_group(f"file:{path}")
    path.write_text(format_cayley_table(build_group("sym:3")))
    second = build_group(f"file:{path}")
    assert (first.order, second.order) == (3, 6) and not second.is_abelian
    assert build_group(f"file:{path}") is not second


def test_shared_groups_stay_under_the_order_bound():
    # each of zmod:600..611 has a squared order above a third of the bound,
    # so at most two stay kept, and the irreps of the others are freed
    tracemalloc.start()
    try:
        for n in range(600, 612):
            irreps_of(build_group(f"zmod:{n}"))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        # a Bohr search also reads every kept character's distances
        for g in list(groups._SHARED.values()):
            for rep in irreps_of(g):
                rep.identity_distances()
        gc.collect()
        held_read = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(groups._SHARED) <= 2
    assert sum(g.order ** 2 for g in groups._SHARED.values()) <= groups.SHARED_ORDER_SQ
    assert held <= 20 << 20
    assert held_read <= 28 << 20


def test_group_above_the_bound_is_built_but_not_kept():
    kept = dict(groups._SHARED)
    g = build_group("zmod:1100")
    assert g.order == 1100 and groups._SHARED == kept


def test_subset_files_round_trip(z12):
    a = Subset.from_indices(z12, [0, 3, 7])
    assert parse_subset(z12, format_subset(a)) == a
    assert parse_subset(z12, "") == Subset.empty(z12)


@pytest.mark.parametrize("text", ["12", "-1", str(2**63), str(-2**63 - 1)])
def test_subset_file_rejects_out_of_range_indices(z12, text):
    # an index beyond int64 overflows numpy; it is out of range like any other
    with pytest.raises(ValueError, match="subset index out of range"):
        parse_subset(z12, text)


def test_function_files_round_trip(z12):
    f = GroupFunction(z12, np.linspace(-1, 1, 12))
    g = parse_function(z12, format_function(f))
    assert np.array_equal(g.values, f.values)


def test_function_bound_enforced(z4):
    with pytest.raises(ValueError):
        GroupFunction(z4, [0.0, 0.5, 1.5, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_function_values_must_be_finite(z4, bad):
    with pytest.raises(ValueError, match="finite"):
        GroupFunction(z4, [0.0, 0.5, bad, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=11)))
def test_inverse_set_involution_property(members):
    g = build_group("zmod:12")
    a = Subset.from_indices(g, members)
    assert inverse_set(inverse_set(a)) == a
    assert len(inverse_set(a)) == len(a)


@pytest.mark.parametrize("n", [1, 2, 11, 12])
def test_interval_subset_matches_residues(n):
    g = build_group(f"zmod:{n}")
    for r in range(2 * n + 2):
        expected = {x % n for x in range(-r, r + 1)}
        assert set(interval_subset(g, r).indices.tolist()) == expected


def test_interval_subset_wide_radius_costs_o_n(z12):
    # from r = n // 2 on the interval is all of Z/n; a radius of 10**6 must
    # not list its 2 * 10**6 + 1 residues
    tracemalloc.start()
    try:
        wide = interval_subset(z12, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wide == Subset.full(z12)
    assert peak < 1 << 20


def test_interval_subset_rejects_negative_radius(z12):
    with pytest.raises(ValueError, match="interval radius must be >= 0, got -3"):
        interval_subset(z12, -3)
