import copy
import gc
import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from bohrlab import (FiniteGroup, abelian_characters, bohr_set, build_group,
                     catalog_descriptors, decompose_regular, direct_sum_hom,
                     irreps_of, measure_hom_residual, min_nontrivial_dim)
from bohrlab import groups, reps
from bohrlab.bohr import DEFAULT_DELTA_GRID
from bohrlab.reps import DirectSum, UnitaryRep


def _op_norm(mat):
    return np.linalg.svd(mat, compute_uv=False)[0]


def test_abelian_characters_z3():
    g = build_group("zmod:3")
    chars = abelian_characters(g)
    assert len(chars) == 3
    assert chars[1].character()[1] == pytest.approx(np.exp(2j * np.pi / 3))
    assert all(c.dim == 1 for c in chars)


def test_abelian_characters_klein():
    g = build_group("product:zmod:2,zmod:2")
    chars = abelian_characters(g)
    assert len(chars) == 4
    for c in chars:
        assert np.allclose(np.abs(c.character().imag), 0, atol=1e-14)
        assert set(np.round(c.character().real).astype(int)) <= {1, -1}


def test_character_orthogonality_exact():
    g = build_group("zmod:12")
    chars = abelian_characters(g)
    mat = np.array([c.character() for c in chars])
    gram = mat @ mat.conj().T / g.order
    assert np.max(np.abs(gram - np.eye(12))) < 1e-12


@pytest.mark.parametrize("desc", ["zmod:12", "zmod:101", "zmod:317"])
def test_orthogonality_defect_depends_on_the_reps_not_the_list(desc):
    # a copy of the group's characters, in the same order, is the same input
    g = build_group(desc)
    chars = irreps_of(g)
    defect = reps.char_orthogonality_defect(chars)
    assert reps.char_orthogonality_defect(list(chars)) == defect
    assert reps.char_orthogonality_defect(tuple(chars)) == defect
    assert defect < 1e-12


def _characters_one_at_a_time(group):
    """Reference: each character's integer phase row built in its own loop."""
    _, radices, coords = reps.cyclic_decomposition(group)
    e = math.lcm(*radices)
    for k in range(group.order):
        digits, rem = [], k
        for m in reversed(radices):
            digits.append(rem % m)
            rem //= m
        digits.reverse()
        phase = np.zeros(group.order, dtype=np.int64)
        for j, m in enumerate(radices):
            phase += digits[j] * (e // m) * coords[:, j]
        yield np.exp(2j * np.pi * (phase % e) / e)


# the exact-phase groups, and one abelian table whose identity is not element 0
PHASE_GROUPS = ["zmod:1", "zmod:2", "zmod:12", "zmod:101", "zmod:200",
                "zmod:1024", "zmod:2048", "product:zmod:2,zmod:2",
                "product:zmod:12,zmod:18", "product:zmod:32,zmod:64",
                "relabelled:product:zmod:12,zmod:18"]


def _phase_group(desc):
    """``desc``'s group; after ``relabelled:``, its table with the elements
    renamed by a fixed random permutation that moves the identity."""
    head, _, rest = desc.partition(":")
    if head != "relabelled":
        return build_group(desc)
    table = build_group(rest).table
    perm = np.random.default_rng(0).permutation(len(table))
    renamed = np.empty_like(table)
    renamed[np.ix_(perm, perm)] = perm[table]
    group = FiniteGroup(renamed, desc)
    assert group.identity != 0
    return group


def _drained(chars):
    """Yield and drop each character in turn, so at most one character's
    lazily built matrices are alive at a time."""
    chars.reverse()
    while chars:
        yield chars.pop()


@pytest.mark.parametrize("desc", list(dict.fromkeys([
    *(d for d in catalog_descriptors(100) if build_group(d).is_abelian),
    *PHASE_GROUPS, "zmod:256"])))
def test_abelian_characters_match_per_character_loop(desc):
    g = _phase_group(desc)
    chars = abelian_characters(g)
    assert len(chars) == g.order
    for rep, values in zip(_drained(chars), _characters_one_at_a_time(g),
                           strict=True):
        assert rep.matrices.reshape(-1).tobytes() == values.tobytes()
        assert not rep.matrices.flags.writeable


@pytest.mark.parametrize("desc", PHASE_GROUPS)
def test_phase_distances_match_the_dense_characters(desc):
    # a character's distance row is read off its phases, without matrices;
    # it is bitwise the dense rep's ||chi(g) - 1||, zero at the identity
    g = _phase_group(desc)
    chars = abelian_characters(g)
    for rep in _drained(chars):
        dist = rep.identity_distances()
        assert "matrices" not in vars(rep)
        assert dist[g.identity] == 0.0
        assert dist.tobytes() == reps._op_norms(rep.matrices - np.eye(1)).tobytes()
        assert dist.tobytes() == UnitaryRep(g, rep.matrices).identity_distances().tobytes()


def test_no_rep_class_overrides_identity_distances():
    # labbench times and counts the one UnitaryRep.identity_distances; an
    # override would take its calls out of the reps.distances span
    classes = [c for c in vars(reps).values()
               if isinstance(c, type) and issubclass(c, UnitaryRep)]
    assert {UnitaryRep, DirectSum, reps.Character} <= set(classes)
    assert [c for c in classes
            if c is not UnitaryRep and "identity_distances" in vars(c)] == []


def test_order_2048_characters_stay_small():
    # n^2 phases in 2 bytes and n^2 distances in 8, about 40 MiB with the
    # row blocks' temporaries; a bound that may only go down
    g = build_group("zmod:2048")
    tracemalloc.start()
    try:
        chars = abelian_characters(g)
        for rep in chars:
            rep.identity_distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any("matrices" in vars(rep) for rep in chars)
    assert peak <= 48 << 20, peak


@pytest.mark.parametrize("desc,gens,orders", [
    ("product:zmod:6,zmod:4,zmod:10", [51, 5, 120], [60, 2, 2]),
    ("product:zmod:2,zmod:4,zmod:8,zmod:16", [1, 16, 128, 512], [16, 8, 4, 2]),
    ("product:zmod:3,zmod:9,zmod:27", [1, 27, 243], [27, 9, 3]),
    ("product:zmod:12,zmod:18", [19, 39], [36, 6])])
def test_cyclic_decomposition_pinned(desc, gens, orders):
    g = build_group(desc)
    got_gens, got_orders, coords = reps.cyclic_decomposition(g)
    assert (got_gens, got_orders) == (gens, orders)
    assert [g.element_order(x) for x in gens] == orders
    assert ((coords >= 0) & (coords < orders)).all()
    # coords[x] rebuilds x as the product of gens[j] ** coords[x, j]
    for x in g.elements():
        y = g.identity
        for gen, e in zip(gens, coords[x]):
            for _ in range(e):
                y = g.mul(y, gen)
        assert y == x


def _cyclic_decomposition_by_mul(group):
    """Reference: the greedy decomposition walking each candidate's powers
    with ``group.mul`` and a numpy membership array."""
    n = group.order
    orders = group.element_orders()
    by_order = np.argsort(-orders, kind="stable")
    gens = []
    span, exps = np.array([group.identity]), np.zeros((1, 0), dtype=np.int64)
    while span.size < n:
        in_span = np.isin(np.arange(n), span)
        for cand in by_order[~in_span[by_order]].tolist():
            cyc, x = [group.identity], cand
            while not in_span[x]:
                cyc.append(x)
                x = group.mul(x, cand)
            if x == group.identity:
                break
        exps = np.column_stack([np.repeat(exps, len(cyc), axis=0),
                                np.tile(np.arange(len(cyc)), span.size)])
        span = group.table[span[:, None], cyc].ravel()
        gens.append(cand)
    coords = np.zeros((n, max(1, len(gens))), dtype=np.int64)
    coords[span, :len(gens)] = exps
    return gens, [int(orders[g]) for g in gens], coords


@pytest.mark.parametrize("desc", [
    *(f"zmod:{n}" for n in (*range(1, 65), 96, 100, 128, 200, 210, 256, 360,
                            512, 720, 1000, 1024, 2048)),
    *(d for d in catalog_descriptors(10**6) if d.startswith("product:")),
    "product:zmod:6,zmod:4,zmod:10", "product:zmod:2,zmod:4,zmod:8,zmod:16",
    "product:zmod:12,zmod:18", "product:zmod:32,zmod:64"])
def test_cyclic_decomposition_matches_the_mul_walk(desc):
    g = build_group(desc)
    gens, orders, coords = reps.cyclic_decomposition(g)
    want_gens, want_orders, want_coords = _cyclic_decomposition_by_mul(g)
    assert (gens, orders) == (want_gens, want_orders)
    assert coords.dtype == want_coords.dtype
    assert np.array_equal(coords, want_coords)


def test_abelian_characters_rejects_nonabelian(s3):
    with pytest.raises(ValueError):
        abelian_characters(s3)


DIFFERENTIAL_GROUPS = ["zmod:1", "zmod:2", "zmod:12", "zmod:101", "zmod:128",
                       "zmod:129", "zmod:200", "zmod:256", "zmod:316",
                       "product:zmod:12,zmod:18", "product:zmod:2,zmod:128",
                       "product:zmod:4,zmod:4"]


@pytest.mark.parametrize("desc", DIFFERENTIAL_GROUPS)
def test_character_residuals_are_the_measured_ones(desc):
    # read off each character's image in Z/e, the residuals are bitwise the
    # ones measured over every pair and element of its matrices
    g = FiniteGroup(build_group(desc).table, desc)
    for chi in abelian_characters(g):
        assert chi.hom_residual == measure_hom_residual(chi), chi.label
        assert chi.unitarity_residual == reps.measure_unitarity_residual(chi), chi.label


@pytest.mark.parametrize("corrupt", ["swap", "duplicate"])
def test_abelian_characters_reject_corrupted_coords(monkeypatch, corrupt):
    # two rows swapped keep a bijection but break additivity; a duplicated
    # row breaks the bijection
    real = reps.cyclic_decomposition

    def corrupted(group):
        gens, orders, coords = real(group)
        coords = coords.copy()
        if corrupt == "swap":
            coords[[1, 2]] = coords[[2, 1]]
        else:
            coords[2] = coords[1]
        return gens, orders, coords

    monkeypatch.setattr(reps, "cyclic_decomposition", corrupted)
    with pytest.raises(reps.RepDecompositionError, match="not an isomorphism"):
        abelian_characters(FiniteGroup(build_group("zmod:12").table, "zmod:12"))


def test_decompose_z3():
    g = build_group("zmod:3")
    irr = decompose_regular(g)
    assert sorted(i.dim for i in irr) == [1, 1, 1]


def test_decompose_s3(s3):
    irr = decompose_regular(s3)
    dims = sorted(i.dim for i in irr)
    assert dims == [1, 1, 2]
    assert sum(d * d for d in dims) == 6
    chars = [i.character() for i in irr]
    for a in range(3):
        for b in range(3):
            ip = np.vdot(chars[a], chars[b]) / 6
            assert abs(ip - (1 if a == b else 0)) < 1e-6


def test_decompose_alt5(a5):
    irr = decompose_regular(a5)
    assert sorted(i.dim for i in irr) == [1, 3, 3, 4, 5]
    assert min_nontrivial_dim(a5) == 3


def test_multiplicity_equals_dim(s3, q8):
    for g in (s3, q8):
        # the regular character counts the fixed points of h -> gh
        regular = (g.table == np.arange(g.order)).sum(axis=1)
        for ir in decompose_regular(g):
            mult = np.vdot(ir.character(), regular) / g.order
            assert mult == pytest.approx(ir.dim, abs=1e-9)


def test_direct_sum_single_is_same(z12):
    rep = abelian_characters(z12)[1]
    assert direct_sum_hom([rep]) is rep


def test_direct_sum_rejects_no_reps_and_mixed_groups(z12, z6):
    with pytest.raises(ValueError, match="at least one"):
        direct_sum_hom([])
    with pytest.raises(ValueError, match="of one group"):
        direct_sum_hom([abelian_characters(z12)[1], abelian_characters(z6)[1]])


def test_direct_sum_two_characters(z12):
    chars = abelian_characters(z12)
    combined = direct_sum_hom([chars[1], chars[2]])
    assert combined.dim == 2
    eye = np.eye(1)
    for x in z12.elements():
        d1 = _op_norm(chars[1].matrices[x] - eye)
        d2 = _op_norm(chars[2].matrices[x] - eye)
        assert _op_norm(combined.matrices[x] - np.eye(2)) == pytest.approx(max(d1, d2))


def _small_sums(irreps, max_dim=8):
    """Every pair and triple of irreps of total dim <= max_dim."""
    return [pick for count in (2, 3)
            for pick in itertools.combinations(irreps, count)
            if sum(r.dim for r in pick) <= max_dim]


@pytest.mark.parametrize("desc", ["zmod:12", "quaternion:8", "sym:4", "alt:5",
                                  "dihedral:30"])
def test_direct_sum_distances_match_dense_svd(desc):
    """A direct sum's distances, read off its summands, are those of an SVD
    of its dense block matrices, and so are its Bohr sets at every grid
    delta."""
    g = build_group(desc)
    irreps = irreps_of(g)
    sums = [direct_sum_hom(list(pick)) for pick in _small_sums(irreps)]
    sums.append(direct_sum_hom([direct_sum_hom(irreps[:2]), irreps[-1]]))
    for total in sums:
        dense = UnitaryRep(g, total.matrices, label=total.label)
        gap = np.max(np.abs(total.identity_distances()
                            - np.linalg.svd(total.matrices - np.eye(total.dim),
                                            compute_uv=False)[:, 0]))
        assert gap <= 1e-14, (desc, total.label, gap)
        for delta in DEFAULT_DELTA_GRID:
            assert (bohr_set(g, total, delta).realized
                    == bohr_set(g, dense, delta).realized), (total.label, delta)


def test_nested_direct_sum_lists_its_irreps_once(s3):
    a, b, c = irreps_of(s3)
    nested = direct_sum_hom([direct_sum_hom([a, b]), c])
    assert isinstance(nested, DirectSum)
    assert nested.summands == (a, b, c)
    assert nested.label == f"{a.label}+{b.label}+{c.label}"
    assert nested.dim == a.dim + b.dim + c.dim


def test_direct_sum_all_s3_irreps_is_faithful(s3):
    irr = decompose_regular(s3)
    total = direct_sum_hom(irr)
    assert total.dim == 4
    kernel = np.flatnonzero(total.identity_distances() <= 1e-9)
    assert kernel.tolist() == [s3.identity]


def test_hom_residuals():
    z5 = build_group("zmod:5")
    trivial = abelian_characters(z5)[0]
    assert trivial.hom_residual == 0.0
    for c in abelian_characters(z5):
        assert c.hom_residual <= 1e-12
    for ir in decompose_regular(build_group("sym:4")):
        assert ir.hom_residual <= 1e-9
        assert ir.unitarity_residual <= 1e-9


def test_operator_distance_examples(z12):
    # identity_distances() holds ||t(g) - I||_op for every g
    chi1 = abelian_characters(z12)[1]
    dist = chi1.identity_distances()
    assert dist[0] == 0.0
    assert dist[1] == pytest.approx(2 * math.sin(math.pi / 12))
    assert dist[6] == pytest.approx(2.0)


def test_min_nontrivial_dims(s3):
    assert min_nontrivial_dim(build_group("zmod:7")) == 1
    assert min_nontrivial_dim(s3) == 1  # sign character


def test_metric_bi_invariance():
    rng = np.random.default_rng(0)
    for dim in (2, 3):
        for _ in range(5):
            m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0]
            v = np.linalg.qr(rng.standard_normal((dim, dim))
                             + 1j * rng.standard_normal((dim, dim)))[0]
            lhs = _op_norm(u @ m @ v - u @ v)
            assert lhs == pytest.approx(_op_norm(m - np.eye(dim)), abs=1e-10)


def test_sum_dim_sq_catalog_small():
    for desc in catalog_descriptors(24):
        g = build_group(desc)
        irr = decompose_regular(g)
        assert sum(i.dim ** 2 for i in irr) == g.order


def test_identity_snapped(q8):
    for ir in decompose_regular(q8):
        assert np.array_equal(ir.matrices[q8.identity], np.eye(ir.dim))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_rep_rejects_non_finite_entries(dim, bad):
    g = build_group("zmod:3")
    mats = np.tile(np.eye(dim, dtype=np.complex128), (3, 1, 1))
    mats[1, 0, 0] = float(bad)
    with pytest.raises(ValueError, match="finite entries"):
        UnitaryRep(g, mats)


def test_residual_bound_large_group():
    # decompose_regular's gate passes an irrep on the generator bound
    # without measuring every pair, so the bound must hold the measurement
    g = build_group("zmod:400")
    x = np.arange(g.order)
    rep = UnitaryRep(g, np.exp(2j * np.pi * 3 * x / g.order).reshape(-1, 1, 1))
    assert measure_hom_residual(rep) <= 1e-12
    bound = reps._hom_residual_bound(rep)
    assert measure_hom_residual(rep) <= bound <= 1e-10


def _brute_force_residual(rep):
    mats, table = rep.matrices, rep.group.table
    diff = mats[table] - np.einsum("aij,bjk->abik", mats, mats)
    return float(np.max(np.linalg.norm(diff, ord=2, axis=(-2, -1))))


def test_residual_exhaustive_on_z101_characters():
    g = build_group("zmod:101")
    reps = list(abelian_characters(g))
    planted = abelian_characters(g)[7].character()
    planted[40] *= np.exp(1e-6j)
    reps.append(UnitaryRep(g, planted.reshape(-1, 1, 1), label="planted"))
    for rep in reps:
        assert rep.hom_residual == measure_hom_residual(rep)
        assert abs(rep.hom_residual - _brute_force_residual(rep)) <= 1e-15
    assert reps[-1].hom_residual > 0.9e-6


def test_residual_exhaustive_on_dihedral50_irreps():
    irreps = decompose_regular(build_group("dihedral:50"))
    assert len(irreps) == 28
    for ir in irreps:
        assert abs(measure_hom_residual(ir)
                   - _brute_force_residual(ir)) <= 1e-15


def _pair_differences(rep):
    """Batches of t(ab) - t(a) t(b) over all pairs, from the library's own
    products: the dimension-1 outer product, and above it one matrix product
    per row block."""
    if rep.dim > 1:
        yield from reps._residual_blocks(rep)
        return
    chi, table = rep.matrices[:, 0, 0], rep.group.table
    yield (chi[table] - np.einsum("a,b->ab", chi, chi)).reshape(-1, 1, 1)


def _unfiltered_residual(rep):
    """The residual without the Frobenius prefilter: every pair's operator
    norm, from the library's own products."""
    return max(float(np.max(np.abs(diff[:, 0, 0]) if rep.dim == 1
                            else np.linalg.svd(diff, compute_uv=False)[:, 0]))
               for diff in _pair_differences(rep))


@pytest.mark.parametrize("desc", ["dihedral:50", "alt:5"])
def test_prefiltered_residual_equals_unfiltered(desc):
    g = build_group(desc)
    for ir in decompose_regular(g):
        assert ir.hom_residual == _unfiltered_residual(ir)


def test_prefiltered_residual_with_planted_full_rank_error(a5):
    three = next(ir for ir in decompose_regular(a5) if ir.dim == 3)
    rng = np.random.default_rng(5)
    mats = three.matrices.copy()
    mats[17] += 1e-3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rep = UnitaryRep(a5, mats, label="planted")
    assert rep.hom_residual == _unfiltered_residual(rep)
    assert rep.hom_residual > 1e-4


def test_prefiltered_residual_with_planted_rank1_error():
    # For a rank-1 A, ||A||_2 = ||A||_F, and the computed SVD value of some
    # pair sits above its computed Frobenius norm, so the prune needs slack.
    g = build_group("sym:4")
    two = decompose_regular(g)[2]
    assert two.dim == 2
    mats = two.matrices.copy()
    mats[1, 0, 1] += 1.0
    rep = UnitaryRep(g, mats, label="planted")
    diff = np.concatenate(list(_pair_differences(rep)))
    svd = np.linalg.svd(diff, compute_uv=False)[:, 0]
    assert np.any(svd > np.linalg.norm(diff, axis=(1, 2)))
    assert rep.hom_residual == _unfiltered_residual(rep)
    assert rep.hom_residual >= 1.0


def test_residual_bound_with_planted_error():
    g = build_group("zmod:400")
    rng = np.random.default_rng(3)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    x = np.arange(g.order)
    diag = np.zeros((g.order, 2, 2), dtype=np.complex128)
    diag[:, 0, 0] = np.exp(2j * np.pi * 3 * x / g.order)
    diag[:, 1, 1] = np.exp(2j * np.pi * 7 * x / g.order)
    mats = u @ diag @ u.conj().T
    mats[250] += 1e-7 * np.outer(u[:, 0], u[:, 1].conj())
    rep = UnitaryRep(g, mats, label="planted")
    # every pair is measured on a group of order 400 too, and the bound holds it
    assert rep.hom_residual == _unfiltered_residual(rep)
    assert 0.5e-7 < rep.hom_residual <= reps._hom_residual_bound(rep)


NONABELIAN = [d for d in catalog_descriptors(256) if not build_group(d).is_abelian]
BLOCKED = NONABELIAN + ["dihedral:100", "sym:5"]


@pytest.mark.parametrize("desc", BLOCKED)
def test_hom_residuals_do_not_depend_on_the_block_size(desc, monkeypatch):
    # sweep blocks of a few rows a, the shipped quarter-size blocks and one
    # block of every pair give each irrep bitwise the same residual
    irreps = decompose_regular(build_group(desc))
    shipped = [measure_hom_residual(ir) for ir in irreps]
    for entries in (400, 1 << 22):
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", entries)
        assert [measure_hom_residual(ir) for ir in irreps] == shipped, entries


@pytest.mark.parametrize("desc", BLOCKED)
def test_blocked_cluster_products_equal_one_product(desc, monkeypatch):
    # at 1 << 22 entries each cluster's Q^H rho(g) Q is one product over
    # every g of the group
    g = build_group(desc)
    shipped = [ir.matrices.tobytes() for ir in decompose_regular(g)]
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 1 << 22)
    assert [ir.matrices.tobytes() for ir in decompose_regular(g)] == shipped


@pytest.mark.parametrize("desc", BLOCKED)
def test_class_representatives_are_the_least_of_each_class(desc):
    g = build_group(desc)
    table, inverse = g.table.tolist(), g.inverse.tolist()

    def conjugacy_class(x):
        return {table[table[inverse[h]][x]][h] for h in range(g.order)}

    classes, conjugates = reps._class_conjugates(g)
    members = [set(column) for column in conjugates.T.tolist()]
    assert members == [conjugacy_class(c) for c in classes.tolist()]
    assert [min(m) for m in members] == classes.tolist()
    # pairwise disjoint, and together all of G
    assert sorted(x for m in members for x in m) == list(range(g.order))


def test_cold_dihedral128_irreps_stay_small():
    # each cluster's matrices and every residual sweep go in quarter-size
    # row blocks, and characters are compared at one element per class;
    # one n^2 gather per cluster peaked near 9 MiB. A bound that may only
    # go down.
    g = build_group("dihedral:128")
    tracemalloc.start()
    try:
        irreps = decompose_regular(g)
        for ir in irreps:
            assert ir.hom_residual <= reps.DEFAULT_TOL
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(irreps) == 67
    assert peak <= 6.5 * (1 << 20), peak


def _unfiltered_unitarity(rep):
    """max ||t(g)* t(g) - I||_op with an SVD of every element's matrix."""
    mats = rep.matrices
    gram = np.einsum("pji,pjk->pik", mats.conj(), mats)
    return float(np.max(reps._op_norms(gram - np.eye(rep.dim))))


@pytest.mark.parametrize("desc", catalog_descriptors(256))
def test_prefiltered_unitarity_equals_unfiltered(desc):
    for ir in irreps_of(build_group(desc)):
        assert reps.measure_unitarity_residual(ir) == _unfiltered_unitarity(ir)


def test_prefiltered_unitarity_with_planted_rank1_error():
    # the same rank-1 non-unitarity c vv* in every element makes every
    # t(g)* t(g) - I one rank-1 matrix up to rounding; the largest computed
    # SVD value is not the one of the largest computed Frobenius norm, and
    # sits above that norm, so the prune needs its slack
    g = build_group("sym:4")
    ir = [r for r in decompose_regular(g) if r.dim > 1][-1]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(ir.dim) + 1j * rng.standard_normal(ir.dim)
    v /= np.linalg.norm(v)
    c = rng.uniform(0.1, 1.0)
    rep = UnitaryRep(g, ir.matrices @ (np.eye(ir.dim) + c * np.outer(v, v.conj())),
                     label="planted")
    gram = np.einsum("pji,pjk->pik", rep.matrices.conj(), rep.matrices) - np.eye(ir.dim)
    svd = np.linalg.svd(gram, compute_uv=False)[:, 0]
    frob = np.linalg.norm(gram, axis=(1, 2))
    assert svd.max() > svd[np.argmax(frob)] and svd.max() > frob.max()
    assert reps.measure_unitarity_residual(rep) == _unfiltered_unitarity(rep)


def _char_sort_key(character, dim):
    """The irreps' sort key before one numpy rounding pass replaced it: the
    dimension, then each character value's parts by Python round."""
    rounded = tuple((round(float(z.real), 8), round(float(z.imag), 8))
                    for z in character)
    return (dim, rounded)


@pytest.mark.parametrize("desc", NONABELIAN + ["dihedral:100", "dihedral:128"])
def test_irreps_order_matches_python_round_key(desc, monkeypatch):
    seen = []
    real = reps._char_order

    def record(chars, dims):
        order = real(chars, dims)
        seen.append((chars.copy(), list(dims), order))
        return order

    monkeypatch.setattr(reps, "_char_order", record)
    irreps = decompose_regular(build_group(desc))
    [(chars, dims, order)] = seen
    expected = sorted(range(len(dims)), key=lambda i: _char_sort_key(chars[i], dims[i]))
    assert order.tolist() == expected
    # found in the reverse order, the irreps sort the same way
    back = np.arange(len(dims))[::-1]
    assert back[real(chars[back], [dims[i] for i in back])].tolist() == expected
    assert [(ir.label, ir.dim) for ir in irreps] == [
        (f"irrep{k}", dims[i]) for k, i in enumerate(expected)]
    for ir, i in zip(irreps, expected):
        assert np.max(np.abs(ir.character() - chars[i])) < 1e-9


def _loop_commuting_family(mats):
    chosen = []
    for g in range(mats.shape[0]):
        m = mats[g]
        if all(np.max(np.abs(m @ mats[c] - mats[c] @ m)) < 1e-8 for c in chosen):
            chosen.append(g)
    return chosen


def _float_commuting_family(mats):
    """The float pick the table pick replaced: in element-index order, a
    matrix joins when its commutator with every matrix picked before it has
    all entries below 1e-8, tested against the stack of those in one call."""
    stack = np.empty_like(mats)
    stack[0] = mats[0]
    picked = [0]
    for g in range(1, mats.shape[0]):
        m, fam = mats[g], stack[:len(picked)]
        if np.max(np.abs(m @ fam - fam @ m)) < 1e-8:
            stack[len(picked)] = m
            picked.append(g)
    return picked


def _float_diagonal_friendly(mats, rng):
    """The rebasing with the family picked by float commutators: the
    Hermitian sum of x c + x c^H + i y c - i y c^H over the family is
    s + s^H with s = sum (x + i y) c, and the basis change is the library's
    product."""
    d = mats.shape[1]
    family = _float_commuting_family(mats)
    xy = rng.standard_normal((len(family), 2))
    s = ((xy[:, 0] + 1j * xy[:, 1]) @ mats[family].reshape(-1, d * d)).reshape(d, d)
    _, v = np.linalg.eigh(s + s.conj().T)
    for col in range(d):
        pivot = int(np.argmax(np.abs(v[:, col])))
        p = v[pivot, col]
        if abs(p) > 0:
            v[:, col] *= np.conj(p) / abs(p)
    return reps._rebase(mats, v)


@pytest.mark.parametrize("desc", NONABELIAN)
def test_commuting_family_matches_pairwise_loop(desc, monkeypatch):
    """The family read off the commutator table is the float pick's, which
    is the pairwise loop's, and the rebased matrices and rng draws are
    bitwise those of the float pick."""
    calls = []
    real = reps._diagonal_friendly

    def record(mats, family, rng):
        calls.append((mats.copy(), family, copy.deepcopy(rng)))
        return real(mats, family, rng)

    monkeypatch.setattr(reps, "_diagonal_friendly", record)
    g = build_group(desc)
    for seed in range(3):
        reps._decompose_once(g, np.random.default_rng(seed))
    assert calls and all(mats.shape[1] > 1 for mats, _, _ in calls)
    for mats, family, rng in calls:
        assert family == _float_commuting_family(mats) == _loop_commuting_family(mats)
        ours_rng = copy.deepcopy(rng)
        ours = real(mats, family, ours_rng)
        assert ours.tobytes() == _float_diagonal_friendly(mats, rng).tobytes()
        assert ours_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("count", [0, 1, 7])
def test_one_family_draw_is_the_per_member_draws(count):
    """One (count, 2) normal draw gives the pairs, and leaves the generator
    in the state, of count draws of two."""
    one, each = np.random.default_rng(9), np.random.default_rng(9)
    drawn = one.standard_normal((count, 2))
    pairs = [each.standard_normal(2) for _ in range(count)]
    assert drawn.tobytes() == np.array(pairs, dtype=np.float64).reshape(count, 2).tobytes()
    assert one.bit_generator.state == each.bit_generator.state


def _loop_projection(group, h):
    """mean_g rho(g) h rho(g)^-1, by one n x n gather per element g."""
    left_inv = group.table[group.inverse, :]
    avg = np.zeros_like(h)
    for g in group.elements():
        pre = left_inv[g]
        avg += h[np.ix_(pre, pre)]
    return avg / group.order


@pytest.mark.parametrize("desc", NONABELIAN)
def test_commutant_projection_matches_per_element_loop(desc):
    g = build_group(desc)
    h = reps._random_hermitian(g.order, np.random.default_rng(0))
    avg = reps._commutant_projection(g, h)
    assert np.max(np.abs(avg - _loop_projection(g, h))) <= 1e-12


@pytest.mark.parametrize("desc", NONABELIAN + ["dihedral:100", "dihedral:128"])
def test_decomposition_needs_no_reseed(desc, monkeypatch):
    attempts = []
    real = reps._decompose_once

    def counted(group, rng):
        attempts.append(group.descriptor)
        return real(group, rng)

    monkeypatch.setattr(reps, "_decompose_once", counted)
    g = build_group(desc)
    decompose_regular(g)
    assert attempts == [desc]
    for seed in range(3):
        irreps = real(g, np.random.default_rng(seed))
        assert sum(ir.dim ** 2 for ir in irreps) == g.order, seed


def test_reducible_cluster_fails_the_attempt():
    """dihedral:51 at seed 2 has a 4-dim eigenvalue cluster holding two
    2-dim irreps: the attempt fails rather than splitting it."""
    g = build_group("dihedral:51")
    with pytest.raises(reps.RepDecompositionError, match="reducible"):
        reps._decompose_once(g, np.random.default_rng(2))


def test_failed_attempt_retries_the_next_seed(monkeypatch):
    """A failed first attempt leaves the bytes of the attempt at seed 1."""
    g = build_group("sym:4")
    real = reps._decompose_once
    calls = []

    def fail_first(group, rng):
        calls.append(group.descriptor)
        if len(calls) == 1:
            raise reps.RepDecompositionError("planted")
        return real(group, rng)

    monkeypatch.setattr(reps, "_decompose_once", fail_first)
    got = decompose_regular(g)
    want = real(g, np.random.default_rng(1))
    assert len(calls) == 2
    assert [r.label for r in got] == [r.label for r in want]
    assert all(a.matrices.tobytes() == b.matrices.tobytes()
               for a, b in zip(got, want, strict=True))


def _count_hom_residuals(monkeypatch):
    """Route the module global that every lazy residual reads through a
    counter."""
    calls = []
    measure = reps.measure_hom_residual

    def counted(rep):
        calls.append(rep.label)
        return measure(rep)

    monkeypatch.setattr(reps, "measure_hom_residual", counted)
    return calls


def test_abelian_search_measures_no_hom_residual(monkeypatch):
    from bohrlab import SearchSpace, ZetaRule, search_regular_bohr
    from bohrlab.gen import random_pm1_function, rng_from_seed

    calls = _count_hom_residuals(monkeypatch)
    g = build_group("zmod:200")
    assert len(abelian_characters(g)) == 200
    f = random_pm1_function(g, rng_from_seed(1))
    res = search_regular_bohr(f, 0.1, ZetaRule.constant(1e-6),
                              SearchSpace(max_candidates=60))
    assert res.candidates_scored == 60
    assert calls == []


def test_lazy_residuals_equal_measured_values(monkeypatch):
    calls = _count_hom_residuals(monkeypatch)
    for desc in ("zmod:12", "product:zmod:2,zmod:4", "sym:3", "quaternion:8"):
        g = build_group(desc)
        irreps = (abelian_characters(g) if g.is_abelian
                  else decompose_regular(g))
        sums = [(pick, direct_sum_hom(pick))
                for pick in (irreps[1:3], irreps[::-1], irreps[-2:])]
        calls.clear()
        for rep in irreps:
            assert rep.hom_residual == measure_hom_residual(rep), desc
            assert rep.unitarity_residual == reps.measure_unitarity_residual(rep)
        for pick, total in sums:
            assert total.hom_residual == max(r.hom_residual for r in pick)
            assert total.unitarity_residual == max(r.unitarity_residual
                                                   for r in pick)
        # every irrep is measured once, on first read (decompose_regular's
        # gate passes on the generator bound), and a character never, as it
        # reads its residuals off its image; a sum measures nothing itself
        assert len(calls) == (0 if g.is_abelian else len(irreps)), desc


@pytest.mark.parametrize("size", [4e-10, 1e-6, 1e-3], ids=["4e-10", "1e-6", "1e-3"])
def test_decompose_gate_catches_planted_error(monkeypatch, s3, size):
    """A unitary error planted in one rho(g) fails the generator bound, so
    the gate measures every pair: it keeps the irrep when the measured
    residual is within 1e-9 and rejects it on every seed otherwise."""
    calls = _count_hom_residuals(monkeypatch)
    real = reps._diagonal_friendly

    def planted(mats, family, rng):
        out = real(mats, family, rng)
        out[2] *= np.exp(1j * size)
        return out

    monkeypatch.setattr(reps, "_diagonal_friendly", planted)
    if size > reps.DEFAULT_TOL:
        with pytest.raises(reps.RepDecompositionError, match="residuals exceed tol"):
            decompose_regular(s3)
        assert len(calls) == 6
        return
    rep = decompose_regular(s3)[-1]
    assert calls == [rep.label]
    bound = reps._hom_residual_bound(rep)
    assert rep.hom_residual <= reps.DEFAULT_TOL < bound


# the nonabelian catalog groups and larger ones up to DECOMPOSE_ORDER_CAP
BOUND_GROUPS = NONABELIAN + ["sym:5", "dihedral:100", "dihedral:128",
                             "product:sym:4,zmod:8", "product:sym:3,zmod:40"]


@pytest.mark.parametrize("desc", BOUND_GROUPS)
def test_hom_bound_covers_measured_residual(desc):
    for rep in irreps_of(build_group(desc)):
        bound = reps._hom_residual_bound(rep)
        assert rep.hom_residual <= bound <= 1e-11, rep.label


@pytest.mark.parametrize("desc", BOUND_GROUPS)
def test_decompose_certifies_on_generators_alone(monkeypatch, desc):
    # the generator bound passes every irrep, so no pair is measured
    calls = _count_hom_residuals(monkeypatch)
    assert len(decompose_regular(build_group(desc))) > 1
    assert calls == []


@pytest.mark.parametrize("desc", ["zmod:30", "dihedral:15"])
def test_group_dropped_after_irreps_is_collectable(desc):
    # the irreps live on the group, so no cache outside it keeps it alive
    g = FiniteGroup(build_group(desc).table, "unshared")
    assert irreps_of(g) is irreps_of(g)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
