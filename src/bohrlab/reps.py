"""Numerical unitary representation theory for small finite groups.

Provides exact characters for abelian groups, each held as its integer phase
row, a randomized decomposition of the regular representation into
irreducibles for any group of order <= 256, and direct sums that read
distances and residuals off their summands. A character's distances and
residuals come from its image in Z/e, and its matrices are built on first
read, which no Bohr search or certificate does. Every stored homomorphism
carries residuals, computed on first read and cached, so downstream
consumers can trust (and re-check) it numerically without paying for
residuals they never read.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

from .groups import FiniteGroup, row_blocks

DEFAULT_TOL = 1e-9
CHAR_MATCH_TOL = 1e-6
DECOMPOSE_ORDER_CAP = 256
_CLUSTER_GAP = 1e-7
_FROB_SLACK = 1e-12


class RepDecompositionError(RuntimeError):
    """Raised when a decomposition attempt fails, and by
    ``decompose_regular`` when all six seeds have failed."""


_BLAS_LOCK = threading.RLock()


@functools.cache
def _blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles in ``numpy.libs``, found by name on first use, or None."""
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one BLAS thread, restoring the count after it.

    How OpenBLAS splits a product between threads moves its last bits, and
    a decomposition's eigenvectors with them, so the irreps and their
    residuals are computed at one thread whatever the process runs at. The
    count is process-wide, hence the lock. Without a setter it runs as is.
    """
    with _BLAS_LOCK:
        calls = _blas_thread_calls()
        if calls is None:
            yield
            return
        get, put = calls
        before = get()
        put(1)
        try:
            yield
        finally:
            put(before)


def _op_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (..., d, d) batch."""
    if batch.shape[-1] == 1:
        return np.abs(batch[..., 0, 0])
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


class UnitaryRep:
    """A map g -> U(n) stored as one n x n complex matrix per element.

    ``hom_residual`` is the measured maximum of ||t(ab) - t(a)t(b)||_op over
    all element pairs, and ``unitarity_residual`` the maximum of
    ||t(g)* t(g) - I||_op. Both are measured on first read and cached. The
    identity matrix is snapped to exact I so Bohr membership at the identity
    is exact. ``summands`` is empty: a plain rep is its own one summand.
    """

    summands: tuple[UnitaryRep, ...] = ()

    def __init__(self, group: FiniteGroup, matrices, label: str = "rep"):
        matrices = np.array(matrices, dtype=np.complex128, order="C")
        if matrices.ndim != 3 or matrices.shape[0] != group.order \
                or matrices.shape[1] != matrices.shape[2]:
            raise ValueError(f"bad matrices shape {matrices.shape}")
        if not np.isfinite(matrices).all():
            # NaN passes every `residual > tol` check as a false certificate
            raise ValueError("rep matrices must have finite entries")
        matrices[group.identity] = np.eye(matrices.shape[1])
        self.group = group
        self.dim = int(matrices.shape[1])
        self.matrices = matrices
        self.label = label
        self.matrices.setflags(write=False)
        self._distances: np.ndarray | None = None

    @functools.cached_property
    def hom_residual(self) -> float:
        return measure_hom_residual(self)

    @functools.cached_property
    def unitarity_residual(self) -> float:
        return measure_unitarity_residual(self)

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)

    def identity_distances(self) -> np.ndarray:
        """Per-element ||t(g) - I||_op from ``_own_distances``, exactly 0
        at the identity, cached and read-only."""
        if self._distances is None:
            d = self._own_distances()
            d[self.group.identity] = 0.0
            d.setflags(write=False)
            self._distances = d
        return self._distances

    def _own_distances(self) -> np.ndarray:
        return _op_norms(self.matrices - np.eye(self.dim))

    def __repr__(self) -> str:
        return (f"UnitaryRep({self.label}, dim={self.dim}, "
                f"group={self.group.descriptor})")


def measure_hom_residual(rep: UnitaryRep) -> float:
    """Max over all n^2 pairs of ||t(ab) - t(a) t(b)||_op.

    The pairs go in ``row_blocks`` of whole rows a, each block's complex
    temporaries at most ``BLOCK_ENTRIES // 4`` entries (128 KiB). Above
    dimension 1 each block's products are one matrix product
    (``_residual_blocks``), run at one BLAS thread, and an SVD runs only on
    a pair whose Frobenius norm can still set the maximum (see
    ``_max_op_norm``).
    """
    if rep.dim == 1:
        return _scalar_hom_residual(rep.matrices[:, 0, 0], rep.group.table)
    worst = 0.0
    with _one_blas_thread():
        for batch in _residual_blocks(rep):
            worst = _max_op_norm(batch, worst)
    return worst


def _scalar_hom_residual(chi: np.ndarray, table: np.ndarray) -> float:
    """max |chi(ab) - chi(a) chi(b)| over all pairs of a one-dimensional
    ``chi``, ab = table[a, b], in ``row_blocks`` of rows a."""
    return max(float(np.max(np.abs(chi[table[blk]]
                                   - np.einsum("a,b->ab", chi[blk], chi))))
               for blk in row_blocks(len(chi), 4 * len(chi)))


def _residual_blocks(rep: UnitaryRep):
    """t(ab) - t(a) t(b) over all pairs (a, b) in row-major order, yielded
    as (p, d, d) batches of whole rows a.

    A block of r rows is one (d*r x d) @ (d x n*d) product, rows (i, a) of
    t(a)[i, :] against columns (b, k) of t(b)[:, k], and t(ab) is gathered
    in the same [i, a, b, k] layout; each batch is a view of that array.
    """
    g, mats, d = rep.group, rep.matrices, rep.dim
    n = g.order
    cols = np.ascontiguousarray(mats.transpose(1, 0, 2))  # [j, b, k]
    for rows in row_blocks(n, 4 * n * d * d):
        prod = mats[rows].transpose(1, 0, 2).reshape(-1, d) @ cols.reshape(d, n * d)
        diff = np.take(cols, g.table[rows], axis=1) - prod.reshape(d, -1, n, d)
        yield diff.reshape(d, -1, d).transpose(1, 0, 2)


def _max_op_norm(batch: np.ndarray, worst: float) -> float:
    """max(worst, largest operator norm in a (p, d, d) batch).

    ||A||_2 <= ||A||_F, so the matrix of largest Frobenius norm gets an SVD
    first, and after it only those whose Frobenius norm reaches the running
    maximum; the relative slack covers a rank-1 A, whose computed SVD value
    can sit an ulp above its computed Frobenius norm. Each SVD is the one
    the whole batch would run, so the result is bitwise the unfiltered max.
    """
    flat = batch.view(np.float64)  # a view, as its last axis is contiguous
    frob = np.sqrt(np.einsum("pij,pij->p", flat, flat))
    if batch.shape[-1] == 1 or not np.all(np.isfinite(frob)):
        # no SVD to save; or let the SVD raise on NaN as it would unfiltered
        return max(worst, float(np.max(_op_norms(batch))))
    top = int(np.argmax(frob))
    worst = max(worst, float(_op_norms(batch[top:top + 1])[0]))
    rest = np.flatnonzero(frob * (1.0 + _FROB_SLACK) >= worst)
    if len(rest):
        worst = max(worst, float(np.max(_op_norms(batch[rest]))))
    return worst


def measure_unitarity_residual(rep: UnitaryRep) -> float:
    """Max over all elements of ||t(g)* t(g) - I||_op, through
    ``_max_op_norm``'s Frobenius filter."""
    return _unitarity_residual(rep.matrices)


def _unitarity_residual(mats: np.ndarray) -> float:
    gram = np.einsum("pji,pjk->pik", mats.conj(), mats)
    return _max_op_norm(gram - np.eye(mats.shape[1]), 0.0)


# ---------------------------------------------------------------------------
# Abelian characters


def cyclic_decomposition(group: FiniteGroup) -> tuple[list[int], list[int], np.ndarray]:
    """Decompose an abelian group as a direct product of cyclic factors.

    Greedily picks generators of maximal element order whose cyclic span meets
    the current span only in the identity; for abelian groups this always
    terminates with a direct-product decomposition. Returns (generators,
    factor orders, coords) where coords[x] holds the exponent tuple of x.
    """
    if not group.is_abelian:
        raise ValueError("cyclic decomposition requires an abelian group")
    n = group.order
    orders = group.element_orders()
    by_order = np.argsort(-orders, kind="stable")  # largest order first, then index

    gens: list[int] = []
    e, product = group.identity, group.table.item  # x * y as a Python int
    # element span[r] has exponents exps[r] in gens: span element outer, power inner
    span, exps = np.array([e]), np.zeros((1, 0), dtype=np.int64)
    while span.size < n:
        in_span = np.isin(np.arange(n), span)
        member = in_span.tolist()  # a list reads one bool a power faster
        for cand in by_order[~in_span[by_order]].tolist():
            # cand's powers meet the span only in e if the first one in it is e
            cyc, x = [e], cand
            while not member[x]:
                cyc.append(x)
                x = product(x, cand)
            if x == e:
                break
        else:  # cannot happen for a genuine abelian group
            raise RuntimeError("greedy cyclic decomposition failed")
        exps = np.column_stack([np.repeat(exps, len(cyc), axis=0),
                                np.tile(np.arange(len(cyc)), span.size)])
        span = group.table[span[:, None], cyc].ravel()
        gens.append(cand)

    coords = np.zeros((n, max(1, len(gens))), dtype=np.int64)
    coords[span, :len(gens)] = exps
    return gens, [int(orders[g]) for g in gens], coords


class Character(UnitaryRep):
    """A one-dimensional character x -> roots[phases[x]], held as its
    integer phase row. A group's characters share ``roots``, the e-th roots
    of unity exp(2*pi*i*j/e), and ``table`` = |roots - 1|, so the distance
    row ``table[phases]`` is bitwise the dense |chi(x) - 1|. The matrices
    are built on first read, which no Bohr search does; ``residuals()``
    gives both residuals from the character's image (``abelian_characters``).
    """

    dim = 1

    def __init__(self, group: FiniteGroup, phases: np.ndarray, roots: np.ndarray,
                 table: np.ndarray, residuals, label: str):
        self.group, self.phases, self.label = group, phases, label
        self._roots, self._table, self._residuals = roots, table, residuals
        self._distances = None

    def _own_distances(self) -> np.ndarray:
        return self._table[self.phases]

    hom_residual = property(lambda self: self._residuals()[0])
    unitarity_residual = property(lambda self: self._residuals()[1])

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        mats = self._roots[self.phases].reshape(-1, 1, 1)
        mats.setflags(write=False)
        return mats


def _check_coords(group: FiniteGroup, coords: np.ndarray, radices: np.ndarray) -> None:
    """Raise ``RepDecompositionError`` unless x -> coords[x] is an
    isomorphism of G onto the product of the Z/m, m in ``radices``.

    It must be a bijection onto the digit tuples, and additive on the n*|S|
    pairs (g, s), s in ``group.generators``: with associativity validated,
    coords[g s_1...s_k] = coords[g s_1...s_(k-1)] + coords[s_k] by induction
    on k, and every element is such a word.
    """
    coords, gens = coords % radices, list(group.generators)
    flat = np.ravel_multi_index(tuple(coords.T), radices)
    sums = (coords[:, None, :] + coords[gens]) % radices
    if not (np.array_equal(np.sort(flat), np.arange(int(np.prod(radices))))
            and np.array_equal(coords[group.table[:, gens]], sums)):
        raise RepDecompositionError("character coordinates are not an isomorphism")


def abelian_characters(group: FiniteGroup) -> list[Character]:
    """All |G| one-dimensional characters of an abelian group.

    For each cyclic factor of order m the fundamental character sends the
    generator to exp(2*pi*i/m); products are indexed mixed-radix so that on
    zmod:n the k-th character is x -> exp(2*pi*i*k*x/n).

    The phase is exact: with e the exponent (the lcm of the factor orders),
    character k takes x to exp(2*pi*i*p/e) for the integer p = sum of
    digit * (e/m) * coordinate, mod e. So x and its inverse get conjugate
    values and equal distances, and every Bohr set is symmetric. The n x n
    phases are stored in the smallest unsigned dtype that holds e - 1,
    computed in row blocks as int32, which holds each sum before its
    reduction: it is below (number of factors) * e * n <= log2(n) * n^2.
    As ``coords`` is an isomorphism (``_check_coords``), character k maps G
    onto the multiples of gcd(e, weights[k]); the measured residuals on them
    alone are bitwise its own, so each is computed once per image.
    """
    if not group.is_abelian:
        raise ValueError("abelian_characters requires an abelian group")
    gens, gen_orders, coords = cyclic_decomposition(group)
    n = group.order
    radices = np.array(gen_orders if gens else [1])
    _check_coords(group, coords, radices)
    e = int(np.lcm.reduce(radices))

    # digits[k] holds the mixed-radix digits of k, most significant first
    digits = np.array(np.unravel_index(np.arange(n), radices)).T
    weights = (digits * (e // radices)).astype(np.int32)
    coords_t = np.ascontiguousarray(coords.T, dtype=np.int32)
    phases = np.empty((n, n), dtype=np.min_scalar_type(e - 1))
    for rows in row_blocks(n, n):
        p = weights[rows] @ coords_t
        p -= p // e * e  # p % e, but int32 division by a scalar is faster
        phases[rows] = p
    phases.setflags(write=False)
    roots = np.exp(2j * np.pi * np.arange(e) / e)
    table = np.abs(roots - 1.0)

    @functools.cache
    def residuals(step: int) -> tuple[float, float]:
        # the image's roots, contiguous as chi's values, and Z/m's table as a view
        image, m = roots[::step].copy(), e // step
        circulant = np.lib.stride_tricks.sliding_window_view(np.arange(2 * m) % m, m)
        return _scalar_hom_residual(image, circulant), _unitarity_residual(image[:, None, None])

    steps = np.gcd.reduce(weights, axis=1, initial=e).tolist()
    return [Character(group, phases[k], roots, table, functools.partial(residuals, step),
                      label=f"chi{k}") for k, step in enumerate(steps)]


# ---------------------------------------------------------------------------
# Regular-representation decomposition


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def _eig_clusters(w: np.ndarray) -> list[np.ndarray]:
    """Split sorted eigenvalues into clusters merged at gaps < 1e-7 * scale."""
    order = np.argsort(w)
    scale = max(1.0, float(np.max(np.abs(w))))
    breaks = np.flatnonzero(np.diff(w[order]) > _CLUSTER_GAP * scale)
    return np.split(order, breaks + 1)


def _rebase(mats: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q^H t(g) q for every g of an (n, m, m) stack and an (m, k) q, as two
    matrix products over the whole stack."""
    n, m, k = mats.shape[0], q.shape[0], q.shape[1]
    tq = (mats.reshape(n * m, m) @ q).reshape(n, m, k)
    out = q.conj().T @ tq.transpose(1, 0, 2).reshape(m, n * k)
    return np.ascontiguousarray(out.reshape(k, n, k).transpose(1, 0, 2))


def _commuting_family(commutators: np.ndarray, kernel: np.ndarray) -> list[int]:
    """Indices of a maximal commuting family of an irrep's images, from the table.

    rho(g) and rho(p) commute exactly when the commutator [g, p] lies in
    ker rho, so ``kernel[commutators]`` decides every pair. In element-index
    order, an element joins when it commutes with every element picked
    before it. ``kernel`` is read off the character: outside the kernel,
    Re chi <= d - (1 - cos(2 pi / o)) for an element of order o, which is
    about 3e-4 below d at every order up to DECOMPOSE_ORDER_CAP, far more
    than CHAR_MATCH_TOL.
    """
    commutes = kernel[commutators]
    joins = commutes[0].copy()
    picked = [0]
    for g in range(1, len(kernel)):
        if joins[g]:
            picked.append(g)
            joins &= commutes[g]
    return picked


def _diagonal_friendly(mats: np.ndarray, family: list[int],
                       rng: np.random.Generator) -> np.ndarray:
    """Rebase an irrep so the commuting ``family`` of its images is diagonal.

    Jointly diagonalizes the family via a generic Hermitian combination
    sum_c x_c (c + c^H) + i y_c (c - c^H) = s + s^H, s = sum_c (x_c + i y_c) c,
    with one normal pair (x_c, y_c) drawn per member in family order.
    Column phases are normalized for determinism.
    """
    d = mats.shape[1]
    xy = rng.standard_normal((len(family), 2))
    s = ((xy[:, 0] + 1j * xy[:, 1]) @ mats[family].reshape(-1, d * d)).reshape(d, d)
    _, v = np.linalg.eigh(s + s.conj().T)
    for col in range(d):
        pivot = int(np.argmax(np.abs(v[:, col])))
        p = v[pivot, col]
        if abs(p) > 0:
            v[:, col] *= np.conj(p) / abs(p)
    return _rebase(mats, v)


def _hom_residual_bound(rep: UnitaryRep) -> float:
    """An upper bound on ``rep.hom_residual`` from the n*|S| pairs (g, s),
    s in ``group.generators``.

    Write E(x, y) = t(xy) - t(x)t(y). With eta = max ||E(g, s)|| over g in
    G and s in S (Frobenius, which bounds the operator norm), mu the
    unitarity residual, so that ||t(x)|| <= 1 + mu, and h = h's for a word
    h of length j over S,
        E(g, h) = E(g, h')t(s) + E(gh', s) - t(g)E(h', s)
    gives ||E(g, h)|| <= c_j with c_1 = eta and
    c_j = (2 + mu) eta + (1 + mu) c_{j-1}. Every element is such a word of
    length at most n - 1, as the words of length at most j reach at least
    j + 1 elements until they reach all of G, and the identity is stored as
    exact I, so E(g, e) = 0; the bound is c_(n-1).
    """
    mats, table, gens = rep.matrices, rep.group.table, list(rep.group.generators)
    diff = mats[table[:, gens]] - mats[:, None] @ mats[gens]
    flat = diff.reshape(-1, rep.dim * rep.dim).view(np.float64)
    eta = float(np.sqrt(np.max(np.einsum("pi,pi->p", flat, flat))))
    mu = rep.unitarity_residual
    bound = eta
    for _ in range(rep.group.order - 2):
        bound = (2.0 + mu) * eta + (1.0 + mu) * bound
    return bound


def _is_known(chi: np.ndarray, chars: np.ndarray) -> bool:
    """Whether ``chi`` is within CHAR_MATCH_TOL of a row of ``chars``."""
    return bool(np.any(np.max(np.abs(chars - chi), axis=1) < CHAR_MATCH_TOL))


def _char_order(chars: np.ndarray, dims: list[int]) -> np.ndarray:
    """The order that sorts irreps by dimension, then by character rounded
    to 8 decimals, compared element by element, real part first."""
    rounded = np.round(chars, 8)
    keys = np.stack([rounded.real, rounded.imag], axis=2).reshape(len(dims), -1)
    return np.lexsort((*keys.T[::-1], dims))


def decompose_regular(group: FiniteGroup) -> list[UnitaryRep]:
    """Complete list of inequivalent irreducibles of the regular representation.

    Algorithm: average a random Hermitian matrix over conjugation by the
    regular representation (a projection onto its commutant, in O(n^2) by
    ``_commutant_projection``) and take each eigenvalue cluster of the
    average as one invariant subspace. On each isotypic block the average
    is I_d (x) X, so a generic cluster carries one copy of one irrep. A
    cluster whose character, read off its projection, was already found is
    skipped before its matrices are built; a new cluster whose character
    has <chi, chi> != 1 fails the attempt. Characters are matched at the
    least element of each conjugacy class. A cluster's matrices are one
    product per row block of elements, and each later basis change is a
    matrix product over the whole stack; all of it runs at one BLAS thread.
    Verifies sum(dim^2) = |G| exactly and residuals <= 1e-9. A failed
    attempt retries with the next of the seeds 0 to 5, the only recovery,
    so the result is a function of the group. The hom residual is certified
    by ``_hom_residual_bound`` from the n * |S| pairs (g, s), s in
    ``group.generators``, and words of length n - 1, and measured over all
    pairs only when that bound exceeds 1e-9 (by one matrix product per row
    block, see ``measure_hom_residual``), so the check passes exactly when
    the measured residual would.
    """
    n = group.order
    if n > DECOMPOSE_ORDER_CAP:
        raise ValueError(f"decompose_regular caps at order {DECOMPOSE_ORDER_CAP}")
    last_err: Exception | None = None
    with _one_blas_thread():
        for seed in range(6):
            rng = np.random.default_rng(seed)
            try:
                return _decompose_once(group, rng)
            except RepDecompositionError as exc:
                last_err = exc
    raise RepDecompositionError(
        f"decomposition failed after 6 seeds: {last_err}")


def _commutant_projection(group: FiniteGroup, h: np.ndarray) -> np.ndarray:
    """mean_g rho(g) h rho(g)^-1 for the left regular representation rho.

    Entry (i, j) is mean_g h[g^-1 i, g^-1 j]; with k = g^-1 i it is
    c(x) = mean_k h[k, kx] at x = i^-1 j, so n^2 gathers give every entry.
    """
    table = group.table
    c = np.take_along_axis(h, table, axis=1).mean(axis=0)
    return c[table[group.inverse, :]]


def _class_conjugates(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The least element c_i of each conjugacy class, in increasing order,
    and the (n, k) array of h^-1 c_i h at [h, i]."""
    n = group.order
    left_inv = group.table[group.inverse, :]  # row g: h -> g^-1 h
    conjugates = group.table[left_inv, np.arange(n)[:, None]]  # [h, g] = h^-1 g h
    classes = np.flatnonzero(conjugates.min(axis=0) == np.arange(n))
    return classes, conjugates[:, classes]


def _decompose_once(group: FiniteGroup, rng: np.random.Generator) -> list[UnitaryRep]:
    n = group.order
    if n == 1:
        return [UnitaryRep(group, np.ones((1, 1, 1)), label="irrep0")]

    w, v = np.linalg.eigh(_commutant_projection(group, _random_hermitian(n, rng)))
    clusters = _eig_clusters(w)
    if len(clusters) == 1:
        raise RepDecompositionError("top-level eigenvalues did not separate")

    # P = QQ^H projects onto an invariant subspace, so it commutes with rho
    # and P[i, j] = p(i^-1 j) with p = P[e, :]: the cluster's character
    # chi(g) = sum_h P[g^-1 h, h] is sum_h p(h^-1 g h). Its rounding is far
    # below CHAR_MATCH_TOL; a match is a copy of a found irrep, and a miss
    # builds the cluster's matrices, which must carry an irreducible. As a
    # class function, a character is compared at one element per class.
    classes, conjugates = _class_conjugates(group)
    known = np.empty((n, len(classes)), dtype=np.complex128)  # found so far
    found: list[tuple[np.ndarray, np.ndarray]] = []  # (character, matrices)
    for idx in clusters:
        q = np.linalg.qr(v[:, idx])[0]
        p = q[group.identity] @ q.conj().T
        if _is_known(np.take(p, conjugates).sum(axis=0), known[:len(found)]):
            continue  # a copy of a found irrep: no matrices
        # sigma(g) = Q^H rho(g) Q = Q[gh]^H Q with rho(g) the left-multiplication
        # permutation: rows (k, g) of Q^H[k, gh], one product per row block of g
        m = len(idx)
        qh = q.conj().T
        mats = np.empty((n, m, m), dtype=np.complex128)
        for rows in row_blocks(n, 4 * m * n):
            blk = np.take(qh, group.table[rows], axis=1).reshape(-1, n) @ q
            mats[rows] = blk.reshape(m, -1, m).transpose(1, 0, 2)
        chi = np.trace(mats, axis1=1, axis2=2)
        if abs(float(np.mean(np.abs(chi) ** 2)) - 1.0) >= CHAR_MATCH_TOL:
            raise RepDecompositionError("an eigenvalue cluster is reducible")
        known[len(found)] = chi[classes]
        found.append((chi, mats))

    if sum(m.shape[1] ** 2 for _, m in found) != n:
        raise RepDecompositionError(
            f"dimension check failed: sum dim^2 = "
            f"{sum(m.shape[1] ** 2 for _, m in found)} != {n}")

    order = _char_order(np.array([chi for chi, _ in found]),
                        [m.shape[1] for _, m in found])
    found = [found[i] for i in order]
    commutators = group.table[group.table, group.inverse[group.table.T]]
    irreps = []
    for i, (chi, mats) in enumerate(found):
        d = mats.shape[1]
        if d > 1:
            kernel = np.abs(chi - d) < CHAR_MATCH_TOL
            mats = _diagonal_friendly(mats, _commuting_family(commutators, kernel), rng)
        rep = UnitaryRep(group, mats, label=f"irrep{i}")
        # the bound is at least the measured residual; when it is too loose
        # to pass, every pair is measured, as the gate's decision requires
        if rep.unitarity_residual > DEFAULT_TOL or (
                _hom_residual_bound(rep) > DEFAULT_TOL
                and rep.hom_residual > DEFAULT_TOL):
            raise RepDecompositionError(
                f"residuals exceed tol: hom={rep.hom_residual:.3g} "
                f"unit={rep.unitarity_residual:.3g}")
        irreps.append(rep)

    if char_orthogonality_defect(irreps) > CHAR_MATCH_TOL:
        raise RepDecompositionError("character orthogonality failed")
    return irreps


def char_orthogonality_defect(reps: list[UnitaryRep]) -> float:
    """max |sum conj(chi_i) chi_j / n - [i = j]| over reps of one group; on an
    abelian group's ``irreps_of``, conj(chi_i) chi_j = chi_(j-i), so it is
    max_k |mean chi_k - [chi_k trivial]|, by row sums in blocks, no BLAS.
    That holds for any list of the same reps in the same order, a copy too:
    reps compare by identity."""
    group, n = reps[0].group, reps[0].group.order
    if group.is_abelian and list(reps) == group._irreps:
        phases, roots = np.array([rep.phases for rep in reps]), reps[0]._roots
        return max(float(np.max(np.abs(roots[phases[b]].mean(axis=1) - ~phases[b].any(axis=1))))
                   for b in row_blocks(n, n))
    chars = np.array([rep.character() for rep in reps])
    gram = chars.conj() @ chars.T / n
    return float(np.max(np.abs(gram - np.eye(len(reps)))))


# ---------------------------------------------------------------------------
# Direct sums, caching, quasirandomness degree


class DirectSum(UnitaryRep):
    """A block-diagonal direct sum held as its summands (a sum's, flattened).

    A block-diagonal matrix's operator norm is the max of its blocks', so
    ||t(g) - I||_op and both residuals are the max of the summands'. The
    dense ``matrices`` are built on first read, which no Bohr search does.
    """

    def __init__(self, reps: list[UnitaryRep]):
        if not reps:
            raise ValueError("direct_sum_hom needs at least one representation")
        self.group = reps[0].group
        if any(r.group is not self.group for r in reps):
            raise ValueError("direct_sum_hom requires representations of one group")
        self.summands = tuple(s for r in reps for s in (r.summands or (r,)))
        self.dim = sum(s.dim for s in self.summands)
        self.label = "+".join(s.label for s in self.summands)
        self._distances = None

    def _own_distances(self) -> np.ndarray:
        return np.maximum.reduce([s.identity_distances() for s in self.summands])

    @property
    def hom_residual(self) -> float:
        return max(s.hom_residual for s in self.summands)

    @property
    def unitarity_residual(self) -> float:
        return max(s.unitarity_residual for s in self.summands)

    @functools.cached_property
    def matrices(self) -> np.ndarray:
        mats = np.zeros((self.group.order, self.dim, self.dim), dtype=np.complex128)
        ends = np.cumsum([s.dim for s in self.summands])
        for s, end in zip(self.summands, ends):
            mats[:, end - s.dim:end, end - s.dim:end] = s.matrices
        mats.setflags(write=False)
        return mats


def direct_sum_hom(reps: list[UnitaryRep]) -> UnitaryRep:
    """Direct sum of homomorphisms over one group: the rep itself when there
    is one, else their ``DirectSum``."""
    return reps[0] if len(reps) == 1 else DirectSum(reps)


def irreps_of(group: FiniteGroup) -> list[UnitaryRep]:
    """The group's irreducibles, kept on the group object: exact characters
    when abelian, else ``decompose_regular``, which depends on the group
    alone. A Bohr set reads only ||t(g) - I||_op, which no change of basis
    moves."""
    if group._irreps is None:
        group._irreps = (abelian_characters(group) if group.is_abelian
                         else decompose_regular(group))
    return group._irreps


def min_nontrivial_dim(group: FiniteGroup) -> int:
    """Minimum dimension of a nontrivial irreducible.

    An irreducible of dimension >= 2 is never trivial; one of dimension 1 is
    trivial when its distance row |chi(g) - 1| vanishes. No character or
    matrix is read."""
    dims = [rep.dim for rep in irreps_of(group)
            if rep.dim > 1 or np.max(rep.identity_distances()) > 1e-6]
    if not dims:
        raise ValueError("group has no nontrivial irreducible (trivial group)")
    return min(dims)
