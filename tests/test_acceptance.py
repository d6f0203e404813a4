"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines as they complete).
"""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import GroupFunction, SearchSpace, Subset, ZetaRule
from bohrlab.cli import load_config, run_experiment
from bohrlab.gen import (evens_subset, interval_subset, random_subset,
                         random_subset_of_size, random_uniform_function,
                         remove_random_points, rng_from_seed)

FIXTURES = Path(__file__).parent / "fixtures"


def _report(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS - {text}")


@pytest.fixture(scope="module")
def catalog100():
    return {d: bl.build_group(d) for d in bl.catalog_descriptors(100)}


@pytest.fixture(scope="module")
def zpz101():
    g = bl.build_group("zmod:101")
    a = Subset.from_indices(g, range(51))
    return g, bl.overlap_function(a)


def test_criterion_01_group_rep_soundness(catalog100):
    start = time.perf_counter()
    for desc, g in catalog100.items():
        if g.order > 60:
            continue
        irreps = bl.decompose_regular(g)
        dims = [ir.dim for ir in irreps]
        assert sum(d * d for d in dims) == g.order, desc
        for ir in irreps:
            assert ir.hom_residual <= 1e-9, desc
            assert ir.unitarity_residual <= 1e-9, desc
        chars = np.array([ir.character() for ir in irreps])
        gram = chars @ chars.conj().T / g.order
        assert np.max(np.abs(gram - np.eye(len(irreps)))) <= 1e-6, desc
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _report(1, f"sum dim^2 exact, residuals <= 1e-9, orthogonality <= 1e-6 "
               f"on catalog <= 60 in {elapsed:.1f}s")


def test_criterion_02_bohr_structure(catalog100):
    start = time.perf_counter()
    grid = (2.0, 1.0, 0.5, 0.25, 0.15, 0.1, 0.05)
    checked = 0
    for desc, g in catalog100.items():
        if g.order > 24:
            continue
        irreps = bl.irreps_of(g)
        reps = list(irreps[:4])
        if len(irreps) >= 2:
            reps.append(bl.direct_sum_hom([irreps[0], irreps[1]]))
        for rep in reps:
            previous = None
            for delta in sorted(grid):
                spec = bl.bohr_set(g, rep, delta)
                b = spec.realized
                assert b == bl.inverse_set(b), desc
                for x in g.elements():
                    assert (bl.translate_set(x, b, "left")
                            == bl.translate_set(x, b, "right")), desc
                if previous is not None:
                    assert previous.is_subset_of(b), desc
                previous = b
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    _report(2, f"{checked} Bohr sets symmetric, normal, delta-monotone "
               f"in {elapsed:.1f}s")


def test_criterion_03_z12_fixture():
    g = bl.build_group("zmod:12")
    chi1 = bl.abelian_characters(g)[1]
    spec = bl.bohr_set(g, chi1, 1.0)
    assert sorted(spec.realized.indices) == [0, 1, 11]
    count, translates = bl.greedy_cover(g, spec.realized)
    assert count == 4 and translates == [0, 3, 6, 9]
    nm_spec, m = bl.nm_refine(g, chi1, 1.0)
    assert m == 1
    bound, actual, ok = bl.cover_bound_check(nm_spec)
    assert (bound, actual, ok) == (7, 4, True)
    _report(3, "Z/12: B = {0,1,11}, greedy cover 4, nm bound 7 >= 4")


def test_criterion_04_exponent_property():
    for desc, r in (("product:zmod:2,zmod:2,zmod:2", 2),
                    ("product:zmod:3,zmod:3", 3)):
        g = bl.build_group(desc)
        assert g.exponent() == r
        threshold = 2 * math.sin(math.pi / r)
        deltas = tuple(d for d in (2.0, 1.0, 0.5, 0.25, 0.15, 0.1, 0.05)
                       if d <= threshold) + (threshold,)
        space = SearchSpace(delta_grid=deltas, max_candidates=10_000)
        seen = 0
        for spec in bl.enumerate_bohr_candidates(g, space):
            assert bl.subgroup_test(spec.realized) == (True, True), desc
            seen += 1
        assert seen > 0
    _report(4, "all Bohr sets at delta <= 2 sin(pi/r) are normal subgroups "
               "for (Z/2)^3 and (Z/3)^2")


def test_criterion_05_fubini_and_levelset(catalog100):
    for desc, g in catalog100.items():
        rng = rng_from_seed(42)
        for _ in range(100):
            f = random_uniform_function(g, rng)
            h = random_uniform_function(g, rng)
            out = bl.convolve(f, h)
            assert abs(out.mean - f.mean * h.mean) <= 1e-12, desc

    g60 = catalog100["zmod:60"]
    alpha = Fraction(3, 10)
    thr = alpha ** 2 / 2
    for t in range(100):
        rng = rng_from_seed(7000 + t)
        a = random_subset_of_size(g60, 18 + int(rng.integers(0, 24)), rng)
        b = random_subset_of_size(g60, 18 + int(rng.integers(0, 24)), rng)
        rows = b.mask[g60.table[g60.inverse, :]]
        counts = a.mask.astype(np.int64) @ rows
        assert int(counts.sum()) == len(a) * len(b)
        s_size = sum(1 for c in counts if Fraction(int(c), 60) > thr)
        assert Fraction(s_size, 60) >= thr
    _report(5, "Fubini within 1e-12 on 100 pairs/group; level-set bound exact "
               "in 100 Z/60 trials")


def test_criterion_06_covering_lemmas():
    start = time.perf_counter()
    z6 = bl.build_group("zmod:6")
    held = violations = 0
    for xa in range(1, 64):
        xmask = np.array([(xa >> i) & 1 for i in range(6)], bool)
        x = Subset(z6, xmask)
        for ya in range(64):
            y = Subset(z6, np.array([(ya >> i) & 1 for i in range(6)], bool))
            chk = bl.symmetric_covering_check(x, y)
            if chk.hypothesis_met:
                held += 1
                violations += not chk.conclusion_holds

    z5 = bl.build_group("zmod:5")
    # symmetric subsets of Z/5 are unions of {0}, {1,4}, {2,3}; non-symmetric
    # X never meet the hypotheses of the translate covering lemma
    sym_sets = []
    for bits in range(1, 8):
        members = []
        for j, orbit in enumerate(([0], [1, 4], [2, 3])):
            if (bits >> j) & 1:
                members += orbit
        sym_sets.append(Subset.from_indices(z5, members))
    held_t = violations_t = 0
    for x in sym_sets:
        for ca in range(32):
            c = Subset(z5, np.array([(ca >> i) & 1 for i in range(5)], bool))
            for da in range(32):
                d = Subset(z5, np.array([(da >> i) & 1 for i in range(5)], bool))
                for k in range(1, 6):
                    chk = bl.translate_covering_check(c, x, d, k)
                    if chk.hypothesis_met:
                        held_t += 1
                        violations_t += not chk.conclusion_holds
    elapsed = time.perf_counter() - start
    assert violations == 0 and violations_t == 0
    assert held > 0 and held_t > 0
    assert elapsed <= 60.0
    _report(6, f"symmetric lemma: {held} admissible Z/6 pairs, 0 violations; "
               f"translate lemma: {held_t} admissible Z/5 instances, "
               f"0 violations ({elapsed:.1f}s)")


def test_criterion_07_zpz_reproduction(zpz101):
    start = time.perf_counter()
    g, f = zpz101
    assert float(f.values.max()) >= 0.49
    assert float(f.values.min()) <= 0.02
    full = bl.bohr_set(g, bl.abelian_characters(g)[0], 2.0)
    cert_full = bl.translate_defect(f, full, 0.1)
    assert cert_full.max_defect > 0
    res = bl.search_regular_bohr(f, 0.1, ZetaRule.constant(0.001))
    assert res.status == "ok"
    cert = res.found
    assert cert.max_defect == 0.0
    assert cert.spec.kind == "torus"
    members = sorted(int(i) for i in cert.spec.realized.indices)
    radius = (len(members) - 1) // 2
    assert members == sorted(x % 101 for x in range(-radius, radius + 1))
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0
    _report(7, f"Z/101 overlap: values hit [>=0.49, <=0.02], positive defect "
               f"on G, interval certificate with defect 0 ({elapsed:.1f}s)")


def test_criterion_08_ladder_oracle_equivalence(catalog100):
    start = time.perf_counter()
    cap = 5
    compared = 0
    for desc, g in catalog100.items():
        if g.order > 10:
            continue
        for fn_seed in range(50):
            f = random_uniform_function(g, rng_from_seed(fn_seed))
            for eps in (0.25, 0.5, 1.0):
                idx = bl.ladder_index(f, eps, cap=cap, budget=10_000_000)
                oracle_capped = bl.oracle_ladder_index(f, eps, cap=cap)
                assert idx.k_max == oracle_capped, (desc, fn_seed, eps)
                if idx.status == "exact":
                    assert idx.k_max == bl.oracle_ladder_index(f, eps), \
                        (desc, fn_seed, eps)
                else:
                    assert idx.status == "capped" and idx.k_max == cap
                compared += 1
    elapsed = time.perf_counter() - start
    assert elapsed <= 300.0
    _report(8, f"{compared} ladder_index/oracle comparisons agree "
               f"(cap {cap}) in {elapsed:.1f}s")


def test_criterion_09_convolution_stability_pinned():
    pinned = json.loads((FIXTURES / "conv_ladder_pilot.json").read_text())
    eps, cap = pinned["eps"], pinned["cap"]
    budget, trials = pinned["budget"], pinned["trials"]
    density, seed_base = pinned["density"], pinned["seed_base"]

    def measure(desc):
        g = bl.build_group(desc)
        worst, statuses = 0, {}
        for t in range(trials):
            rng = rng_from_seed(seed_base + t)
            a = random_subset(g, density, rng)
            b = random_subset(g, density, rng)
            conv = bl.convolve(GroupFunction.indicator(a),
                               GroupFunction.indicator(b))
            res = bl.ladder_index(conv, eps, cap=cap, budget=budget)
            worst = max(worst, res.k_max)
            statuses[res.status] = statuses.get(res.status, 0) + 1
        return {"max_index": worst, "statuses": statuses}

    for cohort in ("order20", "order60"):
        for desc, expected in pinned[cohort].items():
            # the pinned maxima are measurements, not budget-bound lower bounds
            assert "inconclusive" not in expected["statuses"], desc
            assert measure(desc) == expected, desc
    assert pinned["max60"] <= pinned["max20"]
    _report(9, f"conv ladder maxima re-asserted: order-20 max "
               f"{pinned['max20']}, order-60 max {pinned['max60']} "
               f"(non-increasing)")


def test_criterion_10_bogolyubov_desk_scale():
    # structured fixture on Z/200: perturbed index-2 kernel, mu(A) = 0.45
    g200 = bl.build_group("zmod:200")
    a200 = remove_random_points(evens_subset(g200), 10, rng_from_seed(11))
    assert a200.measure >= 0.3
    res = bl.bogolyubov_search(a200, 0.3)
    assert res.status == "ok"
    # independent exhaustive verification with python sets
    a_idx = [int(i) for i in a200.indices]
    diff = {(x - y) % 200 for x in a_idx for y in a_idx}
    quad = {(x + y) % 200 for x in diff for y in diff}
    assert {int(i) for i in res.spec.realized.indices} <= quad

    # perturbed Bohr interval on Z/101, mu(A) >= 0.3
    g101 = bl.build_group("zmod:101")
    a101 = remove_random_points(interval_subset(g101, 18), 5, rng_from_seed(23))
    assert a101.measure >= 0.3
    res101 = bl.bogolyubov_search(a101, 0.3)
    assert res101.status == "ok"
    b_idx = [int(i) for i in a101.indices]
    diff101 = {(x - y) % 101 for x in b_idx for y in b_idx}
    quad101 = {(x + y) % 101 for x in diff101 for y in diff101}
    assert {int(i) for i in res101.spec.realized.indices} <= quad101

    covers = 0
    for fixture in (a200, a101):
        cov = bl.separated_cover(fixture, 0.3)
        assert cov.covers and cov.count <= math.ceil(2 / 0.3)
        covers += 1
    for desc in ("zmod:30", "dihedral:12", "sym:4", "alt:5"):
        g = bl.build_group(desc)
        for t in range(25):
            a = random_subset(g, 0.42, rng_from_seed(3000 + t))
            if a.measure < 0.3:
                continue
            cov = bl.separated_cover(a, 0.3)
            assert cov.covers and cov.count <= math.ceil(2 / 0.3)
            covers += 1
    _report(10, f"Bohr specs inside (AA^-1)^2 verified exhaustively on Z/200 "
                f"and Z/101 fixtures; {covers} separated covers within bounds")


def test_criterion_11_quasirandom_a5(catalog100):
    a5 = catalog100["alt:5"]
    assert bl.min_nontrivial_dim(a5) == 3
    for t in range(100):
        rng = rng_from_seed(600 + t)
        a = random_subset_of_size(a5, 21, rng)
        b = random_subset_of_size(a5, 21, rng)
        c = random_subset_of_size(a5, 21, rng)
        chk = bl.quasirandom_check(a, b, c, 0.35)
        assert chk.ab_density > 0.65, t
        assert chk.abc_covers, t
    z12 = catalog100["zmod:12"]
    evens = evens_subset(z12)
    counter = bl.quasirandom_check(evens, evens, evens, 0.35)
    assert bl.min_nontrivial_dim(z12) == 1
    assert counter.ab_density <= 0.65
    assert not counter.abc_covers
    _report(11, "100 A5 triples: |AB| > 0.65|G| and ABC = G; Z/12 evens "
                "counterexample fails the conclusion with d = 1")


def test_criterion_12_croot_sisask():
    g = bl.build_group("zmod:101")
    a = random_subset(g, 0.5, rng_from_seed(7))
    ind = GroupFunction.indicator(a)
    f = bl.convolve(ind, ind)
    res = bl.shift_invariance_search(f, 2, 0.1, min_size=3)
    assert res.status == "ok"
    assert len(res.spec.realized) >= 3
    assert res.found < 0.1
    sup = max(float(np.mean((f.values[g.table[t, :]] - f.values) ** 2) ** 0.5)
              for t in res.spec.realized.indices)
    assert sup < 0.1 and sup == pytest.approx(res.found)
    _report(12, f"shift-invariant Bohr set of size {len(res.spec.realized)} "
                f"with sup ||f_t - f||_2 = {res.found:.4f} < 0.1")


def test_criterion_13_fft_equivalence():
    worst = 0.0
    for n in (2, 3, 8, 16, 101, 128, 255, 256, 257, 500, 512):
        g = bl.build_group(f"zmod:{n}")
        rng = rng_from_seed(n)
        for _ in range(20):
            f = random_uniform_function(g, rng)
            h = random_uniform_function(g, rng)
            naive = bl.convolve(f, h)
            fast = bl.convolve_fft_cyclic(f, h)
            worst = max(worst, float(np.max(np.abs(naive.values - fast.values))))
    assert worst <= 1e-10
    _report(13, f"FFT path matches naive convolution up to n = 512 "
                f"(worst residual {worst:.2e})")


def test_criterion_14_determinism():
    fixtures = sorted(FIXTURES.glob("*.ini"))
    assert fixtures
    for path in fixtures:
        config = load_config(str(path))
        first = run_experiment(dict(config))
        second = run_experiment(dict(config))
        assert first.payload_canonical() == second.payload_canonical(), path.name
        assert first.status == second.status
    _report(14, f"{len(fixtures)} fixture payloads byte-identical across reruns")
