import gc
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from bohrlab import (FiniteGroup, GroupFunction, Subset, build_group,
                     catalog_descriptors, convolve, ladder_index,
                     oracle_ladder_index, stability_profile)
from bohrlab.gen import (interval_subset, random_pm1_function, random_subset,
                         random_uniform_function, rng_from_seed)


def test_constant_has_no_ladder(z12):
    f = GroupFunction.constant(z12, 0.25)
    assert ladder_index(f, 0.1, cap=2).status == "exact"
    idx = ladder_index(f, 0.1, cap=5)
    assert (idx.k_max, idx.status) == (1, "exact")


@pytest.mark.parametrize("budget", [0, -5])
def test_budget_below_one_rejected(z12, budget):
    f = GroupFunction.constant(z12, 0.25)
    for call in (lambda: ladder_index(f, 0.1, budget=budget),
                 lambda: stability_profile(f, [], budget=budget)):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            call()


@pytest.mark.parametrize("field", ["cap", "budget"])
def test_ladder_index_rejects_a_fractional_cap_or_budget(z12, field):
    # cap counts pairs and budget nodes: a fractional cap would report a
    # k_max above it, and a fractional budget charge a node past it
    f = random_uniform_function(z12, rng_from_seed(3))
    with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
        ladder_index(f, 0.3, **{field: 2.5})


@pytest.mark.parametrize("field", ["cap", "budget"])
def test_stability_profile_rejects_a_fractional_cap_or_budget(z12, field):
    # checked before any search, so an empty grid rejects them too
    f = random_uniform_function(z12, rng_from_seed(3))
    for grid in ([0.3, 0.5], []):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got 2.5"):
            stability_profile(f, grid, **{field: 2.5})


def test_oracle_rejects_a_fractional_cap(z12):
    # a fractional cap would come back as the index
    f = random_uniform_function(z12, rng_from_seed(3))
    for cap, message in ((2.5, "cap must be an integer, got 2.5"),
                         (0, "cap must be >= 1, got 0")):
        with pytest.raises(ValueError, match=message):
            oracle_ladder_index(f, 0.3, cap=cap)
    assert oracle_ladder_index(f, 0.3, cap=np.int64(2)) == 2


def test_z4_indicator_witness(z4):
    f = GroupFunction.indicator(Subset.from_indices(z4, [0, 1]))
    out = ladder_index(f, 1.0, cap=2)
    assert out.status == "capped"
    assert out.witness.k == 2
    assert out.witness.is_valid_for(f)
    assert out.witness.min_gap >= 1.0


def test_range_bound_kills_ladders(z4):
    f = GroupFunction.indicator(Subset.from_indices(z4, [0, 1]))
    assert ladder_index(f, 2.5, cap=2).status == "exact"
    idx = ladder_index(f, 2.5, cap=6)
    assert (idx.k_max, idx.status) == (1, "exact")


def test_oracle_z2_by_exhaustive_enumeration():
    g = build_group("zmod:2")
    f = GroupFunction.indicator(Subset.from_indices(g, [0]))
    # freeze the expectation with a direct 16-candidate enumeration
    table = g.table
    best = 1
    for a1, b1, a2, b2 in itertools.product(range(2), repeat=4):
        gap = abs(f.values[table[a1, b2]] - f.values[table[a2, b1]])
        if gap >= 1.0:
            best = 2
    assert oracle_ladder_index(f, 1.0) == best
    idx = ladder_index(f, 1.0, cap=4)
    assert idx.k_max == best and idx.status == "exact"


def test_oracle_matches_search_z4(z4):
    f = GroupFunction.indicator(Subset.from_indices(z4, [0, 1]))
    idx = ladder_index(f, 1.0, cap=8)
    assert idx.status == "exact"
    assert idx.k_max == oracle_ladder_index(f, 1.0)


def test_oracle_order_cap(a5):
    with pytest.raises(ValueError):
        oracle_ladder_index(GroupFunction.constant(a5, 0.0), 0.5)


@pytest.mark.parametrize("desc", ["zmod:5", "zmod:8", "dihedral:4", "sym:3"])
def test_oracle_equivalence_sample(desc):
    g = build_group(desc)
    for seed in range(8):
        rng = rng_from_seed(seed)
        f = random_uniform_function(g, rng)
        for eps in (0.25, 0.5, 1.0):
            idx = ladder_index(f, eps, cap=5)
            oracle = oracle_ladder_index(f, eps, cap=5)
            assert idx.k_max == oracle, (desc, seed, eps)
            if idx.status == "exact":
                assert idx.k_max == oracle_ladder_index(f, eps)


@pytest.mark.parametrize("desc", catalog_descriptors(12))
def test_restricted_domain_oracle_equivalence(desc):
    # restricted domains take no translation roots: the colour-bound search
    # starts from the whole domain mask
    g = build_group(desc)
    for seed in range(8):
        rng = rng_from_seed(seed)
        f = random_uniform_function(g, rng)
        a_dom = random_subset(g, 0.6, rng)
        b_dom = random_subset(g, 0.6, rng)
        for eps in (0.25, 0.6, 1.2):
            for cap in (2, 5, 99):
                idx = ladder_index(f, eps, cap=cap, a_domain=a_dom, b_domain=b_dom)
                assert idx.k_max == oracle_ladder_index(
                    f, eps, cap=cap, a_domain=a_dom, b_domain=b_dom), (seed, eps, cap)
                if idx.status == "exact":
                    assert idx.k_max == oracle_ladder_index(
                        f, eps, a_domain=a_dom, b_domain=b_dom), (seed, eps, cap)
                else:
                    assert (idx.status, idx.k_max) == ("capped", cap)
                if idx.witness is not None:
                    assert idx.witness.is_valid_for(f)
                    assert a_dom.mask[list(idx.witness.a_seq)].all()
                    assert b_dom.mask[list(idx.witness.b_seq)].all()


def _relabelled(g, perm):
    """g with element x renamed perm[x]: perm[t[inv][:, inv]], inv = perm^-1."""
    inv = np.argsort(perm)
    return FiniteGroup(perm[g.table[inv][:, inv]], f"{g.descriptor}~relabelled")


@pytest.mark.parametrize("desc", ["zmod:12", "dihedral:6", "alt:4", "zmod:8"])
def test_roots_on_relabelled_groups_match_oracle(desc):
    # element 0 is not the identity here, so a pair's key (the b* with
    # 0 b* = a b) differs from its product a b: a filter on the product
    # alone, not keyed through row 0, reports false exact results
    g = build_group(desc)
    for seed in range(10):
        rng = rng_from_seed(seed)
        perm = rng.permutation(g.order)
        if perm[g.identity] == 0:  # keep the identity off element 0
            perm = np.roll(perm, 1)
        h = _relabelled(g, perm)
        assert h.identity != 0
        # quarter values put gaps exactly on eps, where >= decides
        f = GroupFunction(h, rng.integers(0, 4, size=h.order) / 4)
        for eps in (0.5, 0.75):
            idx = ladder_index(f, eps, cap=8)
            assert idx.k_max == oracle_ladder_index(f, eps, cap=8), (seed, eps)
            if idx.status == "exact":
                assert idx.k_max == oracle_ladder_index(f, eps), (seed, eps)
            else:
                assert (idx.status, idx.k_max) == ("capped", 8), (seed, eps)
            assert idx.witness.is_valid_for(f)


def test_colour_bound_without_prefix_cut():
    # branching in colour order while also cutting roots to "a_1 minimal"
    # reports exact 2 here, where the longest ladder has length 3
    g = build_group("zmod:12")
    rng = rng_from_seed(1003)
    f = convolve(GroupFunction.indicator(random_subset(g, 0.3, rng)),
                 GroupFunction.indicator(random_subset(g, 0.3, rng)))
    assert oracle_ladder_index(f, 0.1) == 3
    idx = ladder_index(f, 0.1, cap=8)
    assert (idx.k_max, idx.status) == (3, "exact")
    assert idx.witness.is_valid_for(f)


def test_budget_exhaustion_is_inconclusive(z12):
    f = random_pm1_function(z12, rng_from_seed(0))
    idx = ladder_index(f, 0.5, cap=8, budget=1)
    assert idx.status == "inconclusive"


def test_witness_revalidates_independently(z12):
    rng = rng_from_seed(7)
    for _ in range(10):
        f = random_uniform_function(z12, rng)
        idx = ladder_index(f, 0.4, cap=5)
        if idx.witness is not None and idx.witness.k >= 2:
            gaps = idx.witness.recompute_gaps(f)
            assert len(gaps) == idx.witness.k * (idx.witness.k - 1) // 2
            assert all(gap >= 0.4 for gap in gaps)
            assert tuple(gaps) == idx.witness.deltas


def test_translation_invariance_by_witness_transport():
    g = build_group("zmod:8")
    rng = rng_from_seed(3)
    f = random_uniform_function(g, rng)
    for gx, hx in [(3, 5), (1, 0), (6, 2)]:
        # f'(x) = f(g x h)
        vals = np.array([f.values[g.table[g.table[gx, x], hx]]
                         for x in g.elements()])
        f2 = GroupFunction(g, vals)
        for eps in (0.3, 0.6):
            assert oracle_ladder_index(f, eps) == oracle_ladder_index(f2, eps)
        # transport an explicit witness: a_i -> g a_i g^-1 ... direct map:
        idx = ladder_index(f2, 0.3, cap=4)
        if idx.witness:
            # map (a, b) for f' to (g a, b h) for f
            a_seq = tuple(g.table[gx, a] for a in idx.witness.a_seq)
            b_seq = tuple(g.table[b, hx] for b in idx.witness.b_seq)
            moved = type(idx.witness)(a_seq, b_seq, 0.3, idx.witness.deltas)
            assert moved.is_valid_for(f)


def test_restriction_monotonicity():
    g = build_group("zmod:6")
    rng = rng_from_seed(5)
    f = random_uniform_function(g, rng)
    big_v = Subset.from_indices(g, range(6))
    small_v = Subset.from_indices(g, range(4))
    big_w = Subset.from_indices(g, range(6))
    small_w = Subset.from_indices(g, [0, 2, 4])
    full = oracle_ladder_index(f, 0.3, a_domain=big_v, b_domain=big_w)
    assert oracle_ladder_index(f, 0.3, a_domain=small_v, b_domain=big_w) <= full
    assert oracle_ladder_index(f, 0.3, a_domain=big_v, b_domain=small_w) <= full
    idx_small = ladder_index(f, 0.3, cap=8, a_domain=small_v, b_domain=small_w)
    idx_full = ladder_index(f, 0.3, cap=8)
    assert idx_small.k_max <= idx_full.k_max


def test_profile_constant(z12):
    f = GroupFunction.constant(z12, -0.5)
    prof = stability_profile(f, [0.1, 0.5, 1.0], cap=4)
    assert prof.indices == (1, 1, 1)
    assert prof.eps_grid == (0.1, 0.5, 1.0)


def test_profile_monotone_random():
    g = build_group("zmod:8")
    for seed in range(5):
        f = random_uniform_function(g, rng_from_seed(seed))
        prof = stability_profile(f, [0.2, 0.4, 0.8, 1.6], cap=5)
        assert all(prof.indices[i] >= prof.indices[i + 1]
                   for i in range(len(prof.indices) - 1))


def test_profile_raises_inconclusive_runs_to_later_ladders():
    # budget 100 leaves two middle runs inconclusive at 6 while a larger eps
    # finds 7; that 7-ladder is one at every smaller eps too. It lifts them
    # to 7 but not to exact: no search at or below their eps was exhausted
    f = _pilot_function("zmod:20", 1025)
    grid = (0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.15)
    runs = [ladder_index(f, eps, cap=8, budget=100) for eps in grid]
    assert [(r.k_max, r.status) for r in runs] == [
        (8, "capped"), (8, "capped"), (6, "inconclusive"), (6, "inconclusive"),
        (7, "exact"), (3, "exact"), (3, "exact")]
    prof = stability_profile(f, grid, cap=8, budget=100)
    assert prof.indices == (8, 8, 7, 7, 7, 3, 3)
    assert prof.statuses == ("capped", "capped", "inconclusive", "inconclusive",
                             "exact", "exact", "exact")


def test_profile_exact_only_from_an_exhausted_search_at_or_below(monkeypatch, z12):
    from bohrlab import stability
    runs = {0.1: (6, "capped"), 0.2: (4, "exact"), 0.3: (4, "inconclusive"),
            0.4: (3, "inconclusive"), 0.5: (2, "exact")}
    monkeypatch.setattr(stability, "ladder_index", lambda f, eps, cap, budget:
                        stability.LadderIndex(*runs[eps], None, 0))
    prof = stability_profile(GroupFunction.constant(z12, 0.0), list(runs), cap=6)
    assert prof.indices == (6, 4, 4, 3, 2)
    # 0.3 is bounded by the exhausted search at 0.2; 0.4 is not (4 > 3), and
    # the exhausted search at 0.5 bounds nothing below it
    assert prof.statuses == ("capped", "exact", "exact", "inconclusive", "exact")


def test_convolution_more_stable_than_noise():
    g = build_group("zmod:20")
    conv_wins = 0
    trials = 100
    for t in range(trials):
        rng = rng_from_seed(10_000 + t)
        a = random_subset(g, 0.5, rng)
        b = random_subset(g, 0.5, rng)
        conv = convolve(GroupFunction.indicator(a), GroupFunction.indicator(b))
        noise = random_pm1_function(g, rng)
        ci = ladder_index(conv, 0.25, cap=5, budget=20_000)
        ni = ladder_index(noise, 0.25, cap=5, budget=20_000)
        if ci.k_max <= ni.k_max:
            conv_wins += 1
    assert conv_wins >= 95


def test_witness_json(z4):
    f = GroupFunction.indicator(Subset.from_indices(z4, [0, 1]))
    out = ladder_index(f, 1.0, cap=2)
    doc = out.witness.to_json_dict()
    assert doc["k"] == 2 and doc["epsilon"] == 1.0
    assert doc["min_gap"] >= 1.0
    assert len(doc["a"]) == len(doc["b"]) == 2
    single = ladder_index(GroupFunction.constant(z4, 0.0), 0.5, cap=3).witness
    assert single.k == 1 and single.to_json_dict()["min_gap"] is None


# (group, seed, k_max, status, nodes, a_seq, b_seq) of ladder_index on
# conv:random:0.3|random:0.3 at eps 0.1, cap 8, budget 10 000, recorded with
# the branch-and-bound search (greedy dive, translation roots keyed by their
# diagonal products, colour bound):
# the traversal, and so every node count and witness, must not change.
PILOT_PINS = [
    ("zmod:20", 1000, 5, "exact", 146, (0, 0, 1, 2, 7), (0, 16, 16, 9, 9)),
    ("zmod:20", 1003, 3, "exact", 27, (0, 16, 0), (2, 11, 11)),
    ("zmod:20", 1029, 8, "capped", 16, (0, 18, 18, 16, 15, 15, 13, 0),
     (0, 9, 11, 11, 17, 2, 9, 17)),
    ("dihedral:10", 1001, 7, "exact", 68, (0, 18, 15, 18, 15, 9, 0),
     (0, 19, 3, 6, 6, 15, 10)),
    ("dihedral:10", 1002, 8, "capped", 8, (0, 0, 0, 1, 2, 2, 19, 19),
     (0, 8, 11, 8, 11, 18, 1, 13)),
    ("dihedral:10", 1028, 3, "exact", 25, (0, 0, 18), (0, 8, 8)),
    ("dihedral:30", 1000, 1, "exact", 63, (0,), (0,)),
    ("dihedral:30", 1001, 3, "exact", 80, (0, 0, 10), (0, 35, 35)),
    ("zmod:60", 1001, 3, "exact", 67, (0, 57, 53), (2, 55, 58)),
    ("zmod:60", 1020, 2, "exact", 64, (0, 8), (0, 17)),
    ("alt:5", 1002, 4, "exact", 72, (0, 20, 9, 9), (11, 47, 47, 49)),
    ("alt:5", 1043, 2, "exact", 64, (0, 28), (0, 58)),
]

# Test ids are fixed labels, one per (group, seed) case: they were generated
# from the values the numpy-mask search recorded and are kept as they are, so
# re-pinning a case changes its assertions but never its name.
PILOT_IDS = [
    "zmod:20-1000-5-inconclusive-10000-a_seq0-b_seq0",
    "zmod:20-1003-3-exact-6385-a_seq1-b_seq1",
    "zmod:20-1029-8-capped-85-a_seq2-b_seq2",
    "dihedral:10-1001-7-inconclusive-10000-a_seq3-b_seq3",
    "dihedral:10-1002-8-capped-8-a_seq4-b_seq4",
    "dihedral:10-1028-3-exact-3805-a_seq5-b_seq5",
    "dihedral:30-1000-1-exact-3601-a_seq6-b_seq6",
    "dihedral:30-1001-3-inconclusive-10000-a_seq7-b_seq7",
    "zmod:60-1001-3-inconclusive-10000-a_seq8-b_seq8",
    "zmod:60-1020-2-exact-7261-a_seq9-b_seq9",
    "alt:5-1002-4-inconclusive-10000-a_seq10-b_seq10",
    "alt:5-1043-2-exact-7261-a_seq11-b_seq11",
]


@pytest.mark.parametrize("desc,seed,k_max,status,nodes,a_seq,b_seq", PILOT_PINS,
                         ids=PILOT_IDS)
def test_pilot_ladder_pinned(desc, seed, k_max, status, nodes, a_seq, b_seq):
    g = build_group(desc)
    rng = rng_from_seed(seed)
    a = random_subset(g, 0.3, rng)
    b = random_subset(g, 0.3, rng)
    f = convolve(GroupFunction.indicator(a), GroupFunction.indicator(b))
    idx = ladder_index(f, 0.1, cap=8, budget=10_000)
    assert (idx.k_max, idx.status, idx.nodes) == (k_max, status, nodes)
    assert (idx.witness.a_seq, idx.witness.b_seq) == (a_seq, b_seq)
    assert idx.witness.is_valid_for(f)


def test_no_node_colours_what_cannot_beat_best(monkeypatch):
    # a node with depth + |mask| <= best returns before it builds a local
    # graph or colours: every colour would be <= skip = best - depth, so the
    # colouring would only prune every branch. The pins still hold.
    from bohrlab import stability
    skipped = []  # (|mask|, skip) of colourings that can branch nowhere
    colour_classes = stability._colour_classes

    def checked(mask, apart, skip):
        if mask.bit_count() <= skip:
            skipped.append((mask.bit_count(), skip))
        return colour_classes(mask, apart, skip)

    monkeypatch.setattr(stability, "_colour_classes", checked)
    for desc, seed, k_max, status, nodes, a_seq, b_seq in PILOT_PINS:
        f = _pilot_function(desc, seed)
        idx = ladder_index(f, 0.1, cap=8, budget=10_000)
        assert (idx.k_max, idx.status, idx.nodes) == (k_max, status, nodes)
        assert (idx.witness.a_seq, idx.witness.b_seq) == (a_seq, b_seq)
        assert skipped == [], desc


# (LOCAL_GRAPH_BYTES, nodes, a_seq, b_seq), None being the shipped setting.
# At 2,000 bytes a mask is stored once it has m <= 126 pairs, as every mask
# here does; at 0 bytes none is, so every node branches in index order.
@pytest.mark.parametrize("desc,seed,eps,a_dom,b_dom,pins", [
    ("zmod:12", 4, 0.8, [0, 1, 2, 3, 5, 7, 8, 11], [1, 2, 4, 6, 9, 10],
     [(None, 23, (11, 11, 11, 8), (2, 4, 1, 4)),
      (2000, 23, (11, 11, 11, 8), (2, 4, 1, 4)),
      (0, 394, (0, 2, 2, 11), (1, 1, 2, 1))]),
    ("dihedral:6", 9, 1.2, [0, 2, 3, 6, 7, 10], [0, 1, 4, 5, 8, 9, 11],
     [(None, 13, (0, 0, 6, 7), (0, 8, 8, 1)),
      (2000, 13, (0, 0, 6, 7), (0, 8, 8, 1)),
      (0, 174, (0, 0, 6, 7), (0, 8, 8, 1))]),
], ids=[  # fixed labels, as for PILOT_IDS
    "zmod:12-4-0.8-a_dom0-b_dom0-1678-a_seq0-b_seq0",
    "dihedral:6-9-1.2-a_dom1-b_dom1-701-a_seq1-b_seq1",
])
def test_domain_ladder_pinned(monkeypatch, desc, seed, eps, a_dom, b_dom, pins):
    from bohrlab import stability
    g = build_group(desc)
    f = random_uniform_function(g, rng_from_seed(seed))
    a_domain, b_domain = Subset.from_indices(g, a_dom), Subset.from_indices(g, b_dom)
    assert oracle_ladder_index(f, eps, a_domain=a_domain, b_domain=b_domain) == 4
    shipped = stability.LOCAL_GRAPH_BYTES
    for local_bytes, nodes, a_seq, b_seq in pins:
        monkeypatch.setattr(stability, "LOCAL_GRAPH_BYTES",
                            shipped if local_bytes is None else local_bytes)
        idx = ladder_index(f, eps, cap=8, budget=10_000,
                           a_domain=a_domain, b_domain=b_domain)
        assert (idx.k_max, idx.status, idx.nodes) == (4, "exact", nodes)
        assert (idx.witness.a_seq, idx.witness.b_seq) == (a_seq, b_seq)
        assert idx.witness.is_valid_for(f)


@pytest.mark.parametrize("local_bytes", [0, 40, 2000])
def test_unstored_nodes_match_oracle(monkeypatch, local_bytes):
    # as criterion 08, with masks too large to store: at 0 bytes every node
    # branches in index order under depth + |mask| <= best, at 40 bytes
    # (m <= 17) and 2,000 (m <= 126) the top nodes do and their descendants
    # colour stored local graphs
    from bohrlab import stability
    monkeypatch.setattr(stability, "LOCAL_GRAPH_BYTES", local_bytes)
    cap = 5
    for desc in catalog_descriptors(12):
        g = build_group(desc)
        for seed in range(6):
            rng = rng_from_seed(seed)
            f = random_uniform_function(g, rng)
            for a_dom in (None, random_subset(g, 0.6, rng)):
                for eps in (0.25, 0.5, 1.0):
                    case = (desc, seed, a_dom is None, eps)
                    idx = ladder_index(f, eps, cap=cap, a_domain=a_dom)
                    assert idx.k_max == oracle_ladder_index(
                        f, eps, cap=cap, a_domain=a_dom), case
                    if idx.status == "exact":
                        assert idx.k_max == oracle_ladder_index(
                            f, eps, a_domain=a_dom), case
                    else:
                        assert (idx.status, idx.k_max) == ("capped", cap), case


def test_ladder_index_retains_no_memory(monkeypatch):
    # seed 1005 at cap 3 stops at its second batched root, with the rest of
    # that root's batch built and never read
    from bohrlab import stability
    built, read = [0], [0]
    root_graphs, root_pairs = stability._root_graphs, stability._root_pairs

    def counted_graphs(F, eps, pairs, m):
        built[0] += len(m)
        return root_graphs(F, eps, pairs, m)

    def counted_roots(F, table, inverse, eps):
        for b, rest, apart in root_pairs(F, table, inverse, eps):
            read[0] += apart is not None
            yield b, rest, apart

    for seed, cap in ((1001, 8), (1005, 3)):
        f = _pilot_function("zmod:60", seed)
        built[0] = read[0] = 0
        monkeypatch.setattr(stability, "_root_graphs", counted_graphs)
        monkeypatch.setattr(stability, "_root_pairs", counted_roots)
        idx = ladder_index(f, 0.1, cap=cap, budget=2000)  # warms imports and caches
        monkeypatch.undo()
        if cap == 3:
            assert idx.status == "capped" and built[0] > read[0] > 0
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ladder_index(f, 0.1, cap=cap, budget=2000)
            retained = tracemalloc.get_traced_memory()[0] - before
            cyclic = gc.collect()
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        # the search's masks and compatibility rows must be freed by reference
        # counting alone, not left in a cycle for the next gen-2 collection
        assert retained < 16_384, seed
        assert cyclic == 0, seed


def _pilot_function(desc, seed):
    g = build_group(desc)
    rng = rng_from_seed(seed)
    return convolve(GroupFunction.indicator(random_subset(g, 0.3, rng)),
                    GroupFunction.indicator(random_subset(g, 0.3, rng)))


def test_large_masks_read_rows_without_storing(monkeypatch):
    from bohrlab import stability
    f = _pilot_function("zmod:60", 1001)
    built = [0]  # single rows of 2m entries of F each
    apart_row = stability._apart_row

    def counted(F, eps, a, b, v):
        built[0] += 1
        return apart_row(F, eps, a, b, v)

    def run(local_bytes, budget):
        monkeypatch.setattr(stability, "LOCAL_GRAPH_BYTES", local_bytes)
        built[0] = 0
        idx = ladder_index(f, 0.07, cap=8, budget=budget)
        assert idx.witness.is_valid_for(f)
        return idx, built[0]

    ladder_index(f, 0.07, cap=8, budget=2000)  # warm imports and caches
    monkeypatch.setattr(stability, "_apart_row", counted)
    # as shipped every node below the roots stores its local graph, so only
    # the 4-step dive builds single rows
    local, local_rows = run(stability.LOCAL_GRAPH_BYTES, 2000)
    assert (local.k_max, local.status, local.nodes, local.witness.a_seq,
            local.witness.b_seq, local_rows) == (
        6, "exact", 566, (0, 57, 45, 22, 15, 0), (7, 10, 32, 55, 10, 25), 4)
    # at 2,000 bytes the 20 roots of more than 126 pairs (of 2 to 216) branch
    # in index order; at 0 bytes every node does. Each branch builds one row
    # and charges its child a node, so the budget bounds the rows built.
    switched, switched_rows = run(2000, 10**7)
    tracemalloc.start()
    try:
        unstored, unstored_rows = run(0, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (switched.k_max, switched.status, switched.nodes) == (6, "exact", 3_688)
    assert (unstored.k_max, unstored.status, unstored.nodes) == (6, "exact", 21_418)
    assert switched_rows <= switched.nodes + 1
    assert unstored_rows <= unstored.nodes + 1
    # none of the rows is kept
    assert peak < 1 << 20


@pytest.mark.parametrize("block_entries", [None, 200])
@pytest.mark.parametrize("n", [12, 60])
def test_local_graph_matches_explicit_adjacency(monkeypatch, n, block_entries):
    from bohrlab import groups, stability
    if block_entries is not None:  # several row blocks per graph
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block_entries)
    blocks = []  # the number of row blocks of each blocked graph
    row_blocks = stability.row_blocks

    def counted(rows, width):
        got = list(row_blocks(rows, width))
        blocks.append(len(got))
        return iter(got)

    monkeypatch.setattr(stability, "row_blocks", counted)
    g = build_group(f"zmod:{n}")
    rng = rng_from_seed(n)
    F = stability._pair_table(random_uniform_function(g, rng))
    # at the shipped 32,768 entries, 181 pairs (32,761 entries) are the
    # largest one-block graph and 182 the smallest of two blocks
    for size in (0, 1, 63, 64, 65, 150) + ((181, 182) if n == 60 else ()):
        pairs = np.sort(rng.choice(n * n, min(size, n * n), replace=False))
        blocks.clear()
        mask, listed, apart = stability._local_graph(F, 0.5, pairs)
        if block_entries is None:  # one block, E - E.T, up to 181 pairs
            assert blocks == ([2] if size == 182 else [])
        else:  # both gathers run from 63 pairs up, a few rows a block
            assert len(blocks) == (size > 1) and all(k > 1 for k in blocks)
        # as in oracle_ladder_index: adj[i, j] = |F[a_i, b_j] - F[a_j, b_i]| >= eps
        e1 = F[(pairs // n)[:, None], (pairs % n)[None, :]]
        adj = np.abs(e1 - e1.T) >= 0.5
        # the rows are non-neighbour rows: the complement, diagonal clear
        non = ~adj
        np.fill_diagonal(non, False)
        assert mask == (1 << len(pairs)) - 1
        assert listed == pairs.tolist()
        assert apart == [sum(1 << int(j) for j in np.flatnonzero(r)) for r in non]
        # the one-row helper of unstored nodes builds the same rows
        a, b = np.divmod(pairs, n)
        assert [stability._apart_row(F, 0.5, a, b, v) for v in range(len(pairs))] == apart


def _greedy_colouring(adj, members, skip):
    """Reference: colour c takes each still uncoloured member, in index
    order, that has no neighbour among the members already given colour c."""
    out, left, colour = [], list(members), 0
    while left:
        colour += 1
        cls, rest = [], []
        for v in left:
            (rest if adj[v, cls].any() else cls).append(v)
        out += [(v, colour) for v in cls if colour > skip]
        left = rest
    return out


def test_colour_classes_match_greedy_colouring_of_adjacency():
    from bohrlab import stability
    rng = rng_from_seed(11)
    for size in (0, 1, 2, 5, 17, 64, 65, 150):
        for density in (0.1, 0.5, 0.9):
            upper = np.triu(rng.random((size, size)) < density, 1)
            adj = upper | upper.T
            non = ~adj
            np.fill_diagonal(non, False)
            apart = [sum(1 << int(j) for j in np.flatnonzero(r)) for r in non]
            members = np.flatnonzero(rng.random(size) < 0.7)
            mask = sum(1 << int(v) for v in members)
            for skip in range(4):
                assert (stability._colour_classes(mask, apart, skip)
                        == _greedy_colouring(adj, members, skip))


def _colour_classes_per_vertex(mask, apart, skip):
    """Reference: the colouring loop that tests every vertex against skip."""
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


def test_colour_classes_match_the_per_vertex_loop():
    # the classes of colour <= skip are coloured without a record; the list
    # and its order must stay those of the loop that tests each vertex
    from bohrlab import stability
    rng = rng_from_seed(79)
    for size in (1, 2, 3, 17, 40, 64, 65, 129, 300):
        for density in (0.05, 0.5, 0.95):
            upper = np.triu(rng.random((size, size)) < density, 1)
            non = ~(upper | upper.T)
            np.fill_diagonal(non, False)
            apart = stability._int_rows(non)
            mask = stability._int_rows(rng.random((1, size)) < 0.8)[0]
            full = _colour_classes_per_vertex(mask, apart, -1)
            colours = max((c for _, c in full), default=0)
            for skip in range(-1, colours + 2):
                assert (stability._colour_classes(mask, apart, skip)
                        == _colour_classes_per_vertex(mask, apart, skip)), (size, density, skip)


def test_int_rows_and_set_bits_round_trip():
    from bohrlab import stability
    rng = rng_from_seed(7)
    for width in range(0, 73):  # rows of 0 to 9 bytes
        hit = rng.random((5, width)) < 0.4
        ints = stability._int_rows(hit)
        assert ints == [sum(1 << int(j) for j in np.flatnonzero(r)) for r in hit]
        for value, r in zip(ints, hit):
            assert stability._set_bits(value, width).tolist() == np.flatnonzero(r).tolist()
    assert stability._int_rows(np.zeros((0, 3), dtype=bool)) == []


# (group, seed, nodes, a_seq, b_seq, peak MB) of ladder_index on
# conv:random:0.3|random:0.3 at eps 0.04, cap 8, budget 10 000, all capped
# at 8. Peak MB bounds the search's tracemalloc peak: about 0.45 MB above
# the peak with every n^2-bit row built where it is read, so storing the
# roots' rows (1 MB at order 200, 2 MB at 256) breaks it, as does the
# memo of n^2-bit rows these were first recorded with (1.1-2.2 MB more).
ORDER_256_PINS = [
    ("zmod:256", 1002, 723, (0, 235, 235, 235, 203, 203, 194, 162),
     (0, 215, 46, 30, 149, 235, 0, 215), 4.3),
    ("dihedral:100", 1001, 23, (0, 196, 193, 193, 192, 123, 92, 92),
     (0, 101, 145, 24, 73, 37, 107, 37), 4.0),
    ("zmod:200", 1002, 178, (0, 199, 176, 176, 137, 137, 114, 85),
     (0, 194, 109, 194, 191, 171, 62, 171), 3.7),
    ("zmod:200", 1003, 800, (0, 179, 136, 136, 93, 49, 44, 0),
     (0, 111, 111, 158, 181, 0, 68, 68), 2.8),
    ("zmod:200", 1004, 3693, (0, 155, 155, 168, 149, 69, 12, 12),
     (0, 70, 169, 156, 0, 13, 70, 13), 3.1),
    ("dihedral:100", 1002, 2992, (0, 171, 171, 89, 89, 83, 83, 50),
     (0, 120, 134, 120, 84, 109, 84, 54), 3.2),
]


@pytest.mark.parametrize("desc,seed,nodes,a_seq,b_seq,peak_mb", ORDER_256_PINS,
                         ids=["zmod:256-1002", "dihedral:100-1001", "zmod:200-1002",
                              "zmod:200-1003", "zmod:200-1004", "dihedral:100-1002"])
def test_order_256_ladder_pinned(monkeypatch, desc, seed, nodes, a_seq, b_seq,
                                 peak_mb):
    from bohrlab import stability
    f = _pilot_function(desc, seed)
    ladder_index(f, 0.04, cap=2, budget=10)  # warm imports and caches
    sizes = []
    local_graph = stability._local_graph

    def recorded(F, eps, pairs):
        sizes.append(len(pairs))
        return local_graph(F, eps, pairs)

    monkeypatch.setattr(stability, "_local_graph", recorded)
    tracemalloc.start()
    try:
        idx = ladder_index(f, 0.04, cap=8, budget=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (idx.k_max, idx.status, idx.nodes) == (8, "capped", nodes)
    assert (idx.witness.a_seq, idx.witness.b_seq) == (a_seq, b_seq)
    assert idx.witness.is_valid_for(f)
    assert peak < peak_mb * 2**20
    # every local graph's m^2 bits fit within LOCAL_GRAPH_BYTES
    assert sizes and max(sizes) ** 2 <= 8 * stability.LOCAL_GRAPH_BYTES


def test_order_256_ladder_exhausted_within_budget():
    # every root searches only the pairs of key >= its own, which leaves
    # this proof small enough to end exact inside the 10,000-node budget
    f = _pilot_function("zmod:256", 1005)
    idx = ladder_index(f, 0.04, cap=8, budget=10_000)
    assert (idx.k_max, idx.status, idx.nodes) == (5, "exact", 2715)
    assert idx.witness.a_seq == (0, 240, 251, 84, 83)
    assert idx.witness.b_seq == (0, 147, 163, 147, 163)
    assert idx.witness.is_valid_for(f)


def _direct_root_pairs(F, table, eps):
    """Reference: each root (0, b) scans its n^2 gaps |F[0, b'] - F[a', b]|
    and keeps the compatible pairs a' n + b' whose key is >= b."""
    rank = np.argsort(table[0])
    for b in range(F.shape[0]):
        rest = np.flatnonzero(np.abs(F[0] - F[:, b, None]) >= eps)
        yield b, rest[rank[table.ravel().take(rest)] >= b]


def _small_root_pair_cases():
    """The catalog groups up to order 60 and the relabelled groups, with
    quarter-valued functions whose gaps fall exactly on eps."""
    for desc in catalog_descriptors(60):
        g = build_group(desc)
        rng = rng_from_seed(g.order)
        yield random_uniform_function(g, rng), 0.25
        # quarter values put gaps exactly on eps, where >= decides
        yield GroupFunction(g, rng.integers(0, 4, size=g.order) / 4), 0.5
    for desc in ["zmod:12", "dihedral:6", "alt:4", "zmod:8"]:
        g = build_group(desc)
        rng = rng_from_seed(5)
        perm = rng.permutation(g.order)
        if perm[g.identity] == 0:  # keep the identity off element 0
            perm = np.roll(perm, 1)
        h = _relabelled(g, perm)
        assert h.identity != 0
        values = rng.integers(0, 4, size=h.order) / 4
        yield GroupFunction(h, values), 0.5
        yield GroupFunction(h, values), 0.75


def _root_pair_cases():
    yield from _small_root_pair_cases()
    for desc, seed, *_ in ORDER_256_PINS:
        yield _pilot_function(desc, seed), 0.04
    # the roots of an interval indicator on zmod:256 share a base set of
    # 32,766 pairs, one root a block
    yield GroupFunction.indicator(interval_subset(build_group("zmod:256"), 64)), 0.5


@pytest.mark.parametrize("block_entries", [None, 500])
def test_root_pairs_match_direct_gaps(monkeypatch, block_entries):
    from bohrlab import groups, stability
    if block_entries is not None:  # many blocks of roots per search
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block_entries)
    for f, eps in _root_pair_cases():
        F, table = stability._pair_table(f), f.group.table
        lifted = list(stability._root_pairs(F, table, f.group.inverse, eps))
        direct = list(_direct_root_pairs(F, table, eps))
        assert [b for b, *_ in lifted] == list(range(f.group.order))
        for (b, rest, _), (_, want) in zip(lifted, direct):
            assert np.array_equal(rest, want), (f.group.descriptor, eps, b)


@pytest.mark.parametrize("block_entries,local_bytes", [(None, None), (500, None), (None, 0)])
def test_batched_root_graphs_match_local_graphs(monkeypatch, block_entries, local_bytes):
    # a root of 1 to SMALL_ROOT_PAIRS kept pairs takes its rows from a batch
    # of roots built in one pass: the pair list and rows _local_graph builds
    # on the same pairs, bit for bit, and the mask of all m pairs. At 500
    # entries a batch holds at most 125 padded entries; at 0 bytes no local
    # graph is stored, so no root is batched.
    from bohrlab import groups, stability
    if block_entries is not None:
        monkeypatch.setattr(groups, "BLOCK_ENTRIES", block_entries)
    if local_bytes is not None:
        monkeypatch.setattr(stability, "LOCAL_GRAPH_BYTES", local_bytes)
    batches = []  # (roots, most pairs) a batch
    root_graphs = stability._root_graphs

    def counted(F, eps, pairs, m):
        batches.append((len(m), int(m.max())))
        return root_graphs(F, eps, pairs, m)

    monkeypatch.setattr(stability, "_root_graphs", counted)
    bound = stability.SMALL_ROOT_PAIRS
    sizes = set()  # kept pairs of the roots seen
    stored = 0  # roots that took their rows from a batch
    for f, eps in _small_root_pair_cases():
        F, table = stability._pair_table(f), f.group.table
        for b, rest, apart in stability._root_pairs(F, table, f.group.inverse, eps):
            case = (f.group.descriptor, eps, b)
            m = len(rest)
            sizes.add(m)
            if m == 0 or m > bound or local_bytes == 0:
                assert apart is None, case
                continue
            mask, listed, want = stability._local_graph(F, eps, np.array(rest))
            assert mask == (1 << m) - 1, case
            assert (rest, apart) == (listed, want), case
            stored += 1
    assert {0, 1, bound, bound + 1} <= sizes
    if local_bytes == 0:
        assert batches == []
    else:  # each batched root built once, some batches of several roots,
        # and one of several pads to at most BLOCK_ENTRIES // 4 entries
        assert sum(r for r, _ in batches) == stored
        assert max(r for r, _ in batches) > 1
        entries = groups.BLOCK_ENTRIES // 4
        assert all(r * w * w <= entries for r, w in batches if r > 1)


def test_a_stopped_search_lifts_no_further_roots(monkeypatch):
    # the root (0, 0) of an interval indicator on zmod:256 spends the whole
    # budget of 10 below itself; its base set takes one root a block, so
    # lifting the next root would cost a block the search never reads
    from bohrlab import stability
    yielded = []
    root_pairs = stability._root_pairs

    def counted(F, table, inverse, eps):
        for b, *graph in root_pairs(F, table, inverse, eps):
            yielded.append(b)
            yield b, *graph

    monkeypatch.setattr(stability, "_root_pairs", counted)
    f = GroupFunction.indicator(interval_subset(build_group("zmod:256"), 64))
    idx = ladder_index(f, 0.5, cap=8, budget=10)
    assert (idx.k_max, idx.status, idx.nodes) == (5, "inconclusive", 10)
    assert yielded == [0]


def test_budget_bounds_the_rows_of_oversized_roots(monkeypatch):
    # the root (0, 0) of an interval indicator on zmod:256 has about 32,000
    # compatible pairs, too many for a local graph's m^2 bits, and colouring
    # it would read the row of every one. Branching in index order builds
    # one row a branch and charges its child a node, as each root's own
    # n^2-entry row is charged, so the rows follow the budget.
    from bohrlab import stability
    built = [0]
    apart_row = stability._apart_row

    def counted(F, eps, a, b, v):
        built[0] += 1
        return apart_row(F, eps, a, b, v)

    monkeypatch.setattr(stability, "_apart_row", counted)
    g = build_group("zmod:256")
    f = GroupFunction.indicator(interval_subset(g, 64))
    for budget, pin in ((10, (5, "inconclusive", 10)), (50, (8, "capped", 13))):
        built[0] = 0
        start = time.perf_counter()
        idx = ladder_index(f, 0.5, cap=8, budget=budget)
        assert time.perf_counter() - start <= 5.0
        assert (idx.k_max, idx.status, idx.nodes) == pin
        assert idx.witness.is_valid_for(f)
        assert built[0] <= idx.nodes + 1
    g = build_group("zmod:1024")
    f = GroupFunction.indicator(interval_subset(g, 256))
    start = time.perf_counter()
    idx = ladder_index(f, 0.5, cap=8, budget=10)
    assert time.perf_counter() - start <= 5.0
    assert (idx.status, idx.nodes) == ("inconclusive", 10)
