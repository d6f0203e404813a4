"""Seeded experiment lists for the three benchmark workloads.

Every experiment is a flat config for ``bohrlab.cli.run_experiment``, the
entry point behind every CLI verb. Its config seed and any random parameter
come from ``random.Random(seed * 1_000_003 + index)``, so one benchmark seed
gives the same list in every process.

The length of a list is fixed by the run's ``seconds`` through the nominal
cost of each template (seconds per experiment on a shared 2-core x86 VM, one
BLAS thread). The work done, and so every work counter and the payload
digest, is then a function of (workload, seed, seconds) alone; only the
timings depend on the machine.
"""

from __future__ import annotations

import math
import random

NONABELIAN_GROUPS = ("dihedral:12", "dihedral:30", "sym:4", "alt:5")
GROUP_ORDERS = {"dihedral:12": 24, "dihedral:30": 60, "sym:4": 24, "alt:5": 60}
# First two-dimensional irrep index and the number of irreps, by group; the
# irreps are sorted by dimension, so every index from the first 2-dim one up
# picks a 2-dim irrep of a dihedral group.
IRREP_LAYOUT = {"dihedral:12": (4, 9), "dihedral:30": (4, 18),
                "sym:4": (2, 5), "alt:5": (1, 5)}


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


# ---------------------------------------------------------------------------
# abelian-search: Bohr-candidate searches shaped like the committed fixtures


def _regularity_overlap(rng, i):
    # Overlap functions of a perturbed interval or a random half-density set
    # on Z/101 accept after about 300 to 600 candidates.
    if i % 2 == 0:
        fn = f"overlap:interval:{rng.randint(10, 30)}"
    else:
        fn = "overlap:random:0.5"
    return {"kind": "regularity", "group": "zmod:101", "function": fn,
            "epsilon": "0.1", "zeta": "const:0.001", "seed": _seed(rng)}


def _regularity_none(group, max_candidates):
    def make(rng, i):
        return {"kind": "regularity", "group": group, "function": "random-pm1",
                "epsilon": "0.1", "zeta": "const:0.000001", "max_summands": "1",
                "max_candidates": str(max_candidates), "seed": _seed(rng),
                "expect": "none"}
    return make


def _bogolyubov_z200(rng, i):
    return {"kind": "bogolyubov", "group": "zmod:200",
            "set_a": f"evens-minus:{rng.randint(5, 15)}", "alpha": "0.3",
            "seed": _seed(rng)}


def _bogolyubov_z101(rng, i):
    return {"kind": "bogolyubov", "group": "zmod:101",
            "set_a": f"interval:18-minus:{rng.randint(1, 5)}", "alpha": "0.3",
            "seed": _seed(rng)}


def _croot_sisask_z101(rng, i):
    return {"kind": "croot-sisask", "group": "zmod:101", "set_a": "random:0.5",
            "p": "2", "epsilon": "0.1", "min_size": "3", "seed": _seed(rng)}


def _two_set_z12(rng, i):
    return {"kind": "two-set", "group": "zmod:12", "set_a": "evens-minus:1",
            "set_b": "evens", "alpha": "0.4", "zeta": "const:0.05",
            "seed": _seed(rng)}


def _two_set_z60(rng, i):
    return {"kind": "two-set", "group": "zmod:60", "set_a": "random_size:36",
            "set_b": "random_size:36", "alpha": "0.5", "zeta": "const:0.05",
            "seed": _seed(rng)}


# With ~25 experiments in a run, the median and the tail percentile (10
# samples beyond it) are the 12th and the 11th largest samples. The
# expect-none search on Z/101 (a fixed 150 candidates) runs five times per
# cycle, so both land inside its cluster of times, not on the edge between
# two kinds, where they would jump with the seed.
_NONE_Z101 = (_regularity_none("zmod:101", 150), 1.0)
ABELIAN = [
    (_regularity_overlap, 3.3),
    _NONE_Z101,
    (_bogolyubov_z101, 0.7),
    _NONE_Z101,
    (_two_set_z12, 0.005),
    (_regularity_none("zmod:200", 60), 2.3),
    _NONE_Z101,
    (_croot_sisask_z101, 0.75),
    _NONE_Z101,
    (_bogolyubov_z200, 2.9),
    (_two_set_z60, 0.07),
    _NONE_Z101,
]


# ---------------------------------------------------------------------------
# ladder-pilot: the shape of the pinned convolution ladder pilot


def _ladder(group):
    def make(rng, i):
        return {"kind": "ladder", "group": group,
                "function": "conv:random:0.3|random:0.3", "epsilon": "0.1",
                "cap": "8", "budget": "10000", "seed": _seed(rng)}
    return make


# The order-60 groups come up three times as often as the order-20 ones, so
# that the median experiment sits inside the order-60 cluster instead of on
# the edge between the two clusters, where it would jump with the seed.
LADDER = [(_ladder("zmod:20"), 0.19), (_ladder("dihedral:30"), 0.4),
          (_ladder("zmod:60"), 0.35), (_ladder("alt:5"), 0.4),
          (_ladder("dihedral:10"), 0.19), (_ladder("dihedral:30"), 0.4),
          (_ladder("zmod:60"), 0.35), (_ladder("alt:5"), 0.4)]


# ---------------------------------------------------------------------------
# nonabelian-mix: every search kind plus the remaining CLI kinds


def _size(group, density):
    return math.ceil(density * GROUP_ORDERS[group])


def _nonabelian_templates(group, cost):
    first_2d, count = IRREP_LAYOUT[group]
    dihedral = group.startswith("dihedral")

    def irreps(rng, i):
        return {"kind": "irreps", "group": group, "seed": _seed(rng)}

    def bohr(rng, i):
        lo = first_2d if dihedral else 0
        return {"kind": "bohr", "group": group,
                "summands": str(rng.randrange(lo, count)),
                "delta": rng.choice(("0.5", "1.0", "1.5")),
                "nm": "true" if dihedral else "false", "seed": _seed(rng)}

    def regularity(rng, i):
        return {"kind": "regularity", "group": group,
                "function": "overlap:random:0.5", "epsilon": "0.1",
                "zeta": "const:0.001", "seed": _seed(rng)}

    def bogolyubov(rng, i):
        return {"kind": "bogolyubov", "group": group,
                "set_a": f"random_size:{_size(group, 0.5)}", "alpha": "0.3",
                "seed": _seed(rng)}

    def croot_sisask(rng, i):
        return {"kind": "croot-sisask", "group": group,
                "set_a": f"random_size:{_size(group, 0.5)}", "p": "2",
                "epsilon": "0.1", "min_size": "3", "seed": _seed(rng)}

    def two_set(rng, i):
        k = _size(group, 0.6)
        return {"kind": "two-set", "group": group, "set_a": f"random_size:{k}",
                "set_b": f"random_size:{k}", "alpha": "0.5",
                "zeta": "const:0.05", "seed": _seed(rng)}

    def quasirandom(rng, i):
        return {"kind": "quasirandom", "group": group, "alpha": "0.35",
                "trials": "10", "seed": _seed(rng)}

    heavy = {"irreps": irreps, "bohr": bohr, "regularity": regularity,
             "bogolyubov": bogolyubov, "croot-sisask": croot_sisask,
             "two-set": two_set, "quasirandom": quasirandom}
    return {kind: (make, cost) for kind, make in heavy.items()}


def _convolve(rng, i):
    # The FFT cross-check runs on zmod:16; the direct path on the others.
    group = ("zmod:16",) + NONABELIAN_GROUPS
    return {"kind": "convolve", "group": group[i % len(group)],
            "function": "random-indicator", "function_b": "random-uniform",
            "seed": _seed(rng)}


def _group_info(rng, i):
    return {"kind": "group-info",
            "group": NONABELIAN_GROUPS[i % len(NONABELIAN_GROUPS)],
            "seed": _seed(rng)}


def _irreps_d50(rng, i):
    return {"kind": "irreps", "group": "dihedral:50", "seed": _seed(rng)}


def _searches(group, cost):
    return list(_nonabelian_templates(group, cost).values())


# Sorted by time, a run's experiments form one cluster per group, in the
# order sym:4, dihedral:12, alt:5, dihedral:30. The alt:5 experiments run
# twice per cycle so that the median lands inside their cluster, and the
# dihedral:30 regularity search (a fixed 110 candidates) runs four times per
# cycle so that the tail percentile (the 11th largest sample) lands inside
# its cluster; on the edge between two clusters either would jump with the
# seed.
NONABELIAN = (_searches("sym:4", 0.025) + _searches("dihedral:12", 0.04)
              + _searches("alt:5", 0.16) + _searches("dihedral:30", 0.32)
              + _searches("alt:5", 0.16)
              + [(_convolve, 0.006), (_group_info, 0.006)]
              + 3 * [_nonabelian_templates("dihedral:30", 0.5)["regularity"]])
# Run once per list, after the first cycle: the order-100 decomposition.
NONABELIAN_ONCE = [(_irreps_d50, 7.5)]


WORKLOADS = {
    "abelian-search": (ABELIAN, []),
    "ladder-pilot": (LADDER, []),
    "nonabelian-mix": (NONABELIAN, NONABELIAN_ONCE),
}

# Predictions made before measuring, printed beside the measured shares of
# a traced run. Per layer: the end-to-end metrics a faster layer should
# move, the workloads it should move them on, and the workloads where it is
# predicted flat.
LAYER_PREDICTIONS = {
    "groups": ("setup_s, exp_p50_s", ("abelian-search",), ("ladder-pilot",)),
    "reps": ("exp_p50_s; exp_tail_s on nonabelian-mix",
             ("abelian-search", "nonabelian-mix"), ("ladder-pilot",)),
    "bohr": ("exp_tail_s, experiments_per_s, peak_rss_mb", ("abelian-search",),
             ("ladder-pilot",)),
    "regularity": ("exp_tail_s", ("abelian-search",), ("ladder-pilot",)),
    "productsets": ("experiments_per_s", ("abelian-search", "nonabelian-mix"),
                    ("ladder-pilot",)),
    "convolve": ("small share only", ("ladder-pilot",), ("abelian-search",)),
    "stability": ("exp_p50_s, exp_tail_s, experiments_per_s", ("ladder-pilot",),
                  ("abelian-search", "nonabelian-mix")),
    "cli": ("small share", (), ()),
    "gen": ("small share", (), ()),
}
# The layers predicted to take most of each workload's time.
PREDICTED_DOMINANT = {
    "abelian-search": ("reps", "bohr", "regularity"),
    "ladder-pilot": ("stability",),
    "nonabelian-mix": ("reps",),
}


def build(workload: str, seed: int, seconds: float) -> list[dict]:
    """The experiment list of one run: templates in cycle order until their
    nominal costs reach ``seconds``, with the run-once templates after the
    first cycle. Always at least one full cycle.

    A template gets its own occurrence count, so it can alternate shapes.
    """
    cycle, once = WORKLOADS[workload]
    configs: list[dict] = []
    budget = 0.0

    def add(make, cost, occurrence):
        nonlocal budget
        rng = random.Random(seed * 1_000_003 + len(configs))
        configs.append(make(rng, occurrence))
        budget += cost

    for make, cost in cycle:
        add(make, cost, 0)
    for make, cost in once:
        add(make, cost, 0)
    i = len(cycle)
    while budget < seconds:
        make, cost = cycle[i % len(cycle)]
        add(make, cost, i // len(cycle))
        i += 1
    return configs
