"""Experiment runner: flat key=value configs in, machine-readable reports out.

One experiment per invocation. All randomness is seeded and the seed is
echoed in the report, so payloads are byte-identical across reruns; wall
clock lives in the envelope, never in the payload.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bohr import (SearchSpace, bohr_set, cover_bound_check, greedy_cover,
                   nm_refine, subgroup_test)
from .convolve import convolve, convolve_fft_cyclic, overlap_function
from .gen import (evens_subset, halfrange_subset, interval_subset,
                  random_indicator_function, random_pm1_function, random_subset,
                  random_subset_of_size, random_uniform_function,
                  remove_random_points, rng_from_seed)
from .groups import (FiniteGroup, GroupFunction, Subset, build_group,
                     parse_function, parse_subset)
from .productsets import (bogolyubov_search, density_size, level_set_claim,
                          quasirandom_trials, separated_cover,
                          shift_invariance_search, two_set_bogolyubov)
from .regularity import ZetaRule, search_regular_bohr
from .reps import (RepDecompositionError, char_orthogonality_defect, direct_sum_hom,
                   irreps_of, min_nontrivial_dim)
from .stability import DEFAULT_BUDGET, ladder_index

OUT_DIR_ENV = "BOHRLAB_OUT_DIR"


@dataclass
class Report:
    config: dict
    status: str
    payload: dict
    wall_clock_s: float = 0.0
    version: str = __version__

    def payload_canonical(self) -> str:
        return json.dumps(self.payload, sort_keys=True, allow_nan=False)

    def to_json(self) -> str:
        doc = {"toolkit_version": self.version, "status": self.status,
               "config": self.config, "wall_clock_s": self.wall_clock_s,
               "payload": self.payload}
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        rows = self.payload.get("table")
        if not rows:
            rows = [{k: v for k, v in sorted(self.payload.items())
                     if isinstance(v, (int, float, str, bool))}]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        if "experiment" not in parser:
            raise ConfigError("config needs an [experiment] section")
        return dict(parser["experiment"])
    except configparser.Error as exc:  # some messages span several lines
        raise ConfigError(" ".join(f"malformed config: {exc}".split())) from None


def _existing(path: str, what: str) -> str:
    """``path``, or a ConfigError naming the missing ``what`` file."""
    if not os.path.exists(path):
        raise ConfigError(f"referenced {what} file does not exist: {path}")
    return path


def _build_group(desc: str) -> FiniteGroup:
    if desc.startswith("file:"):
        _existing(desc[len("file:"):], "table")
    return build_group(desc)


def _parse_set(spec: str, group: FiniteGroup, rng) -> Subset:
    base, cut, minus = spec.partition("-minus:")
    head, _, rest = base.partition(":")
    if head == "random":
        out = random_subset(group, float(rest), rng)
    elif head == "random_size":
        out = random_subset_of_size(group, int(rest), rng)
    elif head == "evens":
        out = evens_subset(group)
    elif head == "halfrange":
        out = halfrange_subset(group)
    elif head == "interval":
        out = interval_subset(group, int(rest))
    elif head == "file":
        out = parse_subset(group, Path(_existing(rest, "set")).read_text(encoding="utf-8"))
    else:
        raise ConfigError(f"unknown set spec {spec!r}")
    if cut:
        try:
            count = int(minus)
        except ValueError:
            raise ConfigError(f"set spec {spec!r} needs an integer count "
                              "after '-minus:'") from None
        out = remove_random_points(out, count, rng)
    return out


def _parse_function(spec: str, group: FiniteGroup, rng) -> GroupFunction:
    head, _, rest = spec.partition(":")
    if head == "overlap":
        return overlap_function(_parse_set(rest, group, rng))
    if head == "conv":
        left, _, right = rest.partition("|")
        a = GroupFunction.indicator(_parse_set(left, group, rng))
        b = GroupFunction.indicator(_parse_set(right, group, rng))
        return convolve(a, b)
    if head == "indicator":
        return GroupFunction.indicator(_parse_set(rest, group, rng))
    if head == "random-uniform":
        return random_uniform_function(group, rng)
    if head == "random-pm1":
        return random_pm1_function(group, rng)
    if head == "random-indicator":
        return random_indicator_function(group, rng)
    if head == "constant":
        return GroupFunction.constant(group, float(rest))
    if head == "file":
        path = Path(_existing(rest, "function"))
        return parse_function(group, path.read_text(encoding="utf-8"))
    raise ConfigError(f"unknown function spec {spec!r}")


# ---------------------------------------------------------------------------
# Experiment kinds. A runner takes the group, the seeded generator, the seed
# and its kind's keys as typed keyword values, and returns its status and a
# payload built from dict, list, str, int, float, bool and None alone.


def _run_group_info(group, rng, seed):
    return "ok", {"descriptor": group.descriptor, "order": group.order,
                  "abelian": group.is_abelian, "exponent": group.exponent(),
                  "identity": group.identity}


def _run_irreps(group, rng, seed):
    irreps = irreps_of(group)
    dims = [rep.dim for rep in irreps]
    payload = {
        "dims": dims,
        "sum_dim_sq": sum(d * d for d in dims),
        "max_hom_residual": max(rep.hom_residual for rep in irreps),
        "max_unitarity_residual": max(rep.unitarity_residual for rep in irreps),
        "char_orthogonality_defect": char_orthogonality_defect(irreps),
        # an irrep occurs in the regular representation dim times
        "table": [{"index": i, "dim": d, "multiplicity": d}
                  for i, d in enumerate(dims)],
    }
    if group.order > 1:
        payload["min_nontrivial_dim"] = min_nontrivial_dim(group)
    return "ok", payload


def _run_bohr(group, rng, seed, summands, delta, nm):
    irreps = irreps_of(group)
    if not all(0 <= i < len(irreps) for i in summands):
        raise ConfigError(f"summands {summands} must lie in [0, {len(irreps)})")
    tau = direct_sum_hom([irreps[i] for i in summands])
    spec = bohr_set(group, tau, delta)
    count, translates = greedy_cover(group, spec.realized)
    is_sub, is_norm = subgroup_test(spec.realized)
    payload = {"spec": spec.to_json_dict(), "size": len(spec.realized),
               "cover_count": count, "cover_translates": translates,
               "is_subgroup": is_sub, "is_normal_set": is_norm}
    if nm:
        nm_spec, m = nm_refine(group, tau, delta)
        bound, actual, ok = cover_bound_check(nm_spec)
        payload["nm"] = {"m": m, "size": len(nm_spec.realized),
                         "cover_bound": bound, "cover_actual": actual,
                         "bound_ok": ok}
    return "ok", payload


def _run_ladder(group, rng, seed, function, epsilon, cap, budget):
    f = _parse_function(function, group, rng)
    res = ladder_index(f, epsilon, cap=cap, budget=budget)
    payload = {"k_max": res.k_max, "search_status": res.status,
               "nodes": res.nodes,
               "witness": res.witness.to_json_dict() if res.witness else None}
    status = "inconclusive" if res.status == "inconclusive" else "ok"
    return status, payload


def _run_convolve(group, rng, seed, function, function_b):
    f = _parse_function(function, group, rng)
    g = _parse_function(function_b, group, rng)
    h = convolve(f, g)
    payload = {"values": [float(v) for v in h.values],
               "mean_f": f.mean, "mean_g": g.mean, "mean_conv": h.mean,
               "fubini_residual": abs(h.mean - f.mean * g.mean)}
    if group.descriptor.startswith("zmod:"):
        h2 = convolve_fft_cyclic(f, g)
        payload["fft_residual"] = float(np.max(np.abs(h.values - h2.values)))
    return "ok", payload


def _run_regularity(group, rng, seed, function, epsilon, zeta, **space):
    f = _parse_function(function, group, rng)
    res = search_regular_bohr(f, epsilon, ZetaRule.parse(zeta),
                              SearchSpace(**space))
    payload = {"search_status": res.status,
               "candidates_scored": res.candidates_scored}
    if res.found is not None:
        cert = res.found.to_json_dict()
        payload["certificate"] = cert
        payload["table"] = [
            {"translate_rep": row["rep_element"], "defect": row["defect"],
             "range": row["range"]}
            for row in cert["per_translate"]]
    return res.status, payload


def _run_bogolyubov(group, rng, seed, set_a, alpha, **space):
    a = _parse_set(set_a, group, rng)
    res = bogolyubov_search(a, alpha, SearchSpace(**space))
    cover = separated_cover(a, alpha)
    payload = {"search_status": res.status,
               "candidates_scored": res.candidates_scored,
               "set_size": len(a),
               "separated": {"count": cover.count, "s_size": len(cover.s_set),
                             "f_elements": list(cover.f_elements),
                             "covers": cover.covers}}
    if res.spec is not None:
        payload["spec"] = res.spec.to_json_dict()
        payload["contained"] = {"(AA^-1)^2": True}
    return res.status, payload


def _run_two_set(group, rng, seed, set_a, set_b, alpha, zeta, **space):
    a = _parse_set(set_a, group, rng)
    b = _parse_set(set_b, group, rng)
    claim1 = level_set_claim(a, b, alpha)
    res = two_set_bogolyubov(a, b, alpha, ZetaRule.parse(zeta),
                             SearchSpace(**space))
    payload = {"search_status": res.status, "claim1": claim1,
               "candidates_scored": res.candidates_scored}
    if res.spec is not None:
        payload["spec"] = res.spec.to_json_dict()
        payload["conditions"] = {"i": True, "ii": True, "iii": True}
        payload["g_best"], payload["defect_count"] = res.found
    return res.status, payload


def _run_quasirandom(group, rng, seed, alpha, trials, size):
    if size is None:
        size = density_size(alpha, group.order)
    rows = [{"trial": t, "seed": trial_seed, "ab_density": chk.ab_density,
             "abc_covers": chk.abc_covers}
            for t, (trial_seed, chk) in enumerate(
                quasirandom_trials(group, alpha, trials, size, seed))]
    payload = {"d": min_nontrivial_dim(group), "alpha": alpha,
               "size": size, "table": rows,
               "min_ab_density": min(r["ab_density"] for r in rows),
               "all_covers": all(r["abc_covers"] for r in rows)}
    return "ok", payload


def _run_croot_sisask(group, rng, seed, set_a, p, epsilon, min_size, **space):
    ind = GroupFunction.indicator(_parse_set(set_a, group, rng))
    f = convolve(ind, ind)
    res = shift_invariance_search(f, p, epsilon, SearchSpace(**space),
                                  min_size=min_size)
    payload = {"search_status": res.status,
               "candidates_scored": res.candidates_scored}
    if res.spec is not None:
        payload["spec"] = res.spec.to_json_dict()
        payload["sup_norm"] = res.found
        payload["size"] = len(res.spec.realized)
        payload["degenerate"] = len(res.spec.realized) == 1
    return res.status, payload


# ---------------------------------------------------------------------------
# Config keys. A default that is a type marks a required key of that type;
# any other default gives the key its type. Set, function, group and zeta
# specs stay strings for their own parsers.

COMMON = {"kind": str, "group": str, "seed": 0, "format": "json", "out": "",
          "expect": ""}
_SPACE = {f.name: f.default for f in fields(SearchSpace)}
KINDS = {
    "group-info": (_run_group_info, {}),
    "irreps": (_run_irreps, {}),
    "bohr": (_run_bohr, {"summands": list, "delta": float, "nm": False}),
    "ladder": (_run_ladder, {"function": str, "epsilon": float, "cap": 6,
                             "budget": DEFAULT_BUDGET}),
    "convolve": (_run_convolve, {"function": str, "function_b": str}),
    "regularity": (_run_regularity, {"function": str, "epsilon": float,
                                     "zeta": "const:0.001", **_SPACE}),
    "bogolyubov": (_run_bogolyubov, {"set_a": str, "alpha": float, **_SPACE}),
    "two-set": (_run_two_set, {"set_a": str, "set_b": str, "alpha": float,
                               "zeta": "const:0.05", **_SPACE}),
    "quasirandom": (_run_quasirandom, {"alpha": float, "trials": 100, "size": None}),
    "croot-sisask": (_run_croot_sisask, {"set_a": str, "p": 2.0, "epsilon": float,
                                         "min_size": 1, **_SPACE}),
}


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


# How a value is read for each key type: a tuple is comma-separated reals, a
# list comma-separated integers, and a key with default None (quasirandom's
# size, ceil(alpha |G|) when absent) an integer.
_READ = {bool: _bool, type(None): int,
         tuple: lambda text: tuple(float(t) for t in text.split(",")),
         list: lambda text: [int(t) for t in text.split(",")]}


def resolve(config: dict) -> dict:
    """Check a flat string config against its kind's keys; return the typed
    value of every common and kind key, with defaults filled in."""
    kind = config.get("kind")
    if kind is None:
        raise ConfigError("missing config key 'kind'")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    keys = {**COMMON, **KINDS[kind][1]}
    for key in config:
        if key not in keys:
            import difflib  # the error path only: keeps start-up cheap
            near = difflib.get_close_matches(key, keys, n=1, cutoff=0)[0]
            raise ConfigError(f"unknown config key {key!r} for kind {kind!r}; "
                              f"nearest known key {near!r}")
    values = {}
    for key, default in keys.items():
        required = isinstance(default, type)
        if key not in config:
            if required:
                raise ConfigError(f"missing config key {key!r}")
            values[key] = default
            continue
        kind_of = default if required else type(default)
        try:
            values[key] = _READ.get(kind_of, kind_of)(config[key])
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
    return values


def run_experiment(config: dict) -> Report:
    """Dispatch a parsed config to the library; statuses pass through."""
    config = {k: str(v) for k, v in config.items()}
    values = resolve(config)
    seed = values["seed"]
    config["seed"] = str(seed)
    group = _build_group(values["group"])
    rng = rng_from_seed(seed)
    runner, keys = KINDS[values["kind"]]
    start = time.perf_counter()
    status, payload = runner(group, rng, seed, **{k: values[k] for k in keys})
    elapsed = time.perf_counter() - start
    return Report(config=dict(sorted(config.items())), status=status,
                  payload=payload, wall_clock_s=elapsed)


def replay_report(report_doc: dict) -> bool:
    """Re-run the echoed config and compare payloads byte-for-byte."""
    fresh = run_experiment(report_doc["config"])
    return (json.dumps(fresh.payload, sort_keys=True)
            == json.dumps(report_doc["payload"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bohrlab", description="Finite-group Bohr/stability experiment runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        article = "an" if kind[0] in "aeiou" else "a"
        k = sub.add_parser(kind, help=f"run {article} {kind} experiment")
        k.add_argument("--config", required=True, help="key=value config file")
        k.add_argument("--out", help="output path (default from config or $%s)"
                                     % OUT_DIR_ENV)
        k.add_argument("--format", choices=("json", "csv"),
                       help="report format (default from config, else json)")
        k.add_argument("--seed", type=int, help="override the config seed")
        k.add_argument("--budget", type=int,
                       help="override the search budget: ladder nodes (each "
                            "builds at most one row and one local graph) or "
                            "candidates scored")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        config["kind"] = args.kind
        if args.seed is not None:
            config["seed"] = str(args.seed)
        if args.budget is not None:
            keys = [k for k in ("budget", "max_candidates") if k in KINDS[args.kind][1]]
            if not keys:
                raise ConfigError(f"--budget does not apply to kind {args.kind!r}")
            config[keys[0]] = str(args.budget)
        fmt = args.format or config.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown report format {fmt!r}")
        out = (args.out or config.get("out")
               or os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{args.kind}.{fmt}"))
        report = run_experiment(config)
        text = report.to_json() if fmt == "json" else report.to_csv()
        Path(out).write_text(text, encoding="utf-8")
    except (ConfigError, ValueError, OSError, RepDecompositionError, MemoryError) as exc:
        # numpy's failed allocations are MemoryErrors; a bare one has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    print(f"{report.status}: wrote {out}")
    return 0 if report.status == "ok" else 2


if __name__ == "__main__":
    raise SystemExit(main())
