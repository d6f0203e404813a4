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
from dataclasses import dataclass
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
from .productsets import (bogolyubov_search, check_alpha, quasirandom_trials,
                          separated_cover, shift_invariance_search,
                          two_set_bogolyubov)
from .regularity import ZetaRule, search_regular_bohr
from .reps import direct_sum_hom, irreps_of, min_nontrivial_dim

KINDS = ("group-info", "irreps", "bohr", "ladder", "convolve", "regularity",
         "bogolyubov", "two-set", "quasirandom", "croot-sisask")

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


def _get(config: dict, key: str, default=None, required: bool = False) -> str:
    val = config.get(key, default)
    if required and val is None:
        raise ConfigError(f"missing config key {key!r}")
    return val


def _build_group(config: dict) -> FiniteGroup:
    desc = _get(config, "group", required=True)
    if desc.startswith("file:"):
        path = desc[len("file:"):]
        if not os.path.exists(path):
            raise ConfigError(f"referenced table file does not exist: {path}")
    return build_group(desc)


def _parse_set(spec: str, group: FiniteGroup, rng) -> Subset:
    base, _, minus = spec.partition("-minus:")
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
        if not os.path.exists(rest):
            raise ConfigError(f"referenced set file does not exist: {rest}")
        out = parse_subset(group, Path(rest).read_text(encoding="utf-8"))
    else:
        raise ConfigError(f"unknown set spec {spec!r}")
    if minus:
        out = remove_random_points(out, int(minus), rng)
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
        if not os.path.exists(rest):
            raise ConfigError(f"referenced function file does not exist: {rest}")
        return parse_function(group, Path(rest).read_text(encoding="utf-8"))
    raise ConfigError(f"unknown function spec {spec!r}")


def _search_space(config: dict, seed: int) -> SearchSpace:
    grid = _get(config, "delta_grid")
    kwargs = {"seed": seed}
    if grid:
        kwargs["delta_grid"] = tuple(float(t) for t in grid.split(","))
    for key, name in (("max_dim", "max_dim"), ("max_summands", "max_summands"),
                      ("max_candidates", "max_candidates")):
        val = _get(config, key)
        if val:
            kwargs[name] = int(val)
    return SearchSpace(**kwargs)


def _py(obj):
    """Convert numpy scalars/arrays into plain python for JSON."""
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_py(x) for x in obj]
    if isinstance(obj, (list, tuple)):
        return [_py(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _py(v) for k, v in obj.items()}
    return obj


# ---------------------------------------------------------------------------
# Experiment kinds


def _run_group_info(config, group, rng, seed):
    payload = {"descriptor": group.descriptor, "order": group.order,
               "abelian": group.is_abelian, "exponent": group.exponent(),
               "identity": group.identity}
    return "ok", payload


def _run_irreps(config, group, rng, seed):
    irreps = irreps_of(group, seed)
    dims = [rep.dim for rep in irreps]
    n = group.order
    chars = [rep.character() for rep in irreps]
    gram = np.array([[np.vdot(p, q) / n for q in chars] for p in chars])
    payload = {
        "dims": dims,
        "sum_dim_sq": sum(d * d for d in dims),
        "max_hom_residual": max(rep.hom_residual for rep in irreps),
        "max_unitarity_residual": max(rep.unitarity_residual for rep in irreps),
        "char_orthogonality_defect": float(np.max(np.abs(gram - np.eye(len(irreps))))),
        # an irrep occurs in the regular representation dim times
        "table": [{"index": i, "dim": d, "multiplicity": d}
                  for i, d in enumerate(dims)],
    }
    if group.order > 1:
        payload["min_nontrivial_dim"] = min_nontrivial_dim(group, seed)
    return "ok", payload


def _run_bohr(config, group, rng, seed):
    irreps = irreps_of(group, seed)
    picks = [int(t) for t in _get(config, "summands", required=True).split(",")]
    if not all(0 <= i < len(irreps) for i in picks):
        raise ConfigError(f"summands {picks} must lie in [0, {len(irreps)})")
    tau = direct_sum_hom([irreps[i] for i in picks])
    delta = float(_get(config, "delta", required=True))
    spec = bohr_set(group, tau, delta)
    count, translates = greedy_cover(group, spec.realized)
    is_sub, is_norm = subgroup_test(spec.realized)
    payload = {"spec": spec.to_json_dict(), "size": len(spec.realized),
               "cover_count": count, "cover_translates": translates,
               "is_subgroup": is_sub, "is_normal_set": is_norm}
    if _get(config, "nm", "false").lower() == "true":
        nm_spec, m = nm_refine(group, tau, delta)
        bound, actual, ok = cover_bound_check(nm_spec)
        payload["nm"] = {"m": m, "size": len(nm_spec.realized),
                         "cover_bound": bound, "cover_actual": actual,
                         "bound_ok": ok}
    return "ok", payload


def _run_ladder(config, group, rng, seed):
    from .stability import ladder_index
    f = _parse_function(_get(config, "function", required=True), group, rng)
    eps = float(_get(config, "epsilon", required=True))
    cap = int(_get(config, "cap", "6"))
    budget = int(_get(config, "budget", "10000000"))
    res = ladder_index(f, eps, cap=cap, budget=budget)
    payload = {"k_max": res.k_max, "search_status": res.status,
               "nodes": res.nodes,
               "witness": res.witness.to_json_dict() if res.witness else None}
    status = "inconclusive" if res.status == "inconclusive" else "ok"
    return status, payload


def _run_convolve(config, group, rng, seed):
    f = _parse_function(_get(config, "function", required=True), group, rng)
    g = _parse_function(_get(config, "function_b", required=True), group, rng)
    h = convolve(f, g)
    payload = {"values": [float(v) for v in h.values],
               "mean_f": f.mean, "mean_g": g.mean, "mean_conv": h.mean,
               "fubini_residual": abs(h.mean - f.mean * g.mean)}
    if group.descriptor.startswith("zmod:"):
        h2 = convolve_fft_cyclic(f, g)
        payload["fft_residual"] = float(np.max(np.abs(h.values - h2.values)))
    return "ok", payload


def _run_regularity(config, group, rng, seed):
    f = _parse_function(_get(config, "function", required=True), group, rng)
    eps = float(_get(config, "epsilon", required=True))
    zeta = ZetaRule.parse(_get(config, "zeta", "const:0.001"))
    res = search_regular_bohr(f, eps, zeta, _search_space(config, seed))
    payload = {"search_status": res.status,
               "candidates_scored": res.candidates_scored}
    if res.certificate is not None:
        cert = res.certificate.to_json_dict()
        payload["certificate"] = cert
        payload["table"] = [
            {"translate_rep": row["rep_element"], "defect": row["defect"],
             "range": row["range"]}
            for row in cert["per_translate"]]
    return res.status, payload


def _run_bogolyubov(config, group, rng, seed):
    a = _parse_set(_get(config, "set_a", required=True), group, rng)
    alpha = float(_get(config, "alpha", required=True))
    res = bogolyubov_search(a, alpha, _search_space(config, seed))
    cover = separated_cover(a, alpha)
    payload = {"search_status": res.status,
               "candidates_scored": res.candidates_scored,
               "set_size": len(a),
               "separated": {"count": cover.count, "s_size": len(cover.s_set),
                             "f_elements": list(cover.f_elements),
                             "covers": cover.covers}}
    if res.spec is not None:
        payload["spec"] = res.spec.to_json_dict()
        payload["contained"] = res.contained
    return res.status, payload


def _run_two_set(config, group, rng, seed):
    a = _parse_set(_get(config, "set_a", required=True), group, rng)
    b = _parse_set(_get(config, "set_b", required=True), group, rng)
    alpha = float(_get(config, "alpha", required=True))
    zeta = ZetaRule.parse(_get(config, "zeta", "const:0.05"))
    res = two_set_bogolyubov(a, b, alpha, zeta, _search_space(config, seed))
    payload = {"search_status": res.status, "claim1": res.claim1,
               "candidates_scored": res.candidates_scored}
    if res.spec is not None:
        payload["spec"] = res.spec.to_json_dict()
        payload["conditions"] = res.contained
        payload["g_best"] = res.g_best
        payload["defect_count"] = res.defect_count
    return res.status, payload


def _run_quasirandom(config, group, rng, seed):
    alpha = float(_get(config, "alpha", required=True))
    trials = int(_get(config, "trials", "100"))
    size = _get(config, "size")
    if size is None:
        check_alpha(alpha)  # before alpha * |G| can overflow
        size = np.ceil(alpha * group.order)
    size = int(size)
    rows = [{"trial": t, "seed": trial_seed, "ab_density": chk.ab_density,
             "abc_covers": chk.abc_covers}
            for t, (trial_seed, chk) in enumerate(
                quasirandom_trials(group, alpha, trials, size, seed))]
    payload = {"d": min_nontrivial_dim(group, seed), "alpha": alpha,
               "size": size, "table": rows,
               "min_ab_density": min(r["ab_density"] for r in rows),
               "all_covers": all(r["abc_covers"] for r in rows)}
    return "ok", payload


def _run_croot_sisask(config, group, rng, seed):
    a = _parse_set(_get(config, "set_a", required=True), group, rng)
    ind = GroupFunction.indicator(a)
    f = convolve(ind, ind)
    p = float(_get(config, "p", "2"))
    eps = float(_get(config, "epsilon", required=True))
    min_size = int(_get(config, "min_size", "1"))
    res = shift_invariance_search(f, p, eps, _search_space(config, seed),
                                  min_size=min_size)
    payload = {"search_status": res.status,
               "candidates_scored": res.candidates_scored}
    if res.spec is not None:
        payload["spec"] = res.spec.to_json_dict()
        payload["sup_norm"] = res.sup_norm
        payload["size"] = len(res.spec.realized)
        payload["degenerate"] = res.degenerate
    return res.status, payload


_RUNNERS = {
    "group-info": _run_group_info,
    "irreps": _run_irreps,
    "bohr": _run_bohr,
    "ladder": _run_ladder,
    "convolve": _run_convolve,
    "regularity": _run_regularity,
    "bogolyubov": _run_bogolyubov,
    "two-set": _run_two_set,
    "quasirandom": _run_quasirandom,
    "croot-sisask": _run_croot_sisask,
}


def run_experiment(config: dict) -> Report:
    """Dispatch a parsed config to the library; statuses pass through."""
    config = {k: str(v) for k, v in config.items()}
    kind = _get(config, "kind", required=True)
    if kind not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    seed = int(_get(config, "seed", "0"))
    config["seed"] = str(seed)
    group = _build_group(config)
    rng = rng_from_seed(seed)
    start = time.perf_counter()
    status, payload = _RUNNERS[kind](config, group, rng, seed)
    elapsed = time.perf_counter() - start
    return Report(config=dict(sorted(config.items())), status=status,
                  payload=_py(payload), wall_clock_s=elapsed)


def replay_report(report_doc: dict) -> bool:
    """Re-run the echoed config and compare payloads byte-for-byte."""
    fresh = run_experiment(report_doc["config"])
    return (json.dumps(fresh.payload, sort_keys=True)
            == json.dumps(report_doc["payload"], sort_keys=True))


def emit_report(report: Report, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _default_out(kind: str, fmt: str) -> str:
    out_dir = os.environ.get(OUT_DIR_ENV, ".")
    return os.path.join(out_dir, f"{kind}.{fmt}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bohrlab", description="Finite-group Bohr/stability experiment runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        k = sub.add_parser(kind, help=f"run a {kind} experiment")
        k.add_argument("--config", required=True, help="key=value config file")
        k.add_argument("--out", help="output path (default from config or $%s)"
                                     % OUT_DIR_ENV)
        k.add_argument("--format", choices=("json", "csv"),
                       help="report format (default from config, else json)")
        k.add_argument("--seed", type=int, help="override the config seed")
        k.add_argument("--budget", type=int,
                       help="override the search budget (nodes or candidates)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        config["kind"] = args.kind
        if args.seed is not None:
            config["seed"] = str(args.seed)
        if args.budget is not None:
            if args.kind == "ladder":
                config["budget"] = str(args.budget)
            else:
                config["max_candidates"] = str(args.budget)
        fmt = args.format or config.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown report format {fmt!r}")
        out = args.out or config.get("out") or _default_out(args.kind, fmt)
        report = run_experiment(config)
        emit_report(report, out, fmt)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{report.status}: wrote {out}")
    if report.status == "ok":
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
