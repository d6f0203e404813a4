"""Independent checks of experiment outputs.

A check never calls the library code it times. Inputs (sets and functions)
are regenerated here from the config with numpy's seeded generator, in the
order the config format defines; set products, containments, windows and
Bohr memberships are recomputed with python sets, brute force or exact
characters. The one thing taken from the library is the Cayley table of a
non-cyclic catalog group, which fixes the element numbering the payloads use;
for zmod:n the table is (a + b) mod n, built here.

``check(config, status, payload)`` returns a list of problems; empty means
the output verified.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RESIDUAL_TOL = 1e-10
VALUE_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
WINDOW_GUARD = 1e-12


class Group:
    """Cayley table plus the python-side views the checks use."""

    def __init__(self, descriptor: str, table: np.ndarray):
        self.descriptor = descriptor
        self.table = np.asarray(table)
        self.n = int(self.table.shape[0])
        self.rows = self.table.tolist()
        self.identity = next(e for e in range(self.n)
                             if self.rows[e] == list(range(self.n)))
        self.inverse = [self.rows[a].index(self.identity) for a in range(self.n)]
        self.zmod = descriptor.startswith("zmod:")

    def product(self, a, b) -> set:
        return {self.rows[x][y] for x in a for y in b}

    def inv(self, a) -> set:
        return {self.inverse[x] for x in a}

    def translate(self, g, a) -> set:
        return {self.rows[g][x] for x in a}


class Checker:
    def __init__(self, build_table):
        """``build_table(descriptor)`` returns the Cayley table of a
        non-cyclic catalog group; it is called once per descriptor."""
        self._build_table = build_table
        self._groups: dict[str, Group] = {}

    def group(self, descriptor: str) -> Group:
        grp = self._groups.get(descriptor)
        if grp is None:
            if descriptor.startswith("zmod:"):
                n = int(descriptor[5:])
                table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
            else:
                table = self._build_table(descriptor)
            grp = self._groups[descriptor] = Group(descriptor, table)
        return grp

    def check(self, config: dict, status: str, payload: dict) -> list[str]:
        grp = self.group(config["group"])
        fn = _CHECKS[config["kind"]]
        try:
            return fn(config, status, payload, grp)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"malformed payload: {exc!r}"]


# ---------------------------------------------------------------------------
# Inputs, regenerated from the config


def _rng(config):
    return np.random.default_rng(int(config.get("seed", "0")))


def _set(spec: str, grp: Group, rng) -> set:
    base, _, minus = spec.partition("-minus:")
    head, _, rest = base.partition(":")
    n = grp.n
    if head == "random":
        out = set(np.flatnonzero(rng.random(n) < float(rest)).tolist())
    elif head == "random_size":
        out = set(rng.choice(n, size=int(rest), replace=False).tolist())
    elif head == "evens":
        out = set(range(0, n, 2))
    elif head == "halfrange":
        out = set(range((n - 1) // 2 + 1))
    elif head == "interval":
        r = int(rest)
        out = {x % n for x in range(-r, r + 1)}
    else:
        raise ValueError(f"set spec {spec!r} has no independent generator")
    if minus:
        drop = rng.choice(np.array(sorted(out)), size=int(minus), replace=False)
        out -= set(drop.tolist())
    return out


def _indicator(s: set, n: int) -> np.ndarray:
    v = np.zeros(n)
    v[list(s)] = 1.0
    return v


def _conv(f: np.ndarray, g: np.ndarray, grp: Group) -> np.ndarray:
    """(f*g)(x) = (1/n) sum_t f(t) g(t^-1 x), summed term by term."""
    out = np.zeros(grp.n)
    for t in range(grp.n):
        if f[t] != 0.0:
            row = grp.rows[grp.inverse[t]]
            out += f[t] * g[row]
    return out / grp.n


def _function(spec: str, grp: Group, rng) -> np.ndarray:
    head, _, rest = spec.partition(":")
    n = grp.n
    if head == "overlap":
        a = _set(rest, grp, rng)
        return np.array([len(a & grp.translate(x, a)) for x in range(n)]) / n
    if head == "conv":
        left, _, right = rest.partition("|")
        a = _indicator(_set(left, grp, rng), n)
        b = _indicator(_set(right, grp, rng), n)
        return _conv(a, b, grp)
    if head == "indicator":
        return _indicator(_set(rest, grp, rng), n)
    if head == "random-uniform":
        return rng.uniform(-1.0, 1.0, size=n)
    if head == "random-pm1":
        return rng.choice([-1.0, 1.0], size=n)
    if head == "random-indicator":
        return (rng.random(n) < 0.5).astype(float)
    raise ValueError(f"function spec {spec!r} has no independent generator")


# ---------------------------------------------------------------------------
# Shared checks


def _bohr_spec(spec: dict, grp: Group) -> list[str]:
    """Structural facts of any Bohr set, plus exact-character membership on
    zmod:n, where irrep k is x -> exp(2 pi i k x / n)."""
    members = set(spec["realized_members"])
    problems = []
    if grp.identity not in members:
        problems.append("Bohr set misses the identity")
    if grp.inv(members) != members:
        problems.append("Bohr set is not symmetric")
    if grp.zmod:
        ks = [int(label[3:]) for label in spec["irrep_multiset"]]
        x = np.arange(grp.n)
        dist = np.zeros(grp.n)
        for k in ks:
            dist = np.maximum(dist, np.abs(np.exp(2j * np.pi * k * x / grp.n) - 1.0))
        delta = spec["delta"]
        inside = set(np.flatnonzero(dist < delta - MEMBERSHIP_TOL).tolist())
        maybe = set(np.flatnonzero(dist <= delta + MEMBERSHIP_TOL).tolist())
        if not inside <= members <= maybe:
            problems.append("zmod Bohr membership differs from exact characters")
    return problems


def _largest_window(values: np.ndarray, eps: float) -> int:
    """Most values fitting a window of range < eps, by trying every start."""
    diff = values[None, :] - values[:, None]
    fits = (diff >= 0) & (diff < eps - WINDOW_GUARD)
    return int(fits.sum(axis=1).max())


def _close(a, b, tol=VALUE_TOL) -> bool:
    return abs(float(a) - float(b)) <= tol


# ---------------------------------------------------------------------------
# Per-kind checks


def _check_group_info(config, status, payload, grp):
    n = grp.n
    problems = []
    if payload["order"] != n:
        problems.append("order differs from the table")
    abelian = all(grp.rows[a][b] == grp.rows[b][a]
                  for a in range(n) for b in range(a + 1, n))
    if payload["abelian"] != abelian:
        problems.append("abelian flag is wrong")
    if payload["identity"] != grp.identity:
        problems.append("identity is wrong")
    exponent = 1
    for a in range(n):
        k, x = 1, a
        while x != grp.identity:
            x, k = grp.rows[x][a], k + 1
        exponent = exponent * k // math.gcd(exponent, k)
    if payload["exponent"] != exponent:
        problems.append("exponent is wrong")
    return problems


def _conjugacy_classes(grp: Group) -> int:
    seen, classes = set(), 0
    for a in range(grp.n):
        if a in seen:
            continue
        classes += 1
        seen |= {grp.rows[grp.rows[g][a]][grp.inverse[g]] for g in range(grp.n)}
    return classes


def _check_irreps(config, status, payload, grp):
    dims = payload["dims"]
    problems = []
    if sum(d * d for d in dims) != grp.n or payload["sum_dim_sq"] != grp.n:
        problems.append("sum of dim^2 differs from |G|")
    if len(dims) != _conjugacy_classes(grp):
        problems.append("irrep count differs from the class count")
    if any(grp.n % d for d in dims):
        problems.append("an irrep dimension does not divide |G|")
    if payload["max_hom_residual"] > RESIDUAL_TOL:
        problems.append("hom residual above 1e-10")
    if payload["max_unitarity_residual"] > RESIDUAL_TOL:
        problems.append("unitarity residual above 1e-10")
    if payload["char_orthogonality_defect"] > 1e-8:
        problems.append("characters are not orthonormal")
    if [row["multiplicity"] for row in payload["table"]] != dims:
        problems.append("regular multiplicities differ from dimensions")
    return problems


def _check_bohr(config, status, payload, grp):
    spec = payload["spec"]
    members = set(spec["realized_members"])
    problems = _bohr_spec(spec, grp)
    if payload["size"] != len(members):
        problems.append("size differs from the member count")
    translates = payload["cover_translates"]
    covered = set().union(*(grp.translate(g, members) for g in translates))
    if len(covered) != grp.n or payload["cover_count"] != len(translates):
        problems.append("cover translates do not cover G")
    closed = grp.product(members, members) <= members
    is_sub = closed and grp.identity in members and grp.inv(members) <= members
    if payload["is_subgroup"] != is_sub:
        problems.append("subgroup flag is wrong")
    is_normal = all({grp.rows[grp.rows[g][b]][grp.inverse[g]] for b in members}
                    <= members for g in range(grp.n))
    if payload["is_normal_set"] != is_normal:
        problems.append("normality flag is wrong")
    nm = payload.get("nm")
    if config.get("nm") == "true":
        if nm is None:
            problems.append("nm refinement missing")
        else:
            if nm["size"] > len(members):
                problems.append("nm refinement is larger than the Bohr set")
            if nm["bound_ok"] != (nm["cover_actual"] <= nm["cover_bound"]):
                problems.append("nm bound flag is wrong")
    return problems


def _check_ladder(config, status, payload, grp):
    f = _function(config["function"], grp, _rng(config))
    eps, cap = float(config["epsilon"]), int(config["cap"])
    budget = int(config["budget"])
    search, k_max, nodes = payload["search_status"], payload["k_max"], payload["nodes"]
    problems = []
    wit = payload["witness"]
    k = len(wit["a"]) if wit else 0
    if k != k_max:
        problems.append("witness length differs from k_max")
    if wit:
        gaps = [abs(f[grp.rows[wit["a"][i]][wit["b"][j]]]
                    - f[grp.rows[wit["a"][j]][wit["b"][i]]])
                for i in range(k) for j in range(i + 1, k)]
        if any(gap < eps for gap in gaps):
            problems.append("a witness gap is below epsilon")
        if gaps and not _close(min(gaps), wit["min_gap"]):
            problems.append("witness min_gap differs from recomputed gaps")
    if search == "exact" and nodes >= budget:
        problems.append("exact reported with the budget used up")
    if search == "capped" and k_max != cap:
        problems.append("capped reported below the cap")
    if search == "inconclusive" and (nodes < budget or k_max >= cap):
        problems.append("inconclusive reported with budget left or at the cap")
    if search not in ("exact", "capped", "inconclusive"):
        problems.append(f"unknown ladder status {search!r}")
    return problems


def _check_convolve(config, status, payload, grp):
    rng = _rng(config)
    f = _function(config["function"], grp, rng)
    g = _function(config["function_b"], grp, rng)
    h = _conv(f, g, grp)
    problems = []
    if np.max(np.abs(h - np.array(payload["values"]))) > VALUE_TOL:
        problems.append("convolution values differ from the direct sum")
    if payload["fubini_residual"] > RESIDUAL_TOL:
        problems.append("Fubini residual above 1e-10")
    if grp.zmod and payload["fft_residual"] > RESIDUAL_TOL:
        problems.append("FFT residual above 1e-10")
    return problems


def _check_regularity(config, status, payload, grp):
    if status == "none-within-budget":
        cap = int(config.get("max_candidates", "5000"))
        if payload["candidates_scored"] > cap:
            return ["scored more candidates than the budget"]
        return []
    f = _function(config["function"], grp, _rng(config))
    eps = float(config["epsilon"])
    cert = payload["certificate"]
    spec = cert["bohr_spec"]
    members = set(spec["realized_members"])
    problems = _bohr_spec(spec, grp)
    rows = cert["per_translate"]
    translates = {frozenset(grp.translate(g, members)) for g in range(grp.n)}
    listed = {frozenset(grp.translate(r["rep_element"], members)) for r in rows}
    if len(rows) != len(translates) or listed != translates:
        problems.append("per-translate rows are not a transversal")
    for row in rows:
        t = sorted(grp.translate(row["rep_element"], members))
        best = _largest_window(f[t], eps)
        if not _close(row["defect"], (len(t) - best) / grp.n, 1e-12):
            problems.append(f"defect of translate {row['rep_element']} is wrong")
            break
        if row["range"] >= eps:
            problems.append("translate window range reaches epsilon")
            break
    worst = max(r["defect"] for r in rows)
    if cert["max_defect"] != worst or worst > cert["zeta_value"]:
        problems.append("max defect is wrong or above zeta")
    return problems


def _check_bogolyubov(config, status, payload, grp):
    a = _set(config["set_a"], grp, _rng(config))
    alpha = float(config["alpha"])
    n = grp.n
    problems = []
    if payload["set_size"] != len(a):
        problems.append("set size differs")
    sep = payload["separated"]
    threshold = Fraction(alpha) ** 2 / 2
    overlap = [len(a & grp.translate(x, a)) for x in range(n)]
    s_set = {x for x in range(n) if Fraction(overlap[x], n) > threshold}
    if sep["s_size"] != len(s_set):
        problems.append("separated-cover S size is wrong")
    f_el = sep["f_elements"]
    for i, g in enumerate(f_el):
        ga = grp.translate(g, a)
        if any(Fraction(len(ga & grp.translate(h, a)), n) > threshold
               for h in f_el[i + 1:]):
            problems.append("separated set F is not separated")
            break
    if len(set().union(*(grp.translate(g, s_set) for g in f_el))) != n:
        problems.append("F.S does not cover G")
    if Fraction(len(f_el)) * Fraction(alpha) > 2:
        problems.append("|F| exceeds 2/alpha")
    if status == "ok":
        diff = grp.product(a, grp.inv(a))
        quad = grp.product(diff, diff)
        members = set(payload["spec"]["realized_members"])
        problems += _bohr_spec(payload["spec"], grp)
        if not members <= quad:
            problems.append("Bohr set escapes (AA^-1)^2")
    return problems


def _check_two_set(config, status, payload, grp):
    rng = _rng(config)
    a = _set(config["set_a"], grp, rng)
    b = _set(config["set_b"], grp, rng)
    alpha = float(config["alpha"])
    n = grp.n
    problems = []
    threshold = Fraction(alpha) ** 2 / 2
    binv = grp.inv(b)
    s_size = sum(1 for x in range(n)
                 if Fraction(len(a & grp.translate(x, binv)), n) > threshold)
    if payload["claim1"]["s_size"] != s_size or Fraction(s_size, n) < threshold:
        problems.append("claim 1 level set is wrong")
    if status != "ok":
        return problems
    zeta = float(config.get("zeta", "const:0.05").partition(":")[2])
    u = set(payload["spec"]["realized_members"])
    problems += _bohr_spec(payload["spec"], grp)
    ab = grp.product(a, b)
    out = len(grp.translate(payload["g_best"], u) - ab)
    if out != payload["defect_count"] or not out < zeta * n:
        problems.append("condition (i) fails")
    aba = grp.product(ab, grp.inv(a))
    if not any(grp.translate(g, u) <= aba for g in range(n)):
        problems.append("condition (ii) fails")
    if not u <= grp.product(ab, grp.inv(ab)):
        problems.append("condition (iii) fails")
    return problems


def _check_quasirandom(config, status, payload, grp):
    seed = int(config.get("seed", "0"))
    size = payload["size"]
    problems = []
    for row in payload["table"]:
        rng = np.random.default_rng(seed * 100003 + row["trial"])
        a, b, c = (set(rng.choice(grp.n, size=size, replace=False).tolist())
                   for _ in range(3))
        ab = grp.product(a, b)
        if not _close(row["ab_density"], len(ab) / grp.n):
            problems.append(f"|AB| wrong in trial {row['trial']}")
            break
        if row["abc_covers"] != (len(grp.product(ab, c)) == grp.n):
            problems.append(f"ABC cover flag wrong in trial {row['trial']}")
            break
    if payload["all_covers"] != all(r["abc_covers"] for r in payload["table"]):
        problems.append("all_covers is wrong")
    return problems


def _check_croot_sisask(config, status, payload, grp):
    if status != "ok":
        return []
    a = _indicator(_set(config["set_a"], grp, _rng(config)), grp.n)
    f = _conv(a, a, grp)
    p, eps = float(config.get("p", "2")), float(config["epsilon"])
    members = payload["spec"]["realized_members"]
    problems = _bohr_spec(payload["spec"], grp)
    sup = max(float(np.mean(np.abs(f[grp.rows[t]] - f) ** p) ** (1.0 / p))
              for t in members)
    if not sup < eps or not _close(sup, payload["sup_norm"]):
        problems.append("shift sup-norm is wrong or reaches epsilon")
    min_size = int(config.get("min_size", "1"))
    if payload["size"] != len(members) or len(members) < min_size:
        problems.append("Bohr set size is wrong or below min_size")
    return problems


_CHECKS = {
    "group-info": _check_group_info,
    "irreps": _check_irreps,
    "bohr": _check_bohr,
    "ladder": _check_ladder,
    "convolve": _check_convolve,
    "regularity": _check_regularity,
    "bogolyubov": _check_bogolyubov,
    "two-set": _check_two_set,
    "quasirandom": _check_quasirandom,
    "croot-sisask": _check_croot_sisask,
}

SEARCH_KINDS = ("regularity", "bogolyubov", "two-set", "croot-sisask")


def conclusive(config: dict, payload: dict) -> bool | None:
    """Whether a budgeted search ended with a definite status; None for
    kinds that are not budgeted searches."""
    kind = config["kind"]
    if kind == "ladder":
        return payload["search_status"] in ("exact", "capped")
    if kind in SEARCH_KINDS:
        status = payload["search_status"]
        return status == "ok" or (status == "none-within-budget"
                                  and config.get("expect") == "none")
    return None
