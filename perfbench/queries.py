"""Seeded CLI query stream for the `queries` workload, with its answer oracle.

Each query is an argv for ``indigo.cli.main`` plus the exit code it must
return and a check of its JSON payload.  The checks use closed forms
written here from the mathematics, never the library's own functions:
saturating arithmetic on element codes (0, 1..k, and k+1 for m), the
diameter and girth formulas of the saturation graph, the threshold-graph
clique number, the two primes, Boolean collapse of fractions, window
supports as numerical semigroups, and the gcd rule for quadratics.

The seed drives only this generator; the program sees nothing but argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Callable, Optional

from expected import IDEAL_COUNTS

# Share of the stream (percent) per query kind.
MIX = (
    ("elem", 20),
    ("laws", 15),
    ("table", 10),
    ("graph", 10),
    ("ideals", 10),
    ("localize", 10),
    ("poly", 10),
    ("spec", 5),
    ("series", 5),
    ("irreducible", 5),
    ("malformed", 5),
)

# k is drawn uniformly from these ranges: each subcommand's bound, or for
# elem (which has none) the law bound.
K_RANGE = {
    "elem": (1, 64),
    "laws": (1, 64),
    "table": (1, 32),
    "graph": (1, 24),
    "ideals": (1, 12),
    "spec": (1, 12),
    "localize": (2, 8),
    "poly": (1, 16),
    "series": (1, 8),
    "irreducible": (1, 6),
}

# First k beyond each bounded subcommand's exhaustive-search bound.
OVER_BOUND = {
    "laws": (65, []),
    "graph": (25, ["--clique"]),
    "ideals": (17, ["--primes"]),
    "spec": (17, []),
    "irreducible": (7, ["--alpha", "2", "--beta", "3", "--oracle"]),
}

EXIT_OK, EXIT_USAGE, EXIT_BOUND = 0, 2, 3


@dataclass(frozen=True)
class Query:
    kind: str
    k: int
    argv: tuple
    exit_code: int
    check: Optional[Callable[[dict], Optional[str]]] = None

    @property
    def key(self) -> tuple:
        return (self.kind, self.k)


# --- closed forms on element codes -------------------------------------------


def _sat(x: int, k: int) -> int:
    return x if x <= k else k + 1


def _add(a: int, b: int, k: int) -> int:
    if a == 0 or b == 0:
        return a + b
    if k + 1 in (a, b):
        return k + 1
    return _sat(a + b, k)


def _mul(a: int, b: int, k: int) -> int:
    if a == 0 or b == 0:
        return 0
    if k + 1 in (a, b):
        return k + 1
    return _sat(a * b, k)


def _text(c: int, k: int) -> str:
    return "m" if c == k + 1 else str(c)


def _json(c: int, k: int):
    return "m" if c == k + 1 else c


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs = cs[:-1]
    return cs


def _poly_mul(f: list, g: list, k: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = _add(out[i + j], _mul(a, b, k), k)
    return _trim(out)


def _poly_text(cs: list, k: int) -> str:
    terms = []
    for i, c in enumerate(cs):
        if c == 0:
            continue
        power = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
        terms.append(_text(c, k) + power)
    return " + ".join(terms) or "0"


def _clique_number(k: int) -> int:
    # The saturation graph is a threshold graph: m is adjacent to every
    # vertex, and finite a < b are adjacent iff a * b > k.  A largest
    # clique is m plus the run t..k, with t the least value for which
    # t * (t + 1) > k.
    t = 1
    while t * (t + 1) <= k:
        t += 1
    return k - t + 2


def _edge_count(k: int) -> int:
    finite = sum(1 for a in range(1, k + 1) for b in range(a + 1, k + 1) if a * b > k)
    return finite + k


def _primes_json(k: int) -> list:
    return [[0], [0, *range(2, k + 1), "m"]]


def _semigroup(gens: list, depth: int) -> list:
    reach = {0}
    for i in range(1, depth + 1):
        if any(g <= i and (i - g) in reach for g in gens):
            reach.add(i)
    return sorted(reach - {0})


def _quadratic_irreducible(alpha: int, beta: int, k: int) -> bool:
    m = k + 1
    if alpha != m and beta not in (0, m):
        return gcd(alpha, beta) == 1
    return (alpha, beta) in ((m, 1), (1, m))


# --- payload checks ----------------------------------------------------------


def _expect(report: dict, **want) -> Optional[str]:
    if report.get("status") != "ok":
        return f"status {report.get('status')!r}"
    payload = report.get("payload", {})
    for key, value in want.items():
        if payload.get(key) != value:
            return f"{key} = {payload.get(key)!r}, expected {value!r}"
    return None


def _elem(rng: random.Random, k: int) -> Query:
    op = rng.choice(("add", "mul", "leq"))
    a, b = rng.randint(0, k + 1), rng.randint(0, k + 1)
    if op == "leq":
        result = a <= b
    else:
        result = _text((_add if op == "add" else _mul)(a, b, k), k)
    argv = ("elem", str(k), f"--{op}", _text(a, k), _text(b, k), "--json")
    return Query("elem", k, argv, EXIT_OK, lambda r: _expect(r, op=op, result=result))


def _laws(rng: random.Random, k: int) -> Query:
    def check(r):
        claims = r.get("claims", [])
        if len(claims) != 14 or not all(c.get("passed") for c in claims):
            return f"laws failing: {[c.get('name') for c in claims if not c.get('passed')]}"
        return _expect(r, laws_checked=14)

    return Query("laws", k, ("laws", str(k), "--json"), EXIT_OK, check)


def _table(rng: random.Random, k: int) -> Query:
    codes = range(k + 2)
    want_add = [[_json(_add(a, b, k), k) for b in codes] for a in codes]
    want_mul = [[_json(_mul(a, b, k), k) for b in codes] for a in codes]
    elements = [_json(c, k) for c in codes]
    return Query(
        "table", k, ("table", str(k), "--json"), EXIT_OK,
        lambda r: _expect(r, elements=elements, add=want_add, mul=want_mul),
    )


def _graph(rng: random.Random, k: int) -> Query:
    omega = _clique_number(k)
    assert omega >= k // 2 + 1
    want = dict(
        vertices=k + 1,
        edges=_edge_count(k),
        diameter=1 if k == 1 else 2,
        girth="infinity" if k <= 2 else 3,
        clique_number=omega,
        chromatic_number=omega,
    )
    return Query("graph", k, ("graph", str(k), "--json"), EXIT_OK, lambda r: _expect(r, **want))


def _ideals(rng: random.Random, k: int) -> Query:
    return Query(
        "ideals", k, ("ideals", str(k), "--primes", "--json"), EXIT_OK,
        lambda r: _expect(r, count=IDEAL_COUNTS[k], primes=_primes_json(k)),
    )


def _spec(rng: random.Random, k: int) -> Query:
    return Query(
        "spec", k, ("spec", str(k), "--json"), EXIT_OK,
        lambda r: _expect(
            r, points=_primes_json(k), closed_sets=[[], [1], [0, 1]], sierpinski=True
        ),
    )


def _closed_units(rng: random.Random, k: int) -> list:
    units = {1} | {c for c in range(2, k + 2) if rng.random() < 0.2}
    grown = True
    while grown:
        extra = {_mul(u, v, k) for u in units for v in units} - units
        units |= extra
        grown = bool(extra)
    return sorted(units)


def _localize(rng: random.Random, k: int) -> Query:
    units = _closed_units(rng, k)
    # Fractions over U collapse to the Boolean semiring exactly when U
    # holds m, which every U with a finite element above 1 does.
    want = dict(
        unit_set=[_text(u, k) for u in units],
        entire=True,
        zerosumfree=True,
    )
    if k + 1 in units:
        want.update(class_count=2, boolean=True)
    else:
        want.update(class_count=k + 2, boolean=False, matches_ambient=True)
    argv = ("localize", str(k), "--u", ",".join(_text(u, k) for u in units), "--json")
    return Query("localize", k, argv, EXIT_OK, lambda r: _expect(r, **want))


def _poly(rng: random.Random, k: int) -> Query:
    f = _trim([rng.randint(0, k + 1) for _ in range(rng.randint(1, 4))])
    g = _trim([rng.randint(0, k + 1) for _ in range(rng.randint(1, 4))])
    want = dict(
        op="mul",
        f=[_json(c, k) for c in f],
        g=[_json(c, k) for c in g],
        result=[_json(c, k) for c in _poly_mul(f, g, k)],
    )
    argv = ("poly", str(k), "--mul", _poly_text(f, k), _poly_text(g, k), "--json")
    return Query("poly", k, argv, EXIT_OK, lambda r: _expect(r, **want))


def _series(rng: random.Random, k: int) -> Query:
    depth = rng.randint(0, 10)
    gens = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
    constant = rng.choice((1, k + 1))
    support = _semigroup(gens, depth)
    coeffs = [_json(constant, k)] + ["m" if i in support else 0 for i in range(1, depth + 1)]
    want = dict(
        generators=gens,
        series={"depth": depth, "coeffs": coeffs},
        support=support,
        idempotent=True,
    )
    argv = (
        "series", str(k), "--depth", str(depth),
        "--gens", ",".join(map(str, gens)), "--constant", _text(constant, k), "--json",
    )
    return Query("series", k, argv, EXIT_OK, lambda r: _expect(r, **want))


def _irreducible(rng: random.Random, k: int) -> Query:
    alpha, beta = rng.randint(1, k + 1), rng.randint(0, k + 1)
    irreducible = _quadratic_irreducible(alpha, beta, k)
    target = _trim([beta, 0, alpha])

    def check(r):
        problem = _expect(r, poly=[_json(c, k) for c in target], irreducible=irreducible)
        if problem:
            return problem
        claims = r["claims"]
        if len(claims) != 1 or not claims[0].get("passed"):
            return f"oracle claim {claims!r}"
        witness = r["payload"].get("witness")
        if irreducible:
            return None if witness is None else f"witness {witness!r} for an irreducible"
        if not witness:
            return "no witness for a reducible quadratic"
        left, right = ([k + 1 if c == "m" else c for c in w] for w in witness)
        if left in ([], [1]) or right in ([], [1]):
            return f"witness {witness!r} has a unit or zero factor"
        if _poly_mul(left, right, k) != target:
            return f"witness {witness!r} does not multiply out"
        return None

    argv = (
        "irreducible", str(k), "--alpha", _text(alpha, k), "--beta", _text(beta, k),
        "--oracle", "--json",
    )
    return Query("irreducible", k, argv, EXIT_OK, check)


def _bound_exceeded(r: dict) -> Optional[str]:
    return None if r.get("status") == "bound-exceeded" else f"status {r.get('status')!r}"


# ``series K --depth -N --gens ...`` raises IndexError today instead of
# exiting 2, a defect of indigo.  A run must have no failing operation, so
# the stream leaves that shape out; each queries run sends this probe once,
# untimed and outside the operation count, and reports what it returned.
KNOWN_DEFECT = ("series", "3", "--depth", "-1", "--gens", "2,3")
KNOWN_DEFECT_CRASH = "IndexError"


def _malformed(rng: random.Random) -> Query:
    shape = rng.choice(("over-bound", "zero-k", "no-one", "negative-depth"))
    if shape == "over-bound":
        sub = rng.choice(sorted(OVER_BOUND))
        first, extra = OVER_BOUND[sub]
        k = first + rng.randint(0, 3)
        argv = (sub, str(k), *extra, "--json")
        return Query(f"malformed:{shape}", k, argv, EXIT_BOUND, _bound_exceeded)
    if shape == "zero-k":
        sub = rng.choice(sorted(K_RANGE))
        extra = {
            "elem": ["--add", "1", "1"],
            "localize": ["--u", "1"],
            "poly": ["--mul", "1", "1"],
            "series": ["--depth", "3", "--gens", "2"],
            "irreducible": ["--alpha", "1", "--beta", "1"],
        }.get(sub, [])
        return Query(f"malformed:{shape}", 0, (sub, "0", *extra), EXIT_USAGE)
    if shape == "no-one":
        k = rng.randint(*K_RANGE["localize"])
        units = [c for c in range(2, k + 2) if rng.random() < 0.5] or [k + 1]
        argv = ("localize", str(k), "--u", ",".join(_text(u, k) for u in units))
        return Query(f"malformed:{shape}", k, argv, EXIT_USAGE)
    k = rng.randint(*K_RANGE["series"])
    depth = str(-rng.randint(1, 3))
    # with --check, not --gens: see KNOWN_DEFECT
    argv = ("series", str(k), "--depth", depth, "--check", "1 + X")
    return Query(f"malformed:{shape}", k, argv, EXIT_USAGE)


_BUILDERS = {
    "elem": _elem,
    "laws": _laws,
    "table": _table,
    "graph": _graph,
    "ideals": _ideals,
    "spec": _spec,
    "localize": _localize,
    "poly": _poly,
    "series": _series,
    "irreducible": _irreducible,
}


def stream(seed: int):
    """Endless, deterministic query stream for one seed."""
    rng = random.Random(seed)
    kinds = [kind for kind, _ in MIX]
    weights = [w for _, w in MIX]
    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "malformed":
            yield _malformed(rng)
        else:
            yield _BUILDERS[kind](rng, rng.randint(*K_RANGE[kind]))


def properties(keys: list) -> dict:
    """Mix, k histogram and repeat share of the (kind, k) keys actually sent."""
    mix: dict = {}
    ks: dict = {}
    seen = set()
    repeats = 0
    for kind, k in keys:
        mix[kind] = mix.get(kind, 0) + 1
        ks[k] = ks.get(k, 0) + 1
        repeats += (kind, k) in seen
        seen.add((kind, k))
    return {
        "queries": len(keys),
        "mix": dict(sorted(mix.items())),
        "k_histogram": {str(k): n for k, n in sorted(ks.items())},
        "repeat_share": repeats / len(keys) if keys else 0.0,
    }
