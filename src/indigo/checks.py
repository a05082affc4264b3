"""Theorem sweep backing the verify-all subcommand.

Each claim is a predicate on the semiring of one order k: it returns a
problem text, or ``None`` when the property holds at that k.
``_CHECKS`` lists every claim as ``(name, tag, predicate, search)``.
``search`` names the row of ``bounds.BOUNDS`` that bounds the claim, or
is ``None`` for a claim with no bound.  One rule decides what a claim
covers: k = 1..min(k_max, bound unless ``unsafe``).

``run_all_checks`` builds one ``SemiringCtx`` per k, shared by every
claim, and reports a claim's first problem as ``k=K: <problem>``.
Checks never raise: an exception while computing is itself a failure,
reported as ``error: <message>``, so a corrupted arithmetic rule cannot
crash the sweep.

The series claims ``window-idempotency`` (a prefix search) and
``degree-morphism`` (a table over signatures) rest on the semantics of
the batched kernels, not on exhaustive scans, so they stay exact under
any rule, faulty ones included; the tests keep the scans as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

from . import graphs, ideals, series
from .bounds import BOUNDS
from .core import MANY, SemiringCtx, fin, verify_laws


@dataclass(frozen=True)
class Claim:
    name: str
    tag: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "tag": self.tag, "passed": self.passed, "detail": self.detail}


def _maximal(ctx: SemiringCtx) -> int:
    """Mask of the maximal ideal: every code but that of 1."""
    return (1 << ctx.size) - 1 & ~(1 << ctx.encode(ctx.one))


def _laws(ctx: SemiringCtx) -> Optional[str]:
    for report in verify_laws(ctx):
        if not report.holds:
            return f"law {report.law} fails at ({report.render_counterexample()})"
    return None


def _graph_diameter(ctx: SemiringCtx) -> Optional[str]:
    got = graphs.diameter(graphs.IndigenousGraph(ctx))
    want = 1 if ctx.k == 1 else 2
    if got != want:
        return f"diameter {got}, expected {want}"
    return None


def _graph_girth(ctx: SemiringCtx) -> Optional[str]:
    got = graphs.girth(graphs.IndigenousGraph(ctx))
    want = graphs.INFINITE if ctx.k <= 2 else 3
    if got != want:
        return f"girth {got}, expected {want}"
    return None


def _graph_clique(ctx: SemiringCtx) -> Optional[str]:
    k = ctx.k
    g = graphs.IndigenousGraph(ctx)
    omega = graphs.clique_number(g)
    # m and the run s..k, with s the least s where s * (s + 1) > k
    s = 1
    while s * (s + 1) <= k:
        s += 1
    if omega != k - s + 2:
        return f"clique number {omega}, expected {k - s + 2}"
    if k >= 5:
        witness = [fin(i) for i in range(k - k // 2, k + 1)] + [MANY]
        for i, u in enumerate(witness):
            for v in witness[i + 1 :]:
                if not g.adjacent(u, v):
                    return f"witness clique broken at {u.render()}, {v.render()}"
    return None


def _graph_chromatic(ctx: SemiringCtx) -> Optional[str]:
    g = graphs.IndigenousGraph(ctx)
    omega = graphs.clique_number(g)
    chi = graphs.chromatic_number(g)
    if chi != omega:
        return f"chromatic number {chi}, clique number {omega}"
    return None


def _ideal_lattice(ctx: SemiringCtx) -> Optional[str]:
    lattice = ideals.enumerate_ideals(ctx)
    smallest = 1 | 1 << ctx.encode(MANY)  # {0, m}
    if smallest not in {i.mask for i in lattice}:
        return "{0, m} is not an ideal"
    for ideal in lattice:  # every ideal holds 0, so one that holds m contains {0, m}
        if not ideal.is_zero and not ideal.contains(MANY):
            return f"nonzero ideal {ideal.render()} misses m"
    return None


def _ideal_primes(ctx: SemiringCtx) -> Optional[str]:
    primes = [i for i in ideals.enumerate_ideals(ctx) if ideals.is_prime(ctx, i)]
    if {p.mask for p in primes} != {1, _maximal(ctx)}:
        return f"primes are {sorted(p.render() for p in primes)}"
    return None


def _ideal_austere(ctx: SemiringCtx) -> Optional[str]:
    for ideal in ideals.enumerate_ideals(ctx):
        want = ideal.is_zero or ideal.is_whole
        if ideals.is_subtractive(ctx, ideal) != want:
            return f"subtractivity of {ideal.render()} is {not want}"
    return None


def _ideal_radicals(ctx: SemiringCtx) -> Optional[str]:
    maximal = _maximal(ctx)
    for ideal in ideals.enumerate_ideals(ctx):
        want = ideal.mask if ideal.is_zero or ideal.is_whole else maximal
        if ideals.radical(ctx, ideal).mask != want:
            return f"radical of {ideal.render()} is wrong"
    return None


def _ideal_principal_primes(ctx: SemiringCtx) -> Optional[str]:
    found = False
    for a in ctx.nonzero_elements():
        principal = ideals.ideal_generated(ctx, [a])
        if not principal.is_zero and ideals.is_prime(ctx, principal):
            found = True
            break
    if found != (ctx.k <= 2):
        return f"nonzero principal prime exists = {found}"
    return None


def _ideal_maximal(ctx: SemiringCtx) -> Optional[str]:
    maximal = _maximal(ctx)
    for ideal in ideals.enumerate_ideals(ctx):
        want = ideal.mask == maximal
        if ideals.is_maximal(ctx, ideal) != want:
            return f"maximality of {ideal.render()} is {not want}"
    return None


def _spectrum(ctx: SemiringCtx) -> Optional[str]:
    view = ideals.spectrum(ctx)
    if not view.is_sierpinski:
        return f"spectrum has {len(view.points)} points and {len(view.closed_sets)} closed sets"
    return None


def _multiplicative_subsets(ctx: SemiringCtx):
    mul = ctx.tables()[1].tolist()
    elems = ctx.elements()
    one = ctx.encode(ctx.one)
    rest = [ctx.encode(e) for e in ctx.nonzero_elements() if e != ctx.one]
    for bits in range(1 << len(rest)):
        codes = [one] + [c for i, c in enumerate(rest) if bits >> i & 1]
        mask = sum(1 << c for c in codes)
        if all(mask >> mul[u][v] & 1 for u in codes for v in codes):
            yield [elems[c] for c in codes]


def _localization(ctx: SemiringCtx) -> Optional[str]:
    subsets = list(_multiplicative_subsets(ctx))
    for subset, loc in zip(subsets, ideals.localizations(ctx, subsets)):
        names = "{" + ", ".join(u.render() for u in subset) + "}"
        if not loc.is_entire() or not loc.is_zerosumfree():
            return f"fractions over {names} are not an information algebra"
        if any(u.kind == "fin" and u.value > 1 for u in subset):
            if loc.class_count != 2 or not loc.is_boolean():
                return f"fractions over {names} are not Boolean"
        if len(subset) == 1 and not loc.matches_ambient():
            return "fractions over {1} do not reproduce the semiring"
    return None


def _ideal_semiring(ctx: SemiringCtx) -> Optional[str]:
    # the sum is the closure of the union, and a closure only adds codes
    # and fixes every ideal: I + I = I, {0} + I = I and zero-sum-freeness
    # hold under every rule
    ids = ideals.ideal_semiring(ctx)
    if not ids.is_entire():
        return "ideal semiring has zero divisors"
    if not ids.least_nonzero_absorbs():
        return "{0, m} fails to absorb nonzero ideal products"
    mask = _maximal(ctx)
    top = next((i for i, ideal in enumerate(ids.ideals) if ideal.mask == mask), None)
    if top is None:
        names = ", ".join(e.render() for e in ctx.elements() if e != ctx.one)
        return f"{{{names}}} is not an ideal"
    full, zero = ids.one_index, ids.zero_index
    at = np.arange(ids.size)
    broken = ids.mul_table[:, full] != at
    escapes = ids.add_table[:, top] != top  # I + M = M exactly when I lies in M
    escapes[[zero, full]] = False
    for i in np.flatnonzero(broken | escapes)[:1].tolist():  # the first ideal at fault
        text = "neutral elements broken at {}" if broken[i] else "{} escapes the maximal ideal"
        return text.format(ids.ideals[i].render())
    return None


def _nilpotency(ctx: SemiringCtx) -> Optional[str]:
    idx = ideals.nilpotency_index(ctx)
    guarantee = 1
    while (1 << guarantee) <= ctx.k:
        guarantee += 1
    if idx > guarantee:
        return f"nilpotency index {idx} exceeds guarantee {guarantee}"
    return None


def _poly(ctx: SemiringCtx, row) -> series.Poly:
    return series.make_poly(ctx, (ctx.decode(c) for c in row))


def _poly_units(ctx: SemiringCtx) -> Optional[str]:
    pool = series.code_rows(ctx, 3)  # degree <= 2, trailing zeros kept
    one = np.zeros(3, dtype=pool.dtype)
    one[0] = ctx.encode(ctx.one)
    # degree additivity confines inverses to constants: f times each constant
    products = series.convolve_batch(ctx, pool[:, None], np.arange(ctx.size)[None, :, None], 3)
    invertible = (products == one).all(axis=2).any(axis=1)
    # f is the unit 1 (Poly.is_unit) exactly when f equals the polynomial 1
    wrong = invertible != (pool == one).all(axis=1)
    if wrong.any():
        return f"unit status of {_poly(ctx, pool[wrong.argmax()]).render()} is wrong"
    return None


def _poly_idempotents(ctx: SemiringCtx) -> Optional[str]:
    pool = series.code_rows(ctx, 3)  # degree <= 2, trailing zeros kept
    squares = series.convolve_batch(ctx, pool, pool, 5)
    idempotent = (squares[:, :3] == pool).all(axis=1) & (squares[:, 3:] == 0).all(axis=1)
    # the constants 0, 1 and m
    allowed = np.isin(pool[:, 0], (0, ctx.encode(ctx.one), ctx.encode(MANY)))
    allowed &= (pool[:, 1:] == 0).all(axis=1)
    wrong = idempotent != allowed
    if wrong.any():
        return f"idempotency of {_poly(ctx, pool[wrong.argmax()]).render()} is wrong"
    return None


def _degree_morphism(ctx: SemiringCtx) -> Optional[str]:
    # Over degree <= 2 a defect depends only on each polynomial's signature:
    # its length L (degree + 1, 0 for zero) and leading code c.  The sum's
    # slot L - 1, L the longer length, adds the two leading codes or one and
    # the 0 padding; a nonzero product's top coefficient is its one term,
    # added to 0.  In the product order of coefficient rows the first
    # polynomial of signature (L, c) is c X^(L-1), at row c (k + 2)^(3 - L),
    # so the signatures go in that order: zero, then L = 3, 2, 1 by c.
    add, mul = ctx.tables()
    codes = np.arange(1, ctx.size)
    length = np.concatenate([[0], np.repeat([3, 2, 1], len(codes))])
    lead = np.concatenate([[0], np.tile(codes, 3)])
    lf, lg, cf, cg = length[:, None], length, lead[:, None], lead
    longest = np.maximum(lf, lg)
    tops = add[np.where(lf == longest, cf, 0), np.where(lg == longest, cg, 0)]
    sums = (longest > 0) & (tops == 0)
    products = (lf > 0) & (lg > 0) & (add[0, mul[cf, cg]] == 0)
    broken = sums | products
    if broken.any():
        i, j = np.argwhere(broken)[0]
        what = "degree of sum breaks" if sums[i, j] else "degree of product breaks"
        f, g = (_poly(ctx, [0] * (length[x] - 1) + [lead[x]]) for x in (i, j))
        return f"{what} at {f.render()}, {g.render()}"
    return None


def _window_idempotency(ctx: SemiringCtx) -> Optional[str]:
    # Prefixes grow one coefficient at a time in product order.  Coefficient
    # t of a square reads only coefficients 0..t, and a prefix off the shape
    # rule has no extension on it, so a prefix that fails both tests fails
    # both on every extension: it cannot be the first disagreement.
    depth = 5
    codes = np.arange(ctx.size, dtype=series.code_dtype(ctx))
    rows = np.empty((1, 0), dtype=codes.dtype)
    squares = np.ones(1, dtype=bool)  # every coefficient so far squares to itself
    for t in range(depth + 1):
        rows = np.column_stack([np.repeat(rows, ctx.size, axis=0), np.tile(codes, len(rows))])
        square = series.convolve_batch(ctx, rows, rows, t + 1)[:, t]
        squares = np.repeat(squares, ctx.size) & (square == rows[:, t])
        shaped = series.idempotent_shape(ctx, rows)
        kept = squares | shaped
        rows, squares, shaped = rows[kept], squares[kept], shaped[kept]
    wrong = squares != shaped
    if wrong.any():
        f = series.TruncSeries(ctx, depth, tuple(rows[wrong.argmax()].tolist()))
        return f"idempotency tests disagree on {f.render()}"
    if not series.idempotent_series_from_generators(ctx, MANY, [2, 3], depth).squares_to_self():
        return "generated window is not idempotent"
    return None


def _quadratics(ctx: SemiringCtx) -> Optional[str]:
    pairs = [(alpha, beta) for alpha in ctx.nonzero_elements() for beta in ctx.elements()]
    quadratics = [series.quadratic(ctx, alpha, beta).codes for alpha, beta in pairs]
    witnesses = series.first_factorizations(ctx, quadratics)
    for (alpha, beta), witness in zip(pairs, witnesses):
        if series.quadratic_irreducible(ctx, alpha, beta) != (witness is None):
            return (
                "closed form and oracle disagree at "
                f"alpha={alpha.render()}, beta={beta.render()}"
            )
    return None


# (name, tag, predicate, row of BOUNDS that bounds it and unsafe lifts)
_CHECKS = (
    ("semiring-laws", "core.laws", _laws, "laws"),
    ("graph-diameter", "graphs.diameter", _graph_diameter, None),
    ("graph-girth", "graphs.girth", _graph_girth, None),
    ("graph-clique", "graphs.clique", _graph_clique, "clique"),
    ("graph-chromatic", "graphs.chromatic", _graph_chromatic, "chromatic"),
    ("ideal-lattice", "ideals.lattice", _ideal_lattice, "ideals"),
    ("ideal-primes", "ideals.primes", _ideal_primes, "ideals"),
    ("ideal-austere", "ideals.subtractive", _ideal_austere, "ideals"),
    ("ideal-radicals", "ideals.radical", _ideal_radicals, "ideals"),
    ("ideal-principal-primes", "ideals.principal-primes", _ideal_principal_primes, "ideals"),
    ("ideal-maximal", "ideals.maximal", _ideal_maximal, "ideals"),
    ("spectrum-sierpinski", "ideals.spectrum", _spectrum, "ideals"),
    ("localization", "ideals.localization", _localization, "localization"),
    ("ideal-semiring", "ideals.semiring", _ideal_semiring, "ideals"),
    ("ideal-nilpotency", "ideals.nilpotency", _nilpotency, "ideals"),
    ("poly-units", "series.units", _poly_units, "poly"),
    ("poly-idempotents", "series.idempotents", _poly_idempotents, "poly"),
    ("degree-morphism", "series.degree", _degree_morphism, "poly"),
    ("window-idempotency", "series.windows", _window_idempotency, "window"),
    ("quadratic-irreducibility", "series.quadratics", _quadratics, "oracle"),
)


def _run(check: tuple, k_max: int, unsafe: bool, ctx_at: Callable[[int], SemiringCtx]) -> Claim:
    """One claim over k = 1..min(k_max, bound unless unsafe), with
    ``ctx_at(k)`` the semiring of order k."""
    name, tag, predicate, search = check
    top = k_max if unsafe or search is None else min(k_max, BOUNDS[search][0])
    try:
        for k in range(1, top + 1):
            problem = predicate(ctx_at(k))
            if problem is not None:
                return Claim(name, tag, False, f"k={k}: {problem}")
    except Exception as exc:  # a crash while checking is a failure, not an abort
        return Claim(name, tag, False, f"error: {exc}")
    return Claim(name, tag, True, "")


def run_all_checks(k_max: int, mutant: Optional[str] = None, unsafe: bool = False) -> list:
    """Run the full theorem sweep for k = 1..k_max; one claim per property."""
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError(f"k range must end at an integer >= 1, got {k_max!r}")
    ctx_at = cache(lambda k: SemiringCtx(k, mutant=mutant))
    return [_run(check, k_max, unsafe, ctx_at) for check in _CHECKS]
