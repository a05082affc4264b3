"""Theorem sweep backing the verify-all subcommand.

Each check re-verifies one structural property over a k range, capped
at the module's own exhaustive-search bound unless ``unsafe`` lifts it.
Checks never raise: an exception while computing is itself a failure,
reported in the claim detail, so a corrupted arithmetic rule cannot
crash the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from . import graphs, ideals, series
from .core import LAW_CHECK_BOUND, MANY, ZERO, SemiringCtx, bound_limit, fin, verify_laws

# window sweep is cubic in window count; depth 5 keeps verify-all snappy
_SWEEP_WINDOW_DEPTH = 5
_SWEEP_POLY_K = 4
_SWEEP_WINDOW_K = 3
_LOCALIZE_SWEEP_BOUND = 10


@dataclass(frozen=True)
class Claim:
    name: str
    tag: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "tag": self.tag, "passed": self.passed, "detail": self.detail}


def _claim(name: str, tag: str, fn: Callable[[], Optional[str]]) -> Claim:
    try:
        problem = fn()
    except Exception as exc:  # a crash while checking is a failure, not an abort
        return Claim(name, tag, False, f"error: {exc}")
    if problem is None:
        return Claim(name, tag, True, "")
    return Claim(name, tag, False, problem)


def _ctx(k: int, mutant: Optional[str]) -> SemiringCtx:
    return SemiringCtx(k, mutant=mutant)


def _bounded(k_max: int, bound: int, unsafe: bool) -> tuple:
    """The k range a check covers (1..k_max, cut at ``bound`` unless
    ``unsafe``) and the ``max_k`` it passes on to bounded searches."""
    limit = bound_limit(bound, unsafe)
    top = k_max if limit is None else min(k_max, limit)
    return range(1, top + 1), limit


def _check_laws(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, LAW_CHECK_BOUND, unsafe)
    for k in ks:
        for report in verify_laws(_ctx(k, mutant), max_k=limit):
            if not report.holds:
                ce = report.counterexample
                shown = ", ".join(
                    x.render() if hasattr(x, "render") else str(x) for x in ce
                )
                return f"k={k}: law {report.law} fails at ({shown})"
    return None


def _check_graph_diameter(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    for k in range(1, k_max + 1):
        g = graphs.build_graph(k, mutant=mutant)
        got = graphs.diameter(g)
        want = 1 if k == 1 else 2
        if got != want:
            return f"k={k}: diameter {got}, expected {want}"
    return None


def _check_graph_girth(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    for k in range(1, k_max + 1):
        g = graphs.build_graph(k, mutant=mutant)
        got = graphs.girth(g)
        want = graphs.INFINITE if k <= 2 else 3
        if got != want:
            return f"k={k}: girth {got}, expected {want}"
    return None


def _check_graph_clique(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, graphs.EXACT_SEARCH_BOUND, unsafe)
    for k in ks:
        g = graphs.build_graph(k, mutant=mutant)
        omega = graphs.clique_number(g, max_k=limit)
        # m and the run s..k, with s the least s where s * (s + 1) > k
        s = 1
        while s * (s + 1) <= k:
            s += 1
        if omega != k - s + 2:
            return f"k={k}: clique number {omega}, expected {k - s + 2}"
        if k >= 5:
            witness = [fin(i) for i in range(k - k // 2, k + 1)] + [MANY]
            for i, u in enumerate(witness):
                for v in witness[i + 1 :]:
                    if not g.adjacent(u, v):
                        return f"k={k}: witness clique broken at {u.render()}, {v.render()}"
    return None


def _check_graph_chromatic(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, graphs.EXACT_SEARCH_BOUND, unsafe)
    for k in ks:
        g = graphs.build_graph(k, mutant=mutant)
        omega = graphs.clique_number(g, max_k=limit)
        chi = graphs.chromatic_number(g, max_k=limit)
        if chi != omega:
            return f"k={k}: chromatic number {chi}, clique number {omega}"
    return None


def _check_ideal_lattice(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        lattice = ideals.enumerate_ideals(ctx, max_k=limit)
        smallest = frozenset((ZERO, MANY))
        if smallest not in {i.members for i in lattice}:
            return f"k={k}: {{0, m}} is not an ideal"
        for ideal in lattice:
            if not ideal.is_zero:
                if MANY not in ideal.members:
                    return f"k={k}: nonzero ideal {ideal.render()} misses m"
                if not smallest <= ideal.members:
                    return f"k={k}: {ideal.render()} does not contain {{0, m}}"
    return None


def _check_ideal_primes(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        lattice = ideals.enumerate_ideals(ctx, max_k=limit)
        primes = [i for i in lattice if ideals.is_prime(ctx, i)]
        zero_ideal = frozenset((ZERO,))
        maximal = frozenset(e for e in ctx.elements() if e != ctx.one)
        want = {zero_ideal, maximal}
        got = {p.members for p in primes}
        if got != want:
            return f"k={k}: primes are {sorted(p.render() for p in primes)}"
    return None


def _check_ideal_austere(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        for ideal in ideals.enumerate_ideals(ctx, max_k=limit):
            want = ideal.is_zero or ideal.is_whole
            if ideals.is_subtractive(ctx, ideal) != want:
                return f"k={k}: subtractivity of {ideal.render()} is {not want}"
    return None


def _check_ideal_radicals(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        maximal = frozenset(e for e in ctx.elements() if e != ctx.one)
        for ideal in ideals.enumerate_ideals(ctx, max_k=limit):
            rad = ideals.radical(ctx, ideal).members
            if ideal.is_zero:
                want = ideal.members
            elif ideal.is_whole:
                want = ideal.members
            else:
                want = maximal
            if rad != want:
                return f"k={k}: radical of {ideal.render()} is wrong"
    return None


def _check_ideal_principal_primes(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, _ = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        found = False
        for a in ctx.nonzero_elements():
            principal = ideals.ideal_generated(ctx, [a])
            if not principal.is_zero and ideals.is_prime(ctx, principal):
                found = True
                break
        if found != (k <= 2):
            return f"k={k}: nonzero principal prime exists = {found}"
    return None


def _check_ideal_maximal(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        maximal = frozenset(e for e in ctx.elements() if e != ctx.one)
        for ideal in ideals.enumerate_ideals(ctx, max_k=limit):
            want = ideal.members == maximal
            if ideals.is_maximal(ctx, ideal) != want:
                return f"k={k}: maximality of {ideal.render()} is {not want}"
    return None


def _check_spectrum(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        view = ideals.spectrum(_ctx(k, mutant), max_k=limit)
        if not view.is_sierpinski:
            return (
                f"k={k}: spectrum has {len(view.points)} points and "
                f"{len(view.closed_sets)} closed sets"
            )
    return None


def _multiplicative_subsets(ctx: SemiringCtx):
    mul = ctx.table_rows()[1]
    elems = ctx.elements()
    one = ctx.encode(ctx.one)
    rest = [ctx.encode(e) for e in ctx.nonzero_elements() if e != ctx.one]
    for bits in range(1 << len(rest)):
        codes = [one] + [c for i, c in enumerate(rest) if bits >> i & 1]
        mask = sum(1 << c for c in codes)
        if all(mask >> mul[u][v] & 1 for u in codes for v in codes):
            yield [elems[c] for c in codes]


def _check_localization(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, _ = _bounded(k_max, _LOCALIZE_SWEEP_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        for subset in _multiplicative_subsets(ctx):
            loc = ideals.localize(ctx, subset)
            names = "{" + ", ".join(u.render() for u in subset) + "}"
            if not loc.is_entire() or not loc.is_zerosumfree():
                return f"k={k}: fractions over {names} are not an information algebra"
            if any(u.kind == "fin" and u.value > 1 for u in subset):
                if loc.class_count != 2 or not loc.is_boolean():
                    return f"k={k}: fractions over {names} are not Boolean"
            if len(subset) == 1 and not loc.matches_ambient():
                return f"k={k}: fractions over {{1}} do not reproduce the semiring"
    return None


def _check_ideal_semiring(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        ids = ideals.ideal_semiring(_ctx(k, mutant), max_k=limit)
        if not ids.is_additively_idempotent():
            return f"k={k}: ideal sum is not idempotent"
        if not ids.is_zerosumfree():
            return f"k={k}: ideal semiring is not zerosumfree"
        if not ids.is_entire():
            return f"k={k}: ideal semiring has zero divisors"
        if not ids.least_nonzero_absorbs():
            return f"k={k}: {{0, m}} fails to absorb nonzero ideal products"
        full = ids.one_index
        zero = ids.zero_index
        maximal_members = frozenset(e for e in ids.ctx.elements() if e != ids.ctx.one)
        maximal_idx = next(
            i for i, ideal in enumerate(ids.ideals) if ideal.members == maximal_members
        )
        for i, ideal in enumerate(ids.ideals):
            if ids.add_table[i][zero] != i or ids.mul_table[i][full] != i:
                return f"k={k}: neutral elements broken at {ideal.render()}"
            if i != zero and i != full:
                if not ideal.issubset(ids.ideals[maximal_idx]):
                    return f"k={k}: {ideal.render()} escapes the maximal ideal"
    return None


def _check_nilpotency(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, ideals.IDEAL_ENUM_BOUND, unsafe)
    for k in ks:
        idx = ideals.nilpotency_index(_ctx(k, mutant), max_k=limit)
        guarantee = 1
        while (1 << guarantee) <= k:
            guarantee += 1
        if idx > guarantee:
            return f"k={k}: nilpotency index {idx} exceeds guarantee {guarantee}"
    return None


def _poly_pool(ctx: SemiringCtx):
    elems = ctx.elements()
    return [
        series.make_poly(ctx, cs)
        for cs in product(elems, repeat=3)
    ]


def _check_poly_units(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    for k in range(1, min(k_max, _SWEEP_POLY_K) + 1):
        ctx = _ctx(k, mutant)
        one = series.Poly.one(ctx)
        constants = [series.Poly.constant(ctx, c) for c in ctx.elements()]
        for f in _poly_pool(ctx):
            # degree additivity confines inverses to constants
            invertible = any((f * c) == one for c in constants)
            if invertible != f.is_unit() or invertible != (f == one):
                return f"k={k}: unit status of {f.render()} is wrong"
    return None


def _check_poly_idempotents(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    for k in range(1, min(k_max, _SWEEP_POLY_K) + 1):
        ctx = _ctx(k, mutant)
        allowed = {series.Poly.zero(ctx), series.Poly.one(ctx), series.Poly.constant(ctx, MANY)}
        for f in _poly_pool(ctx):
            if f.is_idempotent() != (f in allowed):
                return f"k={k}: idempotency of {f.render()} is wrong"
    return None


def _check_degree_morphism(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    for k in range(1, min(k_max, _SWEEP_POLY_K) + 1):
        ctx = _ctx(k, mutant)
        pool = _poly_pool(ctx)
        zero = series.Poly.zero(ctx)
        for f in pool:
            for g in pool:
                if (f + g).degree() != max(f.degree(), g.degree()):
                    return f"k={k}: degree of sum breaks at {f.render()}, {g.render()}"
                fg = f * g
                if fg.degree() != f.degree() + g.degree():
                    return f"k={k}: degree of product breaks at {f.render()}, {g.render()}"
                if f != zero and g != zero and fg == zero:
                    return f"k={k}: zero divisors at {f.render()}, {g.render()}"
    return None


def _check_window_idempotency(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    depth = _SWEEP_WINDOW_DEPTH
    for k in range(1, min(k_max, _SWEEP_WINDOW_K) + 1):
        ctx = _ctx(k, mutant)
        for codes in product(range(ctx.size), repeat=depth + 1):
            f = series.TruncSeries(ctx, depth, codes)
            if f.squares_to_self() != f.has_idempotent_shape():
                return f"k={k}: idempotency tests disagree on {f.render()}"
        built = series.idempotent_series_from_generators(ctx, MANY, [2, 3], depth)
        if not built.squares_to_self():
            return f"k={k}: generated window is not idempotent"
    return None


def _check_quadratics(k_max: int, mutant, unsafe: bool) -> Optional[str]:
    ks, limit = _bounded(k_max, series.ORACLE_BOUND, unsafe)
    for k in ks:
        ctx = _ctx(k, mutant)
        for alpha in ctx.nonzero_elements():
            for beta in ctx.elements():
                closed = series.quadratic_irreducible(ctx, alpha, beta)
                witness = series.factorization_oracle(
                    series.quadratic(ctx, alpha, beta), max_k=limit
                )
                if closed != (witness is None):
                    return (
                        f"k={k}: closed form and oracle disagree at "
                        f"alpha={alpha.render()}, beta={beta.render()}"
                    )
    return None


_CHECKS = (
    ("semiring-laws", "core.laws", _check_laws),
    ("graph-diameter", "graphs.diameter", _check_graph_diameter),
    ("graph-girth", "graphs.girth", _check_graph_girth),
    ("graph-clique", "graphs.clique", _check_graph_clique),
    ("graph-chromatic", "graphs.chromatic", _check_graph_chromatic),
    ("ideal-lattice", "ideals.lattice", _check_ideal_lattice),
    ("ideal-primes", "ideals.primes", _check_ideal_primes),
    ("ideal-austere", "ideals.subtractive", _check_ideal_austere),
    ("ideal-radicals", "ideals.radical", _check_ideal_radicals),
    ("ideal-principal-primes", "ideals.principal-primes", _check_ideal_principal_primes),
    ("ideal-maximal", "ideals.maximal", _check_ideal_maximal),
    ("spectrum-sierpinski", "ideals.spectrum", _check_spectrum),
    ("localization", "ideals.localization", _check_localization),
    ("ideal-semiring", "ideals.semiring", _check_ideal_semiring),
    ("ideal-nilpotency", "ideals.nilpotency", _check_nilpotency),
    ("poly-units", "series.units", _check_poly_units),
    ("poly-idempotents", "series.idempotents", _check_poly_idempotents),
    ("degree-morphism", "series.degree", _check_degree_morphism),
    ("window-idempotency", "series.windows", _check_window_idempotency),
    ("quadratic-irreducibility", "series.quadratics", _check_quadratics),
)


def run_all_checks(k_max: int, mutant: Optional[str] = None, unsafe: bool = False) -> list:
    """Run the full theorem sweep for k = 1..k_max; one claim per property."""
    if not isinstance(k_max, int) or k_max < 1:
        raise ValueError(f"k range must end at an integer >= 1, got {k_max!r}")
    return [
        _claim(name, tag, lambda fn=fn: fn(k_max, mutant, unsafe)) for name, tag, fn in _CHECKS
    ]
