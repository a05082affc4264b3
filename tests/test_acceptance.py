"""End-to-end acceptance sweep.

One test per criterion; each prints a single PASS line with its elapsed
time (visible with ``pytest tests/test_acceptance.py -v -s``).  Stated
time budgets are asserted, so a failure here means either a wrong
result or a genuine performance regression.
"""

import itertools
import os
import subprocess
import sys
import time

from reference import ideal_elements, multiplicative_subsets

from indigo import graphs
from indigo.core import MANY, ZERO, SemiringCtx, verify_laws
from indigo.ideals import (
    enumerate_ideals,
    ideal_generated,
    ideal_semiring,
    is_prime,
    is_subtractive,
    localize,
    nilpotency_index,
    radical,
    spectrum,
)
from indigo.series import (
    Poly,
    TruncSeries,
    factorization_oracle,
    make_poly,
    make_series,
    quadratic,
    quadratic_irreducible,
    ts_is_idempotent_window,
)


def report(number: int, label: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget:.0f}s ({elapsed:.2f}s)"
    print(f"criterion {number} PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_semiring_laws():
    started = time.perf_counter()
    for k in range(1, 65):
        reports = verify_laws(SemiringCtx(k))
        assert len(reports) == 14
        for r in reports:
            assert r.holds, f"k={k}: {r.law} fails at {r.counterexample}"
            assert r.counterexample is None
    report(1, "all semiring laws hold for k = 1..64", started, budget=5.0)


def test_criterion_2_graph_invariants():
    started = time.perf_counter()
    for k in range(1, 25):
        g = graphs.build_graph(k)
        assert graphs.diameter(g) == (1 if k == 1 else 2)
        assert graphs.girth(g) == (graphs.INFINITE if k <= 2 else 3)
        # a largest clique is m and the run s..k, with s the least s where s * (s + 1) > k
        s = next(s for s in range(1, k + 1) if s * (s + 1) > k)
        assert graphs.clique_number(g) == graphs.chromatic_number(g) == k - s + 2
    report(2, "diameter, girth, clique and chromatic numbers for k = 1..24", started, budget=10.0)


def test_criterion_3_ideal_lattice():
    started = time.perf_counter()
    for k in range(1, 13):
        c = SemiringCtx(k)
        lattice = enumerate_ideals(c)
        complement_of_one = frozenset(e for e in c.elements() if e != c.one)
        for ideal in lattice:
            if not ideal.is_zero:
                assert MANY in ideal_elements(ideal)
            assert is_subtractive(c, ideal) == (ideal.is_zero or ideal.is_whole)
            if not ideal.is_zero and ideal.is_proper:
                assert ideal_elements(radical(c, ideal)) == complement_of_one
        primes = {ideal_elements(i) for i in lattice if is_prime(c, i)}
        assert primes == {frozenset((ZERO,)), complement_of_one}
        has_principal_prime = any(
            not (p := ideal_generated(c, [a])).is_zero and is_prime(c, p)
            for a in c.nonzero_elements()
        )
        assert has_principal_prime == (k <= 2)
    report(3, "ideal lattice structure for k = 1..12", started, budget=30.0)


def test_criterion_4_spectrum():
    started = time.perf_counter()
    for k in range(1, 13):
        view = spectrum(SemiringCtx(k))
        assert len(view.points) == 2
        assert len(view.closed_sets) == 3
        assert view.is_sierpinski
    report(4, "spectrum is the Sierpinski space for k = 1..12", started)


def test_criterion_5_localization():
    started = time.perf_counter()
    for k in range(2, 9):
        c = SemiringCtx(k)
        seen_saturating = 0
        for subset in multiplicative_subsets(c):
            loc = localize(c, subset)
            assert loc.is_entire()
            assert loc.is_zerosumfree()
            if any(u.kind == "fin" and u.value > 1 for u in subset):
                seen_saturating += 1
                assert loc.class_count == 2
                assert loc.is_boolean()
        assert seen_saturating > 0
        trivial = localize(c, [c.one])
        assert trivial.class_count == c.size
        assert trivial.matches_ambient()
    report(5, "every localization collapses or reproduces as stated, k = 2..8", started)


def test_criterion_6_ideal_semiring():
    started = time.perf_counter()
    for k in range(1, 11):
        c = SemiringCtx(k)
        ids = ideal_semiring(c)
        assert ids.is_additively_idempotent()
        assert ids.is_zerosumfree()
        assert ids.is_entire()
        assert ids.least_nonzero_absorbs()
        guarantee = 1
        while (1 << guarantee) <= k:
            guarantee += 1
        assert nilpotency_index(c) <= guarantee
    report(6, "ideal semiring is an information algebra with nilpotent monoid, k = 1..10", started)


def all_polys(ctx, max_deg):
    yield make_poly(ctx, ())
    elems = ctx.elements()
    for length in range(1, max_deg + 2):
        for coeffs in itertools.product(elems, repeat=length):
            if coeffs[-1] != ZERO:
                yield make_poly(ctx, coeffs)


def test_criterion_7_polynomials_and_windows():
    started = time.perf_counter()
    for k in range(1, 5):
        c = SemiringCtx(k)
        pool = list(all_polys(c, 2))
        one = make_poly(c, (c.one,))
        invertible = set()
        idempotent = set()
        for f in pool:
            if f * f == f:
                idempotent.add(f)
            for g in pool:
                if f * g == one:
                    invertible.add(f)
                fg = f * g
                assert fg.degree() == f.degree() + g.degree()
                assert (f + g).degree() == max(f.degree(), g.degree())
        assert invertible == {one}
        assert idempotent == {make_poly(c, ()), one, make_poly(c, (MANY,))}
    for k in range(1, 4):
        c = SemiringCtx(k)
        constant_one = {d: make_series(c, d, (c.one,)) for d in range(7)}
        for depth in range(0, 7):
            units = 0
            for codes in itertools.product(range(c.size), repeat=depth + 1):
                s = TruncSeries(c, depth, codes)
                # raises if the structural test and direct squaring disagree
                ts_is_idempotent_window(s)
                if s.is_unit():
                    units += 1
                    assert s == constant_one[depth]
            assert units == 1
    # semantic cross-check of window units on a small subdomain
    c = SemiringCtx(2)
    windows = [
        TruncSeries(c, 2, codes) for codes in itertools.product(range(c.size), repeat=3)
    ]
    one_window = make_series(c, 2, (c.one,))
    for s in windows:
        semantic = any(s * t == one_window for t in windows)
        assert s.is_unit() == semantic
    report(7, "polynomial and window characterizations, exhaustive", started, budget=60.0)


def test_criterion_8_quadratic_irreducibility():
    started = time.perf_counter()
    for k in range(1, 7):
        c = SemiringCtx(k)
        for alpha in c.nonzero_elements():
            for beta in c.elements():
                f = quadratic(c, alpha, beta)
                witness = factorization_oracle(f)
                assert quadratic_irreducible(c, alpha, beta) == (witness is None)
                if witness is not None:
                    g, h = witness
                    assert g * h == f
                    assert not g.is_unit() and not h.is_unit()
    report(8, "closed-form irreducibility matches the exhaustive oracle, k = 1..6", started, budget=60.0)


def test_criterion_9_cli_verify_all():
    started = time.perf_counter()
    env = {key: value for key, value in os.environ.items() if key != "INDIGO_MUTANT"}
    clean = subprocess.run(
        [sys.executable, "-m", "indigo", "verify-all", "--k-max", "8"],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "status: ok" in clean.stdout

    env["INDIGO_MUTANT"] = "add-cap"
    mutated = subprocess.run(
        [sys.executable, "-m", "indigo", "verify-all", "--k-max", "8"],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert mutated.returncode != 0
    assert "status: violated" in mutated.stdout
    assert "FAIL" in mutated.stdout
    report(9, "verify-all exits 0 clean and nonzero under an arithmetic mutation", started)
