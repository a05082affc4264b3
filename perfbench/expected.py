"""Answers recorded from the program at the commit that introduced this benchmark.

The sweep slots hold every claim line that `indigo verify-all --k-max 8`
prints, for the pass run and for each negative-control mutant; a claim whose
line differs from its recorded line counts as a failed operation.
"""

SWEEP_CLAIMS = {
    None: (
        'claim semiring-laws [core.laws]: pass',
        'claim graph-diameter [graphs.diameter]: pass',
        'claim graph-girth [graphs.girth]: pass',
        'claim graph-clique [graphs.clique]: pass',
        'claim graph-chromatic [graphs.chromatic]: pass',
        'claim ideal-lattice [ideals.lattice]: pass',
        'claim ideal-primes [ideals.primes]: pass',
        'claim ideal-austere [ideals.subtractive]: pass',
        'claim ideal-radicals [ideals.radical]: pass',
        'claim ideal-principal-primes [ideals.principal-primes]: pass',
        'claim ideal-maximal [ideals.maximal]: pass',
        'claim spectrum-sierpinski [ideals.spectrum]: pass',
        'claim localization [ideals.localization]: pass',
        'claim ideal-semiring [ideals.semiring]: pass',
        'claim ideal-nilpotency [ideals.nilpotency]: pass',
        'claim poly-units [series.units]: pass',
        'claim poly-idempotents [series.idempotents]: pass',
        'claim degree-morphism [series.degree]: pass',
        'claim window-idempotency [series.windows]: pass',
        'claim quadratic-irreducibility [series.quadratics]: pass',
    ),
    "add-cap": (
        'claim semiring-laws [core.laws]: FAIL (k=1: law canonical-map-homomorphism fails at (1, 1))',
        'claim graph-diameter [graphs.diameter]: pass',
        'claim graph-girth [graphs.girth]: pass',
        'claim graph-clique [graphs.clique]: pass',
        'claim graph-chromatic [graphs.chromatic]: pass',
        'claim ideal-lattice [ideals.lattice]: pass',
        'claim ideal-primes [ideals.primes]: pass',
        'claim ideal-austere [ideals.subtractive]: pass',
        'claim ideal-radicals [ideals.radical]: pass',
        'claim ideal-principal-primes [ideals.principal-primes]: FAIL (k=3: nonzero principal prime exists = True)',
        'claim ideal-maximal [ideals.maximal]: pass',
        'claim spectrum-sierpinski [ideals.spectrum]: pass',
        'claim localization [ideals.localization]: pass',
        'claim ideal-semiring [ideals.semiring]: pass',
        'claim ideal-nilpotency [ideals.nilpotency]: pass',
        'claim poly-units [series.units]: pass',
        'claim poly-idempotents [series.idempotents]: pass',
        'claim degree-morphism [series.degree]: pass',
        'claim window-idempotency [series.windows]: FAIL (k=1: idempotency tests disagree on 1 + X^5 (window depth 5))',
        'claim quadratic-irreducibility [series.quadratics]: pass',
    ),
    "mul-cap": (
        'claim semiring-laws [core.laws]: FAIL (k=2: law distributive fails at (2, 1, 1))',
        'claim graph-diameter [graphs.diameter]: pass',
        'claim graph-girth [graphs.girth]: FAIL (k=3: girth inf, expected 3)',
        'claim graph-clique [graphs.clique]: FAIL (k=3: clique number 2, expected 3)',
        'claim graph-chromatic [graphs.chromatic]: pass',
        'claim ideal-lattice [ideals.lattice]: pass',
        "claim ideal-primes [ideals.primes]: FAIL (k=2: primes are ['{0, 2, m}', '{0, m}', '{0}'])",
        'claim ideal-austere [ideals.subtractive]: pass',
        'claim ideal-radicals [ideals.radical]: FAIL (k=2: radical of {0, m} is wrong)',
        'claim ideal-principal-primes [ideals.principal-primes]: FAIL (k=3: nonzero principal prime exists = True)',
        'claim ideal-maximal [ideals.maximal]: pass',
        'claim spectrum-sierpinski [ideals.spectrum]: FAIL (k=2: spectrum has 3 points and 4 closed sets)',
        'claim localization [ideals.localization]: FAIL (error: fraction operation is not representative-independent; the unit set does not yield a semiring)',
        'claim ideal-semiring [ideals.semiring]: pass',
        'claim ideal-nilpotency [ideals.nilpotency]: FAIL (error: nilpotency iteration failed to stabilize)',
        'claim poly-units [series.units]: pass',
        'claim poly-idempotents [series.idempotents]: FAIL (k=2: idempotency of 2 is wrong)',
        'claim degree-morphism [series.degree]: pass',
        'claim window-idempotency [series.windows]: FAIL (k=2: idempotency tests disagree on 2 (window depth 5))',
        'claim quadratic-irreducibility [series.quadratics]: FAIL (k=3: closed form and oracle disagree at alpha=2, beta=3)',
    ),
}

# number of ideals of the order-k semiring, k = 1..16
IDEAL_COUNTS = {1: 3, 2: 4, 3: 6, 4: 8, 5: 13, 6: 17, 7: 28, 8: 38, 9: 59, 10: 81, 11: 132, 12: 172, 13: 278, 14: 381, 15: 581, 16: 786}

NILPOTENCY_INDEX_12 = 4
