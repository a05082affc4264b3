"""The claim x fault matrix: every sweep claim against single-cell faults.

A fault puts one wrong code in one cell of the add or mul rule at order
K = 3 (``reference.cell_fault``); there are 200 of them.  Each claim's
own check runs alone with k_max = 3, so the fault shows at its last k.
This is mutation analysis of the sweep (DeMillo, Lipton and Sayward,
"Hints on test data selection", 1978): a claim that no fault can fail
checks nothing.  The laws behind ``semiring-laws`` get their own
per-law counts, since the canonical-map law alone fails under every fault.
"""

import random

import numpy as np
import pytest
from reference import (
    cell_corruptions,
    cell_fault,
    ref_degree_morphism,
    ref_poly_idempotents,
    ref_poly_units,
    ref_semiring_tables,
    ref_window_idempotency,
)

from indigo import checks, series
from indigo.core import LAW_NAMES, SemiringCtx, verify_laws
from indigo.ideals import Ideal, _closure, enumerate_ideals, ideal_semiring, localize

K = 3

# one fault that fails each claim, and the detail it fails with
WITNESSES = {
    "semiring-laws": (("add", 1, 1, 1), "k=3: law add-associative fails at (1, 1, 2)"),
    "graph-diameter": (
        ("mul", 2, 1, 4),
        "error: k=3: 1 * 2 and 2 * 1 disagree on saturation",
    ),
    "graph-girth": (("mul", 1, 4, 1), "error: k=3: 1 * m and m * 1 disagree on saturation"),
    "graph-clique": (("mul", 1, 4, 2), "error: k=3: 1 * m and m * 1 disagree on saturation"),
    "graph-chromatic": (
        ("mul", 3, 1, 4),
        "error: k=3: 1 * 3 and 3 * 1 disagree on saturation",
    ),
    "ideal-lattice": (("mul", 3, 0, 1), "k=3: {0, m} is not an ideal"),
    "ideal-primes": (("add", 0, 0, 3), "k=3: primes are ['{0, 2, 3, m}']"),
    "ideal-austere": (("add", 0, 3, 0), "k=3: subtractivity of {0} is False"),
    "ideal-radicals": (("mul", 4, 4, 0), "k=3: radical of {0} is wrong"),
    "ideal-principal-primes": (("mul", 3, 2, 3), "k=3: nonzero principal prime exists = True"),
    "ideal-maximal": (("add", 0, 4, 1), "k=3: maximality of {0} is True"),
    "spectrum-sierpinski": (("mul", 2, 0, 1), "k=3: spectrum has 0 points and 1 closed sets"),
    "localization": (
        ("add", 0, 2, 0),
        "k=3: fractions over {1} are not an information algebra",
    ),
    "ideal-semiring": (("mul", 3, 1, 2), "k=3: neutral elements broken at {0, 3, m}"),
    "ideal-nilpotency": (("mul", 3, 3, 2), "k=3: nilpotency index 3 exceeds guarantee 2"),
    "poly-units": (("add", 0, 1, 2), "k=3: unit status of 1 is wrong"),
    "poly-idempotents": (("add", 0, 1, 4), "k=3: idempotency of 1 is wrong"),
    "degree-morphism": (("mul", 3, 4, 0), "k=3: degree of product breaks at 3 X^2, m X^2"),
    "window-idempotency": (
        ("add", 4, 4, 1),
        "k=3: idempotency tests disagree on 1 + m X^5 (window depth 5)",
    ),
    "quadratic-irreducibility": (
        ("add", 0, 2, 1),
        "k=3: closed form and oracle disagree at alpha=1, beta=1",
    ),
}

# how many of the 200 faults fail each claim
FAILURE_COUNTS = {
    "semiring-laws": 200,
    "graph-diameter": 36,
    "graph-girth": 36,
    "graph-clique": 36,
    "graph-chromatic": 36,
    "ideal-lattice": 42,
    "ideal-primes": 75,
    "ideal-austere": 4,
    "ideal-radicals": 33,
    "ideal-principal-primes": 52,
    "ideal-maximal": 30,
    "spectrum-sierpinski": 73,
    "localization": 102,
    "ideal-semiring": 103,
    "ideal-nilpotency": 65,
    "poly-units": 29,
    "poly-idempotents": 18,
    "degree-morphism": 40,
    "window-idempotency": 35,
    "quadratic-irreducibility": 58,
}

# how many of the 200 faults fail each law of ``verify_laws``
LAW_FAILURE_COUNTS = {
    "add-commutative": 80,
    "add-associative": 98,
    "mul-commutative": 80,
    "mul-associative": 87,
    "distributive": 175,
    "one-identity": 36,
    "zero-identity": 36,
    "zero-absorbing": 36,
    "entire": 16,
    "zerosumfree": 24,
    "add-order-compatible": 70,
    "mul-order-compatible": 64,
    "total-order": 84,
    "canonical-map-homomorphism": 200,
}


# faults under which the ideal semiring misses {0}, {0, m} or the maximal ideal
IDEAL_SEMIRING_FAULTS = {
    ("add", 0, 0, 1): "error: k=3: {0} is not an ideal",
    ("add", 0, 4, 1): "error: k=3: {0, m} is not an ideal",
    ("add", 0, 2, 1): "k=3: {0, 2, 3, m} is not an ideal",
}


# faults under which {0} is not an ideal: the nilpotency index, read off
# the ideal semiring, now fails on them too
NILPOTENCY_FAULTS = {
    ("add", 0, 0, 4): "error: k=3: {0} is not an ideal",
    ("mul", 2, 0, 4): "error: k=3: {0} is not an ideal",
    ("mul", 4, 4, 1): "error: k=3: {0, m} is not an ideal",
}


def run_claim(check):
    return checks._run(check, K, False, SemiringCtx)


def test_every_claim_is_failed_by_its_witness_fault(monkeypatch):
    assert list(WITNESSES) == [check[0] for check in checks._CHECKS]
    assert all(c.passed for c in checks.run_all_checks(K))
    for check in checks._CHECKS:
        name = check[0]
        cell, detail = WITNESSES[name]
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        claim = run_claim(check)
        assert (claim.passed, claim.detail) == (False, detail), name


def test_total_order_is_failed_by_its_witness_fault(monkeypatch):
    # with 1 + 1 = 3 no sum 1 + c is 2, so 1 <= 2 fails in the natural order;
    # of the other laws only the canonical map sees the fault
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault("add", 1, 1, 3, K))
    reports = verify_laws(SemiringCtx(K))
    failed = {r.law: r.render_counterexample() for r in reports if not r.holds}
    assert failed == {"total-order": "1, 2", "canonical-map-homomorphism": "1, 1"}


@pytest.mark.parametrize("cell", IDEAL_SEMIRING_FAULTS)
def test_ideal_semiring_names_the_missing_ideal(monkeypatch, cell):
    (check,) = [check for check in checks._CHECKS if check[0] == "ideal-semiring"]
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
    claim = run_claim(check)
    assert (claim.passed, claim.detail) == (False, IDEAL_SEMIRING_FAULTS[cell])


@pytest.mark.parametrize("cell", NILPOTENCY_FAULTS)
def test_nilpotency_names_the_missing_ideal(monkeypatch, cell):
    (check,) = [check for check in checks._CHECKS if check[0] == "ideal-nilpotency"]
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
    claim = run_claim(check)
    assert (claim.passed, claim.detail) == (False, NILPOTENCY_FAULTS[cell])


def assert_sweep_matches_each_claim_alone(cells, monkeypatch):
    # run_all_checks shares one context, and so one ideal lattice, per k
    # across the claims; run_claim gives every claim fresh contexts
    for cell in cells:
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        swept = checks.run_all_checks(K)
        for check, claim in zip(checks._CHECKS, swept, strict=True):
            alone = run_claim(check)
            assert (claim.passed, claim.detail) == (alone.passed, alone.detail), (cell, check[0])


def test_sharing_the_lattice_changes_no_claim_report(monkeypatch):
    cells = [cell for cell, _ in WITNESSES.values()]
    cells += [*IDEAL_SEMIRING_FAULTS, *NILPOTENCY_FAULTS]
    assert_sweep_matches_each_claim_alone(cells, monkeypatch)


@pytest.mark.slow
def test_sharing_the_lattice_changes_no_claim_report_under_every_fault(monkeypatch):
    assert_sweep_matches_each_claim_alone(cell_corruptions(K), monkeypatch)


def test_equal_contexts_under_different_rules_keep_their_own_lattice(monkeypatch):
    clean = SemiringCtx(K)
    clean_masks = [i.mask for i in enumerate_ideals(clean)]
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault("mul", 3, 0, 1, K))
    faulty = SemiringCtx(K)
    assert faulty == clean
    faulty_masks = [i.mask for i in enumerate_ideals(faulty)]
    assert faulty_masks != clean_masks
    assert 1 | 1 << (K + 1) not in faulty_masks  # {0, m}, as ideal-lattice reports
    assert [i.mask for i in enumerate_ideals(clean)] == clean_masks


@pytest.mark.slow
def test_claim_fault_matrix_counts(monkeypatch):
    assert list(FAILURE_COUNTS) == [check[0] for check in checks._CHECKS]
    counts = dict.fromkeys(FAILURE_COUNTS, 0)
    faults = 0
    for cell in cell_corruptions(K):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        faults += 1
        for check in checks._CHECKS:
            counts[check[0]] += not run_claim(check).passed
    assert faults == 200
    assert counts == FAILURE_COUNTS


@pytest.mark.slow
def test_law_fault_matrix_counts(monkeypatch):
    assert list(LAW_FAILURE_COUNTS) == list(LAW_NAMES)
    counts = dict.fromkeys(LAW_NAMES, 0)
    for cell in cell_corruptions(K):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        for report in verify_laws(SemiringCtx(K)):
            counts[report.law] += not report.holds
    assert counts == LAW_FAILURE_COUNTS


def localization_one_set_at_a_time(ctx):
    """The localization claim as a loop of single ``localize`` calls: the
    oracle for the sweep's grouped build, same predicates, same texts."""
    for subset in checks._multiplicative_subsets(ctx):
        loc = localize(ctx, subset)
        names = "{" + ", ".join(u.render() for u in subset) + "}"
        if not loc.is_entire() or not loc.is_zerosumfree():
            return f"fractions over {names} are not an information algebra"
        if any(u.kind == "fin" and u.value > 1 for u in subset):
            if loc.class_count != 2 or not loc.is_boolean():
                return f"fractions over {names} are not Boolean"
        if len(subset) == 1 and not loc.matches_ambient():
            return "fractions over {1} do not reproduce the semiring"
    return None


def assert_localization_matches_one_set_at_a_time(cells, k, monkeypatch):
    (check,) = [check for check in checks._CHECKS if check[0] == "localization"]
    oracle = check[:2] + (localization_one_set_at_a_time,) + check[3:]
    failed = 0
    for cell in cells:
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, k))
        claim = checks._run(check, k, False, SemiringCtx)
        assert claim == checks._run(oracle, k, False, SemiringCtx), cell
        failed += not claim.passed
    return failed


def test_grouped_localization_reports_as_one_set_at_a_time(monkeypatch):
    failed = assert_localization_matches_one_set_at_a_time(cell_corruptions(K), K, monkeypatch)
    assert failed == FAILURE_COUNTS["localization"]


@pytest.mark.slow
def test_grouped_localization_reports_as_one_set_at_a_time_at_k8(monkeypatch):
    """A seeded sample of the 1,800 single-cell faults at K = 8."""
    cells = random.Random(0).sample(list(cell_corruptions(8)), 60)
    assert_localization_matches_one_set_at_a_time(cells, 8, monkeypatch)


def _reference_positions(ctx):
    """The reference tables with the positions of {0}, the whole semiring
    and {0, m} in them."""
    add, mul = ref_semiring_tables(ctx)
    index = _closure(ctx).index
    return add, mul, index[1], index[(1 << ctx.size) - 1], index[1 | 1 << (ctx.size - 1)]


def ideal_semiring_over_the_reference(ctx):
    """The ideal-semiring claim as Python loops over ``ref_semiring_tables``:
    the oracle for the array build and the array predicates, same checks
    in the same order, same texts."""
    add, mul, zero, full, least = _reference_positions(ctx)
    n = len(add)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if any(add[i][i] != i for i in range(n)):
        return "ideal sum is not idempotent"
    if any(add[i][j] == zero for i, j in pairs if (i, j) != (zero, zero)):
        return "ideal semiring is not zerosumfree"
    if any(mul[i][j] == zero for i, j in pairs if zero not in (i, j)):
        return "ideal semiring has zero divisors"
    if any(mul[least][i] != least for i in range(n) if i != zero):
        return "{0, m} fails to absorb nonzero ideal products"
    maximal = checks._maximal(ctx)
    if maximal not in _closure(ctx).index:
        names = ", ".join(e.render() for e in ctx.elements() if e != ctx.one)
        return f"{{{names}}} is not an ideal"
    for i, mask in enumerate(_closure(ctx).masks):
        name = Ideal._closed(ctx, mask).render()
        if add[i][zero] != i or mul[i][full] != i:
            return f"neutral elements broken at {name}"
        if i not in (zero, full) and mask & ~maximal:
            return f"{name} escapes the maximal ideal"
    return None


def nilpotency_over_the_reference(ctx):
    """The ideal-nilpotency claim as the set iteration over the product
    table of ``ref_semiring_tables``, same texts."""
    _, mul, zero, full, least = _reference_positions(ctx)
    factors = [i for i in range(len(mul)) if i not in (zero, full)]
    current, n = set(factors), 1
    while current != {least}:
        current = {mul[i][j] for i in current for j in factors}
        n += 1
        if n > 2 * ctx.k + 2:
            raise RuntimeError("nilpotency iteration failed to stabilize")
    guarantee = ctx.k.bit_length()  # the least g >= 1 with 2^g > k
    return f"nilpotency index {n} exceeds guarantee {guarantee}" if n > guarantee else None


@pytest.mark.parametrize(
    "name, oracle",
    [
        ("ideal-semiring", ideal_semiring_over_the_reference),
        ("ideal-nilpotency", nilpotency_over_the_reference),
    ],
)
def test_ideal_semiring_claims_report_as_the_reference_loops(monkeypatch, name, oracle):
    (check,) = [check for check in checks._CHECKS if check[0] == name]
    reference = check[:2] + (oracle,) + check[3:]
    failed = 0
    for cell in cell_corruptions(K):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        claim = run_claim(check)
        assert claim == run_claim(reference), cell
        failed += not claim.passed
    assert failed == FAILURE_COUNTS[name]


def test_ideal_sum_is_idempotent_and_zerosumfree_under_every_fault(monkeypatch):
    # why ideal-semiring no longer tests these: the sum is the closure of the
    # union, and a closure only adds codes and fixes every ideal
    built = 0
    for cell in cell_corruptions(K):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        try:
            ids = ideal_semiring(SemiringCtx(K))
        except RuntimeError:  # {0} or {0, m} is not an ideal
            continue
        built += 1
        at = np.arange(ids.size)
        assert ids.is_additively_idempotent(), cell
        assert ids.is_zerosumfree(), cell
        assert (ids.add_table[:, ids.zero_index] == at).all(), cell
    assert built == 152  # the other 48 faults leave {0} or {0, m} out


# the series claims and the exhaustive scans they replaced
SERIES_SCANS = {
    "poly-units": ref_poly_units,
    "poly-idempotents": ref_poly_idempotents,
    "degree-morphism": ref_degree_morphism,
    "window-idempotency": ref_window_idempotency,
}


def series_claim_and_scan(name):
    (check,) = [check for check in checks._CHECKS if check[0] == name]
    return check, check[:2] + (SERIES_SCANS[name],) + check[3:]


@pytest.mark.parametrize("name", SERIES_SCANS)
@pytest.mark.parametrize("mutant", [None, "add-cap", "mul-cap"])
def test_series_claims_read_as_the_scans_at_every_k(name, mutant):
    check, scan = series_claim_and_scan(name)
    for k in range(1, 7):
        ctx = SemiringCtx(k, mutant=mutant)
        assert check[2](ctx) == scan[2](ctx), k


def assert_series_claim_matches_the_scan(name, cells, k, monkeypatch):
    """Each claim run unsafe to k_max = k under each fault, against the
    scan; returns how many faults fail it."""
    check, scan = series_claim_and_scan(name)
    failed = 0
    for cell in cells:
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, k))
        claim = checks._run(check, k, True, SemiringCtx)
        assert claim == checks._run(scan, k, True, SemiringCtx), cell
        failed += not claim.passed
    return failed


@pytest.mark.parametrize("name", SERIES_SCANS)
def test_series_claims_report_as_the_scans(monkeypatch, name):
    failed = assert_series_claim_matches_the_scan(name, cell_corruptions(K), K, monkeypatch)
    assert failed == FAILURE_COUNTS[name]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, k",
    [
        ("poly-units", 4),
        ("poly-idempotents", 4),
        ("degree-morphism", 4),
        ("window-idempotency", 4),
        ("degree-morphism", 5),
    ],
)
def test_series_claims_report_as_the_scans_under_every_fault(monkeypatch, name, k):
    assert_series_claim_matches_the_scan(name, cell_corruptions(k), k, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("name", SERIES_SCANS)
def test_series_claims_report_as_the_scans_at_k8(monkeypatch, name):
    """A seeded sample of the 1,800 single-cell faults at K = 8."""
    cells = random.Random(0).sample(list(cell_corruptions(8)), 60)
    assert_series_claim_matches_the_scan(name, cells, 8, monkeypatch)


def test_window_prefix_search_extends_at_most_31_prefixes_a_level(monkeypatch):
    # the search squares each level's candidates once: the prefixes kept
    # from the level before, each extended by every code, so a level holds
    # at most 31 (k + 2) rows; the last level keeps up to 63 and extends none
    check, _ = series_claim_and_scan("window-idempotency")
    extended = []
    shape = series.idempotent_shape

    def counted(ctx, rows):
        extended.append(len(rows) / ctx.size)
        return shape(ctx, rows)

    monkeypatch.setattr(series, "idempotent_shape", counted)
    assert checks._run(check, 8, True, SemiringCtx).passed
    assert extended == [1, 3, 5, 7, 11, 15] * 8
    for cell in cell_corruptions(K):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, K))
        checks._run(check, K, True, SemiringCtx)
    assert max(extended) == 31
