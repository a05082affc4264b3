import ast
import functools
import inspect
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    cell_corruptions,
    cell_fault,
    multiplicative_subsets,
    ref_add,
    ref_ideal,
    ref_is_prime,
    ref_is_subtractive,
    ref_mul,
    ref_nilpotency_index,
    ref_semiring_tables,
)

from indigo import IDEAL_ENUM_BOUND, checks, ideals
from indigo.core import MANY, ZERO, SemiringCtx, fin
from indigo.ideals import (
    Ideal,
    LocalizedSemiring,
    enumerate_ideals,
    ideal_generated,
    ideal_product,
    ideal_semiring,
    ideal_sum,
    is_maximal,
    is_prime,
    is_subtractive,
    localize,
    localizations,
    nilpotency_index,
    radical,
    spectrum,
)


def ctx(k):
    return SemiringCtx(k)


def elem(t):
    return ZERO if t == 0 else MANY if t == "m" else fin(t)


def members(*tokens):
    return frozenset(elem(t) for t in tokens)


def mask(c, *tokens):
    """The code bitmask of the given elements, for ``Ideal(c, ...)``."""
    return sum(1 << c.encode(elem(t)) for t in set(tokens))


CONTEXTS = (None, "add-cap", "mul-cap")


def brute_force_ideals(c):
    """Independent oracle: closure tested directly on raw subsets, as masks."""
    elems = c.elements()
    n = len(elems)
    found = set()
    for bits in range(1 << n):
        subset = frozenset(elems[i] for i in range(n) if bits >> i & 1)
        if ZERO not in subset:
            continue
        if not all(ref_add(c, a, b) in subset for a in subset for b in subset):
            continue
        if not all(ref_mul(c, s, a) in subset for s in elems for a in subset):
            continue
        found.add(bits)
    return found


def numerical_semigroup_masks(k):
    """Exact oracle for the clean lattice: {0}, the whole semiring, and
    {0, m} together with any T within {2, ..., k} closed under every sum
    that stays <= k, which are the nonzero proper ideals (the setting of
    numerical semigroups; Rosales and Garcia-Sanchez, 2009).  A plain scan
    of the 2^(k-1) sets T; a value's bit is its code."""
    window = (1 << k + 1) - 1  # the values 0..k
    masks = {1, (1 << k + 2) - 1}
    for bits in range(1 << k - 1):
        t = bits << 2
        rest = t
        while rest and not (t << (rest & -rest).bit_length() - 1) & window & ~t:
            rest &= rest - 1
        if not rest:
            masks.add(1 | 1 << k + 1 | t)
    return masks


@pytest.mark.parametrize("k", range(1, 21))
def test_enumeration_matches_the_numerical_semigroup_oracle(k):
    # from k = 17 on this is above the CLI's enumeration bound
    assert {i.mask for i in enumerate_ideals(ctx(k))} == numerical_semigroup_masks(k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_enumeration_matches_brute_force(k):
    c = ctx(k)
    got = {i.mask for i in enumerate_ideals(c)}
    assert got == brute_force_ideals(c)


def test_small_lattices_exactly():
    assert [i.members for i in enumerate_ideals(ctx(1))] == [
        members(0),
        members(0, "m"),
        members(0, 1, "m"),
    ]
    assert [i.members for i in enumerate_ideals(ctx(2))] == [
        members(0),
        members(0, "m"),
        members(0, 2, "m"),
        members(0, 1, 2, "m"),
    ]


def test_canonical_order_is_cardinality_then_lex():
    lattice = enumerate_ideals(ctx(4))
    keys = [i.sort_key() for i in lattice]
    assert keys == sorted(keys)


def test_every_nonzero_ideal_contains_many():
    for k in range(1, 13):
        for ideal in enumerate_ideals(ctx(k)):
            if not ideal.is_zero:
                assert MANY in ideal.members
                assert members(0, "m") <= ideal.members


def test_ideal_generated_examples():
    assert ideal_generated(ctx(3), [fin(2)]).members == members(0, 2, "m")
    assert ideal_generated(ctx(1), [MANY]).members == members(0, "m")
    assert ideal_generated(ctx(4), []).members == members(0)
    assert ideal_generated(ctx(4), [fin(1)]).is_whole


def test_generated_ideal_is_least():
    for k in (2, 3, 5):
        c = ctx(k)
        lattice = enumerate_ideals(c)
        for a in c.elements():
            principal = ideal_generated(c, [a])
            assert a in principal.members
            for other in lattice:
                if a in other.members:
                    assert principal.issubset(other)


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_ideal_constructor_accepts_exactly_the_ideals(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    ideals = brute_force_ideals(c)
    for m in range(1 << c.size):
        if m in ideals:
            assert Ideal(c, m).mask == m
        else:
            with pytest.raises(ValueError):
                Ideal(c, m)
    for m in (1 << c.size, (1 << (c.size + 1)) - 1, -1):
        with pytest.raises(ValueError):
            Ideal(c, m)


def test_ideal_constructor_validates():
    c = ctx(3)
    with pytest.raises(ValueError, match="an ideal must contain zero"):
        Ideal(c, mask(c, 2))
    with pytest.raises(ValueError, match=r"not closed under addition: 2 \+ 2 escapes"):
        Ideal(c, mask(c, 0, 2))
    with pytest.raises(ValueError, match=r"not closed under addition: 1 \+ 1 escapes"):
        Ideal(c, mask(c, 0, 1, "m"))
    # under add-cap, 3 + 3 sticks at 3, so {0, 3} is closed but 2 * 3 = m escapes
    capped = SemiringCtx(3, mutant="add-cap")
    with pytest.raises(ValueError, match=r"not absorbing: 2 \* 3 escapes"):
        Ideal(capped, mask(capped, 0, 3))
    with pytest.raises(ValueError):
        Ideal(c, 1 << c.size)  # a code beyond m


def ideal_verdicts(c, m):
    """(error text, or None, then is_prime and is_subtractive of an ideal)
    from the library and from the dense-table reference."""
    try:
        ideal = Ideal(c, m)
    except ValueError as exc:
        got = (str(exc),)
    else:
        got = (None, is_prime(c, ideal), is_subtractive(c, ideal))
    try:
        ref_ideal(c, m)
    except ValueError as exc:
        want = (str(exc),)
    else:
        want = (None, ref_is_prime(c, m), ref_is_subtractive(c, m))
    return got, want


def test_ideal_predicates_match_the_dense_table_reference(monkeypatch):
    cases = 0
    for mutant in CONTEXTS:
        for k in range(1, 5):
            c = SemiringCtx(k, mutant=mutant)
            for m in range(1 << c.size):
                got, want = ideal_verdicts(c, m)
                assert got == want, (k, mutant, m)
                cases += 1
    for cell in cell_corruptions(3):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, 3))
        c = SemiringCtx(3)
        for m in range(1 << c.size):
            got, want = ideal_verdicts(c, m)
            assert got == want, (cell, m)
            cases += 1
    assert cases == 6760


def test_mask_predicates_read_the_closure_code_lists():
    """The dense tables are read only by the closure, which keeps their
    cells as code lists for every mask predicate, by the unit-set check
    and by localization (``LocalizedSemiring`` and its grouped builder
    ``_fractions``); the mask predicates build no arrays, and nilpotency
    reads the ideal semiring's product table, not the closure."""
    tree = ast.parse(inspect.getsource(ideals))
    dense_readers = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "tables":
                dense_readers.add(top.name)
            assert getattr(node, "id", getattr(node, "name", None)) != "_member"
    assert dense_readers == {"_Closure", "_unit_codes", "LocalizedSemiring", "_fractions"}
    defs = {top.name: top for top in tree.body if hasattr(top, "name")}
    for name in ("Ideal", "is_prime", "is_subtractive", "radical"):
        names = {n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)}
        assert "np" not in names, name
    assert not {"enumerate_ideals", "_Closure"} & {
        n.id for n in ast.walk(defs["nilpotency_index"]) if isinstance(n, ast.Name)
    }


def test_ideal_views_follow_the_mask():
    c = ctx(5)
    ideal = Ideal(c, mask(c, 0, 3, 5, 4, "m"))
    assert ideal.members == members(0, 3, 4, 5, "m")
    assert ideal.sorted_members() == (ZERO, fin(3), fin(4), fin(5), MANY)
    assert ideal.render() == "{0, 3, 4, 5, m}"
    assert ideal.to_json() == [0, 3, 4, 5, "m"]
    assert ideal.sort_key() == (5, (0, 3, 4, 5, 6))
    assert ideal.contains(fin(4)) and not ideal.contains(fin(2))
    with pytest.raises(ValueError):
        ideal.contains(fin(6))
    for other in enumerate_ideals(c):
        assert other.members == frozenset(e for e in c.elements() if other.contains(e))
        assert other.issubset(ideal) == (other.members <= ideal.members)


def test_primes_are_zero_and_complement_of_one():
    for k in range(1, 13):
        c = ctx(k)
        maximal = frozenset(e for e in c.elements() if e != c.one)
        prime_sets = {i.members for i in enumerate_ideals(c) if is_prime(c, i)}
        assert prime_sets == {members(0), maximal}


def test_whole_semiring_is_not_prime():
    c = ctx(3)
    whole = ideal_generated(c, [c.one])
    assert not is_prime(c, whole)


def test_smallest_nonzero_prime_iff_order_one():
    # {0, m} is prime only when it coincides with the complement of 1,
    # which happens at k = 1; at k >= 2 the witness is 2 * k = m
    for k in range(1, 9):
        c = ctx(k)
        small = Ideal(c, mask(c, 0, "m"))
        assert is_prime(c, small) == (k == 1)


def test_principal_prime_exists_iff_k_at_most_2():
    for k in range(1, 10):
        c = ctx(k)
        found = any(
            not (p := ideal_generated(c, [a])).is_zero and is_prime(c, p)
            for a in c.nonzero_elements()
        )
        assert found == (k <= 2)


def test_order_one_identities():
    # at k = 1 the ideal generated by m is both {0, m} and the complement of 1
    c = ctx(1)
    principal_m = ideal_generated(c, [MANY])
    assert principal_m.members == members(0, "m")
    assert principal_m.members == frozenset(e for e in c.elements() if e != c.one)
    assert is_prime(c, principal_m)
    assert is_maximal(c, principal_m)


def test_maximality():
    for k in range(1, 10):
        c = ctx(k)
        maximal = frozenset(e for e in c.elements() if e != c.one)
        for ideal in enumerate_ideals(c):
            assert is_maximal(c, ideal) == (ideal.members == maximal)


def test_smallest_nonzero_not_maximal_at_k5():
    c = ctx(5)
    small = Ideal(c, mask(c, 0, "m"))
    assert not is_maximal(c, small)
    between = Ideal(c, mask(c, 0, 5, "m"))
    assert small.issubset(between) and between.is_proper


def test_austere_only_trivial_subtractive():
    for k in range(1, 13):
        c = ctx(k)
        for ideal in enumerate_ideals(c):
            assert is_subtractive(c, ideal) == (ideal.is_zero or ideal.is_whole)


def test_subtractivity_failure_witness():
    # 2 + 3 = m lies in {0, m} but 3 does not
    c = ctx(4)
    small = Ideal(c, mask(c, 0, "m"))
    assert ref_add(c, fin(2), fin(3)) == MANY
    assert not is_subtractive(c, small)


def test_radicals():
    for k in range(1, 13):
        c = ctx(k)
        maximal = frozenset(e for e in c.elements() if e != c.one)
        for ideal in enumerate_ideals(c):
            rad = radical(c, ideal)
            if ideal.is_zero or ideal.is_whole:
                assert rad.members == ideal.members
            else:
                assert rad.members == maximal
            assert ideal.issubset(rad)


def test_spectrum_is_sierpinski():
    for k in range(1, 13):
        view = spectrum(ctx(k))
        assert len(view.points) == 2
        assert len(view.closed_sets) == 3
        assert view.is_sierpinski
        sizes = sorted(len(s) for s in view.closed_sets)
        assert sizes == [0, 1, 2]
        singleton = next(s for s in view.closed_sets if len(s) == 1)
        the_point = next(iter(singleton))
        assert the_point.members == frozenset(e for e in ctx(k).elements() if e != fin(1))


def test_spectrum_json_is_deterministic():
    a = spectrum(ctx(5)).to_json()
    b = spectrum(ctx(5)).to_json()
    assert a == b
    assert a["sierpinski"] is True
    assert a["closed_sets"] == [[], [1], [0, 1]]


def test_enumeration_bound():
    # the bound is front-end policy: the library enumerates past it
    lattice = enumerate_ideals(ctx(IDEAL_ENUM_BOUND + 1))
    assert len(lattice) == 1251 and lattice[0].is_zero


# --- localization -----------------------------------------------------------


@pytest.mark.parametrize("mutant", CONTEXTS)
def test_sweep_unit_sets_match_scalar_reference(mutant):
    counts = []
    for k in range(1, 9):
        c = SemiringCtx(k, mutant=mutant)
        subsets = list(checks._multiplicative_subsets(c))
        assert subsets == list(multiplicative_subsets(c)), k
        counts.append(len(subsets))
    if mutant is None:
        assert counts == [2, 3, 5, 7, 13, 23, 45, 77]


def test_localize_validates_unit_set():
    c = ctx(3)
    with pytest.raises(ValueError):
        localize(c, [])
    with pytest.raises(ValueError):
        localize(c, [fin(2), MANY])  # missing 1
    with pytest.raises(ValueError):
        localize(c, [fin(1), ZERO])
    with pytest.raises(ValueError):
        localize(c, [fin(1), fin(2)])  # 2 * 2 = m escapes


def test_localization_with_saturating_denominator_is_boolean():
    loc = localize(ctx(3), [fin(1), fin(2), MANY])
    assert loc.class_count == 2
    assert loc.is_boolean()
    assert loc.zero_index != loc.one_index


def test_boolean_for_every_unit_set_with_finite_denominator():
    for k in range(2, 9):
        c = ctx(k)
        for subset in multiplicative_subsets(c):
            if not any(u.kind == "fin" and u.value > 1 for u in subset):
                continue
            loc = localize(c, subset)
            assert loc.class_count == 2
            assert loc.is_boolean()


def boolean_by_bijection_search(loc):
    """Some bijection onto the Boolean semiring's {0, 1} keeps zero, one and
    both tables."""
    n = loc.class_count
    boolean = (((0, 1), (1, 1)), ((0, 0), (0, 1)))  # add, mul
    return n == 2 and any(
        perm[loc.zero_index] == 0
        and perm[loc.one_index] == 1
        and all(
            perm[table[i][j]] == want[perm[i]][perm[j]]
            for table, want in zip((loc.add_table, loc.mul_table), boolean)
            for i in range(n)
            for j in range(n)
        )
        for perm in itertools.permutations(range(n))
    )


def test_is_boolean_matches_bijection_search():
    seen = 0
    for mutant in CONTEXTS:
        for k in range(1, 9):
            c = SemiringCtx(k, mutant=mutant)
            for subset in multiplicative_subsets(c):
                seen += 1
                try:
                    loc = localize(c, subset)
                except RuntimeError:  # not representative-independent under mul-cap
                    continue
                assert loc.is_boolean() == boolean_by_bijection_search(loc), (mutant, k, subset)
    assert seen == 548


def test_trivial_localization_reproduces_the_semiring():
    for k in range(1, 9):
        loc = localize(ctx(k), [fin(1)])
        assert loc.class_count == k + 2
        assert loc.matches_ambient()


def test_every_localization_is_an_information_algebra():
    for k in range(1, 7):
        c = ctx(k)
        for subset in multiplicative_subsets(c):
            loc = localize(c, subset)
            assert loc.is_entire()
            assert loc.is_zerosumfree()


def test_localization_map_is_a_homomorphism():
    for k in (2, 3, 5):
        c = ctx(k)
        for subset in multiplicative_subsets(c):
            loc = localize(c, subset)
            img = {e: loc.class_of(e, c.one) for e in c.elements()}
            for a in c.elements():
                for b in c.elements():
                    assert loc.add_class(img[a], img[b]) == img[ref_add(c, a, b)]
                    assert loc.mul_class(img[a], img[b]) == img[ref_mul(c, a, b)]


def test_localization_collapse_by_m_over_m():
    # m/m = 1/1 forces every nonzero class together once m is inverted
    loc = localize(ctx(2), [fin(1), MANY])
    assert loc.class_count == 2
    assert loc.is_boolean()
    assert loc.class_of(MANY, MANY) == loc.one_index
    assert loc.class_of(fin(2), fin(1)) == loc.one_index


def test_localization_class_lookup_validates():
    loc = localize(ctx(2), [fin(1)])
    with pytest.raises(ValueError):
        loc.class_of(fin(2), fin(2))


# --- the semiring of ideals -------------------------------------------------


def test_ideal_sum_and_product_basics():
    c = ctx(2)
    small = Ideal(c, mask(c, 0, "m"))
    principal2 = Ideal(c, mask(c, 0, 2, "m"))
    assert ideal_product(small, principal2).members == members(0, "m")
    assert ideal_sum(small, principal2).members == members(0, 2, "m")
    with pytest.raises(ValueError):
        ideal_sum(small, Ideal(ctx(3), mask(ctx(3), 0, "m")))


def with_cell(table, i, j, value):
    """A copy of ``table`` with ``value`` in cell (i, j), in the same form:
    a numpy array, or a tuple of tuples."""
    cells = np.array(table)
    cells[i, j] = value
    return cells if isinstance(table, np.ndarray) else tuple(map(tuple, cells.tolist()))


TABLE_FORMS = (lambda t: tuple(map(tuple, np.asarray(t).tolist())), np.array)  # tuples, array


def test_entire_and_zerosumfree_find_a_single_witness():
    # both structures share the two checks; in a tuple or an array table
    # one planted zero must flip each, except in the cells they ignore: a
    # product with the zero (its row and column) for entire, zero + zero
    # for zerosumfree
    for as_form, s in itertools.product(
        TABLE_FORMS, (ideal_semiring(ctx(3)), localize(ctx(3), [fin(1)]))
    ):
        z = s.zero_index
        clean = s.add_table, s.mul_table = tuple(map(as_form, (s.add_table, s.mul_table)))
        assert s.is_entire() and s.is_zerosumfree()
        for a, b in np.ndindex(len(clean[0]), len(clean[0])):
            s.mul_table = with_cell(clean[1], a, b, z)
            assert s.is_entire() == (z in (a, b)) and s.is_zerosumfree(), (a, b)
            s.mul_table = clean[1]
            s.add_table = with_cell(clean[0], a, b, z)
            assert s.is_entire() and s.is_zerosumfree() == (a == b == z), (a, b)
            s.add_table = clean[0]
    # a zero away from position 0, in a table with no other zero cell
    for as_form, z in itertools.product(TABLE_FORMS, range(3)):
        blank = as_form(np.full((3, 3), 3))
        for a, b in np.ndindex(3, 3):
            planted = with_cell(blank, a, b, z)
            assert ideals._is_entire(planted, z) == (z in (a, b)), (z, a, b)
            assert ideals._is_zerosumfree(planted, z) == (a == b == z), (z, a, b)
    for as_form, cell in itertools.product(TABLE_FORMS, (0, 1)):
        one = as_form([[cell]])  # its one cell is zero * zero and zero + zero
        assert ideals._is_entire(one, 0) and ideals._is_zerosumfree(one, 0)


def test_ideal_semiring_properties():
    for k in range(1, 11):
        ids = ideal_semiring(ctx(k))
        assert ids.is_additively_idempotent()
        assert ids.is_zerosumfree()
        assert ids.is_entire()
        assert ids.least_nonzero_absorbs()
        z, o = ids.zero_index, ids.one_index
        for i in range(ids.size):
            assert ids.add_table[i][z] == i
            assert ids.mul_table[i][o] == i
            assert ids.add_table[i][i] == i


def test_ideal_chain():
    # {0} <= {0, m} <= I <= complement of 1 <= whole, for nonzero proper I
    for k in (1, 3, 6, 10):
        c = ctx(k)
        maximal = frozenset(e for e in c.elements() if e != c.one)
        small = members(0, "m")
        for ideal in enumerate_ideals(c):
            if ideal.is_zero or ideal.is_whole:
                continue
            assert small <= ideal.members <= maximal


def test_sum_with_larger_is_absorption():
    # inclusion order matches the additive order: I + J = J when I <= J
    c = ctx(4)
    lattice = enumerate_ideals(c)
    for a in lattice:
        for b in lattice:
            if a.issubset(b):
                assert ideal_sum(a, b).members == b.members


def assert_tables_match_the_reference(c):
    """The array build of the ideal-semiring tables equals
    ``ref_semiring_tables`` cell by cell, or raises the same
    ``RuntimeError``; whether the tables were built."""
    try:
        want = ref_semiring_tables(c)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError) as got:
            ideal_semiring(c)
        assert str(got.value) == str(exc)
        return False
    ids = ideal_semiring(c)
    for table, ref in zip((ids.add_table, ids.mul_table), want, strict=True):
        assert table.shape == (ids.size, ids.size) and not table.flags.writeable
        assert table.tolist() == list(map(list, ref))
    return True


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", range(1, 13))
def test_ideal_semiring_tables_match_the_reference_build(k, mutant):
    assert assert_tables_match_the_reference(SemiringCtx(k, mutant=mutant))


@pytest.mark.slow
@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", range(13, 17))
def test_ideal_semiring_tables_match_the_reference_build_at_large_k(k, mutant):
    assert assert_tables_match_the_reference(SemiringCtx(k, mutant=mutant))


def test_ideal_semiring_tables_match_the_reference_build_under_every_cell_fault(monkeypatch):
    built = 0
    for cell in cell_corruptions(3):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, 3))
        built += assert_tables_match_the_reference(SemiringCtx(3))
    assert 0 < built < 200  # both the tables and the error are compared


def test_ideal_semiring_claim_reports_the_first_ideal_at_fault(monkeypatch):
    # the claim reads its neutral and inclusion checks off the tables and
    # reports the first ideal at fault; at one ideal, a broken neutral
    # element comes before an escape
    c = ctx(3)
    ids = ideal_semiring(c)
    top = ids.index_of(Ideal(c, checks._maximal(c)))
    least, full = ids.ls_index, ids.one_index
    middle = top - 1  # {0, 3, m}, after {0, m}
    monkeypatch.setattr(ideals, "ideal_semiring", lambda _: ids)
    clean = {"add_table": ids.add_table, "mul_table": ids.mul_table}
    for cells, want in (
        ([("add_table", least, top)], "{0, m} escapes the maximal ideal"),
        (
            [("add_table", middle, top), ("mul_table", middle, full)],
            "neutral elements broken at {0, 3, m}",
        ),
        (
            [("add_table", least, top), ("mul_table", middle, full)],
            "{0, m} escapes the maximal ideal",  # the first
        ),
    ):
        vars(ids).update(clean)
        for table, i, j in cells:
            setattr(ids, table, with_cell(getattr(ids, table), i, j, full))
        assert checks._ideal_semiring(c) == want, cells


def test_ideal_semiring_tables_need_masks_of_at_most_64_bits():
    # k = 63 has 65 codes, so its whole-semiring mask leaves uint64
    close = ideals._closure(SemiringCtx(63))
    chain = (1, 1 | 1 << 64, (1 << 65) - 1)  # {0}, {0, m}, everything: no enumeration
    close.__dict__.update(masks=chain, index={m: i for i, m in enumerate(chain)})
    with pytest.raises(OverflowError):
        close.semiring_tables


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", range(1, 9))
def test_ideal_semiring_tables_match_pairwise_operations(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    ids = ideal_semiring(c)
    for i, a in enumerate(ids.ideals):
        for j, b in enumerate(ids.ideals):
            assert ids.add_table[i][j] == ids.index_of(ideal_sum(a, b))
            assert ids.mul_table[i][j] == ids.index_of(ideal_product(a, b))


def ref_nilpotency(c):
    """The iteration of ``nilpotency_index`` with one ``ideal_product`` per
    pair of ideals; None where it does not stabilize."""
    product = functools.cache(ideal_product)  # the iterations revisit pairs
    factors = [i for i in enumerate_ideals(c) if not i.is_zero and not i.is_whole]
    current = set(factors)
    n = 1
    while current != {Ideal(c, mask(c, 0, "m"))}:
        current = {product(a, b) for a in current for b in factors}
        n += 1
        if n > 2 * c.k + 2:
            return None
    return n


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", range(1, 11))
def test_nilpotency_index_matches_pairwise_products(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    want = ref_nilpotency(c)
    if want is None:
        with pytest.raises(RuntimeError, match="failed to stabilize"):
            nilpotency_index(c)
    else:
        assert nilpotency_index(c) == want


def nilpotency_outcome(find, c):
    """The index ``find`` gives at c, or the text of the error it raises."""
    try:
        return find(c)
    except RuntimeError as exc:
        return str(exc)


@pytest.mark.parametrize("mutant", CONTEXTS)
def test_nilpotency_index_matches_the_set_iteration(mutant):
    for k in range(1, 17):
        c = SemiringCtx(k, mutant=mutant)
        want = nilpotency_outcome(ref_nilpotency_index, c)
        assert nilpotency_outcome(nilpotency_index, c) == want, k


def test_nilpotency_index_matches_the_set_iteration_under_every_fault(monkeypatch):
    outcomes = set()
    for cell in cell_corruptions(3):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, 3))
        c = SemiringCtx(3)
        want = nilpotency_outcome(ref_nilpotency_index, c)
        assert nilpotency_outcome(nilpotency_index, c) == want, cell
        outcomes.add(want)
    assert outcomes >= {2, 3, "nilpotency iteration failed to stabilize"}


@pytest.mark.parametrize("mutant", CONTEXTS)
def test_ideal_layer_cost_is_output_sensitive(monkeypatch, mutant):
    calls = []  # every ideal closure, including those of products
    close = ideals._Closure.__call__

    def counted(self, seed):
        calls.append(seed)
        return close(self, seed)

    monkeypatch.setattr(ideals._Closure, "__call__", counted)
    for k in (1, 4, 8, 12, 16):
        c = SemiringCtx(k, mutant=mutant)
        calls.clear()
        lattice = enumerate_ideals(c)
        assert len(calls) <= c.size * len(lattice)  # NextClosure: at most size per ideal
    c = SemiringCtx(12, mutant=mutant)
    calls.clear()
    n = len(enumerate_ideals(c))
    enumerating = len(calls)
    calls.clear()
    ids = ideal_semiring(c)  # reads the lattice enumerated above
    masks = [i.mask for i in ids.ideals]
    unions = {a | b for a in masks for b in masks}
    mul = c.tables()[1].tolist()
    seeds = {  # the products x * y over y in J, for each code x and ideal J
        functools.reduce(int.__or__, (1 << mul[x][y] for y in range(c.size) if b >> y & 1))
        for x in range(c.size)
        for b in masks
    }
    # at most one closure per distinct union and one per distinct seed of
    # a principal product x * J: far fewer than one per pair
    assert len(calls) <= len(unions) + len(seeds) < n * n
    assert enumerating > 0


@pytest.mark.parametrize("mutant", CONTEXTS)
def test_sweep_builds_one_ideal_lattice_per_k(monkeypatch, mutant):
    # every claim at one k reads the lattice of that k's shared context
    counts = dict.fromkeys(("enumerations", "closures", "tables"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(ideals, "_next_closures", counted("enumerations", ideals._next_closures))
    monkeypatch.setattr(ideals._Closure, "__init__", counted("closures", ideals._Closure.__init__))
    tables = ideals._Closure.semiring_tables  # a cached_property; count its builds
    monkeypatch.setattr(tables, "func", counted("tables", tables.func))
    checks.run_all_checks(8, mutant=mutant)
    assert counts == {"enumerations": 8, "closures": 8, "tables": 8}


def test_closure_paths_never_enumerate(monkeypatch):
    # the closure is O(k^2) and the lattice exponential in k: generating,
    # summing, multiplying and taking radicals must not enumerate
    def refuse(close, n):
        raise AssertionError("enumerated the lattice")

    monkeypatch.setattr(ideals, "_next_closures", refuse)
    c = ctx(400)
    three = ideal_generated(c, [fin(3)])
    seven = ideal_generated(c, [fin(7)])
    assert three.contains(fin(399)) and not three.contains(fin(400))
    assert ideal_sum(three, seven).contains(fin(10))
    assert not ideal_product(three, seven).contains(fin(20))
    assert ideal_product(three, seven).contains(fin(21))
    assert radical(c, three).mask == (1 << c.size) - 1 & ~(1 << c.encode(c.one))


def test_closure_output_is_not_validated_again(monkeypatch):
    # closure output is an ideal by construction, which the NextClosure
    # against scan tests check; only other masks go through validation
    def refuse(self):
        raise AssertionError("validated a closed mask")

    c = ctx(8)
    monkeypatch.setattr(Ideal, "__post_init__", refuse)
    lattice = enumerate_ideals(c)
    assert ideal_sum(lattice[2], lattice[3]) in lattice
    assert ideal_product(lattice[-1], lattice[-2]) in lattice
    assert ideal_generated(c, [fin(3)]) in lattice
    assert spectrum(c).is_sierpinski
    assert nilpotency_index(c) == 4
    with pytest.raises(AssertionError, match="validated"):
        Ideal(c, 1)


def test_nilpotency_index_values():
    assert [nilpotency_index(ctx(k)) for k in range(1, 11)] == [1, 2, 2, 3, 3, 3, 3, 4, 4, 4]


def test_nilpotency_guarantee():
    for k in range(1, 13):
        idx = nilpotency_index(ctx(k))
        guarantee = 1
        while (1 << guarantee) <= k:
            guarantee += 1
        assert idx <= guarantee
        assert 1 << idx > k or idx < guarantee


@given(st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_property_generated_ideals_absorb(k, data):
    c = SemiringCtx(k)
    pool = list(c.elements())
    gens = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=3))
    ideal = ideal_generated(c, gens)
    for g in gens:
        assert g in ideal.members
    for s in pool:
        for a in ideal.members:
            assert ref_mul(c, s, a) in ideal.members


# --- scalar oracles -----------------------------------------------------------
# Reference versions of the ideal layer, written from the definitions on
# plain Elem values with the reference ref_add and ref_mul; the library
# computes on code masks through the Cayley tables.


def elem_mask(c, elems):
    return sum(1 << c.encode(e) for e in elems)


def ref_close(c, seed):
    """Least set containing zero and the seed, closed under sums and absorbing."""
    out = {ZERO, *seed}
    while True:
        grown = (
            out
            | {ref_add(c, a, b) for a in out for b in out}
            | {ref_mul(c, s, a) for s in c.elements() for a in out}
        )
        if grown == out:
            return frozenset(out)
        out = grown


def ref_prime(c, inside):
    outside = [e for e in c.elements() if e not in inside]
    return bool(outside) and not any(ref_mul(c, a, b) in inside for a in outside for b in outside)


def ref_subtractive(c, inside):
    return all(b in inside for a in inside for b in c.elements() if ref_add(c, a, b) in inside)


def ref_powers(c, a):
    """a, a^2, ..., a^size: the powers repeat within c.size steps, so these are all of them."""
    out = [a]
    while len(out) < c.size:
        out.append(ref_mul(c, out[-1], a))
    return out


def ref_radical(c, inside):
    return frozenset(a for a in c.elements() if any(p in inside for p in ref_powers(c, a)))


def ref_maximal(c, inside, lattice):
    whole = frozenset(c.elements())
    return inside != whole and not any(inside < j.members < whole for j in lattice)


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_ideal_layer_matches_scalar_oracles(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    lattice = enumerate_ideals(c)
    ideal_masks = brute_force_ideals(c)
    for a in c.elements():
        assert ideal_generated(c, [a]).members == ref_close(c, [a])
    for i in lattice:
        inside = i.members
        assert is_prime(c, i) == ref_prime(c, inside)
        assert is_subtractive(c, i) == ref_subtractive(c, inside)
        want = ref_radical(c, inside)
        if elem_mask(c, want) in ideal_masks:
            assert radical(c, i).members == want
        else:
            with pytest.raises(ValueError):
                radical(c, i)
        for j in lattice:
            assert ideal_sum(i, j).members == ref_close(c, inside | j.members)
            products = {ref_mul(c, x, y) for x in inside for y in j.members}
            assert ideal_product(i, j).members == ref_close(c, products)


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", range(1, 11))
def test_maximality_matches_enumeration(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    lattice = enumerate_ideals(c)
    for ideal in lattice:
        assert is_maximal(c, ideal) == ref_maximal(c, ideal.members, lattice)


def ref_fractions(c, units):
    """Classes of the fraction relation, and the class tables; the tables
    are None when an operation depends on the representatives."""

    def related(p, q):
        (a, u), (b, v) = p, q
        left, right = ref_mul(c, a, v), ref_mul(c, b, u)
        return any(ref_mul(c, t, left) == ref_mul(c, t, right) for t in units)

    classes = []
    for p in [(a, u) for a in c.elements() for u in units]:
        linked = [cl for cl in classes if any(related(p, q) for q in cl)]
        classes = [cl for cl in classes if cl not in linked] + [frozenset({p}).union(*linked)]
    owner = {p: cl for cl in classes for p in cl}

    def add(p, q):
        (a, u), (b, v) = p, q
        return (ref_add(c, ref_mul(c, a, v), ref_mul(c, b, u)), ref_mul(c, u, v))

    def mul(p, q):
        (a, u), (b, v) = p, q
        return (ref_mul(c, a, b), ref_mul(c, u, v))

    tables = []
    for op in (add, mul):
        table = {}
        for x in classes:
            for y in classes:
                results = {owner[op(p, q)] for p in x for q in y}
                if len(results) != 1:
                    return set(classes), None
                table[x, y] = results.pop()
        tables.append(table)
    return set(classes), tables


def localized_in_turn(c, subsets):
    """(subset, fractions or the error) for each subset, from ``localizations``
    restarted after each set it rejects."""
    rest = list(subsets)
    while rest:
        built = localizations(c, rest)
        for done, subset in enumerate(rest, 1):
            try:
                yield subset, next(built)
            except RuntimeError as exc:
                yield subset, exc
                break
        rest = rest[done:]


def same_fractions(x, y):
    return (
        x.unit_set == y.unit_set
        and (x.add_table, x.mul_table) == (y.add_table, y.mul_table)
        and (x.zero_index, x.one_index) == (y.zero_index, y.one_index)
        and np.array_equal(x._class_at, y._class_at)
        and all(x.class_members(i) == y.class_members(i) for i in range(x.class_count))
    )


def assert_matches_oracle(c, subset, loc, classes, tables):
    index = {frozenset(loc.class_members(i)): i for i in range(loc.class_count)}
    assert set(index) == classes
    for (x, y), z in tables[0].items():
        assert loc.add_class(index[x], index[y]) == index[z]
    for (x, y), z in tables[1].items():
        assert loc.mul_class(index[x], index[y]) == index[z]
    for a in c.elements():
        for u in subset:
            assert (a, u) in loc.class_members(loc.class_of(a, u))


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_localization_matches_scalar_oracle(k, mutant):
    """Both build paths against the scalar oracle: ``localize`` one set at a
    time, and ``localizations`` over every set at once in a shuffled order
    that mixes the sizes of U."""
    c = SemiringCtx(k, mutant=mutant)
    subsets = list(multiplicative_subsets(c))
    random.Random(k).shuffle(subsets)
    for subset, batched in localized_in_turn(c, subsets):
        classes, tables = ref_fractions(c, subset)
        if tables is None:
            with pytest.raises(RuntimeError) as alone:
                localize(c, subset)
            assert type(batched) is RuntimeError and str(batched) == str(alone.value)
            continue
        loc = localize(c, subset)
        assert_matches_oracle(c, subset, loc, classes, tables)
        assert same_fractions(batched, loc), subset


def test_localizations_split_a_group_into_bounded_batches(monkeypatch):
    """At k = 8 the 21 sets with |U| = 5 hold 21 * 2500 (set, pair, pair)
    cells, so they are built in batches of at most ``_BATCH_CELLS``; every
    set still matches the oracle and its own ``localize``."""
    c = ctx(8)
    subsets = list(multiplicative_subsets(c))
    random.Random(8).shuffle(subsets)
    shapes = []
    build = ideals._fractions

    def spy(ctx, units):
        shapes.append(units.shape)
        return build(ctx, units)

    monkeypatch.setattr(ideals, "_fractions", spy)
    batched = list(localizations(c, subsets))
    per_set = (c.size * 5) ** 2
    assert per_set == 2500 and 21 * per_set > ideals._BATCH_CELLS
    assert sorted(count for count, size in shapes if size == 5) == [3, 6, 6, 6]
    assert all(count * (c.size * size) ** 2 <= ideals._BATCH_CELLS for count, size in shapes)
    for subset, loc in zip(subsets, batched, strict=True):
        if len(subset) == 5:
            assert_matches_oracle(c, subset, loc, *ref_fractions(c, subset))
        assert same_fractions(loc, localize(c, subset)), subset


def test_localizations_raise_a_rejected_set_in_turn():
    """A set ``localize`` rejects raises the same error at its position, after
    the sets before it are yielded."""
    c = ctx(3)
    good = [fin(1), fin(2), MANY]
    for bad, wants in (
        ([fin(1), fin(2)], "U is not multiplicatively closed: 2 * 2 escapes"),
        ([fin(1), ZERO], "U must not contain zero"),
        ([fin(9)], "element 9 exceeds order k=3"),
    ):
        built = localizations(c, [good, [fin(1)], bad, good])
        assert next(built).is_boolean() and next(built).matches_ambient()
        with pytest.raises(ValueError) as exc:
            next(built)
        assert str(exc.value) == wants
        with pytest.raises(ValueError) as alone:
            localize(c, bad)
        assert type(exc.value) is type(alone.value) and str(alone.value) == wants
