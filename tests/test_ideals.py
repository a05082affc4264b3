import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indigo import checks, ideals
from indigo.core import MANY, ZERO, BoundExceededError, SemiringCtx, fin
from indigo.ideals import (
    IDEAL_ENUM_BOUND,
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
        if not all(c.add(a, b) in subset for a in subset for b in subset):
            continue
        if not all(c.mul(s, a) in subset for s in elems for a in subset):
            continue
        found.add(bits)
    return found


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
    assert c.add(fin(2), fin(3)) == MANY
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
    with pytest.raises(BoundExceededError):
        enumerate_ideals(ctx(IDEAL_ENUM_BOUND + 1))
    lattice = enumerate_ideals(ctx(IDEAL_ENUM_BOUND + 1), max_k=IDEAL_ENUM_BOUND + 1)
    assert lattice[0].is_zero


# --- localization -----------------------------------------------------------


def multiplicative_subsets(c):
    pool = [e for e in c.nonzero_elements() if e != c.one]
    for bits in range(1 << len(pool)):
        subset = [c.one] + [pool[i] for i in range(len(pool)) if bits >> i & 1]
        if all(c.mul(u, v) in subset for u in subset for v in subset):
            yield subset


@pytest.mark.parametrize("mutant", [None, "add-cap", "mul-cap"])
def test_sweep_unit_sets_match_scalar_reference(mutant):
    for k in range(1, 9):
        c = SemiringCtx(k, mutant=mutant)
        assert list(checks._multiplicative_subsets(c)) == list(multiplicative_subsets(c))


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
                    assert loc.add_class(img[a], img[b]) == img[c.add(a, b)]
                    assert loc.mul_class(img[a], img[b]) == img[c.mul(a, b)]


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
    ids = ideal_semiring(c)
    masks = [i.mask for i in ids.ideals]
    unions = {a | b for a in masks for b in masks}
    # one closure per principal product x * J, one per distinct union
    assert len(calls) - enumerating <= c.size * n + len(unions)


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
            assert c.mul(s, a) in ideal.members


# --- scalar oracles -----------------------------------------------------------
# Reference versions of the ideal layer, written from the definitions on
# plain Elem values with ctx.add and ctx.mul; the library computes on code
# masks through the Cayley tables.


def elem_mask(c, elems):
    return sum(1 << c.encode(e) for e in elems)


def ref_close(c, seed):
    """Least set containing zero and the seed, closed under sums and absorbing."""
    out = {ZERO, *seed}
    while True:
        grown = (
            out
            | {c.add(a, b) for a in out for b in out}
            | {c.mul(s, a) for s in c.elements() for a in out}
        )
        if grown == out:
            return frozenset(out)
        out = grown


def ref_prime(c, inside):
    outside = [e for e in c.elements() if e not in inside]
    return bool(outside) and not any(c.mul(a, b) in inside for a in outside for b in outside)


def ref_subtractive(c, inside):
    return all(b in inside for a in inside for b in c.elements() if c.add(a, b) in inside)


def ref_radical(c, inside):
    # the powers of a repeat within c.size steps, so these are all of them
    return frozenset(
        a for a in c.elements() if any(c.power(a, n) in inside for n in range(1, c.size + 1))
    )


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
            products = {c.mul(x, y) for x in inside for y in j.members}
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
        left, right = c.mul(a, v), c.mul(b, u)
        return any(c.mul(t, left) == c.mul(t, right) for t in units)

    classes = []
    for p in [(a, u) for a in c.elements() for u in units]:
        linked = [cl for cl in classes if any(related(p, q) for q in cl)]
        classes = [cl for cl in classes if cl not in linked] + [frozenset({p}).union(*linked)]
    owner = {p: cl for cl in classes for p in cl}

    def add(p, q):
        (a, u), (b, v) = p, q
        return (c.add(c.mul(a, v), c.mul(b, u)), c.mul(u, v))

    def mul(p, q):
        (a, u), (b, v) = p, q
        return (c.mul(a, b), c.mul(u, v))

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


@pytest.mark.parametrize("mutant", CONTEXTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_localization_matches_scalar_oracle(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    for subset in multiplicative_subsets(c):
        classes, tables = ref_fractions(c, subset)
        if tables is None:
            with pytest.raises(RuntimeError):
                localize(c, subset)
            continue
        loc = localize(c, subset)
        index = {frozenset(loc.class_members(i)): i for i in range(loc.class_count)}
        assert set(index) == classes
        for (x, y), z in tables[0].items():
            assert loc.add_class(index[x], index[y]) == index[z]
        for (x, y), z in tables[1].items():
            assert loc.mul_class(index[x], index[y]) == index[z]
        for a in c.elements():
            for u in subset:
                assert (a, u) in loc.class_members(loc.class_of(a, u))
