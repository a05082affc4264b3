import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    cell_corruptions,
    cell_fault,
    ref_add,
    ref_factorization,
    ref_idempotent_shape,
    ref_mul,
    sum_batch,
)

from indigo import checks, series
from indigo.core import (
    MANY,
    ZERO,
    ContextMismatchError,
    SemiringCtx,
    fin,
)
from indigo.series import (
    NEG_INFINITY,
    Poly,
    TruncSeries,
    _convolve,
    code_dtype,
    convolve_batch,
    factorization_oracle,
    first_factorizations,
    idempotent_shape,
    idempotent_series_from_generators,
    make_poly,
    make_series,
    parse_poly,
    quadratic,
    quadratic_irreducible,
    ts_is_idempotent_window,
)


def all_polys(ctx, max_deg):
    """Every polynomial of degree <= max_deg, including zero."""
    elems = ctx.elements()
    for length in range(max_deg + 2):
        if length == 0:
            yield Poly.zero(ctx)
            continue
        for coeffs in itertools.product(elems, repeat=length):
            if coeffs[-1] == ZERO:
                continue
            yield make_poly(ctx, coeffs)


def all_windows(ctx, depth):
    for codes in itertools.product(range(ctx.size), repeat=depth + 1):
        yield TruncSeries(ctx, depth, codes)


CONTEXTS = [(k, mutant) for k in range(1, 5) for mutant in (None, "add-cap", "mul-cap")]


# --- scalar reference arithmetic ---------------------------------------------
# Plain-Elem sums and products of coefficient tuples through the reference
# ref_add and ref_mul, independent of the Cayley tables and the shared
# convolution.


def ref_sum(ctx, f, g):
    n = max(len(f), len(g))
    f = tuple(f) + (ZERO,) * (n - len(f))
    g = tuple(g) + (ZERO,) * (n - len(g))
    return tuple(ref_add(ctx, a, b) for a, b in zip(f, g))


def ref_product(ctx, f, g, n):
    """The first n coefficients of the product of f and g."""
    out = [ZERO] * n
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            if i + j < n:
                out[i + j] = ref_add(ctx, out[i + j], ref_mul(ctx, a, b))
    return tuple(out)


def ref_poly_product(ctx, f, g):
    return trim(ref_product(ctx, f, g, max(len(f) + len(g) - 1, 0)))


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == ZERO:
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize("k,mutant", CONTEXTS)
def test_poly_arithmetic_matches_scalar_reference(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    pool = [(f, f.coeffs) for f in all_polys(c, 2)]
    for f, fc in pool:
        for g, gc in pool:
            assert (f + g).coeffs == trim(ref_sum(c, fc, gc))
            assert (f * g).coeffs == ref_poly_product(c, fc, gc)


@pytest.mark.parametrize("k,mutant", CONTEXTS)
def test_window_arithmetic_matches_scalar_reference(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    for depth in range(3):
        pool = [(f, f.coeffs) for f in all_windows(c, depth)]
        for f, fc in pool:
            for g, gc in pool:
                assert (f + g).coeffs == ref_sum(c, fc, gc)
                assert (f * g).coeffs == ref_product(c, fc, gc, depth + 1)


@pytest.mark.parametrize("k,mutant", CONTEXTS)
def test_oracle_witnesses_hold_under_scalar_reference(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    one = (c.one,)
    constants = [(a,) for a in c.elements()]

    def has_inverse(g):
        # entire arithmetic makes degree additive, so inverses are constants
        return any(ref_poly_product(c, g, a) == one for a in constants)

    witnesses = 0
    for f in all_polys(c, 2):
        if f == Poly.zero(c):
            continue
        witness = factorization_oracle(f)
        if witness is None:
            continue
        witnesses += 1
        g, h = witness
        assert ref_poly_product(c, g.coeffs, h.coeffs) == f.coeffs
        assert not has_inverse(g.coeffs) and not has_inverse(h.coeffs)
    assert witnesses > 0


# --- constructors ------------------------------------------------------------


@pytest.mark.parametrize("bad", [-1, 5, 6, fin(1), ZERO, 1.0, "1", True, None])
def test_constructors_reject_non_codes(bad):
    c = SemiringCtx(3)
    for build in (
        lambda: Poly(c, (bad,)),
        lambda: Poly(c, (bad, 1)),
        lambda: TruncSeries(c, 0, (bad,)),
        lambda: TruncSeries(c, 1, (1, bad)),
    ):
        with pytest.raises(ContextMismatchError):
            build()


def test_constructors_accept_codes_and_keep_shape_errors():
    c = SemiringCtx(3)
    for code in range(1, c.size):
        assert Poly(c, (0, code)).coeffs == (ZERO, c.decode(code))
    for code in range(c.size):
        assert TruncSeries(c, 0, (code,)).coeffs == (c.decode(code),)
    bad_shapes = (
        lambda: Poly(c, (1, 0)),
        lambda: Poly(c, (0,)),
        lambda: TruncSeries(c, 2, (1,)),
        lambda: TruncSeries(c, 0, ()),
        lambda: TruncSeries(c, -1, ()),
    )
    for build in bad_shapes:
        with pytest.raises(ValueError) as info:
            build()
        assert info.type is ValueError


@pytest.mark.parametrize(
    "build",
    [
        lambda c: TruncSeries(c, True, (1, 0)),
        lambda c: make_series(c, True, (fin(1),)),
        lambda c: idempotent_series_from_generators(c, MANY, [True], 3),
        lambda c: idempotent_series_from_generators(c, MANY, [1, True], 3),
        lambda c: idempotent_series_from_generators(c, MANY, [2], True),
    ],
    ids=["window-depth", "make-series-depth", "generator", "generator-beside-1", "gens-depth"],
)
def test_series_builders_reject_a_bool_depth_or_generator(build):
    # True is an int in Python: taken as 1 it would render "(window depth True)"
    with pytest.raises(ValueError, match="True"):
        build(SemiringCtx(3))


def test_builders_encode_elements_once():
    c = SemiringCtx(3)
    assert make_poly(c, (fin(2), ZERO, MANY, ZERO)).codes == (2, 0, 4)
    assert make_series(c, 3, (ZERO, MANY)).codes == (0, 4, 0, 0)
    assert parse_poly(c, "2 + mX^2").codes == (2, 0, 4)
    assert quadratic(c, fin(2), fin(3)).codes == (3, 0, 2)
    assert idempotent_series_from_generators(c, MANY, [2], 4).codes == (4, 0, 4, 0, 4)
    with pytest.raises(ContextMismatchError, match="element 5 exceeds order k=3"):
        make_poly(c, (fin(5),))
    with pytest.raises(ContextMismatchError, match="element 5 exceeds order k=3"):
        parse_poly(c, "5")


# --- worked examples ---------------------------------------------------------


def test_square_of_one_plus_mx():
    c = SemiringCtx(3)
    f = make_poly(c, (fin(1), MANY))
    assert f * f == make_poly(c, (fin(1), MANY, MANY))


def test_scaling_by_a_constant():
    c = SemiringCtx(4)
    f = make_poly(c, (fin(2), fin(1)))
    two = Poly.constant(c, fin(2))
    assert f * two == make_poly(c, (fin(4), fin(2)))


def test_saturating_convolution():
    c = SemiringCtx(2)
    f = make_poly(c, (fin(2), fin(2)))
    assert f * f == make_poly(c, (MANY, MANY, MANY))


# --- polynomial structure ----------------------------------------------------


@pytest.mark.parametrize("k", [1, 2])
def test_units_are_exactly_one(k):
    c = SemiringCtx(k)
    one = Poly.one(c)
    pool = list(all_polys(c, 2))
    for f in pool:
        # degree is additive and there are no zero divisors, so any
        # inverse of a degree <= 2 polynomial appears in the same pool
        semantic = any(f * g == one for g in pool)
        assert f.is_unit() == semantic
    units = [f for f in pool if f.is_unit()]
    assert units == [one]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_idempotents_are_exactly_the_idempotent_constants(k):
    c = SemiringCtx(k)
    expected = {Poly.zero(c), Poly.one(c), Poly.constant(c, MANY)}
    got = {f for f in all_polys(c, 2) if f * f == f}
    assert got == expected
    for f in all_polys(c, 2):
        assert f.is_idempotent() == (f in expected)


def test_degree_is_a_morphism_to_max_plus():
    c = SemiringCtx(2)
    pool = list(all_polys(c, 2))
    for f in pool:
        for g in pool:
            assert (f * g).degree() == f.degree() + g.degree()
            assert (f + g).degree() == max(f.degree(), g.degree())


def test_degree_of_zero():
    c = SemiringCtx(5)
    assert Poly.zero(c).degree() == NEG_INFINITY
    assert NEG_INFINITY + 3 == NEG_INFINITY
    assert Poly.one(c).degree() == 0
    assert Poly.x(c).degree() == 1


def test_no_zero_divisors():
    c = SemiringCtx(2)
    zero = Poly.zero(c)
    pool = list(all_polys(c, 1))
    for f in pool:
        for g in pool:
            assert (f * g == zero) == (f == zero or g == zero)


def test_make_poly_trims_trailing_zeros():
    c = SemiringCtx(3)
    assert make_poly(c, (fin(1), ZERO, ZERO)) == Poly.one(c)
    assert make_poly(c, (ZERO, ZERO)) == Poly.zero(c)
    assert make_poly(c, ()) == Poly.zero(c)


def test_poly_compat_errors():
    f = make_poly(SemiringCtx(2), (fin(1),))
    g = make_poly(SemiringCtx(3), (fin(1),))
    with pytest.raises(ContextMismatchError):
        f + g
    with pytest.raises(ContextMismatchError):
        f * g
    with pytest.raises(TypeError):
        f + 1


# --- parsing and rendering ---------------------------------------------------


def test_render_forms():
    c = SemiringCtx(4)
    assert Poly.zero(c).render() == "0"
    assert Poly.one(c).render() == "1"
    assert Poly.constant(c, MANY).render() == "m"
    assert Poly.x(c).render() == "X"
    assert make_poly(c, (ZERO, ZERO, fin(1))).render() == "X^2"
    assert make_poly(c, (fin(2), MANY, fin(3))).render() == "2 + m X + 3 X^2"


def test_parse_forms():
    c = SemiringCtx(4)
    assert parse_poly(c, "0") == Poly.zero(c)
    assert parse_poly(c, "m") == Poly.constant(c, MANY)
    assert parse_poly(c, "x") == Poly.x(c)
    assert parse_poly(c, "2 + mX + 3X^2") == make_poly(c, (fin(2), MANY, fin(3)))
    assert parse_poly(c, "mX^2") == make_poly(c, (ZERO, ZERO, MANY))


def test_parse_accumulates_repeated_degrees():
    c = SemiringCtx(4)
    assert parse_poly(c, "X + X") == make_poly(c, (ZERO, fin(2)))
    assert parse_poly(c, "3 + 3") == make_poly(c, (MANY,))


def test_parse_rejects_garbage():
    c = SemiringCtx(4)
    for text in ("2Y", "X^", "X^-1", "2 3", ""):
        with pytest.raises(ValueError):
            parse_poly(c, text)


def test_parse_render_roundtrip():
    c = SemiringCtx(2)
    for f in all_polys(c, 2):
        assert parse_poly(c, f.render()) == f


def test_poly_to_json():
    c = SemiringCtx(3)
    assert make_poly(c, (fin(2), ZERO, MANY)).to_json() == [2, 0, "m"]
    for f in all_polys(c, 2):
        assert f.to_json() == ["m" if x == c.size - 1 else x for x in f.codes]


# --- truncated series --------------------------------------------------------


def test_window_shape_validation():
    c = SemiringCtx(2)
    with pytest.raises(ValueError):
        TruncSeries(c, 2, (fin(1),))
    with pytest.raises(ValueError):
        TruncSeries(c, -1, ())
    low = make_series(c, 1, (fin(1),))
    high = make_series(c, 2, (fin(1),))
    with pytest.raises(ValueError):
        low + high


def test_make_series_pads():
    c = SemiringCtx(2)
    s = make_series(c, 3, (fin(1),))
    assert s.coeffs == (fin(1), ZERO, ZERO, ZERO)
    with pytest.raises(ValueError):
        make_series(c, 1, (fin(1), fin(1), fin(1)))


def test_window_product_truncates():
    c = SemiringCtx(3)
    x = make_series(c, 2, (ZERO, fin(1)))
    cube_window = x * x * x
    assert cube_window.coeffs == (ZERO, ZERO, ZERO)


def test_series_to_json():
    c = SemiringCtx(2)
    s = make_series(c, 3, (fin(1), ZERO, MANY))
    assert s.to_json() == {"depth": 3, "coeffs": [1, 0, "m", 0]}


@pytest.mark.parametrize("k,depth", [(1, 4), (2, 3), (3, 2)])
def test_window_idempotent_shape_matches_squaring(k, depth):
    c = SemiringCtx(k)
    for s in all_windows(c, depth):
        verdict = ts_is_idempotent_window(s)
        assert verdict == s.squares_to_self()
        assert verdict == s.has_idempotent_shape()


def test_window_units_are_exactly_constant_one():
    c = SemiringCtx(2)
    pool = list(all_windows(c, 2))
    one = make_series(c, 2, (fin(1),))
    for s in pool:
        semantic = any(s * t == one for t in pool)
        assert s.is_unit() == semantic


def test_idempotent_window_from_generators():
    c = SemiringCtx(3)
    s = idempotent_series_from_generators(c, fin(1), [3, 5], 10)
    assert s.support() == (3, 5, 6, 8, 9, 10)
    assert s.coeffs[0] == fin(1)
    assert s.squares_to_self()
    assert s.has_idempotent_shape()


def test_idempotent_generator_validation():
    c = SemiringCtx(3)
    with pytest.raises(ValueError):
        idempotent_series_from_generators(c, fin(2), [2], 5)
    with pytest.raises(ValueError):
        idempotent_series_from_generators(c, fin(1), [], 5)
    with pytest.raises(ValueError):
        idempotent_series_from_generators(c, fin(1), [0], 5)


def test_many_constant_idempotent_window():
    c = SemiringCtx(2)
    s = idempotent_series_from_generators(c, MANY, [1], 4)
    assert s.coeffs == (MANY, MANY, MANY, MANY, MANY)
    assert s.squares_to_self()


# --- quadratic irreducibility ------------------------------------------------


def test_quadratic_builder():
    c = SemiringCtx(4)
    assert quadratic(c, fin(2), fin(3)) == make_poly(c, (fin(3), ZERO, fin(2)))


def test_quadratic_closed_form_samples():
    c = SemiringCtx(4)
    assert quadratic_irreducible(c, fin(2), fin(3))
    assert not quadratic_irreducible(c, fin(2), fin(4))
    assert quadratic_irreducible(c, MANY, fin(1))
    assert quadratic_irreducible(c, fin(1), MANY)
    assert not quadratic_irreducible(c, MANY, MANY)
    assert not quadratic_irreducible(c, fin(3), ZERO)
    assert not quadratic_irreducible(c, MANY, fin(2))
    with pytest.raises(ValueError):
        quadratic_irreducible(c, ZERO, fin(1))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closed_form_agrees_with_exhaustive_search(k):
    c = SemiringCtx(k)
    for alpha in c.nonzero_elements():
        for beta in c.elements():
            witness = factorization_oracle(quadratic(c, alpha, beta))
            assert quadratic_irreducible(c, alpha, beta) == (witness is None)
            if witness is not None:
                g, h = witness
                assert g * h == quadratic(c, alpha, beta)
                assert not g.is_unit() and not h.is_unit()


def test_oracle_is_deterministic():
    c = SemiringCtx(3)
    f = make_poly(c, (MANY, ZERO, MANY))
    assert factorization_oracle(f) == factorization_oracle(f)


def test_oracle_on_linear_and_constant_inputs():
    c = SemiringCtx(3)
    # X is irreducible; 4 = 2 * 2 saturates to m, which factors as 2 * 2
    assert factorization_oracle(Poly.x(c)) is None
    witness = factorization_oracle(Poly.constant(c, MANY))
    assert witness is not None
    g, h = witness
    assert g * h == Poly.constant(c, MANY)


def test_oracle_rejects_out_of_scope_inputs():
    c = SemiringCtx(3)
    with pytest.raises(ValueError):
        factorization_oracle(Poly.zero(c))
    with pytest.raises(ValueError):
        factorization_oracle(make_poly(c, (ZERO, ZERO, ZERO, fin(1))))
    # the bound is front-end policy: the library searches past it
    assert factorization_oracle(Poly.x(SemiringCtx(7))) is None


# --- batched paths against the scalar oracles ---------------------------------
# The sweep multiplies and adds whole arrays of code rows, tests window
# shapes on arrays and factors every quadratic in one search.  Each batched
# form must equal its scalar form row for row, zero terms and padding
# included, or a fault would fail the claims differently.


def code_rows(ctx, width):
    """Every row of ``width`` codes, in product order."""
    return np.array(list(itertools.product(range(ctx.size), repeat=width)), dtype=np.int64)


def as_poly(ctx, row):
    return make_poly(ctx, [ctx.decode(c) for c in row])


def assert_arithmetic_matches_scalar(ctx):
    """Products and sums of every pair of degree <= 2 code rows, and the
    square of every window of depth 5, batched against ``_convolve`` and
    ``Poly.__add__``."""
    pool = code_rows(ctx, 3)
    products = convolve_batch(ctx, pool[:, None], pool[None], 5).tolist()
    sums = sum_batch(ctx, pool[:, None], pool[None]).tolist()
    polys = [as_poly(ctx, row) for row in pool]
    rows = pool.tolist()
    for i, (f, fp) in enumerate(zip(rows, polys)):
        for j, (g, gp) in enumerate(zip(rows, polys)):
            assert products[i][j] == _convolve(ctx, f, g, 5)
            total = (fp + gp).codes
            assert tuple(sums[i][j]) == total + (0,) * (3 - len(total))
    windows = code_rows(ctx, 6)
    squares = convolve_batch(ctx, windows, windows, 6).tolist()
    for w, square in zip(windows.tolist(), squares):
        assert square == _convolve(ctx, w, w, 6)


def assert_factor_search_matches_reference(ctx, polys):
    """``factorization_oracle`` one polynomial at a time, and
    ``first_factorizations`` on all of one degree at once, against the
    per-pair search of the reference."""
    by_degree = {}
    for f in polys:
        witness = ref_factorization(f)
        assert factorization_oracle(f) == witness, f
        by_degree.setdefault(f.degree(), []).append((f, witness))
    for cases in by_degree.values():
        found = first_factorizations(ctx, [f.codes for f, _ in cases])
        want = [w and (w[0].codes, w[1].codes) for _, w in cases]
        assert found == want


@pytest.mark.parametrize("k,mutant", CONTEXTS)
def test_batched_arithmetic_matches_scalar_convolution(k, mutant):
    assert_arithmetic_matches_scalar(SemiringCtx(k, mutant=mutant))


@pytest.mark.parametrize(
    "cell",
    [
        ("mul", 0, 3, 2),  # a zero term that the scalar product skips
        ("add", 2, 0, 3),  # x + 0, read only when a zero term is not skipped
        ("add", 0, 0, 1),  # 0 + 0, read only when a sum pads past both operands
    ],
)
def test_batched_arithmetic_skips_what_the_scalar_form_skips(monkeypatch, cell):
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, 3))
    assert_arithmetic_matches_scalar(SemiringCtx(3))


def test_batched_arithmetic_is_exact_past_int8():
    # codes reach 201 at k = 200: a signed 8-bit code type would wrap
    c = SemiringCtx(200)
    assert code_dtype(c).itemsize == 1 and code_dtype(SemiringCtx(255)).itemsize == 2
    rng = np.random.default_rng(200)
    f = rng.integers(0, c.size, size=(400, 3))
    g = rng.integers(0, c.size, size=(400, 3))
    f[:50, 1:] = 0  # constants, to reach the sums' zero padding
    f[50:100] = c.size - rng.integers(1, 4, size=(50, 3))  # near m
    products = convolve_batch(c, f, g, 5)
    sums = sum_batch(c, f, g)
    assert products.max() > 127
    for a, b, p, s in zip(f.tolist(), g.tolist(), products.tolist(), sums.tolist()):
        assert p == _convolve(c, a, b, 5)
        total = (as_poly(c, a) + as_poly(c, b)).codes
        assert tuple(s) == total + (0,) * (3 - len(total))


@pytest.mark.parametrize("k", [38, 39, 254, 255])
def test_batched_products_are_exact_where_the_index_type_widens(k):
    # a flat index p (k + 2) + s can pass 8 bits from k = 14 and the codes
    # pass them at k = 255; a product saturates to m, so an index computed
    # in the code type would wrap and read a wrong cell
    c = SemiringCtx(k)
    rng = np.random.default_rng(k)
    f = rng.integers(0, c.size, size=(200, 3))
    g = rng.integers(0, c.size, size=(200, 3))
    f[:100] = c.size - rng.integers(1, 4, size=(100, 3))  # near m
    g[:50] = c.size - rng.integers(1, 4, size=(50, 3))
    products = convolve_batch(c, f, g, 5)
    assert products.dtype == code_dtype(c) and products.max() == c.size - 1
    for a, b, p in zip(f.tolist(), g.tolist(), products.tolist()):
        assert p == _convolve(c, a, b, 5)


def first_operand(ctx, op, a, b):
    """A rule under which neither + nor * commutes: a sum is its first
    nonzero operand and a product its left factor."""
    a = np.asarray(a)
    return np.where(a != 0, a, b) if op == "add" else a + 0 * np.asarray(b)


@pytest.mark.parametrize(
    "k,mutant", [(3, None), (3, "add-cap"), (3, "mul-cap"), (3, first_operand), (38, None)]
)
def test_idempotency_search_squares_as_the_batched_kernel(monkeypatch, k, mutant):
    # with a shape test that passes nothing, the prefix search keeps exactly
    # the rows that convolve_batch squares to themselves; its own fold of
    # each level's square coefficient adds the terms in the kernel's order,
    # which only a rule whose + and * both fail to commute can tell apart,
    # and indexes past 8 bits at k = 38
    if callable(mutant):
        monkeypatch.setattr(SemiringCtx, "_cayley", mutant)
        mutant = None
    c = SemiringCtx(k, mutant=mutant)
    never = lambda ctx, rows: np.zeros(len(rows), dtype=bool)  # noqa: E731
    rows, squares, shaped = checks._idempotency_search(c, 3, never)
    pool = code_rows(c, 3)
    want = pool[(convolve_batch(c, pool, pool, 3) == pool).all(axis=1)]
    assert rows.tolist() == want.tolist() and squares.all() and not shaped.any()
    assert len(want) > 1


@pytest.mark.parametrize(
    "k,mutant",
    [(k, m) for k, m in CONTEXTS]
    + [pytest.param(5, m, marks=pytest.mark.slow) for m in (None, "add-cap", "mul-cap")],
)
def test_factor_search_matches_the_per_pair_search(k, mutant):
    c = SemiringCtx(k, mutant=mutant)
    assert_factor_search_matches_reference(c, [f for f in all_polys(c, 2) if f.codes])


@pytest.mark.parametrize("k,depths", [(1, [5]), (2, range(7)), (3, [5])])
def test_window_shape_matches_the_per_window_rule(k, depths):
    c = SemiringCtx(k)
    for depth in depths:
        windows = list(all_windows(c, depth))
        got = idempotent_shape(c, np.array([w.codes for w in windows]))
        assert got.tolist() == [ref_idempotent_shape(w) for w in windows]
        assert [w.has_idempotent_shape() for w in windows] == got.tolist()


@pytest.mark.parametrize(
    "mutant,cell",
    [(None, None), ("add-cap", None), ("mul-cap", None)]
    + [(None, cell) for cell in (("mul", 0, 3, 2), ("add", 2, 0, 3), ("add", 0, 0, 1))],
)
def test_factor_search_is_the_same_in_small_chunks(monkeypatch, mutant, cell):
    # the least budget leaves one g a batch
    monkeypatch.setattr(series, "_PAIR_BUDGET", 1)
    if cell is not None:
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, 3))
    c = SemiringCtx(3, mutant=mutant)
    assert_factor_search_matches_reference(c, [f for f in all_polys(c, 2) if f.codes])


def test_sweep_multiplies_no_pair_one_at_a_time(monkeypatch):
    # only the generated window of window-idempotency is squared by the
    # scalar convolution, once per k: the claim has no bound
    calls = []
    scalar = series._convolve

    def counted(*args):
        calls.append(args[0].k)
        return scalar(*args)

    monkeypatch.setattr(series, "_convolve", counted)
    assert all(c.passed for c in checks.run_all_checks(8))
    assert calls == list(range(1, 9))


@pytest.mark.slow
def test_batched_paths_match_the_scalar_ones_under_every_cell_fault(monkeypatch):
    for cell in cell_corruptions(3):
        monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault(*cell, 3))
        c = SemiringCtx(3)
        assert_arithmetic_matches_scalar(c)
        windows = list(all_windows(c, 5))
        got = idempotent_shape(c, np.array([w.codes for w in windows])).tolist()
        assert got == [ref_idempotent_shape(w) for w in windows], cell
        quadratics = [quadratic(c, a, b) for a in c.nonzero_elements() for b in c.elements()]
        assert_factor_search_matches_reference(c, quadratics)


# --- algebraic laws under random inputs --------------------------------------


coeff_codes = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=4)


@given(st.integers(min_value=1, max_value=3), coeff_codes, coeff_codes, coeff_codes)
@settings(max_examples=100, deadline=None)
def test_property_poly_semiring_laws(k, a, b, c):
    ctx = SemiringCtx(k)

    def mk(codes):
        return make_poly(ctx, [ctx.decode(min(x, ctx.size - 1)) for x in codes])

    f, g, h = mk(a), mk(b), mk(c)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
