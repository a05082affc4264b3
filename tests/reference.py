"""Plain references shared by the tests.

``ref_add`` and ``ref_mul`` state the saturating rule on ``Elem`` values,
mutant included, independently of ``SemiringCtx._cayley``: oracles built
on them check the library's tables and its rule on ints against a second
statement of the rule instead of against themselves.

``ref_ideal``, ``ref_is_prime`` and ``ref_is_subtractive`` state the
ideal predicates as whole-table numpy scans over ``ctx.tables()``, for
the library's bit tests on the closure's code lists to be checked
against.

``ref_idempotent_shape`` and ``ref_factorization`` state the window
shape rule and the exhaustive factor search one window and one candidate
pair at a time, the search through the scalar ``series._convolve``, for
the library's whole-array forms to be checked against.

``ref_degree_morphism``, ``ref_window_idempotency``, ``ref_poly_units``
and ``ref_poly_idempotents`` are the exhaustive scans the four series
claims replaced: every pair of polynomials of degree <= 2, added by
``sum_batch`` and multiplied by ``convolve_batch``, every window of
depth 5 squared, every polynomial of degree <= 2 times every constant,
and every one squared.  The claims must report as they do under every
rule.  ``code_rows`` lists their pools: every row of a width, in
product order.

``ref_nilpotency_index`` is the set iteration the library's array
iteration replaced, over the product table read as lists.

``ref_semiring_tables`` builds the ideal semiring's tables in Python,
one pair of ideals at a time, over the context's ideal closure, for the
library's array build to be checked against cell by cell.

``multiplicative_subsets`` lists the unit sets closed under ``ref_mul``,
for the sweep's own enumeration and the localization tests.

``cell_fault`` and ``cell_corruptions`` inject one wrong cell into the
rule itself, so every arithmetic path of the library sees it.
"""

from itertools import product

import numpy as np

from indigo.core import MANY, ZERO, ContextMismatchError, SemiringCtx, fin
from indigo import series
from indigo.checks import _poly
from indigo.ideals import IdealSemiring, _closure
from indigo.series import NEG_INFINITY, Poly, _convolve, code_dtype


def ref_add(ctx, a, b):
    """Saturating sum."""
    a = ctx.check(a)
    b = ctx.check(b)
    if a.kind == "zero":
        return b
    if b.kind == "zero":
        return a
    if a.kind == "many" or b.kind == "many":
        return MANY
    total = a.value + b.value
    if total <= ctx.k:
        return fin(total)
    if ctx.mutant == "add-cap":
        return fin(ctx.k)
    return MANY


def ref_mul(ctx, a, b):
    """Saturating product."""
    a = ctx.check(a)
    b = ctx.check(b)
    if a.kind == "zero" or b.kind == "zero":
        return ZERO
    if a.kind == "many" or b.kind == "many":
        return MANY
    prod = a.value * b.value
    if prod <= ctx.k:
        return fin(prod)
    if ctx.mutant == "mul-cap":
        return fin(ctx.k)
    return MANY


def multiplicative_subsets(ctx):
    """Every set of 1 and nonzero elements closed under ``ref_mul``, in the
    order of the bitmask over the elements 2, ..., k, m that picks it."""
    pool = [e for e in ctx.nonzero_elements() if e != ctx.one]
    for bits in range(1 << len(pool)):
        subset = [ctx.one] + [pool[i] for i in range(len(pool)) if bits >> i & 1]
        if all(ref_mul(ctx, u, v) in subset for u in subset for v in subset):
            yield subset


def _member(ctx, mask):
    """Membership of every code of ctx in ``mask``, as a boolean array."""
    return np.array([mask >> c & 1 for c in range(ctx.size)], dtype=bool)


def _name(ctx, code):
    return ctx.decode(int(code)).render()


def ref_ideal(ctx, mask):
    """Raise what ``Ideal(ctx, mask)`` raises for a mask that is not an
    ideal: the first escaping sum in row-major order over the members,
    then the first escaping product s * a, s over every code."""
    if mask < 0 or mask >> ctx.size:
        raise ContextMismatchError(f"mask {mask} sets a code outside order k={ctx.k}")
    if not mask & 1:
        raise ValueError("an ideal must contain zero")
    add_t, mul_t = ctx.tables()
    member = _member(ctx, mask)
    inside = np.flatnonzero(member)
    escapes = ~member[add_t[inside[:, None], inside]]
    if escapes.any():
        i, j = np.argwhere(escapes)[0]
        a, b = _name(ctx, inside[i]), _name(ctx, inside[j])
        raise ValueError(f"not closed under addition: {a} + {b} escapes")
    escapes = ~member[mul_t[:, inside]]
    if escapes.any():
        s, j = np.argwhere(escapes)[0]
        raise ValueError(f"not absorbing: {_name(ctx, s)} * {_name(ctx, inside[j])} escapes")


def ref_is_prime(ctx, mask):
    """Proper, and no product of two codes outside ``mask`` lands inside."""
    member = _member(ctx, mask)
    outside = np.flatnonzero(~member)
    return len(outside) > 0 and not member[ctx.tables()[1][outside[:, None], outside]].any()


def ref_is_subtractive(ctx, mask):
    """No a inside and b outside ``mask`` with a + b inside."""
    member = _member(ctx, mask)
    sums_in = member[ctx.tables()[0][np.flatnonzero(member)]]  # [a, b]: a + b inside
    return not (sums_in & ~member).any()


def ref_semiring_tables(ctx):
    """(add, mul) of the ideal semiring of ctx as tuples of tuples over
    positions in the canonical ideal order, one Python closure per pair;
    ``RuntimeError`` if {0} or {0, m} is not an ideal."""
    close = _closure(ctx)
    index = close.index
    for name, mask in (("{0}", 1), ("{0, m}", 1 | 1 << (ctx.size - 1))):
        if mask not in index:
            raise RuntimeError(f"k={ctx.k}: {name} is not an ideal")
    masks = close.masks
    joins = dict(index)  # union mask -> position of its closure
    for union in {a | b for a in masks for b in masks}.difference(joins):
        joins[union] = index[close(union)]
    add = np.array([[joins[a | b] for b in masks] for a in masks])
    principal = np.array(
        [[index[close.product(1 << x, b)] for b in masks] for x in range(ctx.size)]
    )
    mul = np.full_like(add, index[1])
    for x, products in enumerate(principal):
        rows = np.flatnonzero([a >> x & 1 for a in masks])  # the ideals containing x
        mul[rows] = add[mul[rows], products]
    return tuple(map(tuple, add.tolist())), tuple(map(tuple, mul.tolist()))


def ref_idempotent_shape(f):
    """The window shape rule on one ``TruncSeries``: all zero, or constant
    term in {1, m}, higher nonzero coefficients all m, support additively
    closed in-window."""
    if not any(f.codes):
        return True
    many = f.ctx.encode(MANY)
    if f.codes[0] not in (f.ctx.encode(f.ctx.one), many):
        return False
    sup = f.support()
    if any(f.codes[i] != many for i in sup):
        return False
    sup_set = set(sup)
    for s in sup:
        for t in sup:
            if s + t <= f.depth and s + t not in sup_set:
                return False
    # a nonzero constant term with empty support is fine: 1 and m square to themselves
    return True


def ref_factorization(f):
    """The first factorization of the ``Poly`` f (degree 0..2) into two
    nonunits, one candidate pair at a time: degree split d1 first, then
    g, then h, each in product order of its coefficient tuple; ``None``
    when f is irreducible."""
    ctx = f.ctx
    deg = f.degree()
    assert deg != NEG_INFINITY and deg <= 2
    target = list(f.codes)
    n = ctx.size
    # a unit factor must be a constant with a constant inverse: degree is
    # additive, so nothing of positive degree can divide 1
    mul, one = ctx.tables()[1].tolist(), ctx.encode(ctx.one)
    units = {(a,) for a in range(n) if one in mul[a]}
    for d1 in range(0, deg // 2 + 1):
        d2 = deg - d1
        for g in product(range(n), repeat=d1 + 1):
            if g[-1] == 0 or g in units:
                continue
            for h in product(range(n), repeat=d2 + 1):
                if h[-1] == 0 or h in units:
                    continue
                if _convolve(ctx, g, h, deg + 1) == target:
                    return (Poly(ctx, g), Poly(ctx, h))
    return None


def code_rows(ctx, width):
    """Every row of ``width`` codes, in the product order of the tuples."""
    return np.indices((ctx.size,) * width, dtype=code_dtype(ctx)).reshape(width, -1).T


def sum_batch(ctx, f, g):
    """``Poly.__add__`` over whole arrays of code rows of one width: each
    trimmed pair is padded with 0 only up to the longer of the two, and
    the slots past it stay 0."""
    f, g = np.asarray(f), np.asarray(g)
    width = np.maximum(code_lengths(f), code_lengths(g))
    sums = ctx.tables()[0].astype(code_dtype(ctx))[f, g]
    sums[np.arange(f.shape[-1]) >= width[..., None]] = 0
    return sums


def code_lengths(rows):
    """The length of each code row with its trailing zeros trimmed, so the
    degree plus one, and 0 for the zero polynomial."""
    rows = np.asarray(rows)
    out = np.zeros(rows.shape[:-1], dtype=np.min_scalar_type(rows.shape[-1]))
    for i in range(rows.shape[-1]):
        out[rows[..., i] != 0] = i + 1
    return out


def ref_degree_morphism(ctx):
    """The degree-morphism claim as a scan of every pair of polynomials of
    degree <= 2: sums by ``sum_batch``, products by ``convolve_batch``."""
    pool = code_rows(ctx, 3)  # degree <= 2, trailing zeros kept
    f, g = pool[:, None], pool[None]
    # degree + 1, with 0 for the zero polynomial
    lf, lg = code_lengths(f), code_lengths(g)
    lsum = code_lengths(sum_batch(ctx, f, g))
    lfg = code_lengths(series.convolve_batch(ctx, f, g, 5))
    nonzero = (lf > 0) & (lg > 0)
    problems = (
        ("degree of sum breaks", lsum != np.maximum(lf, lg)),
        ("degree of product breaks", lfg != np.where(nonzero, lf + lg - 1, 0)),
    )
    broken = np.logical_or.reduce([bad for _, bad in problems])
    if broken.any():
        i, j = np.argwhere(broken)[0]
        what = next(what for what, bad in problems if bad[i, j])
        return f"{what} at {_poly(ctx, pool[i]).render()}, {_poly(ctx, pool[j]).render()}"
    return None


# (k + 2)^6 windows of depth 5, squared in batches of at most _WINDOW_CHUNK
# windows in product order: one batch for every k <= 6
_WINDOW_CHUNK = 1 << 18


def ref_window_idempotency(ctx):
    """The window-idempotency claim as a scan of every window of depth 5:
    each squared by ``convolve_batch`` and shaped by ``idempotent_shape``."""
    depth = 5
    head = 0  # leading codes fixed within a batch
    while head < depth and ctx.size ** (depth + 1 - head) > _WINDOW_CHUNK:
        head += 1
    tails = code_rows(ctx, depth + 1 - head)
    windows = np.empty((depth + 1, len(tails)), dtype=tails.dtype).T  # columns contiguous
    windows[:, head:] = tails
    for prefix in product(range(ctx.size), repeat=head):  # in product order
        windows[:, :head] = prefix
        squares = series.convolve_batch(ctx, windows, windows, depth + 1)
        wrong = (squares == windows).all(axis=1) != series.idempotent_shape(ctx, windows)
        if wrong.any():
            f = series.TruncSeries(ctx, depth, tuple(windows[wrong.argmax()].tolist()))
            return f"idempotency tests disagree on {f.render()}"
    if not series.idempotent_series_from_generators(ctx, MANY, [2, 3], depth).squares_to_self():
        return "generated window is not idempotent"
    return None


def ref_poly_units(ctx):
    """The poly-units claim as a scan of every polynomial of degree <= 2
    times every constant."""
    pool = code_rows(ctx, 3)  # degree <= 2, trailing zeros kept
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


def ref_poly_idempotents(ctx):
    """The poly-idempotents claim as a scan of every polynomial of degree
    <= 2, each squared."""
    pool = code_rows(ctx, 3)  # degree <= 2, trailing zeros kept
    squares = series.convolve_batch(ctx, pool, pool, 5)
    idempotent = (squares[:, :3] == pool).all(axis=1) & (squares[:, 3:] == 0).all(axis=1)
    # the constants 0, 1 and m
    allowed = np.isin(pool[:, 0], (0, ctx.encode(ctx.one), ctx.encode(MANY)))
    allowed &= (pool[:, 1:] == 0).all(axis=1)
    wrong = idempotent != allowed
    if wrong.any():
        return f"idempotency of {_poly(ctx, pool[wrong.argmax()]).render()} is wrong"
    return None


def ref_nilpotency_index(ctx):
    """``ideals.nilpotency_index`` as a Python set iteration over the
    ideal semiring's product table, read once as lists."""
    ids = IdealSemiring(ctx)
    mul = ids.mul_table.tolist()
    factors = [i for i in range(ids.size) if i not in (ids.zero_index, ids.one_index)]
    current = set(factors)
    n = 1
    while current != {ids.ls_index}:
        current = {mul[i][j] for i in current for j in factors}
        n += 1
        if n > 2 * ctx.k + 2:
            raise RuntimeError("nilpotency iteration failed to stabilize")
    return n


_CLEAN_RULE = SemiringCtx._cayley


def cell_fault(op, i, j, wrong, k=3):
    """A ``SemiringCtx._cayley`` that puts ``wrong`` in cell (i, j) of the
    ``op`` table at order k and computes every other cell cleanly.  Like
    the real rule it gives a Python int for two int operands.  Each table
    of order k is built once per mutant, on first use."""
    tables = {}  # (mutant, op) -> the table as an array and as lists

    def build(ctx, rule_op):
        codes = np.arange(ctx.size)
        table = _CLEAN_RULE(ctx, rule_op, codes[:, None], codes)
        if rule_op == op:
            table[i, j] = wrong
        tables[ctx.mutant, rule_op] = table, table.tolist()
        return tables[ctx.mutant, rule_op]

    def rule(self, rule_op, a, b):
        if self.k != k:
            return _CLEAN_RULE(self, rule_op, a, b)
        table, cells = tables.get((self.mutant, rule_op)) or build(self, rule_op)
        return cells[a][b] if type(a) is int and type(b) is int else table[a, b]

    return rule


def cell_corruptions(k=3):
    """Every single-cell corruption (op, i, j, wrong) of the clean add and
    mul tables at order k: 2 (k + 2)^2 (k + 1) of them, 200 at k = 3."""
    clean = SemiringCtx(k).tables()
    for which, op in enumerate(("add", "mul")):
        for i, j in np.ndindex(clean[which].shape):
            for wrong in range(k + 2):
                if wrong != clean[which][i, j]:
                    yield op, i, j, wrong
