"""Polynomials and truncated power series over Indigenous semirings.

Polynomials are dense tuples of element codes trimmed to canonical
form.  A single product (a ``poly`` or ``series`` query, one window)
is one scalar convolution that calls the rule ``ctx._cayley`` on Python
ints, so it pays O(1) per cell it reads at any order k.  The sweep's
series claims and the factor search multiply whole arrays of code rows
at once (``convolve_batch``), with the scalar convolution's semantics
row for row: each term of the convolution is one flat gather from a
table of (k + 2)^3 cells fused from ``ctx.tables()``, and coefficient t
of a product reads only coefficients 0..t of its factors, so the window
claim squares prefixes.  Elements appear only at the boundary: the
``coeffs`` view, rendering, JSON, and the builders such as
``make_poly`` and ``parse_poly``, which encode once.  The
degree of the zero polynomial is negative infinity, which is neutral
for max and absorbing for +, so degree is a morphism from multiplication
and addition of polynomials into (max, +) arithmetic.

Truncated series are fixed windows of depth N: coefficients 0..N with
multiplication cut off beyond the window.  Idempotent windows have a
rigid shape (constant term 1 or m, every higher nonzero coefficient m,
support additively closed inside the window); the structural test
(``idempotent_shape``, on arrays of windows) and the direct squaring
test are both implemented and must agree.

Quadratic irreducibility over the order-k semiring has a closed form:
with both coefficients finite and nonzero it reduces to coprimality,
and with a saturated coefficient only the two mixed shapes with a unit
partner coefficient resist factoring.  ``factorization_oracle`` checks
the closed form independently by exhausting candidate factorizations
(``first_factorizations``, batched over chunks of candidate pairs).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import MANY, ZERO, ContextMismatchError, Elem, SemiringCtx, fin

NEG_INFINITY = float("-inf")

Degree = Union[int, float]


def _is_count(n, least: int) -> bool:
    """n is an int of at least ``least``, and not a bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= least


def _check_codes(ctx: SemiringCtx, codes: tuple) -> None:
    for c in codes:
        if type(c) is not int or not 0 <= c < ctx.size:
            raise ContextMismatchError(f"{c!r} is not an element code of order k={ctx.k}")


def _convolve(ctx: SemiringCtx, f: Sequence[int], g: Sequence[int], n: int) -> list:
    """The first n codes of the product of the code sequences f and g;
    zero terms are skipped, as 0 is neutral for + and absorbing for *."""
    rule = ctx._cayley
    out = [0] * n
    for i, a in enumerate(f[:n]):
        if a:
            for j, b in enumerate(g[: n - i], i):
                if b:
                    out[j] = rule("add", out[j], rule("mul", a, b))
    return out


def code_dtype(ctx: SemiringCtx) -> np.dtype:
    """The narrowest unsigned integer type holding every code of ctx."""
    return np.min_scalar_type(ctx.size - 1)


def code_rows(ctx: SemiringCtx, width: int) -> np.ndarray:
    """Every row of ``width`` codes, in the product order of the tuples."""
    shape = (ctx.size,) * width
    return np.indices(shape, dtype=code_dtype(ctx)).reshape(width, -1).T


def convolve_batch(ctx: SemiringCtx, f, g, n: int) -> np.ndarray:
    """``_convolve`` over whole arrays of code rows at once.

    The last axis of f and g holds coefficients, lowest degree first; the
    other axes broadcast.  Row for row the result is the first n codes of
    the product, with zero terms skipped as in ``_convolve``, so a table
    cell a + 0 or 0 * b is read exactly where the scalar product reads it.
    Coefficient t of the result reads only coefficients 0..t of f and g.

    Each term is one gather from the fused table ``add[s, mul[a, b]]`` of
    ``ctx.tables()``, with its planes a = 0 and b = 0 set to s: the skip.
    The table has (k + 2)^3 cells and is built on each call.
    """
    dtype = code_dtype(ctx)
    add, mul = ctx.tables()
    fused = add.astype(dtype)[:, mul]  # [s, a, b]
    fused[:, 0] = fused[:, :, 0] = np.arange(ctx.size, dtype=dtype)[:, None]
    index = np.min_scalar_type(ctx.size**3 - 1)  # a flat cell (s, a, b)
    size = index.type(ctx.size)
    f, g = np.asarray(f, dtype=index), np.asarray(g, dtype=index)
    out = np.zeros(np.broadcast_shapes(f.shape[:-1], g.shape[:-1]) + (n,), dtype=dtype)
    for i in range(min(f.shape[-1], n)):
        a = f[..., i]
        for j in range(min(g.shape[-1], n - i)):
            out[..., i + j] = fused.take((out[..., i + j] * size + a) * size + g[..., j])
    return out


@dataclass(frozen=True)
class Poly:
    """Polynomial in canonical form: element codes with no trailing 0."""

    ctx: SemiringCtx
    codes: tuple

    def __post_init__(self):
        if self.codes and self.codes[-1] == 0:
            raise ValueError("trailing zero coefficient; build polynomials with make_poly")
        _check_codes(self.ctx, self.codes)

    @classmethod
    def zero(cls, ctx: SemiringCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: SemiringCtx) -> "Poly":
        return cls(ctx, (ctx.encode(ctx.one),))

    @classmethod
    def constant(cls, ctx: SemiringCtx, a: Elem) -> "Poly":
        return make_poly(ctx, (a,))

    @classmethod
    def x(cls, ctx: SemiringCtx) -> "Poly":
        return cls(ctx, (0, ctx.encode(ctx.one)))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as elements, lowest degree first."""
        return tuple(map(self.ctx.decode, self.codes))

    def degree(self) -> Degree:
        return len(self.codes) - 1 if self.codes else NEG_INFINITY

    def _check_compat(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("polynomials live over different semirings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        rule = self.ctx._cayley
        sums = [rule("add", a, b) for a, b in zip_longest(self.codes, other.codes, fillvalue=0)]
        return _trimmed(self.ctx, sums)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        f, g = self.codes, other.codes
        return _trimmed(self.ctx, _convolve(self.ctx, f, g, len(f) + len(g) - 1))

    def is_unit(self) -> bool:
        """True exactly for the constant polynomial 1."""
        return self.codes == (self.ctx.encode(self.ctx.one),)

    def is_idempotent(self) -> bool:
        """True when f * f = f (holds exactly for the constants 0, 1 and m)."""
        return self * self == self

    def render(self) -> str:
        if not self.codes:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == ZERO:
                continue
            if i == 0:
                parts.append(c.render())
                continue
            power = "X" if i == 1 else f"X^{i}"
            if c == fin(1):
                parts.append(power)
            else:
                parts.append(f"{c.render()} {power}")
        return " + ".join(parts)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        return f"<Poly {self.render()} over k={self.ctx.k}>"


def _trimmed(ctx: SemiringCtx, codes: list) -> Poly:
    while codes and codes[-1] == 0:
        codes.pop()
    return Poly(ctx, tuple(codes))


def make_poly(ctx: SemiringCtx, coeffs: Iterable[Elem]) -> Poly:
    """Build a polynomial, trimming trailing zero coefficients."""
    return _trimmed(ctx, [ctx.encode(c) for c in coeffs])


_TERM_RE = re.compile(r"^(m|\d+)?(X(\^(\d+))?)?$")


def parse_poly(ctx: SemiringCtx, text: str) -> Poly:
    """Parse "c0 + c1 X + c2 X^2" style text (coefficient 1 may be omitted)."""
    body = text.strip()
    if not body:
        raise ValueError("empty polynomial text")
    codes: dict = {}
    for raw in body.split("+"):
        term = raw.replace(" ", "").replace("x", "X")
        match = _TERM_RE.match(term)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise ValueError(f"cannot parse polynomial term {raw.strip()!r}")
        coef_tok, has_x, _, power_tok = match.groups()
        coef = Elem.parse(coef_tok) if coef_tok is not None else fin(1)
        degree = 0 if has_x is None else (1 if power_tok is None else int(power_tok))
        codes[degree] = ctx._cayley("add", codes.get(degree, 0), ctx.encode(coef))
    return _trimmed(ctx, [codes.get(i, 0) for i in range(max(codes) + 1)])


@dataclass(frozen=True)
class TruncSeries:
    """A power series window: element codes for degrees 0..depth, no trimming."""

    ctx: SemiringCtx
    depth: int
    codes: tuple

    def __post_init__(self):
        if not _is_count(self.depth, 0):
            raise ValueError(f"depth must be an integer >= 0, got {self.depth!r}")
        if len(self.codes) != self.depth + 1:
            raise ValueError(
                f"window of depth {self.depth} needs {self.depth + 1} coefficients, "
                f"got {len(self.codes)}"
            )
        _check_codes(self.ctx, self.codes)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as elements, lowest degree first."""
        return tuple(map(self.ctx.decode, self.codes))

    def _check_compat(self, other: "TruncSeries"):
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("series live over different semirings")
        if other.depth != self.depth:
            raise ValueError("series windows have different depths")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compat(other)
        rule = self.ctx._cayley
        sums = tuple(rule("add", a, b) for a, b in zip(self.codes, other.codes))
        return TruncSeries(self.ctx, self.depth, sums)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """Product truncated to the window."""
        self._check_compat(other)
        out = _convolve(self.ctx, self.codes, other.codes, self.depth + 1)
        return TruncSeries(self.ctx, self.depth, tuple(out))

    def is_unit(self) -> bool:
        """True exactly for the constant-1 window."""
        return self.codes[0] == self.ctx.encode(self.ctx.one) and not any(self.codes[1:])

    def support(self) -> tuple:
        """Degrees >= 1 carrying a nonzero coefficient."""
        return tuple(i for i in range(1, self.depth + 1) if self.codes[i])

    def squares_to_self(self) -> bool:
        return self * self == self

    def has_idempotent_shape(self) -> bool:
        """Structural test: all zero, or constant term in {1, m}, higher
        nonzero coefficients all m, support additively closed in-window."""
        return bool(idempotent_shape(self.ctx, np.array([self.codes]))[0])

    def render(self) -> str:
        text = _trimmed(self.ctx, list(self.codes)).render()
        return f"{text} (window depth {self.depth})"

    def to_json(self) -> dict:
        return {"depth": self.depth, "coeffs": [c.to_json() for c in self.coeffs]}

    def __repr__(self):
        return f"<TruncSeries {self.render()} over k={self.ctx.k}>"


def make_series(ctx: SemiringCtx, depth: int, coeffs: Iterable[Elem]) -> TruncSeries:
    """Build a window of the given depth, padding with zeros."""
    cs = list(coeffs)
    if len(cs) > depth + 1:
        raise ValueError(f"{len(cs)} coefficients do not fit a window of depth {depth}")
    codes = [ctx.encode(c) for c in cs] + [0] * (depth + 1 - len(cs))
    return TruncSeries(ctx, depth, tuple(codes))


def idempotent_shape(ctx: SemiringCtx, windows) -> np.ndarray:
    """The structural idempotency test on each row of ``windows`` (codes of
    degrees 0..depth): the row is all zero, or its constant term is 1 or
    m, every higher nonzero code is m, and its support is additively
    closed inside the window.  A nonzero constant term with empty support
    passes: 1 and m square to themselves."""
    windows = np.asarray(windows)
    one, many = ctx.encode(ctx.one), ctx.encode(MANY)
    nonzero = windows != 0
    shaped = (windows[:, 0] == one) | (windows[:, 0] == many)
    shaped &= (~nonzero[:, 1:] | (windows[:, 1:] == many)).all(axis=1)
    depth = windows.shape[1] - 1
    for s in range(1, depth // 2 + 1):  # s + t <= depth for each t >= s
        escapes = nonzero[:, s, None] & nonzero[:, s : depth + 1 - s] & ~nonzero[:, 2 * s :]
        shaped &= ~escapes.any(axis=1)
    return shaped | ~nonzero.any(axis=1)


def ts_is_idempotent_window(f: TruncSeries) -> bool:
    """Window idempotency, computed both structurally and by squaring.

    The two answers must agree; a mismatch means the arithmetic itself
    is broken and is reported as an error rather than a value.
    """
    by_square = f.squares_to_self()
    by_shape = f.has_idempotent_shape()
    if by_square != by_shape:
        raise RuntimeError(
            f"idempotency checks disagree on {f!r}: squaring says {by_square}, "
            f"shape says {by_shape}"
        )
    return by_square


def idempotent_series_from_generators(
    ctx: SemiringCtx, constant: Elem, gens: Iterable[int], depth: int
) -> TruncSeries:
    """The idempotent window with the given constant term and support
    generated additively by ``gens`` inside [1, depth].

    The constant term must be 1 or m; generators are positive exponents.
    """
    constant = ctx.encode(constant)
    many = ctx.encode(MANY)
    if constant not in (ctx.encode(ctx.one), many):
        raise ValueError("constant term of an idempotent window must be 1 or m")
    gen_list = list(gens)
    if not gen_list:
        raise ValueError("need at least one generator")
    for g in gen_list:
        if not _is_count(g, 1):
            raise ValueError(f"generators must be integers >= 1, got {g!r}")
    if not _is_count(depth, 0):
        raise ValueError(f"depth must be an integer >= 0, got {depth!r}")
    reach = [False] * (depth + 1)
    reach[0] = True
    for i in range(1, depth + 1):
        reach[i] = any(g <= i and reach[i - g] for g in gen_list)
    codes = [constant] + [many if reach[i] else 0 for i in range(1, depth + 1)]
    return TruncSeries(ctx, depth, tuple(codes))


def quadratic(ctx: SemiringCtx, alpha: Elem, beta: Elem) -> Poly:
    """The polynomial alpha X^2 + beta."""
    return make_poly(ctx, (beta, ZERO, alpha))


def quadratic_irreducible(ctx: SemiringCtx, alpha: Elem, beta: Elem) -> bool:
    """Closed-form irreducibility of alpha X^2 + beta (alpha nonzero).

    Both coefficients finite and nonzero: irreducible iff coprime.
    Otherwise only m X^2 + 1 and X^2 + m are irreducible; in particular
    beta = 0 always factors as X times alpha X.
    """
    alpha = ctx.check(alpha)
    beta = ctx.check(beta)
    if alpha == ZERO:
        raise ValueError("leading coefficient must be nonzero")
    if alpha.kind == "fin" and beta.kind == "fin":
        return math.gcd(alpha.value, beta.value) == 1
    if alpha == MANY and beta == ctx.one:
        return True
    if alpha == ctx.one and beta == MANY:
        return True
    return False


def factorization_oracle(f: Poly) -> Optional[tuple]:
    """Search every factorization of f into two nonunit factors.

    Returns the first witness pair in a fixed enumeration order, or
    ``None`` when f is irreducible.  Exhaustive over coefficient tuples:
    it covers degree <= 2 and tries up to 2 (k + 2)^4 candidate pairs.
    """
    ctx = f.ctx
    deg = f.degree()
    if deg == NEG_INFINITY:
        raise ValueError("the zero polynomial is outside the oracle's scope")
    if deg > 2:
        raise ValueError(f"oracle covers degree <= 2, got degree {deg}")
    (witness,) = first_factorizations(ctx, [f.codes])
    return None if witness is None else tuple(Poly(ctx, codes) for codes in witness)


# a batch of the factor search holds at most max(_PAIR_BUDGET, (k + 2)^3)
# (g, h) pairs, or the pairs of one g
_PAIR_BUDGET = 1 << 16


def _nonunit_candidates(ctx: SemiringCtx, degree: int) -> np.ndarray:
    """Code rows of every polynomial of the given degree, in the product
    order of their coefficient tuples, leaving out the units: a unit
    factor must be a constant with a constant inverse, since degree is
    additive and nothing of positive degree divides 1."""
    rows = code_rows(ctx, degree + 1)
    keep = rows[:, -1] != 0
    if degree == 0:
        keep &= ~(ctx.tables()[1] == ctx.encode(ctx.one)).any(axis=1)
    return rows[keep]


def first_factorizations(ctx: SemiringCtx, targets) -> list:
    """For each row of ``targets`` (the codes of polynomials of one degree
    d <= 2), the first factorization into two nonunits, as a pair of code
    tuples (g, h), or ``None`` when there is none.

    The order is that of the exhaustive search: degree split d1 of g
    first, then g, then h, each in the product order of its coefficient
    tuple.  The search multiplies a chunk of consecutive g with every
    candidate h in one batch, so a pair's flat position in the batch is
    its place in that order.  A chunk holds at most max(2^16, (k + 2)^3)
    pairs, or one g, which bounds memory.
    """
    targets = np.asarray(targets, dtype=np.int64)
    deg = targets.shape[1] - 1
    place = ctx.size ** np.arange(deg + 1, dtype=np.int64)  # a code row as one number
    wanted = targets @ place
    found = [None] * len(targets)
    open_ = np.arange(len(targets))
    budget = max(_PAIR_BUDGET, ctx.size**3)
    for d1 in range(deg // 2 + 1):
        candidates = _nonunit_candidates(ctx, d1)
        partners = _nonunit_candidates(ctx, deg - d1)
        chunk = max(1, budget // max(1, len(partners)))
        for start in range(0, len(candidates), chunk):
            if not len(open_):
                return found
            gs = candidates[start : start + chunk]
            keys = (convolve_batch(ctx, gs[:, None], partners[None], deg + 1) @ place).ravel()
            order = np.argsort(keys, kind="stable")  # equal keys keep (g, h) order
            pos = np.searchsorted(keys[order], wanted[open_]).clip(max=len(keys) - 1)
            hit = keys[order[pos]] == wanted[open_]
            for t, pair in zip(open_[hit], order[pos[hit]]):
                g, h = divmod(int(pair), len(partners))
                found[t] = (tuple(gs[g].tolist()), tuple(partners[h].tolist()))
            open_ = open_[~hit]
    return found
