"""Polynomials and truncated power series over Indigenous semirings.

Polynomials are dense tuples of element codes trimmed to canonical
form, and every product (polynomial, window or oracle candidate) is one
convolution over the Cayley table rows of ``ctx.table_rows()``, so a
query pays O(k) per row it reads at any order k.  Elements appear
only at the boundary: the ``coeffs`` view, rendering, JSON, and the
builders such as ``make_poly`` and ``parse_poly``, which encode once.  The
degree of the zero polynomial is negative infinity, which is neutral
for max and absorbing for +, so degree is a morphism from multiplication
and addition of polynomials into (max, +) arithmetic.

Truncated series are fixed windows of depth N: coefficients 0..N with
multiplication cut off beyond the window.  Idempotent windows have a
rigid shape (constant term 1 or m, every higher nonzero coefficient m,
support additively closed inside the window); the structural test and
the direct squaring test are both implemented and must agree.

Quadratic irreducibility over the order-k semiring has a closed form:
with both coefficients finite and nonzero it reduces to coprimality,
and with a saturated coefficient only the two mixed shapes with a unit
partner coefficient resist factoring.  ``factorization_oracle`` checks
the closed form independently by exhausting candidate factorizations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import product, zip_longest
from typing import Iterable, Optional, Sequence, Union

from .core import MANY, ZERO, ContextMismatchError, Elem, SemiringCtx, fin

NEG_INFINITY = float("-inf")

Degree = Union[int, float]


def _check_codes(ctx: SemiringCtx, codes: tuple) -> None:
    for c in codes:
        if type(c) is not int or not 0 <= c < ctx.size:
            raise ContextMismatchError(f"{c!r} is not an element code of order k={ctx.k}")


def _convolve(ctx: SemiringCtx, f: Sequence[int], g: Sequence[int], n: int) -> list:
    """The first n codes of the product of the code sequences f and g;
    zero terms are skipped, as 0 is neutral for + and absorbing for *."""
    add, mul = ctx.table_rows()
    out = [0] * n
    for i, a in enumerate(f[:n]):
        if a:
            row = mul[a]
            for j, b in enumerate(g[: n - i], i):
                if b:
                    out[j] = add[out[j]][row[b]]
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
        return tuple(self.ctx.elements()[c] for c in self.codes)

    def degree(self) -> Degree:
        return len(self.codes) - 1 if self.codes else NEG_INFINITY

    def _check_compat(self, other: "Poly"):
        if not isinstance(other, Poly):
            raise TypeError(f"expected Poly, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("polynomials live over different semirings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        add = self.ctx.table_rows()[0]
        sums = [add[a][b] for a, b in zip_longest(self.codes, other.codes, fillvalue=0)]
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
    add = ctx.table_rows()[0]
    codes: dict = {}
    for raw in body.split("+"):
        term = raw.replace(" ", "").replace("x", "X")
        match = _TERM_RE.match(term)
        if not match or (match.group(1) is None and match.group(2) is None):
            raise ValueError(f"cannot parse polynomial term {raw.strip()!r}")
        coef_tok, has_x, _, power_tok = match.groups()
        coef = Elem.parse(coef_tok) if coef_tok is not None else fin(1)
        degree = 0 if has_x is None else (1 if power_tok is None else int(power_tok))
        codes[degree] = add[codes.get(degree, 0)][ctx.encode(coef)]
    return _trimmed(ctx, [codes.get(i, 0) for i in range(max(codes) + 1)])


@dataclass(frozen=True)
class TruncSeries:
    """A power series window: element codes for degrees 0..depth, no trimming."""

    ctx: SemiringCtx
    depth: int
    codes: tuple

    def __post_init__(self):
        if not isinstance(self.depth, int) or self.depth < 0:
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
        return tuple(self.ctx.elements()[c] for c in self.codes)

    def _check_compat(self, other: "TruncSeries"):
        if not isinstance(other, TruncSeries):
            raise TypeError(f"expected TruncSeries, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise ContextMismatchError("series live over different semirings")
        if other.depth != self.depth:
            raise ValueError("series windows have different depths")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_compat(other)
        add = self.ctx.table_rows()[0]
        sums = tuple(add[a][b] for a, b in zip(self.codes, other.codes))
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
        if not any(self.codes):
            return True
        many = self.ctx.encode(MANY)
        if self.codes[0] not in (self.ctx.encode(self.ctx.one), many):
            return False
        sup = self.support()
        if any(self.codes[i] != many for i in sup):
            return False
        sup_set = set(sup)
        for s in sup:
            for t in sup:
                if s + t <= self.depth and s + t not in sup_set:
                    return False
        # a nonzero constant term with empty support is fine: 1 and m square to themselves
        return True

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
    gen_list = sorted(set(gens))
    if not gen_list:
        raise ValueError("need at least one generator")
    for g in gen_list:
        if not isinstance(g, int) or g < 1:
            raise ValueError(f"generators must be integers >= 1, got {g!r}")
    if not isinstance(depth, int) or depth < 0:
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
    target = list(f.codes)
    n = ctx.size
    # a unit factor must be a constant with a constant inverse: degree is
    # additive, so nothing of positive degree can divide 1
    mul, one = ctx.table_rows()[1], ctx.encode(ctx.one)
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
