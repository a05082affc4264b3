"""Exact arithmetic for Indigenous semirings.

The Indigenous semiring of order k is the carrier {0, 1, ..., k, m} in
which counting saturates: any sum or product that would exceed k
collapses to the symbol m ("many").  Zero is the additive identity and
the multiplicative absorber, 1 is the multiplicative identity, and the
chain 0 < 1 < ... < k < m is a total order compatible with both
operations: the natural order, a <= b iff a + c = b for some c.  The
structure is an information algebra: it has no zero divisors (entire)
and no nonzero elements summing to zero (zerosumfree).

``SemiringCtx`` fixes the order k and owns all element arithmetic, the
dense Cayley tables over element codes, and the canonical quotient map
from the natural numbers.  The saturating rule is written once, in
``SemiringCtx._cayley`` on codes, and read in two forms: on Python ints,
exact and O(1) per cell at any k (the scalar ``add`` and ``mul``, and
every single product of the series layer), and on code arrays, where
``tables()`` evaluates it once over every cell for the dense readers.
``verify_laws`` checks every axiom exhaustively for one k and returns
one ``LawReport`` per law.

A deliberately wrong saturation rule can be injected through the
``INDIGO_MUTANT`` environment variable (or the ``mutant`` constructor
argument).  Verification harnesses use this hook to prove they would
catch a violation.  Valid mutant names: ``add-cap`` (finite overflow
sticks at k instead of m) and ``mul-cap`` (same for products).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels

MUTANT_ENV = "INDIGO_MUTANT"
_MUTANT_NAMES = ("add-cap", "mul-cap")

_KINDS = ("zero", "fin", "many")

_OPS = ("add", "mul")


class ContextMismatchError(ValueError):
    """An element does not live in the semiring it was used with."""


def _is_count(n, least: int) -> bool:
    """n is an int of at least ``least``, and not a bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= least


@dataclass(frozen=True)
class Elem:
    """One element: zero, a finite count 1..k, or the saturation symbol m."""

    kind: str
    value: Optional[int] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.kind == "fin":
            if not _is_count(self.value, 1):
                raise ValueError(f"finite element needs an integer value >= 1, got {self.value!r}")
        elif self.value is not None:
            raise ValueError(f"element kind {self.kind!r} carries no value")

    def render(self) -> str:
        """Text form: "0", "1", ..., "m"."""
        if self.kind == "zero":
            return "0"
        if self.kind == "many":
            return "m"
        return str(self.value)

    def to_json(self):
        """Machine form: an integer for 0 and finite values, the string "m" for many."""
        if self.kind == "zero":
            return 0
        if self.kind == "many":
            return "m"
        return self.value

    @staticmethod
    def parse(text: str) -> "Elem":
        token = text.strip()
        if token == "m":
            return MANY
        if token.isdecimal():
            n = int(token)
            return ZERO if n == 0 else fin(n)
        raise ValueError(f"cannot parse element token {text!r}")

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<Elem {self.render()}>"


ZERO = Elem("zero")
MANY = Elem("many")


def fin(n: int) -> Elem:
    """The finite element n (n >= 1)."""
    return Elem("fin", n)


_ONE = fin(1)


@dataclass(frozen=True)
class LawReport:
    """Outcome of one exhaustive law check.

    ``counterexample`` is present exactly when the law fails.  Its
    entries are ``Elem`` operands, except for the canonical-map law
    where they are the two offending natural numbers.
    """

    law: str
    holds: bool
    counterexample: Optional[tuple] = None

    def __post_init__(self):
        if self.holds and self.counterexample is not None:
            raise ValueError("a law that holds cannot carry a counterexample")
        if not self.holds and self.counterexample is None:
            raise ValueError("a failed law needs a counterexample")

    @staticmethod
    def from_counterexample(law: str, ce: Optional[tuple]) -> "LawReport":
        return LawReport(law, ce is None, ce)

    def render_counterexample(self) -> str:
        """Text form of the counterexample, e.g. "1, 1, 2"."""
        return ", ".join(x.render() if isinstance(x, Elem) else str(x) for x in self.counterexample)


class SemiringCtx:
    """Arithmetic context for the Indigenous semiring of order k.

    All operations validate their operands against k, so an element from
    a larger semiring cannot silently leak into a smaller one.
    """

    def __init__(self, k: int, mutant: Optional[str] = None):
        if not _is_count(k, 1):
            raise ValueError(f"order k must be an integer >= 1, got {k!r}")
        if mutant is None:
            mutant = os.environ.get(MUTANT_ENV) or None
        if mutant is not None and mutant not in _MUTANT_NAMES:
            raise ValueError(f"unknown mutant {mutant!r}; expected one of {_MUTANT_NAMES}")
        self.k = k
        self.mutant = mutant
        self._elements: Optional[tuple] = None
        self._tables = None
        self._ideals = None  # the ideal closure and lattice, kept by ``ideals._closure``

    def __eq__(self, other):
        return isinstance(other, SemiringCtx) and (self.k, self.mutant) == (other.k, other.mutant)

    def __hash__(self):
        return hash((self.k, self.mutant))

    def __repr__(self):
        tag = "" if self.mutant is None else f", mutant={self.mutant!r}"
        return f"SemiringCtx(k={self.k}{tag})"

    @property
    def size(self) -> int:
        """Number of elements, k + 2."""
        return self.k + 2

    @property
    def one(self) -> Elem:
        return _ONE

    def elements(self) -> tuple:
        """All elements in the total order 0 < 1 < ... < k < m."""
        if self._elements is None:
            self._elements = (ZERO,) + tuple(fin(i) for i in range(1, self.k + 1)) + (MANY,)
        return self._elements

    def nonzero_elements(self) -> tuple:
        return self.elements()[1:]

    def check(self, a: Elem) -> Elem:
        if not isinstance(a, Elem):
            raise TypeError(f"expected Elem, got {type(a).__name__}")
        if a.kind == "fin" and a.value > self.k:
            raise ContextMismatchError(f"element {a.render()} exceeds order k={self.k}")
        return a

    def add(self, a: Elem, b: Elem) -> Elem:
        """Saturating sum."""
        return self.decode(self._cayley("add", self.encode(a), self.encode(b)))

    def mul(self, a: Elem, b: Elem) -> Elem:
        """Saturating product."""
        return self.decode(self._cayley("mul", self.encode(a), self.encode(b)))

    def leq(self, a: Elem, b: Elem) -> bool:
        """Total order 0 < 1 < ... < k < m."""
        return self.encode(a) <= self.encode(b)

    def canonical_map(self, n: int) -> Elem:
        """Image of the natural number n under the quotient map onto the semiring."""
        if not _is_count(n, 0):
            raise ValueError(f"expected a natural number, got {n!r}")
        if n == 0:
            return ZERO
        if n <= self.k:
            return fin(n)
        return MANY

    def is_unit(self, a: Elem) -> bool:
        """True exactly for the multiplicative identity 1."""
        a = self.check(a)
        return a.kind == "fin" and a.value == 1

    def is_idempotent(self, a: Elem) -> bool:
        """True when a * a = a (holds exactly for 0, 1 and m)."""
        return self.mul(a, a) == self.check(a)

    def encode(self, a: Elem) -> int:
        """Dense code: 0 -> 0, finite n -> n, m -> k + 1.  Code order is the total order."""
        a = self.check(a)
        if a.kind == "zero":
            return 0
        if a.kind == "fin":
            return a.value
        return self.k + 1

    def decode(self, code: int) -> Elem:
        c = int(code)
        if c == 0:
            return ZERO
        if 1 <= c <= self.k:
            return fin(c)
        if c == self.k + 1:
            return MANY
        raise ValueError(f"code {c} out of range for order k={self.k}")

    def _cayley(self, op: str, a, b):
        """Codes of a + b (``op`` "add") or a * b ("mul") for codes a and b,
        Python ints (exact at any k) or broadcast numpy arrays.

        This is the saturating rule, and the only place the mutant acts: a
        result past k becomes m, or k under the ``op`` cap mutant when both
        operands are below m.
        """
        k, many = self.k, self.k + 1
        raw = a + b if op == "add" else a * b
        cap = k if self.mutant == f"{op}-cap" else many
        limit = many + (cap - many) * ((a < many) & (b < many))
        return raw + (raw > k) * (limit - raw)

    def tables(self):
        """Dense Cayley tables (add, mul) over element codes, built once.

        Any injected mutant rule flows into the tables through ``_cayley``,
        the rule the scalar operations decode.
        """
        if self._tables is None:
            codes = np.arange(self.size, dtype=np.int64)
            self._tables = tuple(
                self._cayley(op, codes[:, None], codes).astype(np.int32) for op in _OPS
            )
            for t in self._tables:
                t.setflags(write=False)
        return self._tables


def code_dtype(ctx: SemiringCtx) -> np.dtype:
    """The narrowest unsigned integer type holding every code of ctx."""
    return np.min_scalar_type(ctx.size - 1)


LAW_NAMES = (
    "add-commutative",
    "add-associative",
    "mul-commutative",
    "mul-associative",
    "distributive",
    "one-identity",
    "zero-identity",
    "zero-absorbing",
    "entire",
    "zerosumfree",
    "add-order-compatible",
    "mul-order-compatible",
    "total-order",
    "canonical-map-homomorphism",
)


def verify_laws(ctx: SemiringCtx) -> list:
    """Exhaustively check every semiring and order law for ctx.

    Returns one ``LawReport`` per law in a fixed order.  The scans are
    at most cubic in k; they read the tables cast once to the narrowest
    dtype that holds the codes.
    """
    add_t, mul_t = (t.astype(code_dtype(ctx)) for t in ctx.tables())

    one = ctx.encode(ctx.one)
    scans = [
        kernels.first_commutativity_break(add_t),
        kernels.first_associativity_break(add_t),
        kernels.first_commutativity_break(mul_t),
        kernels.first_associativity_break(mul_t),
        kernels.first_distributivity_break(add_t, mul_t),
        kernels.first_identity_break(mul_t, one),
        kernels.first_identity_break(add_t, 0),
        kernels.first_absorption_break(mul_t, 0),
        kernels.first_zero_divisor(mul_t),
        kernels.first_zero_sum(add_t),
        kernels.first_monotonicity_break(add_t),
        kernels.first_monotonicity_break(mul_t),
        kernels.first_order_break(add_t),
    ]
    reports = [
        LawReport.from_counterexample(law, None if ce is None else tuple(map(ctx.decode, ce)))
        for law, ce in zip(LAW_NAMES, scans)
    ]
    ce = kernels.first_canonical_map_break(add_t, mul_t)
    return reports + [LawReport.from_counterexample(LAW_NAMES[-1], ce)]
