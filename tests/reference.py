"""Plain references shared by the tests.

``ref_add`` and ``ref_mul`` state the saturating rule on ``Elem`` values,
mutant included, independently of ``SemiringCtx._cayley``: oracles built
on them check the library's tables and rows against a second statement
of the rule instead of against themselves.

``ref_ideal``, ``ref_is_prime`` and ``ref_is_subtractive`` state the
ideal predicates as whole-table numpy scans over ``ctx.tables()``, for
the library's bit tests on table rows to be checked against.

``cell_fault`` and ``cell_corruptions`` inject one wrong cell into the
rule itself, so every arithmetic path of the library sees it.
"""

import numpy as np

from indigo.core import MANY, ZERO, ContextMismatchError, SemiringCtx, fin


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


_CLEAN_RULE = SemiringCtx._cayley


def cell_fault(op, i, j, wrong, k=3):
    """A ``SemiringCtx._cayley`` that puts ``wrong`` in cell (i, j) of the
    ``op`` table at order k and computes every other cell cleanly."""

    def rule(self, rule_op, a, b):
        codes = np.arange(self.size)
        table = _CLEAN_RULE(self, rule_op, codes[:, None], codes)
        if rule_op == op and self.k == k:
            table[i, j] = wrong
        return table[a, b]

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
