"""Plain references shared by the tests.

``ref_add`` and ``ref_mul`` state the saturating rule on ``Elem`` values,
mutant included, independently of ``SemiringCtx._cayley``: oracles built
on them check the library's tables and rows against a second statement
of the rule instead of against themselves.

``cell_fault`` and ``cell_corruptions`` inject one wrong cell into the
rule itself, so every arithmetic path of the library sees it.
"""

import numpy as np

from indigo.core import MANY, ZERO, SemiringCtx, fin


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
