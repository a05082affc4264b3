"""Law scan kernels over dense Cayley tables, vectorized with numpy.

Tables are (n, n) integer arrays indexed by element codes (0 = zero,
1..k = finite, k + 1 = many); code order equals the semiring's total
order.  Each scan checks one semiring law over every index at once:
it builds the boolean array of violations and returns its
lexicographically first index as a tuple of codes, or ``None`` when the
law holds.  ``core.verify_laws`` runs every scan on the semiring's
tables; the ideal semiring and the semiring of fractions, whose zero is
at position 0 too, run ``first_zero_divisor`` and ``first_zero_sum``.

The scans accept any integer dtype that holds the codes.
``verify_laws`` hands them the narrowest, ``core.code_dtype``:
``uint8`` up to k = 254 and ``uint16`` above.  The cubic scans cost
their (n, n, n) temporaries, one byte a cell at ``uint8`` against four
at ``int32``.

- Associativity compares ``t[t]``, a gather of whole rows, with
  ``t[:, t]``.
- Distributivity works in [a, c, b] layout, where both sides are row
  gathers: the left side is ``mul[:, add.T]``, and the right side
  a * b + a * c is row a * n + mul[a, c] of the contiguous (n^2, n)
  array ``[a * n + y, b] = add[mul[a, b], y]``.  The violations are put
  back in [a, b, c] order only when there is one.
- Monotonicity is quadratic: suffix minima over the rows give, for each
  a, the least t[b, c] over every b > a, so one (n, n) pass finds the
  first a with a violation and one (n, n) comparison at that a finds
  (b, c).
- The natural order and the canonical map are quadratic too; see their
  scans.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

BACKEND = "numpy"


def _first(bad: np.ndarray) -> Optional[tuple]:
    if not bad.any():  # far cheaper than argwhere on the clean (usual) case
        return None
    return tuple(int(c) for c in np.argwhere(bad)[0])


def first_commutativity_break(t) -> Optional[tuple]:
    """First (a, b) with t[a, b] != t[b, a]."""
    return _first(t != t.T)


def first_associativity_break(t) -> Optional[tuple]:
    """First (a, b, c) with t[t[a, b], c] != t[a, t[b, c]]."""
    return _first(t[t] != t[:, t])


def first_distributivity_break(add_t, mul_t) -> Optional[tuple]:
    """First (a, b, c) with a * (b + c) != a * b + a * c."""
    n = add_t.shape[0]
    sums = add_t.T[:, mul_t].transpose(1, 0, 2).reshape(n * n, n)  # [a * n + y, b]
    rhs = sums[mul_t + np.arange(0, n * n, n)[:, None]]  # [a, c, b], rows a * n + mul_t[a, c]
    del sums  # keeps three (n, n, n) arrays alive at most, not four
    bad = mul_t[:, add_t.T] != rhs  # [a, c, b]
    if not bad.any():  # the clean case reads the contiguous layout
        return None
    return _first(bad.transpose(0, 2, 1))


def first_identity_break(t, e: int) -> Optional[tuple]:
    """First a with t[e, a] != a or t[a, e] != a."""
    idx = np.arange(t.shape[0])
    return _first((t[e, :] != idx) | (t[:, e] != idx))


def first_absorption_break(t, z: int) -> Optional[tuple]:
    """First a with t[z, a] != z or t[a, z] != z."""
    return _first((t[z, :] != z) | (t[:, z] != z))


def first_zero_divisor(mul_t) -> Optional[tuple]:
    """First pair of nonzero codes whose product is zero."""
    bad = mul_t == 0
    bad[0, :] = False
    bad[:, 0] = False
    return _first(bad)


def first_zero_sum(add_t) -> Optional[tuple]:
    """First pair other than (0, 0) whose sum is zero."""
    bad = add_t == 0
    bad[0, 0] = False
    return _first(bad)


def first_monotonicity_break(t) -> Optional[tuple]:
    """First (a, b, c) with a < b in code order but t[a, c] > t[b, c]."""
    below = np.minimum.accumulate(t[::-1], axis=0)[::-1]  # [a, c] = min of t[b, c], b >= a
    rows = (t[:-1] > below[1:]).any(axis=1)
    if not rows.any():
        return None
    a = int(rows.argmax())
    b, c = _first(t[a] > t[a + 1:])
    return (a, a + 1 + b, c)


def first_order_break(add_t) -> Optional[tuple]:
    """First (a, b) where the natural order, a <= b iff a + c = b for some
    c, disagrees with the code order 0 < 1 < ... < k < m."""
    # agreement with that chain already gives reflexivity, antisymmetry,
    # transitivity and totality of the relation
    n = add_t.shape[0]
    natural = np.zeros((n, n), dtype=bool)
    natural[np.arange(n)[:, None], add_t] = True  # [a, a + c] for every c
    return _first(natural != np.triu(np.ones((n, n), dtype=bool)))


def first_canonical_map_break(add_t, mul_t) -> Optional[tuple]:
    """First pair of naturals (x, y) whose true sum or product the tables
    of order k = n - 2 do not send to the image of x + y or x * y under
    the canonical map, sums scanned before products.

    The map sends x to code x up to k and every x > k to m, code k + 1.
    For such an x the expected code of x + y is m, and of x * y it is 0
    when y = 0 and m otherwise: it depends on y only through its code,
    and the table cell read depends on x only through its code; the same
    holds with x and y swapped.  So a bad
    cell (x, y) outside the window [0, k + 1]^2 has a bad twin (min(x,
    k + 1), min(y, k + 1)) inside it that comes no later in lexicographic
    order, and the first bad pair over all naturals lies in the window.
    There natural and code coincide, so the scan reads the tables as they
    are.
    """
    n = add_t.shape[0]
    xs = np.arange(n)
    for op, table in ((np.add, add_t), (np.multiply, mul_t)):
        found = _first(table != np.minimum(op.outer(xs, xs), n - 1))
        if found is not None:
            return found
    return None
