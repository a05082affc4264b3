"""Law scan kernels over dense Cayley tables, vectorized with numpy.

Tables are (n, n) integer arrays indexed by element codes (0 = zero,
1..k = finite, k + 1 = many); code order equals the semiring's total
order.  Each scan checks one semiring law over every index at once:
it builds the boolean array of violations and returns its
lexicographically first index as a tuple of codes, or ``None`` when the
law holds.  ``core.verify_laws`` is their only caller.
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
    return _first(t[t, :] != t[:, t])


def first_distributivity_break(add_t, mul_t) -> Optional[tuple]:
    """First (a, b, c) with a * (b + c) != a * b + a * c."""
    lhs = mul_t[:, add_t]  # [a, b, c] = mul_t[a, add_t[b, c]]
    rhs = add_t[mul_t[:, :, None], mul_t[:, None, :]]
    return _first(lhs != rhs)


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
    n = t.shape[0]
    bad = t[:, None, :] > t[None, :, :]  # [a, b, c] = t[a, c] > t[b, c]
    bad &= np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None]
    return _first(bad)
