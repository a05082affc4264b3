"""Hot scan kernels over dense Cayley tables, vectorized with numpy.

Tables are (n, n) integer arrays indexed by element codes (0 = zero,
1..k = finite, k + 1 = many); code order equals the semiring's total
order.  Each law scan builds the boolean array of violations and
returns its lexicographically first index as a tuple of codes, or
``None`` when the law holds.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

BACKEND = "numpy"

_IDEAL_CHUNK = 4096


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


def all_ideal_masks(add_t, mul_t) -> np.ndarray:
    """Bitmasks of every subset that is an ideal, in ascending mask order.

    Bit c of a mask records membership of code c.  Candidates are all
    subsets containing zero; each is tested for closure under addition
    and for absorbing products with arbitrary elements.
    """
    n = add_t.shape[0]
    total = 1 << (n - 1)
    bits = np.arange(n, dtype=np.int64)
    add_flat = add_t.ravel().astype(np.int64)
    mul_flat = mul_t.ravel().astype(np.int64)
    found = [np.empty(0, dtype=np.int64)]
    for start in range(0, total, _IDEAL_CHUNK):
        parts = np.arange(start, min(start + _IDEAL_CHUNK, total), dtype=np.int64)
        full = (parts << 1) | 1  # zero is always a member
        member = ((full[:, None] >> bits[None, :]) & 1).astype(bool)  # (S, n)
        sums_in = member[:, add_flat].reshape(-1, n, n)
        closed = np.all(~(member[:, :, None] & member[:, None, :]) | sums_in, axis=(1, 2))
        prods_in = member[:, mul_flat].reshape(-1, n, n)  # [i, s, a] = member of mul_t[s, a]
        absorbed = np.all(~member[:, None, :] | prods_in, axis=(1, 2))
        found.append(full[closed & absorbed])
    return np.concatenate(found)
