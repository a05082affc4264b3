"""Ideal lattice, prime spectrum and localization of Indigenous semirings.

An ideal is a subset containing zero, closed under addition and
absorbing products with arbitrary elements.  The lattice is tiny and
highly constrained: every nonzero ideal contains m, {0, m} is the least
nonzero ideal, the complement of 1 is the unique maximal ideal, and the
only primes are {0} and that maximal ideal, so the Zariski spectrum is
the two-point Sierpinski space.

An ideal is a bitmask over element codes: bit c is set when the element
with code c (``SemiringCtx.encode``) belongs to it.  All arithmetic in
this module reads the Cayley tables of ``ctx.tables()``; elements appear
only at the boundary, in arguments and in views such as
``Ideal.members``.

Enumeration walks the closed masks of the ideal closure in lectic
order (Ganter's NextClosure), so it costs at most k + 2 closures per
ideal found rather than a test of every subset; the default bound keeps
k <= 16.

``LocalizedSemiring`` implements fractions over a multiplicatively
closed set U through the relation a/u = b/v iff t*a*v = t*b*u for some
t in U.  ``IdealSemiring`` makes the set of ideals itself a semiring
under ideal sum and ideal product.  The sum is the lattice join, closed
once per distinct union of masks; a product I * J is the join, over the
codes x of I, of the principal products x * J, so the product table
takes (k + 2) closures per ideal plus sum-table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Optional

import numpy as np

from .core import ZERO, ContextMismatchError, Elem, SemiringCtx, check_bound

IDEAL_ENUM_BOUND = 16


def _codes(mask: int):
    """The codes whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _member(ctx: SemiringCtx, mask: int) -> np.ndarray:
    """Membership of every code of ctx in ``mask``, as a boolean array."""
    return np.array([mask >> c & 1 for c in range(ctx.size)], dtype=bool)


def _name(ctx: SemiringCtx, code) -> str:
    return ctx.decode(code).render()


class _Closure:
    """The ideal closure of a code mask, read off ``ctx.tables()``.

    Built once per context and reused across masks; ``product`` closes
    the pairwise products of two masks.
    """

    def __init__(self, ctx: SemiringCtx):
        add, mul = ([rows[a] for a in range(ctx.size)] for rows in ctx.table_rows())
        # bits of a + b and b + a, of x * y, and of every s * a
        self._sum_bits = [
            [1 << c | 1 << d for c, d in zip(row, col)] for row, col in zip(add, zip(*add))
        ]
        self._mul_bits = [[1 << c for c in row] for row in mul]
        self._absorb = [sum(1 << c for c in set(col)) for col in zip(*mul)]

    def __call__(self, mask: int) -> int:
        """Least ideal containing the codes in ``mask``."""
        mask |= 1
        members = list(_codes(mask))
        for a in members:  # grows while it is walked
            sums = self._sum_bits[a]
            grown = self._absorb[a]
            for b in members:
                grown |= sums[b]
            grown &= ~mask
            if grown:
                mask |= grown
                members.extend(_codes(grown))
        return mask

    def product(self, a: int, b: int) -> int:
        """Least ideal containing x * y for every x in ``a`` and y in ``b``."""
        ys = list(_codes(b))
        seed = 0
        for x in _codes(a):
            bits = self._mul_bits[x]
            for y in ys:
                seed |= bits[y]
        return self(seed)


@dataclass(frozen=True)
class Ideal:
    """An ideal of the order-k semiring as a code bitmask, validated at construction."""

    ctx: SemiringCtx
    mask: int

    def __post_init__(self):
        ctx, mask = self.ctx, self.mask
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
            raise ValueError(
                f"not absorbing: {_name(ctx, s)} * {_name(ctx, inside[j])} escapes"
            )

    @property
    def members(self) -> frozenset:
        return frozenset(self.sorted_members())

    def sorted_members(self) -> tuple:
        return tuple(self.ctx.decode(c) for c in _codes(self.mask))

    def contains(self, a: Elem) -> bool:
        return bool(self.mask >> self.ctx.encode(a) & 1)

    @property
    def is_zero(self) -> bool:
        return self.mask == 1

    @property
    def is_whole(self) -> bool:
        return self.mask == (1 << self.ctx.size) - 1

    @property
    def is_proper(self) -> bool:
        return not self.is_whole

    def issubset(self, other: "Ideal") -> bool:
        return not self.mask & ~other.mask

    def sort_key(self) -> tuple:
        """Canonical order: cardinality, then lexicographic on sorted member codes."""
        codes = tuple(_codes(self.mask))
        return (len(codes), codes)

    def render(self) -> str:
        return "{" + ", ".join(a.render() for a in self.sorted_members()) + "}"

    def to_json(self) -> list:
        return [a.to_json() for a in self.sorted_members()]

    def __repr__(self):
        return f"<Ideal {self.render()} of k={self.ctx.k}>"


def _next_closures(close, n: int):
    """Every mask over n bits that ``close`` fixes, in lectic order.

    Ganter's NextClosure: from a closed mask, the next one is the closure
    of its bits below i plus bit i, for the highest i that adds no lower
    bit.  ``close`` must be a closure operator on n-bit masks; it is
    called at most n times per mask yielded.
    """
    full = (1 << n) - 1
    mask = close(0)
    yield mask
    while mask != full:
        for i in reversed(range(n)):
            bit = 1 << i
            if mask & bit:
                continue
            low = mask & (bit - 1)
            grown = close(low | bit)
            if grown & (bit - 1) == low:
                break
        mask = grown
        yield mask


def enumerate_ideals(ctx: SemiringCtx, max_k: Optional[int] = IDEAL_ENUM_BOUND) -> list:
    """Every ideal, in canonical order (cardinality, then lexicographic).

    NextClosure over the ideal closure: at most k + 2 closures per ideal.
    The lattice itself grows fast with k, so the default bound keeps
    k <= 16; ``max_k=None`` lifts it.
    """
    check_bound(ctx.k, max_k, "ideal enumeration is")
    masks = _next_closures(_Closure(ctx), ctx.size)
    return sorted((Ideal(ctx, m) for m in masks), key=Ideal.sort_key)


def ideal_generated(ctx: SemiringCtx, gens: Iterable[Elem]) -> Ideal:
    """Least ideal containing the given elements."""
    seed = 0
    for g in gens:
        seed |= 1 << ctx.encode(g)
    return Ideal(ctx, _Closure(ctx)(seed))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ctx != b.ctx:
        raise ValueError("ideal sum needs a common semiring")
    return Ideal(a.ctx, _Closure(a.ctx)(a.mask | b.mask))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Least ideal containing all pairwise products."""
    if a.ctx != b.ctx:
        raise ValueError("ideal product needs a common semiring")
    return Ideal(a.ctx, _Closure(a.ctx).product(a.mask, b.mask))


def is_prime(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Proper, and a product lands inside only if a factor does."""
    if not ideal.is_proper:
        return False
    member = _member(ctx, ideal.mask)
    outside = np.flatnonzero(~member)
    return not member[ctx.tables()[1][outside[:, None], outside]].any()


def is_maximal(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Proper, and adding any element outside it generates the whole semiring."""
    if not ideal.is_proper:
        return False
    close = _Closure(ctx)
    full = (1 << ctx.size) - 1
    return all(close(ideal.mask | 1 << c) == full for c in _codes(full & ~ideal.mask))


def is_subtractive(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Whether a in I and a + b in I force b in I."""
    member = _member(ctx, ideal.mask)
    sums_in = member[ctx.tables()[0][np.flatnonzero(member)]]  # [a, b]: a + b in I
    return not (sums_in & ~member).any()


def radical(ctx: SemiringCtx, ideal: Ideal) -> Ideal:
    """Elements some power of which lands in the ideal."""
    mul = ctx.table_rows()[1]
    mask = 0
    for a in range(ctx.size):
        p, seen = a, set()
        while not ideal.mask >> p & 1 and p not in seen:
            seen.add(p)
            p = mul[p][a]
        if ideal.mask >> p & 1:
            mask |= 1 << a
    return Ideal(ctx, mask)


@dataclass(frozen=True)
class SpectrumView:
    """The Zariski spectrum: prime ideals plus the closed-set family."""

    ctx: SemiringCtx
    points: tuple
    closed_sets: frozenset

    @property
    def is_sierpinski(self) -> bool:
        """Two points, three closed sets: the Sierpinski space."""
        return len(self.points) == 2 and len(self.closed_sets) == 3

    def to_json(self) -> dict:
        index = {p: i for i, p in enumerate(self.points)}
        families = sorted(
            (sorted(index[p] for p in cs) for cs in self.closed_sets),
            key=lambda xs: (len(xs), xs),
        )
        return {
            "points": [p.to_json() for p in self.points],
            "closed_sets": families,
            "sierpinski": self.is_sierpinski,
        }


def spectrum(ctx: SemiringCtx, max_k: Optional[int] = IDEAL_ENUM_BOUND) -> SpectrumView:
    """Prime ideals with closed sets V(I) = primes containing I."""
    ideals = enumerate_ideals(ctx, max_k=max_k)
    points = tuple(p for p in ideals if is_prime(ctx, p))
    closed = frozenset(
        frozenset(p for p in points if ideal.issubset(p)) for ideal in ideals
    )
    return SpectrumView(ctx, points, closed)


_BOOLEAN_ADD = ((0, 1), (1, 1))
_BOOLEAN_MUL = ((0, 0), (0, 1))

_ISO_SEARCH_LIMIT = 4


def _tables_isomorphic(add_a, mul_a, zero_a, one_a, add_b, mul_b, zero_b, one_b) -> bool:
    """Exhaustive bijection search; sizes are capped tiny by the caller."""
    n = len(add_a)
    if n != len(add_b):
        return False
    if n > _ISO_SEARCH_LIMIT:
        raise ValueError(f"bijection search capped at {_ISO_SEARCH_LIMIT} classes, got {n}")
    for perm in permutations(range(n)):
        if perm[zero_a] != zero_b or perm[one_a] != one_b:
            continue
        good = True
        for i in range(n):
            for j in range(n):
                if perm[add_a[i][j]] != add_b[perm[i]][perm[j]]:
                    good = False
                    break
                if perm[mul_a[i][j]] != mul_b[perm[i]][perm[j]]:
                    good = False
                    break
            if not good:
                break
        if good:
            return True
    return False


def _class_table(results: np.ndarray, label: np.ndarray, firsts: np.ndarray) -> tuple:
    """Class table from the result class of every pair of pairs; ``label[i]``
    is the first pair of pair i's class, ``firsts`` the first pair of each."""
    if not np.array_equal(results, results[np.ix_(label, label)]):
        raise RuntimeError(
            "fraction operation is not representative-independent; "
            "the unit set does not yield a semiring"
        )
    return tuple(map(tuple, results[np.ix_(firsts, firsts)].tolist()))


class LocalizedSemiring:
    """Fractions of the order-k semiring over a multiplicatively closed set U.

    Classes, the zero and one classes, and both operation tables are
    computed eagerly; representative independence of the tables is
    verified over every representative pair, so a successfully
    constructed instance is a genuine semiring.
    """

    def __init__(self, ctx: SemiringCtx, units: Iterable[Elem]):
        unit_set = frozenset(ctx.check(u) for u in units)
        if not unit_set:
            raise ValueError("U must be nonempty")
        if ZERO in unit_set:
            raise ValueError("U must not contain zero")
        if ctx.one not in unit_set:
            raise ValueError("U must contain 1")
        add_t, mul_t = ctx.tables()
        us = sorted(ctx.encode(u) for u in unit_set)
        for u in us:
            for v in us:
                if mul_t[u, v] not in us:
                    raise ValueError(
                        "U is not multiplicatively closed: "
                        f"{_name(ctx, u)} * {_name(ctx, v)} escapes"
                    )
        self.ctx = ctx
        self.unit_set = unit_set

        # pair i is the fraction num[i] / den[i]; [i, j] below is pair i with pair j
        n = ctx.size
        num = np.repeat(np.arange(n), len(us))
        den = np.tile(us, n)
        self._pairs = tuple(zip(num.tolist(), den.tolist()))
        left = mul_t[num[:, None], den[None, :]]  # a * v
        right = mul_t[num[None, :], den[:, None]]  # b * u
        scaled = mul_t[us]  # row t: t * x for every code x
        same = (scaled[:, :, None] == scaled[:, None, :]).any(axis=0)
        related = same[left, right]
        # each pair takes the least pair index of its component
        label = np.arange(len(num))
        while True:
            lower = np.where(related, label[None, :], len(num)).min(axis=1)
            if np.array_equal(lower, label):
                break
            label = lower
        firsts, cls = np.unique(label, return_inverse=True)
        self._classes = tuple(
            tuple(self._pairs[i] for i in np.flatnonzero(cls == ci)) for ci in range(len(firsts))
        )
        self._class_at = np.full((n, n), -1, dtype=np.int64)  # [a, u]: class of a/u
        self._class_at[num, den] = cls

        one = ctx.encode(ctx.one)
        self.zero_index = int(self._class_at[0, one])
        self.one_index = int(self._class_at[one, one])
        units_prod = mul_t[den[:, None], den[None, :]]
        self.add_table = _class_table(
            self._class_at[add_t[left, right], units_prod], label, firsts
        )
        self.mul_table = _class_table(
            self._class_at[mul_t[num[:, None], num[None, :]], units_prod], label, firsts
        )

    def _decoded(self, pairs) -> tuple:
        decode = self.ctx.decode
        return tuple((decode(a), decode(u)) for a, u in pairs)

    @property
    def pairs(self) -> tuple:
        return self._decoded(self._pairs)

    @property
    def class_count(self) -> int:
        return len(self._classes)

    def class_of(self, a: Elem, u: Elem) -> int:
        if u not in self.unit_set:
            raise ValueError(f"denominator {u.render()} is not in U")
        return int(self._class_at[self.ctx.encode(a), self.ctx.encode(u)])

    def class_members(self, index: int) -> tuple:
        return self._decoded(self._classes[index])

    def add_class(self, i: int, j: int) -> int:
        return self.add_table[i][j]

    def mul_class(self, i: int, j: int) -> int:
        return self.mul_table[i][j]

    def is_entire(self) -> bool:
        z = self.zero_index
        n = self.class_count
        return not any(
            self.mul_table[i][j] == z
            for i in range(n)
            if i != z
            for j in range(n)
            if j != z
        )

    def is_zerosumfree(self) -> bool:
        z = self.zero_index
        n = self.class_count
        for i in range(n):
            for j in range(n):
                if self.add_table[i][j] == z and (i != z or j != z):
                    return False
        return True

    def is_boolean(self) -> bool:
        """Isomorphic to the two-element Boolean semiring (1 + 1 = 1)."""
        if self.class_count != 2:
            return False
        return _tables_isomorphic(
            self.add_table,
            self.mul_table,
            self.zero_index,
            self.one_index,
            _BOOLEAN_ADD,
            _BOOLEAN_MUL,
            0,
            1,
        )

    def matches_ambient(self) -> bool:
        """Whether a -> a/1 is a table-preserving bijection onto the classes."""
        image = self._class_at[:, self.ctx.encode(self.ctx.one)]
        if len(set(image.tolist())) != len(image) or len(image) != self.class_count:
            return False
        grid = np.ix_(image, image)
        return all(
            np.array_equal(np.array(classes)[grid], image[table])
            for classes, table in zip((self.add_table, self.mul_table), self.ctx.tables())
        )

    def to_json(self) -> dict:
        return {
            "unit_set": [u.to_json() for u in sorted(self.unit_set, key=Elem.sort_key)],
            "class_count": self.class_count,
            "classes": [
                [[a.to_json(), u.to_json()] for (a, u) in self.class_members(ci)]
                for ci in range(self.class_count)
            ],
            "zero_class": self.zero_index,
            "one_class": self.one_index,
            "boolean": self.is_boolean(),
            "entire": self.is_entire(),
            "zerosumfree": self.is_zerosumfree(),
        }


def localize(ctx: SemiringCtx, units: Iterable[Elem]) -> LocalizedSemiring:
    """The semiring of fractions of ctx over the multiplicatively closed set U."""
    return LocalizedSemiring(ctx, units)


def _ideal_tables(ctx: SemiringCtx, index: dict) -> tuple:
    """Sum and product tables of the ideals in ``index`` (mask -> position),
    as arrays of positions: [i, j] is ideal i + ideal j, or ideal i * ideal j.

    The sum closes each distinct union of two masks once.  The product
    of I and J is the join of the principal products x * J over the
    codes x of I, so it needs one closure per code and ideal, and then
    only sum-table lookups.
    """
    close = _Closure(ctx)
    masks = list(index)
    joins = dict(index)  # union mask -> position of its closure; an ideal closes to itself
    for union in {a | b for a in masks for b in masks}.difference(joins):
        joins[union] = index[close(union)]
    add = np.array([[joins[a | b] for b in masks] for a in masks])
    principal = np.array(
        [[index[close.product(1 << x, b)] for b in masks] for x in range(ctx.size)]
    )
    mul = np.full_like(add, index[close(0)])  # the least ideal is neutral for the join
    for x, products in enumerate(principal):
        rows = np.flatnonzero([a >> x & 1 for a in masks])  # the ideals containing x
        mul[rows] = add[mul[rows], products]
    return add, mul


class IdealSemiring:
    """All ideals under ideal sum and ideal product.

    Neutral elements are {0} for the sum and the whole semiring for the
    product.  The structure is additively idempotent, zerosumfree and
    entire, and the least nonzero ideal absorbs products of nonzero
    ideals.
    """

    def __init__(self, ctx: SemiringCtx, max_k: Optional[int] = IDEAL_ENUM_BOUND):
        self.ctx = ctx
        self.ideals = tuple(enumerate_ideals(ctx, max_k=max_k))
        index = self._index = {ideal.mask: i for i, ideal in enumerate(self.ideals)}
        self.zero_index = index[1]  # the ideal {0}
        self.one_index = index[(1 << ctx.size) - 1]  # the whole semiring
        self.ls_index = index[1 | 1 << (ctx.size - 1)]  # {0, m}
        add, mul = _ideal_tables(ctx, index)
        self.add_table = tuple(map(tuple, add.tolist()))
        self.mul_table = tuple(map(tuple, mul.tolist()))

    def index_of(self, ideal: Ideal) -> int:
        return self._index[ideal.mask]

    @property
    def size(self) -> int:
        return len(self.ideals)

    def is_additively_idempotent(self) -> bool:
        return all(self.add_table[i][i] == i for i in range(self.size))

    def is_zerosumfree(self) -> bool:
        z = self.zero_index
        for i in range(self.size):
            for j in range(self.size):
                if self.add_table[i][j] == z and (i != z or j != z):
                    return False
        return True

    def is_entire(self) -> bool:
        z = self.zero_index
        return not any(
            self.mul_table[i][j] == z
            for i in range(self.size)
            if i != z
            for j in range(self.size)
            if j != z
        )

    def least_nonzero_absorbs(self) -> bool:
        """{0, m} times any nonzero ideal is {0, m} again."""
        s = self.ls_index
        return all(
            self.mul_table[s][i] == s
            for i in range(self.size)
            if i != self.zero_index
        )

    def to_json(self) -> dict:
        return {
            "k": self.ctx.k,
            "count": self.size,
            "ideals": [ideal.to_json() for ideal in self.ideals],
            "additively_idempotent": self.is_additively_idempotent(),
            "zerosumfree": self.is_zerosumfree(),
            "entire": self.is_entire(),
        }


def ideal_semiring(ctx: SemiringCtx, max_k: Optional[int] = IDEAL_ENUM_BOUND) -> IdealSemiring:
    """The semiring of ideals of ctx."""
    return IdealSemiring(ctx, max_k=max_k)


def nilpotency_index(ctx: SemiringCtx, max_k: Optional[int] = IDEAL_ENUM_BOUND) -> int:
    """Least n for which every product of n nonzero proper ideals is {0, m}.

    Such an n always exists; 2^n > k is a guaranteed upper bound because
    an n-fold product of elements >= 2 then exceeds k.
    """
    lattice = enumerate_ideals(ctx, max_k=max_k)
    index = {ideal.mask: i for i, ideal in enumerate(lattice)}
    mul = _ideal_tables(ctx, index)[1]
    full = (1 << ctx.size) - 1
    factors = [i for mask, i in index.items() if mask not in (1, full)]
    least = index.get(1 | 1 << (ctx.size - 1))  # {0, m}
    current = factors
    n = 1
    while current != [least]:
        reached = np.zeros(len(lattice), dtype=bool)
        reached[mul[np.ix_(current, factors)]] = True
        current = np.flatnonzero(reached).tolist()
        n += 1
        if n > 2 * ctx.k + 2:
            raise RuntimeError("nilpotency iteration failed to stabilize")
    return n
