"""Ideal lattice, prime spectrum and localization of Indigenous semirings.

An ideal is a subset containing zero, closed under addition and
absorbing products with arbitrary elements.  The lattice is tiny and
highly constrained: every nonzero ideal contains m, {0, m} is the least
nonzero ideal, the complement of 1 is the unique maximal ideal, and the
only primes are {0} and that maximal ideal, so the Zariski spectrum is
the two-point Sierpinski space.

Enumeration is exhaustive over all subsets (2^(k+1) candidates) and is
delegated to the scan kernels; the default bound keeps k <= 16.

``LocalizedSemiring`` implements fractions over a multiplicatively
closed set U through the relation a/u = b/v iff t*a*v = t*b*u for some
t in U.  ``IdealSemiring`` makes the set of ideals itself a semiring
under ideal sum and ideal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Optional

from . import kernels
from .core import ZERO, Elem, SemiringCtx, check_bound

IDEAL_ENUM_BOUND = 16


def _close_codes(ctx: SemiringCtx, seed: Iterable[int]) -> frozenset:
    """Least ideal (as a code set) containing the seed codes."""
    add_t, mul_t = ctx.tables()
    n = ctx.size
    members = set(seed)
    members.add(0)
    pending = list(members)
    while pending:
        a = pending.pop()
        for b in list(members):
            c = int(add_t[a, b])
            if c not in members:
                members.add(c)
                pending.append(c)
        for s in range(n):
            c = int(mul_t[s, a])
            if c not in members:
                members.add(c)
                pending.append(c)
    return frozenset(members)


def _mask_of(codes: Iterable[int]) -> int:
    mask = 0
    for c in codes:
        mask |= 1 << c
    return mask


@dataclass(frozen=True)
class Ideal:
    """An ideal of the order-k semiring, validated at construction."""

    ctx: SemiringCtx
    members: frozenset

    def __post_init__(self):
        ctx = self.ctx
        for a in self.members:
            ctx.check(a)
        if ZERO not in self.members:
            raise ValueError("an ideal must contain zero")
        for a in self.members:
            for b in self.members:
                if ctx.add(a, b) not in self.members:
                    raise ValueError(
                        f"not closed under addition: {a.render()} + {b.render()} escapes"
                    )
        for s in ctx.elements():
            for a in self.members:
                if ctx.mul(s, a) not in self.members:
                    raise ValueError(
                        f"not absorbing: {s.render()} * {a.render()} escapes"
                    )

    @classmethod
    def from_codes(cls, ctx: SemiringCtx, codes: Iterable[int]) -> "Ideal":
        return cls(ctx, frozenset(ctx.decode(c) for c in codes))

    @classmethod
    def from_mask(cls, ctx: SemiringCtx, mask: int) -> "Ideal":
        return cls.from_codes(ctx, (c for c in range(ctx.size) if mask >> c & 1))

    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members, key=Elem.sort_key))

    @property
    def mask(self) -> int:
        return _mask_of(self.ctx.encode(a) for a in self.members)

    def contains(self, a: Elem) -> bool:
        return self.ctx.check(a) in self.members

    @property
    def is_zero(self) -> bool:
        return len(self.members) == 1

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.ctx.size

    @property
    def is_proper(self) -> bool:
        return not self.is_whole

    def issubset(self, other: "Ideal") -> bool:
        return self.members <= other.members

    def sort_key(self) -> tuple:
        """Canonical order: cardinality, then lexicographic on sorted members."""
        return (len(self.members), tuple(self.ctx.encode(a) for a in self.sorted_members()))

    def render(self) -> str:
        return "{" + ", ".join(a.render() for a in self.sorted_members()) + "}"

    def to_json(self) -> list:
        return [a.to_json() for a in self.sorted_members()]

    def __repr__(self):
        return f"<Ideal {self.render()} of k={self.ctx.k}>"


def enumerate_ideals(ctx: SemiringCtx, max_k: Optional[int] = IDEAL_ENUM_BOUND) -> list:
    """Every ideal, in canonical order (cardinality, then lexicographic).

    Exhausts all 2^(k+1) subsets containing zero, so the default bound
    keeps k <= 16; ``max_k=None`` lifts it.
    """
    check_bound(ctx.k, max_k, "ideal enumeration is exhaustive over subsets;")
    add_t, mul_t = ctx.tables()
    masks = kernels.all_ideal_masks(add_t, mul_t)
    ideals = [Ideal.from_mask(ctx, int(m)) for m in masks]
    ideals.sort(key=Ideal.sort_key)
    return ideals


def ideal_generated(ctx: SemiringCtx, gens: Iterable[Elem]) -> Ideal:
    """Least ideal containing the given elements."""
    codes = [ctx.encode(g) for g in gens]
    return Ideal.from_codes(ctx, _close_codes(ctx, codes))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ctx != b.ctx:
        raise ValueError("ideal sum needs a common semiring")
    ctx = a.ctx
    seed = {ctx.encode(ctx.add(x, y)) for x in a.members for y in b.members}
    return Ideal.from_codes(ctx, _close_codes(ctx, seed))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Least ideal containing all pairwise products."""
    if a.ctx != b.ctx:
        raise ValueError("ideal product needs a common semiring")
    ctx = a.ctx
    seed = {ctx.encode(ctx.mul(x, y)) for x in a.members for y in b.members}
    return Ideal.from_codes(ctx, _close_codes(ctx, seed))


def is_prime(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Proper, and a product lands inside only if a factor does."""
    if not ideal.is_proper:
        return False
    elems = ctx.elements()
    for a in elems:
        if a in ideal.members:
            continue
        for b in elems:
            if b in ideal.members:
                continue
            if ctx.mul(a, b) in ideal.members:
                return False
    return True


def is_maximal(ctx: SemiringCtx, ideal: Ideal, max_k: Optional[int] = IDEAL_ENUM_BOUND) -> bool:
    """Proper, with no ideal strictly between it and the whole semiring."""
    if not ideal.is_proper:
        return False
    target = ideal.mask
    full = (1 << ctx.size) - 1
    for other in enumerate_ideals(ctx, max_k=max_k):
        mask = other.mask
        if mask != target and mask != full and mask & target == target:
            return False
    return True


def is_subtractive(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Whether a in I and a + b in I force b in I."""
    for a in ideal.members:
        for b in ctx.elements():
            if ctx.add(a, b) in ideal.members and b not in ideal.members:
                return False
    return True


def radical(ctx: SemiringCtx, ideal: Ideal) -> Ideal:
    """Elements some power of which lands in the ideal."""
    out = set()
    for a in ctx.elements():
        seen = set()
        p = a
        while True:
            if p in ideal.members:
                out.add(ctx.encode(a))
                break
            if p in seen:
                break
            seen.add(p)
            p = ctx.mul(p, a)
    return Ideal.from_codes(ctx, out)


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
        for u in unit_set:
            for v in unit_set:
                if ctx.mul(u, v) not in unit_set:
                    raise ValueError(
                        f"U is not multiplicatively closed: {u.render()} * {v.render()} escapes"
                    )
        self.ctx = ctx
        self.unit_set = unit_set

        us = sorted(unit_set, key=Elem.sort_key)
        pairs = [(a, u) for a in ctx.elements() for u in us]
        self.pairs = tuple(pairs)
        np_ = len(pairs)

        parent = list(range(np_))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(np_):
            for j in range(i + 1, np_):
                if self._related(pairs[i], pairs[j]):
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)

        roots = {}
        class_lists = []
        for i in range(np_):
            r = find(i)
            if r not in roots:
                roots[r] = len(class_lists)
                class_lists.append([])
            class_lists[roots[r]].append(pairs[i])
        self._classes = tuple(tuple(c) for c in class_lists)
        self._class_of_pair = {
            (ctx.encode(a), ctx.encode(u)): ci
            for ci, cl in enumerate(self._classes)
            for (a, u) in cl
        }

        self.zero_index = self._lookup(ZERO, ctx.one)
        self.one_index = self._lookup(ctx.one, ctx.one)
        self.add_table = self._build_table(self._add_pair)
        self.mul_table = self._build_table(self._mul_pair)

    def _related(self, p, q) -> bool:
        (a, u), (b, v) = p, q
        ctx = self.ctx
        left = ctx.mul(a, v)
        right = ctx.mul(b, u)
        return any(ctx.mul(t, left) == ctx.mul(t, right) for t in self.unit_set)

    def _lookup(self, a: Elem, u: Elem) -> int:
        return self._class_of_pair[(self.ctx.encode(a), self.ctx.encode(u))]

    def _add_pair(self, p, q):
        (a, u), (b, v) = p, q
        ctx = self.ctx
        return (ctx.add(ctx.mul(a, v), ctx.mul(b, u)), ctx.mul(u, v))

    def _mul_pair(self, p, q):
        (a, u), (b, v) = p, q
        ctx = self.ctx
        return (ctx.mul(a, b), ctx.mul(u, v))

    def _build_table(self, op):
        n = len(self._classes)
        table = []
        for ci in range(n):
            row = []
            for cj in range(n):
                results = {
                    self._lookup(*op(p, q))
                    for p in self._classes[ci]
                    for q in self._classes[cj]
                }
                if len(results) != 1:
                    raise RuntimeError(
                        "fraction operation is not representative-independent; "
                        "the unit set does not yield a semiring"
                    )
                row.append(results.pop())
            table.append(tuple(row))
        return tuple(table)

    @property
    def class_count(self) -> int:
        return len(self._classes)

    def class_of(self, a: Elem, u: Elem) -> int:
        if u not in self.unit_set:
            raise ValueError(f"denominator {u.render()} is not in U")
        return self._lookup(self.ctx.check(a), u)

    def class_members(self, index: int) -> tuple:
        return self._classes[index]

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
        ctx = self.ctx
        elems = ctx.elements()
        image = [self._lookup(a, ctx.one) for a in elems]
        if len(set(image)) != len(image) or len(image) != self.class_count:
            return False
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                if self.add_table[image[i]][image[j]] != image[ctx.encode(ctx.add(a, b))]:
                    return False
                if self.mul_table[image[i]][image[j]] != image[ctx.encode(ctx.mul(a, b))]:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "unit_set": [u.to_json() for u in sorted(self.unit_set, key=Elem.sort_key)],
            "class_count": self.class_count,
            "classes": [
                [[a.to_json(), u.to_json()] for (a, u) in cl] for cl in self._classes
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
        self._index = {ideal.mask: i for i, ideal in enumerate(self.ideals)}
        n = len(self.ideals)
        self.zero_index = self._index[1]  # the ideal {0}
        self.one_index = self._index[(1 << ctx.size) - 1]  # the whole semiring
        smallest = _mask_of((0, ctx.size - 1))  # {0, m}
        self.ls_index = self._index[smallest]
        add_rows = []
        mul_rows = []
        for a in self.ideals:
            add_rows.append(tuple(self._index[ideal_sum(a, b).mask] for b in self.ideals))
            mul_rows.append(tuple(self._index[ideal_product(a, b).mask] for b in self.ideals))
        self.add_table = tuple(add_rows)
        self.mul_table = tuple(mul_rows)

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
    ideals = enumerate_ideals(ctx, max_k=max_k)
    smallest = _mask_of((0, ctx.size - 1))
    full = (1 << ctx.size) - 1
    factor_masks = [i.mask for i in ideals if i.mask != 1 and i.mask != full]
    mul_t = ctx.tables()[1]

    def product_mask(ma: int, mb: int) -> int:
        codes_a = [c for c in range(ctx.size) if ma >> c & 1]
        codes_b = [c for c in range(ctx.size) if mb >> c & 1]
        seed = {int(mul_t[x, y]) for x in codes_a for y in codes_b}
        return _mask_of(_close_codes(ctx, seed))

    current = set(factor_masks)
    n = 1
    while current != {smallest}:
        current = {product_mask(a, b) for a in current for b in factor_masks}
        n += 1
        if n > 2 * ctx.k + 2:
            raise RuntimeError("nilpotency iteration failed to stabilize")
    return n
