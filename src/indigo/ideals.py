"""Ideal lattice, prime spectrum and localization of Indigenous semirings.

An ideal is a subset containing zero, closed under addition and
absorbing products with arbitrary elements.  The lattice is tiny and
highly constrained: every nonzero ideal contains m, {0, m} is the least
nonzero ideal, the complement of 1 is the unique maximal ideal, and the
only primes are {0} and that maximal ideal, so the Zariski spectrum is
the two-point Sierpinski space.

An ideal is a bitmask over element codes: bit c is set when the element
with code c (``SemiringCtx.encode``) belongs to it.  Every ideal
predicate tests bits of the mask against the code lists ``add`` and
``mul`` of the context's one ``_Closure``, read once from the dense
``ctx.tables()``; besides the closure, only the unit-set check and
localization read those tables.  Elements appear only at the boundary,
in arguments and in views such as ``Ideal.members``.

Enumeration walks the closed masks of the ideal closure in lectic
order (Ganter's NextClosure), so it costs at most k + 2 closures per
ideal found rather than a test of every subset.  Its output skips
``Ideal`` validation, and each context object keeps one closure with
its lattice, so a context enumerates its ideals at most once.

``LocalizedSemiring`` implements fractions over a multiplicatively
closed set U through the relation a/u = b/v iff t*a*v = t*b*u for some
t in U.  ``localizations`` builds them for many sets at once, in
batches of one size and at most 2^14 (set, pair, pair) cells, by flat
``take`` gathers; ``localize`` is the same build for one set.
``IdealSemiring`` makes the set of ideals itself a semiring under ideal
sum and ideal product, in whole-array passes over the masks as ``uint64``
(size <= 64).  The sum closes each distinct union of two masks once; a
product I * J is the join, over the codes x of I, of the principal
products x * J, closed once per distinct seed, then sum-table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .core import ZERO, ContextMismatchError, Elem, SemiringCtx


def _codes(mask: int):
    """The codes whose bits are set in ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _name(ctx: SemiringCtx, code) -> str:
    return ctx.decode(code).render()


def _sort_key(mask: int) -> tuple:
    codes = tuple(_codes(mask))
    return (len(codes), codes)


def _escape(rows, left, right, mask: int):
    """The first (a, b), a in ``left`` then b in ``right``, whose table
    entry ``rows[a][b]`` lies outside ``mask``; None if there is none.
    Passing ``~mask`` finds the first entry inside ``mask`` instead."""
    for a in left:
        row = rows[a]
        for b in right:
            if not mask >> row[b] & 1:
                return a, b
    return None


class _Closure:
    """The ideal closure of a code mask, read off ``ctx.tables()``, whose
    cells it keeps as code lists: ``add[a][b]`` is the code of a + b.

    Made once per context object (``_closure``) and reused across masks;
    ``product`` closes the pairwise products of two masks.  Its lattice
    of closed masks is built on first read.  It holds no reference to
    its context, which holds it.
    """

    def __init__(self, ctx: SemiringCtx):
        self.k, self.size = ctx.k, ctx.size
        self.add, self.mul = add, mul = [t.tolist() for t in ctx.tables()]
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

    @cached_property
    def masks(self) -> tuple:
        """The mask of every ideal, in canonical order: the masks this closure fixes."""
        return tuple(sorted(_next_closures(self, self.size), key=_sort_key))

    @cached_property
    def index(self) -> dict:
        return {mask: i for i, mask in enumerate(self.masks)}

    @cached_property
    def semiring_tables(self) -> tuple:
        """(add, mul) of the ideal semiring as read-only int arrays over
        positions in ``masks``; ``RuntimeError`` if {0} or {0, m} is not an
        ideal.  Masks are ``uint64``: size > 64 raises ``OverflowError``."""
        index = self.index
        for name, mask in (("{0}", 1), ("{0, m}", 1 | 1 << (self.size - 1))):
            if mask not in index:  # only under a faulty rule
                raise RuntimeError(f"k={self.k}: {name} is not an ideal")
        # I + J closes the union; I * J joins the principal products x * J
        # over the codes x of I, each the closure of its seed of bits x * y
        masks = np.array(self.masks, dtype=np.uint64)
        add = self._positions(masks[:, None] | masks)
        member = (masks[:, None] >> np.arange(self.size, dtype=np.uint64) & 1).astype(bool)
        bits = np.where(member, np.array(self._mul_bits, dtype=np.uint64)[:, None], np.uint64(0))
        principal = self._positions(np.bitwise_or.reduce(bits, axis=2))  # [x, J]: x * J
        mul = np.full_like(add, index[1])  # {0} is neutral for the join
        joins, n = add.ravel(), len(masks)
        for x, products in enumerate(principal):
            rows = np.flatnonzero(member[:, x])  # the ideals containing x
            mul[rows] = joins.take(mul[rows] * n + products)
        add.flags.writeable = mul.flags.writeable = False
        return add, mul

    def _positions(self, seeds: np.ndarray) -> np.ndarray:
        """The position in ``masks`` of the closure of each ``uint64`` seed,
        closing each distinct seed once; an ideal closes to itself."""
        distinct, inverse = np.unique(seeds, return_inverse=True)
        index = self.index
        closed = [index[s] if s in index else index[self(s)] for s in distinct.tolist()]
        return np.array(closed)[inverse.reshape(seeds.shape)]


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
        close = _closure(ctx)
        inside = list(_codes(mask))
        escape = _escape(close.add, inside, inside, mask)
        if escape:
            a, b = (_name(ctx, c) for c in escape)
            raise ValueError(f"not closed under addition: {a} + {b} escapes")
        escape = _escape(close.mul, range(ctx.size), inside, mask)
        if escape:
            s, a = (_name(ctx, c) for c in escape)
            raise ValueError(f"not absorbing: {s} * {a} escapes")

    @classmethod
    def _closed(cls, ctx: SemiringCtx, mask: int) -> "Ideal":
        """The ideal of a closure's output, closed by construction: not validated."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(ctx=ctx, mask=mask)
        return ideal

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
        return _sort_key(self.mask)

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


def _closure(ctx: SemiringCtx) -> _Closure:
    """The ``_Closure`` kept on this context object, made on first use; never
    shared by equal contexts, which may compute under different rules."""
    if ctx._ideals is None:
        ctx._ideals = _Closure(ctx)
    return ctx._ideals


def enumerate_ideals(ctx: SemiringCtx) -> list:
    """Every ideal, in canonical order (cardinality, then lexicographic).

    NextClosure over the ideal closure: at most k + 2 closures per ideal,
    though the lattice itself grows fast with k.
    """
    return [Ideal._closed(ctx, m) for m in _closure(ctx).masks]


def ideal_generated(ctx: SemiringCtx, gens: Iterable[Elem]) -> Ideal:
    """Least ideal containing the given elements."""
    seed = 0
    for g in gens:
        seed |= 1 << ctx.encode(g)
    return Ideal._closed(ctx, _closure(ctx)(seed))


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    if a.ctx != b.ctx:
        raise ValueError("ideal sum needs a common semiring")
    return Ideal._closed(a.ctx, _closure(a.ctx)(a.mask | b.mask))


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Least ideal containing all pairwise products."""
    if a.ctx != b.ctx:
        raise ValueError("ideal product needs a common semiring")
    return Ideal._closed(a.ctx, _closure(a.ctx).product(a.mask, b.mask))


def is_prime(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Proper, and a product lands inside only if a factor does."""
    if not ideal.is_proper:
        return False
    outside = list(_codes((1 << ctx.size) - 1 & ~ideal.mask))
    return _escape(_closure(ctx).mul, outside, outside, ~ideal.mask) is None


def is_maximal(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Proper, and adding any element outside it generates the whole semiring."""
    if not ideal.is_proper:
        return False
    close = _closure(ctx)
    full = (1 << ctx.size) - 1
    return all(close(ideal.mask | 1 << c) == full for c in _codes(full & ~ideal.mask))


def is_subtractive(ctx: SemiringCtx, ideal: Ideal) -> bool:
    """Whether a in I and a + b in I force b in I."""
    inside = _codes(ideal.mask)
    outside = list(_codes((1 << ctx.size) - 1 & ~ideal.mask))
    return _escape(_closure(ctx).add, inside, outside, ~ideal.mask) is None


def radical(ctx: SemiringCtx, ideal: Ideal) -> Ideal:
    """Elements some power of which lands in the ideal."""
    mul = _closure(ctx).mul
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


def spectrum(ctx: SemiringCtx) -> SpectrumView:
    """Prime ideals with closed sets V(I) = primes containing I."""
    ideals = enumerate_ideals(ctx)
    points = tuple(p for p in ideals if is_prime(ctx, p))
    closed = frozenset(
        frozenset(p for p in points if ideal.issubset(p)) for ideal in ideals
    )
    return SpectrumView(ctx, points, closed)


_BOOLEAN_ADD = ((0, 1), (1, 1))
_BOOLEAN_MUL = ((0, 0), (0, 1))


def _is_entire(mul_table, zero: int) -> bool:
    """No product of two nonzero cells of ``mul_table`` (any 2-d array-like) is ``zero``."""
    zeros = np.asarray(mul_table) == zero
    zeros[zero, :] = zeros[:, zero] = False
    return not zeros.any()


def _is_zerosumfree(add_table, zero: int) -> bool:
    """Only zero + zero is ``zero`` in ``add_table`` (any 2-d array-like)."""
    zeros = np.asarray(add_table) == zero
    zeros[zero, zero] = False
    return not zeros.any()


_BATCH_CELLS = 1 << 14  # (set, pair, pair) cells in one grouped build


def _unit_codes(ctx: SemiringCtx, units: Iterable[Elem]) -> tuple:
    """U and its sorted codes; ``ValueError`` unless U is a valid unit set."""
    unit_set = frozenset(ctx.check(u) for u in units)
    if not unit_set:
        raise ValueError("U must be nonempty")
    if ZERO in unit_set:
        raise ValueError("U must not contain zero")
    if ctx.one not in unit_set:
        raise ValueError("U must contain 1")
    mul = ctx.tables()[1].tolist()
    us = sorted(ctx.encode(u) for u in unit_set)
    for u in us:
        for v in us:
            if mul[u][v] not in us:
                escape = f"{_name(ctx, u)} * {_name(ctx, v)} escapes"
                raise ValueError(f"U is not multiplicatively closed: {escape}")
    return unit_set, us


def _fractions(ctx: SemiringCtx, units: np.ndarray) -> Iterator[tuple]:
    """(class map, class tables) over each row of ``units``, S sorted unit sets of
    one size, built together: pair a/u (number a * |U| + position of u) of set s
    meets pair j on axes (s, a, u, j) of flat cell indices.  The map is -1 for u
    outside U; the tables are None if the operations depend on representatives."""
    n, (count, size) = ctx.size, units.shape
    pairs = n * size
    add, mul = (t.ravel() for t in ctx.tables())
    s, a = np.arange(count, dtype=np.int32).reshape(-1, 1, 1, 1), np.arange(n).reshape(-1, 1, 1)
    u, b = units.reshape(count, 1, size, 1), np.arange(pairs) // size
    v = units[:, np.arange(pairs) % size].reshape(count, 1, 1, pairs)
    cell = (s * n + mul.take(a * n + v)) * n + mul.take(b * n + u)  # [s, a * v, b * u]
    scaled = mul.reshape(n, n)[units]  # [s, t, x]: t * x for t in U
    same = (scaled[:, :, :, None] == scaled[:, :, None, :]).any(axis=1)
    related = same.ravel().take(cell).reshape(count, pairs, pairs)
    # each pair takes the least pair index of its component
    label = related.argmax(axis=2)  # the first step, from label = pair index
    while True:
        lower = np.where(related, label[:, None, :], pairs).min(axis=2)
        if np.array_equal(lower, label):
            break
        label = lower
    first = label == np.arange(pairs)
    class_at = np.full((count, n, n), -1, dtype=np.int32)  # int32 like s: half-size arrays
    rank = np.take_along_axis(first.cumsum(axis=1) - 1, label, axis=1)  # the class of each pair
    class_at[s[..., 0], a[:, 0], units[:, None]] = rank.reshape(count, n, size)
    # a/u + b/v = (a * v + b * u) / (u * v) and a/u * b/v = (a * b) / (u * v)
    prod = mul.take(u * n + v)
    sums, prods = ((s[..., 0] * n + add) * n).ravel().take(cell), (s * n + mul.take(a * n + b)) * n
    results = [class_at.ravel().take(x + prod).reshape(count, pairs, pairs) for x in (sums, prods)]
    rep = (s[..., 0] * pairs + label[:, :, None]) * pairs + label[:, None, :]
    independent = np.logical_and(*((r == r.ravel().take(rep)).all(axis=(1, 2)) for r in results))
    for i, firsts in enumerate(map(np.flatnonzero, first)):
        grid = (i * pairs + firsts[:, None]) * pairs + firsts
        tables = tuple(tuple(map(tuple, r.ravel().take(grid).tolist())) for r in results)
        yield class_at[i], tables if independent[i] else None


class LocalizedSemiring:
    """Fractions of the order-k semiring over a multiplicatively closed set U.

    The class map, the zero and one classes, and both operation tables
    are computed eagerly, the pairs of a class on request; representative
    independence of the tables is verified over every representative
    pair, so a successfully constructed instance is a genuine semiring.
    ``localize`` and ``localizations`` build the parts it takes.
    """

    def __init__(self, ctx: SemiringCtx, unit_set: frozenset, class_at, tables):
        if tables is None:
            why = "the unit set does not yield a semiring"
            raise RuntimeError(f"fraction operation is not representative-independent; {why}")
        self.ctx, self.unit_set, self._class_at = ctx, unit_set, class_at  # [a, u]: class of a/u
        self.add_table, self.mul_table = tables
        one = ctx.encode(ctx.one)
        self.zero_index, self.one_index = int(class_at[0, one]), int(class_at[one, one])

    @cached_property
    def _classes(self) -> list:
        classes = [[] for _ in self.add_table]
        for a, u in np.argwhere(self._class_at >= 0).tolist():  # a, then u, ascending
            classes[self._class_at[a, u]].append((a, u))
        return classes

    @property
    def class_count(self) -> int:
        return len(self.add_table)

    def class_of(self, a: Elem, u: Elem) -> int:
        if u not in self.unit_set:
            raise ValueError(f"denominator {u.render()} is not in U")
        return int(self._class_at[self.ctx.encode(a), self.ctx.encode(u)])

    def class_members(self, index: int) -> tuple:
        decode = self.ctx.decode
        return tuple((decode(a), decode(u)) for a, u in self._classes[index])

    def add_class(self, i: int, j: int) -> int:
        return self.add_table[i][j]

    def mul_class(self, i: int, j: int) -> int:
        return self.mul_table[i][j]

    def is_entire(self) -> bool:
        return _is_entire(self.mul_table, self.zero_index)

    def is_zerosumfree(self) -> bool:
        return _is_zerosumfree(self.add_table, self.zero_index)

    def is_boolean(self) -> bool:
        """Isomorphic to the two-element Boolean semiring (1 + 1 = 1).  With
        two classes, the only candidate sends the zero class to 0 and the
        one class to 1."""
        if self.class_count != 2 or self.zero_index == self.one_index:
            return False
        image = (self.zero_index, self.one_index)  # the class of 0, and of 1
        return all(
            table[image[a]][image[b]] == image[want[a][b]]
            for table, want in ((self.add_table, _BOOLEAN_ADD), (self.mul_table, _BOOLEAN_MUL))
            for a in range(2)
            for b in range(2)
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


def localize(ctx: SemiringCtx, units: Iterable[Elem]) -> LocalizedSemiring:
    """The semiring of fractions of ctx over the multiplicatively closed set U."""
    return next(localizations(ctx, [units]))


def localizations(ctx: SemiringCtx, unit_sets: Iterable) -> Iterator[LocalizedSemiring]:
    """The semiring of fractions over each U of ``unit_sets``, in order, built
    in batches of one size and at most ``_BATCH_CELLS`` cells.  A set that is
    not a unit set, or does not yield a semiring, raises its error in its turn."""
    checked, error = [], None
    try:
        for units in unit_sets:
            checked.append(_unit_codes(ctx, units))
    except (TypeError, ValueError) as exc:  # raised after the sets before it
        error = exc
    built = {}
    for size in {len(us) for _, us in checked}:
        group = [i for i, (_, us) in enumerate(checked) if len(us) == size]
        step = max(1, _BATCH_CELLS // (ctx.size * size) ** 2)
        for batch in (group[i : i + step] for i in range(0, len(group), step)):
            built.update(zip(batch, _fractions(ctx, np.array([checked[i][1] for i in batch]))))
    for i, (unit_set, _) in enumerate(checked):
        yield LocalizedSemiring(ctx, unit_set, *built.pop(i))
    if error is not None:
        raise error


class IdealSemiring:
    """All ideals under ideal sum and ideal product.

    Neutral elements are {0} for the sum and the whole semiring for the
    product.  The structure is additively idempotent, zerosumfree and
    entire, and the least nonzero ideal absorbs products of nonzero
    ideals.  A rule under which {0} or {0, m} is not an ideal is an
    arithmetic fault: the constructor raises ``RuntimeError``.  Both
    tables are read-only int arrays.
    """

    def __init__(self, ctx: SemiringCtx):
        close = _closure(ctx)
        self.ctx = ctx
        self.ideals = tuple(enumerate_ideals(ctx))
        index = self._index = close.index
        self.add_table, self.mul_table = close.semiring_tables
        self.zero_index = index[1]  # the ideal {0}
        self.one_index = index[(1 << ctx.size) - 1]  # the whole semiring
        self.ls_index = index[1 | 1 << (ctx.size - 1)]  # {0, m}

    def index_of(self, ideal: Ideal) -> int:
        return self._index[ideal.mask]

    @property
    def size(self) -> int:
        return len(self.ideals)

    def is_additively_idempotent(self) -> bool:
        return np.array_equal(np.diagonal(self.add_table), np.arange(self.size))

    def is_zerosumfree(self) -> bool:
        return _is_zerosumfree(self.add_table, self.zero_index)

    def is_entire(self) -> bool:
        return _is_entire(self.mul_table, self.zero_index)

    def least_nonzero_absorbs(self) -> bool:
        """{0, m} times any nonzero ideal is {0, m} again."""
        absorbed = self.mul_table[self.ls_index] == self.ls_index
        absorbed[self.zero_index] = True
        return bool(absorbed.all())


def ideal_semiring(ctx: SemiringCtx) -> IdealSemiring:
    """The semiring of ideals of ctx."""
    return IdealSemiring(ctx)


def nilpotency_index(ctx: SemiringCtx) -> int:
    """Least n for which every product of n nonzero proper ideals is {0, m}.

    Such an n always exists; 2^n > k is a guaranteed upper bound because
    an n-fold product of elements >= 2 then exceeds k.
    """
    ids = IdealSemiring(ctx)
    factors = [i for i in range(ids.size) if i not in (ids.zero_index, ids.one_index)]
    current = np.array(factors, dtype=np.intp)  # the n-fold products, sorted
    n = 1
    while current.tolist() != [ids.ls_index]:
        current = np.flatnonzero(np.bincount(ids.mul_table[np.ix_(current, factors)].ravel()))
        n += 1
        if n > 2 * ctx.k + 2:
            raise RuntimeError("nilpotency iteration failed to stabilize")
    return n
