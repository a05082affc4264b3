"""The numpy scan kernels against plain-Python reference scans, and the
ideal enumeration against a scan of every subset.

Each reference loops over codes in lexicographic order and stops at the
first violation, so a kernel must report exactly the same first
counterexample, not just some counterexample.

The ideal layer enumerates by NextClosure; the subset scans here
(``all_ideal_masks`` in numpy, ``ref_ideal_masks`` in plain Python) are
its independent oracles, run on semiring, mutant, corrupted and random
tables.
"""

import numpy as np
import pytest

from indigo import kernels
from indigo.core import ZERO, SemiringCtx
from indigo.ideals import enumerate_ideals


def ref_commutativity(t):
    n = t.shape[0]
    for a in range(n):
        for b in range(n):
            if t[a, b] != t[b, a]:
                return (a, b)
    return None


def ref_associativity(t):
    n = t.shape[0]
    for a in range(n):
        for b in range(n):
            ab = t[a, b]
            for c in range(n):
                if t[ab, c] != t[a, t[b, c]]:
                    return (a, b, c)
    return None


def ref_distributivity(add_t, mul_t):
    n = add_t.shape[0]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul_t[a, add_t[b, c]] != add_t[mul_t[a, b], mul_t[a, c]]:
                    return (a, b, c)
    return None


def ref_identity(t, e):
    for a in range(t.shape[0]):
        if t[e, a] != a or t[a, e] != a:
            return (a,)
    return None


def ref_absorption(t, z):
    for a in range(t.shape[0]):
        if t[z, a] != z or t[a, z] != z:
            return (a,)
    return None


def ref_zero_divisor(mul_t):
    n = mul_t.shape[0]
    for a in range(1, n):
        for b in range(1, n):
            if mul_t[a, b] == 0:
                return (a, b)
    return None


def ref_zero_sum(add_t):
    n = add_t.shape[0]
    for a in range(n):
        for b in range(n):
            if (a, b) != (0, 0) and add_t[a, b] == 0:
                return (a, b)
    return None


def ref_monotonicity(t):
    n = t.shape[0]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(n):
                if t[a, c] > t[b, c]:
                    return (a, b, c)
    return None


def ref_ideal_masks(add_t, mul_t):
    n = add_t.shape[0]
    add_t, mul_t = add_t.tolist(), mul_t.tolist()  # list lookups keep k = 16 under a second
    out = []
    for part in range(1 << (n - 1)):
        full = (part << 1) | 1  # bit c set <=> code c is a member; zero always in
        members = [c for c in range(n) if full >> c & 1]
        absorbing = all(full >> mul_t[s][a] & 1 for a in members for s in range(n))
        if absorbing and all(full >> add_t[a][b] & 1 for a in members for b in members):
            out.append(full)
    return out


_IDEAL_CHUNK = 4096


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


SINGLE_TABLE = [
    (kernels.first_commutativity_break, ref_commutativity),
    (kernels.first_associativity_break, ref_associativity),
    (kernels.first_monotonicity_break, ref_monotonicity),
]


def assert_kernels_match(add_t, mul_t):
    for t in (add_t, mul_t):
        for kernel, ref in SINGLE_TABLE:
            assert kernel(t) == ref(t), kernel.__name__
        for e in (0, 1):
            assert kernels.first_identity_break(t, e) == ref_identity(t, e)
            assert kernels.first_absorption_break(t, e) == ref_absorption(t, e)
    assert kernels.first_distributivity_break(add_t, mul_t) == ref_distributivity(add_t, mul_t)
    assert kernels.first_zero_divisor(mul_t) == ref_zero_divisor(mul_t)
    assert kernels.first_zero_sum(add_t) == ref_zero_sum(add_t)
    assert all_ideal_masks(add_t, mul_t).tolist() == ref_ideal_masks(add_t, mul_t)


def tables(k, mutant=None):
    return SemiringCtx(k, mutant=mutant).tables()


def seeded_tables(n, seed):
    """Random tables, and clean tables with one random cell changed, so that
    first counterexamples fall anywhere from the first index to none."""
    rng = np.random.default_rng(seed)
    pairs = [[rng.integers(0, n, size=(n, n), dtype=np.int16) for _ in range(2)]]
    if n >= 3:
        corrupted = [t.copy() for t in tables(n - 2)]
        corrupted[seed % 2][rng.integers(n), rng.integers(n)] = rng.integers(n)
        pairs.append(corrupted)
    return pairs


@pytest.mark.parametrize("k", [1, 2, 5, 16])
@pytest.mark.parametrize("mutant", [None, "add-cap", "mul-cap"])
def test_kernels_match_reference_on_semiring_tables(k, mutant):
    assert_kernels_match(*tables(k, mutant))


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", range(6))
def test_kernels_match_reference_on_seeded_tables(n, seed):
    for add_t, mul_t in seeded_tables(n, seed):
        assert_kernels_match(add_t, mul_t)


def test_seeded_tables_break_laws_at_varied_positions():
    # guards the test above against inputs whose first counterexample never moves
    seen = set()
    for n in range(2, 9):
        for seed in range(6):
            for add_t, mul_t in seeded_tables(n, seed):
                seen.add(kernels.first_associativity_break(add_t))
                seen.add(kernels.first_distributivity_break(add_t, mul_t))
    assert None in seen
    assert len(seen) > 20


def brute_force_ideal_masks(k, mutant=None):
    """Independent oracle: test closure directly on raw element subsets."""
    ctx = SemiringCtx(k, mutant=mutant)
    elems = ctx.elements()
    out = []
    n = len(elems)
    for bits in range(1 << n):
        subset = {elems[i] for i in range(n) if bits >> i & 1}
        if ZERO not in subset:
            continue
        closed = all(ctx.add(a, b) in subset for a in subset for b in subset)
        absorbing = all(ctx.mul(s, a) in subset for s in elems for a in subset)
        if closed and absorbing:
            out.append(bits)
    return out


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_ideal_masks_match_brute_force(k):
    for mutant in (None, "mul-cap"):
        add_t, mul_t = tables(k, mutant)
        got = sorted(int(m) for m in all_ideal_masks(add_t, mul_t))
        assert got == brute_force_ideal_masks(k, mutant), mutant


# --- NextClosure against the subset scans ------------------------------------


def enumerated_masks(ctx):
    return sorted(ideal.mask for ideal in enumerate_ideals(ctx, max_k=None))


class TableCtx:
    """Just enough of ``SemiringCtx`` for the ideal layer over arbitrary tables."""

    def __init__(self, add_t, mul_t):
        self.size = add_t.shape[0]
        self.k = self.size - 2
        self._tables = (add_t, mul_t)

    def tables(self):
        return self._tables

    def table_rows(self):
        return tuple(t.tolist() for t in self._tables)


@pytest.mark.parametrize("k", range(1, 17))
@pytest.mark.parametrize("mutant", [None, "add-cap", "mul-cap"])
def test_next_closure_matches_scan_oracle(k, mutant):
    ctx = SemiringCtx(k, mutant=mutant)
    assert enumerated_masks(ctx) == all_ideal_masks(*ctx.tables()).tolist()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("seed", range(6))
def test_next_closure_matches_scan_oracle_on_seeded_tables(n, seed):
    for add_t, mul_t in seeded_tables(n, seed):
        assert enumerated_masks(TableCtx(add_t, mul_t)) == ref_ideal_masks(add_t, mul_t)


def test_next_closure_matches_scan_oracle_under_every_cell_corruption(monkeypatch):
    # the corruption goes in through the rule itself, so the dense tables
    # and the rows the closure reads both see it
    k = 3
    clean_rule = SemiringCtx._cayley
    clean = SemiringCtx(k).tables()
    clean_masks = enumerated_masks(SemiringCtx(k))
    corruptions = changed = 0
    for which, op in enumerate(("add", "mul")):
        for i, j in np.ndindex(clean[which].shape):
            for wrong in range(k + 2):
                if wrong == clean[which][i, j]:
                    continue

                def rule(self, rule_op, a, b, op=op, i=i, j=j, wrong=wrong):
                    codes = np.arange(self.size)
                    table = clean_rule(self, rule_op, codes[:, None], codes)
                    if rule_op == op:
                        table[i, j] = wrong
                    return table[a, b]

                monkeypatch.setattr(SemiringCtx, "_cayley", rule)
                ctx = SemiringCtx(k)
                assert ctx.tables()[which][i, j] == wrong
                want = all_ideal_masks(*ctx.tables()).tolist()
                got = enumerated_masks(ctx)
                assert got == want, (op, i, j, wrong)
                corruptions += 1
                changed += got != clean_masks
    assert corruptions == 200
    assert changed > 0  # the corruptions reach the lattice


@pytest.mark.slow
@pytest.mark.parametrize("k", range(17, 21))
def test_next_closure_matches_scan_oracle_beyond_the_bound(k):
    ctx = SemiringCtx(k)
    assert enumerated_masks(ctx) == all_ideal_masks(*ctx.tables()).tolist()


def test_kernels_hold_law_scans_only():
    assert not hasattr(kernels, "all_ideal_masks")
    assert not hasattr(kernels, "_IDEAL_CHUNK")


def test_first_counterexample_is_lexicographic():
    # two commutativity breaks; the scan must report (1, 2), not (2, 1) or (2, 2)
    t = np.array([[0, 1, 2], [1, 2, 9], [2, 0, 7]], dtype=np.int16)
    assert kernels.first_commutativity_break(t) == (1, 2)
    assert ref_commutativity(t) == (1, 2)


def test_public_wrappers_on_clean_tables():
    add_t, mul_t = tables(3)
    assert kernels.first_commutativity_break(add_t) is None
    assert kernels.first_associativity_break(mul_t) is None
    assert kernels.first_distributivity_break(add_t, mul_t) is None
    assert kernels.first_identity_break(mul_t, 1) is None
    assert kernels.first_absorption_break(mul_t, 0) is None
    assert kernels.first_zero_divisor(mul_t) is None
    assert kernels.first_zero_sum(add_t) is None
    assert kernels.first_monotonicity_break(add_t) is None


def test_public_wrappers_report_breaks():
    add_t, mul_t = tables(4, mutant="add-cap")
    ce = kernels.first_distributivity_break(add_t, mul_t)
    assert ce is not None and len(ce) == 3
    assert all(type(c) is int for c in ce)
