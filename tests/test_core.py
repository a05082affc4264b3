import ast
import gc
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import cell_fault, ref_add, ref_mul

from indigo import LAW_CHECK_BOUND, cli, graphs
from indigo.core import (
    MANY,
    ZERO,
    ContextMismatchError,
    Elem,
    LawReport,
    SemiringCtx,
    fin,
    verify_laws,
)
from indigo.ideals import enumerate_ideals
from indigo.series import Poly


def ctx(k, mutant=None):
    return SemiringCtx(k, mutant=mutant)


def test_saturating_addition_examples():
    c = ctx(4)
    assert c.add(fin(2), fin(3)) == MANY
    assert c.add(fin(1), fin(2)) == fin(3)
    assert c.add(ZERO, MANY) == MANY
    assert c.add(fin(4), fin(1)) == MANY
    assert c.add(ZERO, ZERO) == ZERO


def test_saturating_multiplication_examples():
    assert ctx(4).mul(fin(2), fin(2)) == fin(4)
    assert ctx(3).mul(fin(2), fin(2)) == MANY
    assert ctx(3).mul(ZERO, MANY) == ZERO
    assert ctx(3).mul(MANY, fin(3)) == MANY
    assert ctx(5).mul(fin(1), fin(5)) == fin(5)


def test_canonical_map_window():
    c = ctx(4)
    assert c.canonical_map(0) == ZERO
    assert c.canonical_map(4) == fin(4)
    assert c.canonical_map(5) == MANY
    assert c.canonical_map(7) == MANY
    with pytest.raises(ValueError):
        c.canonical_map(-1)


def test_addition_agrees_with_natural_numbers():
    # the canonical map is the oracle: images of true sums and products
    # must equal semiring sums and products of images
    for k in (1, 2, 3, 5, 12):
        c = ctx(k)
        for a in range(3 * k + 1):
            for b in range(3 * k + 1):
                fa, fb = c.canonical_map(a), c.canonical_map(b)
                assert c.add(fa, fb) == c.canonical_map(a + b)
                assert c.mul(fa, fb) == c.canonical_map(a * b)


def test_total_order_chain():
    c = ctx(3)
    chain = [ZERO, fin(1), fin(2), fin(3), MANY]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert c.leq(a, b) == (i <= j)
            assert c.lt(a, b) == (i < j)


def test_is_unit_matches_inverse_search():
    for k in (1, 2, 5):
        c = ctx(k)
        for a in c.elements():
            has_inverse = any(c.mul(a, b) == c.one for b in c.elements())
            assert c.is_unit(a) == has_inverse
            assert has_inverse == (a == fin(1))


def test_is_idempotent_matches_squares():
    for k in (1, 2, 4, 9):
        c = ctx(k)
        for a in c.elements():
            assert c.is_idempotent(a) == (c.mul(a, a) == a)
        idems = {a for a in c.elements() if c.is_idempotent(a)}
        assert idems == {ZERO, fin(1), MANY}


def test_power():
    c = ctx(4)
    assert c.power(fin(2), 2) == fin(4)
    assert c.power(fin(2), 3) == MANY
    assert c.power(fin(1), 10) == fin(1)
    assert c.power(ZERO, 3) == ZERO
    for bad in (0, True):
        with pytest.raises(ValueError):
            c.power(fin(2), bad)


def test_elem_render_parse_roundtrip():
    for e in (ZERO, fin(1), fin(17), MANY):
        assert Elem.parse(e.render()) == e
        assert Elem.from_json(e.to_json()) == e
    assert Elem.parse("0") == ZERO
    assert Elem.parse(" m ") == MANY
    with pytest.raises(ValueError):
        Elem.parse("x")
    with pytest.raises(ValueError):
        Elem.parse("-3")
    with pytest.raises(ValueError):
        Elem.from_json(-1)


def test_elem_validation():
    with pytest.raises(ValueError):
        Elem("fin", 0)
    with pytest.raises(ValueError):
        Elem("zero", 3)
    with pytest.raises(ValueError):
        Elem("what")


def test_context_mismatch():
    c = ctx(4)
    with pytest.raises(ContextMismatchError):
        c.add(fin(5), fin(1))
    with pytest.raises(ContextMismatchError):
        c.encode(fin(9))
    with pytest.raises(TypeError):
        c.add(2, fin(1))


def test_encode_decode_roundtrip():
    c = ctx(6)
    for e in c.elements():
        assert c.decode(c.encode(e)) == e
    with pytest.raises(ValueError):
        c.decode(9)


def test_tables_match_scalar_ops():
    for k in (1, 2, 3, 5, 12):
        for mutant in (None, "add-cap", "mul-cap"):
            c = ctx(k, mutant)
            add_t, mul_t = c.tables()
            assert c.tables() is c.tables()
            elems = c.elements()
            for i, a in enumerate(elems):
                for j, b in enumerate(elems):
                    add, mul = c._cayley("add", i, j), c._cayley("mul", i, j)
                    assert type(add) is int and type(mul) is int
                    assert add == add_t[i, j] and mul == mul_t[i, j]
                    assert c.decode(add) == ref_add(c, a, b)
                    assert c.decode(mul) == ref_mul(c, a, b)
            assert not add_t.flags.writeable


def test_rule_at_large_k_skips_the_dense_tables(monkeypatch):
    """The rule on ints costs O(1) per cell: no dense table is built, and
    codes stay exact at any k."""
    monkeypatch.setattr(SemiringCtx, "tables", None)
    for mutant in (None, "add-cap", "mul-cap"):
        c = ctx(100_000, mutant)
        for a in (0, 1, 2, 317, 50_000, 99_999, 100_000, 100_001):
            for b in (0, 1, 3, 316, 49_999, 50_001, 100_000, 100_001):
                x, y = c.decode(a), c.decode(b)
                add, mul = c._cayley("add", a, b), c._cayley("mul", a, b)
                assert type(add) is int and type(mul) is int
                assert add == c.encode(ref_add(c, x, y))
                assert mul == c.encode(ref_mul(c, x, y))


def test_scalar_ops_match_the_reference_at_large_k():
    """The rule is exact on Python ints at any k: no overflow, no float."""
    for k in (2**62, 10**20):
        for mutant in (None, "add-cap", "mul-cap"):
            c = ctx(k, mutant)
            big = (1, 2, 3, 99_999_999_999, 2**31, 2**32 + 1, k // 2, k // 2 + 1, k - 1, k)
            elems = [ZERO, MANY, *(fin(n) for n in big)]
            for a in elems:
                assert c.is_idempotent(a) == (ref_mul(c, a, a) == a)
                for b in elems:
                    assert c.add(a, b) == ref_add(c, a, b), (k, mutant, a, b)
                    assert c.mul(a, b) == ref_mul(c, a, b), (k, mutant, a, b)


def test_a_context_with_a_lattice_dies_without_the_cycle_collector():
    """The ideal closure kept on a context holds no reference to it, so
    dropping the last reference frees the context, its tables and its
    cached lattice."""
    gc.disable()
    try:
        c = ctx(12)
        enumerate_ideals(c)  # builds the closure from the dense tables
        alive, lattice = weakref.ref(c), weakref.ref(c._ideals)
        del c
        assert alive() is None and lattice() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("i, j, wrong", [(2, 3, 3), (2, 2, 2)])
def test_a_rule_fault_reaches_every_arithmetic_path(monkeypatch, capsys, i, j, wrong):
    """One wrong cell of the mul rule, installed in ``_cayley``, is what every
    arithmetic path computes: off the diagonal it shows in products, tables,
    polynomial products, the graph and the CLI; on it, in idempotency and
    powers."""
    want = ctx(3).tables()[1].tolist()
    want[i][j] = wrong
    monkeypatch.setattr(SemiringCtx, "_cayley", cell_fault("mul", i, j, wrong))
    c = ctx(3)
    elems = c.elements()
    assert c.tables()[1].tolist() == want
    for a in range(1, c.size):
        for b in range(1, c.size):
            cell = want[a][b]
            assert (Poly(c, (a,)) * Poly(c, (b,))).codes == ((cell,) if cell else ())
    for a, x in enumerate(elems):
        assert c.is_idempotent(x) == (want[a][a] == a)
        power = a
        for n in range(1, 5):
            assert c.encode(c.power(x, n)) == power
            power = want[power][a]
        for b, y in enumerate(elems):
            assert c.encode(c.mul(x, y)) == want[a][b]
            assert cli.main(["elem", "3", "--mul", x.render(), y.render()]) == 0
            assert f"result: {elems[want[a][b]].render()}\n" in capsys.readouterr().out
    if i == j:
        assert c.is_idempotent(fin(2)) and c.power(fin(2), 3) == fin(2)
        g = graphs.build_graph(3)
        for u, v in combinations(range(1, c.size), 2):
            assert g.adjacent(elems[u], elems[v]) == (want[u][v] == c.size - 1)
    else:
        assert c.mul(fin(2), fin(3)) == fin(3) != c.mul(fin(3), fin(2))
        with pytest.raises(RuntimeError, match=r"k=3: 2 \* 3 and 3 \* 2 disagree on saturation"):
            graphs.build_graph(3)


def _mentions_mutant(node):
    return isinstance(node, ast.Attribute) and node.attr == "mutant" or (
        isinstance(node, ast.Name) and node.id == "mutant"
    )


def test_only_the_rule_reads_the_mutant():
    """The mutant switch is stated once: outside ``SemiringCtx._cayley`` no
    code in the package compares a mutant with a name, and no code but the
    tuple of valid names spells a ``-cap`` name."""
    readers = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        rule = [
            range(node.lineno, node.end_lineno + 1)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_cayley"
        ]
        skip = set()  # docstrings and the tuple of valid names
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
                skip.add(id(body[0].value))
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_MUTANT_NAMES":
                skip.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            spells = (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "-cap" in node.value
                and id(node) not in skip
            )
            sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            compares = any(map(_mentions_mutant, sides)) and any(
                isinstance(side, ast.JoinedStr)
                or isinstance(side, ast.Constant) and isinstance(side.value, str)
                for side in sides
            )
            if compares or spells:
                readers.append((path.name, node.lineno, any(node.lineno in r for r in rule)))
    # the comparison in the rule, and the "-cap" it spells, are the only readers
    assert {(name, inside) for name, _, inside in readers} == {("core.py", True)}


def test_all_laws_hold_sample():
    for k in (1, 2, 3, 12, 64):
        reports = verify_laws(ctx(k))
        assert len(reports) == 14
        failed = [r.law for r in reports if not r.holds]
        assert failed == []


def test_law_report_invariant():
    with pytest.raises(ValueError):
        LawReport("x", True, (fin(1),))
    with pytest.raises(ValueError):
        LawReport("x", False, None)
    r = LawReport("x", False, (fin(1), fin(2)))
    assert r.to_json()["counterexample"] == [1, 2]


def test_add_cap_mutant_breaks_laws():
    reports = {r.law: r for r in verify_laws(ctx(4, mutant="add-cap"))}
    assert not reports["distributive"].holds
    assert not reports["canonical-map-homomorphism"].holds
    a, b, c = reports["distributive"].counterexample
    cm = ctx(4, mutant="add-cap")
    lhs = cm.mul(a, cm.add(b, c))
    rhs = cm.add(cm.mul(a, b), cm.mul(a, c))
    assert lhs != rhs


def test_mul_cap_mutant_breaks_laws():
    reports = {r.law: r for r in verify_laws(ctx(5, mutant="mul-cap"))}
    assert not reports["distributive"].holds


def test_every_single_cell_corruption_breaks_a_law():
    # the canonical map is onto the carrier, so its homomorphism law pins every cell
    corruptions = 0
    for k in range(1, 7):
        clean = ctx(k).tables()
        for which, table in enumerate(clean):
            for i, j in np.ndindex(table.shape):
                for wrong in range(k + 2):
                    if wrong == table[i, j]:
                        continue
                    tables = [t.copy() for t in clean]
                    tables[which][i, j] = wrong
                    corrupted = ctx(k)
                    corrupted._tables = tuple(tables)
                    reports = verify_laws(corrupted)
                    assert not all(r.holds for r in reports), (k, which, i, j, wrong)
                    corruptions += 1
    assert corruptions == 2176


def test_mutant_from_environment(monkeypatch):
    monkeypatch.setenv("INDIGO_MUTANT", "add-cap")
    c = SemiringCtx(4)
    assert c.mutant == "add-cap"
    assert c.add(fin(3), fin(3)) == fin(4)
    monkeypatch.delenv("INDIGO_MUTANT")
    assert SemiringCtx(4).mutant is None


def test_unknown_mutant_rejected():
    with pytest.raises(ValueError):
        SemiringCtx(4, mutant="nonsense")


def test_law_bound():
    # the bound is front-end policy: the library checks every law past it
    assert all(r.holds for r in verify_laws(ctx(LAW_CHECK_BOUND + 1)))


def test_bad_order():
    with pytest.raises(ValueError):
        SemiringCtx(0)
    with pytest.raises(ValueError):
        SemiringCtx(-2)


@st.composite
def k_and_elems(draw, count=3):
    k = draw(st.integers(min_value=1, max_value=40))
    codes = draw(st.lists(st.integers(min_value=0, max_value=k + 1), min_size=count, max_size=count))
    c = SemiringCtx(k)
    return c, [c.decode(x) for x in codes]


@given(k_and_elems())
@settings(max_examples=150)
def test_property_commutativity_and_associativity(data):
    c, (a, b, d) = data
    assert c.add(a, b) == c.add(b, a)
    assert c.mul(a, b) == c.mul(b, a)
    assert c.add(c.add(a, b), d) == c.add(a, c.add(b, d))
    assert c.mul(c.mul(a, b), d) == c.mul(a, c.mul(b, d))
    assert c.mul(a, c.add(b, d)) == c.add(c.mul(a, b), c.mul(a, d))


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=500))
@settings(max_examples=150)
def test_property_canonical_map_is_a_homomorphism(k, a, b):
    c = SemiringCtx(k)
    assert c.add(c.canonical_map(a), c.canonical_map(b)) == c.canonical_map(a + b)
    assert c.mul(c.canonical_map(a), c.canonical_map(b)) == c.canonical_map(a * b)


@given(k_and_elems(count=2))
@settings(max_examples=100)
def test_property_order_compatible(data):
    c, (a, b) = data
    if not c.leq(a, b):
        a, b = b, a
    for d in (ZERO, c.one, MANY):
        assert c.leq(c.add(a, d), c.add(b, d))
        assert c.leq(c.mul(a, d), c.mul(b, d))
