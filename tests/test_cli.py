import argparse
import ast
import io
import json
import os
import resource
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import cell_fault

import indigo
from indigo import checks, cli, graphs
from indigo.bounds import BOUNDS
from indigo.cli import (
    EXIT_BOUND,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATED,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


# --- elem --------------------------------------------------------------------


def test_elem_add_saturates(capsys):
    code, out, _ = run_cli(capsys, "elem", "3", "--add", "2", "2")
    assert code == EXIT_OK
    assert "status: ok" in out
    assert "result: m" in out


def test_elem_mul_below_threshold(capsys):
    code, payload, _ = run_json(capsys, "elem", "5", "--mul", "2", "2")
    assert code == EXIT_OK
    assert payload["payload"]["result"] == "4"


def test_elem_canonical_map(capsys):
    code, out, _ = run_cli(capsys, "elem", "3", "--canon", "7")
    assert code == EXIT_OK
    assert "result: m" in out


def test_elem_order_and_predicates(capsys):
    code, out, _ = run_cli(capsys, "elem", "4", "--leq", "2", "m")
    assert code == EXIT_OK and "result: true" in out
    code, out, _ = run_cli(capsys, "elem", "4", "--unit", "1")
    assert code == EXIT_OK and "result: true" in out
    code, out, _ = run_cli(capsys, "elem", "4", "--idempotent", "2")
    assert code == EXIT_OK and "result: false" in out


def test_elem_requires_an_operation(capsys):
    code, _, err = run_cli(capsys, "elem", "4")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_elem_refuses_two_operations(capsys):
    code, out, err = run_cli(capsys, "elem", "3", "--add", "1", "1", "--mul", "2", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: pick one of --add, --mul, --leq, --canon, --unit, --idempotent\n"


def test_elem_rejects_bad_tokens(capsys):
    code, _, err = run_cli(capsys, "elem", "4", "--add", "2", "q")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_elem_rejects_values_above_k(capsys):
    code, _, err = run_cli(capsys, "elem", "3", "--add", "4", "1")
    assert code == EXIT_USAGE


def test_bad_k_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "elem", "0", "--add", "1", "1")
    assert code == EXIT_USAGE


# --- table and laws ----------------------------------------------------------


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "2")
    assert code == EXIT_OK
    assert "addition:" in out
    assert "multiplication:" in out


def test_table_json_shape(capsys):
    code, report, _ = run_json(capsys, "table", "1")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["elements"] == [0, 1, "m"]
    assert payload["add"][1][1] == "m"
    assert payload["mul"][1][1] == 1


def test_laws_all_pass(capsys):
    code, report, _ = run_json(capsys, "laws", "5")
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert len(report["claims"]) == 14
    assert all(c["passed"] for c in report["claims"])


def test_laws_text_one_line_per_law(capsys):
    code, out, _ = run_cli(capsys, "laws", "2")
    assert code == EXIT_OK
    assert out.count("claim ") == 14
    assert "FAIL" not in out


def test_laws_bound(capsys):
    code, out, _ = run_cli(capsys, "laws", "65")
    assert code == EXIT_BOUND
    assert "bound" in out
    code, out, _ = run_cli(capsys, "laws", "65", "--unsafe-bound")
    assert code == EXIT_OK


def test_laws_report_mutant_violation(capsys, monkeypatch):
    monkeypatch.setenv("INDIGO_MUTANT", "add-cap")
    code, out, _ = run_cli(capsys, "laws", "3")
    assert code == EXIT_VIOLATED
    assert "status: violated" in out
    assert "FAIL" in out
    assert "counterexample" in out


# --- graph -------------------------------------------------------------------


def test_graph_default_invariants(capsys):
    code, report, _ = run_json(capsys, "graph", "4")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["vertices"] == 5
    assert payload["diameter"] == 2
    assert payload["girth"] == 3
    assert payload["clique_number"] == 4
    assert payload["chromatic_number"] == 4


def test_graph_infinite_girth_rendering(capsys):
    code, report, _ = run_json(capsys, "graph", "1", "--girth")
    assert code == EXIT_OK
    assert report["payload"]["girth"] == "infinity"


def test_graph_edge_list_text(capsys):
    code, out, _ = run_cli(capsys, "graph", "2", "--edges", "--diameter")
    assert code == EXIT_OK
    assert "1 m" in out
    assert "2 m" in out


def test_graph_adjacency_json(capsys):
    code, report, _ = run_json(capsys, "graph", "2", "--edges", "--diameter")
    assert report["payload"]["adjacency"] == {"1": ["m"], "2": ["m"], "m": ["1", "2"]}


def test_graph_bound_applies_to_exact_searches(capsys):
    code, _, _ = run_cli(capsys, "graph", "25")
    assert code == EXIT_BOUND
    code, report, _ = run_json(capsys, "graph", "25", "--diameter", "--girth")
    assert code == EXIT_OK
    assert report["payload"]["diameter"] == 2


def test_graph_bound_is_checked_before_distance_searches(capsys, monkeypatch):
    def never(g):
        raise AssertionError("distance search ran before the bound check")

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "diameter", never)
        patch.setattr(graphs, "girth", never)
        code, out, _ = run_cli(capsys, "graph", "25")
        assert code == EXIT_BOUND
        assert out == (
            "status: bound-exceeded\n"
            "error: exact clique search is bounded at k <= 24, got k=25\n"
        )
        code, report, _ = run_json(capsys, "graph", "25", "--girth", "--chromatic")
        assert code == EXIT_BOUND
        assert report["error"] == "exact chromatic search is bounded at k <= 24, got k=25"
    code, _, _ = run_cli(capsys, "graph", "25", "--diameter")
    assert code == EXIT_OK


def test_graph_arithmetic_fault_is_an_internal_error(capsys, monkeypatch):
    # a one-sided fault in the rule is indigo's fault, not the user's: exit 4, not 2
    monkeypatch.setattr(indigo.SemiringCtx, "_cayley", cell_fault("mul", 2, 3, 3))
    for argv in (("graph", "3"), ("graph", "3", "--json")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_INTERNAL, "")
        assert err == (
            "error: internal: RuntimeError: k=3: 2 * 3 and 3 * 2 disagree on saturation\n"
        )


# --- ideals, spectrum, localization ------------------------------------------


def test_ideals_count(capsys):
    code, report, _ = run_json(capsys, "ideals", "3")
    assert code == EXIT_OK
    assert report["payload"]["count"] == 6


def test_ideals_list_and_primes(capsys):
    code, out, _ = run_cli(capsys, "ideals", "2", "--list", "--primes")
    assert code == EXIT_OK
    assert "{0, m}" in out
    assert out.count("{0}") >= 1
    code, report, _ = run_json(capsys, "ideals", "2", "--primes")
    assert [sorted(p, key=str) for p in report["payload"]["primes"]] == [
        [0],
        [0, 2, "m"],
    ]


def test_ideals_radical(capsys):
    code, out, _ = run_cli(capsys, "ideals", "5", "--radical", "m")
    assert code == EXIT_OK
    assert "radical: {0, 2, 3, 4, 5, m}" in out


def test_ideals_bound(capsys):
    code, _, _ = run_cli(capsys, "ideals", "17")
    assert code == EXIT_BOUND
    code, report, _ = run_json(capsys, "ideals", "17", "--unsafe-bound")
    assert code == EXIT_OK
    assert report["payload"]["count"] > 2


def test_spectrum_report(capsys):
    code, report, _ = run_json(capsys, "spec", "6")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["sierpinski"] is True
    assert len(payload["points"]) == 2
    assert payload["closed_sets"] == [[], [1], [0, 1]]


def test_localize_boolean_case(capsys):
    code, report, _ = run_json(capsys, "localize", "3", "--u", "1,2,m")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["class_count"] == 2
    assert payload["boolean"] is True
    assert payload["entire"] is True
    assert payload["zerosumfree"] is True


def test_localize_trivial_case(capsys):
    code, report, _ = run_json(capsys, "localize", "3", "--u", "1")
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["class_count"] == 5
    assert payload["matches_ambient"] is True


def test_localize_rejects_bad_unit_sets(capsys):
    code, _, err = run_cli(capsys, "localize", "3", "--u", "0,1")
    assert code == EXIT_USAGE and "zero" in err
    code, _, err = run_cli(capsys, "localize", "3", "--u", "2,m")
    assert code == EXIT_USAGE and "must contain 1" in err
    code, _, err = run_cli(capsys, "localize", "3", "--u", "1,2")
    assert code == EXIT_USAGE and "closed" in err


# --- poly, series, irreducible -----------------------------------------------


def test_poly_mul(capsys):
    code, out, _ = run_cli(capsys, "poly", "3", "--mul", "1 + mX", "1 + mX")
    assert code == EXIT_OK
    assert "result: 1 + m X + m X^2" in out


def test_poly_json_coefficients(capsys):
    code, report, _ = run_json(capsys, "poly", "4", "--mul", "2 + X", "2")
    assert code == EXIT_OK
    assert report["payload"]["result"] == [4, 2]


def test_poly_degree_of_zero(capsys):
    code, out, _ = run_cli(capsys, "poly", "3", "--degree", "0")
    assert code == EXIT_OK
    assert "result: -infinity" in out


def test_poly_requires_an_operation(capsys):
    code, _, err = run_cli(capsys, "poly", "3")
    assert code == EXIT_USAGE


def test_poly_refuses_two_operations(capsys):
    code, out, err = run_cli(capsys, "poly", "3", "--degree", "1 + X", "--unit", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: pick one of --add, --mul, --degree, --unit, --idempotent\n"


def test_poly_parse_error(capsys):
    code, _, err = run_cli(capsys, "poly", "3", "--degree", "2Y")
    assert code == EXIT_USAGE
    assert "error:" in err


def test_out_of_range_coefficient_is_a_usage_error(capsys):
    for argv in (("poly", "3", "--mul", "5", "1"), ("poly", "3", "--mul", "5", "1", "--json")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", "error: element 5 exceeds order k=3\n")
    code, out, err = run_cli(capsys, "series", "2", "--depth", "3", "--check", "5X")
    assert (code, out, err) == (EXIT_USAGE, "", "error: element 5 exceeds order k=2\n")


def test_poly_and_series_read_table_rows_not_dense_tables(capsys, monkeypatch):
    """At k = 100000 the dense tables would hold 10**10 cells; polynomial and
    window queries call the rule only on the cells they touch."""
    monkeypatch.setattr(indigo.SemiringCtx, "tables", None)
    code, out, _ = run_cli(capsys, "poly", "100000", "--mul", "2 + 300X", "1000 + X")
    assert code == EXIT_OK and "result: 2000 + m X + 300 X^2" in out
    code, out, _ = run_cli(capsys, "poly", "100000", "--add", "99999 + X", "1 + X")
    assert code == EXIT_OK and "result: 100000 + 2 X" in out
    code, report, _ = run_json(
        capsys, "series", "100000", "--depth", "6", "--gens", "4", "--constant", "1"
    )
    assert code == EXIT_OK
    assert report["payload"]["support"] == [4] and report["payload"]["idempotent"] is True


def test_series_from_generators(capsys):
    code, report, _ = run_json(
        capsys, "series", "3", "--depth", "10", "--gens", "3,5", "--constant", "1"
    )
    assert code == EXIT_OK
    payload = report["payload"]
    assert payload["support"] == [3, 5, 6, 8, 9, 10]
    assert payload["idempotent"] is True


def test_series_check_window(capsys):
    code, report, _ = run_json(capsys, "series", "2", "--depth", "4", "--check", "1 + mX^3")
    assert code == EXIT_OK
    assert report["payload"]["idempotent"] is True
    code, report, _ = run_json(capsys, "series", "2", "--depth", "5", "--check", "1 + mX^2")
    assert code == EXIT_OK
    assert report["payload"]["idempotent"] is False


def test_series_requires_gens_or_check(capsys):
    code, _, err = run_cli(capsys, "series", "2", "--depth", "3")
    assert code == EXIT_USAGE


def test_series_refuses_both_gens_and_check(capsys):
    code, out, err = run_cli(capsys, "series", "3", "--depth", "4", "--gens", "2", "--check", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: pick --gens (build an idempotent window) or --check (test one)\n"


def test_series_negative_depth_is_a_usage_error(capsys):
    # one depth check, before a window of that depth is filled or built
    for op in (("--check", "1"), ("--check", "0"), ("--gens", "2")):
        assert run_cli(capsys, "series", "3", "--depth", "-1", *op) == (
            EXIT_USAGE,
            "",
            "error: depth must be an integer >= 0, got -1\n",
        ), op


def test_irreducible_with_oracle(capsys):
    code, report, _ = run_json(capsys, "irreducible", "4", "--alpha", "2", "--beta", "3", "--oracle")
    assert code == EXIT_OK
    assert report["payload"]["irreducible"] is True
    assert report["payload"]["witness"] is None
    assert report["claims"][0]["passed"] is True


def test_reducible_with_witness(capsys):
    code, report, _ = run_json(capsys, "irreducible", "4", "--alpha", "2", "--beta", "4", "--oracle")
    assert code == EXIT_OK
    assert report["payload"]["irreducible"] is False
    left, right = report["payload"]["witness"]
    assert isinstance(left, list) and isinstance(right, list)


def test_irreducible_oracle_bound(capsys):
    code, _, _ = run_cli(capsys, "irreducible", "7", "--alpha", "1", "--beta", "1", "--oracle")
    assert code == EXIT_BOUND
    code, report, _ = run_json(
        capsys, "irreducible", "7", "--alpha", "1", "--beta", "1", "--oracle", "--unsafe-bound"
    )
    assert code == EXIT_OK
    assert report["payload"]["irreducible"] is True


def test_irreducible_rejects_zero_leading_coefficient(capsys):
    code, _, err = run_cli(capsys, "irreducible", "3", "--alpha", "0", "--beta", "1")
    assert code == EXIT_USAGE


# --- verify-all ---------------------------------------------------------------


def test_verify_all_small_sweep(capsys):
    code, report, _ = run_json(capsys, "verify-all", "--k-max", "3")
    assert code == EXIT_OK
    assert report["status"] == "ok"
    assert report["payload"]["claims_failed"] == 0
    assert report["payload"]["claims_total"] == len(report["claims"]) == 20
    tags = {c["tag"] for c in report["claims"]}
    assert any(t.startswith("core.") for t in tags)
    assert any(t.startswith("graphs.") for t in tags)
    assert any(t.startswith("ideals.") for t in tags)
    assert any(t.startswith("series.") for t in tags)


def test_verify_all_text_lines(capsys):
    code, out, _ = run_cli(capsys, "verify-all", "--k-max", "2")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l.startswith("claim ")]
    assert len(lines) == 20
    assert all(": pass" in l for l in lines)


def test_verify_all_catches_mutants(capsys, monkeypatch):
    monkeypatch.setenv("INDIGO_MUTANT", "add-cap")
    code, report, _ = run_json(capsys, "verify-all", "--k-max", "3")
    assert code == EXIT_VIOLATED
    assert report["status"] == "violated"
    assert report["payload"]["claims_failed"] >= 1
    monkeypatch.setenv("INDIGO_MUTANT", "mul-cap")
    code, report, _ = run_json(capsys, "verify-all", "--k-max", "3")
    assert code == EXIT_VIOLATED


@pytest.mark.parametrize(
    "name", ["ideal-lattice", "ideal-primes", "ideal-austere", "spectrum-sierpinski"]
)
def test_unsafe_sweep_lifts_the_ideal_bound(name):
    (check,) = [check for check in checks._CHECKS if check[0] == name]
    claim = checks._run(check, BOUNDS["ideals"][0] + 1, True, indigo.SemiringCtx)
    assert (claim.passed, claim.detail) == (True, "")


def test_unknown_mutant_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("INDIGO_MUTANT", "bogus")
    code, _, err = run_cli(capsys, "laws", "2")
    assert code == EXIT_USAGE
    assert "mutant" in err


# --- the bound table ----------------------------------------------------------

# the subcommands that run each search of ``BOUNDS`` the CLI refuses, at order K
BOUNDED_COMMANDS = {
    "laws": [("laws", "K")],
    "clique": [("graph", "K", "--clique")],
    "chromatic": [("graph", "K", "--chromatic")],
    "ideals": [("ideals", "K", "--primes"), ("spec", "K")],
    "oracle": [("irreducible", "K", "--alpha", "1", "--beta", "1", "--oracle")],
}


def test_every_cli_bound_comes_from_the_table(capsys):
    assert set(BOUNDED_COMMANDS) == {name for name, (_, text) in BOUNDS.items() if text}
    for name, commands in BOUNDED_COMMANDS.items():
        bound, text = BOUNDS[name]
        refusal = f"{text} bounded at k <= {bound}, got k={bound + 1}"
        for command in commands:
            at, past = ([str(k) if a == "K" else a for a in command] for k in (bound, bound + 1))
            assert run_cli(capsys, *at)[0] == EXIT_OK, at
            assert run_cli(capsys, *past) == (
                EXIT_BOUND, f"status: bound-exceeded\nerror: {refusal}\n", ""
            ), past
            code, report, err = run_json(capsys, *past)
            assert (code, report, err) == (
                EXIT_BOUND, {"status": "bound-exceeded", "error": refusal}, ""
            ), past
            code, _, err = run_cli(capsys, *past, "--unsafe-bound")
            assert (code, err) == (EXIT_OK, ""), past


def test_usage_errors_and_refusals_keep_their_order(capsys, monkeypatch):
    # a malformed quadratic is a usage error before the oracle's bound is read
    code, out, err = run_cli(capsys, "irreducible", "7", "--alpha", "0", "--beta", "1", "--oracle")
    assert (code, out, err) == (EXIT_USAGE, "", "error: leading coefficient must be nonzero\n")

    def never(*args):
        raise AssertionError("graph work ran before the bound check")

    for name in ("build_graph", "diameter", "girth"):
        monkeypatch.setattr(graphs, name, never)
    assert run_cli(capsys, "graph", "25", "--clique", "--girth") == (
        EXIT_BOUND,
        "status: bound-exceeded\nerror: exact clique search is bounded at k <= 24, got k=25\n",
        "",
    )


def test_only_the_front_ends_bound_a_search():
    """Bounds are front-end policy: outside ``bounds.py`` and ``cli.py`` no
    function takes ``max_k`` and nothing raises ``BoundExceededError``, and
    no library module reads the bound table."""
    found = set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arg) and node.arg == "max_k":
                found.add((path.name, "max_k"))
            if isinstance(node, ast.Raise) and "BoundExceededError" in ast.unparse(node):
                found.add((path.name, "raise"))
            if isinstance(node, ast.ImportFrom) and node.module == "bounds":
                found.add((path.name, "import"))
    assert found == {
        ("cli.py", "raise"),
        ("cli.py", "import"),
        ("checks.py", "import"),
    }


# --- argparse plumbing and determinism ----------------------------------------


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == EXIT_USAGE


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate", "3"])
    assert excinfo.value.code == EXIT_USAGE


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify-all", "--k-max", "2", "--json")
    _, second, _ = run_cli(capsys, "verify-all", "--k-max", "2", "--json")
    assert first == second


def test_internal_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "_cmd_graph", broken)
    code, out, err = run_cli(capsys, "graph", "3", "--clique")
    assert code == EXIT_INTERNAL
    assert err == "error: internal: RecursionError: maximum recursion depth exceeded\n"
    assert "Traceback" not in err
    assert "status:" not in out


def test_main_builds_one_parser_and_reaches_a_handler_patched_later(capsys, monkeypatch):
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    code, out, _ = run_cli(capsys, "elem", "3", "--add", "2", "2")
    assert (code, "result: m" in out) == (EXIT_OK, True)
    seen = []
    monkeypatch.setattr(cli, "_cmd_elem", lambda args: seen.append(args.add) or EXIT_VIOLATED)
    assert run_cli(capsys, "elem", "3", "--add", "1", "1")[0] == EXIT_VIOLATED
    assert seen == [["1", "1"]]
    assert built == [1]


def readme_commands():
    """The ``indigo ...`` lines of the fenced sh block under README's
    "Command line" heading, as argv lists without the program name."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("indigo ")
    ]


def test_readme_command_line_examples_run(capsys):
    commands = readme_commands()
    assert len(commands) == 12
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
        if argv == ["elem", "3", "--add", "2", "2"]:
            assert "result: m\n" in out  # as its comment says


# element tokens, lists, polynomial texts and junk for the string options
FUZZ_TEXTS = (
    "0", "1", "2", "3", "7", "m", "x", "-1", "",
    "1,2", "1,m", "2,3,m", "0,1", "3,5", "2,x",
    "1 + mX", "2 + X^2", "mX^3 + 1", "X^-1", "X +",
)


def fuzz_values(action):
    if action.dest == "k":
        return st.integers(1, 6)
    if action.dest == "k_max":
        # the sweep takes 1-4 s a call from --k-max 3 on; its argument shapes do not change
        return st.integers(1, 2)
    if action.type is int:
        return st.integers(-2, 12)
    return st.sampled_from(FUZZ_TEXTS)


def fuzz_argv(data):
    """Draw argv for one subcommand from the parser's own actions: the
    positionals, the required options and up to three others."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    name = data.draw(st.sampled_from(sorted(subparsers.choices)))
    actions = [
        a for a in subparsers.choices[name]._actions if not isinstance(a, argparse._HelpAction)
    ]
    optional = [a for a in actions if a.option_strings and not a.required and a.dest != "k_max"]
    chosen = data.draw(st.lists(st.sampled_from(optional), unique=True, max_size=3))
    argv = [name]
    for action in actions:
        if action in optional and action not in chosen:
            continue
        argv += action.option_strings[:1]
        count = action.nargs if isinstance(action.nargs, int) else 1
        values = st.lists(fuzz_values(action), min_size=count, max_size=count)
        argv += [str(v) for v in data.draw(values)]
    return argv


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_fuzzed_argv_keeps_the_exit_code_contract(data):
    argv = fuzz_argv(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the usage
            code = exc.code
    shown = f"{argv}: {err.getvalue()}"
    assert code in (EXIT_OK, EXIT_VIOLATED, EXIT_USAGE, EXIT_BOUND), shown
    assert "Traceback" not in err.getvalue(), shown
    if code == EXIT_VIOLATED:
        assert "status: violated" in out.getvalue() or '"status": "violated"' in out.getvalue()


def child_env(**overrides):
    """The parent's environment for a ``python -m indigo`` child.

    Drops an inherited ``INDIGO_MUTANT``, applies ``overrides`` and puts
    the directory holding the imported ``indigo`` package first on
    ``PYTHONPATH``, so the child runs the same code as this suite.
    """
    env = {key: value for key, value in os.environ.items() if key != "INDIGO_MUTANT"}
    env.update(overrides)
    paths = [str(Path(indigo.__file__).resolve().parents[1])]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, env):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_module_entry_point_runs():
    proc = run_child(["-m", "indigo", "laws", "2"], child_env())
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "status: ok" in proc.stdout


def test_module_entry_point_sees_mutant_env():
    env = child_env(INDIGO_MUTANT="add-cap")
    proc = run_child(["-m", "indigo", "laws", "2"], env)
    assert proc.returncode == EXIT_VIOLATED, proc.stdout + proc.stderr
    assert "status: violated" in proc.stdout
    assert "FAIL" in proc.stdout


def test_module_entry_point_numpy_backend():
    env = child_env()
    proc = run_child(["-m", "indigo", "verify-all", "--k-max", "2"], env)
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "status: ok" in proc.stdout
    lines = [l for l in proc.stdout.splitlines() if l.startswith("claim ")]
    assert len(lines) == 20
    assert all(l.endswith(": pass") for l in lines)
    backend = run_child(["-c", "import indigo.kernels as k; print(k.BACKEND)"], env)
    assert backend.returncode == 0, backend.stderr
    assert backend.stdout.strip() == "numpy"


def test_the_benchmark_package_reads_resolve():
    # perfbench reads the package's one re-export, the ideals module and the
    # kernel backend from a fresh interpreter
    code = (
        "from indigo import SemiringCtx, ideals; import indigo.kernels; "
        "print(len(ideals.enumerate_ideals(SemiringCtx(3))), indigo.kernels.BACKEND)"
    )
    proc = run_child(["-c", code], child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "numpy"]


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_limited(*argv):
    """``python -m indigo`` with ``argv`` in a child; only the child runs under
    the 1 GiB address-space limit and the 60 s timeout."""
    return subprocess.run(
        [sys.executable, "-m", "indigo", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
        preexec_fn=limit_address_space,
    )


def test_graph_at_large_k_fits_a_time_and_memory_limit():
    def graph(*argv):
        return run_limited("graph", "3000", *argv)

    proc = graph("--diameter", "--girth", "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    payload = json.loads(proc.stdout)["payload"]
    assert (payload["diameter"], payload["girth"]) == (2, 3)
    proc = graph()
    assert proc.returncode == EXIT_BOUND, proc.stderr
    assert proc.stdout == (
        "status: bound-exceeded\n"
        "error: exact clique search is bounded at k <= 24, got k=3000\n"
    )


def test_poly_and_series_at_large_k_fit_a_time_and_memory_limit():
    """A single product reads O(1) per cell, so its cost does not grow with k."""
    proc = run_limited("poly", "10000000", "--mul", "1+X", "1+X")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "result: 1 + 2 X + X^2\n" in proc.stdout
    proc = run_limited("series", "100000000", "--depth", "3", "--gens", "2")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "series: m + m X^2 (window depth 3)\n" in proc.stdout


def test_sweep_at_large_k_fits_a_time_and_memory_limit():
    """The series claims have no bound, so they run to k = 200 here, and
    none of them may build a table that grows as (k + 2)^3."""
    proc = run_limited("verify-all", "--k-max", "200")
    assert proc.returncode == EXIT_OK, proc.stdout + proc.stderr
    assert "status: ok" in proc.stdout


def run_child_into_closed_pipe(args, env):
    """Run a child whose stdout is a pipe that nobody reads from.

    The read end is closed before the child starts, so the child's first
    write to stdout fails with EPIPE, as with `indigo table 30 | head -1`.
    """
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
            env=env,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, mutant, expected",
    [
        (["table", "30"], None, EXIT_OK),
        (["laws", "2"], "add-cap", EXIT_VIOLATED),
        (["laws", "65"], None, EXIT_BOUND),
        (["laws", "65", "--json"], None, EXIT_BOUND),
    ],
    ids=["table-30", "laws-2-add-cap", "laws-65", "laws-65-json"],
)
def test_closed_pipe_keeps_the_exit_code(argv, mutant, expected, unbuffered):
    env = child_env(**({"INDIGO_MUTANT": mutant} if mutant else {}))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = run_child_into_closed_pipe(["-m", "indigo", *argv], env)
    assert proc.stderr == "", proc.stderr
    assert proc.returncode == expected
