"""The sweep driver: each claim's k range, the contexts it shares, and its
claim lines against the ones the benchmark records."""

import importlib.util
import re
from pathlib import Path

import pytest

from indigo import checks
from indigo.bounds import BOUNDS
from indigo.cli import EXIT_OK, EXIT_VIOLATED, main
from indigo.core import MUTANT_ENV

# last k of each safe claim range when k_max does not cut it; None runs to
# k_max, as every unsafe range does
TOPS = {
    "semiring-laws": 64,
    "graph-diameter": None,
    "graph-girth": None,
    "graph-clique": None,
    "graph-chromatic": None,
    "ideal-lattice": 16,
    "ideal-primes": 16,
    "ideal-austere": 16,
    "ideal-radicals": 16,
    "ideal-principal-primes": 16,
    "ideal-maximal": 16,
    "spectrum-sierpinski": 16,
    "localization": 10,
    "ideal-semiring": 16,
    "ideal-nilpotency": 16,
    "poly-units": None,
    "poly-idempotents": None,
    "degree-morphism": None,
    "window-idempotency": None,
    "quadratic-irreducibility": 6,
}


@pytest.mark.parametrize("unsafe", [False, True])
@pytest.mark.parametrize("k_max", [3, 8, 30])
def test_each_claim_sees_its_range_and_shares_one_context_per_k(monkeypatch, k_max, unsafe):
    seen = {name: [] for name in TOPS}

    def recorder(name):
        return lambda ctx: seen[name].append(ctx)

    table = tuple((c[0], c[1], recorder(c[0]), *c[3:]) for c in checks._CHECKS)
    monkeypatch.setattr(checks, "_CHECKS", table)
    monkeypatch.setenv(MUTANT_ENV, "add-cap")
    claims = checks.run_all_checks(k_max, unsafe=unsafe)
    assert [c.name for c in claims] == list(TOPS)
    assert all(c.passed for c in claims)
    shared = {}
    for name, top in TOPS.items():
        want = k_max if unsafe or top is None else min(k_max, top)
        assert [ctx.k for ctx in seen[name]] == list(range(1, want + 1)), name
        for ctx in seen[name]:
            assert ctx.mutant == "add-cap"
            assert shared.setdefault(ctx.k, ctx) is ctx, (name, ctx.k)
    assert sorted(shared) == list(range(1, k_max + 1))


def set_mutant(monkeypatch, mutant):
    if mutant is None:
        monkeypatch.delenv(MUTANT_ENV, raising=False)
    else:
        monkeypatch.setenv(MUTANT_ENV, mutant)


def test_every_claim_search_is_a_bound_row_and_every_row_is_read():
    searches = {check[3] for check in checks._CHECKS} - {None}
    assert searches <= set(BOUNDS)
    for name, (_, text) in BOUNDS.items():
        assert text or name in searches, name  # refused by the CLI, or bounds a claim


@pytest.mark.parametrize("mutant", [None, "add-cap", "mul-cap"])
def test_unsafe_sweep_past_the_series_bounds_reports_the_same_claims(capsys, monkeypatch, mutant):
    # unsafe runs quadratic-irreducibility past the oracle's row
    k_max = str(BOUNDS["oracle"][0] + 1)
    set_mutant(monkeypatch, mutant)
    runs = []
    for extra in ([], ["--unsafe-bound"]):
        code = main(["verify-all", "--k-max", k_max, *extra])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("claim ")]
        runs.append((code, lines))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == len(checks._CHECKS)


def _recorded_sweep_claims():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "expected.py"
    spec = importlib.util.spec_from_file_location("perfbench_expected", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SWEEP_CLAIMS


@pytest.mark.parametrize("mutant", [None, "add-cap", "mul-cap"])
def test_sweep_claim_lines_match_the_benchmark_record(capsys, monkeypatch, mutant):
    set_mutant(monkeypatch, mutant)
    code = main(["verify-all", "--k-max", "8"])
    lines = tuple(l for l in capsys.readouterr().out.splitlines() if l.startswith("claim "))
    assert lines == _recorded_sweep_claims()[mutant]
    assert code == (EXIT_OK if mutant is None else EXIT_VIOLATED)


def readme_claim_limits():
    """Claim name -> the "k <= N" its README bullet states (None: "no
    limit"), from the list under README's "Command line" heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    items = section.split("own limit:", 1)[1].strip().split("\n\n", 1)[0]
    bullets = re.split(r"^- ", items, flags=re.M)[1:]
    names = [check[0] for check in checks._CHECKS]
    limits = {}
    for bullet in bullets:
        bullet = " ".join(bullet.split())
        quoted = re.findall(r"`([a-z-]+)`", bullet)
        if " through " in bullet:
            quoted = names[names.index(quoted[0]) : names.index(quoted[1]) + 1]
        limit = None if "no limit" in bullet else int(re.search(r"k <= (\d+)", bullet)[1])
        limits.update(dict.fromkeys(quoted, limit))
    return limits


def test_readme_states_each_claims_limit():
    want = {name: search and BOUNDS[search][0] for name, _, _, search in checks._CHECKS}
    assert readme_claim_limits() == want
