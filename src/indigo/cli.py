"""Command line front end.

Subcommands mirror the library: element arithmetic, Cayley tables, law
verification, graph invariants, ideal lattice queries, the spectrum,
localization, polynomial arithmetic, idempotent series windows,
quadratic irreducibility, and a verify-all theorem sweep.  Output is
plain text by default and a structured report with --json.

Exit codes: 0 all claims hold, 1 a claim is violated, 2 usage error,
3 an exhaustive-search bound was exceeded (lift it with --unsafe-bound),
4 an internal error (a fault in indigo itself, reported on one stderr
line as ``error: internal: <Type>: <message>``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import checks, graphs, ideals, series
from .bounds import BOUNDS, BoundExceededError
from .core import ContextMismatchError, Elem, SemiringCtx, verify_laws

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

TABLE_RENDER_BOUND = 32


def _parse_elem_list(text: str) -> list:
    return [Elem.parse(tok) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _fmt_scalar(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _out(text: str) -> None:
    """Print ``text`` to stdout.

    A reader that stops early (``indigo table 30 | head -1``) is not an
    error: the rest of the output goes to /dev/null and the command's exit
    code stands.
    """
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(payload: dict, claims: list, as_json: bool) -> int:
    status = "ok" if all(c.passed for c in claims) else "violated"
    if as_json:
        report = {
            "status": status,
            "payload": payload,
            "claims": [c.to_json() for c in claims],
        }
        _out(json.dumps(report, indent=2))
    else:
        _out(f"status: {status}")
        for key, value in payload.items():
            _out(f"{key}: {_fmt_scalar(value)}")
        for c in claims:
            verdict = "pass" if c.passed else "FAIL"
            line = f"claim {c.name} [{c.tag}]: {verdict}"
            if c.detail:
                line += f" ({c.detail})"
            _out(line)
    return EXIT_OK if status == "ok" else EXIT_VIOLATED


def _refuse(search: str, args) -> None:
    """Refuse k past the bound of ``search`` in ``BOUNDS`` (exit 3) unless
    ``--unsafe-bound`` lifts it; called just before the search runs."""
    bound, text = BOUNDS[search]
    if args.k > bound and not args.unsafe_bound:
        raise BoundExceededError(f"{text} bounded at k <= {bound}, got k={args.k}")


def _one_op(args, flags: tuple, usage: str) -> str:
    """The one flag of ``flags`` that ``args`` sets; ``ValueError`` with ``usage``
    (exit 2) when none is set or several are."""
    picked = [flag for flag in flags if getattr(args, flag) not in (None, "")]
    if len(picked) != 1:
        raise ValueError(usage)
    return picked[0]


def _render_table_text(ctx: SemiringCtx, rows) -> list:
    labels = [e.render() for e in ctx.elements()]
    width = max(len(s) for s in labels)
    lines = ["  " + " " * width + "  " + "  ".join(s.rjust(width) for s in labels)]
    for row_label, row in zip(labels, rows):
        cells = "  ".join(labels[c].rjust(width) for c in row)
        lines.append(f"  {row_label.rjust(width)}  {cells}")
    return lines


def _cmd_elem(args) -> int:
    ctx = SemiringCtx(args.k)
    payload: dict = {"k": args.k}
    flags = ("add", "mul", "leq", "canon", "unit", "idempotent")
    op = _one_op(args, flags, "pick one of --add, --mul, --leq, --canon, --unit, --idempotent")
    if op in ("add", "mul", "leq"):
        a, b = (Elem.parse(t) for t in getattr(args, op))
        result = getattr(ctx, op)(a, b)
        result = result if op == "leq" else result.render()
        payload.update(op=op, a=a.render(), b=b.render(), result=result)
    elif op == "canon":
        payload.update(op="canonical-map", n=args.canon, result=ctx.canonical_map(args.canon).render())
    else:
        a = Elem.parse(getattr(args, op))
        result = ctx.is_unit(a) if op == "unit" else ctx.is_idempotent(a)
        payload.update(op=f"is-{op}", a=a.render(), result=result)
    return _emit(payload, [], args.json)


def _cmd_table(args) -> int:
    ctx = SemiringCtx(args.k)
    add, mul = (t.tolist() for t in ctx.tables())
    if args.k > TABLE_RENDER_BOUND:
        print(
            f"warning: k={args.k} exceeds {TABLE_RENDER_BOUND}; table output will be large",
            file=sys.stderr,
        )
    if args.json:
        elems = [e.to_json() for e in ctx.elements()]
        payload = {
            "k": args.k,
            "elements": elems,
            "add": [[elems[c] for c in row] for row in add],
            "mul": [[elems[c] for c in row] for row in mul],
        }
        return _emit(payload, [], True)
    _out("status: ok")
    _out(f"k: {args.k}")
    _out("addition:")
    _out("\n".join(_render_table_text(ctx, add)))
    _out("multiplication:")
    _out("\n".join(_render_table_text(ctx, mul)))
    return EXIT_OK


def _cmd_laws(args) -> int:
    ctx = SemiringCtx(args.k)
    _refuse("laws", args)
    reports = verify_laws(ctx)
    claims = []
    for r in reports:
        detail = "" if r.holds else f"counterexample: {r.render_counterexample()}"
        claims.append(checks.Claim(r.law, "core.laws", r.holds, detail))
    payload = {"k": args.k, "laws_checked": len(reports)}
    return _emit(payload, claims, args.json)


def _cmd_graph(args) -> int:
    wanted = [name for name in ("diameter", "girth", "clique", "chromatic") if getattr(args, name)]
    if not wanted and not args.edges:
        wanted = ["diameter", "girth", "clique", "chromatic"]
    for search in ("clique", "chromatic"):  # before computing any invariant
        if search in wanted:
            _refuse(search, args)
    g = graphs.build_graph(args.k)

    def enc(x):
        return "infinity" if x == graphs.INFINITE else x

    payload: dict = {"k": args.k, "vertices": g.order, "edges": g.edge_count()}
    if "diameter" in wanted:
        payload["diameter"] = enc(graphs.diameter(g))
    if "girth" in wanted:
        payload["girth"] = enc(graphs.girth(g))
    if "clique" in wanted:
        payload["clique_number"] = graphs.clique_number(g)
    if "chromatic" in wanted:
        payload["chromatic_number"] = graphs.chromatic_number(g)
    if args.edges:
        if args.json:
            payload["adjacency"] = g.adjacency_map()
        else:
            payload["edge_list"] = "\n" + g.edge_list_text()
    return _emit(payload, [], args.json)


def _cmd_ideals(args) -> int:
    ctx = SemiringCtx(args.k)
    payload: dict = {"k": args.k}
    if args.radical is not None:
        gens = _parse_elem_list(args.radical)
        base = ideals.ideal_generated(ctx, gens)
        rad = ideals.radical(ctx, base)
        payload.update(
            generators=[e.render() for e in gens],
            ideal=base.render() if not args.json else base.to_json(),
            radical=rad.render() if not args.json else rad.to_json(),
        )
        return _emit(payload, [], args.json)
    _refuse("ideals", args)
    lattice = ideals.enumerate_ideals(ctx)
    payload["count"] = len(lattice)
    if args.list:
        payload["ideals"] = (
            [i.to_json() for i in lattice] if args.json else [i.render() for i in lattice]
        )
    if args.primes:
        primes = [i for i in lattice if ideals.is_prime(ctx, i)]
        payload["primes"] = (
            [i.to_json() for i in primes] if args.json else [i.render() for i in primes]
        )
    return _emit(payload, [], args.json)


def _cmd_spec(args) -> int:
    ctx = SemiringCtx(args.k)
    _refuse("ideals", args)
    view = ideals.spectrum(ctx)
    data = view.to_json()
    payload = {
        "k": args.k,
        "points": data["points"] if args.json else [p.render() for p in view.points],
        "closed_sets": data["closed_sets"],
        "sierpinski": view.is_sierpinski,
    }
    return _emit(payload, [], args.json)


def _cmd_localize(args) -> int:
    ctx = SemiringCtx(args.k)
    units = _parse_elem_list(args.u)
    loc = ideals.localize(ctx, units)
    payload = {
        "k": args.k,
        "unit_set": [u.render() for u in sorted(loc.unit_set, key=ctx.encode)],
        "class_count": loc.class_count,
        "boolean": loc.is_boolean(),
        "entire": loc.is_entire(),
        "zerosumfree": loc.is_zerosumfree(),
    }
    if loc.unit_set == frozenset((ctx.one,)):
        payload["matches_ambient"] = loc.matches_ambient()
    if args.json:
        payload["classes"] = [
            [[a.to_json(), u.to_json()] for a, u in loc.class_members(ci)]
            for ci in range(loc.class_count)
        ]
    return _emit(payload, [], args.json)


def _cmd_poly(args) -> int:
    ctx = SemiringCtx(args.k)
    payload: dict = {"k": args.k}

    def load(text: str) -> series.Poly:
        return series.parse_poly(ctx, text)

    def dump(f: series.Poly):
        return f.to_json() if args.json else f.render()

    flags = ("add", "mul", "degree", "unit", "idempotent")
    op = _one_op(args, flags, "pick one of --add, --mul, --degree, --unit, --idempotent")
    if op in ("add", "mul"):
        f, g = (load(t) for t in getattr(args, op))
        payload.update(op=op, f=dump(f), g=dump(g), result=dump(f + g if op == "add" else f * g))
    elif op == "degree":
        f = load(args.degree)
        d = f.degree()
        payload.update(op="degree", f=dump(f), result="-infinity" if d == series.NEG_INFINITY else d)
    else:
        f = load(getattr(args, op))
        result = f.is_unit() if op == "unit" else f.is_idempotent()
        payload.update(op=f"is-{op}", f=dump(f), result=result)
    return _emit(payload, [], args.json)


def _cmd_series(args) -> int:
    ctx = SemiringCtx(args.k)
    payload: dict = {"k": args.k, "depth": args.depth}
    usage = "pick --gens (build an idempotent window) or --check (test one)"
    if _one_op(args, ("gens", "check"), usage) == "gens":
        constant = Elem.parse(args.constant)
        gens = _parse_int_list(args.gens)
        f = series.idempotent_series_from_generators(ctx, constant, gens, args.depth)
        payload.update(
            generators=gens,
            series=f.to_json() if args.json else f.render(),
            support=list(f.support()),
            idempotent=series.ts_is_idempotent_window(f),
        )
    else:
        poly_part = series.parse_poly(ctx, args.check)
        f = series.make_series(ctx, args.depth, poly_part.coeffs)
        payload.update(
            series=f.to_json() if args.json else f.render(),
            support=list(f.support()),
            idempotent=series.ts_is_idempotent_window(f),
            unit=f.is_unit(),
        )
    return _emit(payload, [], args.json)


def _cmd_irreducible(args) -> int:
    ctx = SemiringCtx(args.k)
    alpha = Elem.parse(args.alpha)
    beta = Elem.parse(args.beta)
    verdict = series.quadratic_irreducible(ctx, alpha, beta)
    f = series.quadratic(ctx, alpha, beta)
    payload = {
        "k": args.k,
        "poly": f.to_json() if args.json else f.render(),
        "irreducible": verdict,
    }
    claims = []
    if args.oracle:
        _refuse("oracle", args)
        witness = series.factorization_oracle(f)
        if witness is None:
            payload["witness"] = None
        else:
            left, right = witness
            payload["witness"] = (
                [left.to_json(), right.to_json()]
                if args.json
                else f"({left.render()}) * ({right.render()})"
            )
        agree = verdict == (witness is None)
        claims.append(
            checks.Claim(
                "closed-form-matches-oracle",
                "series.quadratics",
                agree,
                "" if agree else "closed form and exhaustive search disagree",
            )
        )
    return _emit(payload, claims, args.json)


def _cmd_verify_all(args) -> int:
    claims = checks.run_all_checks(args.k_max, unsafe=args.unsafe_bound)
    failed = sum(1 for c in claims if not c.passed)
    payload = {"k_max": args.k_max, "claims_total": len(claims), "claims_failed": failed}
    return _emit(payload, claims, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indigo",
        description="Exact computations in Indigenous semirings (saturating counting algebras).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_unsafe=True):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if with_unsafe:
            p.add_argument(
                "--unsafe-bound",
                action="store_true",
                help="lift the exhaustive-search bound (may take very long)",
            )

    p = sub.add_parser("elem", help="scalar arithmetic and predicates")
    p.add_argument("k", type=int)
    p.add_argument("--add", nargs=2, metavar=("A", "B"))
    p.add_argument("--mul", nargs=2, metavar=("A", "B"))
    p.add_argument("--leq", nargs=2, metavar=("A", "B"))
    p.add_argument("--canon", type=int, metavar="N")
    p.add_argument("--unit", metavar="A")
    p.add_argument("--idempotent", metavar="A")
    add_common(p, with_unsafe=False)

    p = sub.add_parser("table", help="addition and multiplication tables")
    p.add_argument("k", type=int)
    add_common(p, with_unsafe=False)

    p = sub.add_parser("laws", help="exhaustive law verification")
    p.add_argument("k", type=int)
    add_common(p)

    p = sub.add_parser("graph", help="saturation graph invariants")
    p.add_argument("k", type=int)
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--girth", action="store_true")
    p.add_argument("--clique", action="store_true")
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("--edges", action="store_true", help="include the edge list")
    add_common(p)

    p = sub.add_parser("ideals", help="ideal lattice queries")
    p.add_argument("k", type=int)
    p.add_argument("--list", action="store_true")
    p.add_argument("--primes", action="store_true")
    p.add_argument("--radical", metavar="GENS", help="radical of the ideal generated by GENS")
    add_common(p)

    p = sub.add_parser("spec", help="Zariski spectrum")
    p.add_argument("k", type=int)
    add_common(p)

    p = sub.add_parser("localize", help="fractions over a multiplicative set")
    p.add_argument("k", type=int)
    p.add_argument("--u", required=True, metavar="ELEMS", help="comma-separated, e.g. 1,2,m")
    add_common(p, with_unsafe=False)

    p = sub.add_parser("poly", help="polynomial arithmetic")
    p.add_argument("k", type=int)
    p.add_argument("--add", nargs=2, metavar=("F", "G"))
    p.add_argument("--mul", nargs=2, metavar=("F", "G"))
    p.add_argument("--degree", metavar="F")
    p.add_argument("--unit", metavar="F")
    p.add_argument("--idempotent", metavar="F")
    add_common(p, with_unsafe=False)

    p = sub.add_parser("series", help="idempotent power series windows")
    p.add_argument("k", type=int)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--gens", metavar="LIST", help="comma-separated exponents, e.g. 3,5")
    p.add_argument("--constant", default="m", help="constant term for --gens (1 or m)")
    p.add_argument("--check", metavar="EXPR", help="test a window given as polynomial text")
    add_common(p, with_unsafe=False)

    p = sub.add_parser("irreducible", help="quadratic irreducibility")
    p.add_argument("k", type=int)
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check by exhaustive factoring")
    add_common(p)

    p = sub.add_parser("verify-all", help="run the full theorem sweep")
    p.add_argument("--k-max", type=int, default=8, dest="k_max")
    add_common(p)

    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built on the first main call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # subcommand "verify-all" runs _cmd_verify_all, looked up per call
        code = globals()["_cmd_" + args.command.replace("-", "_")](args)
    except BoundExceededError as exc:
        if args.json:
            _out(json.dumps({"status": "bound-exceeded", "error": str(exc)}, indent=2))
        else:
            _out(f"status: bound-exceeded\nerror: {exc}")
        code = EXIT_BOUND
    except (ContextMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    except Exception as exc:  # a fault in indigo must not read as a violated claim
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    try:
        sys.stdout.flush()  # buffered output meets a closed pipe here, not at exit
    except BrokenPipeError:
        _drop_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
