"""One benchmark sample in a fresh interpreter.

``run.py`` starts this script with a JSON job description as its only
argument and ``PYTHONPATH`` pointing at the checkout's ``src``.  The
script imports indigo before any timing starts, runs the job (traced or
not), checks every answer and prints one JSON result line on stdout.

Jobs:
  cli      one ``indigo.cli.main(argv)`` call, output captured
  lattice  the fixed library calls at the ideal-enumeration bound
  queries  the closed-loop client over the seeded query stream
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import queries

clock = time.perf_counter_ns


def _check_origin(src: str):
    import indigo

    here = os.path.realpath(os.path.dirname(indigo.__file__))
    want = os.path.realpath(os.path.join(src, "indigo"))
    if here != want:
        raise SystemExit(f"indigo imported from {here}, expected {want}")


def _call_cli(main, argv: list) -> tuple:
    """(exit code or None, crash name or None, stdout, stderr, ns)."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = clock()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed operation, not a harness error
            crash = type(exc).__name__
        ns = clock() - start
    return code, crash, out.getvalue(), err.getvalue(), ns


def job_cli(spec: dict, tracer) -> dict:
    from indigo import cli

    code, crash, out, err, ns = _call_cli(cli.main, spec["argv"])
    return {"exit": code, "crash": crash, "stdout": out, "stderr": err[-2000:], "wall_ns": ns}


def _lattice_ops():
    from expected import IDEAL_COUNTS, NILPOTENCY_INDEX_12
    from indigo import SemiringCtx, ideals

    def primes_json(k):
        return [[0], [0, *range(2, k + 1), "m"]]

    for k in range(13, 17):
        ctx = SemiringCtx(k)
        box = {}

        def enumerate_op(ctx=ctx, box=box):
            box["lattice"] = ideals.enumerate_ideals(ctx)
            return len(box["lattice"])

        def primes_op(ctx=ctx, box=box):
            return [p.to_json() for p in box["lattice"] if ideals.is_prime(ctx, p)]

        def spectrum_op(ctx=ctx):
            view = ideals.spectrum(ctx)
            return [len(view.points), view.is_sierpinski]

        yield f"enumerate_ideals({k})", enumerate_op, IDEAL_COUNTS[k]
        yield f"is_prime over lattice({k})", primes_op, primes_json(k)
        yield f"spectrum({k})", spectrum_op, [2, True]

    ctx = SemiringCtx(12)

    def semiring_op():
        ids = ideals.ideal_semiring(ctx)
        return [
            ids.size,
            ids.is_additively_idempotent(),
            ids.is_zerosumfree(),
            ids.is_entire(),
            ids.least_nonzero_absorbs(),
        ]

    yield "ideal_semiring(12)", semiring_op, [172, True, True, True, True]
    yield "nilpotency_index(12)", lambda: ideals.nilpotency_index(ctx), NILPOTENCY_INDEX_12


def job_lattice(spec: dict, tracer) -> dict:
    ops = []
    for index, (name, op, want) in enumerate(_lattice_ops()):
        if tracer is not None:
            tracer.sample = index
        got, crash = None, None
        start = clock()
        try:
            got = op()
        except Exception as exc:  # counted as a failed call
            crash = type(exc).__name__
        ns = clock() - start
        ops.append({"name": name, "ns": ns, "crash": crash, "ok": crash is None and got == want,
                    "got": repr(got)[:200]})
    return {"ops": ops, "wall_ns": sum(op["ns"] for op in ops)}


def _run_query(main, q) -> tuple:
    """(ns, problem or None) for one query, checked against its oracle."""
    code, crash, out, err, ns = _call_cli(main, list(q.argv))
    problem = None
    if crash is not None:
        problem = f"crash: {crash}"
    elif code != q.exit_code:
        problem = f"wrong: exit {code}, expected {q.exit_code}"
    elif q.check is not None:
        try:
            problem = q.check(json.loads(out))
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            problem = f"unreadable report: {exc!r}"
        if problem is not None:
            problem = f"wrong: {problem}"
    return ns, problem


def job_queries(spec: dict, tracer) -> dict:
    from indigo import cli

    gen = queries.stream(spec["seed"])
    latencies, failures, keys = [], [], []

    def send(q, main):
        ns, problem = _run_query(main, q)
        latencies.append(ns)
        if problem is not None:
            failures.append({"argv": list(q.argv), "problem": problem})

    code, crash, _, _, _ = _call_cli(cli.main, list(queries.KNOWN_DEFECT))
    result = {"known_defect": {"exit": code, "crash": crash}}
    if spec.get("trace"):
        # the same fixed batch, untraced then traced, gives the overhead ratio
        batch = [next(gen) for _ in range(spec["min_queries"])]
        keys = [q.key for q in batch]
        for q in batch:
            send(q, cli.main)
        result["untraced_ns"] = sum(latencies)
        from tracing import Tracer

        tracer = result["tracer"] = Tracer()
        tracer.install()
        for index, q in enumerate(batch):
            tracer.sample = index
            send(q, cli.main)
    else:
        # the client keeps no query once it is answered, so its own
        # memory stays out of the peak RSS
        deadline = time.monotonic() + spec["seconds"]
        while len(keys) < spec["min_queries"] or time.monotonic() < deadline:
            q = next(gen)
            keys.append(q.key)
            send(q, cli.main)
    result.update(
        latencies_ns=latencies,
        attempted=len(latencies),
        failures=failures,
        properties=queries.properties(keys),
    )
    return result


JOBS = {"cli": job_cli, "lattice": job_lattice, "queries": job_queries}


def main() -> int:
    spec = json.loads(sys.argv[1])
    _check_origin(spec["src"])
    import indigo.cli  # noqa: F401  (import cost stays outside every timing)

    tracer = None
    if spec.get("trace") and spec["job"] != "queries":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = JOBS[spec["job"]](spec, tracer)
    tracer = result.pop("tracer", tracer)
    if tracer is not None:
        result["trace"] = tracer.totals()
        result["trace"]["enumerated_ctx"] = sorted(map(list, tracer.enumerated_ctx), key=str)
        result["trace"]["missing"] = tracer.missing
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
