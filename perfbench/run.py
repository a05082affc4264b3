"""indigo benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (``--workload all`` runs the four in turn):
  sweep    ``indigo verify-all --k-max 8``, one fresh interpreter per sample
  control  the same sweep under INDIGO_MUTANT=add-cap and =mul-cap
  lattice  fixed library calls at the ideal-enumeration bound (k = 12..16)
  queries  one closed-loop client sending a seeded stream of CLI queries

Every sample runs in a child interpreter (``worker.py``) with PYTHONPATH
set to the checkout's ``src``, one child at a time.  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs one untraced and one traced sample and reports the
per-layer metrics.  The last line of stdout is the JSON result; a full
record (environment stamp, workload properties, every sample) goes to
``perfbench/out/``.  An INDIGO_MUTANT set in the environment reaches
every child, which is how the benchmark's own negative control is run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from expected import SWEEP_CLAIMS
from queries import EXIT_USAGE, KNOWN_DEFECT, KNOWN_DEFECT_CRASH
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 11
QUERY_BATCH = 100  # queries per wall_s sample on the queries workload
MIN_QUERIES = 1000
RUN_LIMIT_S = 170  # a run must end well inside the 180 s budget
SWEEP_ARGV = ["verify-all", "--k-max", "8"]
MUTANTS = ("add-cap", "mul-cap")

SETUP_CODE = """\
import time
t0 = time.monotonic_ns()
import numpy
t1 = time.monotonic_ns()
import indigo.cli
t2 = time.monotonic_ns()
indigo.cli.build_parser()
t3 = time.monotonic_ns()
print(t0, t1, t2, t3)
"""

STAMP_CODE = """\
import json, numpy, indigo.kernels
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({"numpy": numpy.__version__, "numba": numba_version,
                  "backend": indigo.kernels.BACKEND}))
"""

# metric names and units are defined once, in BENCHMARK.json
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class Run:
    """Bookkeeping for one benchmark run: deadline, children, operations."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: list = []  # (operation, problem)
        self.known_defect: str | None = None
        self.rss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.start)

    def child(self, args: list, env: dict | None = None) -> str:
        """Run one child interpreter to completion; return its stdout."""
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env or self.env,
            cwd=ROOT,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {err[-2000:]}")
        return out

    def worker(self, job: dict, mutant: str | None = None) -> dict:
        env = dict(self.env, INDIGO_MUTANT=mutant) if mutant else None
        spec = dict(job, src=str(SRC))
        lines = self.child([str(HERE / "worker.py"), json.dumps(spec)], env).splitlines()
        result = json.loads(lines[-1])
        self.rss_kb = max(self.rss_kb, result["rss_kb"])
        return result

    def record(self, operation: str, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failures.append((operation, problem))

    def samples(self, one) -> list:
        """Call ``one`` until the next sample would overrun --seconds."""
        out, durations = [], []
        start = time.monotonic()
        while True:
            t = time.monotonic()
            out.append(one())
            durations.append(time.monotonic() - t)
            if time.monotonic() - start + statistics.median(durations) > self.seconds:
                return out
            if self.remaining() < 2 * max(durations):
                return out


def percentile(values: list, q: float) -> float:
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --- set-up ------------------------------------------------------------------


def stamp(run: Run) -> dict:
    versions = json.loads(run.child(["-c", STAMP_CODE]).splitlines()[-1])
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
    }


def setup_probes(run: Run) -> list:
    """Fresh interpreters until ``import indigo`` and ``build_parser`` return."""
    probes = []
    for _ in range(SETUP_PROBES):
        t = time.monotonic_ns()
        t0, t1, t2, t3 = map(int, run.child(["-c", SETUP_CODE]).split())
        probes.append({
            "setup_s": (t3 - t) / 1e9,
            "numpy_import_s": (t1 - t0) / 1e9,
            "indigo_import_s": (t2 - t1) / 1e9,
        })
    return probes


# --- answer checks -----------------------------------------------------------


def check_sweep(run: Run, result: dict, mutant: str | None):
    """Each claim is one operation; its line must equal the recorded one."""
    slot = mutant or "pass"
    want = {line.split()[1]: line for line in SWEEP_CLAIMS[mutant]}
    if result["crash"] is not None:
        for name in want:
            run.record(f"{slot} {name}", f"crash: {result['crash']}")
        return
    lines = result["stdout"].splitlines()
    got = {ln.split()[1]: ln for ln in lines if ln.startswith("claim ")}
    differ = {name for name, line in want.items() if got.get(name) != line}
    want_exit, want_status = (1, "status: violated") if mutant else (0, "status: ok")
    # a wrong exit code or status with every claim line right is its own
    # defect; it fails every claim so that it cannot go unseen
    whole = None
    if not differ and (result["exit"] != want_exit or lines[:1] != [want_status]):
        whole = f"wrong: exit {result['exit']}, {lines[:1]}; expected {want_exit}, {want_status}"
    for name, line in want.items():
        problem = f"wrong: {got.get(name)!r}, recorded {line!r}" if name in differ else whole
        run.record(f"{slot} {name}", problem)


def check_lattice(run: Run, result: dict):
    for op in result["ops"]:
        problem = None
        if op["crash"]:
            problem = f"crash: {op['crash']}"
        elif not op["ok"]:
            problem = f"wrong: got {op['got']}"
        run.record(op["name"], problem)


def check_queries(run: Run, result: dict):
    probe = result["known_defect"]
    argv = " ".join(KNOWN_DEFECT)
    if probe["crash"] == KNOWN_DEFECT_CRASH:
        run.known_defect = f"{argv}: raises {KNOWN_DEFECT_CRASH}, expected exit {EXIT_USAGE}"
    elif probe["crash"] is None and probe["exit"] == EXIT_USAGE:
        run.known_defect = f"{argv}: fixed, exit {EXIT_USAGE}"
    else:
        run.record(argv, f"wrong: exit {probe['exit']}, crash {probe['crash']}")
    run.attempted += result["attempted"] - len(result["failures"])
    for failure in result["failures"]:
        run.record(" ".join(failure["argv"]), failure["problem"])


# --- workloads ---------------------------------------------------------------


def _spans(run: Run, trace: bool, part: int = 0) -> str | None:
    return str(OUT / f"spans-{run.workload}-{run.seed}-{part}.jsonl.gz") if trace else None


def sweep_sample(run: Run, mutants: tuple, trace: bool = False) -> list:
    results = []
    for i, mutant in enumerate(mutants):
        job = {"job": "cli", "argv": SWEEP_ARGV, "trace": trace, "spans": _spans(run, trace, i)}
        result = run.worker(job, mutant)
        check_sweep(run, result, mutant)
        results.append(result)
    return results


def lattice_sample(run: Run, trace: bool = False) -> dict:
    result = run.worker({"job": "lattice", "trace": trace, "spans": _spans(run, trace)})
    check_lattice(run, result)
    return result


SLOTS = {"sweep": (None,), "control": MUTANTS}


def measure(run: Run) -> tuple:
    """Untraced samples: (job walls in s, request latencies in ms, extra).

    A request is one query on ``queries``.  Elsewhere it is the whole job,
    so the latencies are the job walls themselves: a sweep is one
    ``verify-all`` call that reports no time per claim, and the lattice
    calls differ in size so much that their median falls in a gap between
    calls and jumps from run to run.
    """
    if run.workload in SLOTS:
        samples = run.samples(lambda: sweep_sample(run, SLOTS[run.workload]))
        walls = [sum(r["wall_ns"] for r in s) / 1e9 for s in samples]
        return walls, [w * 1e3 for w in walls], {}
    if run.workload == "lattice":
        samples = run.samples(lambda: lattice_sample(run))
        walls = [s["wall_ns"] / 1e9 for s in samples]
        record = {"calls_ms": [{op["name"]: op["ns"] / 1e6 for op in s["ops"]} for s in samples]}
        return walls, [w * 1e3 for w in walls], record
    result = run.worker({
        "job": "queries", "seed": run.seed, "seconds": run.seconds, "min_queries": MIN_QUERIES,
    })
    check_queries(run, result)
    lat = [ns / 1e6 for ns in result["latencies_ns"]]
    batches = [lat[i:i + QUERY_BATCH] for i in range(0, len(lat) - QUERY_BATCH + 1, QUERY_BATCH)]
    return [sum(b) / 1e3 for b in batches], lat, {
        "queries_per_s": len(lat) / (sum(lat) / 1e3),
        "properties": result["properties"],
    }


def measure_traced(run: Run) -> tuple:
    """One untraced and one traced sample.

    Returns the tracer totals of each traced process, the untraced and
    traced job walls in seconds, and extra fields for the run record.
    """
    if run.workload in SLOTS:
        plain = sweep_sample(run, SLOTS[run.workload])
        traced = sweep_sample(run, SLOTS[run.workload], trace=True)
        untraced_ns = sum(r["wall_ns"] for r in plain)
        traced_ns = sum(r["wall_ns"] for r in traced)
        extra = {}
    elif run.workload == "lattice":
        untraced_ns = lattice_sample(run)["wall_ns"]
        traced = [lattice_sample(run, trace=True)]
        traced_ns = traced[0]["wall_ns"]
        extra = {}
    else:
        result = run.worker({
            "job": "queries", "seed": run.seed, "trace": True, "min_queries": MIN_QUERIES,
            "spans": _spans(run, True),
        })
        check_queries(run, result)
        half = len(result["latencies_ns"]) // 2
        untraced_ns = result["untraced_ns"]
        traced_ns = sum(result["latencies_ns"][half:])
        traced = [result]
        extra = {"properties": result["properties"]}
    return [r["trace"] for r in traced], untraced_ns / 1e9, traced_ns / 1e9, extra


def layer_metrics(totals: list, untraced_s: float, traced_s: float, probes: list) -> tuple:
    summed: dict = {}
    ctx_keys = set()
    missing = set()
    for t in totals:
        ctx_keys |= {tuple(x) for x in t.pop("enumerated_ctx")}
        missing |= set(t.pop("missing"))
        for key, value in t.items():
            summed[key] = summed.get(key, 0) + value
    values = {}
    for key, value in summed.items():
        if key.endswith("_ns"):
            values[key[:-3] + "_s"] = value / 1e9
        else:
            values[key] = value
    candidates = values["kernels.ideal_candidates"]
    values["kernels.ideal_yield"] = values.pop("kernels.ideal_found") / candidates if candidates else 0.0
    calls = values["ideals.enumerate_calls"]
    values["ideals.enumerate_per_ctx"] = calls / len(ctx_keys) if ctx_keys else 0.0
    self_s = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values["trace.coverage"] = self_s / traced_s
    values["trace.overhead_ratio"] = traced_s / untraced_s
    values["trace.wall_s"] = traced_s
    values["setup.numpy_import_s"] = statistics.median(p["numpy_import_s"] for p in probes)
    values["setup.indigo_import_s"] = statistics.median(p["indigo_import_s"] for p in probes)
    return values, sorted(missing)


# --- reporting ---------------------------------------------------------------

# wall_s under the name it has on each job workload
JOB_WALL_NAMES = {"sweep": "sweep_s", "control": "control_s", "lattice": "lattice_s"}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run = Run(workload, seed, seconds)
    OUT.mkdir(exist_ok=True)
    env_stamp = stamp(run)
    probes = setup_probes(run)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "stamp": env_stamp, "setup_probes": probes}
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print("stamp: " + ", ".join(f"{k} {v}" for k, v in env_stamp.items()))
    if trace:
        totals, untraced_s, traced_s, extra = measure_traced(run)
        values, missing = layer_metrics(totals, untraced_s, traced_s, probes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        record.update(extra, missing_names=missing)
        if missing:
            print("not traced (name absent from indigo): " + ", ".join(missing))
    else:
        walls, lat, extra = measure(run)
        values = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "wall_s": statistics.median(walls),
            "p50_ms": percentile(lat, 0.50),
            "p99_ms": percentile(lat, 0.99),
            "peak_rss_mb": run.rss_kb / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        record.update(extra, walls_s=walls, latencies_ms=lat)
        n = len(lat)
        if workload in JOB_WALL_NAMES:
            print(f"{JOB_WALL_NAMES[workload]}: {values['wall_s']:.4f} s (median of {len(walls)} samples)")
            print(f"p50_ms, p99_ms over n={n} whole jobs, so p50_ms tracks wall_s")
        else:
            print(f"query_p50_ms: {values['p50_ms']:.4f} ms (n={n})")
            print(f"query_p99_ms: {values['p99_ms']:.4f} ms (n={n}, {n - int(0.99 * n)} beyond)")
            print(f"queries_per_s: {extra['queries_per_s']:.2f} 1/s")
            props = extra["properties"]
            print(f"repeat_share: {props['repeat_share']:.4f} of (subcommand, k) pairs")
            print("mix: " + ", ".join(f"{k} {v}" for k, v in props["mix"].items()))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    ratio = len(run.failures) / run.attempted if run.attempted else 1.0
    print(f"fail_ratio: {len(run.failures)}/{run.attempted} = {ratio:.6f}")
    for operation, problem in run.failures[:20]:
        print(f"failed: {operation}: {problem}")
    if run.known_defect:
        print(f"known defect (probed once, not an operation): {run.known_defect}")
    result = {
        "correct": not run.failures and run.attempted > 0,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    record.update(result, failures=run.failures, fail_ratio=ratio, known_defect=run.known_defect)
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


WORKLOADS = ("sweep", "control", "lattice", "queries")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indigo" / "__init__.py").is_file():
        print(f"error: no indigo sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
