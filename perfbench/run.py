"""ncgauge benchmark: time to a checked verdict over CLI suite workloads.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  One process drives
`ncgauge.cli.main(argv)` in-process over the workload's invocations and
checks every report with the oracles in `oracles.py`.

--trace 0 runs the invocations round-robin for --seconds, each at least
MIN_REPEATS times, with SETUP_SAMPLES fresh-interpreter set-ups spread over
the same window.  It reports wall_s and cpu_s of one pass averaged over
the window (the sum over invocations of each one's mean run; see
`mean_pass`), peak_rss_mb (ru_maxrss of this fresh process) and
setup_s (median time from a fresh interpreter to `import ncgauge.cli`
done).  `attempted` counts each invocation once and `failed` those with a
failed run, so both depend only on the seed; the human-readable lines also
give fail_ratio = failed / attempted.  Workloads that run
heisenberg-verify also check fixed graded products once against committed
norms (`oracles.check_products`), outside the timed window.

--trace 1 runs the same window without set-ups, then one pass with the
layer functions wrapped (see `tracing.py`), and reports the per-layer
metrics named in BENCHMARK.json plus the tracing overhead: the traced
pass's wall time minus the untraced wall_s.

The last line of stdout is one JSON object; the lines before it are for
people.  Full results, and the spans of a traced run, are written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
LAYERS = ("quadfield", "torus", "heisenberg", "gauge", "hopf", "cli")  # import order
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 60

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import ncgauge.cli
print(time.clock_gettime(time.CLOCK_MONOTONIC))
"""

# Imports the layers one at a time under a bare package object, so the
# package __init__ (which imports every layer) does not blur the split.
LAYER_IMPORT_CODE = """
import importlib, json, sys, time, types
pkg = types.ModuleType("ncgauge")
pkg.__path__ = [sys.argv[1] + "/ncgauge"]
sys.modules["ncgauge"] = pkg
out = {}
for name in sys.argv[2:]:
    t = time.perf_counter()
    importlib.import_module("ncgauge." + name)
    out[name] = time.perf_counter() - t
print(json.dumps(out))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


# -- fresh-interpreter measurements -----------------------------------------------


def _child(code: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def setup_sample() -> float:
    """Seconds from spawning an interpreter to `import ncgauge.cli` done.

    Parent and child read the same system-wide monotonic clock.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    return float(_child(SETUP_CODE)) - start


def measure_layer_imports() -> dict:
    """Median import seconds of each layer, in dependency order."""
    runs = [json.loads(_child(LAYER_IMPORT_CODE, *LAYERS)) for _ in range(IMPORT_SAMPLES)]
    return {name: statistics.median(r[name] for r in runs) for name in LAYERS}


# -- timed runs -----------------------------------------------------------------------


def run_one(cli, argv, reference, tracer=None) -> tuple[float, float, oracles.Outcome]:
    """Run and check one invocation; its wall and CPU seconds and outcome."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception as exc:  # a crash is a failed invocation, not the end of the run
        code = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.close(span)
    outcome = oracles.check(argv, code, out.getvalue(), reference)
    return time.perf_counter() - wall0, time.process_time() - cpu0, outcome


def run_pass(cli, invocations, reference, tracer) -> list[tuple]:
    """Every invocation once, in order, under the tracer."""
    gc.collect()
    return [run_one(cli, argv, reference, tracer) for argv in invocations]


def measure(cli, invocations, reference, seconds: float, with_setup: bool):
    """Run the invocations round-robin for `seconds`.

    Each invocation runs at least MIN_REPEATS times; after that the run
    stops at the first invocation whose last duration would take it past
    `seconds`.  With `with_setup`, SETUP_SAMPLES fresh-interpreter set-ups
    are spread over the same window.  Returns the runs of each invocation
    and the set-up samples.
    """
    if with_setup:
        _child(SETUP_CODE)  # unrecorded, so byte-code compilation is not counted
    repeats = [[] for _ in invocations]
    setup = [] if with_setup else None
    start = time.perf_counter()
    while True:
        gc.collect()
        for i, argv in enumerate(invocations):
            elapsed = time.perf_counter() - start
            if (min(map(len, repeats)) >= MIN_REPEATS
                    and elapsed + repeats[i][-1][0] > seconds):
                while with_setup and len(setup) < SETUP_SAMPLES:
                    setup.append(setup_sample())
                return repeats, setup
            if with_setup and len(setup) < min(SETUP_SAMPLES,
                                               1 + SETUP_SAMPLES * elapsed / seconds):
                setup.append(setup_sample())
            repeats[i].append(run_one(cli, argv, reference))


def mean_pass(repeats) -> dict:
    """Wall and CPU seconds of one pass, averaged over the window: the sum
    over invocations of each one's mean run.

    The host's speed drifts between levels over tens of seconds, so the
    mean over a minute of runs varies less from run to run than the median
    or the minimum of the same runs.  First-call costs (the first cohomology
    call in a process is about 2 s slower than the next) fall on the first
    run of each command and are included; a CLI user pays them every call.
    """
    return {key: sum(statistics.fmean(r[col] for r in reps) for reps in repeats)
            for col, key in ((0, "wall_s"), (1, "cpu_s"))}


def full_passes(repeats) -> list[float]:
    """Wall seconds of each round in which every invocation ran."""
    rounds = min(map(len, repeats))
    return [sum(reps[k][0] for reps in repeats) for k in range(rounds)]


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


# -- per-layer metrics ----------------------------------------------------------------


def per_layer(names, summary: dict, counters, outcomes, imports: dict,
              overhead_s: float) -> dict:
    """Value of every per-layer metric named in BENCHMARK.json."""
    pair_calls = summary.get("heisenberg.pair_to_heis", {}).get("calls", 0)
    special = {
        "heisenberg.sample_bytes": counters["heisenberg.sample_bytes"],
        "heisenberg.clipped_products": counters["heisenberg.clipped_products"],
        "heisenberg.clipped_ratio":
            counters["heisenberg.clipped_products"] / pair_calls if pair_calls else 0.0,
        "hopf.crossed_product_bytes": counters["hopf.crossed_product_bytes"],
        "cli.skipped_checks": sum(o.skipped_checks for o in outcomes),
        "trace.overhead_s": overhead_s,
        "trace.spans": sum(row["calls"] for row in summary.values()),
    }
    values = {}
    for name in names:
        head, _, stat = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif stat in ("calls", "self_s"):
            values[name] = summary.get(head, {}).get(stat, 0)
        elif stat == "errors":
            values[name] = counters[name]
        elif stat == "import_s":
            values[name] = imports[head]
        else:
            raise KeyError(f"no rule produces the per-layer metric {name!r}")
    return values


# -- metadata -------------------------------------------------------------------------


def blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, if it can be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return done.stdout.strip() or None


def metadata(args, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_thread_cap": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "commit": commit(),
        "source_sha256": source_digest(),
    }


# -- reporting ------------------------------------------------------------------------


def invocation_outcome(outcomes: list) -> oracles.Outcome:
    """One outcome from all runs of an invocation: its first wrong run, else
    its first failed run, else ok.  A failure in only some runs says so."""
    bad = [o for o in outcomes if o.is_failure]
    if not bad:
        return outcomes[0]
    worst = next((o for o in bad if o.status == "wrong"), bad[0])
    if len(bad) < len(outcomes):
        return dataclasses.replace(
            worst, reason=f"{worst.reason} (in {len(bad)} of {len(outcomes)} runs)")
    return worst


def traced_pass(ncgauge, cli, invocations, reference, spec, untraced_wall, args):
    """One pass with the layers wrapped; per-layer metrics and the spans."""
    import tracing

    tracer = tracing.Tracer()
    modules = {name: getattr(ncgauge, name) for name in LAYERS}
    modules["ncgauge"] = ncgauge
    tracer.install(modules)
    try:
        traced = run_pass(cli, invocations, reference, tracer)
    finally:
        tracer.uninstall()
    traced_wall = sum(r[0] for r in traced)
    overhead = traced_wall - untraced_wall
    summary = tracer.summary()
    names = [m["name"] for m in spec["per_layer"]]
    metrics = per_layer(names, summary, tracer.counters, [r[2] for r in traced],
                        measure_layer_imports(), overhead)
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "pass"], "spans": tracer.spans}))
    print(f"  tracing overhead {overhead:.4g} s (traced {traced_wall:.4g} s, "
          f"untraced mean pass {untraced_wall:.4g} s)")
    return traced, metrics, {"summary": summary}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ncgauge" / "cli.py").is_file():
        print(f"no ncgauge source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import ncgauge
    import ncgauge.cli as cli

    if Path(ncgauge.__file__).resolve().parent != (SRC / "ncgauge").resolve():
        print(f"imported ncgauge from {ncgauge.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    meta = metadata(args, nproc)
    print(f"# {json.dumps(meta)}")
    invocations = workloads.build(args.workload, args.seed)
    reference = oracles.load_reference()

    products = ([oracles.check_products()]
                if any(argv[0] == "heisenberg-verify" for argv in invocations) else [])
    repeats, setup = measure(cli, invocations, reference, args.seconds,
                             with_setup=not args.trace)
    mean = mean_pass(repeats)
    passes = quartiles(full_passes(repeats))
    print(f"workload {args.workload}: {len(invocations)} invocations, "
          f"{min(map(len, repeats))}-{max(map(len, repeats))} timed runs each")
    print(f"  full passes: wall median {passes['median']:.6g} s, q1 {passes['q1']:.6g}, "
          f"q3 {passes['q3']:.6g}, n {passes['n']}")
    runs = repeats
    if args.trace:
        traced, metrics, detail = traced_pass(ncgauge, cli, invocations, reference, spec,
                                              mean["wall_s"], args)
        runs = [r + [t] for r, t in zip(runs, traced)]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = dict(mean, setup_s=statistics.median(setup),
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: values[name] for name in units}
        detail = {"setup_samples": setup, "full_passes": passes}
        print(f"  setup samples: {', '.join(f'{x:.4g}' for x in setup)}")

    outcomes = products + [invocation_outcome([r[2] for r in rs]) for rs in runs]
    attempted = len(outcomes)
    n_failed = sum(o.is_failure for o in outcomes)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    print(f"  {'fail_ratio':<34} {n_failed / attempted:>16.6g} 1   ({n_failed}/{attempted})")
    print(f"  cli.skipped_checks per pass: {sum(r[0][2].skipped_checks for r in repeats)}")
    for argv, o in zip(invocations, outcomes[len(products):]):
        if o.is_failure:
            print(f"  {o.status}: {' '.join(argv)}: {o.reason}")
    for o in products:
        print(f"  graded products: {o.status} {o.reason}")

    result = {
        "correct": not any(o.status == "wrong" for o in outcomes),
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, meta=meta, detail=detail,
                  runs=[{"argv": argv, "wall_s": [r[0] for r in rs], "cpu_s": [r[1] for r in rs]}
                        for argv, rs in zip(invocations, runs)])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
