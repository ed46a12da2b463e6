"""Benchmark for volterra-fbm.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced operations on identical
inputs and reports per-layer self time and call counts.  The last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit, the machine, and the correctness
checks.  ``--workload all`` runs the four workloads one after another,
each in its own process.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Pin BLAS before numpy is imported anywhere in this process or its
# children, so the CLI's two worker threads are the only compute threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("solve-large", "ensemble-small", "verify-suite", "crosscheck-frac")
# set-up probes per run, half before and half after the measured loop, so
# the median samples the machine over the whole run
SETUP_PROBES = 6
OUT_ROOT = Path(".perfbench_out")


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = Path("src").resolve()
    if not (src / "volterra_fbm" / "__init__.py").is_file():
        fail("no src/volterra_fbm here; run from the root of a volterra-fbm checkout")
    sys.path.insert(0, str(src))
    import volterra_fbm

    if not Path(volterra_fbm.__file__).resolve().is_relative_to(src):
        fail(f"volterra_fbm imported from {volterra_fbm.__file__}, not from {src}")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def machine_info() -> dict:
    """Read-only description of the machine and the numeric stack."""
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu_model"] = "unknown"
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}_per_cpu"] = size
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info.update({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    })
    return info


def probe_setup(workload: str, seed: int, tiny: bool) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the package and built the workload's inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", "--workload", workload,
           "--seed", str(seed)] + (["--tiny"] if tiny else [])
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        fail(f"setup probe for {workload} failed (exit {code})")
    return elapsed


def run_op(w, inputs, tracer=None):
    """(seconds, Outcome or None) for one operation; an exception counts
    as a failed operation and is reported on stderr."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = w.op(inputs)
        else:
            with tracer.installed(), tracer.root(w.root):
                out = w.op(inputs)
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out


def measure(w, inputs, seconds: float, tracer=None):
    """Closed loop, one client.  Untraced: operations back to back.
    Traced: (untraced, traced) pairs on the same inputs.  A new round
    starts only if the median round so far still fits in ``seconds``;
    the first round always runs."""
    rounds, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        plain.append(run_op(w, inputs))
        if tracer is not None:
            traced.append(run_op(w, inputs, tracer))
        rounds.append(time.perf_counter() - r0)
        if any(out is None for _, out in plain + traced):
            break
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    return plain, traced


def end_to_end(w, plain, setup_times) -> tuple[dict, dict]:
    """BENCHMARK.json metrics and the workload's own named metrics of an
    untraced run, as {name: (value, unit, samples)}."""
    secs = [dt for dt, _ in plain]
    k = len(plain)
    metrics = {
        "op_s": (statistics.median(dt / out.units for dt, out in plain), "s", k),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    named = {}
    if w.name == "solve-large":
        named["solve_s"] = (statistics.median(secs), "s", k)
        named["iterations"] = (plain[0][1].units, "count", k)
    elif w.name == "ensemble-small":
        named["paths_per_s"] = (statistics.median(w.paths / s for s in secs), "1/s", k)
    elif w.name == "verify-suite":
        named["verify_s"] = (statistics.median(secs), "s", k)
    else:
        named["frac_s"] = (statistics.median(secs), "s", k)
    return metrics, named


def per_layer(plain, traced, tracer) -> dict:
    """{name: (value, unit, samples)} per traced operation: self time
    and calls of every layer function (0 where the workload does not
    reach it), Picard iterations, CLI self time, and the tracing
    overhead."""
    from tracer import LAYER_FUNCTIONS

    n_ops = len(traced)
    summary = tracer.summary()
    metrics = {}
    for mod, fn in LAYER_FUNCTIONS:
        agg = summary.get(f"{mod}.{fn}", {"self_s": 0.0, "calls": 0})
        metrics[f"{mod}.{fn}.self_s"] = (agg["self_s"] / n_ops, "s", n_ops)
        metrics[f"{mod}.{fn}.calls"] = (agg["calls"] / n_ops, "count", n_ops)
    solve = summary.get("solver.picard_solve", {"iterations": 0})
    metrics["solver.picard_solve.iterations"] = (solve["iterations"] / n_ops, "count", n_ops)
    cli = summary.get("cli", {"self_s": 0.0, "calls": 0})
    metrics["cli.self_s"] = (cli["self_s"] / n_ops, "s", n_ops)
    metrics["cli.calls"] = (cli["calls"] / n_ops, "count", n_ops)
    untraced = statistics.median(dt for dt, _ in plain)
    with_trace = statistics.median(dt for dt, _ in traced)
    metrics["trace.overhead_frac"] = ((with_trace - untraced) / untraced, "ratio", n_ops)
    metrics["trace.absent_functions"] = (len(tracer.absent), "count", 1)
    return metrics


def run_workload(args) -> int:
    workloads = import_package()
    w = workloads.WORKLOADS[args.workload](args.tiny)
    if args.probe:
        w.setup(args.seed, OUT_ROOT / "probe")
        print("ready", flush=True)
        return 0

    def probes(k: int) -> list[float]:
        # set-up time is an end-to-end metric; the traced run skips it
        k = 0 if args.trace else k
        return [probe_setup(args.workload, args.seed, args.tiny) for _ in range(k)]

    setup_times = probes(SETUP_PROBES // 2)
    out_dir = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        inputs = w.setup(args.seed, out_dir)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        plain, traced = measure(w, inputs, args.seconds, tracer)
        setup_times += probes(SETUP_PROBES - len(setup_times))
        outcomes = [out for _, out in plain + traced]
        attempted = len(outcomes)
        failed = sum(1 for out in outcomes if out is None or not out.ok)
        if failed:
            check_ok, details = False, {"error": f"{failed} operations failed or raised"}
        else:
            check_ok, details = w.check(inputs, outcomes)
        if not check_ok:
            failed = attempted
    finally:
        workloads.clean(out_dir)

    print(f"machine: {json.dumps(machine_info(), sort_keys=True)}")
    print(f"workload: {w.name} seed={args.seed} tiny={args.tiny} "
          f"n={w.n} table_bytes={workloads.table_bytes(w.n)} (computed, one (n+1)^2 float64) "
          f"unit={w.unit} ops={len(plain)} untraced, {len(traced)} traced")
    print("op seconds: untraced " + " ".join(f"{dt:.3f}" for dt, _ in plain)
          + ("; traced " + " ".join(f"{dt:.3f}" for dt, _ in traced) if traced else ""))
    print(f"check: {'PASS' if check_ok else 'FAIL'} {json.dumps(details, sort_keys=True, default=str)}")
    lines = {"failed_frac": (failed / attempted, "ratio", attempted)}
    if args.trace:
        metrics = per_layer(plain, traced, tracer)
        if tracer.absent:
            print(f"absent layer functions (reported as 0): {', '.join(tracer.absent)}")
        spans_path = OUT_ROOT / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path}")
    else:
        metrics, named = end_to_end(w, plain, setup_times)
        lines.update(named)
        if "frac_rel_err" in details:
            lines["frac_rel_err"] = (details["frac_rel_err"], "ratio", 1)
    for name, (value, unit, samples) in {**lines, **metrics}.items():
        print(f"metric {name} = {value:.6g} {unit} (samples={samples})")
    result = {
        "correct": bool(check_ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process.  Prints each workload's lines,
    every metric among them by name with its unit, then one JSON line
    with the metrics keyed <workload>.<metric>."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            fail(f"workload {name} failed")
        results[name] = json.loads(lines[-1])
    merged = {"correct": all(r["correct"] for r in results.values()),
              "attempted": sum(r["attempted"] for r in results.values()),
              "failed": sum(r["failed"] for r in results.values()),
              "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (n = 16-64); not for measurement")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        if args.probe:
            fail("--probe needs a single workload")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
