#!/usr/bin/env python3
"""Seeded benchmark of pcpkit.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of verdict-large, search-small, spectra, cli, or ``all`` to run
each in turn.  Run from a checkout of the repository: the package is imported
from ``src/`` and the CLI workload reads ``tests/fixtures/``.

One caller drives a closed loop: the next operation starts only after the
previous one returned.  Rounds of inputs (see ``workloads.py``) are run until
``--seconds`` of operation time has passed and the workload's fixed rounds are
complete.  Every answer is checked by ``oracle.py`` outside the timed region.
With ``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` the layer functions are wrapped (``tracer.py``), a fixed set of
rounds is replayed traced and then untraced, and the last line holds the
per-layer metrics.  The exit code is 0 when every answer was correct.
"""

import os
import sys
import time

SETUP_START = time.perf_counter()
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("verdict-large", "search-small", "spectra", "cli")
SETUP_REPEATS = 3
WALL_LIMIT_S = 120.0      # no new round starts after this much wall time


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_workloads():
    """Import pcpkit from this checkout's src/ (never an installed copy)."""
    missing = [p for p in ("src/pcpkit/__init__.py", "tests/fixtures") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a pcpkit checkout (missing {', '.join(missing)})")
    sys.path.insert(1, str(ROOT / "src"))
    import pcpkit

    if Path(pcpkit.__file__).resolve().parent != ROOT / "src" / "pcpkit":
        sys.exit(f"perfbench: imported pcpkit from {pcpkit.__file__}, not from this checkout")
    import workloads

    return workloads


def environment(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": workload.name,
        "sizes": {str(k): v for k, v in workload.composition.items()},
        "fixed_rounds": workload.fixed_rounds,
        "trace_rounds": workload.trace_rounds,
    }


class Run:
    """Outcome counts and operation times of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.judged = 0
        self.spans: list[tuple[float, float]] = []    # (start, seconds) as measured

    def record(self, workload, op, run, gauge, in_fixed: bool = False) -> float:
        """Run one operation through ``run``, check it, return its measured seconds."""
        gauge.tick()
        start = time.perf_counter()
        elapsed = None
        try:
            out = run(op)
            elapsed = time.perf_counter() - start
            if out is None:           # a follow-up whose precondition did not occur
                return 0.0
            ok, decided = workload.check(op, out)
        except Exception as exc:  # a broken operation counts as failed; the run goes on
            if elapsed is None:
                elapsed = time.perf_counter() - start
            ok = decided = False
            print(f"perfbench: {op.label} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        self.spans.append((start, elapsed))
        self.attempted += 1
        self.failed += not ok
        if in_fixed:
            self.judged += 1
            self.decided += decided
        return elapsed


def timing(seconds: list[float]) -> tuple[float, float, float, float]:
    """Throughput in 1/s, p50 in ms, and p90 in ms, or the highest percentile
    that leaves at least ten samples above it, with that percentile."""
    import numpy as np

    ms = np.array(seconds) * 1e3
    q = min(0.9, 1.0 - 10.0 / len(ms)) if len(ms) > 20 else 0.5
    return len(ms) / sum(seconds), float(np.median(ms)), float(np.quantile(ms, q)), q


def measure(workload, seconds: float) -> dict:
    from speed import SpeedGauge

    run, gauge = Run(), SpeedGauge()
    busy = 0.0
    r = 0
    started = time.perf_counter()
    while (busy < seconds or r < workload.fixed_rounds) and \
            time.perf_counter() - started < WALL_LIMIT_S:
        for op in workload.make_round(r):
            busy += run.record(workload, op, workload.execute, gauge, r < workload.fixed_rounds)
        workload.finish_round(r)
        r += 1
    gauge.tick()
    tput, p50, upper, q = timing(gauge.normalize(run.spans))
    return {
        "run": run, "rounds": r, "busy": busy, "q": q,
        "raw": timing([seconds for _, seconds in run.spans]),
        "reference_ms": statistics.median(gauge.samples), "references": len(gauge.samples),
        "metrics": {
            "throughput_ops_ref_s": (tput, "1/ref-s"),
            "latency_p50_ref_ms": (p50, "ref-ms"),
            "latency_p90_ref_ms": (upper, "ref-ms"),
            "decided_frac": (run.decided / max(run.judged, 1), "ratio"),
        },
    }


def layer_metrics(setup, agg, ops: int, passes: int, workload, overhead: float) -> dict:
    import tracer as tr

    m = {}
    for name in ("pairs.check_necessary", "linalg.trace_norm", "linalg.is_psd",
                 "pairs.verify_decomposition"):
        m[f"{name}.calls_per_op"] = (agg.calls(name) / ops, "count")
        m[f"{name}.self_ms_per_op"] = (agg.self_ms(name) / ops, "ms")
    rec = "construct.decompose_recursive"
    attempts = agg.counter(rec, "attempts")
    m[f"{rec}.attempts_per_op"] = (attempts / ops, "count")
    m[f"{rec}.useful_ratio"] = (agg.counter(rec, "decomposed") / attempts if attempts else 0.0,
                                "ratio")
    for route in tr.ROUTES:
        name = f"construct.{route}"
        calls = agg.calls(name)
        m[f"{name}.yield"] = (agg.counter(name, "decomposed") / calls if calls else 0.0, "ratio")
        m[f"{name}.self_ms_per_op"] = (agg.self_ms(name) / ops, "ms")
    for name in ("cldui.ppt_check", "cldui.realignment_check", "cldui.separability_verdict",
                 "abssep.abs_ppt_check", "abssep.certify_special_separable",
                 "abssep.special_unitary"):
        m[f"{name}.self_ms_per_op"] = (agg.self_ms(name) / ops, "ms")
    for cls in tr.VERDICT_CLASSES:
        m[f"cldui.verdict.{cls}"] = (agg.counter("cldui.separability_verdict", cls) / passes,
                                     "count")
    enum = "abssep.enumerate_orderings"
    enum_calls = setup.calls(enum) + agg.calls(enum)
    m[f"{enum}.calls"] = (setup.calls(enum) + agg.calls(enum) / passes, "count")
    m[f"{enum}.ms"] = ((setup.total_ms(enum) + agg.total_ms(enum)) / enum_calls
                       if enum_calls else 0.0, "ms")
    m["abssep.l_map_matrix.calls_per_op"] = (agg.calls("abssep.l_map_matrix") / ops, "count")
    for name in ("fileio.load_pair_document", "fileio.save_certificate",
                 "fileio.load_certificate"):
        calls = agg.calls(name)
        m[f"{name}.ms"] = (agg.total_ms(name) / calls if calls else 0.0, "ms")
    saves = agg.calls("fileio.save_certificate")
    m["fileio.save_certificate.bytes"] = (
        agg.counter("fileio.save_certificate", "bytes") / saves if saves else 0.0, "bytes")
    imports = getattr(workload, "import_ms", [])
    m["cli.import_ms"] = (statistics.fmean(imports) if imports else 0.0, "ms")
    walls = getattr(workload, "walls", {})
    for sub in tr.SUBCOMMANDS:
        m[f"cli.{sub}.wall_ms"] = (statistics.fmean(walls[sub]) if walls.get(sub) else 0.0, "ms")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def measure_traced(workload, seconds: float) -> dict:
    """Replay the first ``trace_rounds`` rounds traced, then as often untraced."""
    from speed import SpeedGauge
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.section():
        workload.prepare()
    setup = tracer.take()
    workload.prepare_oracle()
    ops = [op for r in range(workload.trace_rounds) for op in workload.make_round(r)]
    run, gauge = Run(), SpeedGauge()
    passes = 0
    traced = 0.0
    while passes == 0 or traced < seconds / 2:
        for op in ops:
            traced += run.record(workload, op, lambda o: workload.execute_traced(o, tracer), gauge)
        passes += 1
    tracer.uninstall()
    agg = tracer.take()
    traced_ops, traced_spans = run.attempted, len(run.spans)
    for _ in range(passes):
        for op in ops:
            run.record(workload, op, workload.execute, gauge)
    gauge.tick()
    norm = gauge.normalize(run.spans)
    overhead = sum(norm[:traced_spans]) / sum(norm[traced_spans:]) - 1.0
    metrics = layer_metrics(setup, agg, traced_ops, passes, workload, overhead)
    return {"run": run, "rounds": workload.trace_rounds, "passes": passes, "metrics": metrics}


def setup_probe(args) -> None:
    workloads = load_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir(args))
    try:
        workload.prepare()
        print(json.dumps({"setup_s": time.perf_counter() - SETUP_START}))
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)


def work_dir(args) -> Path:
    return HERE / ".work" / f"{args.workload}-{os.getpid()}"


def probe_setups(args) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_one(args) -> int:
    workloads = load_workloads()
    from speed import REF_MS, REF_SAMPLES, reference_ms

    workload = workloads.WORKLOADS[args.workload](args.seed, work_dir(args))
    try:
        if args.trace:
            result = measure_traced(workload, args.seconds)
        else:
            workload.prepare()
            setups = [time.perf_counter() - SETUP_START] + probe_setups(args)
            setup_refs = [reference_ms() for _ in range(2 * REF_SAMPLES)][REF_SAMPLES:]
            workload.prepare_oracle()
            result = measure(workload, args.seconds)
            if args.workload == "cli":
                rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            else:
                rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["setup_raw"] = statistics.median(setups)
            result["metrics"]["setup_s"] = (
                result["setup_raw"] * REF_MS / statistics.median(setup_refs), "s")
            result["metrics"]["peak_rss_mb"] = (rss / 1024.0, "MB")
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    run = result["run"]
    print("env " + json.dumps(environment(args, workload)))
    if args.trace:
        print(f"{workload.name}: {len(result['metrics'])} per-layer metrics over "
              f"{result['rounds']} rounds replayed {result['passes']} times")
    else:
        print(f"{workload.name}: {run.attempted} operations in {result['rounds']} rounds, "
              f"{result['busy']:.2f} s busy; decided_frac over the first "
              f"{workload.fixed_rounds} rounds ({run.judged} operations)")
        tput, p50, upper, _ = result["raw"]
        print(f"  latency_p90_ref_ms is the p{result['q'] * 100:g} of {len(run.spans)} samples")
        print(f"  reference computation: median {result['reference_ms']:.4g} ms over "
              f"{result['references']} samples; ref-ms scale it to {REF_MS} ms")
        print(f"  as measured: throughput {tput:.6g} 1/s, latency p50 {p50:.6g} ms, "
              f"p{result['q'] * 100:g} {upper:.6g} ms, set-up {result['setup_raw']:.6g} s")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_frac = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} of {run.attempted})")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; a summary line keyed workload.metric."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"perfbench: workload {name} produced no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
