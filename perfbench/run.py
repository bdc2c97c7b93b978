#!/usr/bin/env python3
"""Benchmark of the qpl decision procedure.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, keeping only their text, and
runs a fixed number of passes over them, about --seconds worth, checking
every verdict against an answer that does not come from the engine.
Timings are medians over passes, each pass scaled by the host's speed,
which a probe measures next to every pass (see measure). With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports per-layer metrics from the traced
ones, writing their spans to perfbench/.out/. The lines before the last
give every metric for a reader; the last line is one JSON object with the
keys correct, attempted, failed and metrics. perfbench/README.md defines
each metric.

It uses the qpl sources of the checkout it sits in (src/ next to this
directory) and runs in one single-threaded process.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
# Set-ups are spread over the run: one before a pass whenever set-ups so far
# have taken less than SETUP_SHARE of the passes' time (and before the
# first). setup_s is their median.
SETUP_SHARE = 0.1
# Seconds one untraced pass, its share of set-ups and its host probe take
# on the seed code (2 vCPU, Python 3.11). A run makes --seconds /
# PASS_SECONDS passes: the count depends on the arguments only.
PASS_SECONDS = {"chain": 1.25, "queries": 0.6, "random": 1.15}
# Once passes have taken this many times --seconds, a run stops early, so
# that it ends in time on a slowed host or a slowed program.
DEADLINE_SHARE = 1.2
# Seconds the host probe takes on an undisturbed host (2 vCPU, Python 3.11).
PROBE_SECONDS = 0.0113


def _import_program():
    """Import qpl from this checkout's src/, never from anywhere else."""
    if not (SRC / "qpl" / "__init__.py").is_file():
        sys.exit(f"error: no qpl sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import qpl

    if Path(qpl.__file__).resolve().parent != SRC / "qpl":
        sys.exit(f"error: imported qpl from {qpl.__file__}, not from {SRC}")


_import_program()

import tracing  # noqa: E402  (both import qpl)
import workloads  # noqa: E402

ALL = tuple(workloads.PHASES)


def _probe_once(n=60_000):
    table = {}
    for i in range(n):
        key = (i & 1023, "k")
        table[key] = table.get(key, 0) + i
    return len(table)


def probe():
    """Seconds a fixed piece of Python work takes now: the fastest of five.

    The work (dict updates under tuple keys) uses no qpl code, runs with
    the collector off, and keeps a working set of a few kilobytes whose
    objects are freed and reused as it goes, so neither the program nor
    the heap it left behind moves it; only the host's speed does.
    """
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            _probe_once()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def _median(tallies, *phases):
    """Median over passes of the host-scaled seconds spent in the phases."""
    steps = [s for p in phases for s in workloads.PHASES[p]]
    return statistics.median(
        t.scale * sum(sum(t.times[s]) for s in steps) for t in tallies
    )


def _percentile(samples, q):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def measure(workload, seed, seconds, trace, small=False):
    """Run one benchmark and return its report as a dict.

    The host probe runs before the first pass and after every pass. A
    pass's scale is PROBE_SECONDS over the mean of the probes on either
    side of it: the factor by which a co-tenant of a shared host was
    slowing this process then. Timings are reported times their pass's
    scale, as seconds on an undisturbed host.
    """
    OUT.mkdir(exist_ok=True)
    setup = workloads.WORKLOADS[workload]
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    if trace:
        passes = max(2, passes)
    tracer = tracing.Tracer() if trace else None
    untraced = tracing.NullTracer()
    plain, traced, setups, input_problems = [], [], [], []
    pass_time = 0.0
    work = None
    start = time.perf_counter()
    try:
        probes = [probe()]
        for n in range(passes):
            if n >= 2 and time.perf_counter() - start > DEADLINE_SHARE * seconds:
                break
            setup_time = None
            if not setups or sum(raw for raw, _ in setups) < SETUP_SHARE * pass_time:
                if work is not None:
                    work.remove_files()
                work = None  # the old inputs go before the new ones come
                workloads.forget_formulas()
                gc.collect()
                t0 = time.perf_counter()
                work = setup(seed, small, str(OUT))
                setup_time = time.perf_counter() - t0
                input_problems += work.check_inputs()
            gc.collect()
            t0 = time.perf_counter()
            if trace and n % 2:
                tracer.install(len(traced))
                try:
                    tally = work.run_pass(tracer)
                finally:
                    tracer.uninstall()
                traced.append(tally)
            else:
                tally = work.run_pass(untraced)
                plain.append(tally)
            pass_time += time.perf_counter() - t0
            probes.append(probe())
            tally.scale = 2 * PROBE_SECONDS / (probes[-2] + probes[-1])
            if setup_time is not None:
                setups.append((setup_time, tally.scale))
    finally:
        if work is not None:
            work.remove_files()

    tallies = plain + traced
    attempted = sum(t.attempted for t in tallies) + len(input_problems)
    failed = sum(t.failed for t in tallies) + len(input_problems)
    errors = input_problems + [e for t in tallies for e in t.errors]
    verdicts = [t.verdicts for t in tallies]
    report = {
        "passes": len(plain),
        "traced_passes": len(traced),
        "setups": len(setups),
        "host_slowdown": statistics.median(1 / t.scale for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "verdicts": verdicts,
    }
    if trace:
        totals = tracer.totals()
        report["metrics"] = _layer_metrics(totals, traced, plain, work)
        report["self_times"] = _self_time_shares(totals)
        trace_path = OUT / f"trace-{workload}.json"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path)
    else:
        samples = [
            t.scale * sum(step) for t in plain
            for step in zip(*(t.times[s] for s in workloads.PHASES["decide"]))
        ]
        metrics = {
            "setup_s": (statistics.median(raw * sc for raw, sc in setups), "s"),
            "wall_s": (_median(plain, *ALL), "s"),
            "decide_s": (_median(plain, "decide"), "s"),
            "proof_s": (_median(plain, "proof"), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = {
            "countermodel_s": (_median(plain, "countermodel"), "s"),
            "oracle_s": (_median(plain, "oracle"), "s"),
            "failed_share": (failed / attempted, "ratio"),
            "unscaled.wall_s": (statistics.median(
                sum(sum(t.times[s]) for s in workloads.STEPS) for t in plain), "s"),
        }
        if len(samples) >= 100:
            extra["decide_ms.p50"] = (_percentile(samples, 0.5) * 1e3, "ms")
            extra["decide_ms.p90"] = (_percentile(samples, 0.9) * 1e3, "ms")
            extra["decide_ms.samples"] = (len(samples), "count")
        report["metrics"] = metrics
        report["extra"] = extra
    return report


def _layer_metrics(totals, traced, plain, work):
    """Times: the median over traced passes, host-scaled. Counts and ratios
    repeat exactly from pass to pass: those of the first traced pass."""
    rows = []
    for pass_no, tally in enumerate(traced):
        selfs, calls, sums = totals.get(pass_no, ({}, {}, {}))
        s = lambda name: tally.scale * selfs.get(name, 0.0)  # noqa: E731
        c = lambda key: sums.get(key, 0)  # noqa: E731
        rows.append({
            "syntax.parse_s": s("syntax.parse"),
            "syntax.closure_s": s("syntax.closure"),
            "syntax.closure_calls": calls.get("syntax.closure", 0),
            "syntax.universe_size": c("universe"),
            "engine.compile_s": s("engine.compile"),
            "engine.instances_compiled": c("compiled"),
            "engine.saturate_s": s("engine.saturate"),
            "engine.instances_fired": c("fired"),
            "engine.fire_ratio": c("fired") / c("compiled") if c("compiled") else 0.0,
            "engine.derived_ratio": c("derived") / c("members") if c("members") else 0.0,
            "engine.extract_s": s("engine.extract"),
            "engine.proof_nodes": c("proof_nodes"),
            "calculus.to_json_s": s("calculus.to_json"),
            "calculus.proof_bytes": tally.proof_bytes,
            "calculus.from_json_s": s("calculus.from_json"),
            "calculus.check_s": s("calculus.check"),
            "calculus.nodes_checked": c("nodes_checked"),
            "semantics.countermodel_s": s("semantics.countermodel"),
            "semantics.override_size": c("override_size"),
            "semantics.resaturations": c("resaturations"),
            "semantics.oracle_s": s("semantics.oracle"),
            "cli.self_s": s("cli.main"),
        })
    metrics = {
        name: (statistics.median(r[name] for r in rows) if name.endswith("_s")
               else rows[0][name], _unit(name))
        for name in rows[0]
    }
    metrics["syntax.interned_formulas"] = (
        max(t.interned for t in traced), "count")
    metrics["semantics.oracle_exponent"] = (work.oracle_exponent(), "bits")
    traced_wall = _median(traced, *ALL)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - _median(plain, *ALL), "s")
    return metrics


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name == "calculus.proof_bytes" else "count"


def _self_time_shares(totals):
    """Self time per span name over all traced passes, as shares of the total."""
    by_name = {}
    for selfs, _, _ in totals.values():
        for name, value in selfs.items():
            by_name[name] = by_name.get(name, 0.0) + value
    whole = sum(by_name.values()) or 1.0
    return {name: value / whole for name, value in
            sorted(by_name.items(), key=lambda kv: -kv[1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    report = measure(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload}, seed {args.seed}: {report['passes']} "
          f"untraced and {report['traced_passes']} traced passes, "
          f"{report['setups']} set-ups, {report['attempted']} operations, "
          f"{report['failed']} failed; the host ran "
          f"{report['host_slowdown']:.3g} times slower than undisturbed")
    for err in report["errors"][:20]:
        print(f"  failure: {err}")
    for name, (value, unit) in {**report["metrics"],
                                **report.get("extra", {})}.items():
        print(f"  {name} = {value:.6g} {unit}")
    if "self_times" in report:
        print("  self time shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in report["self_times"].items()))
        print(f"  spans written to {report['trace_file']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
