#!/usr/bin/env python3
"""Benchmark of record for repro-sched.

    python3 perfbench/run.py --workload backlog --seed 0 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all

Runs one workload (``all`` runs each in a fresh process) from the root of
a source checkout, measuring the program under ``src/``. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from a traced run and the tracing overhead.
A human-readable table comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. See ``perfbench/README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper_sweep", "backlog", "churn", "service")
#: Fresh processes an untraced run measures in, one after another.
PARTS = 3
PART_TIMEOUT_S = 150 / PARTS
#: Fresh processes that only set up; ``setup_s`` is the median of the
#: PARTS + SETUP_ONLY set-ups, as one process's varies by a third.
SETUP_ONLY = 4
SETUP_TIMEOUT_S = 5

END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "sim_jobs_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "submit_p50_ms": "ms",
    "submit_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "quality.makespan_ratio": "ratio",
    "quality.wait_ratio": "ratio",
    "quality.node_utilization": "ratio",
    "quality.wait_fairness": "ratio",
}

#: Quality guards, the gated ones first; all are means over the
#: schedules of the run's first ``quality_cycles`` cycles.
QUALITY_TABLE = {
    **{k: v for k, v in END_TO_END.items() if k.startswith("quality.")},
    "quality.makespan_s": "s",
    "quality.avg_wait_s": "s",
}

#: Layers that own spans, in call order; ``self.<layer>_s`` is their self time.
LAYERS = (
    "experiments",
    "storage",
    "service",
    "workloads",
    "sim",
    "schedulers",
    "core",
    "constraints",
    "metrics",
)

PER_LAYER = {
    "schedulers.decide_s": "s",
    "schedulers.decide_calls": "count",
    "schedulers.decide_p50_us": "us",
    "schedulers.decide_tail_us": "us",
    "schedulers.optimizer.replans": "count",
    "schedulers.optimizer.packed_jobs": "count",
    "schedulers.optimizer.accepted_moves": "count",
    "schedulers.optimizer.packed_per_accepted_move": "ratio",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "sim.events": "count",
    "sim.decisions": "count",
    "sim.preemptions": "count",
    "sim.queue_depth_mean": "jobs",
    "sim.self_us_per_event": "us",
    "sim.verify_s": "s",
    "constraints.validate_s": "s",
    "constraints.validate_calls": "count",
    "constraints.rejected_ratio": "ratio",
    "core.decide_s": "s",
    "core.prompt_build_s": "s",
    "core.complete_s": "s",
    "core.calls": "count",
    "core.accepted_ratio": "ratio",
    "core.input_tokens_mean": "tokens",
    "core.llm_overhead_s": "s",
    "experiments.cell_s_p50": "s",
    "experiments.cell_s_max": "s",
    "experiments.pool_efficiency": "ratio",
    "storage.append_s": "s",
    "storage.appends": "count",
    "storage.query_s": "s",
    "storage.queries": "count",
    "service.replay_s": "s",
    "service.replays": "count",
    "service.replay_reuse_ratio": "ratio",
    "service.encode_s": "s",
    "service.decode_s": "s",
    "service.payload_bytes_mean": "bytes",
    "service.cache_hit_ratio": "ratio",
    "workloads.generate_s": "s",
    "metrics.compute_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "trace.spans": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=WORKLOAD_NAMES + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, choices=range(PARTS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def tail(values):
    """``(value, percentile, n)``: the highest percentile with at least
    ten samples above it; the maximum when that percentile would not
    even be the median (fewer than 21 samples)."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus *workers* times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# -- measuring ---------------------------------------------------------------
def run_cycle(wl, k, m, *, inline) -> None:
    wl.begin_cycle(inline)
    # Garbage earlier cycles left must not be collected inside this
    # cycle's first timed calls.
    gc.collect()
    wl.cycle(k, m)


def measure(wl, m, *, seconds, first, stride) -> None:
    """Run cycles ``first, first + stride, ...``, as many (at least
    ``wl.min_cycles``) as bring program time closest to *seconds*."""
    done = 0
    while True:
        run_cycle(wl, first + done * stride, m, inline=False)
        done += 1
        if done >= wl.min_cycles and m.busy_s * (1 + 0.5 / done) >= seconds:
            return


def end_to_end(m, setup_s, rss_mb):
    query, q_pct, q_n = tail(m.query_s)
    submit, s_pct, s_n = tail(m.submit_s)
    values = {
        "setup_s": setup_s,
        "cells_per_s": statistics.median(m.cell_rates) if m.cell_rates else 0.0,
        "sim_jobs_per_s": statistics.median(m.job_rates) if m.job_rates else 0.0,
        "query_p50_ms": 1e3 * statistics.median(m.query_s) if m.query_s else 0.0,
        "query_tail_ms": 1e3 * query,
        "submit_p50_ms": 1e3 * statistics.median(m.submit_s) if m.submit_s else 0.0,
        "submit_tail_ms": 1e3 * submit,
        "peak_rss_mb": rss_mb,
    }
    for name in QUALITY_TABLE:
        values[name] = mean(q[name] for q in m.quality)
    notes = {
        "query_tail_ms": f"p{q_pct:.1f} of {q_n} samples",
        "submit_tail_ms": f"p{s_pct:.1f} of {s_n} samples",
        "query_p50_ms": f"{q_n} samples",
        "submit_p50_ms": f"{s_n} samples",
        "cells_per_s": f"median of {len(m.cell_rates)} rates",
        "sim_jobs_per_s": f"median of {len(m.job_rates)} rates",
        "quality.makespan_ratio": f"mean over {len(m.quality)} schedules",
    }
    return values, notes


def per_layer(tracer, traced, untraced, pooled, workers, stats_delta):
    from spans import layer_of, outermost, self_times

    from repro.experiments.runner import OverheadSummary

    spans = tracer.phase_spans("traced")
    setup_spans = tracer.phase_spans("setup")
    selfs = self_times(spans)

    def total(name, pool=spans):
        return sum(s[3] - s[2] for s in pool if s[1] == name)

    def durations(name):
        return [s[3] - s[2] for s in spans if s[1] == name]

    results = traced.results or []
    extras = [r.extras for r in results]
    calls = [c for x in extras for c in x.get("llm_calls", ())]
    decide = durations("schedulers.decide")
    n_decisions = len(decide) + len(durations("core.decide"))
    events = tracer.counters["sim.events"]
    sim_self = sum(selfs[s[0]] for s in spans if s[1] == "sim.run")
    accepted = sum(x.get("accepted_moves", 0) for x in extras)
    packed = sum(x.get("packed_jobs", 0) for x in extras)
    validate = durations("constraints.validate")
    cells = sorted(durations("experiments.run_single"))
    queries = outermost(spans, ("storage.iter_runs", "storage.get"))
    replays = traced.counters.get("service.replays", 0)
    reuses = traced.counters.get("service.replay_reuses", 0)
    hits = stats_delta.get("hits_memory", 0) + stats_delta.get("hits_store", 0)
    lookups = hits + stats_delta.get("misses", 0)
    payload = tracer.samples.get("payload_bytes", [])
    overheads = [OverheadSummary.from_result(r) for r in results]

    values = {
        "schedulers.decide_s": sum(decide),
        "schedulers.decide_calls": len(decide),
        "schedulers.decide_p50_us": 1e6 * statistics.median(decide) if decide else 0.0,
        "schedulers.decide_tail_us": 1e6 * tail(decide)[0],
        "schedulers.optimizer.replans": sum(x.get("replans", 0) for x in extras),
        "schedulers.optimizer.packed_jobs": packed,
        "schedulers.optimizer.accepted_moves": accepted,
        "schedulers.optimizer.packed_per_accepted_move": (
            packed / accepted if accepted else 0.0
        ),
        "sim.run_s": total("sim.run"),
        "sim.self_s": sim_self,
        "sim.events": events,
        "sim.decisions": n_decisions,
        "sim.preemptions": sum(len(r.preemptions) for r in results),
        "sim.queue_depth_mean": (
            tracer.counters["sim.queue_depth_sum"] / n_decisions
            if n_decisions
            else 0.0
        ),
        "sim.self_us_per_event": 1e6 * sim_self / events if events else 0.0,
        "sim.verify_s": total("sim.verify"),
        "constraints.validate_s": sum(validate),
        "constraints.validate_calls": len(validate),
        "constraints.rejected_ratio": (
            tracer.counters["constraints.rejected"] / len(validate)
            if validate
            else 0.0
        ),
        "core.decide_s": total("core.decide"),
        "core.prompt_build_s": total("core.prompt_build"),
        "core.complete_s": total("core.complete"),
        "core.calls": len(calls),
        "core.accepted_ratio": (
            sum(c.accepted for c in calls) / len(calls) if calls else 0.0
        ),
        "core.input_tokens_mean": mean(c.input_tokens for c in calls),
        "core.llm_overhead_s": sum(o.elapsed_s for o in overheads if o),
        "experiments.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "experiments.cell_s_max": cells[-1] if cells else 0.0,
        "experiments.pool_efficiency": (
            sum(untraced.submit_s) / (workers * sum(pooled.submit_s))
            if pooled is not None
            else 0.0
        ),
        "storage.append_s": total("storage.append"),
        "storage.appends": len(durations("storage.append")),
        "storage.query_s": sum(s[3] - s[2] for s in queries),
        "storage.queries": len(queries),
        "service.replay_s": total("service.replay"),
        "service.replays": replays,
        "service.replay_reuse_ratio": (
            reuses / (replays + reuses) if replays + reuses else 0.0
        ),
        "service.encode_s": total("service.encode"),
        "service.decode_s": total("service.decode"),
        "service.payload_bytes_mean": mean(payload),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "workloads.generate_s": (
            total("workloads.generate") + total("workloads.generate", setup_spans)
        ),
        "metrics.compute_s": total("metrics.compute"),
    }
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        by_layer[layer_of(s[1])] += selfs[s[0]]
    for layer, seconds in by_layer.items():
        values[f"self.{layer}_s"] = seconds
    values.update(
        {
            "trace.wall_s": traced.busy_s,
            "trace.untraced_wall_s": untraced.busy_s,
            "trace.overhead_ratio": traced.busy_s / untraced.busy_s - 1.0,
            "trace.accounted_ratio": sum(by_layer.values()) / traced.busy_s,
            "trace.spans": len(spans),
        }
    )
    return values


def load_program():
    """Import the suite against the checkout's ``src``; returns
    ``(suite, spans, import seconds)`` or exits with status 2."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    import spans
    import suite

    return suite, spans, time.perf_counter() - t0


def run_part(args) -> int:
    """One measurement process: cycles ``part, part + PARTS, ...``; the
    raw measurement goes to standard output as one JSON line. With
    ``--setup-only`` the process only sets up and reports ``setup_s``."""
    suite, _, import_s = load_program()
    workdir = ROOT / ".perfbench" / f"run{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = suite.WORKLOADS[args.workload](args.seed, workdir)
    try:
        t0 = time.perf_counter()
        wl.setup()
        setup_s = import_s + time.perf_counter() - t0
        m = suite.Measurement()
        setup_s *= m.scale()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        wl.warmup()
        # The first timed operation is scaled by the host's speed from
        # here to its end.
        m.scale()
        measure(wl, m, seconds=args.seconds, first=args.part, stride=PARTS)
    finally:
        wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    workers = getattr(wl, "workers", 0)
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workers),
        "measurement": m.as_dict(),
    }))
    return 0


#: ``personality(2)`` flag that turns off address-space randomization.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout() -> None:
    """Start a measurement process without address-space randomization
    (Linux; elsewhere a no-op), so each one gets the same memory layout."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def child(args, timeout, *extra):
    """Run a fresh process of this script; its last output line, parsed,
    or None when it failed. String hashing and address-space layout are
    fixed: left random, they alone move small operations by 10-20 %
    from one process to the next."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds / PARTS), "--trace", "0", *extra],
        stdout=subprocess.PIPE, text=True, check=False, timeout=timeout,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        preexec_fn=fixed_layout,
    )
    if proc.returncode != 0:
        print(f"perfbench: {' '.join(extra)} exited {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(args) -> int:
    """``PARTS`` fresh measurement processes, one after another, whose
    samples are pooled, then ``SETUP_ONLY`` processes that only set up."""
    parts = [child(args, PART_TIMEOUT_S, "--part", str(p)) for p in range(PARTS)]
    setups = [child(args, SETUP_TIMEOUT_S, "--setup-only") for _ in range(SETUP_ONLY)]
    if None in parts or None in setups:
        return 1

    suite, _, _ = load_program()
    m = suite.Measurement()
    for part in parts:
        m.merge(part["measurement"])
    wl = suite.WORKLOADS[args.workload](args.seed, None)
    assert wl.quality_cycles <= PARTS * wl.min_cycles, "quality cycles must run"
    wl.make_inputs()
    wl.verify(m)
    setups = sorted(p["setup_s"] for p in parts + setups)
    values, notes = end_to_end(
        m, statistics.median(setups), max(p["peak_rss_mb"] for p in parts)
    )
    notes["setup_s"] = "median of " + ", ".join(f"{t:.3f}" for t in setups)

    table_units = {**END_TO_END, **QUALITY_TABLE, "failed_ratio": "ratio"}
    values_table = dict(values)
    values_table["failed_ratio"] = m.failed / m.attempted if m.attempted else 0.0
    if args.workload == "paper_sweep":
        values_table["quality.llm_overhead_s"] = m.llm_overhead_s
        table_units["quality.llm_overhead_s"] = "s"
    digest = suite.combined_digest(sorted(m.digests))
    pinned = json.loads((HERE / "pins.json").read_text()).get(
        str(args.seed), {}
    ).get(args.workload)
    note = "not pinned for this seed"
    if pinned is not None:
        m.attempted += 1
        note = "matches pin"
        if pinned != digest:
            m.failed += 1
            note = f"DIFFERS from pin {pinned}"
    print(f"{'schedule digest':32s} {digest}  ({note})")
    print(f"{'oracle peak busy nodes':32s} {m.peak_nodes}")
    print(f"{'host reference run':32s} {1e3 * statistics.median(m.ref_s):.3f} ms "
          f"median of {len(m.ref_s)} samples; timings are scaled to "
          f"{1e3 * suite.calibrate.REFERENCE_S:g} ms")
    report(values_table, table_units, notes, m.errors)
    emit(m.attempted, m.failed, values, END_TO_END)
    return 0


def run_traced(args) -> int:
    suite, spans, _ = load_program()
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"run{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = suite.WORKLOADS[args.workload](args.seed, workdir)
    tracer = spans.Tracer()
    try:
        suite.instrument(tracer)
        wl.tracer = tracer
        try:
            wl.setup()
        finally:
            wl.tracer = None
            tracer.restore()
        wl.warmup()
        values, phases = traced_run(suite, wl, tracer, args.seconds)
    finally:
        wl.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
    tracer.write(outdir / f"trace-{args.workload}-seed{args.seed}.tsv.gz")
    attempted = sum(m.attempted for m in phases)
    failed = sum(m.failed for m in phases)
    report(values, PER_LAYER, {}, [e for m in phases for e in m.errors])
    emit(attempted, failed, values, PER_LAYER)
    return 0


def report(values, units, notes, errors) -> None:
    """The human-readable table."""
    for name, value in values.items():
        print(f"{name:32s} {value:>16.6g} {units[name]:6s} {notes.get(name, '')}")
    for error in errors:
        print(f"FAILED {error}")


def emit(attempted, failed, values, units) -> None:
    """The result line: the last line of standard output."""
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))


def traced_run(suite, wl, tracer, seconds):
    """Cycles run untraced and then traced, alternating, so drift in
    machine speed cancels out of the tracing overhead; paper_sweep
    first runs each cycle pooled too, for ``pool_efficiency``. Cells run
    inline in the traced run: the wrappers do not reach pool workers."""
    untraced = suite.Measurement()
    traced = suite.Measurement(results=[])
    pooled = suite.Measurement() if wl.pooled else None
    budget = seconds / (3 if wl.pooled else 2)
    stats = {}
    tracer.samples.clear()
    tracer.counters.clear()
    tracer.run_id = "traced"
    k = 0
    while True:
        if pooled is not None:
            run_cycle(wl, k, pooled, inline=False)
        run_cycle(wl, k, untraced, inline=True)
        before = wl.cache_stats()
        suite.instrument(tracer)
        wl.tracer = tracer
        try:
            run_cycle(wl, k, traced, inline=True)
        finally:
            wl.tracer = None
            tracer.restore()
        for key, value in wl.cache_stats().items():
            stats[key] = stats.get(key, 0) + value - before.get(key, 0)
        k += 1
        if untraced.busy_s * (1 + 0.5 / k) >= budget:
            break
    workers = min(4, suite.nproc())
    values = per_layer(tracer, traced, untraced, pooled, workers, stats)
    phases = [untraced, traced] + ([pooled] if pooled is not None else [])
    for m in phases:
        wl.verify(m)
    return values, phases


def run_all(args) -> int:
    """Each workload in a fresh process; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: nothing to measure, {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return run_traced(args)
    if args.part is not None or args.setup_only:
        return run_part(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
