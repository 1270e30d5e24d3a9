"""Measurement loop, checks and metric definitions of the benchmark.

``run.py`` pins BLAS threads, puts the program sources on the path and
calls :func:`main`. A run executes one workload in this process, in
repetitions in a closed loop until ``--seconds`` have passed. With
``--trace 0`` every repetition is untraced and the end-to-end metrics are
reported; with ``--trace 1`` untraced and traced repetitions alternate
and the per-layer metrics are reported, with ``trace_overhead`` comparing
the two. Spans are written once, at the end,
to ``perfbench/out/``.

Metric definitions (``--trace 0``):

* ``setup_s`` -- building the kernels, ``compile_app`` and runtime
  construction, median over repetitions;
* ``run_s`` -- host wall time of ``Workload.run`` on the multi-GPU
  runtime, including the final device-to-host copy, median;
* ``launch_ms_p50`` / ``launch_ms_tail`` -- host latency of one
  ``MultiGpuApi.launch`` call, pooled over repetitions; the tail is the
  workload's fixed percentile, printed with the sample count beyond it;
* ``sim_time_s`` / ``sim_speedup`` -- simulated seconds of the run on the
  modelled K80 node and the single-GPU reference time divided by it;
* ``sync_bytes`` -- coherence bytes moved between GPUs in one run;
* ``peak_rss_mb`` -- peak resident memory of this process.

Checks failed over checks attempted (``failed_frac``) is carried by the
result's ``failed`` and ``attempted`` fields; it must be 0.

Per-layer metrics (``--trace 1``) are medians over traced repetitions.
A ``*_s`` layer time is the self time of that layer's spans (span
duration minus its child spans) over the whole repetition, set-up
included; ``compiler.compile_s`` is the total of ``compile_app``.
``runtime.plan.*`` are the launch planner's own stage times from a
``LaunchProfiler``; they overlap ``runtime.launch_self_s`` and are not
part of the attribution. Under the ``run`` span, layer self times plus
``unattributed_s`` (the run span's own self time) equal the traced
``run_s``. Counts are the span counts and the program's own counters;
they must repeat exactly across repetitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from perfbench.tracing import Tracer, has_ancestor, self_times, summarize
from perfbench.workloads import WORKLOADS, BenchWorkload
import repro.compiler.enumerators as enumerators
import repro.poly.basic_set as basic_set
import repro.sched.executor as executor
from repro import compile_app
from repro.runtime.profiler import LaunchProfiler
from repro.tasks.graph import TaskGraph

OUT = Path(__file__).resolve().parent / "out"

#: A run ends this long after its start even when the loop wants more
#: launches for its tail percentile (the whole process must end in 180 s).
HARD_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "launch_ms_p50": "ms",
    "launch_ms_tail": "ms",
    "sim_time_s": "sim_s",
    "sim_speedup": "x",
    "sync_bytes": "B",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "compiler.compile_s": "s",
    "compiler.pass1_s": "s",
    "compiler.rewrite_s": "s",
    "compiler.pass2_s": "s",
    "compiler.costmodel_s": "s",
    "compiler.costmodel_calls": "count",
    "poly.simplify_s": "s",
    "poly.simplify_calls": "count",
    "poly.scanner_prepare_s": "s",
    "runtime.launch_self_s": "s",
    "runtime.plan.fingerprint_s": "s",
    "runtime.plan.skeleton_s": "s",
    "runtime.plan.residual_s": "s",
    "runtime.launches": "count",
    "runtime.plan_hit_ratio": "ratio",
    "runtime.residual_hit_ratio": "ratio",
    "runtime.enumerator_calls": "count",
    "runtime.tracker_ops": "count",
    "runtime.sync_transfers": "count",
    "runtime.memcpy_s": "s",
    "exec.run_kernel_s": "s",
    "exec.run_kernel_calls": "count",
    "sched.self_s": "s",
    "sched.flushes": "count",
    "sim.transfer_s": "s",
    "sim.transfers": "count",
    "sim.launch_kernel_s": "s",
    "sim.trace_intervals": "count",
    "tasks.finalize_s": "s",
    "tasks.edges": "count",
    "reference_s": "s",
    "verify_s": "s",
    "unattributed_s": "s",
    "trace_overhead": "ratio",
}


#: Layer self times that, with ``unattributed_s``, add up to ``run_s``.
SELF_TIME_LAYERS = (
    "compiler.costmodel_s",
    "poly.simplify_s",
    "poly.scanner_prepare_s",
    "runtime.launch_self_s",
    "runtime.memcpy_s",
    "exec.run_kernel_s",
    "sched.self_s",
    "sim.transfer_s",
    "sim.launch_kernel_s",
    "tasks.finalize_s",
    "unattributed_s",
)


def calibrate() -> float:
    """Median seconds of a fixed pure-Python + numpy loop (host speed)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        a = np.arange(65_536, dtype=np.float64)
        for _ in range(200):
            a = np.sqrt(a * a + 1.0)
        times.append(perf_counter() - start)
    return statistics.median(times)


@dataclasses.dataclass
class Rep:
    """One repetition's measurements."""

    setup_s: float
    run_s: float
    verify_s: float
    counters: Dict[str, object]
    checks: List[Tuple[str, bool]]
    launches_s: List[float]
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


def work_counters(api, program) -> Dict[str, object]:
    """Every count the program keeps about one run (must repeat exactly)."""
    counters: Dict[str, object] = dataclasses.asdict(api.stats)
    graph = getattr(program, "last_graph", None)
    if graph is not None:
        counters["tasks.graph"] = graph.stats.as_dict()
    if api.machine is not None:
        counters["sim.trace_intervals"] = len(api.machine.trace.intervals)
    return counters


def install_module_wrappers(tracer) -> None:
    """Wrap each layer's functions where their callers look them up."""
    tracer.patch(executor, "run_kernel", "exec.run_kernel")
    tracer.patch(basic_set, "simplify_system", "poly.simplify")
    tracer.patch(enumerators, "prepare_scanner", "poly.scanner_prepare")
    tracer.patch(enumerators, "vector_program", "poly.scanner_prepare")
    tracer.patch(TaskGraph, "finalize", "tasks.finalize")


def install_api_wrappers(tracer, api) -> None:
    """Wrap the runtime, scheduler, cost model and simulator of one api."""
    api.launch = tracer.wrap("runtime.launch", api.launch)
    api.cudaMemcpy = tracer.wrap("runtime.memcpy", api.cudaMemcpy)
    pipeline = api.pipeline
    pipeline.submit = tracer.wrap("sched.submit", pipeline.submit)
    plain_flush = pipeline.flush
    traced_flush = tracer.wrap("sched.flush", plain_flush)

    def flush() -> None:
        # Only flushes with buffered launches do work (and are counted).
        (traced_flush if pipeline.pending.plans else plain_flush)()

    pipeline.flush = flush
    if api.kernel_cost is not None:
        api.kernel_cost = tracer.wrap("compiler.costmodel", api.kernel_cost)
    if api.machine is not None:
        machine = api.machine
        machine.transfer = tracer.wrap("sim.transfer", machine.transfer)
        machine.stream_transfer = tracer.wrap("sim.transfer", machine.stream_transfer)
        machine.launch_kernel = tracer.wrap("sim.launch_kernel", machine.launch_kernel)


def repetition(
    wl: BenchWorkload, tracer: Optional[Tracer] = None, time_launches: bool = False
) -> Rep:
    """Build, compile, construct and run once; check the outputs."""
    gc.collect()
    first_span = len(tracer.spans) if tracer else 0
    span = tracer.span if tracer else (lambda name: nullcontext())
    launches: List[float] = []
    if tracer:
        install_module_wrappers(tracer)
    try:
        t0 = perf_counter()
        with span("setup"):
            program = wl.program()
            kernels = program.build_kernels()
            with span("compiler.compile"):
                app = compile_app(kernels)
            api = wl.runtime(app)
        t1 = perf_counter()
        if time_launches:
            launch = api.launch

            def timed_launch(*args):
                start = perf_counter()
                launch(*args)
                launches.append(perf_counter() - start)

            api.launch = timed_launch
        if tracer:
            install_api_wrappers(tracer, api)
            api.profiler = LaunchProfiler()
        t2 = perf_counter()
        with span("run"):
            outputs = program.run(api, wl.inputs)
        t3 = perf_counter()
    finally:
        if tracer:
            tracer.restore()
    checks = wl.check(api, outputs)
    t4 = perf_counter()
    rep = Rep(
        setup_s=t1 - t0,
        run_s=t3 - t2,
        verify_s=t4 - t3,
        counters=work_counters(api, program),
        checks=checks,
        launches_s=launches,
    )
    if tracer:
        rep.layers, span_checks = layer_metrics(tracer, wl, first_span, api, app, rep)
        rep.checks += span_checks
    return rep


def layer_metrics(tracer: Tracer, wl: BenchWorkload, first: int, api, app, rep: Rep):
    """Per-layer metrics and span self-checks of one traced repetition."""
    spans = [list(s) for s in tracer.spans[first:]]
    for s in spans:
        if s[3] >= 0:
            s[3] -= first
    rows = summarize(spans)

    def own(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    def planned(stage: str) -> float:
        """Planner seconds of one stage, summed over launch temperatures."""
        return sum(v for (_, name), v in api.profiler.seconds.items() if name == stage)

    stats = api.stats
    launches = stats.plan_cache_hits + stats.plan_cache_misses
    residuals = stats.residual_cache_hits + stats.residual_cache_misses
    run_index = next(i for i, s in enumerate(spans) if s[0] == "run")
    selfs = self_times(spans)
    in_run = [i for i, s in enumerate(spans) if i == run_index or has_ancestor(spans, i, "run")]
    run_s = spans[run_index][2] - spans[run_index][1]
    layers = {
        "compiler.compile_s": rows["compiler.compile"]["total_s"],
        "compiler.pass1_s": app.timings.pass1,
        "compiler.rewrite_s": app.timings.rewrite,
        "compiler.pass2_s": app.timings.pass2,
        "compiler.costmodel_s": own("compiler.costmodel"),
        "compiler.costmodel_calls": calls("compiler.costmodel"),
        "poly.simplify_s": own("poly.simplify"),
        "poly.simplify_calls": calls("poly.simplify"),
        "poly.scanner_prepare_s": own("poly.scanner_prepare"),
        "runtime.launch_self_s": own("runtime.launch"),
        "runtime.plan.fingerprint_s": planned("fingerprint"),
        "runtime.plan.skeleton_s": planned("skeleton"),
        "runtime.plan.residual_s": planned("residual"),
        "runtime.launches": launches,
        "runtime.plan_hit_ratio": stats.plan_cache_hits / launches if launches else 0.0,
        "runtime.residual_hit_ratio": stats.residual_cache_hits / residuals if residuals else 0.0,
        "runtime.enumerator_calls": stats.enumerator_calls,
        "runtime.tracker_ops": stats.tracker_ops,
        "runtime.sync_transfers": stats.sync_transfers,
        "runtime.memcpy_s": own("runtime.memcpy"),
        "exec.run_kernel_s": own("exec.run_kernel"),
        "exec.run_kernel_calls": calls("exec.run_kernel"),
        "sched.self_s": own("sched.submit") + own("sched.flush"),
        "sched.flushes": calls("sched.flush"),
        "sim.transfer_s": own("sim.transfer"),
        "sim.transfers": calls("sim.transfer"),
        "sim.launch_kernel_s": own("sim.launch_kernel"),
        "sim.trace_intervals": len(api.machine.trace.intervals) if api.machine else 0,
        "tasks.finalize_s": own("tasks.finalize"),
        "tasks.edges": rep.counters.get("tasks.graph", {}).get("edges", 0),
        "verify_s": rep.verify_s,
        "unattributed_s": selfs[run_index],
    }

    silent = set(tracer.installed) & set(wl.silent_spans)
    sync_in_launch = sum(
        1
        for i, s in enumerate(spans)
        if s[0] == "sim.transfer" and has_ancestor(spans, i, "runtime.launch")
    )
    attributed = sum(selfs[i] for i in in_run)
    checks = [
        (
            "every installed wrapper fired",
            all(calls(n) > 0 for n in tracer.installed if n not in silent),
        ),
        (
            "silent wrappers did not fire: " + ", ".join(sorted(silent)),
            all(calls(n) == 0 for n in silent),
        ),
        (
            "exec.run_kernel calls == RunStats.partition_launches (functional runs)",
            calls("exec.run_kernel") == (stats.partition_launches if api.functional else 0),
        ),
        ("runtime.launch calls == plan-cache lookups", calls("runtime.launch") == launches),
        ("sched.submit calls == launches", calls("sched.submit") == launches),
        (
            "sched.flush spans == RunStats.pipeline_flushes",
            calls("sched.flush") == stats.pipeline_flushes,
        ),
        (
            "layer self times + unattributed_s == traced run_s",
            abs(attributed - run_s) <= 1e-6 and min(selfs) >= -1e-6,
        ),
    ]
    if api.kernel_cost is not None:
        checks.append(
            (
                "compiler.costmodel calls == simulated kernel launches == partition launches",
                calls("compiler.costmodel")
                == calls("sim.launch_kernel")
                == stats.partition_launches,
            )
        )
    if api.machine is not None:
        checks.append(
            (
                "sim.transfer spans under runtime.launch == RunStats.sync_transfers",
                sync_in_launch == stats.sync_transfers,
            )
        )
    if "tasks.graph" in rep.counters:
        checks.append(("tasks.finalize ran once", calls("tasks.finalize") == 1))
    return layers, checks


def tail_of(samples: List[float], percentile: float) -> Tuple[float, int]:
    """(value at ``percentile``, number of samples beyond it)."""
    value = float(np.percentile(samples, percentile))
    return value, sum(1 for x in samples if x > value)


def enough(wl: BenchWorkload, trace: bool, untraced: List[Rep], traced: List[Rep]) -> bool:
    """Whether the loop has the minimum repetitions and tail samples."""
    if trace:
        return len(traced) >= 2 and len(untraced) >= 2
    samples = [x for r in untraced for x in r.launches_s]
    return len(untraced) >= 3 and tail_of(samples, wl.tail_percentile)[1] >= 10


def median_of(reps: List[Rep], key: str) -> float:
    return statistics.median(getattr(r, key) for r in reps)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = perf_counter()
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)

    calibration_s = calibrate()
    print(
        f"host calibration: {calibration_s:.4f} s for the fixed pure-Python + numpy "
        "loop (information, not a metric)"
    )
    t = perf_counter()
    wl.prepare(args.seed)
    checks: List[Tuple[str, bool]] = wl.process_checks()
    reference_s = perf_counter() - t

    tracer = Tracer(wl.name) if trace else None
    untraced: List[Rep] = []
    traced: List[Rep] = []
    loop_start = perf_counter()
    while perf_counter() - started < HARD_LIMIT_S:
        done = perf_counter() - loop_start >= args.seconds
        if done and enough(wl, trace, untraced, traced):
            break
        if trace and len(untraced) > len(traced):
            tracer.rep = len(traced)
            traced.append(repetition(wl, tracer))
        else:
            untraced.append(repetition(wl, time_launches=not trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reps = untraced + traced
    for rep in reps:
        checks += rep.checks
    first = reps[0].counters
    checks += [
        ("work counters identical to the first measured repetition", rep.counters == first)
        for rep in reps[1:]
    ]

    info: Dict[str, object] = {}
    if trace:
        layers: Dict[str, float] = {}
        for name in traced[0].layers:
            values = [r.layers[name] for r in traced]
            if PER_LAYER_UNITS[name] == "count":
                same = len(set(values)) == 1
                checks.append((f"{name} identical across traced repetitions", same))
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["reference_s"] = reference_s
        layers["trace_overhead"] = median_of(traced, "run_s") / median_of(untraced, "run_s")
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        print(f"traced repetitions: {len(traced)}, untraced: {len(untraced)}")
        own = {name: layers[name] for name in SELF_TIME_LAYERS}
        verdict = "confirmed" if wl.reason_holds(layers, own) else "NOT confirmed"
        print(f"workload reason ({wl.reason}): {verdict}")
    else:
        samples = [x for r in untraced for x in r.launches_s]
        tail_s, beyond = tail_of(samples, wl.tail_percentile)
        sim_time_s, reference_sim_s = wl.sim_times()
        values = {
            "setup_s": median_of(untraced, "setup_s"),
            "run_s": median_of(untraced, "run_s"),
            "launch_ms_p50": 1e3 * statistics.median(samples),
            "launch_ms_tail": 1e3 * tail_s,
            "sim_time_s": sim_time_s,
            "sim_speedup": reference_sim_s / sim_time_s,
            "sync_bytes": first["sync_bytes"],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        print(f"repetitions: {len(untraced)} (closed loop, one client)")
        print(
            f"launch_ms_tail is p{wl.tail_percentile:g} of {len(samples)} launches "
            f"({beyond} beyond it)"
        )
        print(
            f"sim_speedup: single-GPU reference {reference_sim_s:.6f} sim_s "
            f"/ {sim_time_s:.6f} sim_s"
        )
        info.update(wl.notes())
        for note in info.values():
            print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")

    failed = [name for name, ok in checks if not ok]
    print(f"failed_frac: {len(failed)}/{len(checks)} checks failed")
    for name in failed:
        print(f"FAILED: {name}")
    print("work counters:", json.dumps(first, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": calibration_s,
        "repetitions": {
            kind: [{"setup_s": r.setup_s, "run_s": r.run_s} for r in group]
            for kind, group in (("untraced", untraced), ("traced", traced))
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "work_counters": first,
        "checks": [{"check": name, "ok": ok} for name, ok in checks],
        **info,
        "span_fields": ["name", "start", "end", "parent", "workload", "repetition"],
        "spans": tracer.spans if tracer else [],
    }
    path = OUT / f"{wl.name}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record))

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failed else 0
