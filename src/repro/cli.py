"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``   compile a workload's kernel and print its application model
              (CUDA-like source, access maps, strategy, legality verdict).
``lint``      run the static-analysis passes (races, bounds,
              partitionability) over workloads and report diagnostics.
``run``       run a workload functionally on N simulated GPUs and check the
              result bitwise against the single-GPU reference.
``bench``     regenerate the paper's evaluation tables on the simulated
              K80 node (figure6 | figure7 | figure8 | table1 | overhead |
              schedules | cluster | redundancy | pipeline | serve).

``run`` and ``bench`` accept ``--schedule
{sequential,overlap,overlap+p2p,auto}`` to pick the launch-scheduler policy
(see docs/scheduler.md); ``bench schedules`` runs the three concrete
policies side by side. ``bench cluster --nodes N --gpus-per-node G`` runs
the multi-node scaling study (see docs/cluster.md) and self-checks 1-node
equivalence plus the exposure accounting identity. ``bench redundancy``
runs the shared-copy coherence study (see docs/coherence.md) and
self-checks the >=2x steady-state traffic reduction, bitwise equality, and
— with ``--nodes N`` above 1 — the inter-node byte reduction; ``run
--shared-copies`` enables the shared-copy trackers on a functional run.
``bench pipeline --window N --json PATH`` runs the cross-launch pipelining
study (fused launch windows, see docs/scheduler.md) and self-checks that
exposed transfer time never exceeds the window=1 run, that the widest
window clears the >=25% exposed-transfer reduction and >=1.1x speedup bars
against the per-launch sequential baseline, and that pipelining is bitwise
invisible; ``run --pipeline-window N`` fuses N launches per window on a
functional run.
``bench overhead`` pairs the paper's single-GPU slowdown table with the
staged-planner host-overhead study (docs/performance.md): per-launch host
microseconds by stage, cold vs warm vs ``plan_cache=False``, with exit-1
self-checks on the >=5x warm reduction, the plan-cache hit/miss
arithmetic, and bitwise plan-cache invisibility across the full
``schedule x shared_copies x pipeline_window x topology`` matrix.
``run --json`` and the serve/taskgraph benches surface the planner
counters (plan-cache hits/misses/evictions, vectorized vs interpreted
enumerator scans).
``machine``   show the calibrated machine model.

Exit codes: 0 success; 1 lint findings at/above the ``--fail-on`` threshold
or a result mismatch; every :class:`repro.errors.ReproError` subclass maps
to its own distinct code (see ``errors.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

import numpy as np

from repro.compiler.pipeline import compile_app
from repro.cuda.api import CudaApi
from repro.errors import ReproError, exit_code_for
from repro.cuda.ir.printer import kernel_to_cuda
from repro.harness.calibration import GPU_COUNTS, K80_NODE_SPEC
from repro.harness.report import finish_self_checks, format_table, write_json_report
from repro.runtime.api import MultiGpuApi, host_planner_counters
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from repro.workloads.common import TABLE1

__all__ = ["main"]

#: Everything ``analyze``/``lint``/``run`` accept: the paper's Table 1 set
#: plus the extra study workloads (the bench tables stay Table-1-only).
RUNNABLE_WORKLOADS = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}


def _cmd_analyze(args: argparse.Namespace) -> int:
    workload = RUNNABLE_WORKLOADS[args.workload](functional_config(args.workload, size=args.size))
    kernels = workload.build_kernels()
    app = compile_app(kernels, model_path=args.model_out)
    if args.verbose:
        from repro.compiler.report import describe_app

        print(describe_app(app, sources=True))
        if args.model_out:
            print(f"\napplication model written to {args.model_out}")
        return 0
    for kernel in kernels:
        ck = app.kernel(kernel.name)
        print(kernel_to_cuda(kernel))
        print(f"partitionable:    {ck.partitionable}")
        if not ck.partitionable:
            print(f"reject reason:    {ck.model.reject_reason}")
            continue
        print(f"strategy:         split along grid axis {ck.strategy.axis!r}")
        print(f"unit axes:        {ck.model.unit_axes or '(none)'}")
        print(f"runtime coverage: {ck.model.runtime_coverage}")
        for arg in ck.model.args:
            if arg.kind != "array":
                continue
            if arg.read:
                print(f"  read  {arg.name}: {arg.read.map_str}")
            if arg.write:
                print(f"  write {arg.name}: {arg.write.map_str}")
    if args.model_out:
        print(f"\napplication model written to {args.model_out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintReport, Severity, lint_kernels, render_json, render_text

    names = args.workloads or sorted(ALL_WORKLOADS)
    unknown = [n for n in names if n not in RUNNABLE_WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    passes = None
    if args.dataflow:
        # The dataflow pass is opt-in (it models whole launch sequences);
        # --dataflow adds it to the default pass set.
        from repro.analysis import registered_passes

        passes = [
            name
            for name, cls in registered_passes().items()
            if cls.default or name == "dataflow"
        ]
    report = LintReport()
    for name in names:
        workload = RUNNABLE_WORKLOADS[name](functional_config(name, size=args.size))
        grid, block = workload.launch_config()
        report.extend(
            lint_kernels(
                workload.build_kernels(),
                grid=grid,
                block=block,
                replay=not args.no_replay,
                passes=passes,
                n_gpus=args.gpus,
                launches=args.launches,
                irredundant=args.irredundant,
            )
        )
    print(render_json(report) if args.format == "json" else render_text(report))
    fail_on = None if args.fail_on == "never" else Severity.from_label(args.fail_on)
    return 1 if report.failed(fail_on) else 0


def _cmd_run(args: argparse.Namespace) -> int:
    workload = RUNNABLE_WORKLOADS[args.workload](
        functional_config(args.workload, size=args.size, iterations=args.iterations)
    )
    inputs = workload.make_inputs(seed=args.seed)
    print(f"running {workload.cfg} on the single-GPU reference ...")
    reference = workload.run(CudaApi(), inputs)
    app = compile_app(workload.build_kernels())
    print(f"running on {args.gpus} simulated GPUs ({args.schedule} schedule) ...")
    cache_knobs = {}
    if args.plan_cache_capacity is not None:
        cache_knobs["plan_cache_capacity"] = args.plan_cache_capacity
    if args.residual_cache_capacity is not None:
        cache_knobs["residual_cache_capacity"] = args.residual_cache_capacity
    config = RuntimeConfig(
        n_gpus=args.gpus,
        schedule=args.schedule,
        shared_copies=args.shared_copies,
        pipeline_window=args.pipeline_window,
        irredundant_transfers=args.irredundant_transfers,
        **cache_knobs,
    )
    api = MultiGpuApi(app, config)
    result = workload.run(api, inputs)
    for key in reference:
        if not np.array_equal(reference[key], result[key]):
            print(f"MISMATCH in output {key!r}")
            return 1
    print("results bitwise equal to the single-GPU reference")
    print(
        f"coherence traffic: {api.stats.sync_bytes} bytes in "
        f"{api.stats.sync_transfers} transfers; "
        f"{api.stats.enumerator_calls} enumerator calls, "
        f"{api.stats.tracker_ops} tracker ops"
    )
    counters = host_planner_counters(api.stats)
    print(
        f"staged planner: {counters['plan_cache_hits']} plan-cache hits, "
        f"{counters['plan_cache_misses']} misses, "
        f"{counters['plan_cache_evictions']} evictions; "
        f"{counters['residual_cache_hits']} residual replays, "
        f"{counters['residual_cache_misses']} residual misses, "
        f"{counters['residual_cache_evictions']} evictions; enumerator scans "
        f"{counters['enumerator_specialized']} vectorized / "
        f"{counters['enumerator_fallback']} interpreted"
    )
    if args.shared_copies:
        print(
            f"shared copies: {api.stats.redundant_bytes_avoided} redundant "
            f"bytes avoided, {api.stats.tracker_share_ops} sharer registrations, "
            f"{api.stats.tracker_invalidate_ops} invalidations"
        )
    if args.irredundant_transfers:
        print(
            f"irredundant transfers: {api.stats.overapprox_bytes_avoided} "
            f"bounding-range slack bytes trimmed"
        )
    if args.json:
        import dataclasses

        payload = {
            "workload": args.workload,
            "config": {
                "n_gpus": args.gpus,
                "schedule": args.schedule,
                "shared_copies": args.shared_copies,
                "pipeline_window": args.pipeline_window,
                "irredundant_transfers": args.irredundant_transfers,
                "plan_cache_capacity": config.plan_cache_capacity,
                "residual_cache_capacity": config.residual_cache_capacity,
                "size": workload.cfg.size,
                "iterations": workload.cfg.iterations,
                "seed": args.seed,
            },
            "bitwise_equal": True,
            "stats": dataclasses.asdict(api.stats),
            "host_counters": counters,
        }
        write_json_report(
            args.json, f"benchmarks/results/run_{args.workload}.json", payload
        )
    return 0


def _check_cluster_one_node_equivalence(workloads, total, schedules) -> List[str]:
    """Functional check: a 1-node cluster must match the single-node path.

    Runs each workload bitwise on (a) the plain multi-GPU runtime and
    (b) a 1 x ``total`` cluster machine, under every schedule, and returns
    a list of human-readable failures (empty when equivalent).
    """
    from repro.cluster.engine import ClusterSimMachine
    from repro.harness.calibration import k80_cluster

    failures: List[str] = []
    for name in workloads:
        workload = ALL_WORKLOADS[name](functional_config(name))
        inputs = workload.make_inputs(seed=0)
        app = compile_app(workload.build_kernels())
        for schedule in schedules:
            cfg = RuntimeConfig(n_gpus=total, schedule=schedule)
            reference = workload.run(MultiGpuApi(app, cfg), inputs)
            machine = ClusterSimMachine(k80_cluster(1, total))
            got = workload.run(MultiGpuApi(app, cfg, machine=machine), inputs)
            for key in reference:
                if not np.array_equal(reference[key], got[key]):
                    failures.append(
                        f"1-node equivalence: {name} output {key!r} differs "
                        f"under schedule {schedule!r}"
                    )
    return failures


def _cmd_bench_cluster(args: argparse.Namespace) -> int:
    from repro.harness import experiments as ex
    from repro.harness.calibration import K80_CLUSTER_SPEC
    from repro.sched.policy import SCHEDULES

    nodes = args.nodes
    gpn = args.gpus_per_node or 4
    total = nodes * gpn
    workloads = tuple(args.workloads or ["hotspot"])
    size = args.sizes[0] if args.sizes else "medium"
    schedules = (args.schedule,) if args.schedule else tuple(SCHEDULES)
    # Hold total GPUs constant: the 1-node shape is the network-free
    # baseline the clustered shape is judged against.
    shapes = ((1, total), (nodes, gpn)) if nodes > 1 else ((1, total),)

    print(
        f"cluster bench: {nodes} node(s) x {gpn} GPU(s), "
        f"workloads {', '.join(workloads)}, schedules {', '.join(schedules)}"
    )
    points = ex.cluster_scaling(
        workloads=workloads, shapes=shapes, size=size, schedules=schedules
    )

    headers = [
        "Workload",
        "Shape",
        "Schedule",
        "Time [s]",
        "Speedup",
        "Intra exposed [s]",
        "Inter exposed [s]",
        "Inter copies",
    ]
    rows = [
        (
            p.workload,
            f"{p.n_nodes}x{p.gpus_per_node}",
            p.schedule,
            f"{p.time:.4f}",
            f"{p.speedup:.2f}",
            f"{p.intra_exposed:.5f}",
            f"{p.inter_exposed:.5f}",
            p.inter_node_transfers,
        )
        for p in points
    ]
    table = format_table(headers, rows, title=f"Cluster scaling ({size} problems)")
    print(table)
    for p in points:
        c = p.host_counters
        print(
            f"  planner {p.workload} {p.n_nodes}x{p.gpus_per_node} {p.schedule}: "
            f"plan cache {c.get('plan_cache_hits', 0)}h/"
            f"{c.get('plan_cache_misses', 0)}m, residual cache "
            f"{c.get('residual_cache_hits', 0)}h/"
            f"{c.get('residual_cache_misses', 0)}m, enumerator "
            f"{c.get('enumerator_specialized', 0)} vectorized / "
            f"{c.get('enumerator_fallback', 0)} interpreted"
        )

    failures = _check_cluster_one_node_equivalence(workloads, total, schedules)
    for p in points:
        tol = 1e-9 * max(1.0, p.transfers_busy)
        if p.exposure_identity_error > tol:
            failures.append(
                f"accounting identity: {p.workload} {p.n_nodes}x{p.gpus_per_node} "
                f"{p.schedule}: tier split drifts from busy_time(TRANSFERS) "
                f"by {p.exposure_identity_error:.3e}s"
            )
        if p.n_nodes == 1 and (p.inter_exposed > 0 or p.inter_node_transfers > 0):
            failures.append(
                f"1-node run reports inter-node traffic: {p.workload} "
                f"{p.schedule} ({p.inter_node_transfers} copies, "
                f"{p.inter_exposed:.3e}s exposed)"
            )
    baseline = {
        (p.workload, p.schedule): p.inter_exposed for p in points if p.n_nodes == 1
    }
    for p in points:
        if p.n_nodes == 1:
            continue
        ref = baseline.get((p.workload, p.schedule))
        if ref is not None and p.inter_exposed < ref:
            failures.append(
                f"sanity: {p.workload} {p.schedule}: {p.n_nodes}x{p.gpus_per_node} "
                f"reports less inter-node exposed time ({p.inter_exposed:.3e}s) "
                f"than 1x{total} ({ref:.3e}s)"
            )

    if args.json:
        payload = {
            "nodes": nodes,
            "gpus_per_node": gpn,
            "size": size,
            "points": [
                {
                    "workload": p.workload,
                    "shape": f"{p.n_nodes}x{p.gpus_per_node}",
                    "schedule": p.schedule,
                    "time": p.time,
                    "reference": p.reference,
                    "speedup": p.speedup,
                    "intra_hidden": p.intra_hidden,
                    "intra_exposed": p.intra_exposed,
                    "inter_hidden": p.inter_hidden,
                    "inter_exposed": p.inter_exposed,
                    "inter_node_transfers": p.inter_node_transfers,
                    "inter_node_bytes": p.inter_node_bytes,
                    "transfers_busy": p.transfers_busy,
                    "host_counters": p.host_counters,
                }
                for p in points
            ],
            "failures": failures,
        }
        write_json_report(args.json, "benchmarks/results/cluster_scaling.json", payload)

    return finish_self_checks(
        failures, "1-node equivalence, accounting identity, tier sanity"
    )


def _check_pipeline_equivalence(workloads, n_gpus, windows) -> List[str]:
    """Functional check: pipelining must be bitwise-invisible.

    Runs each workload under every (schedule, pipeline window, shared
    copies) combination and compares outputs bitwise against the
    per-launch (window=1) run of the same schedule.
    """
    from repro.sched.policy import SCHEDULES

    failures: List[str] = []
    for name in workloads:
        workload = ALL_WORKLOADS[name](functional_config(name))
        inputs = workload.make_inputs(seed=0)
        app = compile_app(workload.build_kernels())
        for schedule in list(SCHEDULES) + ["auto"]:
            for shared in (False, True):
                reference = None
                for window in sorted({1, *windows}):
                    cfg = RuntimeConfig(
                        n_gpus=n_gpus,
                        schedule=schedule,
                        shared_copies=shared,
                        pipeline_window=window,
                    )
                    got = workload.run(MultiGpuApi(app, cfg), inputs)
                    if reference is None:
                        reference = got
                        continue
                    for key in reference:
                        if not np.array_equal(reference[key], got[key]):
                            failures.append(
                                f"pipeline equivalence: {name} output {key!r} "
                                f"differs at window={window} under "
                                f"schedule={schedule!r} shared_copies={shared}"
                            )
    return failures


def _cmd_bench_pipeline(args: argparse.Namespace) -> int:
    from repro.harness import experiments as ex

    windows = tuple(sorted({1, 2, 4} | ({args.window} if args.window else set())))
    workloads = tuple(args.workloads or ["hotspot", "nbody"])
    size = args.sizes[0] if args.sizes else "medium"
    n_gpus = args.gpu_counts[0] if args.gpu_counts else 16
    # Default cluster shape matches the flat GPU count (2x8 = 16): the
    # interesting comparison holds total GPUs constant across topologies.
    nodes = args.nodes
    gpn = args.gpus_per_node if args.gpus_per_node else max(1, n_gpus // nodes)

    print(
        f"pipeline bench: windows {', '.join(map(str, windows))}, "
        f"workloads {', '.join(workloads)}, flat 1x{n_gpus} + cluster {nodes}x{gpn}"
    )
    points = ex.pipeline_study(
        workloads=workloads,
        windows=windows,
        n_gpus=n_gpus,
        cluster_shape=(nodes, gpn) if nodes > 1 else None,
        size=size,
    )

    headers = [
        "Workload",
        "Topology",
        "Schedule",
        "Window",
        "Time [s]",
        "Speedup",
        "Exposed [ms]",
        "Hidden",
        "Flushes",
        "Batch",
    ]
    rows = [
        (
            p.workload,
            f"{p.n_nodes}x{p.gpus_per_node}",
            p.schedule,
            p.pipeline_window,
            f"{p.time:.4f}",
            f"{p.speedup:.2f}",
            f"{p.exposed_transfer_time * 1e3:.3f}",
            f"{p.hidden_fraction:.1%}",
            p.pipeline_flushes,
            p.pipeline_max_batch,
        )
        for p in points
    ]
    print(format_table(headers, rows, title=f"Cross-launch pipelining ({size} problems)"))

    # Self-checks. Keyed per (workload, topology): the sequential window=1
    # row is the per-launch baseline; overlap+p2p rows carry the windows.
    failures: List[str] = []
    eps = 1e-9
    by_key = {}
    for p in points:
        by_key.setdefault((p.workload, p.topology), []).append(p)
    for (name, topo), group in by_key.items():
        seq = next(p for p in group if p.schedule == "sequential")
        p2p = {p.pipeline_window: p for p in group if p.schedule == "overlap+p2p"}
        w1 = p2p[1]
        for w, p in sorted(p2p.items()):
            if p.exposed_transfer_time > w1.exposed_transfer_time + eps:
                failures.append(
                    f"regression: {name} {topo} overlap+p2p window={w} exposes "
                    f"{p.exposed_transfer_time:.3e}s transfer time vs "
                    f"{w1.exposed_transfer_time:.3e}s at window=1"
                )
        wide = p2p[max(p2p)]
        if wide.exposed_transfer_time > 0.75 * seq.exposed_transfer_time + eps:
            failures.append(
                f"headline: {name} {topo} window={wide.pipeline_window} exposed "
                f"transfer time {wide.exposed_transfer_time:.3e}s is not >=25% "
                f"below the per-launch sequential baseline "
                f"{seq.exposed_transfer_time:.3e}s"
            )
        if wide.time * 1.1 > seq.time + eps:
            failures.append(
                f"headline: {name} {topo} window={wide.pipeline_window} "
                f"end-to-end {wide.time:.4f}s is not >=1.1x faster than the "
                f"per-launch sequential baseline {seq.time:.4f}s"
            )
    failures += _check_pipeline_equivalence(workloads, min(n_gpus, 4), windows)

    if args.json:
        payload = {
            "windows": list(windows),
            "size": size,
            "flat_gpus": n_gpus,
            "cluster_shape": f"{nodes}x{gpn}",
            "points": [
                {
                    "workload": p.workload,
                    "topology": p.topology,
                    "shape": f"{p.n_nodes}x{p.gpus_per_node}",
                    "schedule": p.schedule,
                    "pipeline_window": p.pipeline_window,
                    "time": p.time,
                    "reference": p.reference,
                    "speedup": p.speedup,
                    "hidden_transfer_time": p.hidden_transfer_time,
                    "exposed_transfer_time": p.exposed_transfer_time,
                    "pipeline_flushes": p.pipeline_flushes,
                    "pipeline_max_batch": p.pipeline_max_batch,
                }
                for p in points
            ],
            "failures": failures,
        }
        write_json_report(args.json, "benchmarks/results/pipeline.json", payload)

    return finish_self_checks(
        failures,
        "exposed transfer time never above window=1, "
        ">=25% exposed reduction and >=1.1x speedup vs sequential baseline, "
        "bitwise equality across schedule x window x shared-copies",
    )


def _stencil_linter_agreement(points, shapes, schedules, iterations, base) -> List[str]:
    """Cross-check the measured dstencil traffic against the RP6xx linter.

    The dataflow analyzer simulates the same launch sequence the runtime
    executes, so its per-flow byte classification must *equal* the runtime
    counters: total required bytes = measured sync bytes, total redundant
    bytes = measured ``redundant_bytes_avoided`` (shared-copies run), total
    over-approximated bytes = measured ``overapprox_bytes_avoided``
    (irredundant run) — per tier. Any disagreement is a bug in one of the
    two models and fails the bench.
    """
    from repro.analysis.dataflow import analyze_transfers
    from repro.compiler.access_analysis import analyze_kernel
    from repro.workloads.dstencil import BLOCK, build_dstencil_kernel

    from repro.cuda.dim3 import Dim3

    side = 64
    info = analyze_kernel(build_dstencil_kernel(side))
    blocks = -(-side // BLOCK.x)
    grid = Dim3(x=blocks, y=blocks)
    failures: List[str] = []
    by = {
        (p.kernel, p.n_nodes, p.schedule, p.shared_copies, p.irredundant): p
        for p in points
    }
    for n_nodes, gpus_per_node in shapes:
        total = n_nodes * gpus_per_node
        cluster = base.with_shape(n_nodes, gpus_per_node) if n_nodes > 1 else None
        for irr in (False, True):
            summary = analyze_transfers(
                info,
                n_gpus=total,
                launches=iterations,
                grid=grid,
                block=BLOCK,
                scalars={},
                irredundant=irr,
                cluster=cluster,
            )
            for sched in schedules:
                p = by[("dstencil", n_nodes, sched, True, irr)]
                pairs = [
                    ("required", summary.total("required"), p.total_sync_bytes),
                    ("redundant", summary.total("redundant"), p.redundant_bytes_avoided),
                    (
                        "redundant_inter",
                        summary.total("redundant_inter"),
                        p.redundant_bytes_avoided_inter,
                    ),
                    ("overapprox", summary.total("overapprox"), p.overapprox_bytes_avoided),
                    (
                        "overapprox_inter",
                        summary.total("overapprox_inter"),
                        p.overapprox_bytes_avoided_inter,
                    ),
                ]
                for what, linted, measured in pairs:
                    if linted != measured:
                        failures.append(
                            f"linter disagreement: dstencil {what} bytes — linter "
                            f"{linted}, runtime {measured} ({n_nodes} node(s), "
                            f"{sched}, irredundant={irr})"
                        )
    return failures


def _cmd_bench_redundancy(args: argparse.Namespace) -> int:
    from repro.harness import experiments as ex
    from repro.harness.calibration import K80_CLUSTER_SPEC

    nodes = args.nodes
    gpn = args.gpus_per_node or 4
    shapes = ((1, nodes * gpn), (nodes, gpn)) if nodes > 1 else ((1, gpn),)
    schedules = (args.schedule,) if args.schedule else ("sequential", "overlap")
    iterations = 8
    print(
        f"redundancy bench: shapes {', '.join(f'{n}x{g}' for n, g in shapes)}, "
        f"schedules {', '.join(schedules)}, shared copies off vs on, "
        f"irredundant transfers off vs on"
    )
    points = ex.redundancy_study(
        iterations=iterations,
        shapes=shapes,
        schedules=schedules,
        irredundant=(False, True),
        stencil=True,
    )

    rows = [
        (
            p.kernel,
            f"{p.n_nodes}x{p.gpus_per_node}",
            p.schedule,
            "on" if p.shared_copies else "off",
            "on" if p.irredundant else "off",
            p.steady_bytes,
            p.total_sync_bytes,
            p.redundant_bytes_avoided,
            p.overapprox_bytes_avoided,
            p.inter_node_bytes,
        )
        for p in points
    ]
    print(
        format_table(
            [
                "Kernel",
                "Shape",
                "Schedule",
                "Shared",
                "Irred",
                "Steady [B]",
                "Total sync [B]",
                "Avoided [B]",
                "Trimmed [B]",
                "Inter-node [B]",
            ],
            rows,
            title="Redundant transfers: sole-owner vs shared-copy trackers",
        )
    )

    failures: List[str] = []
    by = {
        (p.kernel, p.n_nodes, p.schedule, p.shared_copies): p
        for p in points
        if not p.irredundant
    }
    for n_nodes, _ in shapes:
        for sched in schedules:
            off = by[("broadcast", n_nodes, sched, False)]
            on = by[("broadcast", n_nodes, sched, True)]
            if on.checksum != off.checksum:
                failures.append(
                    f"bitwise: broadcast output differs with shared copies "
                    f"({n_nodes} node(s), {sched})"
                )
            if off.steady_bytes == 0 or on.steady_bytes * 2 > off.steady_bytes:
                failures.append(
                    f"reduction: broadcast steady-state {off.steady_bytes} -> "
                    f"{on.steady_bytes} bytes misses the 2x bar "
                    f"({n_nodes} node(s), {sched})"
                )
            if n_nodes > 1 and on.inter_node_bytes >= off.inter_node_bytes:
                failures.append(
                    f"cluster: inter-node bytes did not drop "
                    f"({off.inter_node_bytes} -> {on.inter_node_bytes}, {sched})"
                )
            a_off = by[("aligned", n_nodes, sched, False)]
            a_on = by[("aligned", n_nodes, sched, True)]
            if a_on.checksum != a_off.checksum:
                failures.append(
                    f"bitwise: aligned output differs with shared copies "
                    f"({n_nodes} node(s), {sched})"
                )
            if a_on.total_sync_bytes > a_off.total_sync_bytes:
                failures.append(
                    f"regression: aligned traffic grew "
                    f"{a_off.total_sync_bytes} -> {a_on.total_sync_bytes} "
                    f"({n_nodes} node(s), {sched})"
                )

    # The stencil acceptance bar: trimming bounding-range slack strictly
    # reduces transferred bytes on top of the shared-copies baseline —
    # including the inter-node halo tier — and stays bitwise invisible.
    by_irr = {
        (p.kernel, p.n_nodes, p.schedule, p.shared_copies, p.irredundant): p
        for p in points
    }
    for n_nodes, _ in shapes:
        for sched in schedules:
            base_pt = by_irr[("dstencil", n_nodes, sched, True, False)]
            irr_pt = by_irr[("dstencil", n_nodes, sched, True, True)]
            if irr_pt.checksum != base_pt.checksum:
                failures.append(
                    f"bitwise: dstencil output differs with irredundant "
                    f"transfers ({n_nodes} node(s), {sched})"
                )
            if irr_pt.total_sync_bytes >= base_pt.total_sync_bytes:
                failures.append(
                    f"reduction: dstencil irredundant transfers did not cut "
                    f"traffic ({base_pt.total_sync_bytes} -> "
                    f"{irr_pt.total_sync_bytes}, {n_nodes} node(s), {sched})"
                )
            if irr_pt.overapprox_bytes_avoided == 0:
                failures.append(
                    f"trim: dstencil trimmed no slack bytes "
                    f"({n_nodes} node(s), {sched})"
                )
            if n_nodes > 1 and irr_pt.inter_node_bytes >= base_pt.inter_node_bytes:
                failures.append(
                    f"cluster: dstencil inter-node bytes did not drop with "
                    f"irredundant transfers ({base_pt.inter_node_bytes} -> "
                    f"{irr_pt.inter_node_bytes}, {sched})"
                )

    failures.extend(
        _stencil_linter_agreement(points, shapes, schedules, iterations, K80_CLUSTER_SPEC)
    )

    if args.json:
        payload = [
            {
                "kernel": p.kernel,
                "shared_copies": p.shared_copies,
                "irredundant": p.irredundant,
                "schedule": p.schedule,
                "n_nodes": p.n_nodes,
                "gpus_per_node": p.gpus_per_node,
                "steady_bytes": p.steady_bytes,
                "total_sync_bytes": p.total_sync_bytes,
                "redundant_bytes_avoided": p.redundant_bytes_avoided,
                "redundant_bytes_avoided_inter": p.redundant_bytes_avoided_inter,
                "overapprox_bytes_avoided": p.overapprox_bytes_avoided,
                "overapprox_bytes_avoided_inter": p.overapprox_bytes_avoided_inter,
                "inter_node_bytes": p.inter_node_bytes,
                "checksum": p.checksum,
            }
            for p in points
        ]
        write_json_report(
            args.json, "benchmarks/results/redundant_transfers.json", payload
        )

    return finish_self_checks(
        failures,
        ">=2x steady-state reduction, bitwise equality, no "
        "regression, irredundant stencil reduction, linter agreement",
    )


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    """Multi-tenant serving saturation study with exit-1 self-checks."""
    from repro.serve.bench import (
        saturation_failures,
        saturation_study,
        shared_skeleton_identity_failures,
        single_tenant_identity_failures,
    )

    tenants = args.tenants
    loads = tuple(args.load) if args.load else (0.25, 0.5, 1.0, 2.0, 4.0)
    nodes = args.nodes
    gpn = args.gpus_per_node if args.gpus_per_node else 2
    points = saturation_study(
        tenants=tenants,
        loads=loads,
        jobs=args.jobs,
        n_nodes=nodes,
        gpus_per_node=gpn,
        queue_capacity=args.queue_capacity,
    )
    print(
        format_table(
            [
                "Load",
                "Offered/s",
                "Submitted",
                "Done",
                "Shed",
                "Jobs/s",
                "p50 ms",
                "p99 ms",
            ],
            [
                [
                    f"{p.load:g}",
                    f"{p.offered_rate:.0f}",
                    p.submitted,
                    p.completed,
                    p.shed,
                    f"{p.throughput:.0f}",
                    f"{p.p50_delay * 1e3:.3f}",
                    f"{p.p99_delay * 1e3:.3f}",
                ]
                for p in points
            ],
            title=(
                f"Serve saturation — {tenants} tenants on {nodes}x{gpn} "
                f"(queue capacity {points[0].queue_capacity}, "
                f"service {points[0].service_time * 1e3:.3f} ms/job)"
            ),
        )
    )

    top = max(points, key=lambda p: p.load)
    if top.host_counters:
        print(
            f"  staged planner at load {top.load:g}: "
            f"{top.host_counters['plan_cache_hits']} plan-cache hits, "
            f"{top.host_counters['plan_cache_misses']} misses, "
            f"{top.host_counters['enumerator_specialized']} vectorized / "
            f"{top.host_counters['enumerator_fallback']} interpreted scans"
        )

    failures = saturation_failures(points)
    # The serve path must be indistinguishable from the direct api path for
    # a lone tenant — checked across pipelining and the overlap schedule.
    for window in (1, 4):
        failures += single_tenant_identity_failures(
            n_nodes=nodes, gpus_per_node=gpn, pipeline_window=window
        )
    failures += single_tenant_identity_failures(
        n_nodes=nodes, gpus_per_node=gpn, schedule="overlap", shared_copies=True
    )
    # Sharing one skeleton cache across tenants must be bitwise invisible
    # (only the planner counters may — and must — move).
    failures += shared_skeleton_identity_failures(n_gpus=gpn)

    if args.json:
        payload = {
            "tenants": tenants,
            "shape": f"{nodes}x{gpn}",
            "jobs": args.jobs,
            "queue_capacity": points[0].queue_capacity,
            "service_time": points[0].service_time,
            "points": [
                {
                    "load": p.load,
                    "offered_rate": p.offered_rate,
                    "submitted": p.submitted,
                    "completed": p.completed,
                    "shed": p.shed,
                    "wall": p.wall,
                    "throughput": p.throughput,
                    "p50_delay": p.p50_delay,
                    "p99_delay": p.p99_delay,
                    "per_tenant_completed": p.per_tenant_completed,
                    "host_counters": p.host_counters,
                }
                for p in points
            ],
            "failures": failures,
        }
        write_json_report(
            args.json, "benchmarks/results/serve_saturation.json", payload
        )

    return finish_self_checks(
        failures,
        "graceful saturation (throughput plateau, bounded p99, backpressure "
        "only under overload, fair shares), single-tenant serve identity "
        "(bitwise, trace, clock, stats), shared-skeleton-cache identity",
    )


def _cmd_bench_taskgraph(args: argparse.Namespace) -> int:
    from repro.tasks.bench import MIN_MAKESPAN_WIN, taskgraph_study

    workloads = [args.workload] if args.workload else None
    study = taskgraph_study(workloads=workloads, n_gpus=args.gpus)

    print(
        f"taskgraph bench: workloads {', '.join(study.workloads)}, "
        f"{study.n_gpus} simulated GPUs, "
        f"{len(study.identity)} identity configurations"
    )
    headers = ["Workload", "Mode", "GPUs", "Tasks", "Edges", "Time [ms]", "Win"]
    by_wl: Dict[str, Dict[str, Any]] = {}
    for p in study.points:
        by_wl.setdefault(p.workload, {})[p.mode] = p
    rows = []
    for name, modes in by_wl.items():
        ser = modes["serialized"]
        for p in (ser, modes["graph"]):
            rows.append(
                (
                    p.workload,
                    p.mode,
                    p.n_gpus,
                    p.tasks,
                    p.edges,
                    f"{p.time * 1e3:.3f}",
                    f"{ser.time / p.time:.2f}x",
                )
            )
    print(format_table(headers, rows, title="Dynamic task graph vs serialized"))

    headers = ["Workload", "Tasks", "Edges", "Waves", "Ready peak", "Opaque", "Syncs"]
    rows = [
        (
            name,
            s["tasks"],
            s["edges"],
            s["waves"],
            s["ready_peak"],
            s["nonaffine_tasks"],
            s["whole_buffer_syncs"],
        )
        for name, s in study.graph_stats.items()
    ]
    print(format_table(headers, rows, title="Graph structure (identity sweep)"))
    for name, counters in sorted(study.host_counters.items()):
        print(
            f"  {name}: staged planner (graph mode): "
            f"{counters['plan_cache_hits']} plan-cache hits, "
            f"{counters['plan_cache_misses']} misses, "
            f"{counters['enumerator_specialized']} vectorized / "
            f"{counters['enumerator_fallback']} interpreted scans"
        )
    for name, codes in sorted(study.diagnostics.items()):
        shown = ", ".join(codes) if codes else "none"
        print(f"  {name}: footprint diagnostics: {shown}")
    if study.cholesky_max_err is not None:
        print(
            "  cholesky: max abs deviation from numpy.linalg.cholesky "
            f"{study.cholesky_max_err:.3e}"
        )

    if args.json:
        write_json_report(
            args.json, "benchmarks/results/taskgraph.json", study.as_dict()
        )

    return finish_self_checks(
        study.failures,
        "bitwise identity graph/serialized/permuted across schedule x "
        "shared-copies x window, "
        f">={MIN_MAKESPAN_WIN}x makespan win with conserved transfer busy "
        "time, numerics vs numpy, opaque-task degradation",
    )


def _cmd_bench_overhead(args: argparse.Namespace) -> int:
    """Host launch-overhead study: staged-planner cost, cold vs warm."""
    from repro.harness import experiments as ex
    from repro.harness.overhead import (
        MIN_NOCACHE_REDUCTION,
        MIN_REPLAY_REDUCTION,
        MIN_WARM_REDUCTION,
        identity_sweep,
        launch_overhead_study,
        mutation_identity_failures,
        overhead_failures,
    )
    from repro.runtime.profiler import STAGES

    # The paper's §9.2 table first: simulated single-GPU slowdown of the
    # partitioned binary against the reference.
    rows = ex.single_gpu_overhead(sizes=tuple(args.sizes))
    print(
        format_table(
            ["Configuration", "Slowdown"],
            [(str(cfg), f"{frac:.4%}") for cfg, frac in rows],
            title="Single-GPU slowdown",
        )
    )

    from repro.harness.overhead import OVERHEAD_WORKLOADS

    names = args.workloads or None
    if names:
        unknown = [n for n in names if n not in OVERHEAD_WORKLOADS]
        if unknown:
            print(
                f"error: overhead study has no workload(s): {', '.join(unknown)} "
                f"(choose from {', '.join(OVERHEAD_WORKLOADS)})",
                file=sys.stderr,
            )
            return 2
    points = launch_overhead_study(workloads=names)
    headers = ["Workload", "Path", "Launches", *STAGES, "Total [us]"]
    table_rows = []
    for p in points:
        steady = p.warm_launches + p.replay_launches
        for label, launches, us in (
            ("cold", p.cold_launches, p.cold_us),
            ("warm", p.warm_launches, p.warm_us),
            ("replay", p.replay_launches, p.replay_us),
            ("no-cache", p.cold_launches + steady, p.nocache_us),
        ):
            if not us:
                continue  # a workload may never reach the replay path
            table_rows.append(
                (
                    p.workload,
                    label,
                    launches,
                    *(f"{us.get(stage, 0.0):.1f}" for stage in STAGES),
                    f"{us['total']:.1f}",
                )
            )
    print(
        format_table(
            headers,
            table_rows,
            title="Host overhead per launch [us] (staged planner, machine-less)",
        )
    )
    for p in points:
        replay = (
            f"{p.replay_residual_reduction:.2f}x residual replay win"
            if p.replay_residual_reduction is not None
            else "no replay hits"
        )
        print(
            f"  {p.workload}: warm path {p.warm_reduction:.1f}x below cold, "
            f"{p.nocache_reduction:.2f}x below the uncached steady "
            f"state, {replay}; counters {p.counters}"
        )

    failures = overhead_failures(points)
    failures += identity_sweep()
    failures += mutation_identity_failures()

    if args.json:
        payload = {
            "min_warm_reduction": MIN_WARM_REDUCTION,
            "min_nocache_reduction": MIN_NOCACHE_REDUCTION,
            "min_replay_reduction": MIN_REPLAY_REDUCTION,
            "slowdown": [
                {"config": str(cfg), "slowdown": frac} for cfg, frac in rows
            ],
            "points": [p.as_dict() for p in points],
            "failures": failures,
        }
        write_json_report(args.json, "benchmarks/results/launch_overhead.json", payload)

    return finish_self_checks(
        failures,
        f">={MIN_WARM_REDUCTION:g}x warm-path reduction, "
        f">={MIN_REPLAY_REDUCTION:g}x replay residual reduction, cache "
        "arithmetic for both caches, vectorized backend engaged, plan and "
        "residual caches bitwise/trace/tracker/stats invisible across "
        "schedule x shared-copies x window x topology, digest misses under "
        "adversarial memcpy/memset/free interleavings",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.harness import experiments as ex

    if args.experiment == "overhead":
        return _cmd_bench_overhead(args)
    if args.experiment == "cluster":
        return _cmd_bench_cluster(args)
    if args.experiment == "redundancy":
        return _cmd_bench_redundancy(args)
    if args.experiment == "pipeline":
        return _cmd_bench_pipeline(args)
    if args.experiment == "serve":
        return _cmd_bench_serve(args)
    if args.experiment == "taskgraph":
        return _cmd_bench_taskgraph(args)
    if args.experiment == "table1":
        print(
            format_table(
                ["Benchmark", "Small", "Medium", "Large", "Iterations"],
                ex.table1_rows(),
                title="Table 1",
            )
        )
        return 0
    counts = tuple(args.gpu_counts) if args.gpu_counts else GPU_COUNTS
    if args.experiment == "schedules":
        pts = ex.schedule_comparison(
            workloads=tuple(args.workloads or ["hotspot"]),
            gpu_counts=counts if args.gpu_counts else (1, 4, 16),
            size=args.sizes[0] if args.sizes else "medium",
        )
        headers = ["Workload", "GPUs", "Schedule", "Time [s]", "Speedup", "Hidden"]
        rows = [
            (p.workload, p.n_gpus, p.schedule, f"{p.time:.4f}", f"{p.speedup:.2f}", f"{p.hidden_fraction:.1%}")
            for p in pts
        ]
        if args.json:
            payload = [
                {
                    "workload": p.workload,
                    "size": p.size_label,
                    "n_gpus": p.n_gpus,
                    "schedule": p.schedule,
                    "time": p.time,
                    "reference": p.reference,
                    "speedup": p.speedup,
                    "hidden_transfer_time": p.hidden_transfer_time,
                    "exposed_transfer_time": p.exposed_transfer_time,
                }
                for p in pts
            ]
            write_json_report(
                args.json, "benchmarks/results/schedule_comparison.json", payload
            )
        print(format_table(headers, rows, title="Schedule comparison"))
        return 0
    if args.experiment == "figure6":
        pts = ex.figure6(gpu_counts=counts, sizes=tuple(args.sizes), schedule=args.schedule)
        rows = [(p.workload, p.size_label, p.n_gpus, f"{p.time:.3f}", f"{p.speedup:.2f}") for p in pts]
        headers = ["Workload", "Size", "GPUs", "Time [s]", "Speedup"]
        if args.csv:
            from repro.harness.report import to_csv

            with open(args.csv, "w") as fh:
                fh.write(to_csv(headers, rows))
            print(f"wrote {args.csv}")
        print(format_table(headers, rows, title="Figure 6"))
    elif args.experiment == "figure7":
        rows = ex.figure7(gpu_counts=counts, schedule=args.schedule)
        print(
            format_table(
                ["Workload", "GPUs", "Application", "Transfers", "Patterns"],
                [
                    (r.workload, r.n_gpus, f"{r.t_application:.3f}", f"{r.t_transfers:.3f}", f"{r.t_patterns:.4f}")
                    for r in rows
                ],
                title="Figure 7 (medium problems)",
            )
        )
    elif args.experiment == "figure8":
        stats = ex.figure8(gpu_counts=counts, sizes=tuple(args.sizes))
        print(
            format_table(
                ["GPUs", "p25", "median", "p75", "max"],
                [
                    (s.n_gpus, f"{s.percentile(0.25):.4%}", f"{s.median:.4%}", f"{s.percentile(0.75):.4%}", f"{max(s.fractions):.4%}")
                    for s in stats
                ],
                title="Figure 8",
            )
        )
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(args.experiment)
    return 0


def _cmd_machine(args: argparse.Namespace) -> int:
    spec = K80_NODE_SPEC
    rows = [(name, getattr(spec, name)) for name in (
        "n_gpus",
        "flops_per_gpu",
        "mem_bw_per_gpu",
        "pcie_bw",
        "host_bus_bw",
        "pcie_latency",
        "staging_latency",
        "p2p_enabled",
        "staging_factor",
        "cache_reuse_factor",
        "issue_overhead",
        "enumerator_call_cost",
        "per_range_cost",
        "tracker_op_cost",
        "partition_setup_cost",
        "sync_overhead",
    )]
    print(format_table(["Parameter", "Value"], rows, title="Calibrated machine model (K80 node)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated partitioning of data-parallel kernels (ICPP 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="print a workload's polyhedral application model")
    p.add_argument("workload", choices=sorted(RUNNABLE_WORKLOADS))
    p.add_argument("--size", type=int, default=None, help="problem size (default: small functional)")
    p.add_argument("--model-out", default=None, help="write the JSON model here")
    p.add_argument(
        "--verbose", action="store_true", help="full report incl. generated enumerator sources"
    )
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("lint", help="static-analysis diagnostics for workload kernels")
    p.add_argument(
        "workloads",
        nargs="*",
        metavar="workload",
        help=f"workloads to lint (default: all of {', '.join(sorted(ALL_WORKLOADS))})",
    )
    p.add_argument("--size", type=int, default=None, help="problem size (default: small functional)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "advice", "never"],
        default="error",
        help="lowest severity that makes the exit status nonzero (default: error)",
    )
    p.add_argument(
        "--no-replay",
        action="store_true",
        help="skip interpreter replay confirmation of race witnesses",
    )
    p.add_argument(
        "--dataflow",
        action="store_true",
        help="also run the cross-launch dataflow pass (RP6xx transfer lints)",
    )
    p.add_argument(
        "--irredundant",
        action="store_true",
        help="dataflow pass: model the irredundant-transfer remedy and "
        "report only the waste that remains after it",
    )
    p.add_argument(
        "--gpus",
        type=int,
        default=4,
        help="dataflow pass: device count to partition for (default 4)",
    )
    p.add_argument(
        "--launches",
        type=int,
        default=2,
        help="dataflow pass: back-to-back launches to model (default 2)",
    )
    p.set_defaults(fn=_cmd_lint)

    from repro.sched.policy import SCHEDULES

    p = sub.add_parser("run", help="functional multi-GPU run with bitwise check")
    p.add_argument("workload", choices=sorted(RUNNABLE_WORKLOADS))
    p.add_argument("--gpus", type=int, default=4)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--schedule",
        choices=list(SCHEDULES) + ["auto"],
        default="sequential",
        help="launch-scheduler policy (default: sequential, the paper's Figure 4)",
    )
    p.add_argument(
        "--shared-copies",
        action="store_true",
        help="enable shared-copy (owner + sharers) coherence tracking",
    )
    p.add_argument(
        "--pipeline-window",
        type=int,
        default=1,
        help="fuse this many consecutive launches into one scheduling "
        "window (default 1: per-launch orchestration)",
    )
    p.add_argument(
        "--irredundant-transfers",
        action="store_true",
        help="trim bounding-range slack off synchronization copies using "
        "the exact per-partition read sets (RP602 remedy)",
    )
    p.add_argument(
        "--plan-cache-capacity",
        type=int,
        default=None,
        metavar="N",
        help="LRU capacity of the plan-skeleton cache (default 512; the "
        "cache itself cannot be disabled from the CLI)",
    )
    p.add_argument(
        "--residual-cache-capacity",
        type=int,
        default=None,
        metavar="N",
        help="LRU capacity of the residual replay cache (default 512)",
    )
    p.add_argument(
        "--json",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="write the run's stats (including the staged-planner counters) "
        "as JSON; bare flag uses a default path under benchmarks/results/",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("bench", help="regenerate a paper table/figure (simulated)")
    p.add_argument(
        "experiment",
        choices=[
            "figure6",
            "figure7",
            "figure8",
            "table1",
            "overhead",
            "schedules",
            "cluster",
            "redundancy",
            "pipeline",
            "serve",
            "taskgraph",
        ],
    )
    p.add_argument("--gpu-counts", type=int, nargs="*", default=None)
    p.add_argument("--sizes", nargs="*", default=["small", "medium", "large"])
    p.add_argument("--csv", default=None, help="also write the rows as CSV (figure6)")
    p.add_argument(
        "--schedule",
        choices=list(SCHEDULES) + ["auto"],
        default=None,
        help="launch-scheduler policy for figure6/figure7/cluster "
        "(default: sequential; cluster runs all three)",
    )
    p.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="workloads for the schedules/cluster experiments",
    )
    p.add_argument(
        "--json",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="also write the rows as JSON (schedules/cluster); bare flag "
        "uses a default path under benchmarks/results/",
    )
    p.add_argument(
        "--nodes", type=int, default=2, help="cluster/pipeline experiment: node count"
    )
    p.add_argument(
        "--gpus-per-node",
        type=int,
        default=None,
        help="cluster/pipeline experiment: GPUs per node (default: 4 for "
        "cluster/redundancy; flat-GPU-count/nodes for pipeline)",
    )
    p.add_argument(
        "--window",
        type=int,
        default=None,
        help="pipeline experiment: additional pipeline window to measure "
        "(1, 2 and 4 always run)",
    )
    p.add_argument(
        "--workload",
        choices=["cholesky", "imgpipe"],
        default=None,
        help="taskgraph experiment: run a single workload (default: both)",
    )
    p.add_argument(
        "--gpus",
        type=int,
        default=16,
        help="taskgraph experiment: simulated GPU count for the overlap study",
    )
    p.add_argument(
        "--tenants", type=int, default=4, help="serve experiment: tenant count"
    )
    p.add_argument(
        "--load",
        type=float,
        nargs="*",
        default=None,
        metavar="L",
        help="serve experiment: offered loads as multiples of measured "
        "capacity (default: 0.25 0.5 1 2 4)",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=48,
        help="serve experiment: jobs offered per load point",
    )
    p.add_argument(
        "--queue-capacity",
        type=int,
        default=8,
        help="serve experiment: per-tenant admission-control queue bound",
    )
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("machine", help="show the calibrated machine model")
    p.set_defaults(fn=_cmd_machine)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and dispatch; map ``ReproError`` to its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
