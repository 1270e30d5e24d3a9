"""Cross-launch pipelining: fused windows vs per-launch orchestration.

Not a paper figure — the paper drains each launch's schedule before the
host builds the next one. This experiment fuses a rolling window of
iteration-loop launches into one task DAG (halo copies of launch k+1
overlap the trailing kernels of launch k, inter-node halos issue first on
a cluster) and reports end-to-end time plus the hidden/exposed transfer
split at windows 1, 2, and 4 on a flat 16-GPU node and a 2x8 cluster.

The same sweep backs the ``repro bench pipeline`` CLI self-check, which
enforces the acceptance bars at paper size (medium, 2x8). This file
mirrors those bars at small size on a 2x4 cluster — the shape whose
seam-to-interior ratio is pipeline-limited at small problems too.
"""

import json

from repro.harness.experiments import pipeline_study
from repro.harness.report import format_table

WORKLOADS = ("hotspot", "nbody")
WINDOWS = (1, 2, 4)
CLUSTER_SHAPE = (2, 4)


def _sweep():
    return pipeline_study(
        workloads=WORKLOADS,
        windows=WINDOWS,
        n_gpus=16,
        cluster_shape=CLUSTER_SHAPE,
        size="small",
    )


def test_pipeline_windows(benchmark, write_report):
    pts = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = format_table(
        [
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
        ],
        [
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
            for p in pts
        ],
        title="Cross-launch pipelining (small problems)",
    )
    write_report("pipeline_windows.txt", text)
    write_report(
        "pipeline_windows.json",
        json.dumps(
            [
                {
                    "workload": p.workload,
                    "size": p.size_label,
                    "topology": p.topology,
                    "n_nodes": p.n_nodes,
                    "gpus_per_node": p.gpus_per_node,
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
                for p in pts
            ],
            indent=2,
        ),
    )

    eps = 1e-9
    by = {(p.workload, p.topology, p.schedule, p.pipeline_window): p for p in pts}
    for w in WORKLOADS:
        for topo in ("flat", "cluster"):
            seq = by[(w, topo, "sequential", 1)]
            w1 = by[(w, topo, "overlap+p2p", 1)]
            for window in WINDOWS:
                p = by[(w, topo, "overlap+p2p", window)]
                # Fusing launches must never put transfer time *back* on
                # the critical path relative to per-launch DAG scheduling.
                assert (
                    p.exposed_transfer_time <= w1.exposed_transfer_time + eps
                ), (w, topo, window)
                # Nor slow the simulated clock.
                assert p.time <= w1.time + eps, (w, topo, window)
                # Wider windows drain less often and batch more launches.
                assert p.pipeline_flushes <= seq.pipeline_flushes
                assert p.pipeline_max_batch <= window
            # Headline bars (the CLI enforces the same at paper size):
            # the widest window hides >=25% more transfer time than the
            # sequential baseline exposes, and runs >=1.1x faster.
            wide = by[(w, topo, "overlap+p2p", max(WINDOWS))]
            assert (
                wide.exposed_transfer_time
                <= 0.75 * seq.exposed_transfer_time + eps
            ), (w, topo)
            assert wide.time * 1.1 <= seq.time + eps, (w, topo)

    for p in pts:
        # Exposure tiers partition transfer busy time: fractions are sane.
        assert 0.0 <= p.hidden_fraction <= 1.0
        if p.schedule == "sequential":
            assert p.pipeline_max_batch == 1
