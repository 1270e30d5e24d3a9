"""Host launch-overhead study of the staged planner (plan + replay caches).

``repro bench overhead`` drives three self-checking studies on top of the
paper's single-GPU slowdown table:

* :func:`launch_overhead_study` — pure host cost per launch. Each workload
  runs its iteration loop in timing mode with no machine attached
  (``machine=None, functional=False``), so wall-clock measures *only* the
  orchestration path: fingerprint, skeleton (partitioning + enumerator
  scans), tracker residual, and submit. A :class:`~repro.runtime.profiler.
  LaunchProfiler` splits per-launch microseconds by temperature — cold
  (plan-cache miss), warm (skeleton hit, residual re-derived) and replay
  (skeleton + residual-cache hit) — and a run with both caches off gives
  the every-launch-pays-full-price baseline: with no memo below the two
  caches, every such launch re-partitions, re-scans and re-plans.
* :func:`identity_sweep` — both caches must be bitwise-invisible.
  Functional hotspot runs with (a) the plan cache alone and (b) plan +
  residual replay are each compared against the all-caches-off oracle on
  outputs, the full simulated trace, final tracker/sharer state, and every
  stats counter outside :data:`~repro.runtime.api.HOST_PLANNER_COUNTERS`,
  across the ``schedule x shared_copies x pipeline_window`` matrix on both
  a flat node and a 2x2 cluster.
* :func:`mutation_identity_failures` — adversarial interleavings. An
  iteration loop is punctuated with direct tracker mutations (cudaMemset,
  host-to-device memcpy, cudaFree + fresh allocation); the replayed run
  must stay bitwise-identical to the replay-off oracle *and* every
  mutation must have changed the footprint digest (visible as extra
  residual-cache misses vs the unmutated loop).

:func:`overhead_failures` turns the study into exit-1 self-checks: the
warm path must beat the cold path by :data:`MIN_WARM_REDUCTION`, replay
must cut the hotspot residual stage by :data:`MIN_REPLAY_REDUCTION`, cache
arithmetic must balance, and the vectorized enumerator backend must have
engaged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.pipeline import CompiledApp, compile_app
from repro.runtime.api import HOST_PLANNER_COUNTERS, MultiGpuApi, host_planner_counters
from repro.runtime.config import RuntimeConfig
from repro.runtime.profiler import LaunchProfiler
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS
from repro.workloads.common import ProblemConfig

__all__ = [
    "OVERHEAD_WORKLOADS",
    "MIN_WARM_REDUCTION",
    "MIN_NOCACHE_REDUCTION",
    "MIN_REPLAY_REDUCTION",
    "OverheadPoint",
    "launch_overhead_study",
    "overhead_failures",
    "identity_sweep",
    "mutation_identity_failures",
]

#: Workloads of the overhead study with their (size, iterations): the two
#: Table 1 iteration loops plus the task-graph image pipeline, whose
#: per-band launches exercise many distinct fingerprints per iteration.
OVERHEAD_WORKLOADS: Dict[str, Tuple[int, int]] = {
    "hotspot": (1024, 40),
    "nbody": (2048, 20),
    "imgpipe": (256, 3),
}

#: Factor by which the warm (plan-cache hit, residual re-derived) path must
#: undercut the cold path in host microseconds per launch. Measured
#: headroom is an order of magnitude above this on every study workload.
MIN_WARM_REDUCTION = 5.0

#: Factor by which the warm path must undercut the all-caches-off steady
#: state. The baseline run disables the plan cache and the residual cache
#: — every launch re-partitions, re-scans and re-plans — so this bar sits
#: well above the old memo-assisted 1.2x.
MIN_NOCACHE_REDUCTION = 2.0

#: Factor by which a residual-cache hit must cut the *residual* stage
#: (tracker queries + stale-copy planning vs digest + replay) against the
#: warm path on the hotspot iteration loop, whose converged ping-pong is
#: the replay cache's design case.
MIN_REPLAY_REDUCTION = 3.0


@dataclass(frozen=True)
class OverheadPoint:
    """Host per-launch cost of one workload: cold/warm/replay/uncached."""

    workload: str
    size: int
    iterations: int
    #: Launch temperatures on the fully-cached run: cold built a skeleton,
    #: warm reused one but re-derived the residual, replay hit the residual
    #: cache too. Fallback launches bypass the planner and count in none.
    cold_launches: int
    warm_launches: int
    replay_launches: int
    #: Host microseconds per launch by stage (plus ``"total"``). The warm
    #: column comes from a ``residual_cache=False`` run — with replay on, a
    #: converged loop leaves the warm temperature almost empty — and the
    #: replay column from the fully-cached run. ``nocache_us`` is the
    #: baseline with the plan cache and residual cache both disabled. Any
    #: column may be empty when no launch of that temperature occurred.
    cold_us: Dict[str, float]
    warm_us: Dict[str, float]
    replay_us: Dict[str, float]
    nocache_us: Dict[str, float]
    #: The :data:`~repro.runtime.api.HOST_PLANNER_COUNTERS` slice of the
    #: fully-cached run's stats.
    counters: Dict[str, int]

    @property
    def warm_reduction(self) -> float:
        """Cold-path total over warm-path total (per-launch microseconds)."""
        return self.cold_us["total"] / max(self.warm_us["total"], 1e-12)

    @property
    def nocache_reduction(self) -> float:
        """Uncached per-launch total over the warm-path total."""
        return self.nocache_us["total"] / max(self.warm_us["total"], 1e-12)

    @property
    def replay_residual_reduction(self) -> Optional[float]:
        """Warm residual-stage µs over replay residual-stage µs.

        The replay cache's headline: how much cheaper digest + replay is
        than live tracker queries + stale-copy planning. None when the
        workload never replayed.
        """
        if not self.replay_us:
            return None
        return self.warm_us["residual"] / max(self.replay_us["residual"], 1e-12)

    def as_dict(self) -> Dict[str, Any]:
        row = asdict(self)
        row["warm_reduction"] = self.warm_reduction
        row["nocache_reduction"] = self.nocache_reduction
        row["replay_residual_reduction"] = self.replay_residual_reduction
        return row


def _timed_run(
    app: CompiledApp,
    workload,
    n_gpus: int,
    *,
    plan_cache: bool = True,
    residual_cache: bool = True,
) -> Tuple[LaunchProfiler, MultiGpuApi]:
    """One machine-less timing-mode run with the launch profiler attached."""
    api = MultiGpuApi(
        app,
        RuntimeConfig(
            n_gpus=n_gpus, plan_cache=plan_cache, residual_cache=residual_cache
        ),
        machine=None,
        functional=False,
    )
    profiler = LaunchProfiler()
    api.profiler = profiler
    workload.run(api, None)
    return profiler, api


def launch_overhead_study(
    workloads: Optional[Sequence[str]] = None,
    n_gpus: int = 4,
    sizes: Optional[Dict[str, Tuple[int, int]]] = None,
) -> List[OverheadPoint]:
    """Measure per-launch host microseconds: cold/warm/replay/uncached.

    ``sizes`` overrides the per-workload ``(size, iterations)`` table
    (:data:`OVERHEAD_WORKLOADS`); unknown workload names raise ``KeyError``
    against it. Device work never runs — there is no machine — so the
    numbers isolate exactly the host path the staged planner restructured.
    Three runs per workload: fully cached (cold + replay temperatures),
    ``residual_cache=False`` (the warm column) and both caches off (the
    honest baseline).
    """
    table = dict(OVERHEAD_WORKLOADS)
    if sizes:
        table.update(sizes)
    names = list(workloads) if workloads is not None else list(OVERHEAD_WORKLOADS)
    registry = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
    points: List[OverheadPoint] = []
    for name in names:
        size, iterations = table[name]
        cfg = ProblemConfig(name, "overhead", size, iterations)
        workload = registry[name](cfg)
        app = compile_app(workload.build_kernels())
        full_prof, api = _timed_run(app, workload, n_gpus)
        warm_prof, _ = _timed_run(
            app, registry[name](cfg), n_gpus, residual_cache=False
        )
        base_prof, _ = _timed_run(
            app, registry[name](cfg), n_gpus, plan_cache=False, residual_cache=False
        )
        points.append(
            OverheadPoint(
                workload=name,
                size=size,
                iterations=iterations,
                cold_launches=full_prof.launches.get("cold", 0),
                warm_launches=full_prof.launches.get("warm", 0),
                replay_launches=full_prof.launches.get("replay", 0),
                cold_us=full_prof.per_launch_us("cold"),
                warm_us=warm_prof.per_launch_us("warm"),
                replay_us=full_prof.per_launch_us("replay"),
                nocache_us=base_prof.per_launch_us("cold"),
                counters=host_planner_counters(api.stats),
            )
        )
    return points


def overhead_failures(points: Sequence[OverheadPoint]) -> List[str]:
    """Exit-1 self-checks over the study (empty list = all pass)."""
    failures: List[str] = []
    if not points:
        return ["overhead study produced no points"]
    for p in points:
        steady = p.warm_launches + p.replay_launches
        if p.cold_launches == 0 or steady == 0 or not p.warm_us:
            failures.append(
                f"coverage: {p.workload} saw {p.cold_launches} cold / "
                f"{p.warm_launches} warm / {p.replay_launches} replay "
                "launches; the cold and a steady path must both run"
            )
            continue
        if p.warm_reduction < MIN_WARM_REDUCTION:
            failures.append(
                f"headline: {p.workload} warm path {p.warm_us['total']:.1f}us "
                f"per launch is only {p.warm_reduction:.1f}x below the cold "
                f"path {p.cold_us['total']:.1f}us (need >= {MIN_WARM_REDUCTION:g}x)"
            )
        if p.nocache_reduction < MIN_NOCACHE_REDUCTION:
            failures.append(
                f"baseline: {p.workload} warm path {p.warm_us['total']:.1f}us "
                f"per launch is only {p.nocache_reduction:.2f}x below the "
                f"all-caches-off steady state {p.nocache_us['total']:.1f}us "
                f"(need >= {MIN_NOCACHE_REDUCTION:g}x)"
            )
        if p.workload == "hotspot":
            ratio = p.replay_residual_reduction
            if p.replay_launches == 0 or ratio is None:
                failures.append(
                    "replay: hotspot never hit the residual cache; its "
                    "converged ping-pong is the design case and must replay"
                )
            elif ratio < MIN_REPLAY_REDUCTION:
                failures.append(
                    f"replay: hotspot residual stage {p.replay_us['residual']:.1f}us "
                    f"on replay is only {ratio:.1f}x below the warm path's "
                    f"{p.warm_us['residual']:.1f}us (need >= {MIN_REPLAY_REDUCTION:g}x)"
                )
        hits, misses = p.counters["plan_cache_hits"], p.counters["plan_cache_misses"]
        if hits != steady or misses != p.cold_launches:
            failures.append(
                f"arithmetic: {p.workload} plan cache counted {hits} hits / "
                f"{misses} misses but the profiler saw {p.warm_launches} warm "
                f"+ {p.replay_launches} replay / {p.cold_launches} cold launches"
            )
        rhits = p.counters["residual_cache_hits"]
        rmisses = p.counters["residual_cache_misses"]
        if rhits != p.replay_launches or rmisses != p.cold_launches + p.warm_launches:
            failures.append(
                f"arithmetic: {p.workload} residual cache counted {rhits} hits "
                f"/ {rmisses} misses but the profiler saw {p.replay_launches} "
                f"replay / {p.cold_launches + p.warm_launches} non-replay launches"
            )
        evicted = (
            p.counters["plan_cache_evictions"]
            + p.counters["residual_cache_evictions"]
        )
        if evicted != 0:
            failures.append(
                f"capacity: {p.workload} evicted {evicted} entries; the "
                "study working set must fit both caches"
            )
        if p.counters["enumerator_specialized"] == 0:
            failures.append(
                f"backend: {p.workload} never ran the vectorized enumerator "
                "backend (all scans fell back to the interpreter)"
            )
        # A cache hit skips the skeleton stage entirely, on both hit paths.
        if p.warm_us.get("skeleton", 0.0) != 0.0:
            failures.append(
                f"staging: {p.workload} charged skeleton time "
                f"{p.warm_us['skeleton']:.1f}us on the warm path"
            )
        if p.replay_us.get("skeleton", 0.0) != 0.0:
            failures.append(
                f"staging: {p.workload} charged skeleton time "
                f"{p.replay_us['skeleton']:.1f}us on the replay path"
            )
    return failures


def _tracker_state(api: MultiGpuApi) -> List[Tuple[int, Tuple]]:
    """Canonical final tracker/sharer state of every live virtual buffer."""
    state = []
    for vb_id, vb in sorted(api._live_buffers.items()):
        segs = tuple(
            (s.start, s.end, s.owner, tuple(sorted(s.sharers)))
            for s in vb.tracker.segments()
        )
        state.append((vb_id, segs))
    return state


def _comparable_stats(api: MultiGpuApi) -> Dict[str, Any]:
    """Stats dict minus the planner counters the caches legitimately move."""
    stats = asdict(api.stats)
    for name in HOST_PLANNER_COUNTERS:
        stats.pop(name)
    return stats


#: The cache configurations of one identity-sweep cell: the all-off oracle
#: and the two cached modes that must match it bitwise.
_SWEEP_MODES = (
    ("oracle", False, False),
    ("plan", True, False),
    ("replay", True, True),
)


def identity_sweep(
    workload: str = "hotspot",
    n_gpus: int = 4,
    windows: Sequence[int] = (1, 4),
    schedules: Optional[Sequence[str]] = None,
    cluster_shape: Optional[Tuple[int, int]] = (2, 2),
) -> List[str]:
    """Prove both planner caches are invisible; returns failure strings.

    For every ``schedule x shared_copies x pipeline_window`` cell, on a
    flat simulated node and (by default) a 2x2 cluster, the same
    functional run executes in three modes — all caches off (the oracle),
    plan cache only, and plan + residual replay. Each cached mode must
    agree with the oracle bitwise on outputs, on the full simulated trace
    (every interval, in order), on final tracker/sharer state, and on all
    stats outside :data:`~repro.runtime.api.HOST_PLANNER_COUNTERS`.
    """
    from repro.cluster.engine import ClusterSimMachine
    from repro.harness.calibration import K80_NODE_SPEC, k80_cluster
    from repro.sched.policy import SCHEDULES
    from repro.sim.engine import SimMachine
    from repro.workloads import functional_config

    if schedules is None:
        schedules = list(SCHEDULES) + ["auto"]
    registry = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
    wl = registry[workload](functional_config(workload))
    inputs = wl.make_inputs(seed=0)
    app = compile_app(wl.build_kernels())

    machines = [("flat", lambda: SimMachine(K80_NODE_SPEC.with_gpus(n_gpus)))]
    if cluster_shape is not None:
        nodes, gpn = cluster_shape
        if nodes * gpn != n_gpus:
            raise ValueError(
                f"cluster shape {nodes}x{gpn} must total n_gpus={n_gpus}"
            )
        machines.append(
            (f"{nodes}x{gpn}", lambda: ClusterSimMachine(k80_cluster(nodes, gpn)))
        )

    failures: List[str] = []
    for topo, make_machine in machines:
        for schedule in schedules:
            for shared in (False, True):
                for window in windows:
                    runs = {}
                    for mode, plan_on, residual_on in _SWEEP_MODES:
                        cfg = RuntimeConfig(
                            n_gpus=n_gpus,
                            schedule=schedule,
                            shared_copies=shared,
                            pipeline_window=window,
                            plan_cache=plan_on,
                            residual_cache=residual_on,
                        )
                        api = MultiGpuApi(app, cfg, machine=make_machine())
                        out = wl.run(api, inputs)
                        runs[mode] = (
                            out,
                            api.machine.trace.intervals,
                            _tracker_state(api),
                            _comparable_stats(api),
                        )
                    where = (
                        f"{workload} [{topo}] schedule={schedule!r} "
                        f"shared_copies={shared} window={window}"
                    )
                    oracle = runs["oracle"]
                    for mode in ("plan", "replay"):
                        on = runs[mode]
                        for key in oracle[0]:
                            if not np.array_equal(on[0][key], oracle[0][key]):
                                failures.append(
                                    f"bitwise: output {key!r} differs in "
                                    f"{mode} mode at {where}"
                                )
                        if on[1] != oracle[1]:
                            failures.append(
                                f"trace: intervals differ in {mode} mode at {where}"
                            )
                        if on[2] != oracle[2]:
                            failures.append(
                                f"tracker: final state differs in {mode} "
                                f"mode at {where}"
                            )
                        if on[3] != oracle[3]:
                            drift = {
                                k: (oracle[3][k], on[3][k])
                                for k in oracle[3]
                                if oracle[3][k] != on[3][k]
                            }
                            failures.append(
                                f"stats: {drift} differ in {mode} mode at {where}"
                            )
    return failures


def _mutated_hotspot_run(
    api: MultiGpuApi, kernel, n: int, iterations: int, temp, mutate: bool
):
    """A hotspot ping-pong loop punctuated with direct tracker mutations.

    When ``mutate`` is set, iteration boundaries inject the three
    operations that bypass the launch path yet change coherence state: a
    device memset of the next input's first half, a host-to-device
    re-upload, and a free + fresh allocation of the next output buffer.
    Each invalidates the footprint digest the replay cache keys on, so a
    replayed residual can never be served across one.
    """
    from repro.cuda.api import MemcpyKind
    from repro.cuda.dim3 import Dim3
    from repro.workloads.hotspot import BLOCK

    nbytes = n * n * 4
    blocks = -(-n // BLOCK.x)
    grid = Dim3(x=blocks, y=blocks)
    d_a = api.cudaMalloc(nbytes)
    d_b = api.cudaMalloc(nbytes)
    api.cudaMemcpy(d_a, temp, nbytes, MemcpyKind.HostToDevice)
    third = max(1, iterations // 4)
    for i in range(iterations):
        api.launch(kernel, grid, BLOCK, [d_a, d_b])
        d_a, d_b = d_b, d_a
        if mutate:
            if i == third:
                api.cudaMemset(d_a, 0, nbytes // 2)
            elif i == 2 * third:
                api.cudaMemcpy(d_a, temp, nbytes, MemcpyKind.HostToDevice)
            elif i == 3 * third:
                api.cudaFree(d_b)
                d_b = api.cudaMalloc(nbytes)
    out = np.empty((n, n), dtype=np.float32)
    api.cudaMemcpy(out, d_a, nbytes, MemcpyKind.DeviceToHost)
    api.cudaDeviceSynchronize()
    return out


def mutation_identity_failures(
    n_gpus: int = 4,
    size: int = 128,
    iterations: int = 12,
    schedules: Sequence[str] = ("sequential", "overlap"),
) -> List[str]:
    """Adversarial replay soundness: direct mutations must miss, bitwise.

    For each schedule, a hotspot loop interleaved with cudaMemset, H2D
    memcpy and cudaFree/cudaMalloc runs with the residual cache on and
    off; the two must agree on outputs, trace, tracker state and all
    non-planner stats. The replayed run is additionally compared against
    an unmutated loop to prove the mutations *changed the digest*: they
    must force strictly more residual-cache misses while steady-state
    iterations still replay.
    """
    from repro.harness.calibration import K80_NODE_SPEC
    from repro.sim.engine import SimMachine
    from repro.workloads.hotspot import build_hotspot_kernel

    kernel = build_hotspot_kernel(size)
    app = compile_app([kernel])
    rng = np.random.default_rng(7)
    temp = rng.random((size, size), dtype=np.float32)

    failures: List[str] = []
    for schedule in schedules:
        runs = {}
        for label, residual_on, mutate in (
            ("replay", True, True),
            ("oracle", False, True),
            ("unmutated", True, False),
        ):
            cfg = RuntimeConfig(
                n_gpus=n_gpus, schedule=schedule, residual_cache=residual_on
            )
            api = MultiGpuApi(
                app, cfg, machine=SimMachine(K80_NODE_SPEC.with_gpus(n_gpus))
            )
            out = _mutated_hotspot_run(api, kernel, size, iterations, temp, mutate)
            runs[label] = (
                out,
                api.machine.trace.intervals,
                _tracker_state(api),
                _comparable_stats(api),
                host_planner_counters(api.stats),
            )
        where = f"hotspot-mutated schedule={schedule!r}"
        replayed, oracle = runs["replay"], runs["oracle"]
        if not np.array_equal(replayed[0], oracle[0]):
            failures.append(f"bitwise: mutated outputs differ at {where}")
        if replayed[1] != oracle[1]:
            failures.append(f"trace: intervals differ at {where}")
        if replayed[2] != oracle[2]:
            failures.append(f"tracker: final state differs at {where}")
        if replayed[3] != oracle[3]:
            drift = {
                k: (oracle[3][k], replayed[3][k])
                for k in oracle[3]
                if oracle[3][k] != replayed[3][k]
            }
            failures.append(f"stats: {drift} differ at {where}")
        mutated_misses = replayed[4]["residual_cache_misses"]
        clean_misses = runs["unmutated"][4]["residual_cache_misses"]
        if mutated_misses <= clean_misses:
            failures.append(
                f"digest: mutations left residual-cache misses at "
                f"{mutated_misses} (unmutated loop: {clean_misses}) at {where}; "
                "every direct mutation must change the footprint digest"
            )
        if replayed[4]["residual_cache_hits"] == 0:
            failures.append(
                f"digest: mutated loop never replayed between mutations at {where}"
            )
    return failures
