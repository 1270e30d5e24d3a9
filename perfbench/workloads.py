"""The benchmark's three workloads, driven through the public API only.

Each workload is a closed loop with one client: one repetition builds the
kernels, compiles them with ``compile_app``, constructs a fresh runtime
(the way ``repro run`` does) and runs the host program to completion with
``Workload.run``. Why each workload exists:

* ``nbody-exec`` -- functional N-body (192 bodies, 10 iterations, 4 GPUs,
  no simulated machine). Nearly all of the run is the numpy kernel
  interpreter and every launch after the first replays from the plan
  cache, so an execute-layer change shows here and a plan-layer change
  should not.
* ``cholesky-cold`` -- functional tiled Cholesky (n=64, 8x8 tiles, 120
  tasks) through ``repro.tasks`` on 4 GPUs. Tile offsets are runtime
  scalars, so every launch misses both plan caches: the run pays for cold
  skeletons, lazy scanner codegen and ``TaskGraph.finalize`` edge
  derivation -- the opposite use of the plan layer.
* ``hotspot-sim16`` -- timing-only Hotspot at the paper's Table 1 medium
  size (16384^2), 50 iterations, on a simulated 16-GPU K80 node,
  sequential schedule, every iteration simulated (no extrapolation). The
  paper's Fig. 6 path and the only workload whose simulated time comes
  from the timed run; its host time is the kernel cost model, the
  ``sched`` issue path and the ``sim`` lane search.

The two functional workloads have no simulated machine in the timed run.
Their ``sim_time_s`` and ``sim_speedup`` come from one timing-only pass of
the same host program on a 4-GPU K80 node, made once per process outside
the timed region.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import CudaApi, MultiGpuApi, RuntimeConfig, compile_app
from repro.compiler.costmodel import KernelCostModel
from repro.cuda.device import Device
from repro.harness.calibration import K80_NODE_SPEC
from repro.harness.experiments import figure6, reference_time
from repro.harness.paper import MAX_SPEEDUP, MAX_SPEEDUP_GPUS
from repro.sim.engine import SimMachine
from repro.workloads import CholeskyWorkload, HotspotWorkload, NBodyWorkload
from repro.workloads.common import ProblemConfig, Workload, functional_config

__all__ = ["BenchWorkload", "WORKLOADS"]

Outputs = Optional[Dict[str, np.ndarray]]


def outputs_equal(expected: Dict[str, np.ndarray], got: Outputs) -> List[bool]:
    """One bitwise comparison per expected output."""
    return [
        got is not None and key in got and np.array_equal(value, got[key])
        for key, value in expected.items()
    ]


def model_vs_paper() -> str:
    """The simulator's best-size Hotspot speedup beside the paper's maximum."""
    gpus = MAX_SPEEDUP_GPUS["hotspot"]
    best = max(figure6(("hotspot",), gpu_counts=(gpus,)), key=lambda p: p.speedup)
    paper = MAX_SPEEDUP["hotspot"]
    error = (best.speedup - paper) / paper
    return (
        f"model vs paper: the paper's Hotspot maximum is {paper:.1f}x at {gpus} GPUs "
        f"(best size); the model's best size ({best.size_label}) gives "
        f"{best.speedup:.2f}x at {gpus} GPUs, a simulator error of {error:+.0%} "
        "against the only per-workload reference the repo holds. The simulator is "
        "otherwise unvalidated."
    )


class BenchWorkload:
    """One benchmark workload: how to build, run and check a repetition."""

    name = ""
    gpus = 1
    #: Launch-latency tail percentile: the highest of 90/95/99/99.9 that
    #: leaves at least ten launches beyond it at this workload's launch
    #: count in a run. Fixed per workload so the metric keeps its meaning.
    tail_percentile = 99.0
    #: Traced wrappers that must stay silent on this workload.
    silent_spans: Tuple[str, ...] = ()
    #: The traced observation that confirms why the workload exists.
    reason = ""

    def reason_holds(self, layers: Dict[str, float], self_times: Dict[str, float]) -> bool:
        """Whether the traced run confirms :attr:`reason`."""
        raise NotImplementedError

    def program(self) -> Workload:
        """A fresh host program; constructing it builds the kernels."""
        raise NotImplementedError

    def runtime(self, app) -> MultiGpuApi:
        """A fresh multi-GPU runtime for one repetition."""
        return MultiGpuApi(app, RuntimeConfig(n_gpus=self.gpus))

    def prepare(self, seed: int) -> None:
        """Per-process inputs and single-GPU reference (outside timing)."""
        program = self.program()
        self.inputs = program.make_inputs(seed=seed)
        self.reference = program.run(CudaApi(), self.inputs)

    def process_checks(self) -> List[Tuple[str, bool]]:
        """Checks made once per process, outside the timed region."""
        return []

    def check(self, api: MultiGpuApi, outputs: Outputs) -> List[Tuple[str, bool]]:
        """Checks of one repetition's outputs."""
        return [
            (f"output {key} bitwise equal to the single-GPU CudaApi run", ok)
            for key, ok in zip(self.reference, outputs_equal(self.reference, outputs))
        ]

    def notes(self) -> Dict[str, str]:
        """Information printed beside the metrics (computed once per run)."""
        return {}

    def sim_times(self) -> Tuple[float, float]:
        """(sim_time_s, single-GPU reference simulated seconds).

        One timing-only run of the host program on the modelled K80 node,
        and one on the single-GPU reference binary of
        ``harness.experiments.reference_time``, every iteration simulated.
        """
        program = self.program()
        api = MultiGpuApi(
            compile_app(program.build_kernels()),
            RuntimeConfig(n_gpus=self.gpus),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(self.gpus)),
            functional=False,
        )
        program.run(api, None)
        machine = SimMachine(K80_NODE_SPEC.with_gpus(1))
        reference = CudaApi(
            Device(0, functional=False),
            machine=machine,
            kernel_cost=KernelCostModel(K80_NODE_SPEC),
            functional=False,
        )
        program.run(reference, None)
        return api.elapsed(), machine.elapsed()


class NBodyExec(BenchWorkload):
    name = "nbody-exec"
    gpus = 4
    #: Nine of ten launches replay from the plan caches. One cold launch
    #: per repetition in ten puts the p95 launch tail at the median cold
    #: launch; short repetitions give more of them per run to take the
    #: median of on a host whose speed drifts.
    iterations = 10
    tail_percentile = 95.0
    silent_spans = ("tasks.finalize",)
    reason = "exec.run_kernel_s is the largest layer self time"

    def reason_holds(self, layers, self_times) -> bool:
        return max(self_times, key=self_times.get) == "exec.run_kernel_s"

    def program(self) -> Workload:
        return NBodyWorkload(functional_config("nbody", iterations=self.iterations))


class CholeskyCold(BenchWorkload):
    name = "cholesky-cold"
    gpus = 4
    tail_percentile = 99.0
    reason = "runtime.plan_hit_ratio is 0: every launch misses the plan cache"

    def reason_holds(self, layers, self_times) -> bool:
        return layers["runtime.plan_hit_ratio"] == 0

    def program(self) -> Workload:
        return CholeskyWorkload(functional_config("cholesky"))


class HotspotSim16(BenchWorkload):
    name = "hotspot-sim16"
    gpus = 16
    #: One cold launch per repetition in 50 puts the p99 launch tail at the
    #: median cold launch rather than at a host-noise spike among 12-ms
    #: warm launches.
    iterations = 50
    tail_percentile = 99.0
    silent_spans = ("exec.run_kernel", "tasks.finalize")
    reason = "exec.run_kernel_calls is 0: no kernel is interpreted"

    def reason_holds(self, layers, self_times) -> bool:
        return layers["exec.run_kernel_calls"] == 0

    def config(self) -> ProblemConfig:
        return ProblemConfig("hotspot", "medium", 16_384, self.iterations)

    def program(self) -> Workload:
        return HotspotWorkload(self.config())

    def runtime(self, app) -> MultiGpuApi:
        return MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=self.gpus),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(self.gpus)),
            functional=False,
        )

    def prepare(self, seed: int) -> None:
        # Timing-only: the timed program gets no inputs. The functional
        # check below runs the same kernel at the functional size.
        self.inputs = None
        self.seed = seed
        self.first: Optional[Tuple[float, int]] = None

    def process_checks(self) -> List[Tuple[str, bool]]:
        small = HotspotWorkload(functional_config("hotspot"))
        inputs = small.make_inputs(seed=self.seed)
        expected = small.run(CudaApi(), inputs)
        api = MultiGpuApi(
            compile_app(small.build_kernels()),
            RuntimeConfig(n_gpus=self.gpus),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(self.gpus)),
        )
        got = small.run(api, inputs)
        return [
            (f"functional-size output {key} bitwise equal to CudaApi", ok)
            for key, ok in zip(expected, outputs_equal(expected, got))
        ]

    def check(self, api: MultiGpuApi, outputs: Outputs) -> List[Tuple[str, bool]]:
        observed = (api.elapsed(), api.stats.sync_bytes)
        if self.first is None:
            self.first = observed
        return [
            ("sim_time_s identical across repetitions", observed[0] == self.first[0]),
            ("sync_bytes identical across repetitions", observed[1] == self.first[1]),
        ]

    def notes(self) -> Dict[str, str]:
        return {"model_vs_paper": model_vs_paper()}

    def sim_times(self) -> Tuple[float, float]:
        # Every repetition's simulated time is identical (checked above).
        return self.first[0], reference_time(self.config(), K80_NODE_SPEC)


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w for w in (NBodyExec(), CholeskyCold(), HotspotSim16())
}
