"""The adaptive ``schedule="auto"`` policy selection."""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.cuda.api import MemcpyKind
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.errors import RuntimeApiError
from repro.harness.calibration import K80_NODE_SPEC
from repro.harness.experiments import run_timed
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.sched.policy import (
    AUTO_P2P_MIN_RATIO,
    AUTO_SEQUENTIAL_MAX_RATIO,
    SCHEDULES,
    auto_schedule_name,
    estimate_plan_times,
)
from repro.sim.engine import SimMachine
from repro.workloads.common import table1_configs

N = 32
BLOCK = Dim3(x=8, y=8)
GRID = Dim3(x=N // 8, y=N // 8)


class TestDecisionBoundary:
    """Pin the exact thresholds: this is the satellite's unit test."""

    def test_no_transfers_stays_sequential(self):
        assert auto_schedule_name(0.0, 1.0) == "sequential"
        assert auto_schedule_name(-1.0, 0.0) == "sequential"

    def test_no_compute_goes_p2p(self):
        assert auto_schedule_name(1e-9, 0.0) == "overlap+p2p"

    def test_sequential_boundary(self):
        c = 1.0
        assert auto_schedule_name(AUTO_SEQUENTIAL_MAX_RATIO * c, c) == "sequential"
        assert (
            auto_schedule_name(AUTO_SEQUENTIAL_MAX_RATIO * c * 1.0000001, c)
            == "overlap"
        )

    def test_p2p_boundary(self):
        c = 1.0
        assert auto_schedule_name(AUTO_P2P_MIN_RATIO * c, c) == "overlap+p2p"
        assert (
            auto_schedule_name(AUTO_P2P_MIN_RATIO * c * 0.9999999, c) == "overlap"
        )

    def test_midrange_overlaps(self):
        assert auto_schedule_name(0.1, 1.0) == "overlap"

    @pytest.mark.parametrize("ratio,expected", [
        (0.001, "sequential"),
        (0.02, "sequential"),
        (0.05, "overlap"),
        (0.49, "overlap"),
        (0.5, "overlap+p2p"),
        (10.0, "overlap+p2p"),
    ])
    def test_ratio_table(self, ratio, expected):
        assert auto_schedule_name(ratio, 1.0) == expected

    def test_every_outcome_is_a_registered_schedule(self):
        for ratio in (0.0, 0.01, 0.1, 1.0, 100.0):
            assert auto_schedule_name(ratio, 1.0) in SCHEDULES


class TestConfig:
    def test_auto_accepted(self):
        assert RuntimeConfig(n_gpus=2, schedule="auto").schedule == "auto"

    def test_unknown_schedule_lists_auto(self):
        with pytest.raises(RuntimeApiError) as exc:
            RuntimeConfig(n_gpus=2, schedule="speculative")
        assert "auto" in str(exc.value)


def _stencil():
    kb = KernelBuilder("st")
    src = kb.array("src", f32, (N, N))
    dst = kb.array("dst", f32, (N, N))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy >= 1) & (gy < N - 1) & (gx >= 1) & (gx < N - 1)):
        dst[gy, gx] = src[gy - 1, gx] + src[gy + 1, gx]
    return kb.finish()


def _run(schedule, n_gpus=4, iterations=3, seed=0):
    kernel = _stencil()
    app = compile_app([kernel])
    api = MultiGpuApi(
        app,
        RuntimeConfig(n_gpus=n_gpus, schedule=schedule),
        machine=SimMachine(K80_NODE_SPEC.with_gpus(n_gpus)),
    )
    nbytes = N * N * 4
    a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
    data = np.random.default_rng(seed).random((N, N)).astype(np.float32)
    api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
    api.cudaMemset(b, 0, nbytes)
    src, dst = a, b
    for _ in range(iterations):
        api.launch(kernel, GRID, BLOCK, [src, dst])
        src, dst = dst, src
    out = np.zeros((N, N), dtype=np.float32)
    api.cudaMemcpy(out, b, nbytes, MemcpyKind.DeviceToHost)
    trackers = [
        [(s.start, s.end, s.owner) for s in vb.tracker.query(0, vb.nbytes)]
        for vb in (a, b)
    ]
    return out, trackers, api


class TestAutoRuns:
    def test_auto_bitwise_equals_concrete_schedules(self):
        ref_out, ref_trackers, _ = _run("sequential")
        out, trackers, _ = _run("auto")
        assert np.array_equal(ref_out, out)
        assert trackers == ref_trackers

    def test_auto_records_its_choices(self):
        _, _, api = _run("auto", iterations=3)
        choices = api.stats.auto_choices
        assert sum(choices.values()) == 3
        assert set(choices) <= set(SCHEDULES)

    def test_concrete_schedules_record_no_choices(self):
        for schedule in SCHEDULES:
            _, _, api = _run(schedule, iterations=2)
            assert api.stats.auto_choices == {}

    def test_auto_never_slower_than_sequential_on_workload(self):
        cfg = next(c for c in table1_configs("hotspot") if c.size_label == "small")
        t_seq, _ = run_timed(cfg, 4, schedule="sequential")
        t_auto, auto_api = run_timed(cfg, 4, schedule="auto")
        assert t_auto <= t_seq + 1e-9
        assert sum(auto_api.stats.auto_choices.values()) > 0


class TestEstimateCache:
    """Plan-time estimates are memoized on the plan's residual record."""

    @staticmethod
    def _traced_loop(monkeypatch, schedule, iterations=6):
        """Ping-pong loop recording, per launch, the estimator's cost calls.

        Returns ``(api, launches)`` with one ``(replayed, estimator_calls,
        estimates, fresh)`` tuple per launch: whether the launch replayed a
        cached residual, how many ``kernel_cost`` calls
        ``estimate_plan_times`` made, the estimates the auto selector
        obtained, and a fresh estimate of a cache-free plan built from the
        same tracker state just before the launch.
        """
        import sys

        from repro.sched import policy
        from repro.sched.graph import build_launch_plan

        kernel = _stencil()
        app = compile_app([kernel])
        api = MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=4, schedule=schedule),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(4)),
        )
        estimator_calls = []
        cost = api.kernel_cost

        def spy_cost(*args):
            if sys._getframe(1).f_code is estimate_plan_times.__code__:
                estimator_calls.append(args)
            return cost(*args)

        api.kernel_cost = spy_cost
        estimates = []

        def spy_estimate(api_, plan):
            result = estimate_plan_times(api_, plan)
            estimates.append(result)
            return result

        monkeypatch.setattr(policy, "estimate_plan_times", spy_estimate)
        nbytes = N * N * 4
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        data = np.random.default_rng(0).random((N, N)).astype(np.float32)
        api.cudaMemcpy(a, data, nbytes, MemcpyKind.HostToDevice)
        api.cudaMemset(b, 0, nbytes)
        ck = app.kernel(kernel.name)
        src, dst = a, b
        launches = []
        for _ in range(iterations):
            fresh_plan = build_launch_plan(api, ck, GRID, BLOCK, [src, dst])
            fresh = estimate_plan_times(api, fresh_plan)
            hits, calls, n_est = (
                api.stats.residual_cache_hits, len(estimator_calls), len(estimates)
            )
            api.launch(kernel, GRID, BLOCK, [src, dst])
            launches.append(
                (
                    api.stats.residual_cache_hits > hits,
                    len(estimator_calls) - calls,
                    estimates[n_est:],
                    fresh,
                )
            )
            src, dst = dst, src
        return api, launches

    def test_pingpong_reestimates_nothing_after_warmup(self, monkeypatch):
        api, launches = self._traced_loop(monkeypatch, "auto")
        replayed = [calls for replay, calls, _, _ in launches if replay]
        assert replayed and replayed == [0] * len(replayed)
        # Launches that derived a fresh residual estimated it (one cost call
        # per kernel partition), so the zeros above are real memo hits.
        derived = [calls for replay, calls, _, _ in launches if not replay]
        assert derived and all(calls == 4 for calls in derived)
        assert sum(api.stats.auto_choices.values()) == len(launches)

    def test_cached_estimate_is_bit_identical(self, monkeypatch):
        _, launches = self._traced_loop(monkeypatch, "auto")
        replays = [(est, fresh) for replay, _, est, fresh in launches if replay]
        assert replays
        for estimates, fresh in replays:
            # Bit-identical to a cache-free plan's estimate, not approximately.
            assert estimates == [fresh]

    def test_concrete_schedules_never_estimate(self, monkeypatch):
        for schedule in SCHEDULES:
            _, launches = self._traced_loop(monkeypatch, schedule, iterations=3)
            assert all(calls == 0 and est == [] for _, calls, est, _ in launches)

    def test_window_estimate_sums_per_plan(self):
        from repro.sched.graph import build_launch_plan
        from repro.sched.policy import estimate_plan_times, estimate_window_times

        kernel = _stencil()
        app = compile_app([kernel])
        api = MultiGpuApi(
            app,
            RuntimeConfig(n_gpus=4, schedule="auto"),
            machine=SimMachine(K80_NODE_SPEC.with_gpus(4)),
        )
        nbytes = N * N * 4
        a, b = api.cudaMalloc(nbytes), api.cudaMalloc(nbytes)
        api.cudaMemset(a, 0, nbytes)
        api.cudaMemset(b, 0, nbytes)
        ck = app.kernel(kernel.name)
        plan = build_launch_plan(api, ck, GRID, BLOCK, [a, b])
        t1, c1 = estimate_plan_times(api, plan)
        tw, cw = estimate_window_times(api, [plan, plan, plan])
        assert tw == pytest.approx(3 * t1)
        assert cw == pytest.approx(3 * c1)
