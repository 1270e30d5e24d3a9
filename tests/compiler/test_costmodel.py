"""Unit tests for the analytical kernel cost model."""

import pytest

from repro.compiler.costmodel import KernelCostModel, ThreadCost
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32
from repro.cuda.ir.builder import KernelBuilder
from repro.sim.topology import MachineSpec

SPEC = MachineSpec(n_gpus=1, flops_per_gpu=1e12, mem_bw_per_gpu=1e11, cache_reuse_factor=4.0)


def _stencil():
    kb = KernelBuilder("s")
    n = kb.scalar("n")
    a = kb.array("a", f32, (n, n))
    b = kb.array("b", f32, (n, n))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy > 0) & (gy < n - 1) & (gx > 0) & (gx < n - 1)):
        b[gy, gx] = a[gy - 1, gx] + a[gy + 1, gx] + a[gy, gx - 1] + a[gy, gx + 1]
    return kb.finish()


def _looped(trips_expr):
    kb = KernelBuilder("l")
    n = kb.scalar("n")
    a = kb.array("a", f32, (n,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("k", 0, trips_expr(n)) as k:
            kb.assign(acc, acc + a[gi,])
        a[gi,] = acc
    return kb.finish()


class TestThreadCost:
    def test_stencil_bytes(self):
        model = KernelCostModel(SPEC)
        cost = model.thread_cost(_stencil(), {"n": 64})
        # 4 loads + 1 store of f32 = 20 bytes (no loop, no reuse discount).
        assert cost.bytes == pytest.approx(20.0)
        assert cost.flops > 0

    def test_loop_multiplies_and_discounts(self):
        model = KernelCostModel(SPEC)
        k1 = _looped(lambda n: n * 0 + 1)
        k10 = _looped(lambda n: n * 0 + 10)
        c1 = model.thread_cost(k1, {"n": 8})
        c10 = model.thread_cost(k10, {"n": 8})
        # flops grow with the trip count (loop body repeated 10x).
        assert c10.flops > c1.flops * 3
        # loads inside the loop are reuse-discounted by the spec factor.
        loop_bytes_1 = c1.bytes - 4  # minus the store outside the loop
        loop_bytes_10 = c10.bytes - 4
        assert loop_bytes_10 == pytest.approx(10 * loop_bytes_1)
        assert loop_bytes_1 == pytest.approx(4 / SPEC.cache_reuse_factor)

    def test_symbolic_trip_count(self):
        model = KernelCostModel(SPEC)
        k = _looped(lambda n: n)
        c_small = model.thread_cost(k, {"n": 4})
        c_big = model.thread_cost(k, {"n": 400})
        assert c_big.flops > c_small.flops * 50


class TestLaunchTime:
    def test_roofline_max(self):
        model = KernelCostModel(SPEC)
        k = _stencil()
        t = model(k, 16, Dim3(16, 16), {"n": 64})
        n_threads = 16 * 256
        cost = model.thread_cost(k, {"n": 64})
        expect = max(
            cost.flops * n_threads / SPEC.flops_per_gpu,
            cost.bytes * n_threads / SPEC.mem_bw_per_gpu,
        )
        assert t == pytest.approx(expect)

    def test_scales_with_blocks(self):
        model = KernelCostModel(SPEC)
        k = _stencil()
        t1 = model(k, 10, Dim3(16, 16), {"n": 64})
        t2 = model(k, 20, Dim3(16, 16), {"n": 64})
        assert t2 == pytest.approx(2 * t1)

    def test_threadcost_algebra(self):
        a = ThreadCost(1.0, 2.0)
        b = ThreadCost(3.0, 4.0)
        assert (a + b).flops == 4.0 and (a + b).bytes == 6.0
        assert a.scaled(3).bytes == 6.0


class TestMemo:
    """thread_cost is memoized per kernel on the loop-bound scalars only."""

    def _count_walks(self, model, monkeypatch):
        walks = []
        real = model._walk
        monkeypatch.setattr(
            model, "_walk", lambda k, s: walks.append(k.name) or real(k, s)
        )
        return walks

    def test_memoized_durations_are_bit_identical(self):
        from repro.workloads.cholesky import CholeskyWorkload
        from repro.workloads.common import functional_config

        chol = CholeskyWorkload(functional_config("cholesky", size=64))
        warm = KernelCostModel(SPEC)
        cases = [(_stencil(), {"n": n}) for n in (64, 64, 128)]
        cases += [(_looped(lambda n: n), {"n": n}) for n in (4, 400, 4, 4.0)]
        for kernel in chol.build_kernels():
            for off in (0, 8, 16, 8):
                cases.append((kernel, {"b0": off, "bi0": off, "bj0": 0, "bk0": off}))
        for kernel, scalars in cases:
            fresh = KernelCostModel(SPEC)
            assert warm(kernel, 7, Dim3(8, 8), scalars) == fresh(
                kernel, 7, Dim3(8, 8), scalars
            )
            assert warm.thread_cost(kernel, scalars) == fresh.thread_cost(kernel, scalars)

    def test_offsets_outside_loop_bounds_share_one_walk(self, monkeypatch):
        from repro.workloads.cholesky import build_gemm_kernel

        model = KernelCostModel(SPEC)
        walks = self._count_walks(model, monkeypatch)
        gemm = build_gemm_kernel(64, 8)
        for bi0 in (8, 16, 24):
            model(gemm, 1, Dim3(8, 8), {"bi0": bi0, "bj0": 0, "bk0": 0})
        assert walks == ["gemm_tile"]

    def test_loop_bound_values_are_keyed_by_type_and_value(self, monkeypatch):
        model = KernelCostModel(SPEC)
        walks = self._count_walks(model, monkeypatch)
        k = _looped(lambda n: n)
        for n in (4, 400, 4, 4.0, 400):
            model.thread_cost(k, {"n": n})
        assert len(walks) == 3  # 4, 400, 4.0

    def test_unhashable_scalar_is_costed_without_the_memo(self):
        import numpy as np

        k = _looped(lambda n: n)
        model = KernelCostModel(SPEC)
        assert model.thread_cost(k, {"n": np.array(40)}) == model.thread_cost(k, {"n": 40})
