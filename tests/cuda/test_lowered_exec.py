"""Lowered kernel execution against the tree-walking interpreter.

An untraced :func:`run_kernel` runs the kernel's lowered form
(:mod:`repro.cuda.exec.lower`); a traced one runs the interpreter, the
oracle. Every test here runs both on identical inputs and demands bitwise
identical arrays, or the identical error:

* every launch of the six functional workloads — original kernels on the
  single-GPU reference, partitioned clones for every partition at 1, 2 and
  4 GPUs — on the recorded inputs and on seeded random refills;
* a hypothesis property over the analysis-vs-execution kernel strategies,
  extended with lane-varying loops, uniform ``If``, ``Select``, min/max,
  uniform loads and stores, ``exp``/``log``/``pow``/``rsqrt`` on uniform
  and lane arguments, and the odd out-of-bounds access;
* error parity: out-of-bounds accesses on active lanes, none on inactive
  lanes, missing partition fields and arguments, unbound names.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.compiler.kernel_partition import partition_kernel
from repro.compiler.pipeline import compile_app
from repro.compiler.strategy import PartitionStrategy
from repro.cuda.api import CudaApi, resolve_array_shapes
from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import f32, f64, i64
from repro.cuda.exec import interpreter
from repro.cuda.exec.interpreter import AccessTrace, eval_scalar_expr, run_kernel
from repro.cuda.exec.lower import lower_kernel, lowered
from repro.cuda.ir.builder import KernelBuilder, Val
from repro.cuda.ir.exprs import BinOp, Call, Const, GridIdx, Load, LocalRef, Param
from repro.cuda.ir.kernel import ArrayParam, Kernel, partition_field_name
from repro.cuda.ir.stmts import For, If, Let, Store
from repro.runtime import MultiGpuApi, RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config
from repro.errors import ExecutionError
from tests.integration.test_analysis_vs_execution import (
    BLOCK,
    BLOCK2,
    GRID,
    GRID2,
    M,
    N,
    _build,
    _build_2d,
    kernel_specs,
    kernel_specs_2d,
)

WORKLOADS = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}
PART_FIELDS = ("min_z", "max_z", "min_y", "max_y", "min_x", "max_x")


def _copy_args(args):
    return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in args.items()}


def _outcome(kernel, grid, block, args, *, traced):
    """Arrays after one launch (bytes, so NaN payloads compare too) or the error."""
    args = _copy_args(args)
    try:
        with np.errstate(all="ignore"):
            run_kernel(kernel, grid, block, args, trace=AccessTrace() if traced else None)
    except ExecutionError as exc:
        return ("error", str(exc))
    arrays = {k: v for k, v in args.items() if isinstance(v, np.ndarray)}
    return ("ok", {k: (v.dtype.str, v.tobytes()) for k, v in arrays.items()})


def assert_same(kernel, grid, block, args):
    """Lowered and interpreted execution agree bit for bit; returns the outcome."""
    oracle = _outcome(kernel, grid, block, args, traced=True)
    assert _outcome(kernel, grid, block, args, traced=False) == oracle, lower_kernel(kernel)[0]
    return oracle


# -- (a) every kernel of the six functional workloads ------------------------------


def _record_launches(name):
    """Launches of one workload: single-GPU reference plus 1/2/4-GPU runs."""
    records, seen = [], set()

    def recorder(real, n_gpus):
        def run(kernel, grid, block, args, *, trace=None):
            part = tuple(args.get(partition_field_name("partition", f)) for f in PART_FIELDS)
            key = (kernel.name, kernel.is_partitioned, n_gpus, part)
            if key not in seen:
                seen.add(key)
                records.append((kernel, Dim3.of(grid), Dim3.of(block), _copy_args(args)))
            return real(kernel, grid, block, args, trace=trace)

        return run

    workload = WORKLOADS[name](functional_config(name, iterations=2))
    inputs = workload.make_inputs(seed=7)
    app = compile_app(workload.build_kernels())
    import repro.cuda.api as api_mod
    import repro.runtime.launch as launch_mod
    import repro.sched.executor as executor_mod

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(api_mod, "run_kernel", recorder(api_mod.run_kernel, 0))
        workload.run(CudaApi(), inputs)
        for n_gpus in (1, 2, 4):
            mp.setattr(executor_mod, "run_kernel", recorder(run_kernel, n_gpus))
            mp.setattr(launch_mod, "run_kernel", recorder(run_kernel, n_gpus))
            workload.run(MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus)), inputs)
    return records


def _refill(args, rng):
    out = {}
    for k, v in args.items():
        if isinstance(v, np.ndarray) and v.dtype.kind == "f":
            v = rng.standard_normal(v.shape).astype(v.dtype)
        out[k] = v
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_kernels_match_interpreter(name):
    records = _record_launches(name)
    originals = {k.name for k, *_ in records if not k.is_partitioned}
    clones = {k.name for k, *_ in records if k.is_partitioned}
    assert originals and clones, (originals, clones)
    rng = np.random.default_rng(2020)
    for kernel, grid, block, args in records:
        assert assert_same(kernel, grid, block, args)[0] != "error"
        assert_same(kernel, grid, block, _refill(args, rng))


# -- (b) hypothesis property ---------------------------------------------------------


def _call(fn, *args):
    return Val(Call(fn, tuple(a.expr for a in args)))


@st.composite
def extensions(draw):
    """Extra statements appended to a generated kernel's body."""
    return dict(
        loop_lo=draw(st.integers(0, 3)),
        loop_hi=draw(st.integers(0, 6)),
        varying_lo=draw(st.booleans()),
        varying_hi=draw(st.booleans()),
        uniform_if=draw(st.integers(-1, 2)),
        select_at=draw(st.integers(0, N)),
        clamp=(draw(st.floats(-2, 0)), draw(st.floats(0, 2))),
        math_on_lanes=draw(st.booleans()),
        guard_store=draw(st.booleans()),
        fdiv=draw(st.booleans()),
        # Occasionally out of bounds: a uniform load past ``aux`` for large
        # ``m``, a lane-varying store past ``out`` on the last lane.
        aux_off=draw(st.integers(0, 12)),
        out_off=draw(st.sampled_from([0, 0, 0, 1])),
    )


def _extend(base: Kernel, ext, lanes_axis: str) -> Kernel:
    """``base`` plus the drawn extension, over an extra ``aux``/``out`` pair."""
    kb = KernelBuilder(base.name + "_ext")
    m = kb.scalar("m")
    aux = kb.array("aux", f32, (16,))
    out = kb.array("out", f64, (N,))
    gi = kb.global_id(lanes_axis) if lanes_axis == "x" else kb.global_id("x") + kb.global_id("y")
    acc = kb.let("e_acc", kb.f32const(0.0))
    lo = gi % 4 + ext["loop_lo"] if ext["varying_lo"] else Val(Const(ext["loop_lo"], i64))
    hi = gi % 7 + ext["loop_hi"] if ext["varying_hi"] else m + ext["loop_hi"] - 4
    with kb.for_range("e_j", lo, hi) as j:
        u = kb.let("e_u", aux[j % 16])
        kb.assign(acc, acc + aux[(j * 3) % 16] * u)
        with kb.if_(m > ext["uniform_if"]):
            kb.assign(acc, kb.maximum(acc, kb.minimum(aux[j % 16], ext["clamp"][1])))
    with kb.if_(m > ext["uniform_if"]):
        kb.assign(acc, kb.select(gi < ext["select_at"], acc, kb.maximum(acc, ext["clamp"][0])))
    with kb.for_range("e_k", 0, 3) as k:
        a = aux[k + 1] if not ext["math_on_lanes"] else acc + aux[k + 1]
        pos = kb.abs(a) + 0.5
        kb.assign(acc, acc + _call("exp", kb.minimum(a, 3.0)) * kb.f32const(0.25))
        kb.assign(acc, acc + _call("log", pos) + kb.rsqrt(pos))
        kb.assign(acc, acc + _call("pow", pos, aux[k] if ext["math_on_lanes"] else acc))
        if ext["fdiv"]:
            kb.assign(acc, acc + (a // 0.75) + (a % 1.5) + a / pos)
    guard = (gi < N) if ext["guard_store"] else (gi >= 0)
    with kb.if_(guard):
        out[gi % N + ext["out_off"]] = acc + aux[m + ext["aux_off"]]
        # Every active lane stores to one cell: the last active lane wins.
        out[0] = acc + gi
        aux[m % 16] = aux[(m + 1) % 16] * 2.0
    ext_kernel = kb.finish()
    params = base.params + tuple(p for p in ext_kernel.params if p.name not in {"src", "dst"})
    return Kernel(base.name + "_ext", params, base.body + ext_kernel.body)


def _inputs(rng, src_shape):
    return {
        "src": rng.standard_normal(src_shape).astype(np.float32),
        "dst": rng.standard_normal(src_shape).astype(np.float32),
        "aux": rng.standard_normal(16).astype(np.float32),
        "out": np.zeros(N, dtype=np.float64),
        "m": int(rng.integers(0, 6)),
    }


def _check_partitions(kernel, grid, axis, args):
    pk = partition_kernel(kernel)
    for n_parts in (1, 2, 3):
        for part in PartitionStrategy(axis=axis).partitions(grid, n_parts):
            if part.is_empty:
                continue
            pargs = dict(args)
            for f, v in zip(PART_FIELDS, part.as_tuple()):
                pargs[partition_field_name("partition", f)] = v
            assert_same(pk, part.grid(), BLOCK if axis == "x" else BLOCK2, pargs)


@seed(20200817)
@settings(max_examples=60, deadline=None)
@given(kernel_specs(), extensions(), st.integers(0, 2**32 - 1))
def test_lowered_matches_interpreter_1d(spec, ext, data_seed):
    kernel = _extend(_build(spec), ext, "x")
    args = _inputs(np.random.default_rng(data_seed), (N,))
    assert_same(kernel, GRID, BLOCK, args)
    _check_partitions(kernel, GRID, "x", args)


@seed(20200818)
@settings(max_examples=40, deadline=None)
@given(kernel_specs_2d(), extensions(), st.integers(0, 2**32 - 1))
def test_lowered_matches_interpreter_2d(spec, ext, data_seed):
    kernel = _extend(_build_2d(spec), ext, "xy")
    args = _inputs(np.random.default_rng(data_seed), (M, M))
    assert_same(kernel, GRID2, BLOCK2, args)
    _check_partitions(kernel, GRID2, "y", args)


def test_uniform_and_lane_math_round_alike():
    """exp/log/pow/rsqrt of a uniform load equal their lane-array values."""
    kb = KernelBuilder("math")
    a = kb.array("a", f32, (8,))
    out = kb.array("out", f32, (8, 4))
    gi = kb.global_id("x")
    x = kb.abs(a[3]) + 0.5
    out[gi, 0] = _call("exp", x)
    out[gi, 1] = _call("log", x)
    out[gi, 2] = _call("pow", x, a[gi] + kb.f32const(0.0))
    out[gi, 3] = kb.rsqrt(x)
    k = kb.finish()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal(8).astype(np.float32) * 20
        args = {"a": a, "out": np.zeros((8, 4), np.float32)}
        assert_same(k, Dim3(1), Dim3(8), args)


# -- (c) error parity ----------------------------------------------------------------


def _guarded_kernel(read_off: int, write_off: int, uniform: bool):
    kb = KernelBuilder("oob")
    n = kb.scalar("n")
    src = kb.array("src", f32, (16,))
    dst = kb.array("dst", f32, (16,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        idx = n + read_off if uniform else gi + read_off
        dst[gi + write_off] = src[idx]
    return kb.finish()


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize(
    "read_off,write_off,message",
    [
        (0, 0, None),
        (17, 0, "out-of-bounds index"),
        (-17, 0, "out-of-bounds index"),
        (0, 9, "out-of-bounds store index"),
    ],
)
def test_oob_on_active_lanes_raises_same_error(uniform, read_off, write_off, message):
    if uniform and read_off == 0:
        read_off = -8  # n - 8 is in bounds for n = 8
    k = _guarded_kernel(read_off, write_off, uniform)
    args = {"n": 8, "src": np.arange(16, dtype=np.float32), "dst": np.zeros(16, np.float32)}
    got = assert_same(k, Dim3(2), Dim3(8), args)
    if message is None:
        assert got[0] != "error"
    else:
        assert got[0] == "error" and message in got[1], got


def test_oob_on_inactive_lanes_does_not_raise():
    """Lanes 8..15 would read src[-1..] and store past dst, but are masked off."""
    kb = KernelBuilder("inactive")
    n = kb.scalar("n")
    src = kb.array("src", f32, (8,))
    dst = kb.array("dst", f32, (8,))
    gi = kb.global_id("x")
    with kb.if_(gi < n):
        dst[gi] = src[n - 1 - gi] + src[gi]
        with kb.for_range("j", 0, gi + 1) as j:
            dst[gi] = dst[gi] + src[j]
    k = kb.finish()
    args = {"n": 8, "src": np.arange(8, dtype=np.float32), "dst": np.zeros(8, np.float32)}
    assert assert_same(k, Dim3(2), Dim3(8), args)[0] != "error"


def test_unguarded_store_to_one_cell_is_bounds_checked():
    kb = KernelBuilder("cell")
    n = kb.scalar("n")
    dst = kb.array("dst", f32, (4,))
    dst[n] = kb.f32const(1.0) + kb.global_id("x")
    k = kb.finish()
    ok = assert_same(k, Dim3(1), Dim3(8), {"n": 3, "dst": np.zeros(4, np.float32)})
    assert ok[1]["dst"][1] == np.array([0, 0, 0, 8], np.float32).tobytes()
    bad = assert_same(k, Dim3(1), Dim3(8), {"n": 4, "dst": np.zeros(4, np.float32)})
    assert bad == ("error", "out-of-bounds index 4 in dim 0 (extent 4)")


def test_missing_partition_field_and_argument_raise_same_error(copy_kernel):
    pk = partition_kernel(copy_kernel)
    arrays = {"src": np.zeros(64, np.float32), "dst": np.zeros(64, np.float32)}
    names = [p.name for p in copy_kernel.scalar_params]
    full = {**arrays, **{s: 64 for s in names}}
    bounds = zip(PART_FIELDS, (0, 1, 0, 1, 0, 2))
    full.update({partition_field_name("partition", f): v for f, v in bounds})
    assert assert_same(pk, Dim3(2), Dim3(32), full)[0] != "error"
    for drop, text in [
        (partition_field_name("partition", "max_x"), "missing field"),
        ("src", "missing argument"),
    ]:
        args = {k: v for k, v in full.items() if k != drop}
        got = assert_same(pk, Dim3(2), Dim3(32), args)
        assert got[0] == "error" and text in got[1]
    got = assert_same(pk, Dim3(2), Dim3(32), {**full, "src": np.zeros((8, 8), np.float32)})
    assert got[0] == "error" and "must be a 1-d ndarray" in got[1]


def test_unbound_names_raise_same_error():
    out = ArrayParam("out", f32, (Const(8, i64),))
    cases = [
        # a scalar the kernel never declares
        (Store("out", (Const(0, i64),), Param("n", i64)),),
        # a local read after the scope that bound it ended
        (For("j", Const(0, i64), Const(2, i64), (Let("t", Const(1.0, f32)),)),
         Store("out", (Const(0, i64),), LocalRef("t", f32))),
        # a loop-body local read before its binding on the first iteration
        (For("j", Const(0, i64), Const(2, i64), (
            Store("out", (LocalRef("j", i64),), LocalRef("t", f32)),
            Let("t", Const(1.0, f32)),
        )),),
        # a store through a name that is no array
        (Store("nowhere", (Const(0, i64),), Const(1.0, f32)),),
    ]
    for body in cases:
        k = Kernel("unbound", (out,), body)
        got = assert_same(k, Dim3(1), Dim3(4), {"out": np.zeros(8, np.float32)})
        assert got[0] == "error", body


def test_lowering_is_memoized_on_the_kernel(copy_kernel):
    fn = lowered(copy_kernel)
    assert lowered(copy_kernel) is fn
    # Memoized by identity: an equal kernel (same dataclass hash) gets its own.
    twin = Kernel(copy_kernel.name, copy_kernel.params, copy_kernel.body)
    assert twin == copy_kernel and lowered(twin) is not fn


def test_rebinding_a_local_keeps_inactive_lanes_exact():
    """A Let over a live name exposes inactive lanes; lowering stays exact."""
    src = ArrayParam("src", f32, (Const(8, i64),))
    dst = ArrayParam("dst", f32, (Const(8, i64),))
    tid = GridIdx("threadIdx", "x")
    body = (
        Let("v", Const(0.0, f32)),
        If(BinOp("lt", tid, Const(3, i64)), (Let("v", Load("src", (Const(5, i64),), f32)),)),
        Store("dst", (tid,), LocalRef("v", f32)),
    )
    k = Kernel("rebind", (src, dst), body)
    args = {"src": np.arange(8, dtype=np.float32) + 1, "dst": np.zeros(8, np.float32)}
    assert_same(k, Dim3(1), Dim3(8), args)


# -- scalar evaluation on the shared one-lane grid -------------------------------------


def test_shape_resolution_unchanged():
    """Shapes resolve as before; the shared one-lane grid stays pristine."""
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name](functional_config(name))
        for kernel in workload.build_kernels():
            scalars = {p.name: 5 for p in kernel.scalar_params}
            expect = {}
            for p in kernel.array_params:
                fresh = interpreter._Lanes(Dim3(1), Dim3(1))
                frame = interpreter._Frame({k: np.asarray(v)[()] for k, v in scalars.items()})
                expect[p.name] = tuple(
                    int(interpreter._eval(e, fresh, frame, None)) for e in p.shape
                )
            assert dict(resolve_array_shapes(kernel, scalars)) == expect
            assert dict(resolve_array_shapes(kernel, scalars)) == expect
    k = KernelBuilder("s")
    n = k.scalar("n")
    assert eval_scalar_expr((n * 4 + 2).expr, {"n": 10}) == 42
    assert eval_scalar_expr((k.threadIdx.x + 3).expr, {}) == 3
    assert not interpreter._ONE_LANE.thread_idx["x"].flags.writeable
