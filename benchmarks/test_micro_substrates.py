"""Microbenchmarks of the load-bearing substrates.

Not a paper figure — these watch the performance of the pieces the toolchain
leans on hardest: Fourier-Motzkin projection, emptiness/injectivity proofs,
scanner compilation, B-tree operations and kernel execution (the lowered
form ``run_kernel`` runs, and the tree-walking interpreter it is checked
against).
"""

import numpy as np
import pytest

from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.legality import check_partitionable
from repro.cuda.dim3 import Dim3
from repro.cuda.exec import interpreter
from repro.cuda.exec.interpreter import run_kernel
from repro.poly import parse_basic_set
from repro.poly.codegen import compile_scanner
from repro.runtime.btree import BTreeMap
from repro.workloads.hotspot import build_hotspot_kernel
from repro.workloads.matmul import build_matmul_kernel


def test_micro_fm_projection(benchmark):
    s = parse_basic_set(
        "[n, m] -> { [a, b, c, d] : 0 <= a < n and a <= b < a + m "
        "and b <= c < b + m and c <= d < c + m }"
    )
    result = benchmark(lambda: s.project_out(["b", "c", "d"]))
    assert result.space.out_dims == ("a",)


def test_micro_emptiness(benchmark):
    s = parse_basic_set(
        "[n] -> { [x, y, z] : 0 <= x < n and x <= y <= x + 4 "
        "and 2*z = x + y and z > x + 3 and z < x + 1 }"
    )
    assert benchmark(s.is_empty)


def test_micro_scanner_compilation(benchmark):
    s = parse_basic_set("[n, lo, hi] -> { [y, x] : lo <= y < hi and 0 <= x < n and x <= y }")
    scan = benchmark(lambda: compile_scanner(s, ["n", "lo", "hi"]))
    out = []
    scan((64, 0, 64), lambda row, a, b: out.append((row, a, b)))
    assert out


def test_micro_kernel_analysis(benchmark):
    kernel = build_hotspot_kernel(512)
    info = benchmark(lambda: analyze_kernel(kernel))
    assert info.partitionable


def test_micro_injectivity_proof(benchmark):
    info = analyze_kernel(build_matmul_kernel(256))
    axes = benchmark(lambda: check_partitionable(info))
    assert axes is not None


def test_micro_btree_mixed_ops(benchmark):
    keys = np.random.default_rng(0).integers(0, 1 << 20, 4000).tolist()

    def run():
        bt = BTreeMap(8)
        for k in keys:
            bt.insert(k, k)
        for k in keys[::2]:
            bt.delete(k)
        hits = sum(1 for k in keys if bt.floor(k) is not None)
        return hits

    assert benchmark(run) > 0


def _stencil_launch():
    n = 256
    kernel = build_hotspot_kernel(n)
    src = np.random.default_rng(0).random((n, n), dtype=np.float32).reshape(n, n)
    dst = np.zeros((n, n), dtype=np.float32)
    return kernel, Dim3(n // 16, n // 16), Dim3(16, 16), {"temp_in": src, "temp_out": dst}


def test_micro_interpreter_throughput(benchmark):
    """Vectorized stencil execution through ``run_kernel`` (the lowered form)."""
    kernel, grid, block, args = _stencil_launch()

    def run():
        run_kernel(kernel, grid, block, args)
        return args["temp_out"]

    out = benchmark(run)
    assert out[1, 1] != 0.0


def test_micro_tree_interpreter_throughput(benchmark):
    """The same launch on the tree-walking interpreter (the untraced oracle)."""
    kernel, grid, block, args = _stencil_launch()

    def run():
        lanes = interpreter._Lanes(grid, block)
        frame = interpreter._Frame(interpreter._bind_args(kernel, args))
        interpreter._run_body(kernel.body, lanes, frame, None)
        return args["temp_out"]

    out = benchmark(run)
    assert out[1, 1] != 0.0
