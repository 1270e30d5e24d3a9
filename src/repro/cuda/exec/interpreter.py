"""Vectorized numpy interpreter for mini-CUDA kernels.

The interpreter executes a kernel for every thread of a launch grid *at
once*: each IR expression evaluates to a numpy array over the flat lane
axis (one lane per thread). Structured control flow becomes lane masking —
``If`` narrows the active mask, loops with lane-varying bounds iterate over
the union range with per-lane activity. This follows the numpy-vectorization
idiom (no per-thread Python loops) while preserving CUDA's semantics:

* thread blocks are independent (nothing here synchronizes lanes);
* arrays are row-major and shared across all lanes;
* concurrent writes to one cell have no defined order (numpy fancy-index
  assignment keeps the last occurrence, a valid realization).

:func:`run_kernel` is the single entry point. An untraced launch runs the
kernel's lowered form (:mod:`repro.cuda.exec.lower`: straight-line numpy
source compiled once per kernel). This tree-walking interpreter is the
oracle that lowered execution must match bit for bit, and the
instrumentation path: a launch with an :class:`AccessTrace` runs here.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.cuda.dim3 import Dim3
from repro.cuda.dtypes import DType, boolean, f64, i64
from repro.cuda.ir.exprs import (
    BinOp,
    Call,
    Const,
    Expr,
    GridIdx,
    Load,
    LocalRef,
    Param,
    Select,
    UnOp,
)
from repro.cuda.ir.kernel import ArrayParam, Kernel, PartitionParam
from repro.cuda.ir.stmts import Assign, Body, For, If, Let, Store
from repro.errors import ExecutionError

__all__ = ["run_kernel", "eval_scalar_expr", "AccessTrace"]


class AccessTrace:
    """Ground-truth access record of one launch (instrumented execution).

    Collects, per array argument, the set of *flattened* element indices
    actually loaded and stored by active threads. Used by the property
    tests to validate the polyhedral access analysis against reality, and
    by debug tooling to audit scanned write sets.

    With ``record_lanes=True`` the trace additionally keeps, per array and
    per written cell, the set of *lane ids* that stored to it (``writers``).
    Lane ids follow the interpreter's flat lane order — blocks in z,y,x-major
    order, then threads within the block. This is the replay hook the static
    race detector (:mod:`repro.analysis.replay`) uses to confirm that both
    threads of a witness really write the same cell.
    """

    def __init__(self, *, record_lanes: bool = False) -> None:
        self.reads: Dict[str, set] = {}
        self.writes: Dict[str, set] = {}
        self.record_lanes = record_lanes
        #: ``{array: {flat_cell_index: {lane_id, ...}}}`` (only populated
        #: when ``record_lanes`` is set).
        self.writers: Dict[str, Dict[int, set]] = {}
        self.readers: Dict[str, Dict[int, set]] = {}

    @staticmethod
    def _record_lanes(per_cell: Dict[int, set], flat_indices, lane_ids) -> None:
        cells = np.asarray(flat_indices).ravel().tolist()
        lanes = np.asarray(lane_ids).ravel().tolist()
        for cell, lane in zip(cells, lanes):
            per_cell.setdefault(int(cell), set()).add(int(lane))

    def record_read(self, array: str, flat_indices, lane_ids=None) -> None:
        self.reads.setdefault(array, set()).update(np.unique(flat_indices).tolist())
        if self.record_lanes and lane_ids is not None:
            self._record_lanes(self.readers.setdefault(array, {}), flat_indices, lane_ids)

    def record_write(self, array: str, flat_indices, lane_ids=None) -> None:
        self.writes.setdefault(array, set()).update(np.unique(flat_indices).tolist())
        if self.record_lanes and lane_ids is not None:
            self._record_lanes(self.writers.setdefault(array, {}), flat_indices, lane_ids)


class _Lanes:
    """Per-launch lane state: grid coordinates, arrays, locals, mask."""

    trace: Optional[AccessTrace] = None

    def __init__(self, grid: Dim3, block: Dim3) -> None:
        gz, gy, gx = grid.zyx()
        bz, by, bx = block.zyx()
        # Lane order: blocks in z,y,x-major order, then threads within block.
        coords = np.indices((gz, gy, gx, bz, by, bx), dtype=np.int64)
        flat = coords.reshape(6, -1)
        self.block_idx = {"z": flat[0], "y": flat[1], "x": flat[2]}
        self.thread_idx = {"z": flat[3], "y": flat[4], "x": flat[5]}
        self.block_dim = {"z": bz, "y": by, "x": bx}
        self.grid_dim = {"z": gz, "y": gy, "x": gx}
        self.n = flat.shape[1]


class _Frame:
    """Name bindings for the current launch (params, locals, loop vars).

    Scoping is handled by snapshotting the bound names around nested bodies:
    names introduced inside (``Let``, loop variables) are dropped on exit,
    while masked ``Assign`` updates to pre-existing locals persist.
    """

    def __init__(self, values: Dict[str, object]) -> None:
        self.values = values


def _np_const(value, dtype: DType):
    return np.asarray(value, dtype=dtype.to_numpy())[()]


def _eval(expr: Expr, lanes: _Lanes, frame: _Frame, mask: Optional[np.ndarray]):
    if isinstance(expr, Const):
        return _np_const(expr.value, expr._dtype)
    if isinstance(expr, GridIdx):
        if expr.register == "threadIdx":
            return lanes.thread_idx[expr.axis]
        if expr.register == "blockIdx":
            return lanes.block_idx[expr.axis]
        if expr.register == "blockDim":
            return np.int64(lanes.block_dim[expr.axis])
        if expr.register == "gridDim":
            return np.int64(lanes.grid_dim[expr.axis])
        # blockOff.w == blockIdx.w * blockDim.w (Section 4.1).
        return lanes.block_idx[expr.axis] * np.int64(lanes.block_dim[expr.axis])
    if isinstance(expr, (Param, LocalRef)):
        try:
            return frame.values[expr.name]
        except KeyError:
            raise ExecutionError(f"unbound name {expr.name!r} during execution") from None
    if isinstance(expr, BinOp):
        a = _eval(expr.lhs, lanes, frame, mask)
        b = _eval(expr.rhs, lanes, frame, mask)
        return _binop(expr.op, a, b)
    if isinstance(expr, UnOp):
        v = _eval(expr.operand, lanes, frame, mask)
        return np.logical_not(v) if expr.op == "not" else -v
    if isinstance(expr, Call):
        args = [_eval(a, lanes, frame, mask) for a in expr.args]
        return _call(expr.fn, args)
    if isinstance(expr, Select):
        c = _eval(expr.cond, lanes, frame, mask)
        t = _eval(expr.on_true, lanes, frame, mask)
        f = _eval(expr.on_false, lanes, frame, mask)
        return np.where(c, t, f)
    if isinstance(expr, Load):
        return _load(expr, lanes, frame, mask)
    raise ExecutionError(f"unknown expression node {expr!r}")


def _binop(op: str, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return _div(a, b)
    if op == "fdiv":
        return a // b
    if op == "mod":
        return a % b
    if op == "min":
        return np.minimum(a, b)
    if op == "max":
        return np.maximum(a, b)
    if op == "lt":
        return a < b
    if op == "le":
        return a <= b
    if op == "gt":
        return a > b
    if op == "ge":
        return a >= b
    if op == "eq":
        return a == b
    if op == "ne":
        return a != b
    if op == "and":
        return np.logical_and(a, b)
    if op == "or":
        return np.logical_or(a, b)
    raise ExecutionError(f"unknown binary op {op!r}")


def _div(a, b):
    # Float division for floats; floor division for integers (the IR's
    # kernels use explicit fdiv for index math, so this path is rare).
    if np.asarray(a).dtype.kind == "f" or np.asarray(b).dtype.kind == "f":
        return a / b
    return a // b


def _call(fn: str, args):
    if fn == "sqrt":
        return np.sqrt(args[0])
    if fn == "rsqrt":
        return np.reciprocal(np.sqrt(args[0]))
    if fn == "abs":
        return np.abs(args[0])
    if fn == "exp":
        return np.exp(args[0])
    if fn == "log":
        return np.log(args[0])
    if fn == "pow":
        return np.power(args[0], args[1])
    if fn == "floor":
        return np.floor(args[0])
    raise ExecutionError(f"unknown math function {fn!r}")


def _oob_error(index, d: int, extent: int, what: str = "index") -> ExecutionError:
    return ExecutionError(f"out-of-bounds {what} {int(index)} in dim {d} (extent {extent})")


def _lane_index(index, extent: int, mask, d: int, n: int, what: str = "index") -> np.ndarray:
    """One index dimension broadcast to the lanes, bounds-checked on active lanes."""
    idx = np.asarray(index)
    idx_b = np.broadcast_to(idx, (n,)) if idx.ndim == 0 else idx
    bad = (idx_b < 0) | (idx_b >= extent)
    if mask is not None:
        bad = bad & mask
    if np.any(bad):
        raise _oob_error(idx_b[int(np.argmax(bad))], d, extent, what)
    return idx_b


def _index_lanes(indices, lanes: _Lanes, frame: _Frame, mask, shape) -> Tuple[np.ndarray, ...]:
    """Evaluate index expressions, broadcast to lanes, validate active lanes."""
    return tuple(
        _lane_index(_eval(e, lanes, frame, mask), shape[d], mask, d, lanes.n)
        for d, e in enumerate(indices)
    )


def _load(expr: Load, lanes: _Lanes, frame: _Frame, mask):
    arr = frame.values.get(expr.array)
    if not isinstance(arr, np.ndarray):
        raise ExecutionError(f"array argument {expr.array!r} is not bound to an ndarray")
    if mask is None:
        idx = _index_lanes(expr.indices, lanes, frame, mask, arr.shape)
        if lanes.trace is not None:
            flat = np.ravel_multi_index(idx, arr.shape)
            lanes.trace.record_read(expr.array, flat, np.arange(lanes.n))
        return arr[idx]
    # Inactive lanes read element 0; callers only consume them under `mask`.
    idx = _index_lanes(expr.indices, lanes, frame, mask, arr.shape)
    safe = tuple(np.where(mask, i, 0) for i in idx)
    if lanes.trace is not None and np.any(mask):
        flat = np.ravel_multi_index(tuple(s[mask] for s in safe), arr.shape)
        lanes.trace.record_read(expr.array, flat, np.nonzero(mask)[0])
    return arr[safe]


def _store(stmt: Store, lanes: _Lanes, frame: _Frame, mask) -> None:
    arr = frame.values.get(stmt.array)
    if not isinstance(arr, np.ndarray):
        raise ExecutionError(f"array argument {stmt.array!r} is not bound to an ndarray")
    value = np.asarray(_eval(stmt.value, lanes, frame, mask), dtype=arr.dtype)
    value_b = np.broadcast_to(value, (lanes.n,)) if value.ndim == 0 else value
    if mask is None:
        idx = _index_lanes(stmt.indices, lanes, frame, mask, arr.shape)
        if lanes.trace is not None:
            flat = np.ravel_multi_index(idx, arr.shape)
            lanes.trace.record_write(stmt.array, flat, np.arange(lanes.n))
        arr[idx] = value_b
        return
    if not np.any(mask):
        return
    idx_full = tuple(
        _lane_index(_eval(e, lanes, frame, mask), arr.shape[d], mask, d, lanes.n, "store index")
        [mask]
        for d, e in enumerate(stmt.indices)
    )
    if lanes.trace is not None:
        flat = np.ravel_multi_index(idx_full, arr.shape)
        lanes.trace.record_write(stmt.array, flat, np.nonzero(mask)[0])
    arr[idx_full] = value_b[mask]


def _run_body(body: Body, lanes: _Lanes, frame: _Frame, mask) -> None:
    for stmt in body:
        if isinstance(stmt, Let):
            frame.values[stmt.name] = _eval(stmt.value, lanes, frame, mask)
        elif isinstance(stmt, Assign):
            new = _eval(stmt.value, lanes, frame, mask)
            old = frame.values[stmt.name]
            if mask is None:
                frame.values[stmt.name] = new
            else:
                frame.values[stmt.name] = np.where(mask, new, old)
        elif isinstance(stmt, Store):
            _store(stmt, lanes, frame, mask)
        elif isinstance(stmt, If):
            cond = np.asarray(_eval(stmt.cond, lanes, frame, mask))
            cond_b = np.broadcast_to(cond, (lanes.n,)) if cond.ndim == 0 else cond
            then_mask = cond_b if mask is None else (mask & cond_b)
            if np.any(then_mask):
                _run_scoped(stmt.then, lanes, frame, then_mask)
            if stmt.orelse:
                else_mask = ~cond_b if mask is None else (mask & ~cond_b)
                if np.any(else_mask):
                    _run_scoped(stmt.orelse, lanes, frame, else_mask)
        elif isinstance(stmt, For):
            _run_for(stmt, lanes, frame, mask)
        else:
            raise ExecutionError(f"unknown statement {stmt!r}")


def _run_scoped(body: Body, lanes: _Lanes, frame: _Frame, mask) -> None:
    """Run a nested body; drop names it introduced, keep Assign updates."""
    before = set(frame.values)
    _run_body(body, lanes, frame, mask)
    for name in set(frame.values) - before:
        del frame.values[name]


def _run_for(stmt: For, lanes: _Lanes, frame: _Frame, mask) -> None:
    lo = np.asarray(_eval(stmt.lo, lanes, frame, mask))
    hi = np.asarray(_eval(stmt.hi, lanes, frame, mask))
    before = set(frame.values)
    if lo.ndim == 0 and hi.ndim == 0:
        # Uniform trip count: plain sequential loop, fully vectorized body.
        for k in range(int(lo), int(hi)):
            frame.values[stmt.var] = np.int64(k)
            _run_body(stmt.body, lanes, frame, mask)
    else:
        # Lane-varying bounds: iterate the union range with per-lane masking.
        lo_b = np.broadcast_to(lo, (lanes.n,))
        hi_b = np.broadcast_to(hi, (lanes.n,))
        active = mask if mask is not None else np.ones(lanes.n, dtype=bool)
        if np.any(hi_b[active] > lo_b[active]):
            k_min = int(lo_b[active].min())
            k_max = int(hi_b[active].max())
            for k in range(k_min, k_max):
                lane_mask = active & (lo_b <= k) & (k < hi_b)
                if not np.any(lane_mask):
                    continue
                frame.values[stmt.var] = np.int64(k)
                _run_body(stmt.body, lanes, frame, lane_mask)
    for name in set(frame.values) - before:
        del frame.values[name]


def _bind_args(kernel: Kernel, args: Mapping[str, object]) -> Dict[str, object]:
    """Check the launch arguments and bind every parameter name to its value."""
    values: Dict[str, object] = {}
    for p in kernel.params:
        if isinstance(p, PartitionParam):
            for f in p.field_names():
                if f not in args:
                    raise ExecutionError(f"partitioned kernel launch missing field {f!r}")
                values[f] = np.int64(args[f])
        else:
            if p.name not in args:
                raise ExecutionError(f"kernel launch missing argument {p.name!r}")
            v = args[p.name]
            if isinstance(p, ArrayParam):
                if not isinstance(v, np.ndarray) or v.ndim != p.ndim:
                    raise ExecutionError(
                        f"argument {p.name!r} must be a {p.ndim}-d ndarray, got {type(v)}"
                    )
                values[p.name] = v
            else:
                values[p.name] = _np_const(v, p.dtype)
    return values


def run_kernel(
    kernel: Kernel,
    grid,
    block,
    args: Mapping[str, object],
    *,
    trace: Optional[AccessTrace] = None,
) -> None:
    """Execute a kernel over a full launch grid.

    ``args`` binds every parameter name: array params to shaped numpy arrays
    (mutated in place by stores), scalar params to numbers, and — for
    partitioned kernels — the six reserved partition scalars.

    Without a trace the kernel runs in its lowered form, compiled on the
    first such launch and kept on the kernel object. Pass an
    :class:`AccessTrace` to run the tree-walking interpreter instead and
    record the ground-truth element indices every active thread loads and
    stores (instrumented execution).
    """
    lanes = _Lanes(Dim3.of(grid), Dim3.of(block))
    values = _bind_args(kernel, args)
    if trace is None:
        _lower.lowered(kernel)(values, lanes)
        return
    lanes.trace = trace
    _run_body(kernel.body, lanes, _Frame(values), None)


#: The one-lane grid scalar evaluation runs on. Built once: nothing writes
#: to a lane grid, and its coordinate arrays are frozen to keep it that way.
_ONE_LANE = _Lanes(Dim3(1), Dim3(1))
for _coords in (*_ONE_LANE.block_idx.values(), *_ONE_LANE.thread_idx.values()):
    _coords.flags.writeable = False


def eval_scalar_expr(expr: Expr, scalars: Mapping[str, object]):
    """Evaluate an expression that references only scalar parameters.

    Used for array shape expressions and loop trip counts at launch time.
    """
    frame = _Frame({k: np.asarray(v)[()] for k, v in scalars.items()})
    value = _eval(expr, _ONE_LANE, frame, None)
    return np.asarray(value)[()]


# Bound last: the lowering reuses this module's helpers.
from repro.cuda.exec import lower as _lower  # noqa: E402
