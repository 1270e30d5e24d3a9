"""Lower a kernel once to straight-line, lane-vectorized numpy source.

:func:`lowered` turns a :class:`~repro.cuda.ir.kernel.Kernel` into the
source of one Python function, compiles it and keeps it on the kernel
object, so every later untraced launch runs compiled code instead of
walking the IR tree (the ``poly/codegen`` idiom, applied to kernels).
The generated code computes exactly what the tree-walking interpreter
(:mod:`repro.cuda.exec.interpreter`, the oracle) computes, with the same
lane masks, numpy operations and error messages:

* every expression, loads included, becomes one inline Python expression,
  so Python's left-to-right evaluation meets errors in the oracle's order
  and frees each lane temporary as soon as it is consumed;
* ``Let`` and ``Assign`` become locals (``np.where`` under a lane mask);
* ``If`` becomes a mask plus ``if np.any(mask):``;
* a ``For`` with uniform bounds becomes a Python ``for``, one with
  lane-varying bounds iterates the union range with a per-lane mask.

A static uniformity pass tracks, for every value, whether the interpreter
holds it as one scalar or as a lane array. Constants, scalar params,
partition fields, ``blockDim``/``gridDim`` and loop variables are scalars
there. A load whose indices are all uniform becomes one bounds-checked
scalar read here, where the interpreter gathers it for every lane; such a
value is widened back to lanes wherever the lane shape could matter: when
it is bound to a local, and as an argument of ``exp``/``log``/``pow``,
whose vector and scalar numpy loops need not round alike.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.cuda.exec.interpreter import _binop, _call, _div, _lane_index, _np_const, _oob_error
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
from repro.cuda.ir.visitors import walk_body
from repro.errors import ExecutionError

__all__ = ["lowered", "lower_kernel"]

#: Scalar reads need numpy >= 2 promotion (NEP 50), where a numpy scalar
#: promotes like an array of its dtype. Older numpy promotes a scalar by
#: value against arrays, so a scalar read could change the dtype of later
#: arithmetic; there every load stays a lane gather, as in the interpreter.
_SCALAR_LOADS = int(np.__version__.split(".")[0]) >= 2

_BINOP_CODE = {
    "add": "({} + {})",
    "sub": "({} - {})",
    "mul": "({} * {})",
    "div": "_div({}, {})",
    "fdiv": "({} // {})",
    "mod": "({} % {})",
    "min": "np.minimum({}, {})",
    "max": "np.maximum({}, {})",
    "lt": "({} < {})",
    "le": "({} <= {})",
    "gt": "({} > {})",
    "ge": "({} >= {})",
    "eq": "({} == {})",
    "ne": "({} != {})",
    "and": "np.logical_and({}, {})",
    "or": "np.logical_or({}, {})",
}
_CALL_CODE = {
    "sqrt": "np.sqrt({})",
    "rsqrt": "np.reciprocal(np.sqrt({}))",
    "abs": "np.abs({})",
    "exp": "np.exp({})",
    "log": "np.log({})",
    "pow": "np.power({}, {})",
    "floor": "np.floor({})",
}
#: Calls that get lane arrays wherever the interpreter has them.
_LANE_CALLS = ("exp", "log", "pow")
_INT64 = np.dtype(np.int64)


class _Unbound:
    """Marks a local that is bound only on some iterations of a loop."""

    def __repr__(self) -> str:
        return "<unbound>"


_UNBOUND = _Unbound()


def _raise(error: Exception, *operands):
    """Raise ``error`` once its operands are evaluated (an expression)."""
    raise error


def _bound(value, name: str):
    if value is _UNBOUND:
        raise ExecutionError(f"unbound name {name!r} during execution")
    return value


def _array(value, error: ExecutionError) -> np.ndarray:
    if not isinstance(value, np.ndarray):
        raise error
    return value


def _in_bounds(index, extent: int, d: int, what: str = "index"):
    """A uniform index, checked once for all lanes."""
    if index < 0 or index >= extent:
        raise _oob_error(index, d, extent, what)
    return index


def _lanes_of(value, n: int):
    return np.broadcast_to(value, (n,)) if value.ndim == 0 else value


def _last_lane(mask) -> int:
    return len(mask) - 1 - int(np.argmax(mask[::-1]))


def _irange(lo, hi):
    return map(np.int64, range(int(lo), int(hi)))


_NAMESPACE = {
    "np": np,
    "_UNBOUND": _UNBOUND,
    "_raise": _raise,
    "_bound": _bound,
    "_array": _array,
    "_in_bounds": _in_bounds,
    "_lane_index": _lane_index,
    "_lanes_of": _lanes_of,
    "_last_lane": _last_lane,
    "_irange": _irange,
    "_div": _div,
    "_binop": _binop,
    "_call": _call,
}


class _Val(NamedTuple):
    """An emitted expression.

    ``kind`` is how the interpreter holds the value: ``"S"`` a scalar, ``"A"``
    a lane array, ``"D"`` either, decided at run time. ``scalar`` says the
    lowered code holds a scalar; with kind ``"A"`` that is a uniform load
    (or arithmetic on uniform loads) the interpreter would gather.
    """

    code: str
    kind: str
    scalar: bool
    dtype: Optional[np.dtype]

    @property
    def widened(self) -> "_Val":
        """This value as the interpreter's lane array, where they differ."""
        if self.scalar and self.kind == "A":
            return _Val(f"np.full(n, {self.code})", "A", False, self.dtype)
        return self


class _Var(NamedTuple):
    """What the lowering knows of one bound name at one program point."""

    bound: bool  # False: bound on some loop iterations only
    kind: str
    dtype: Optional[np.dtype]


Env = Dict[str, _Var]


def _kind_join(*kinds: str) -> str:
    """Interpreter kind of an elementwise result."""
    if "A" in kinds:
        return "A"
    return "S" if all(k == "S" for k in kinds) else "D"


#: Result dtypes by (operation, operand dtypes): a pure function of numpy.
_RESULT_DTYPES: Dict[tuple, Optional[np.dtype]] = {}


def _probe(op: tuple, fn, *dtypes) -> Optional[np.dtype]:
    """Result dtype of ``fn`` (operation ``op``) on operands of ``dtypes``."""
    if any(dt is None for dt in dtypes):
        return None
    key = (*op, *dtypes)
    if key not in _RESULT_DTYPES:
        try:
            with np.errstate(all="ignore"):
                _RESULT_DTYPES[key] = np.asarray(fn(*(np.ones(1, dt) for dt in dtypes))).dtype
        except (TypeError, ValueError, IndexError, ExecutionError):
            # The operation fails at run time too: there is no dtype to know.
            _RESULT_DTYPES[key] = None
    return _RESULT_DTYPES[key]


def _is_int(v: _Val) -> bool:
    return v.dtype is not None and v.dtype.kind in "iu"


def _join_envs(before: Env, *paths: Env) -> Env:
    """Names bound before a region, merged over the paths through it."""
    out = {}
    for name, (bound, kind, dtype) in before.items():
        for env in paths:
            other = env[name]
            bound = bound and other.bound
            kind = kind if kind == other.kind else "D"
            dtype = dtype if dtype == other.dtype else None
        out[name] = _Var(bound, kind, dtype)
    return out


class _Lowering:
    """Emits the source of one kernel function."""

    def __init__(self, kernel: Kernel, scalar_loads: bool) -> None:
        self.kernel = kernel
        self.scalar_loads = scalar_loads
        #: Set when inactive lanes' values can become observable (a ``Let``
        #: over a bound name, a read that may precede its binding, arrays
        #: reached through locals); the kernel is then lowered again with
        #: every load a lane gather, so inactive lanes match the oracle too.
        self.needs_exact = False
        self.lines: List[str] = []
        self.depth = 1
        self.n_tmp = 0
        self.consts: Dict[str, object] = {}
        self.registers: Dict[str, str] = {}
        self.pynames: Dict[str, str] = {}
        #: Names looked up while unbound (see ``loop``).
        self.misses: set = set()
        rebound = {s.name for s in walk_body(kernel.body) if isinstance(s, (Let, Assign))}
        rebound |= {s.var for s in walk_body(kernel.body) if isinstance(s, For)}
        #: Array params no statement rebinds: ``ndarray``s of known rank.
        self.arrays = {
            p.name: p.ndim
            for p in kernel.params
            if isinstance(p, ArrayParam) and p.name not in rebound
        }

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def tmp(self, prefix: str) -> str:
        self.n_tmp += 1
        return f"{prefix}{self.n_tmp}"

    def py(self, name: str) -> str:
        """The Python local holding IR name ``name``."""
        if name not in self.pynames:
            self.pynames[name] = f"v{len(self.pynames)}_" + re.sub(r"\W", "_", name)
        return self.pynames[name]

    def const(self, value) -> str:
        name = f"_c{len(self.consts)}"
        self.consts[name] = value
        return name

    # -- expressions ---------------------------------------------------------

    def expr(self, e: Expr, env: Env, mask: Optional[str]) -> _Val:
        if isinstance(e, Const):
            value = _np_const(e.value, e._dtype)
            return _Val(self.const(value), "S", True, value.dtype)
        if isinstance(e, GridIdx):
            return self.grid(e)
        if isinstance(e, (Param, LocalRef)):
            return self.read(e.name, env)
        if isinstance(e, Load):
            return self.load(e, env, mask)
        if isinstance(e, UnOp):
            v = self.expr(e.operand, env, mask)
            fn = "logical_not" if e.op == "not" else "negative"
            code = f"np.logical_not({v.code})" if e.op == "not" else f"(-{v.code})"
            return v._replace(code=code, dtype=_probe((fn,), getattr(np, fn), v.dtype))
        if not isinstance(e, (BinOp, Call, Select)):
            err = self.const(ExecutionError(f"unknown expression node {e!r}"))
            return _Val(f"_raise({err})", "S", True, None)
        if isinstance(e, BinOp):
            args = [self.expr(x, env, mask) for x in (e.lhs, e.rhs)]
            template = _BINOP_CODE.get(e.op, f"_binop({e.op!r}, {{}}, {{}})")
            fn = lambda x, y: _binop(e.op, x, y)  # noqa: E731
            dtype = _probe(("binop", e.op), fn, *(a.dtype for a in args))
        elif isinstance(e, Call):
            args = [self.expr(x, env, mask) for x in e.args]
            if e.fn in _LANE_CALLS:
                args = [a.widened for a in args]
            if _CALL_CODE.get(e.fn, "").count("{}") == len(args) > 0:
                template = _CALL_CODE[e.fn]
            else:  # the interpreter's own dispatch raises the same error
                template = f"_call({e.fn!r}, [{', '.join(['{}'] * len(args))}])"
            fn = lambda *xs: _call(e.fn, list(xs))  # noqa: E731
            dtype = _probe(("call", e.fn), fn, *(a.dtype for a in args))
        else:
            args = [self.expr(x, env, mask) for x in (e.cond, e.on_true, e.on_false)]
            template = "np.where({}, {}, {})"
            dtype = _probe(("where",), np.where, *(a.dtype for a in args))
        return _Val(
            template.format(*(a.code for a in args)),
            _kind_join(*(a.kind for a in args)),
            all(a.scalar for a in args),
            dtype,
        )

    def register(self, attr: str, axis: str, wrap: str = "{}") -> str:
        """A launch register; the ones of axes x/y/z are read once up front."""
        code = wrap.format(f"lanes.{attr}[{axis!r}]")
        if axis not in ("x", "y", "z"):
            return code
        self.registers[f"{attr}_{axis}"] = code
        return f"{attr}_{axis}"

    def grid(self, e: GridIdx) -> _Val:
        if e.register in ("threadIdx", "blockIdx"):
            attr = "thread_idx" if e.register == "threadIdx" else "block_idx"
            return _Val(self.register(attr, e.axis), "A", False, _INT64)
        if e.register in ("blockDim", "gridDim"):
            attr = "block_dim" if e.register == "blockDim" else "grid_dim"
            return _Val(self.register(attr, e.axis, "np.int64({})"), "S", True, _INT64)
        # blockOff.w == blockIdx.w * blockDim.w (Section 4.1).
        bi = self.register("block_idx", e.axis)
        bd = self.register("block_dim", e.axis, "np.int64({})")
        return _Val(f"({bi} * {bd})", "A", False, _INT64)

    def read(self, name: str, env: Env) -> _Val:
        var = env.get(name)
        if var is None:
            self.misses.add(name)
            err = self.const(ExecutionError(f"unbound name {name!r} during execution"))
            return _Val(f"_raise({err})", "S", True, None)
        code = self.py(name)
        if not var.bound:
            self.needs_exact = True
            code = f"_bound({code}, {name!r})"
        return _Val(code, var.kind, var.kind == "S", var.dtype)

    def array(self, name: str, rank: int, env: Env) -> Optional[str]:
        """Code of the array behind ``name``, or None for a known param.

        A known param is an array param of rank ``rank`` that nothing
        rebinds; its extents are the prologue's ``<local>_s<d>``.
        """
        if self.arrays.get(name) == rank:
            return None
        self.needs_exact = True
        err = self.const(ExecutionError(f"array argument {name!r} is not bound to an ndarray"))
        if name not in env:
            self.misses.add(name)
            return f"_raise({err})"
        return f"_array({self.py(name)}, {err})"

    def uniform(self, index: _Val) -> bool:
        return self.scalar_loads and index.scalar and _is_int(index)

    def subscript(self, arr: str, known: bool, indices, env, mask, what: str, store: bool):
        """The checked subscript ``[i0, i1, ...]`` of an access (oracle order)."""
        vals = [self.expr(i, env, mask) for i in indices]
        scalar = known and all(self.uniform(v) for v in vals)
        parts = []
        for d, v in enumerate(vals):
            extent = f"{arr}_s{d}" if known else f"{arr}.shape[{d}]"
            if scalar:
                parts.append(f"_in_bounds({v.code}, {extent}, {d}, {what!r})")
                continue
            idx = f"_lane_index({v.code}, {extent}, {mask}, {d}, n, {what!r})"
            if mask is not None:
                idx = f"{idx}[{mask}]" if store else f"np.where({mask}, {idx}, 0)"
            parts.append(idx)
        return "[" + "".join(p + ", " for p in parts) + "]" if parts else "[()]", scalar

    def load(self, e: Load, env: Env, mask: Optional[str]) -> _Val:
        checked = self.array(e.array, len(e.indices), env)
        if checked is None:
            arr = primary = self.py(e.array)
        else:  # bound first: the oracle checks the array before any index
            arr = self.tmp("a")
            primary = f"({arr} := {checked})"
        sub, scalar = self.subscript(arr, checked is None, e.indices, env, mask, "index", False)
        return _Val(primary + sub, "A", scalar and bool(e.indices), None)

    # -- statements ----------------------------------------------------------

    def body(self, body: Body, env: Env, mask: Optional[str]) -> Env:
        start = len(self.lines)
        for stmt in body:
            if isinstance(stmt, Let):
                v = self.expr(stmt.value, env, mask).widened
                if stmt.name in env and env[stmt.name].bound:
                    self.needs_exact = True
                self.emit(f"{self.py(stmt.name)} = {v.code}")
                env[stmt.name] = _Var(True, v.kind, v.dtype)
            elif isinstance(stmt, Assign):
                self.assign(stmt, env, mask)
            elif isinstance(stmt, Store):
                self.store(stmt, env, mask)
            elif isinstance(stmt, If):
                env = self.if_(stmt, env, mask)
            elif isinstance(stmt, For):
                env = self.for_(stmt, env, mask)
            else:
                err = self.const(ExecutionError(f"unknown statement {stmt!r}"))
                self.emit(f"_raise({err})")
        if len(self.lines) == start:
            self.emit("pass")
        return env

    def assign(self, stmt: Assign, env: Env, mask: Optional[str]) -> None:
        v = self.expr(stmt.value, env, mask)
        var = env.get(stmt.name)
        py = self.py(stmt.name)
        if var is None or not var.bound:
            err = self.const(KeyError(stmt.name))
            if var is None:
                self.misses.add(stmt.name)
                self.emit(f"_raise({err}, {v.code})")
                return
            new = self.tmp("t")
            self.emit(f"{new} = {v.code}")
            self.emit(f"if {py} is _UNBOUND:")
            self.emit(f"    _raise({err})")
            v = v._replace(code=new)
        if mask is None:
            v = v.widened
            env[stmt.name] = _Var(True, v.kind, v.dtype)
            self.emit(f"{py} = {v.code}")
        else:
            dtype = _probe(("where",), np.where, np.dtype(bool), v.dtype, var.dtype)
            env[stmt.name] = _Var(True, "A", dtype)
            self.emit(f"{py} = np.where({mask}, {v.code}, {py})")

    def store(self, stmt: Store, env: Env, mask: Optional[str]) -> None:
        arr = self.array(stmt.array, len(stmt.indices), env)
        known = arr is None
        if known:
            arr = self.py(stmt.array)
        else:  # the oracle checks the array before evaluating the value
            tmp = self.tmp("a")
            self.emit(f"{tmp} = {arr}")
            arr = tmp
        what = "index" if mask is None else "store index"
        v = self.expr(stmt.value, env, mask)
        sub, scalar = self.subscript(arr, known, stmt.indices, env, mask, what, True)
        value = f"np.asarray({v.code}, dtype={arr}.dtype)"
        # Python evaluates the value before the subscript, as the oracle.
        if scalar and stmt.indices and (v.scalar or v.kind == "A"):
            # All active lanes store to one cell; the last active lane's
            # value is the one that stays.
            if not v.scalar:
                value += "[-1]" if mask is None else f"[_last_lane({mask})]"
        else:
            if scalar:  # uniform cell, but a value of unknown shape
                sub, _ = self.subscript(arr, False, stmt.indices, env, mask, what, True)
            value = f"_lanes_of({value}, n)" + ("" if mask is None else f"[{mask}]")
        self.emit(f"{arr}{sub} = {value}")

    def scoped(self, body: Body, env: Env, mask: str) -> Env:
        self.depth += 1
        out = self.body(body, dict(env), mask)
        self.depth -= 1
        return out

    def if_(self, stmt: If, env: Env, mask: Optional[str]) -> Env:
        c = self.expr(stmt.cond, env, mask)
        cond = self.tmp("c")
        self.emit(f"{cond} = _lanes_of(np.asarray({c.code}), n)")
        branches = [(stmt.then, cond)]
        if stmt.orelse:
            branches.append((stmt.orelse, f"~{cond}"))
        paths = []
        for branch, lanes in branches:
            branch_mask = self.tmp("m")
            narrowed = lanes if mask is None else f"{mask} & {lanes}"
            self.emit(f"{branch_mask} = {narrowed}")
            self.emit(f"if np.any({branch_mask}):")
            paths.append(self.scoped(branch, env, branch_mask))
        return _join_envs(env, *paths)

    def for_(self, stmt: For, env: Env, mask: Optional[str]) -> Env:
        lo_v, hi_v = self.expr(stmt.lo, env, mask), self.expr(stmt.hi, env, mask)
        lo, hi = self.tmp("lo"), self.tmp("hi")
        self.emit(f"{lo} = np.asarray({lo_v.code})")
        self.emit(f"{hi} = np.asarray({hi_v.code})")
        kinds = {lo_v.kind, hi_v.kind}
        if kinds == {"S"}:
            return self.loop(stmt, env, mask, lo, hi, uniform=True)
        if "A" in kinds:
            # Under a lane mask, uniform integer bounds visit exactly the
            # lanes of the mask on every iteration of the union range.
            ints = all(v.scalar and _is_int(v) for v in (lo_v, hi_v))
            return self.loop(stmt, env, mask, lo, hi, uniform=ints and mask is not None)
        # The interpreter picks the loop form from the bounds' run-time shape.
        paths = []
        for header, uniform in (
            (f"if {lo}.ndim == 0 and {hi}.ndim == 0:", True),
            ("else:", False),
        ):
            self.emit(header)
            self.depth += 1
            paths.append(self.loop(stmt, env, mask, lo, hi, uniform=uniform))
            self.depth -= 1
        return _join_envs(env, *paths)

    def loop(self, stmt: For, env: Env, mask, lo: str, hi: str, uniform: bool) -> Env:
        var = self.py(stmt.var)
        if uniform:
            header = [f"for {var} in _irange({lo}, {hi}):"]
            body_mask, body_depth = mask, self.depth + 1
        else:
            act, lob, hib, k = (self.tmp(p) for p in ("act", "lob", "hib", "k"))
            body_mask = self.tmp("m")
            header = [
                f"{lob} = np.broadcast_to({lo}, (n,))",
                f"{hib} = np.broadcast_to({hi}, (n,))",
                f"{act} = {mask}" if mask is not None else f"{act} = np.ones(n, dtype=bool)",
                f"if np.any({hib}[{act}] > {lob}[{act}]):",
                f"    for {k} in range(int({lob}[{act}].min()), int({hib}[{act}].max())):",
                f"        {body_mask} = {act} & ({lob} <= {k}) & ({k} < {hib})",
                f"        if not np.any({body_mask}):",
                "            continue",
                f"        {var} = np.int64({k})",
            ]
            body_depth = self.depth + 2
        # Iterate the body's static state to a fixpoint: a later iteration
        # starts with what the previous one left bound. Emit again only when
        # that changes a name the emission saw (or looked for and missed).
        first = {**env, stmt.var: _Var(True, "S", _INT64)}
        entry, depth, start, outer_misses = first, self.depth, len(self.lines), self.misses
        while True:
            self.depth, self.misses = body_depth, set()
            end = self.body(stmt.body, dict(entry), body_mask)
            self.depth = depth
            again = _join_envs(first, {**end, stmt.var: first[stmt.var]})
            again.update({k: v._replace(bound=False) for k, v in end.items() if k not in first})
            changed = {k for k, v in again.items() if entry.get(k) != v}
            seen = changed & (entry.keys() | self.misses)
            entry = again
            if not seen:
                break
            del self.lines[start:]
        self.misses |= outer_misses
        body_lines = self.lines[start:]
        del self.lines[start:]
        # Names bound only by earlier iterations start out unbound.
        for name in sorted(entry):
            if not entry[name].bound and name not in env:
                self.misses.add(name)
                self.emit(f"{self.py(name)} = _UNBOUND")
        for line in header:
            self.emit(line)
        self.lines.extend(body_lines)
        return _join_envs(env, end)

    # -- whole kernel --------------------------------------------------------

    def function(self) -> str:
        env: Env = {}
        prologue = ["n = lanes.n"]
        for p in self.kernel.params:
            if isinstance(p, PartitionParam):
                for f in p.field_names():
                    prologue.append(f"{self.py(f)} = values[{f!r}]")
                    env[f] = _Var(True, "S", _INT64)
                continue
            py = self.py(p.name)
            prologue.append(f"{py} = values[{p.name!r}]")
            if not isinstance(p, ArrayParam):
                env[p.name] = _Var(True, "S", p.dtype.to_numpy())
                continue
            env[p.name] = _Var(True, "D", None)
            if p.name in self.arrays:
                prologue += [f"{py}_s{d} = {py}.shape[{d}]" for d in range(p.ndim)]
        self.body(self.kernel.body, env, None)
        prologue += [f"{name} = {code}" for name, code in sorted(self.registers.items())]
        head = ["def lowered_kernel(values, lanes):"] + ["    " + line for line in prologue]
        return "\n".join(head + self.lines) + "\n"


def lower_kernel(kernel: Kernel):
    """The lowered source of ``kernel`` and the globals it runs with."""
    lowering = _Lowering(kernel, _SCALAR_LOADS)
    source = lowering.function()
    if lowering.needs_exact and lowering.scalar_loads:
        lowering = _Lowering(kernel, False)
        source = lowering.function()
    return source, {**_NAMESPACE, **lowering.consts}


def lowered(kernel: Kernel):
    """The compiled lowered form of ``kernel``, built on first use.

    The function is kept on the kernel object itself (identity, not the
    dataclass hash, which walks the whole IR), so it lives exactly as long
    as the kernel does.
    """
    fn = kernel.__dict__.get("_lowered")
    if fn is None:
        source, namespace = lower_kernel(kernel)
        exec(compile(source, f"<lowered kernel {kernel.name}>", "exec"), namespace)
        fn = namespace["lowered_kernel"]
        object.__setattr__(kernel, "_lowered", fn)
    return fn
