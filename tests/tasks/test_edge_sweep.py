"""The per-buffer edge sweep against the all-pairs derivation it replaced.

``TaskGraph.finalize`` derives RAW/WAR/WAW edges with one interval sweep
per buffer.  The all-pairs derivation it replaced (every task against
every earlier task, three footprint-set intersections per pair) lives on
here as the oracle: on generated graphs and on the real Cholesky and
imgpipe graphs both must yield the same edges, the same diagnostics and
the same statistics.
"""

import time
from typing import Any, Dict, List, Sequence, Tuple

from hypothesis import given, seed, settings, strategies as st

from repro.analysis.diagnostics import make_diagnostic
from repro.errors import TaskGraphError
from repro.poly.intervals import intersect_intervals, total_bytes
from repro.tasks import TaskGraph, opaque, region2d, span, whole
from repro.tasks.footprints import Footprint
from repro.tasks.graph import TaskEdge, TaskGraphStats
from repro.tasks.spec import Task, TaskHandle
from repro.workloads import functional_config
from repro.workloads.cholesky import CholeskyWorkload
from repro.workloads.imgpipe import ImgPipeWorkload


class Buf:
    """A 2-D float32 allocation: what the specs need of a device buffer."""

    def __init__(self, rows: int, cols: int = 1) -> None:
        self.shape = (rows, cols)
        self.nbytes = rows * cols * 4


def _noop(api):
    pass


# -- the oracle ----------------------------------------------------------------


def _pairwise_overlap(a: Sequence[Footprint], b: Sequence[Footprint]) -> Tuple[int, bool]:
    """(overlapping bytes, any side non-affine) between two footprint sets."""
    nbytes = 0
    opaque_ = False
    by_key: Dict[Any, List[Tuple[list, bool]]] = {}
    for fp in a:
        by_key.setdefault(fp.key, []).append((fp.intervals, fp.affine))
    for fp in b:
        for intervals, affine in by_key.get(fp.key, ()):
            common = intersect_intervals(intervals, fp.intervals)
            if common:
                nbytes += total_bytes(common)
                opaque_ = opaque_ or not affine or not fp.affine
    return nbytes, opaque_


def _pairwise_resolve(g: TaskGraph, t: Task, dep: Any) -> Task:
    if isinstance(dep, Task):
        return dep
    if isinstance(dep, TaskHandle):
        if dep.task is None:
            raise TaskGraphError(f"task {t.name!r} depends on unbound slot {dep.label}")
        return dep.task
    for cand in g.tasks:
        if cand.name == dep:
            return cand
    raise TaskGraphError(f"task {t.name!r} depends on unknown task {dep!r}")


def pairwise_derivation(g: TaskGraph):
    """(edges, diagnostics, stats dict) by comparing every pair of tasks."""
    pairs: Dict[Tuple[int, int], Dict[str, Any]] = {}

    def note(src: Task, dst: Task, kind: str, nbytes: int, opaque_: bool) -> None:
        rec = pairs.setdefault(
            (src.index, dst.index), {"kinds": set(), "bytes": 0, "opaque": False}
        )
        rec["kinds"].add(kind)
        rec["bytes"] += nbytes
        rec["opaque"] = rec["opaque"] or opaque_

    for t in g.tasks:
        for dep in t.deps:
            src = _pairwise_resolve(g, t, dep)
            if src.index == t.index:
                raise TaskGraphError(f"task {t.name!r} depends on itself")
            note(src, t, "control", 0, False)
        for s in g.tasks[: t.index]:
            raw, raw_op = _pairwise_overlap(s.writes, t.reads)
            war, war_op = _pairwise_overlap(s.reads, t.writes)
            waw, waw_op = _pairwise_overlap(s.writes, t.writes)
            if raw:
                note(s, t, "RAW", raw, raw_op)
            if war:
                note(s, t, "WAR", war, war_op)
            if waw:
                note(s, t, "WAW", waw, waw_op)

    edges = [
        TaskEdge(src, dst, frozenset(rec["kinds"]), rec["bytes"], rec["opaque"])
        for (src, dst), rec in sorted(pairs.items())
    ]
    diagnostics = [d for d in g.report.diagnostics if d.code != "RP702"]
    for e in edges:
        if e.opaque:
            diagnostics.append(_rp702(g, e))
    kinds: Dict[str, int] = {}
    for e in edges:
        for k in e.kinds:
            kinds[k] = kinds.get(k, 0) + 1
    stats = TaskGraphStats(
        tasks=len(g.tasks),
        edges=len(edges),
        edge_kinds=kinds,
        nonaffine_tasks=sum(1 for t in g.tasks if not t.affine),
    )
    return edges, diagnostics, stats.as_dict()


def _rp702(g: TaskGraph, e: TaskEdge):
    return make_diagnostic(
        "RP702",
        f"edge {g.tasks[e.src].name!r} -> {g.tasks[e.dst].name!r} "
        f"({'/'.join(sorted(e.kinds))}) is ordered through "
        "a conservative whole-buffer footprint",
        kernel=g.tasks[e.dst].name,
        witness={"src": e.src, "dst": e.dst, "bytes": e.overlap_bytes},
        pass_name="taskgraph",
    )


def assert_sweep_matches_oracle(build) -> TaskGraph:
    """Build the graph twice; derive once by sweep, once pairwise."""
    swept = build().finalize()
    expected = pairwise_derivation(build())
    assert swept.edges == expected[0]
    assert swept.report.diagnostics == expected[1]
    assert swept.stats.as_dict() == expected[2]
    return swept


# -- generated graphs ------------------------------------------------------------

#: (rows, cols) of the float32 buffers a generated graph may touch: small,
#: so spans and tiles of different tasks overlap and abut often.
_SHAPES = ((4, 4), (3, 6), (8, 2))


@st.composite
def _spec(draw, n_buffers: int):
    b = draw(st.integers(0, n_buffers - 1))
    rows, cols = _SHAPES[b]
    nbytes = rows * cols * 4
    form = draw(st.sampled_from(("span", "span", "region2d", "region2d", "whole", "opaque")))
    if form == "span":
        lo = 4 * draw(st.integers(0, nbytes // 4 - 1))
        hi = 4 * draw(st.integers(lo // 4 + 1, nbytes // 4))
        return (form, b, lo, hi)
    if form == "region2d":
        # One past either border, so clipping happens; a full-width tile's
        # abutting rows merge into one interval.
        r0 = draw(st.integers(-1, rows - 1))
        r1 = draw(st.integers(max(r0, 0) + 1, rows + 1))
        c0 = draw(st.integers(-1, cols - 1))
        c1 = draw(st.integers(max(c0, 0) + 1, cols + 1))
        return (form, b, (r0, r1), (c0, c1))
    return (form, b)


@st.composite
def graph_recipes(draw):
    """A task list: (name, reads, writes, deps as (earlier index, by name))."""
    n_buffers = draw(st.integers(1, 3))
    n_tasks = draw(st.integers(1, 25))
    recipe = []
    for i in range(n_tasks):
        reads = draw(st.lists(_spec(n_buffers), max_size=3))
        writes = draw(st.lists(_spec(n_buffers), max_size=3))
        if reads and draw(st.booleans()):
            writes.append(reads[0])  # read-modify-write of one tile
        if reads and draw(st.booleans()):
            reads.append(reads[-1])  # a duplicate spec counts twice
        deps = []
        if i:
            deps = draw(
                st.lists(st.tuples(st.integers(0, i - 1), st.booleans()), max_size=2)
            )
        # Few distinct names, so a by-name dependency often has to pick
        # the first of several tasks sharing its name.
        name = f"t{draw(st.integers(0, 6))}"
        recipe.append((name, reads, writes, deps))
    return recipe


def _build_from(recipe):
    def build() -> TaskGraph:
        bufs = [Buf(*shape) for shape in _SHAPES]

        def lower(spec):
            form, b = spec[0], bufs[spec[1]]
            if form == "span":
                return span(b, spec[2], spec[3])
            if form == "region2d":
                return region2d(b, b.shape, spec[2], spec[3])
            return whole(b) if form == "whole" else opaque(b, note="generated")

        g = TaskGraph("generated")
        for name, reads, writes, deps in recipe:
            g.add_task(
                _noop,
                name=name,
                reads=[lower(s) for s in reads],
                writes=[lower(s) for s in writes],
                deps=[g.tasks[j].name if by_name else g.tasks[j] for j, by_name in deps],
            )
        return g

    return build


@seed(20201014)
@settings(max_examples=120, deadline=None)
@given(graph_recipes())
def test_sweep_equals_pairwise_oracle(recipe):
    assert_sweep_matches_oracle(_build_from(recipe))


# -- the real graphs ----------------------------------------------------------------


def _cholesky_builder(n: int):
    wl = CholeskyWorkload(functional_config("cholesky", size=n))
    return lambda: wl.build_graph(None, Buf(n, n))


def test_cholesky_graphs_match_oracle():
    for n in (32, 64):
        g = assert_sweep_matches_oracle(_cholesky_builder(n))
        assert g.edges and not any(e.opaque for e in g.edges)
    assert len(g.tasks) == 120 and len(g.edges) == 630  # the n=64 graph


def test_imgpipe_graph_matches_oracle():
    wl = ImgPipeWorkload(functional_config("imgpipe"))
    n = wl.cfg.size

    def build():
        return wl.build_graph(None, *(Buf(n, n) for _ in range(4)), Buf(4))

    g = assert_sweep_matches_oracle(build)
    assert any(e.opaque for e in g.edges)  # the opaque stats task
    assert any(d.code == "RP702" for d in g.report.diagnostics)


# -- hand-written cases ------------------------------------------------------------


def test_abutting_spans_make_no_edge_but_one_byte_does():
    buf = Buf(16)
    g = TaskGraph()
    g.add_task(_noop, name="a", writes=[span(buf, 0, 32)])
    g.add_task(_noop, name="b", reads=[span(buf, 32, 64)], writes=[span(buf, 32, 64)])
    g.add_task(_noop, name="c", reads=[span(buf, 31, 33)])
    g.finalize()
    assert g.edges == [
        TaskEdge(0, 2, frozenset({"RAW"}), 1),
        TaskEdge(1, 2, frozenset({"RAW"}), 1),
    ]


def test_kind_follows_creation_order_not_address_order():
    buf = Buf(16)
    g = TaskGraph()
    # The later task's interval starts first in the sweep.
    g.add_task(_noop, name="r", reads=[span(buf, 32, 64)])
    g.add_task(_noop, name="w", writes=[span(buf, 0, 48)])
    g.finalize()
    assert g.edges == [TaskEdge(0, 1, frozenset({"WAR"}), 16)]


def test_name_dependency_resolves_to_first_created_task():
    g = TaskGraph()
    g.add_task(_noop, name="x")
    g.add_task(_noop, name="x")
    g.add_task(_noop, name="y", deps=["x"])
    g.finalize()
    assert g.edges == [TaskEdge(0, 2, frozenset({"control"}))]


def test_finalize_scales_to_thousands_of_tasks():
    n = 4000
    main, side = Buf(16 * n), Buf(16)
    g = TaskGraph("scale")
    for i in range(n):
        reads = [span(main, 16 * (i - 1), 16 * i)] if 0 < i < 10 else []
        g.add_task(_noop, name=f"t{i}", reads=reads, writes=[span(main, 16 * i, 16 * (i + 1))])
        if i % 1000 == 500:
            g.add_task(_noop, name=f"o{i}", writes=[opaque(side)])
    g.add_task(_noop, name="gather", reads=[opaque(main)])
    start = time.perf_counter()
    g.finalize()
    elapsed = time.perf_counter() - start
    # All pairs would be ~24M footprint-set intersections: minutes.
    assert elapsed < 5.0, f"finalize took {elapsed:.2f} s"
    kinds = g.stats.edge_kinds
    assert kinds == {"RAW": 9 + n, "WAW": 6}  # chain, gather; 4 side writers
    assert g.stats.edges == 9 + n + 6
    assert sum(d.code == "RP702" for d in g.report.diagnostics) == n + 6
