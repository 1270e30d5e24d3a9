"""Cross-launch dataflow analyzer: RP6xx lints + the transfer simulation.

Covers the three diagnostics on their engineered trigger kernels (the
decimating stencil for RP601/RP602, the capped column gather for RP603),
the irredundant remedy emptying the report, per-partition deduplication,
and — the load-bearing invariant — that the analyzer's byte classification
equals the runtime's measured counters, flat and clustered.
"""

import numpy as np
import pytest

from repro.analysis import lint_kernels
from repro.analysis.dataflow import (
    ExactReadOracle,
    analyze_transfers,
    exact_read_ranges,
)
from repro.analysis.passes import PassManager, registered_passes
from repro.compiler.access_analysis import analyze_kernel
from repro.compiler.pipeline import compile_app
from repro.cuda import f32
from repro.cuda.dim3 import Dim3
from repro.cuda.ir import KernelBuilder
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads.common import functional_config
from repro.workloads.dstencil import BLOCK, DStencilWorkload, build_dstencil_kernel
from repro.workloads.hotspot import HotspotWorkload

ALL_PASSES = ["partitionability", "races", "bounds", "dataflow"]


def column_gather_kernel(n=128, m=16):
    """Reads column 0 of all rows, writes columns >= 1 of its own row:

    n single-element read runs blow the 64-run event cap, but the exact
    read/write sets are disjoint — the RP603 trigger.
    """
    kb = KernelBuilder("column_gather")
    a = kb.array("a", f32, (n, m))
    gy, gx = kb.global_id("y"), kb.global_id("x")
    with kb.if_((gy < n) & (gx < m - 1)):
        acc = kb.let("acc", kb.f32const(0.0))
        with kb.for_range("j", 0, n) as j:
            kb.assign(acc, acc + a[j, 0])
        a[gy, gx + 1] = acc
    return kb.finish()


def lint_stencil(**kwargs):
    wl = DStencilWorkload(functional_config("dstencil"))
    grid, block = wl.launch_config()
    return lint_kernels([wl.kernel], grid=grid, block=block, passes=ALL_PASSES, **kwargs)


class TestPassRegistration:
    def test_dataflow_registered_but_not_default(self):
        passes = registered_passes()
        assert "dataflow" in passes
        assert passes["dataflow"].default is False

    def test_default_manager_excludes_dataflow(self):
        assert "dataflow" not in [type(p).name for p in PassManager(None).passes]


class TestDiagnostics:
    def test_stencil_emits_rp601_and_rp602(self):
        report = lint_stencil()
        codes = [d.code for d in report.diagnostics]
        assert codes.count("RP601") == 4  # one per partition
        assert codes.count("RP602") == 4
        for d in report.diagnostics:
            if d.code in ("RP601", "RP602"):
                assert d.witness["bytes"] > 0
                assert d.witness["lo"] < d.witness["hi"]

    def test_irredundant_remedy_empties_the_report(self):
        report = lint_stencil(irredundant=True)
        assert not {"RP601", "RP602"} & {d.code for d in report.diagnostics}

    def test_hotspot_halo_rp601_byte_counts(self):
        """The worked example of docs/static-analysis.md: 62 interior halo

        cells x 4 B = 248 bytes for the edge partitions, twice that for the
        interior ones (a halo row on each side).
        """
        wl = HotspotWorkload(functional_config("hotspot"))
        grid, block = wl.launch_config()
        report = lint_kernels(
            wl.build_kernels(), grid=grid, block=block, passes=ALL_PASSES
        )
        by_part = {
            d.witness["partition"]: d.witness["bytes"]
            for d in report.diagnostics
            if d.code == "RP601"
        }
        assert by_part == {0: 248, 1: 496, 2: 496, 3: 248}
        # Full-width rows leave no bounding slack: no RP602.
        assert "RP602" not in {d.code for d in report.diagnostics}

    def test_column_gather_emits_rp603_deduplicated(self):
        report = lint_kernels(
            [column_gather_kernel()], grid=(1, 8), block=(16, 16), passes=ALL_PASSES
        )
        serial = [d for d in report.deduplicated() if d.code == "RP603"]
        assert len(serial) == 1  # four identical findings collapse into one
        assert serial[0].witness["partitions"] == [0, 1, 2, 3]
        assert "[4 partitions]" in serial[0].message
        assert serial[0].witness["bytes"] > 0

    def test_rp603_absent_when_ranges_fit_the_cap(self):
        """A plain stencil's reads stay under the run cap: no phantom edges."""
        report = lint_stencil()
        assert "RP603" not in {d.code for d in report.diagnostics}


class TestExactReadOracle:
    def test_strided_read_has_slack(self):
        """dstencil reads only even columns: the exact set is ~half the

        bounding range the enumerators would ship.
        """
        n = 64
        info = analyze_kernel(build_dstencil_kernel(n))
        from repro.compiler.strategy import choose_strategy

        strategy = choose_strategy(info)
        grid = Dim3(x=n // BLOCK.x, y=n // BLOCK.y)
        parts = strategy.partitions(grid, 4)
        extents = (n + 1, 2 * n + 2)
        ranges = exact_read_ranges(
            info, "src", extents, 4, parts[0], grid, BLOCK, {}
        )
        assert ranges is not None
        covered = sum(hi - lo for lo, hi in ranges)
        rows = 17  # 16 own rows + 1 halo row
        bounding = rows * (2 * n + 1) * 4  # cols 0..2n inclusive, per row
        assert covered < 0.6 * bounding
        # Only even columns (and the 2gx+2 successor evens) are read.
        for lo, hi in ranges:
            assert lo % 4 == 0 and hi % 4 == 0

    def test_oracle_memoizes(self):
        n = 64
        info = analyze_kernel(build_dstencil_kernel(n))
        from repro.compiler.strategy import choose_strategy

        strategy = choose_strategy(info)
        grid = Dim3(x=n // BLOCK.x, y=n // BLOCK.y)
        part = strategy.partitions(grid, 4)[0]
        oracle = ExactReadOracle(info)
        first = oracle.read_ranges("src", (n + 1, 2 * n + 2), 4, part, grid, BLOCK, {})
        second = oracle.read_ranges("src", (n + 1, 2 * n + 2), 4, part, grid, BLOCK, {})
        assert first is second  # cached object, not a recomputation


class TestAnalyzerMatchesRuntime:
    """The analyzer simulates exactly what the runtime executes."""

    @pytest.mark.parametrize("irredundant", [False, True])
    def test_totals_equal_measured_stats(self, irredundant):
        wl = DStencilWorkload(functional_config("dstencil"))
        grid, block = wl.launch_config()
        info = analyze_kernel(wl.kernel)
        launches = wl.cfg.iterations
        summary = analyze_transfers(
            info,
            n_gpus=4,
            launches=launches,
            grid=grid,
            block=block,
            scalars={},
            irredundant=irredundant,
        )
        api = MultiGpuApi(
            compile_app([wl.kernel]),
            RuntimeConfig(
                n_gpus=4, shared_copies=True, irredundant_transfers=irredundant
            ),
        )
        wl.run(api, wl.make_inputs(0))
        assert summary.total("required") == api.stats.sync_bytes
        assert summary.total("redundant") == api.stats.redundant_bytes_avoided
        assert summary.total("overapprox") == api.stats.overapprox_bytes_avoided

    def test_cluster_tier_split_matches(self):
        from repro.cluster.engine import ClusterSimMachine
        from repro.harness.calibration import k80_cluster

        wl = DStencilWorkload(functional_config("dstencil"))
        grid, block = wl.launch_config()
        cluster = k80_cluster(2, 2)
        summary = analyze_transfers(
            analyze_kernel(wl.kernel),
            n_gpus=4,
            launches=wl.cfg.iterations,
            grid=grid,
            block=block,
            scalars={},
            irredundant=True,
            cluster=cluster,
        )
        api = MultiGpuApi(
            compile_app([wl.kernel]),
            RuntimeConfig(n_gpus=4, shared_copies=True, irredundant_transfers=True),
            machine=ClusterSimMachine(cluster),
        )
        wl.run(api, wl.make_inputs(0))
        assert summary.total("redundant_inter") == api.stats.redundant_bytes_avoided_inter
        assert summary.total("overapprox_inter") == api.stats.overapprox_bytes_avoided_inter
        assert 0 < summary.total("overapprox_inter") < summary.total("overapprox")

    def test_multi_gpu_nodes_use_the_runtime_partitions(self):
        """On 2x4 the per-node split differs from the flat 8-way split."""
        from repro.cluster.engine import ClusterSimMachine
        from repro.harness.calibration import k80_cluster

        wl = DStencilWorkload(functional_config("dstencil"))
        grid, block = wl.launch_config()
        cluster = k80_cluster(2, 4)
        summary = analyze_transfers(
            analyze_kernel(wl.kernel),
            n_gpus=8,
            launches=wl.cfg.iterations,
            grid=grid,
            block=block,
            scalars={},
            irredundant=True,
            cluster=cluster,
        )
        api = MultiGpuApi(
            compile_app([wl.kernel]),
            RuntimeConfig(n_gpus=8, shared_copies=True, irredundant_transfers=True),
            machine=ClusterSimMachine(cluster),
        )
        wl.run(api, wl.make_inputs(0))
        assert summary.total("required") == api.stats.sync_bytes
        assert summary.total("redundant") == api.stats.redundant_bytes_avoided
        assert summary.total("redundant_inter") == api.stats.redundant_bytes_avoided_inter
        assert summary.total("overapprox") == api.stats.overapprox_bytes_avoided
        assert summary.total("overapprox_inter") == api.stats.overapprox_bytes_avoided_inter

    @pytest.mark.parametrize("irredundant", [False, True])
    def test_each_enumerator_scans_once_per_partition(self, monkeypatch, irredundant):
        """Read and write scans are hoisted out of the launch loop."""
        from repro.compiler.enumerators import Enumerator

        # Reads and writes the same array, so both scan kinds are modelled.
        info = analyze_kernel(column_gather_kernel())
        grid, block = Dim3(x=1, y=8), Dim3(x=16, y=16)
        original = Enumerator.element_ranges

        def scans_for(launches):
            counts = {}

            def spy(self, partition, *args, **kwargs):
                key = (self.name, partition)
                counts[key] = counts.get(key, 0) + 1
                return original(self, partition, *args, **kwargs)

            monkeypatch.setattr(Enumerator, "element_ranges", spy)
            analyze_transfers(
                info, n_gpus=4, launches=launches, grid=grid, block=block,
                scalars={}, irredundant=irredundant,
            )
            monkeypatch.setattr(Enumerator, "element_ranges", original)
            return counts

        once = scans_for(1)
        assert set(once.values()) == {1}
        assert {name.rsplit("__", 1)[1] for name, _ in once} == {"read", "write"}
        assert len(once) == 2 * 4  # (read, write) x 4 partitions
        assert scans_for(5) == once

    def test_atoms_cover_shared_halo(self):
        wl = DStencilWorkload(functional_config("dstencil"))
        grid, block = wl.launch_config()
        summary = analyze_transfers(
            analyze_kernel(wl.kernel),
            n_gpus=4,
            launches=2,
            grid=grid,
            block=block,
            scalars={},
        )
        atoms = summary.atoms["src"]
        # Adjacent partitions share the seam halo rows: some atoms must
        # have multiplicity > 1, and the atoms tile without overlap.
        assert any(a.multiplicity > 1 for a in atoms)
        for left, right in zip(atoms, atoms[1:]):
            assert left.hi <= right.lo
