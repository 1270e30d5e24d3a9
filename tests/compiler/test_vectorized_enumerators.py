"""Vectorized enumerators are a pure speedup, never a semantic change.

Each enumerator can satisfy a scan request two ways: the vectorized numpy
program (``specialize=True``, the default) or the scalar tree-walking
scanner (``use_codegen=False``, the ablation path). These tests compile
every workload twice — once per backend — run identical functional inputs
through both, and require

* bitwise-identical workload outputs,
* identical scan results — per launch fingerprint, the skeleton cached in
  each run's plan cache holds the same partitions with the same merged
  read and write ranges and emitted-range counts, element for element, and
* that the backends really were what they claim: the vectorized app's
  scans resolve through the numpy program, the interpreted app's never do.
"""

import numpy as np
import pytest

from repro.compiler.pipeline import compile_app
from repro.runtime.api import MultiGpuApi
from repro.runtime.config import RuntimeConfig
from repro.workloads import ALL_WORKLOADS, EXTRA_WORKLOADS, functional_config

REGISTRY = {**ALL_WORKLOADS, **EXTRA_WORKLOADS}


def _run_both(name, n_gpus=3, seed=11):
    """One functional run per backend: (outputs, app, api) for each."""
    results = {}
    for use_codegen in (True, False):
        wl = REGISTRY[name](functional_config(name))
        app = compile_app(wl.build_kernels(), use_codegen=use_codegen)
        api = MultiGpuApi(app, RuntimeConfig(n_gpus=n_gpus))
        outputs = wl.run(api, wl.make_inputs(seed=seed))
        results[use_codegen] = (outputs, app, api)
    return results


def _skeleton_scans(api):
    """Per fingerprint: every partition's (read, write) scan results."""
    return {
        fingerprint: [
            (
                sp.gpu,
                sp.part,
                [(r.array, r.ranges, r.emitted) for r in sp.reads],
                [(w.array, w.ranges, w.emitted) for w in sp.writes],
            )
            for sp in skel.partitions
        ]
        for fingerprint, skel in api.plan_cache._entries.items()
    }


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_backends_bitwise_equal_and_scan_identical(name):
    results = _run_both(name)
    (vec_out, vec_app, vec_api) = results[True]
    (int_out, int_app, int_api) = results[False]
    vec_stats, int_stats = vec_api.stats, int_api.stats

    # Workload outputs are bitwise identical across backends.
    assert set(vec_out) == set(int_out)
    for key in sorted(vec_out):
        assert np.array_equal(vec_out[key], int_out[key]), (name, key)

    # Both compiles produced the same enumerator population ...
    vec_table = vec_app.enumerators._table
    int_table = int_app.enumerators._table
    assert set(vec_table) == set(int_table), name

    # ... and, having served the same launch stream, the same scans:
    # element-identical merged ranges and emitted counts per fingerprint.
    vec_scans = _skeleton_scans(vec_api)
    assert vec_scans == _skeleton_scans(int_api), name
    if vec_table:
        assert any(parts for parts in vec_scans.values()), name

    # The interpreted table pins the scalar scanner outright.
    assert all(not e.specialize for e in int_table.values()), name
    assert int_stats.enumerator_specialized == 0
    if int_table:
        assert int_stats.enumerator_fallback > 0

    # The vectorized app's partitionable kernels actually engaged the
    # numpy backend (no silent fallback on the benchmark kernels).
    if vec_table:
        assert vec_stats.enumerator_specialized > 0, name
        assert vec_stats.enumerator_fallback == 0, name


def test_imgpipe_nonaffine_kernel_has_no_enumerators():
    """imgpipe's histogram-style kernel is rejected by the partitioner, so
    it contributes no enumerators — the fallback path, not the scalar
    scanner, handles it (and the cache arithmetic in the overhead study
    relies on that)."""
    wl = REGISTRY["imgpipe"](functional_config("imgpipe"))
    app = compile_app(wl.build_kernels())
    rejected = [name for name, ck in app.kernels.items() if ck.partitioned is None]
    assert rejected, "expected at least one non-partitionable imgpipe kernel"
    for name in rejected:
        assert not app.enumerators.for_kernel(name, "read")
        assert not app.enumerators.for_kernel(name, "write")
