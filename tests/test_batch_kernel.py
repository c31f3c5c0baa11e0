"""The vectorized batch kernel: parity, delta-evaluation, fallbacks.

The contract under test (ISSUE PR 7 acceptance):

* the scalar path is untouched — ``evaluate_spec`` equals the direct
  resolve+simulate pipeline bit-for-bit;
* the batched path agrees with the scalar path within 1e-9 relative on
  speedup/energy/EDP (and exactly on CS counts and footprints);
* the pure-python backend (numpy forced off) is *bit-identical* to the
  scalar path;
* engine cache keys are identical between the paths (a scalar-warmed
  cache serves a batch run and vice versa), as are stage counters;
* specs the kernel cannot express fall back to scalar evaluation with
  unchanged error behavior, counted as ``batch.fallback_scalar``;
* certified pruning bounds priced on the kernel's rows agree between a
  batch and a batch of one (``spec_bounds``) within 1e-12 on either
  backend, are admissible against scalar and batched evaluations, and
  raise the scalar diagnostics for specs the rows cannot express.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    BatchKernel,
    UnsupportedSpec,
    numpy_available,
    pack_point,
    set_numpy_enabled,
    spec_call_key,
)
from repro.errors import ReproError
from repro.perf.compare import compare_designs
from repro.perf.simulator import simulate
from repro.runtime.engine import EvaluationEngine
from repro.runtime.keys import call_key
from repro.runtime.memo import counter_stats
from repro.spec import (
    ArchSpec,
    DesignSpec,
    SweepSpec,
    TechSpec,
    WorkloadSpec,
    evaluate_spec,
    evaluate_specs,
    resolve,
    scaled_pdk,
)
from repro.sweep import run_streaming_sweep, spec_bounds
from repro.tech.pdk import foundry_m3d_pdk
from repro.units import MEGABYTE

REL = 1e-9


def _grid_specs() -> list[DesignSpec]:
    """A DSE-like joint grid (the ``core.dse`` axes)."""
    return [
        DesignSpec(
            tech=TechSpec(delta=delta, beta=beta),
            arch=ArchSpec(capacity_bits=mb * MEGABYTE, tier_pairs=pairs),
        )
        for mb in (32, 64, 128)
        for delta in (1.0, 2.0)
        for beta in (1.0, 1.3)
        for pairs in (1, 2)
    ]


EDGE_SPECS = [
    DesignSpec(),
    DesignSpec(tech=TechSpec(memory="stt_mram")),
    DesignSpec(tech=TechSpec(memory="fefet", delta=2.0)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=4)),
    DesignSpec(arch=ArchSpec(cs="precision-scaled", precision_bits=16)),
    DesignSpec(arch=ArchSpec(n_cs=5)),
    DesignSpec(arch=ArchSpec(baseline="reoptimized", tier_pairs=2)),
    DesignSpec(workload=WorkloadSpec(network="alexnet", batch=8)),
    DesignSpec(workload=WorkloadSpec(network="tiny_encoder")),
    DesignSpec(workload=WorkloadSpec(network="resnet18", layer="CONV1")),
]


def _assert_close(batched, scalar, rel=REL):
    assert batched.spec == scalar.spec
    assert batched.n_cs_2d == scalar.n_cs_2d
    assert batched.n_cs_m3d == scalar.n_cs_m3d
    assert batched.footprint == scalar.footprint
    assert batched.speedup == pytest.approx(scalar.speedup, rel=rel)
    assert batched.energy_benefit == \
        pytest.approx(scalar.energy_benefit, rel=rel)
    assert batched.edp_benefit == pytest.approx(scalar.edp_benefit, rel=rel)


# --- parity ----------------------------------------------------------------------


def test_scalar_path_is_bit_identical_to_direct_pipeline():
    """The golden guard: evaluate_spec == resolve+simulate, exactly."""
    spec = DesignSpec()
    point = resolve(spec, None)
    benefit = compare_designs(
        simulate(point.baseline, point.network, point.pdk),
        simulate(point.m3d, point.network, point.pdk),
    )
    evaluation = evaluate_spec(spec)
    assert evaluation.speedup == benefit.speedup
    assert evaluation.energy_benefit == benefit.energy_benefit
    assert evaluation.edp_benefit == benefit.edp_benefit
    assert evaluation.footprint == point.footprint


def test_dse_grid_parity():
    specs = _grid_specs()
    scalar = evaluate_specs(specs, engine=EvaluationEngine(jobs=1))
    batched = evaluate_specs(specs, engine=EvaluationEngine(jobs=1),
                             batch=True)
    assert len(batched) == len(scalar) == len(specs)
    for b, s in zip(batched, scalar):
        _assert_close(b, s)


def test_edge_spec_parity():
    scalar = evaluate_specs(EDGE_SPECS, engine=EvaluationEngine(jobs=1))
    batched = evaluate_specs(EDGE_SPECS, engine=EvaluationEngine(jobs=1),
                             batch=True)
    for b, s in zip(batched, scalar):
        _assert_close(b, s)


def test_batch_size_chunking_matches_single_batch():
    specs = _grid_specs()
    whole = evaluate_specs(specs, engine=EvaluationEngine(jobs=1), batch=True)
    chunked = evaluate_specs(specs, engine=EvaluationEngine(jobs=1),
                             batch_size=5)
    assert whole == chunked


@pytest.mark.skipif(not numpy_available(), reason="needs numpy to compare")
def test_python_backend_is_bit_identical_to_scalar():
    from repro.batch.pack import ROW_RESULTS

    specs = _grid_specs() + EDGE_SPECS
    scalar = evaluate_specs(specs, engine=EvaluationEngine(jobs=1))
    previous = set_numpy_enabled(False)
    ROW_RESULTS.clear()  # drop totals memoized by earlier numpy batches
    try:
        kernel = BatchKernel()
        batched = kernel.evaluate_specs(specs)
    finally:
        set_numpy_enabled(previous)
        ROW_RESULTS.clear()  # don't leak python-mode totals either
    for b, s in zip(batched, scalar):
        assert b.speedup == s.speedup
        assert b.energy_benefit == s.energy_benefit
        assert b.edp_benefit == s.edp_benefit
        assert b.footprint == s.footprint


_SPECS = st.builds(
    DesignSpec,
    tech=st.builds(
        TechSpec,
        delta=st.floats(min_value=1.0, max_value=4.0,
                        allow_nan=False, allow_infinity=False),
        beta=st.floats(min_value=0.5, max_value=2.0,
                       allow_nan=False, allow_infinity=False),
        memory=st.sampled_from([None, "rram", "stt_mram", "fefet"]),
    ),
    arch=st.builds(
        ArchSpec,
        capacity_bits=st.sampled_from(
            [mb * MEGABYTE for mb in (16, 32, 64, 128)]),
        tier_pairs=st.integers(min_value=1, max_value=4),
        n_cs=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
        baseline=st.sampled_from(["iso", "reoptimized"]),
        cs=st.sampled_from(["case-study", "precision-scaled"]),
        precision_bits=st.sampled_from([4, 8, 16]),
    ),
    workload=st.builds(
        WorkloadSpec,
        network=st.sampled_from(["resnet18", "alexnet", "tiny_encoder"]),
        layer=st.none(),
        batch=st.integers(min_value=1, max_value=64),
    ),
)


@settings(max_examples=40, deadline=None)
@given(spec=_SPECS)
def test_random_spec_parity(spec):
    kernel = BatchKernel()
    try:
        scalar = evaluate_spec(spec)
    except ReproError:
        with pytest.raises(ReproError):
            kernel.evaluate_specs([spec])
        return
    batched, = kernel.evaluate_specs([spec])
    _assert_close(batched, scalar)


# --- cache keys and counters -----------------------------------------------------


def test_fast_key_matches_generic_call_key():
    pdk = foundry_m3d_pdk()
    for args in [(DesignSpec(),), (EDGE_SPECS[3],), (DesignSpec(), pdk)]:
        assert spec_call_key(evaluate_spec, args, {}) \
            == call_key(evaluate_spec, args, {})


def test_batch_run_is_served_by_scalar_warmed_cache():
    specs = _grid_specs()
    engine = EvaluationEngine(jobs=1)
    scalar = evaluate_specs(specs, engine=engine)
    batched = evaluate_specs(specs, engine=engine, batch=True)
    assert batched == scalar  # cache returns the very same objects
    stats = {s.name: s for s in engine.report().stages}
    stage = stats["spec.evaluate"]
    assert stage.calls == 2 * len(specs)
    assert stage.evaluated == len(specs)
    assert stage.cache_hits == len(specs)


def test_scalar_run_is_served_by_batch_warmed_cache():
    specs = _grid_specs()
    engine = EvaluationEngine(jobs=1)
    batched = evaluate_specs(specs, engine=engine, batch=True)
    scalar = evaluate_specs(specs, engine=engine)
    assert scalar == batched
    stage = {s.name: s for s in engine.report().stages}["spec.evaluate"]
    assert stage.cache_hits == len(specs)


def test_batch_counters_track_points_and_delta_hits():
    specs = _grid_specs()
    before = {name: dict(values)
              for name, values in
              ((c.name, c.values) for c in counter_stats())}.get("batch", {})
    evaluate_specs(specs, engine=EvaluationEngine(jobs=1), batch=True)
    after = dict(next(c for c in counter_stats()
                      if c.name == "batch").values)
    assert after.get("points", 0) - before.get("points", 0) == len(specs)
    # Every spec needs 2 rows but the grid collapses heavily: beta and
    # tier_pairs often leave the derived rows unchanged.
    assert after.get("delta_hits", 0) > before.get("delta_hits", 0)
    assert after.get("fallback_scalar", 0) == before.get("fallback_scalar", 0)


def test_mismatched_pdk_falls_back_to_scalar():
    kernel = BatchKernel()  # default-PDK kernel
    other = scaled_pdk(foundry_m3d_pdk(), 1.5)
    spec = DesignSpec()
    before = dict(next((c.values for c in counter_stats()
                        if c.name == "batch"), ()))
    result, = kernel.evaluate_calls([((spec, other), {})])
    after = dict(next(c for c in counter_stats()
                      if c.name == "batch").values)
    assert result == evaluate_spec(spec, other)
    assert after["fallback_scalar"] - before.get("fallback_scalar", 0) == 1


def test_unsupported_spec_raises_the_scalar_diagnostic():
    # 12 MB cannot hold ResNet-18's ~12M 8-bit weights: the kernel
    # refuses the point and the scalar fallback raises as it always did.
    spec = DesignSpec(arch=ArchSpec(capacity_bits=MEGABYTE))
    with pytest.raises(ReproError):
        evaluate_spec(spec)
    with pytest.raises(ReproError):
        BatchKernel().evaluate_specs([spec])


def test_pack_point_rejects_what_the_row_schema_cannot_express():
    with pytest.raises(UnsupportedSpec):
        pack_point(DesignSpec(arch=ArchSpec(capacity_bits=MEGABYTE)),
                   foundry_m3d_pdk())


# --- certified pruning bounds ----------------------------------------------------

BOUND_REL = 1e-12


def _bound_grid_specs() -> list[DesignSpec]:
    """tech.beta x baseline x capacity x tiers x precision x network."""
    return list(SweepSpec(base=DesignSpec(), grid={
        "tech.beta": [1.0, 1.3],
        "arch.baseline": ["iso", "reoptimized"],
        "arch.capacity_mb": [16, 32, 48, 64, 96, 128],
        "arch.tier_pairs": [1, 2, 4, 8],
        "arch.precision_bits": [4, 8],
        "workload.network": ["resnet18", "mobilenet_v1", "tiny_encoder"],
    }).expand())


def _clear_row_memos():
    from repro.batch.kernel import ROW_BOUNDS
    from repro.batch.pack import ROW_RESULTS

    ROW_RESULTS.clear()
    ROW_BOUNDS.clear()


@pytest.mark.parametrize("use_numpy", [True, False])
def test_batched_bounds_match_scalar_bounds(use_numpy):
    if use_numpy and not numpy_available():
        pytest.skip("needs numpy")
    specs = _bound_grid_specs()
    assert len(specs) == 576
    previous = set_numpy_enabled(use_numpy)
    try:
        _clear_row_memos()  # price every row on this backend
        batched = BatchKernel().bound_calls([((spec,), {}) for spec in specs])
        _clear_row_memos()
        scalar = [spec_bounds(spec) for spec in specs]
    finally:
        set_numpy_enabled(previous)
        _clear_row_memos()  # don't leak this backend's totals
    for b, s in zip(batched, scalar):
        assert b.spec == s.spec
        for field in ("footprint", "speedup_ub", "energy_benefit_ub",
                      "edp_benefit_ub"):
            assert getattr(b, field) == pytest.approx(
                getattr(s, field), rel=BOUND_REL, abs=0.0)


@pytest.mark.parametrize("network", ["resnet18", "mobilenet_v1",
                                     "tiny_encoder"])
def test_bound_terms_are_the_simulators_mandatory_terms(network):
    """Per layer, the M3D lower bound equals the simulator where the CS
    count's slack vanishes: the dynamic energy at ``n_cs = 1``, and the
    cycles with a CS per output-channel tile on every layer that is not
    weight-load-bound (the rest stay strictly above the bound)."""
    from repro.costmodel import layer_bounds, scalar_ops
    from repro.batch.pack import workload_stage
    from repro.workloads.layers import LayerKind

    workload = WorkloadSpec(network=network, batch=2)
    features = workload_stage(network, None).layers
    one, many = (DesignSpec(arch=ArchSpec(n_cs=n_cs), workload=workload)
                 for n_cs in (1, 1024))
    row = pack_point(one, foundry_m3d_pdk()).row_m3d
    point = resolve(many, None)
    design, array = point.m3d, point.m3d.cs.array
    single = simulate(resolve(one, None).m3d, point.network, batch=2)
    wide = simulate(design, point.network, batch=2)
    load = array.weight_bits_per_slab() \
        / (design.total_weight_bandwidth / design.n_cs)
    stream_bound = 0
    for feature, layer, at_one, at_many in zip(
            features, point.network.layers, single.layers, wide.layers):
        cycles, energy = layer_bounds(scalar_ops, row, feature)
        assert energy == at_one.dynamic_energy
        if layer.kind == LayerKind.POOL:
            assert cycles == at_many.cycles
            continue
        assert at_many.used_cs == array.k_tiles(layer)
        fill = array.fill_drain_cycles
        stream = (array.stream_cycles_per_slab(layer) - fill) * 2 + fill
        if stream >= load:
            stream_bound += 1
            assert cycles == at_many.cycles
        else:
            assert cycles < at_many.cycles
    assert stream_bound > 0


def _assert_admissible(bound, evaluation):
    assert bound.spec == evaluation.spec
    assert bound.footprint == evaluation.footprint
    assert bound.speedup_ub >= evaluation.speedup
    assert bound.energy_benefit_ub >= evaluation.energy_benefit
    assert bound.edp_benefit_ub >= evaluation.edp_benefit


def test_batched_bounds_are_admissible():
    specs = _bound_grid_specs() + EDGE_SPECS
    bounds = BatchKernel().bound_calls([((spec,), {}) for spec in specs])
    scalar = evaluate_specs(specs, engine=EvaluationEngine(jobs=1))
    batched = BatchKernel().evaluate_specs(specs)
    for bound, s, b in zip(bounds, scalar, batched):
        _assert_admissible(bound, s)
        _assert_admissible(bound, b)


@settings(max_examples=40, deadline=None)
@given(spec=_SPECS)
def test_random_spec_bounds_admissible(spec):
    kernel = BatchKernel()
    try:
        scalar = evaluate_spec(spec)
    except ReproError:
        with pytest.raises(ReproError):
            kernel.bound_calls([((spec,), {})])
        return
    bound, = kernel.bound_calls([((spec,), {})])
    batched, = kernel.evaluate_specs([spec])
    _assert_admissible(bound, scalar)
    _assert_admissible(bound, batched)


@pytest.mark.parametrize("arch", [
    ArchSpec(capacity_bits=MEGABYTE),
    ArchSpec(capacity_bits=12 * MEGABYTE, cs="precision-scaled",
             precision_bits=16),
], ids=["1MB-8bit", "12MB-16bit"])
def test_bounds_raise_the_scalar_diagnostic(arch):
    # ResNet-18's weights do not fit: the rows refuse the spec and the
    # bound raises exactly what evaluate_spec raises.
    spec = DesignSpec(arch=arch)
    with pytest.raises(ReproError) as scalar:
        evaluate_spec(spec)
    for bound in (lambda: spec_bounds(spec),
                  lambda: BatchKernel().bound_calls([((spec,), {})])):
        with pytest.raises(ReproError) as raised:
            bound()
        assert type(raised.value) is type(scalar.value)
        assert str(raised.value) == str(scalar.value)


def test_bounds_with_a_mismatched_pdk_fall_back_to_scalar():
    other = scaled_pdk(foundry_m3d_pdk(), 1.5)
    spec = DesignSpec()
    before = dict(next((c.values for c in counter_stats()
                        if c.name == "batch"), ()))
    bound, = BatchKernel().bound_calls([((spec, other), {})])
    after = dict(next(c for c in counter_stats()
                      if c.name == "batch").values)
    assert after["fallback_scalar"] - before.get("fallback_scalar", 0) == 1
    assert bound == spec_bounds(spec, other)
    assert bound != spec_bounds(spec)


@pytest.fixture
def packed_specs(monkeypatch):
    """Every spec the kernel packs, in order."""
    import repro.batch.kernel as kernel_module

    packed = []

    def counting_pack(spec, pdk):
        packed.append(spec)
        return pack_point(spec, pdk)

    monkeypatch.setattr(kernel_module, "pack_point", counting_pack)
    return packed


def test_evaluation_reuses_the_bound_time_pack(packed_specs):
    specs = _bound_grid_specs()[:24]
    survivors = specs[::3]
    expected = BatchKernel().evaluate_specs(survivors)
    del packed_specs[:]
    kernel = BatchKernel()
    kernel.bound_calls([((spec,), {}) for spec in specs])
    assert packed_specs == specs
    assert kernel.evaluate_specs(survivors) == expected
    assert len(packed_specs) == 24          # the survivors' packs reused
    # Reuse is by identity: an equal but distinct spec is packed.
    copies = [DesignSpec.from_json(spec.to_json()) for spec in survivors]
    assert kernel.evaluate_specs(copies) == expected
    assert packed_specs[24:] == copies
    # The next bound call drops the previous call's packs.
    mark = len(packed_specs)
    kernel.bound_calls([((specs[0],), {})])
    kernel.evaluate_specs([specs[0], specs[3]])
    assert packed_specs[mark:] == [specs[0], specs[3]]


def test_pruned_batched_sweep_packs_each_point_once(packed_specs):
    sweep = SweepSpec(grid={
        "arch.capacity_mb": [16, 32, 48, 64, 96, 128],
        "arch.tier_pairs": [1, 2, 4, 8],
        "arch.precision_bits": [4, 8],
        "workload.network": ["resnet18", "mobilenet_v1"],
    })
    result = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                 chunk_size=16, prune=True, batch=True,
                                 collect=False)
    assert result.pruned > 0
    assert len(packed_specs) == len(sweep) == 96


# --- wired call sites ------------------------------------------------------------


def _small_sweep() -> SweepSpec:
    return SweepSpec(grid=(
        ("arch.capacity_bits", (24 * MEGABYTE, 48 * MEGABYTE)),
        ("tech.delta", (1.0, 2.0)),
        ("arch.tier_pairs", (1, 2)),
    ))


def test_streaming_sweep_batch_parity():
    sweep = _small_sweep()
    scalar = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                 chunk_size=3)
    batched = run_streaming_sweep(sweep, engine=EvaluationEngine(jobs=1),
                                  chunk_size=3, batch=True)
    assert batched.points == scalar.points
    assert batched.pruned == scalar.pruned == 0
    for b, s in zip(batched.evaluations, scalar.evaluations):
        _assert_close(b, s)
    assert len(batched.frontier) == len(scalar.frontier)


def test_streaming_sweep_batch_shares_the_scalar_cache():
    sweep = _small_sweep()
    engine = EvaluationEngine(jobs=1)
    run_streaming_sweep(sweep, engine=engine, chunk_size=3)
    run_streaming_sweep(sweep, engine=engine, chunk_size=3, batch=True)
    stage = {s.name: s for s in engine.report().stages}["sweep.evaluate"]
    assert stage.cache_hits == len(sweep)


def test_dse_explore_batch_parity():
    from repro.core.dse import explore

    scalar = explore(engine=EvaluationEngine(jobs=1))
    batched = explore(engine=EvaluationEngine(jobs=1), batch=True)
    assert len(batched) == len(scalar)
    for b, s in zip(batched, scalar):
        assert (b.capacity_bits, b.delta, b.beta, b.tier_pairs) \
            == (s.capacity_bits, s.delta, s.beta, s.tier_pairs)
        assert (b.n_cs, b.n_cs_2d) == (s.n_cs, s.n_cs_2d)
        assert b.footprint == s.footprint
        assert b.speedup == pytest.approx(s.speedup, rel=REL)
        assert b.edp_benefit == pytest.approx(s.edp_benefit, rel=REL)


def test_cli_sweep_batch(tmp_path, capsys):
    from repro.cli import main

    spec_file = tmp_path / "sweep.json"
    spec_file.write_text(
        '{"grid": {"arch.capacity_mb": [32, 64], "tech.delta": [1, 2]}}')
    assert main(["sweep", "--spec", str(spec_file), "--batch"]) == 0
    batched = capsys.readouterr().out
    assert main(["sweep", "--spec", str(spec_file)]) == 0
    scalar = capsys.readouterr().out
    assert batched == scalar
