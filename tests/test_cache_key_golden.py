"""Golden cache-key digests: which persisted results survive a change.

Disk caches (``--cache-dir``) and sweep checkpoints are addressed by
these digests.  Non-physical evaluation and chunk keys are pinned
byte-for-byte — any drift silently orphans every warm cache — and so
are the canonical texts they hash: the PDK's key, spec and sweep
fingerprints, and a serialized checkpoint record.  Keys of results that
embed a thermal solve carry the solver's tag, so they must differ from
the digests the earlier (unconverged, iterative) solver wrote under;
otherwise a stale disk cache would keep serving its hotspots.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.errors import EvaluationFailure, ReproError
from repro.physical.flow import run_staged_flows
from repro.physical.thermal import THERMAL_SOLVER, analyze_thermal
from repro.runtime.cache import ResultCache
from repro.runtime.engine import EvaluationEngine
from repro.runtime.keys import call_key, stable_key
from repro.runtime.serialize import dumps, loads
from repro.spec import DesignSpec, SweepSpec
from repro.spec.design import TechSpec
from repro.spec.evaluate import (
    SpecEvaluation,
    evaluate_spec,
    evaluate_specs,
    physical_call_kwargs,
)
from repro.spec.resolve import resolve, tech_pdk
from repro.sweep.checkpoint import (
    ChunkRecord,
    checkpoint_key,
    chunk_hash,
)
from repro.tech.pdk import foundry_m3d_pdk

DEFAULT = DesignSpec()
SMALL = DesignSpec.from_jsonable({
    "arch": {"capacity_mb": 32, "tier_pairs": 2},
    "workload": {"network": "mobilenet_v1"}})
SWEEP = SweepSpec.from_jsonable({
    "base": {},
    "grid": {"arch.capacity_mb": [16, 32], "arch.tier_pairs": [1, 2]}})
GRID64 = SweepSpec.from_jsonable({
    "base": {"tech": {"delta": 1.25}},
    "grid": {"arch.capacity_mb": [8, 16, 32, 64],
             "arch.tier_pairs": [1, 2, 4, 8],
             "arch.precision_bits": [4, 8],
             "workload.network": ["resnet18", "mobilenet_v1"]}})

#: Digests written by the earlier iterative thermal solver.
STALE_PHYSICAL_EVAL = (
    "574c3ccecbb023409aa36ec257fbd6cf5fdec0c31cd139744b41131013465ec5")
STALE_PHYSICAL_CHECKPOINT = (
    "49918b1998fb25805e366058339d213853b279900dbc1d900de18eabab5b981c")
STALE_THERMAL_STAGE = (
    "ffaaae5d2ba7d925e5351c92852adf01a43a89564a42ca33b689634e7feb1a02")

#: Stage keys of the case-study M3D design.  All but ``flow.thermal``
#: equal the earlier solver's, so those artifacts stay warm across the swap.
STAGE_KEYS = {
    "flow.synthesize":
        "7aa6d077c890e14d9b5728914b61e72373ec3e14337a63ffc4795222e5774107",
    "flow.floorplan":
        "d5da9b1822339d45911b8013a0bcd4edfaeb78133e556d8f8228324a332547c5",
    "flow.legalize":
        "e42e1cf3b9d2ca54aa1be484d4d3348e819e5b32a95af1b0517e13887273d3a0",
    "flow.route":
        "f823727738418dac61a1ed82db1ea6e5aba5d68efe9e205d5ee39c4f13c1c581",
    "flow.clock":
        "636ab4fd17489f7aeab6dc627f30921235994a50ded97cbea2992030a1e34403",
    "flow.congestion":
        "7e191e9661088430e93a27b91009168faa932aaa06cb6444a08bb3f0451aa9a2",
    "flow.timing":
        "e7ac115e9113573ef01ea41398a457ed70f9b002508128c8bdbed6e3edb51d42",
    "flow.power":
        "4e146fe1307fe36a45627bdaaf2ad4864100c268ad2c0dbb4ffc56f5831a4995",
    "flow.thermal":
        "801d61b2edc2e1f20d30d1c06b2f62f6d5c15945d25c7268b96e0c40ff2282e2",
    "flow.quality":
        "40e667677450af03ed18019f2fca62cfa9c73c42120ae1320aedaf29fd1b7281",
}


class _RecordingEngine:
    """Minimal engine: runs each stage directly and records its key."""

    def __init__(self) -> None:
        self.keys: dict[str, str] = {}

    def map(self, fn, calls, stage=None, jobs=None):
        self.keys[stage] = call_key(fn, tuple(calls[0]), {})
        return [fn(*call) for call in calls]


def _physical_key(spec: DesignSpec) -> str:
    return call_key(evaluate_spec, (spec,), physical_call_kwargs(True))


def test_non_physical_keys_byte_identical():
    assert call_key(evaluate_spec, (DEFAULT,), {}) == (
        "8568230de4e7bc995c5614be735440c5284b398859512d5c7a72c8ccacb5b41a")
    assert call_key(evaluate_spec, (SMALL,), {}) == (
        "33d1ead23d997036cf109555f15e6cefeb0b46bedf09e9376ef7889b6d832235")
    assert chunk_hash([DEFAULT, SMALL]) == (
        "dc837858c497c787e20b9d4d8dbd78c99e582917c5ebce65366914f7b43d55d3")
    assert checkpoint_key(SWEEP, chunk_size=4, prune=True) == (
        "b0a6aff45daed27091e153ac50203a86ef21579b8e74995233f364b8fbbb20ea")


def test_pdk_and_spec_keys_byte_identical():
    pdk = foundry_m3d_pdk()
    assert stable_key(pdk) == (
        "b7239b5d2f0535cd06659850b965a6dec7042bbea0c124b0570d3caed58ec602")
    assert call_key(evaluate_spec, (SMALL, pdk), {}) == (
        "8b38b208bb30594496f9ac1881a30b7711b55666ed223660f24f6709267ceb41")
    odd = tech_pdk(TechSpec(beta=1.3, memory="stt_mram"), pdk)
    assert stable_key(odd) == (
        "4dc694d2a39511bf4f01691c19debea94581583de598a8429208b3586c9b80df")
    odd_spec = DesignSpec.from_jsonable(
        {"tech": {"beta": 1.3, "memory": "stt_mram"}})
    assert call_key(evaluate_spec, (odd_spec, odd), {}) == (
        "5c096f1af5cfb5f9b6ea33e7cb871575185d70900b6b7b69afe98f98c48a64d8")
    assert DEFAULT.fingerprint() == (
        "6447f75c02c223c63b3dba536361dc3371d3199486312fe9f012017d7824cf58")
    assert SMALL.fingerprint() == (
        "9302f01985c51b4bbd3eb53347b797240bb05e10e81c99e9f539ca494ac4bdbf")
    assert SWEEP.fingerprint() == (
        "24aeaada3d2657a68354954c3c8011a11e32264cb030eca4740c29f711f58a67")


def test_checkpoint_texts_byte_identical():
    chunk = next(GRID64.chunks(64))
    assert len(chunk) == 64
    assert chunk_hash(chunk) == (
        "cfe9d88700c13fdec447215b855f491a971979c2c68512f9b03b3464c0330e86")
    evaluation = SpecEvaluation(
        spec=SMALL, n_cs_2d=1, n_cs_m3d=8, footprint=1e-300, speedup=0.1,
        energy_benefit=-0.0, edp_benefit=2.5e17)
    record = ChunkRecord(
        index=3, specs_hash=chunk_hash([DEFAULT, SMALL]), pruned=1,
        evaluations=(evaluation,),
        failures=(EvaluationFailure("configuration_error", "bad beta",
                                    path="tech.beta", spec=DEFAULT,
                                    index=1),))
    text = dumps(record)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "835920e0d96afd2bab440c90721d20312127b436c852764e706d1e8e43e3d3e4")
    assert loads(text) == record


def test_physical_keys_carry_the_solver():
    assert physical_call_kwargs(False) == {}
    assert physical_call_kwargs(True)["thermal_solver"] == THERMAL_SOLVER
    key = _physical_key(DEFAULT)
    assert key == (
        "d0339fe229c33a98806a114e8fcb689fad153012cd1c99ac27b4d91c904b59f0")
    assert key != STALE_PHYSICAL_EVAL
    checkpoint = checkpoint_key(SWEEP, chunk_size=4, physical=True)
    assert checkpoint == (
        "9e198245b26e190267babbf1e18c6260109589b385455d98c6c4a8cbea7df62a")
    assert checkpoint != STALE_PHYSICAL_CHECKPOINT


def test_only_the_thermal_stage_key_changes():
    point = resolve(DEFAULT)
    engine = _RecordingEngine()
    run_staged_flows((point.m3d,), point.pdk, engine=engine)
    assert engine.keys == STAGE_KEYS
    assert engine.keys["flow.thermal"] != STALE_THERMAL_STAGE


def test_stale_disk_entry_is_not_served(tmp_path):
    """An entry the old solver wrote is ignored: the point re-evaluates
    under its new key and reports the converged hotspot."""
    fresh, = evaluate_specs([DEFAULT], engine=EvaluationEngine(jobs=1),
                            physical=True)
    stale = replace(fresh, physical=replace(
        fresh.physical, hotspot_rise_k=fresh.physical.hotspot_rise_k / 15))
    ResultCache(directory=tmp_path).put(STALE_PHYSICAL_EVAL, stale)

    engine = EvaluationEngine(jobs=1, cache_dir=str(tmp_path))
    served, = evaluate_specs([DEFAULT], engine=engine, physical=True)
    assert served == fresh
    assert engine.report().stage("spec.evaluate").cache_misses == 1
    assert (tmp_path / f"{_physical_key(DEFAULT)}.json").is_file()


def test_unknown_solver_tag_rejected():
    with pytest.raises(ReproError, match="thermal solver"):
        evaluate_spec(DEFAULT, physical=True, thermal_solver="jacobi-400")
    point = resolve(DEFAULT)
    outcome, = run_staged_flows((point.m3d,), point.pdk)
    with pytest.raises(ReproError, match="thermal solver"):
        analyze_thermal(outcome.floorplan, outcome.power, solver="jacobi-400")
