"""Chaos tests: sweeps under deterministic fault injection.

The acceptance bar for the fault-tolerant runtime: a 500+-point sweep
with seeded worker crashes and one poison spec completes with exactly
one recorded failure, bit-identical results for every non-failed point
versus a fault-free run, and retry/pool-death counters that match the
injection schedule — reproducibly across runs with the same seed.

Every expected number here is *computed* from the plan's pure selection
function (`FaultPlan.selects`), never hardcoded from an observed run,
so the tests prove determinism rather than assuming it.
"""

from __future__ import annotations

import pytest

from repro.errors import EvaluationFailure, PermanentError, TransientError
from repro.faults import FaultPlan, FaultRule, clear_plan, injected_faults
from repro.runtime.engine import EvaluationEngine
from repro.runtime.keys import call_key
from repro.runtime.pmap import RetryPolicy
from repro.spec import DesignSpec, evaluate_spec, evaluate_specs
from repro.spec.sweep import SweepSpec
from repro.sweep import SweepCheckpoint, chunk_hash, run_streaming_sweep

BASE = {"arch": {}, "tech": {}, "workload": {"network": "resnet18"}}


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def _sweep(points: int) -> SweepSpec:
    return SweepSpec.from_jsonable({
        "base": BASE,
        "grid": {"tech.delta": [1.0 + i / 1000 for i in range(points)]},
    })


def _tokens(sweep: SweepSpec) -> list[str]:
    """The per-task fault tokens: the engine keys its injection points by
    the same call_key the cache uses, so tests can target exact specs."""
    return [call_key(evaluate_spec, (spec,), {})
            for spec in sweep.iter_specs()]


# --- the acceptance chaos sweep -------------------------------------------


CHAOS_POINTS = 504
CHAOS_SEED = 20230417
POISON_INDEX = 100


def _chaos_plan(state_dir: str, poison_token: str) -> FaultPlan:
    return FaultPlan(seed=CHAOS_SEED, state_dir=state_dir, rules=(
        # The poison spec: crashes its worker on *every* attempt, so
        # only quarantine can resolve it.  Listed first so it always
        # wins the race against the rate rule on its own token.
        FaultRule(site="task.crash", match=poison_token, times=0),
        # Background worker crashes: each selected task kills one pool,
        # then succeeds on redispatch (times=1).
        FaultRule(site="task.crash", rate=0.006, times=1),
        # Flaky transients: each selected task fails once, then the
        # seeded-backoff retry succeeds.
        FaultRule(site="task.transient", rate=0.012, times=1),
    ))


def _run_chaos(sweep: SweepSpec, state_dir: str, poison_token: str):
    plan = _chaos_plan(state_dir, poison_token)
    engine = EvaluationEngine(
        jobs=2, use_cache=False,
        retry_policy=RetryPolicy(max_retries=2, backoff_base=0.0,
                                 max_pool_deaths=2))
    with injected_faults(plan):
        result = run_streaming_sweep(sweep, engine=engine, chunk_size=128,
                                     max_failures=1)
    stage = next(s for s in engine.report().stages
                 if s.name == "sweep.evaluate")
    return result, stage


def test_chaos_sweep_matches_its_injection_schedule(tmp_path):
    sweep = _sweep(CHAOS_POINTS)
    tokens = _tokens(sweep)
    poison_token = tokens[POISON_INDEX]

    # The expected schedule is pure: compute it before running anything.
    schedule = _chaos_plan(str(tmp_path / "probe"), poison_token)
    crash_rule = schedule.rules[1]
    transient_rule = schedule.rules[2]
    crashed = {t for t in tokens
               if schedule.selects("task.crash", t)} - {poison_token}
    flaky = {t for t in tokens
             if transient_rule.match is None
             and schedule.selected_rules("task.transient", t)} \
        - {poison_token}
    assert crash_rule.times == 1 and transient_rule.times == 1
    # The chosen seed/rates must actually exercise both fault paths.
    assert len(crashed) >= 1
    assert len(flaky) >= 2
    expected_pool_deaths = len(crashed) + 2      # + poison's quarantine
    expected_retries = len(flaky)

    result, stage = _run_chaos(sweep, str(tmp_path / "run1"), poison_token)

    # Exactly one recorded failure: the poison spec, quarantined.
    assert result.points == CHAOS_POINTS
    assert result.failed == 1
    failure = result.failures[0]
    assert isinstance(failure, EvaluationFailure)
    assert failure.error_type == "poison_task_error"
    assert failure.pool_deaths == 2
    assert call_key(evaluate_spec, (failure.spec,), {}) == poison_token
    assert len(result.evaluations) == CHAOS_POINTS - 1

    # Counters match the computed schedule exactly.
    assert stage.failures == 1
    assert stage.retries == expected_retries
    assert stage.pool_deaths == expected_pool_deaths

    # Every non-failed point is bit-identical to a fault-free run.
    reference = run_streaming_sweep(
        sweep, engine=EvaluationEngine(jobs=1, use_cache=False),
        chunk_size=128)
    assert reference.failed == 0
    expected_evaluations = tuple(
        evaluation for index, evaluation
        in enumerate(reference.evaluations) if index != POISON_INDEX)
    assert result.evaluations == expected_evaluations


def test_chaos_sweep_is_deterministic_across_runs(tmp_path):
    sweep = _sweep(CHAOS_POINTS)
    poison_token = _tokens(sweep)[POISON_INDEX]
    first, first_stage = _run_chaos(sweep, str(tmp_path / "a"),
                                    poison_token)
    second, second_stage = _run_chaos(sweep, str(tmp_path / "b"),
                                      poison_token)
    assert first.evaluations == second.evaluations
    assert [f.error_type for f in first.failures] \
        == [f.error_type for f in second.failures]
    assert first.failures[0].spec == second.failures[0].spec
    assert (first_stage.retries, first_stage.pool_deaths,
            first_stage.failures) \
        == (second_stage.retries, second_stage.pool_deaths,
            second_stage.failures)


# --- partial-results streaming --------------------------------------------


def _always_failing(token: str) -> FaultPlan:
    """A plan under which one spec's every attempt raises TransientError,
    exhausting the retry budget — a deterministic permanent failure."""
    return FaultPlan(rules=(
        FaultRule(site="task.transient", match=token, times=0),))


def _small_engine() -> EvaluationEngine:
    return EvaluationEngine(
        jobs=1, use_cache=False,
        retry_policy=RetryPolicy(max_retries=1, backoff_base=0.0))


def test_strict_mode_still_raises_on_first_failure():
    sweep = _sweep(8)
    token = _tokens(sweep)[3]
    with injected_faults(_always_failing(token)):
        with pytest.raises(TransientError):
            run_streaming_sweep(sweep, engine=_small_engine(),
                                chunk_size=4)  # max_failures=0 default


def test_partial_mode_records_the_failure_and_finishes():
    sweep = _sweep(8)
    specs = list(sweep.iter_specs())
    token = _tokens(sweep)[3]
    with injected_faults(_always_failing(token)):
        result = run_streaming_sweep(sweep, engine=_small_engine(),
                                     chunk_size=4, max_failures=-1)
    assert result.points == 8
    assert result.failed == 1
    assert len(result.evaluations) == 7
    failure = result.failures[0]
    assert failure.error_type == "transient_error"
    assert failure.retries == 1          # the budget was spent first
    assert failure.spec == specs[3]
    assert result.evaluated == 7


def test_exceeding_the_failure_budget_raises_permanent_error(tmp_path):
    sweep = _sweep(8)
    tokens = _tokens(sweep)
    plan = FaultPlan(rules=(
        FaultRule(site="task.transient", match=tokens[1], times=0),
        FaultRule(site="task.transient", match=tokens[6], times=0),
    ))
    store_dir = tmp_path / "ckpt"
    with injected_faults(plan):
        with pytest.raises(PermanentError, match="max-failures"):
            run_streaming_sweep(sweep, engine=_small_engine(),
                                chunk_size=4, max_failures=1,
                                checkpoint=store_dir)
    # The breaching chunk was flushed before raising: both failures are
    # on disk, so a resume retries exactly them.
    store = SweepCheckpoint.for_sweep(store_dir, sweep, chunk_size=4)
    records = [store.get(index, chunk_hash(chunk), chunk)
               for index, chunk in enumerate(sweep.chunks(4))]
    recorded = sum(len(record.failures) for record in records
                   if record is not None)
    assert recorded == 2


def test_resume_retries_only_the_failed_points(tmp_path):
    sweep = _sweep(12)
    token = _tokens(sweep)[5]
    store_dir = tmp_path / "ckpt"
    with injected_faults(_always_failing(token)):
        broken = run_streaming_sweep(sweep, engine=_small_engine(),
                                     chunk_size=4, max_failures=-1,
                                     checkpoint=store_dir)
    assert broken.failed == 1

    # Faults cleared: the resume heals the failed point without
    # re-evaluating anything that already succeeded.
    engine = _small_engine()
    healed = run_streaming_sweep(sweep, engine=engine, chunk_size=4,
                                 max_failures=-1, checkpoint=store_dir)
    stage = next(s for s in engine.report().stages
                 if s.name == "sweep.evaluate")
    assert stage.evaluated == 1          # exactly the failed point
    assert healed.failed == 0
    assert healed.resumed_chunks == 3

    reference = run_streaming_sweep(
        sweep, engine=_small_engine(), chunk_size=4)
    assert healed.evaluations == reference.evaluations


# --- cache corruption ------------------------------------------------------


def test_corrupted_cache_entries_quarantine_and_reevaluate(tmp_path):
    """Injected on-disk corruption degrades to re-evaluation, never to a
    stale or wrong result, and the third run is fully warm again."""
    sweep = _sweep(6)
    cache_dir = tmp_path / "cache"
    corrupt_all = FaultPlan(rules=(
        FaultRule(site="cache.corrupt", rate=1.0, times=0),))

    with injected_faults(corrupt_all):
        first_engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
        first = run_streaming_sweep(sweep, engine=first_engine,
                                    chunk_size=3)
    assert first_engine.cache.stats.stores == 6

    # Every disk entry is now garbage.  A fresh engine must quarantine
    # each one and re-evaluate, reproducing the fault-free values.
    second_engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
    second = run_streaming_sweep(sweep, engine=second_engine,
                                 chunk_size=3)
    assert second_engine.cache.stats.corrupt == 6
    assert second_engine.cache.stats.disk_hits == 0
    assert second.evaluations == first.evaluations
    assert sorted(p.name for p in cache_dir.glob("*.corrupt"))  # evidence

    # The re-written entries are clean: run three is all disk hits.
    third_engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
    third = run_streaming_sweep(sweep, engine=third_engine, chunk_size=3)
    assert third_engine.cache.stats.corrupt == 0
    assert third_engine.cache.stats.disk_hits == 6
    assert third.evaluations == first.evaluations


def test_truncated_cache_entry_quarantines(tmp_path):
    from repro.runtime.cache import MISSING, ResultCache

    cache = ResultCache(directory=tmp_path)
    cache.put("k" * 40, {"value": 42})
    path = cache._disk_path("k" * 40)
    path.write_text(path.read_text(encoding="utf-8")[:10],
                    encoding="utf-8")
    fresh = ResultCache(directory=tmp_path)
    assert fresh.get("k" * 40) is MISSING
    assert fresh.stats.corrupt == 1
    assert not path.exists()             # moved aside, not served again
    assert path.with_suffix(".corrupt").exists()
    # The slot is reusable: a new write round-trips cleanly.
    fresh.put("k" * 40, {"value": 43})
    assert ResultCache(directory=tmp_path).get("k" * 40) == {"value": 43}


def test_cache_entry_failing_validation_quarantines(tmp_path):
    """Valid JSON whose decoded spec fails ``__post_init__`` is corrupt
    too: it re-evaluates instead of raising out of the cache read."""
    specs = [DesignSpec()]
    cache_dir = tmp_path / "cache"
    first = evaluate_specs(specs, engine=EvaluationEngine(
        jobs=1, cache_dir=cache_dir))
    (path,) = cache_dir.glob("*.json")
    path.write_text(path.read_text().replace('"tier_pairs":1',
                                             '"tier_pairs":0'))
    engine = EvaluationEngine(jobs=1, cache_dir=cache_dir)
    assert evaluate_specs(specs, engine=engine) == first
    assert engine.cache.stats.corrupt == 1
    assert path.with_suffix(".corrupt").exists()
