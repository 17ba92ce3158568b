import dataclasses
import math
import re
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from _oracles import jump_reference, run_reference
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import sisq.sim as sim_module
from sisq.chain import ModelParams, rates
from sisq.sim import (
    EnsembleResult,
    SeedSpec,
    Trajectory,
    ZeroSurvivorsError,
    conditioned_ensemble,
    extinction_time_samples,
    simulate,
    simulate_restarted,
)
from sisq.spectral import quasi_stationary_distribution
from sisq.stationary import (
    check_probability_vector,
    log_expected_extinction_time,
    stationary_distribution,
)


def test_seed_spec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(2**64)
    assert SeedSpec(2**64 - 1).root_seed == 2**64 - 1


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "7", None])
def test_seed_spec_refuses_non_integers(bad):
    # each would otherwise truncate or parse onto another seed's stream
    with pytest.raises(ValueError, match="^root_seed must be a 64-bit integer, got "):
        SeedSpec(bad)


def test_seed_spec_accepts_numpy_integers():
    for root in (np.int64(7), np.uint64(2**64 - 1)):
        seed = SeedSpec(root)
        assert type(seed.root_seed) is int and seed.root_seed == int(root)


def test_seed_spec_generator_is_deterministic():
    a = SeedSpec(99).generator(2).random(8)
    b = SeedSpec(99).generator(2).random(8)
    c = SeedSpec(99).generator(3).random(8)
    d = SeedSpec(98).generator(2).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # replicate r draws from Philox keyed [root_seed, r]
    key = np.random.Generator(np.random.Philox(key=[99, 2])).random(8)
    assert np.array_equal(a, key)


_EDGE_SEEDS = (0, 1, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("root", _EDGE_SEEDS)
def test_seed_spec_key_is_exact_for_every_64_bit_seed(root):
    # Philox's 128-bit integer key root + (r << 64) holds the words
    # [root, r] with no float64 conversion on the way.
    for r in (0, 3):
        want = np.random.Generator(np.random.Philox(key=root + (r << 64))).random(4)
        assert np.array_equal(SeedSpec(root).generator(r).random(4), want)


@pytest.mark.parametrize("root", [0, 2**63, 2**64 - 1])
def test_streams_start_each_replicate_where_its_own_generator_does(root):
    # One generator re-keyed per replicate, checked fresh and after the
    # draws of a sampled start: a start uniform and one block of each
    # kind, so a re-key that kept the counter, buffer or its position
    # from the replicate before would show.
    for lo, hi in ((0, 2), (2**63 - 1, 2**63 + 1)):
        for r, gen in zip(range(lo, hi), sim_module._streams(SeedSpec(root), lo, hi)):
            want = SeedSpec(root).generator(r)
            np.testing.assert_equal(gen.bit_generator.state, want.bit_generator.state)
            for g in (gen, want):
                g.random()
                g.standard_exponential(sim_module._BLOCK)
            assert np.array_equal(gen.random(sim_module._BLOCK), want.random(sim_module._BLOCK))
            np.testing.assert_equal(gen.bit_generator.state, want.bit_generator.state)


def test_distinct_seeds_never_share_a_stream():
    streams = {tuple(SeedSpec(root).generator(r).random(4))
               for root in _EDGE_SEEDS for r in (0, 3)}
    assert len(streams) == 2 * len(_EDGE_SEEDS)


def test_simulate_validation():
    p = ModelParams(5, 1.0)
    with pytest.raises(ValueError):
        simulate(p, 0, 1.0, SeedSpec(1))
    with pytest.raises(ValueError):
        simulate(p, 6, 1.0, SeedSpec(1))
    with pytest.raises(ValueError):
        simulate(p, 1, 0.0, SeedSpec(1))
    with pytest.raises(ValueError):
        simulate_restarted(p, -2.0, SeedSpec(1))


@pytest.mark.parametrize("y0", [2.7, 3.9, 2.0, np.float64(2.0), True, "2"],
                         ids=["2.7", "3.9", "float-2.0", "float64-2.0", "True", "str-2"])
def test_non_integer_start_is_refused(y0):
    # a float start used to be truncated (2.7 ran from state 2), and True
    # ran from state 1
    p = ModelParams(5, 2.0)
    message = re.escape(f"initial state must be an integer, got {y0!r}")
    with pytest.raises(ValueError, match=message):
        simulate(p, y0, 1.0, SeedSpec(1))
    with pytest.raises(ValueError, match="initial state must be an integer"):
        conditioned_ensemble(p, 5, 1.0, SeedSpec(1), y0=y0)


def test_numpy_integer_start_runs_as_int():
    p = ModelParams(5, 2.0)
    a = simulate(p, np.int16(3), 5.0, SeedSpec(4))
    b = simulate(p, 3, 5.0, SeedSpec(4))
    assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
    ens = conditioned_ensemble(p, 20, 1.0, SeedSpec(4), y0=np.int64(3))
    assert np.array_equal(ens.survivor_states,
                          conditioned_ensemble(p, 20, 1.0, SeedSpec(4), y0=3).survivor_states)


@pytest.mark.parametrize("states, bad", [
    (np.array([100, 300]), 300),
    ([100, 300], 300),
    ([1, 0, -1], -1),
    (np.array([101], dtype=np.int8), 101),
], ids=["int64-array", "list", "negative", "int8-array"])
def test_trajectory_refuses_states_outside_0_to_n(states, bad):
    # the states [100, 300] of an int64 array used to be stored as int8
    # [100, 44] next to final_state=300; a list raised numpy's OverflowError
    with pytest.raises(ValueError, match=rf"states must lie in 0\.\.100, got {bad}$"):
        Trajectory(n=100, times=np.arange(len(states), dtype=float), states=states,
                   t_end=5.0, state_time=[0.0] * 101, n_events=len(states) - 1,
                   n_restarts=0, final_state=300, log_truncated=False)


@pytest.mark.parametrize("horizon", [math.inf, math.nan])
def test_non_finite_horizon_is_refused(horizon):
    # restarts keep the chain alive, so without a finite horizon a
    # restarted run would never stop
    p = ModelParams(2, 2.0)
    with pytest.raises(ValueError, match="horizon must be finite"):
        simulate(p, 1, horizon, SeedSpec(1))
    with pytest.raises(ValueError, match="horizon must be finite"):
        simulate_restarted(p, horizon, SeedSpec(1))
    with pytest.raises(ValueError, match="horizon must be finite"):
        conditioned_ensemble(p, 5, horizon, SeedSpec(1))


def test_trajectory_structure():
    p = ModelParams(30, 2.0, 1.0)
    tr = simulate(p, 4, 50.0, SeedSpec(8))
    assert (tr.times[0], tr.states[0], bool(tr.restart_flags[0])) == (0.0, 4, False)
    assert np.all((tr.states >= 0) & (tr.states <= p.n))
    assert np.all(np.abs(np.diff(tr.states)) == 1)
    assert np.all(np.diff(tr.times) > 0.0)
    assert not tr.restart_flags.any()
    assert tr.final_state == tr.states[-1]
    assert not tr.log_truncated
    assert tr.n_events == tr.times.size - 1
    assert tr.state_time.sum() == pytest.approx(tr.t_end, rel=1e-10)


def test_trajectory_stops_at_absorption_or_horizon():
    p = ModelParams(3, 0.5, 1.0)
    tr = simulate(p, 1, 5000.0, SeedSpec(2))
    assert tr.final_state == 0
    assert tr.t_end == tr.times[-1] < 5000.0
    p2 = ModelParams(200, 4.0, 1.0)
    tr2 = simulate(p2, 100, 2.0, SeedSpec(2))
    assert tr2.final_state > 0
    assert tr2.t_end == 2.0


def test_single_host_has_single_event():
    tr = simulate(ModelParams(1, 1.0, 2.0), 1, 100.0, SeedSpec(5))
    assert tr.times.size == 2
    assert tr.states.tolist() == [1, 0]
    assert tr.t_end == tr.times[1]
    assert tr.state_time[1] == tr.times[1]


def test_simulate_is_deterministic():
    p = ModelParams(40, 2.0, 1.0)
    a = simulate(p, 3, 20.0, SeedSpec(123))
    b = simulate(p, 3, 20.0, SeedSpec(123))
    c = simulate(p, 3, 20.0, SeedSpec(124))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.times, c.times)


def test_restarted_trajectory_restarts():
    p = ModelParams(2, 1.0, 1.0)
    tr = simulate_restarted(p, 500.0, SeedSpec(6))
    assert tr.n_restarts > 0
    assert tr.n_restarts == int(tr.restart_flags.sum())
    assert tr.state_time[0] == 0.0
    flagged = np.flatnonzero(tr.restart_flags)
    assert np.all(tr.states[flagged] == 1)
    assert np.all(tr.states[flagged - 1] == 0)
    assert np.array_equal(tr.times[flagged], tr.times[flagged - 1])
    dt = np.diff(tr.times)
    assert np.all(dt[tr.restart_flags[1:]] == 0.0)
    assert np.all(dt[~tr.restart_flags[1:]] > 0.0)


def test_pooled_waiting_times_match_rates():
    p = ModelParams(2, 1.0, 1.0)
    tr = simulate_restarted(p, 2000.0, SeedSpec(14))
    dt = np.diff(tr.times)
    prev = tr.states[:-1]
    births, deaths = rates(p)
    for i in (1, 2):
        waits = dt[prev == i]
        want = 1.0 / (births[i] + deaths[i])
        se = waits.std(ddof=1) / math.sqrt(waits.size)
        assert abs(waits.mean() - want) <= 3.0 * se


def _occupancy(tr: Trajectory) -> np.ndarray:
    """Fraction of the transient time spent in each state 1..n."""
    return tr.state_time[1:] / tr.state_time[1:].sum()


def test_occupancy_converges_to_stationary():
    p = ModelParams(2, 1.0, 1.0)
    occ = _occupancy(simulate_restarted(p, 1e5, SeedSpec(17)))
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)
    tv = 0.5 * np.abs(occ - stationary_distribution(p)).sum()
    assert tv < 0.01
    p7 = ModelParams(7, 1.2, 1.0)
    occ7 = _occupancy(simulate_restarted(p7, 1e5, SeedSpec(19)))
    tv7 = 0.5 * np.abs(occ7 - stationary_distribution(p7)).sum()
    assert tv7 < 0.02


def test_event_log_cap_keeps_statistics_exact(monkeypatch):
    monkeypatch.setattr(sim_module, "MAX_LOGGED_EVENTS", 5)
    p = ModelParams(2, 1.0, 1.0)
    tr = simulate_restarted(p, 200.0, SeedSpec(6))
    assert tr.log_truncated
    assert tr.times.size == 6
    assert tr.n_events > 5
    assert tr.t_end == 200.0
    assert tr.state_time.sum() == pytest.approx(200.0, rel=1e-10)
    assert _occupancy(tr).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("cap", range(1, 9))
def test_truncated_log_is_a_prefix_of_the_full_log(monkeypatch, cap):
    # caps 1..8 cut the log at absorption rows and at restart rows alike
    p = ModelParams(2, 1.0, 1.0)
    full = simulate_restarted(p, 50.0, SeedSpec(6))
    assert full.states[:9].tolist().count(0) >= 2
    monkeypatch.setattr(sim_module, "MAX_LOGGED_EVENTS", cap)
    cut = simulate_restarted(p, 50.0, SeedSpec(6))
    assert cut.log_truncated and cut.times.size == cap + 1
    for name in ("times", "states", "restart_flags"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)[:cap + 1])
    assert (cut.n_events, cut.n_restarts) == (full.n_events, full.n_restarts)


@pytest.mark.parametrize("cap", [1023, 1024, 1025, 2047, 2048])
def test_log_cap_at_the_real_block_size(monkeypatch, cap):
    # _run extends its log once per 1024-draw block, so these caps cut the
    # log next to the first and second extension.  About 3,800 rows with
    # about 400 restarts.
    p, t_max, seed = ModelParams(5, 1.5), 1000.0, 1
    full = simulate_restarted(p, t_max, SeedSpec(seed))
    assert full.times.size > 3000 and full.n_restarts > 100
    monkeypatch.setattr(sim_module, "MAX_LOGGED_EVENTS", cap)
    cut = simulate_restarted(p, t_max, SeedSpec(seed))
    assert cut.log_truncated and cut.times.size == cap + 1
    for name in ("times", "states", "restart_flags"):
        assert np.array_equal(getattr(cut, name), getattr(full, name)[:cap + 1])
    assert (cut.n_events, cut.n_restarts) == (full.n_events, full.n_restarts)
    _assert_kernels_match_reference(p, seed, "restarted", 1, t_max)


def test_log_cap_where_the_log_grows(monkeypatch):
    # _run grows its log columns at the end of each draw block.  These caps
    # cut the log on and next to the end of the first block, of the first
    # block past 65,536 rows, at 65,536 itself and at the first absorption
    # past it.  About 114k rows with about 14k restarts.  The restart flags,
    # derived from the states, are checked against those the reference
    # loop sets where it restarts.
    p, t_max, seed = ModelParams(5, 1.5), 3e4, 1
    full = simulate_restarted(p, t_max, SeedSpec(seed))
    assert full.times.size > 100_000 and full.n_restarts > 10_000
    _, ref_flags = _assert_kernels_match_reference(p, seed, "restarted", 1, t_max)
    want = {"times": full.times, "states": full.states, "restart_flags": ref_flags}
    # The last row of each block: its last jump, or the restart row after it.
    ends = _jump_rows(full)[sim_module._BLOCK - 1::sim_module._BLOCK]
    ends += full.states[ends] == 0
    # An absorption past 65,536 rows, its restart row the first one dropped.
    absorbed = np.flatnonzero(full.states == 0)
    grown = (int(ends[0]), int(ends[ends > 65_536][0]), 65_536,
             int(absorbed[absorbed > 65_536][0]))
    for cap in sorted(c + d for c in grown for d in (-1, 0, 1)):
        monkeypatch.setattr(sim_module, "MAX_LOGGED_EVENTS", cap)
        cut = simulate_restarted(p, t_max, SeedSpec(seed))
        assert cut.log_truncated and cut.states.dtype == np.int8
        for name, whole in want.items():
            col = getattr(cut, name)
            assert col.size == cap + 1 and not col.flags.writeable, (cap, name)
            assert np.array_equal(col, whole[:cap + 1]), (cap, name)
        assert (cut.n_events, cut.n_restarts) == (full.n_events, full.n_restarts)


@pytest.mark.parametrize("restarted, n, y0, horizons", [
    (True, 100, 1, (500.0, 1000.0)),
    (False, 1000, 500, (50.0, 100.0)),
])
def test_run_memory_per_logged_row(restarted, n, y0, horizons):
    # Marginal tracemalloc peak of _run between two horizons, of about
    # 50k and 100k rows.  Keeping the whole log in lists until the end cost
    # 59 B a row at n = 100 (states are cached small ints) and 91 B at
    # n = 1000; 8-byte block arrays joined at the end cost about 24 B, and
    # 17.0 and 18.3 B with each block's states at the narrowest type that
    # holds n.  Recorded in place, with no join, it cost 10.0 and 11.1 B
    # with a stored flag column, and 9.0 and 10.1 B now that the flags are
    # derived from the states: half a byte over the time and the state.
    p = ModelParams(n, 2.0)
    rows, peaks = [], []
    for t_max in horizons:
        tracemalloc.start()
        try:
            tr = sim_module._run(p, y0, t_max, SeedSpec(1).generator(), restarted)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows.append(tr.times.size)
    assert rows[1] - rows[0] > 40_000
    bound = tr.times.itemsize + tr.states.itemsize + 0.5
    assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) <= bound, (rows, peaks)


def _jump_rows(tr: Trajectory) -> np.ndarray:
    """Log row of each jump, in draw order; the other rows past 0 are restarts."""
    return np.flatnonzero(tr.states[:-1] != 0) + 1


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_horizon_at_the_first_jump_of_a_block(monkeypatch, block):
    # The horizon falls after the last jump of the first block and before
    # the first jump of the second, which meets it with the carried clock.
    monkeypatch.setattr(sim_module, "_BLOCK", block)
    p, y0, seed = ModelParams(100, 2.0), 50, 4
    full, _ = run_reference(p, y0, 1e3, SeedSpec(seed).generator(), False)
    rows = _jump_rows(full)
    t_max = (full.times[rows[block - 1]] + full.times[rows[block]]) / 2
    tr = sim_module._run(p, y0, t_max, SeedSpec(seed).generator(), False)
    assert (tr.times.size, tr.t_end, tr.final_state) == (block + 1, t_max, full.states[block])
    _assert_kernels_match_reference(p, seed, "plain", y0, t_max)


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_absorption_on_the_last_draw_of_a_block(monkeypatch, block):
    # The restart row after that absorption ends the block.  The horizon
    # falls before the next jump, so it also ends the log.
    monkeypatch.setattr(sim_module, "_BLOCK", block)
    p, seed = ModelParams(2, 1.0), 9
    full, _ = run_reference(p, 1, 5e3, SeedSpec(seed).generator(), True)
    last_draws = _jump_rows(full)[block - 1::block]
    row = int(last_draws[full.states[last_draws] == 0][0])
    t_max = (full.times[row] + full.times[row + 2]) / 2
    tr = sim_module._run(p, 1, t_max, SeedSpec(seed).generator(), True)
    assert tr.states[-2:].tolist() == [0, 1] and tr.restart_flags[-1]
    assert (tr.times.size, tr.t_end, tr.final_state) == (row + 2, t_max, 1)
    _assert_kernels_match_reference(p, seed, "restarted", 1, t_max)


@pytest.mark.parametrize("restarted", [False, True])
def test_horizon_before_the_first_event(restarted):
    p, y0, t_max = ModelParams(10, 2.0), (1 if restarted else 5), 1e-9
    tr = sim_module._run(p, y0, t_max, SeedSpec(2).generator(), restarted)
    assert (tr.times.tolist(), tr.states.tolist(), tr.n_events) == ([0.0], [y0], 0)
    assert tr.t_end == tr.state_time[y0] == tr.state_time.sum() == t_max
    _assert_kernels_match_reference(p, 2, "restarted" if restarted else "plain", y0, t_max)


@pytest.mark.parametrize("block", [1, 3, 1024])
def test_log_cap_between_absorption_and_restart(monkeypatch, block):
    # The last logged row is an absorption; its restart row is the first
    # one dropped.  One such row early in the log and one past 1,500 rows.
    monkeypatch.setattr(sim_module, "_BLOCK", block)
    p, t_max, seed = ModelParams(5, 1.5), 1000.0, 1
    full, _ = run_reference(p, 1, t_max, SeedSpec(seed).generator(), True)
    absorbed = np.flatnonzero(full.states == 0)
    for row in (int(absorbed[0]), int(absorbed[absorbed > 1500][0])):
        monkeypatch.setattr(sim_module, "MAX_LOGGED_EVENTS", row)
        tr = sim_module._run(p, 1, t_max, SeedSpec(seed).generator(), True)
        assert tr.log_truncated and tr.times.size == row + 1 and tr.states[-1] == 0
        assert (tr.n_events, tr.n_restarts) == (full.n_events, full.n_restarts)
        _assert_kernels_match_reference(p, seed, "restarted", 1, t_max)


def test_unbounded_restarted_run_is_refused_before_any_draw(monkeypatch):
    # Every transient state fires at rate >= gamma and a restart never
    # rests at 0, so gamma * t_max bounds the expected event count.
    runs = []
    monkeypatch.setattr(sim_module, "_run", lambda *args, **kwargs: runs.append(args))
    for gamma, t_max in ((1.0, 1e11), (4.0, 2.6e9), (1e300, 1e300)):
        with pytest.raises(ValueError, match=r"gamma \* t_max"):
            simulate_restarted(ModelParams(5, 2.0, gamma), t_max, SeedSpec(1))
    assert runs == []
    simulate_restarted(ModelParams(5, 2.0, 1.0), 1e10, SeedSpec(1))  # at the budget
    assert len(runs) == 1


def test_ensemble_validation():
    p = ModelParams(10, 2.0)
    with pytest.raises(ValueError):
        conditioned_ensemble(p, 0, 1.0, SeedSpec(1))
    with pytest.raises(ValueError):
        conditioned_ensemble(p, 5, 0.0, SeedSpec(1))
    with pytest.raises(ValueError):
        conditioned_ensemble(p, 5, 1.0, SeedSpec(1), y0=11)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "3", None])
@pytest.mark.parametrize("what", ["replicates", "workers"])
def test_counts_refuse_non_integers(what, bad):
    p = ModelParams(5, 2.0)
    counts = {"replicates": 3, "workers": 1, what: bad}
    for run in (
        lambda: conditioned_ensemble(p, counts["replicates"], 1.0, SeedSpec(1),
                                     workers=counts["workers"]),
        lambda: extinction_time_samples(p, counts["replicates"], SeedSpec(1),
                                        [1.0, 0.0, 0.0, 0.0, 0.0], workers=counts["workers"]),
    ):
        with pytest.raises(ValueError, match=f"^{what} must be an integer >= 1, got "):
            run()


def test_counts_accept_numpy_integers():
    p = ModelParams(5, 2.0)
    res = conditioned_ensemble(p, np.int64(3), 1.0, SeedSpec(1), workers=np.int64(1))
    assert type(res.replicates) is int and res.replicates == 3
    samples = extinction_time_samples(p, np.int64(3), SeedSpec(1),
                                      [1.0, 0.0, 0.0, 0.0, 0.0], workers=np.int64(1))
    assert samples.replicates == 3


def test_ensemble_parallel_equals_serial():
    p = ModelParams(50, 2.0, 1.0)
    serial = conditioned_ensemble(p, 300, 3.0, SeedSpec(31))
    parallel = conditioned_ensemble(p, 300, 3.0, SeedSpec(31), workers=3)
    assert np.array_equal(serial.survivor_states, parallel.survivor_states)
    assert serial.replicates == parallel.replicates == 300


def test_ensemble_statistics():
    p = ModelParams(100, 5.0, 1.0)
    res = conditioned_ensemble(p, 400, 5.0, SeedSpec(37))
    assert 0 < res.survivors <= 400
    assert res.survival_fraction == res.survivors / 400
    assert np.all((res.survivor_states >= 1) & (res.survivor_states <= 100))
    assert res.histogram().sum() == res.survivors
    assert res.mean() == pytest.approx(res.survivor_states.mean(), rel=1e-15)
    assert res.sample_variance() == pytest.approx(
        res.survivor_states.var(ddof=1), rel=1e-15)
    # endemic level for R0 = 5 sits near 0.8 n
    assert abs(res.mean() / p.n - 0.8) < 0.03


def test_subcritical_ensemble_dies_out():
    res = conditioned_ensemble(ModelParams(10, 0.5, 1.0), 400, 50.0, SeedSpec(23))
    assert res.survival_fraction < 0.01


def test_zero_survivors_is_a_distinct_error():
    res = EnsembleResult(n=5, t_snap=9.0, replicates=4, survivor_states=[])
    with pytest.raises(ZeroSurvivorsError):
        res.mean()
    with pytest.raises(ZeroSurvivorsError):
        res.sample_variance()
    assert res.survival_fraction == 0.0


def test_extinction_samples_validation():
    p = ModelParams(3, 0.5)
    with pytest.raises(ValueError):
        extinction_time_samples(p, 0, SeedSpec(1), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        extinction_time_samples(p, 5, SeedSpec(1), [0.7, 0.7, -0.4])


def test_extinction_samples_deterministic_and_parallel_safe():
    p = ModelParams(2, 1.0, 1.0)
    q = quasi_stationary_distribution(p).qsd
    a = extinction_time_samples(p, 500, SeedSpec(41), q)
    b = extinction_time_samples(p, 500, SeedSpec(41), q, workers=3)
    assert np.array_equal(a.times, b.times)


def test_start_state_keeps_to_states_with_mass():
    # Masses summing to 1 - 1e-13 are accepted, and a uniform above their
    # sum takes the last state with mass, not state n, which has none.
    cum = np.cumsum(check_probability_vector([0.5, 0.5 - 1e-13, 0.0], 3)).tolist()
    assert sim_module._start_state(cum, math.nextafter(1.0, 0.0)) == 2
    # The tie rule: the first state whose cumulative sum reaches u, which
    # for 0 < u <= cum[-1] always has mass; u = 0 takes the first state
    # with mass.  States 1 and 3 have none.
    cum = [0.0, 0.25, 0.25, 0.5, 1.0]
    for u, state in ((0.0, 2), (0.125, 2), (0.25, 2), (math.nextafter(0.25, 1.0), 4),
                     (0.5, 4), (math.nextafter(0.5, 1.0), 5), (math.nextafter(1.0, 0.0), 5)):
        assert sim_module._start_state(cum, u) == state, u
    for u in np.random.default_rng(0).random(1000).tolist():
        assert sim_module._start_state(cum, u) == int(np.searchsorted(cum, u)) + 1


def test_single_host_extinction_law():
    # absorption from state 1 with n = 1 is a bare Exp(gamma) clock
    p = ModelParams(1, 1.0, 2.0)
    s = extinction_time_samples(p, 10**4, SeedSpec(3), [1.0])
    assert abs(s.mean - 0.5) <= 3.0 * s.standard_error
    d = stats.kstest(s.times, "expon", args=(0.0, 0.5)).statistic
    assert d < stats.kstwo.isf(0.01, s.replicates)


def test_extinction_mean_from_qsd_start():
    p = ModelParams(2, 1.0, 1.0)
    q = quasi_stationary_distribution(p).qsd
    s = extinction_time_samples(p, 10**5, SeedSpec(21), q)
    assert abs(s.mean - 1.390388) <= 3.0 * s.standard_error


def test_seeded_output_is_pinned():
    # Literal values recorded from the original three-loop sampler; any
    # change to the per-replicate draw order shows up here.
    ens = conditioned_ensemble(ModelParams(50, 2, 1), 300, 3.0, SeedSpec(31))
    assert int(ens.survivor_states.sum()) == 2065
    assert ens.survivor_states[:10].tolist() == [6, 12, 1, 23, 12, 18, 23, 16, 15, 21]
    p = ModelParams(2, 1, 1)
    q = quasi_stationary_distribution(p).qsd
    times = extinction_time_samples(p, 50, SeedSpec(41), q).times
    assert times[:5].tolist() == [0.5099662802372731, 7.087717654172384,
                                  1.9205300590503245, 0.10529705755843095,
                                  0.20706659203502129]
    tr = simulate_restarted(ModelParams(100, 2, 1), 200.0, SeedSpec(1))
    assert (tr.n_events, tr.n_restarts, tr.final_state, tr.t_end) == (18736, 2, 39, 200.0)


def test_multi_block_sampler_output_is_pinned():
    # Literal values recorded from the loops that indexed into each block.
    # Each ensemble replicate runs about 11,000 events and each extinction
    # replicate about 1,100, so both cross block boundaries, which the
    # ~150-event replicates of test_seeded_output_is_pinned never do.
    ens = conditioned_ensemble(ModelParams(1000, 5), 8, 10.0, SeedSpec(42))
    assert ens.survivor_states.tolist() == [784, 815, 770, 810, 787, 775, 807]
    p = ModelParams(20, 2)
    q = quasi_stationary_distribution(p).qsd
    times = extinction_time_samples(p, 20, SeedSpec(7), q).times
    assert times[:5].tolist() == [32.99352415639589, 9.595698990041845,
                                  30.690560463610854, 120.32460827415618,
                                  84.41586867548129]


def test_workers_are_validated_and_capped(monkeypatch):
    sizes = []

    class InlinePool:
        """Records the requested pool size and maps inline; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(sim_module, "futures", SimpleNamespace(ProcessPoolExecutor=InlinePool))
    # The usable CPUs cap the pool, here 4 of the host's 8.
    monkeypatch.setattr(sim_module.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sim_module.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    p = ModelParams(20, 2.0, 1.0)
    p2 = ModelParams(2, 1.0, 1.0)
    q = quasi_stationary_distribution(p2).qsd
    for bad in (0, -3):
        with pytest.raises(ValueError):
            conditioned_ensemble(p, 10, 1.0, SeedSpec(5), workers=bad)
        with pytest.raises(ValueError):
            extinction_time_samples(p2, 10, SeedSpec(5), q, workers=bad)
    serial = conditioned_ensemble(p, 10, 1.0, SeedSpec(5))
    capped = conditioned_ensemble(p, 10, 1.0, SeedSpec(5), workers=100000)
    few = conditioned_ensemble(p, 3, 1.0, SeedSpec(5), workers=100000)
    assert np.array_equal(serial.survivor_states, capped.survivor_states)
    assert np.array_equal(serial.survivor_states[:few.survivors], few.survivor_states)
    ext_serial = extinction_time_samples(p2, 10, SeedSpec(5), q)
    ext_capped = extinction_time_samples(p2, 10, SeedSpec(5), q, workers=100000)
    assert np.array_equal(ext_serial.times, ext_capped.times)
    # An affinity mask narrower than the request: 2 of 8 CPUs, as under
    # taskset or a cpuset.  Without an affinity call the CPU count caps.
    monkeypatch.setattr(sim_module.os, "sched_getaffinity", lambda pid: {2, 5})
    narrowed = conditioned_ensemble(p, 10, 1.0, SeedSpec(5), workers=8)
    monkeypatch.delattr(sim_module.os, "sched_getaffinity")
    host = conditioned_ensemble(p, 10, 1.0, SeedSpec(5), workers=100000)
    for run in (narrowed, host):
        assert np.array_equal(serial.survivor_states, run.survivor_states)
    assert sizes == [4, 3, 4, 2, 8]


def test_standard_error_degenerate():
    s = extinction_time_samples(ModelParams(1, 1.0), 1, SeedSpec(2), [1.0])
    assert math.isnan(s.standard_error)
    assert s.replicates == 1


def _assert_same_trajectory(got: Trajectory, want: tuple[Trajectory, np.ndarray]) -> None:
    """Every field of `got` as in the reference, and its derived restart
    flags as the ones the reference loop set where it restarted."""
    want, want_flags = want
    pairs = [(f.name, getattr(got, f.name), getattr(want, f.name))
             for f in dataclasses.fields(Trajectory)]
    for name, a, b in pairs + [("restart_flags", got.restart_flags, want_flags)]:
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        else:
            assert (type(a), a) == (type(b), b), name


def _assert_kernels_match_reference(p: ModelParams, seed: int, mode: str,
                                    start: int, t_stop: float):
    """One case of a kernel against its frozen oracle: same result, same draws.

    Returns the oracle's result: (Trajectory, restart flags) for a run.
    """
    gen, ref_gen = SeedSpec(seed).generator(), SeedSpec(seed).generator()
    if mode == "jump":
        births, totals = sim_module._rates(p)
        got = sim_module._jump(sim_module._table(p), start, t_stop, gen)
        want = jump_reference(births, totals, start, t_stop, ref_gen)
        assert (type(got[1]), got) == (type(want[1]), want)
    else:
        restarted = mode == "restarted"
        want = run_reference(p, start, t_stop, ref_gen, restarted)
        _assert_same_trajectory(sim_module._run(p, start, t_stop, gen, restarted), want)
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)
    return want


def _kernel_grid_cases():
    for n in (1, 2, 5, 20, 100):
        for r0 in (0.5, 2.0, 5.0):
            p = ModelParams(n, r0)
            # An endless t_stop only where extinction is quick: at n = 100,
            # R0 = 5 the mean extinction time is about e^80.
            quick = log_expected_extinction_time(p) < math.log(100.0)
            for seed in (0, 1, 2):
                for t_stop in (0.5, 10.0) + ((math.inf,) if quick else ()):
                    for start in sorted({1, n}):
                        yield p, seed, "jump", start, t_stop
                for t_max in (0.5, 10.0):
                    for y0 in sorted({1, n}):
                        yield p, seed, "plain", y0, t_max
                    yield p, seed, "restarted", 1, t_max


@pytest.mark.parametrize("n", [1, 2, 10_007])
def test_walk_thresholds_decide_as_the_rate_product(n):
    # u < thr[s] against u * totals[s] < births[s], the walk's step test,
    # at the points around each threshold and at random uniforms: R0 <= 1
    # and above, rates near 1e-300 (subnormal births among them, where the
    # threshold lies far from births/totals), and rates at the edge of
    # what ModelParams accepts.
    edge = sys.float_info.max / max((n // 2) * (n - n // 2), n) * (1 - 1e-15)
    rng = np.random.default_rng(n)
    for lam, gamma in ((0.5, 1.0), (1.0, 1.0), (2.3, 0.9), (1e-300, 1e-300),
                       (2e-300, 1e-300), (1e-320, 1e-300), (edge / 2, edge), (edge, edge / 2)):
        p = ModelParams(n, lam, gamma)
        births, totals = map(np.array, sim_module._rates(p))
        thr = np.array(sim_module._table(p)[0])
        assert np.all(thr[[0, n]] == 0.0)
        points = [0.0, thr, np.nextafter(thr, np.inf), np.maximum(np.nextafter(thr, -np.inf), 0.0),
                  math.nextafter(1.0, 0.0)]
        # 10**4 random uniforms, 100 at a time against every state
        for u in points + np.array_split(rng.random((10**4, 1)), 100):
            assert np.array_equal(u < thr, u * totals < births), (lam, gamma)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1024])
def test_kernels_bit_identical_to_reference(monkeypatch, block):
    monkeypatch.setattr(sim_module, "_BLOCK", block)
    plain_ends = set()
    for case in _kernel_grid_cases():
        want = _assert_kernels_match_reference(*case)
        if case[2] == "plain":
            plain_ends.add(want[0].final_state == 0)
    # restarted logs cut at absorption rows and at restart rows alike
    cut_ends = set()
    for cap in range(1, 9):
        monkeypatch.setattr(sim_module, "MAX_LOGGED_EVENTS", cap)
        for seed in range(3):
            tr, _ = _assert_kernels_match_reference(ModelParams(2, 1.0), seed, "restarted", 1, 50.0)
            assert tr.log_truncated
            cut_ends.add(int(tr.states[-1]))
    # The derived restart flags met plain runs that end at 0 and at the
    # horizon, and truncated logs that end between an absorption and its
    # restart (at 0) and on a restart row (at 1).
    assert plain_ends == {True, False} and {0, 1} <= cut_ends


@pytest.mark.parametrize("block", [1, 2, 3, 7, 1024])
def test_sampler_agrees_with_the_recorder(monkeypatch, block):
    """The two callers of the state-path walk, tied to each other on plain
    runs: the sampler ends where the recorder does, on the same draws."""
    monkeypatch.setattr(sim_module, "_BLOCK", block)
    absorbed = set()
    for p, seed, mode, y0, t_max in _kernel_grid_cases():
        if mode != "plain":
            continue
        gen, gen2 = SeedSpec(seed).generator(), SeedSpec(seed).generator()
        state, t = sim_module._jump(sim_module._table(p), y0, t_max, gen)
        tr = sim_module._run(p, y0, t_max, gen2, False)
        assert type(t) is float
        if tr.final_state == 0:
            assert (state, t) == (0, tr.t_end)
        else:
            assert state == tr.final_state and t >= t_max == tr.t_end
        np.testing.assert_equal(gen.bit_generator.state, gen2.bit_generator.state)
        absorbed.add(state == 0)
    assert absorbed == {True, False}


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=150),
    r0=st.floats(min_value=0.2, max_value=6.0),
    seed=st.integers(min_value=0, max_value=2**32),
    mode=st.sampled_from(["jump", "plain", "restarted"]),
    start=st.floats(min_value=0.0, max_value=1.0),
    t_stop=st.floats(min_value=1e-3, max_value=20.0),
    block=st.sampled_from([1, 2, 3, 7, 64, 1024]),
)
def test_kernels_match_reference_property(n, r0, seed, mode, start, t_stop, block):
    y0 = 1 if mode == "restarted" else max(1, round(start * n))
    saved = sim_module._BLOCK
    sim_module._BLOCK = block
    try:
        _assert_kernels_match_reference(ModelParams(n, r0), seed, mode, y0, t_stop)
    finally:
        sim_module._BLOCK = saved
