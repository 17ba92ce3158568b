"""Exact event-driven (Gillespie) simulation of the SIS jump chain.

At state i the waiting time to the next event is exponential with rate
birth_rate(i) + death_rate(i), and the event is a birth with probability
birth/(birth + death).  No approximation is involved anywhere; these
trajectories are the empirical oracle the analytic modules are checked
against.

Two event loops implement this.  `_run` is the recording loop behind
`simulate` and `simulate_restarted`: it keeps the event log, the
occupancy clocks and the restart rows, and stops at the horizon, or at
absorption unless restarts are on.  `_jump` is the lean sampler behind
`conditioned_ensemble` and `extinction_time_samples`: it keeps nothing
but the state and the clock, and stops at absorption or once the clock
reaches t_stop (infinite for extinction times).  They stay apart because
recording costs the samplers time on every event: merged loops carrying
a recording branch were bit-identical but 1.10-1.22x slower on the
ensemble (n=1000, R0=5) and 1.10-1.36x slower on extinction times
(n=20), measured on a 2-core Intel Xeon with Python 3.11 and numpy 2.4.

Determinism contract: replicate r of a run seeded with SeedSpec(root, s)
draws all of its randomness from a Philox4x64 generator keyed with
key = [root, s + r].  Within a stream the draw order is fixed: one scalar
uniform for the initial state when it is sampled from a distribution,
then alternating blocks of 1024 standard exponentials and 1024 uniforms,
one (exponential, uniform) pair consumed per attempted event.  Replicates
therefore never share a stream, and parallel execution over replicates is
observationally identical to a serial run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from sisq.chain import ModelParams
from sisq.stationary import check_probability_vector, log_stationary_weights

__all__ = [
    "MAX_LOGGED_EVENTS",
    "SeedSpec",
    "Trajectory",
    "EnsembleResult",
    "ExtinctionSamples",
    "ZeroSurvivorsError",
    "simulate",
    "simulate_restarted",
    "empirical_occupancy",
    "conditioned_ensemble",
    "extinction_time_samples",
]

# Beyond this many logged rows a trajectory keeps simulating but stops
# recording individual events; occupancy and counters stay exact.
MAX_LOGGED_EVENTS = 10**7

_BLOCK = 1024

# Refuse extinction sampling whose expected event count exceeds this:
# about 40 minutes at the ~4M events/s the sampler loop runs on a 2-core
# x86-64 host.
_MAX_EXPECTED_EVENTS = 1e10


class ZeroSurvivorsError(RuntimeError):
    """No replicate survived to the snapshot time; statistics undefined."""


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seeding: Philox4x64 keyed with [root_seed, stream_index].

    Distinct stream indices give statistically independent streams;
    replicate r of an operation offsets the stream index by r.

    Attributes:
        root_seed: 64-bit integer identifying the experiment.
        stream_index: base stream offset, >= 0.
    """

    root_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not 0 <= int(self.root_seed) < 2**64:
            raise ValueError(f"root_seed must be a 64-bit integer, got {self.root_seed!r}")
        if int(self.stream_index) < 0:
            raise ValueError(f"stream_index must be >= 0, got {self.stream_index!r}")
        object.__setattr__(self, "root_seed", int(self.root_seed))
        object.__setattr__(self, "stream_index", int(self.stream_index))

    def generator(self, offset: int = 0) -> np.random.Generator:
        """Generator for replicate `offset` of this seed."""
        key = [self.root_seed, self.stream_index + offset]
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant sample path of the jump process.

    The first logged row is the initial condition (time 0); every later
    row is an event.  Event times are strictly increasing, except that an
    instantaneous restart shares its clock reading with the absorption row
    it follows and carries restart_flag True.  Consecutive states differ
    by exactly +-1.

    The event log is capped at MAX_LOGGED_EVENTS rows past the initial
    one; past the cap log_truncated is set and only the aggregate fields
    (state_time, n_events, n_restarts, final_state, t_end) keep growing.

    Attributes:
        n: population size.
        times: logged row times, starting at 0.0.
        states: logged row states in 0..n.
        restart_flags: True exactly on instantaneous-restart rows.
        t_end: final simulated time (absorption time or the horizon).
        state_time: occupancy clock per state 0..n over [0, t_end]; the
            absorbing state never accumulates time.
        n_events: true number of events (jumps plus restarts), possibly
            larger than the logged row count.
        n_restarts: number of instantaneous restarts.
        final_state: state at t_end.
        log_truncated: True when rows past the cap were discarded.
    """

    n: int
    times: np.ndarray
    states: np.ndarray
    restart_flags: np.ndarray
    t_end: float
    state_time: np.ndarray
    n_events: int
    n_restarts: int
    final_state: int
    log_truncated: bool

    def __post_init__(self) -> None:
        for name, dtype in (("times", float), ("states", np.int64),
                            ("restart_flags", bool), ("state_time", float)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _rates(p: ModelParams) -> tuple[list, list]:
    """Per-state birth rates and total event rates, states 0..n."""
    n = p.n
    births = [p.lam * i * (n - i) / n for i in range(n + 1)]
    totals = [b + p.gamma * i for i, b in enumerate(births)]
    return births, totals


def _run(p: ModelParams, y0: int, t_max: float, gen: np.random.Generator,
         restarted: bool) -> Trajectory:
    births, totals = _rates(p)
    times = [0.0]
    states = [y0]
    flags = [False]
    state_time = [0.0] * (p.n + 1)
    state = y0
    t = 0.0
    n_events = 0
    n_restarts = 0
    truncated = False
    cap = MAX_LOGGED_EVENTS + 1
    exps: list = []
    unis: list = []
    k = _BLOCK
    while True:
        if state == 0:
            if not restarted:
                break
            n_restarts += 1
            state = 1
            restart = True
        else:
            birth = births[state]
            total = totals[state]
            if k == _BLOCK:
                exps = gen.standard_exponential(_BLOCK).tolist()
                unis = gen.random(_BLOCK).tolist()
                k = 0
            wait = exps[k] / total
            if t + wait >= t_max:
                state_time[state] += t_max - t
                t = t_max
                break
            state_time[state] += wait
            t += wait
            state = state + 1 if unis[k] * total < birth else state - 1
            k += 1
            restart = False
        n_events += 1
        if len(times) < cap:
            times.append(t)
            states.append(state)
            flags.append(restart)
        else:
            truncated = True
    return Trajectory(
        n=p.n,
        times=np.asarray(times),
        states=np.asarray(states),
        restart_flags=np.asarray(flags),
        t_end=t,
        state_time=np.asarray(state_time),
        n_events=n_events,
        n_restarts=n_restarts,
        final_state=state,
        log_truncated=truncated,
    )


def _check_horizon(t_max: float) -> float:
    t_max = float(t_max)
    if not t_max > 0:
        raise ValueError(f"t_max must be > 0, got {t_max!r}")
    return t_max


def simulate(p: ModelParams, y0: int, t_max: float, seed: SeedSpec) -> Trajectory:
    """One exact trajectory, stopped at absorption or at the horizon.

    Args:
        p: model parameters.
        y0: initial state in 1..n.
        t_max: simulation horizon, > 0.
        seed: root seed and stream choice; this call uses the stream as given.
    """
    if not 1 <= y0 <= p.n:
        raise ValueError(f"initial state must lie in 1..{p.n}, got {y0!r}")
    return _run(p, int(y0), _check_horizon(t_max), seed.generator(), restarted=False)


def simulate_restarted(p: ModelParams, t_max: float, seed: SeedSpec) -> Trajectory:
    """Trajectory of the restart-at-one chain over [0, t_max].

    Starts at state 1; every absorption is immediately followed by a
    flagged restart row at the same clock reading, so state 0 never
    accumulates occupancy time.
    """
    return _run(p, 1, _check_horizon(t_max), seed.generator(), restarted=True)


def empirical_occupancy(tr: Trajectory) -> np.ndarray:
    """Time-weighted fraction of time spent in each state 1..n.

    Computed from the exact occupancy clocks, so it remains valid when
    the event log was truncated.  Rejects trajectories that accumulated
    no time in the transient states.
    """
    mass = tr.state_time[1:]
    total = mass.sum()
    if not total > 0.0:
        raise ValueError("trajectory spent no time in transient states")
    return mass / total


def _jump(births: list, totals: list, state: int, t_stop: float,
          gen: np.random.Generator) -> tuple[int, float]:
    """Lean sampler: run from `state` at time 0 until absorption or t >= t_stop.

    Returns (0, absorption time) or (state held at t_stop, time of the
    first event past it).
    """
    t = 0.0
    exps: list = []
    unis: list = []
    k = _BLOCK
    while state != 0:
        birth = births[state]
        total = totals[state]
        if k == _BLOCK:
            exps = gen.standard_exponential(_BLOCK).tolist()
            unis = gen.random(_BLOCK).tolist()
            k = 0
        t += exps[k] / total
        if t >= t_stop:
            break
        state = state + 1 if unis[k] * total < birth else state - 1
        k += 1
    return state, t


def _initial_state_index(cum: np.ndarray, u: float) -> int:
    """Inverse-CDF tie rule: first index with cumulative >= u."""
    idx = int(np.searchsorted(cum, u, side="left"))
    return min(idx, cum.size - 1)


def _chunk(args: tuple) -> list:
    """_jump results for replicates lo..hi-1, replicate r on stream offset r.

    `start` is a fixed initial state, or the cumulative initial
    distribution over 1..n, whose inverse-CDF draw is then the first draw
    of each replicate's stream.
    """
    p, start, t_stop, seed, lo, hi = args
    births, totals = _rates(p)
    sampled = isinstance(start, np.ndarray)
    out = []
    for r in range(lo, hi):
        gen = seed.generator(r)
        y0 = _initial_state_index(start, gen.random()) + 1 if sampled else start
        out.append(_jump(births, totals, y0, t_stop, gen))
    return out


def _fan_out(p: ModelParams, start, t_stop: float, seed: SeedSpec,
             replicates: int, workers: int | None) -> list:
    """_chunk over all replicates, in replicate order.

    Runs on min(workers, CPU count, replicates) processes; None means one.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    procs = min(workers or 1, os.cpu_count() or 1, replicates)
    if procs == 1:
        return _chunk((p, start, t_stop, seed, 0, replicates))
    edges = np.linspace(0, replicates, procs + 1).astype(int).tolist()
    args = [(p, start, t_stop, seed, lo, hi) for lo, hi in zip(edges, edges[1:])]
    with ProcessPoolExecutor(max_workers=procs) as pool:
        return [x for part in pool.map(_chunk, args) for x in part]


@dataclass(frozen=True)
class EnsembleResult:
    """States of the replicates that survived to the snapshot time.

    Attributes:
        n: population size.
        t_snap: snapshot time.
        replicates: number of replicates launched.
        survivor_states: states of surviving replicates in replicate
            order; empty when everything was absorbed.
    """

    n: int
    t_snap: float
    replicates: int
    survivor_states: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.survivor_states, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "survivor_states", arr)

    @property
    def survivors(self) -> int:
        return int(self.survivor_states.size)

    @property
    def survival_fraction(self) -> float:
        return self.survivor_states.size / self.replicates

    def mean(self) -> float:
        """Survivor sample mean; distinct error when nothing survived."""
        if self.survivor_states.size == 0:
            raise ZeroSurvivorsError(
                f"no replicate survived to t={self.t_snap!r}; sample statistics undefined"
            )
        return float(self.survivor_states.mean())

    def sample_variance(self) -> float:
        """Unbiased survivor sample variance."""
        if self.survivor_states.size < 2:
            raise ZeroSurvivorsError(
                f"fewer than two survivors at t={self.t_snap!r}; variance undefined"
            )
        return float(self.survivor_states.var(ddof=1))

    def histogram(self) -> np.ndarray:
        """Survivor counts per state 1..n."""
        return np.bincount(self.survivor_states, minlength=self.n + 1)[1:]


def conditioned_ensemble(
    p: ModelParams,
    replicates: int,
    t_snap: float,
    seed: SeedSpec,
    y0: int = 1,
    workers: int | None = None,
) -> EnsembleResult:
    """Snapshot sample of the process conditioned on survival.

    Runs `replicates` independent trajectories from the point mass at y0
    (state 1 unless overridden) and collects the states of those still
    alive at t_snap; one sample per replicate, so the collection is
    independent across entries.  Replicate r uses stream offset r.

    Args:
        workers: process count for replicate-level parallelism, >= 1 and
            capped at the CPU count; None or 1 runs serially.  Results are
            identical either way.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates!r}")
    if not 1 <= y0 <= p.n:
        raise ValueError(f"initial state must lie in 1..{p.n}, got {y0!r}")
    t_snap = _check_horizon(t_snap)
    runs = _fan_out(p, int(y0), t_snap, seed, replicates, workers)
    return EnsembleResult(
        n=p.n,
        t_snap=t_snap,
        replicates=replicates,
        survivor_states=np.array([s for s, _ in runs if s > 0], dtype=np.int64),
    )


@dataclass(frozen=True)
class ExtinctionSamples:
    """Absorption times of independent replicates, with summary."""

    times: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.times, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "times", arr)

    @property
    def replicates(self) -> int:
        return int(self.times.size)

    @property
    def mean(self) -> float:
        return float(self.times.mean())

    @property
    def standard_error(self) -> float:
        if self.times.size < 2:
            return math.nan
        return float(self.times.std(ddof=1) / math.sqrt(self.times.size))


def extinction_time_samples(
    p: ModelParams,
    replicates: int,
    seed: SeedSpec,
    init: np.ndarray,
    workers: int | None = None,
) -> ExtinctionSamples:
    """Absorption times from an initial state drawn per replicate.

    The initial state comes from inverse-CDF sampling of `init` with the
    tie rule "first index whose cumulative sum reaches u"; the uniform for
    that draw is the first draw of the replicate's stream.  There is no
    horizon: each replicate runs until absorption.  Instead the run is
    refused up front when replicates * gamma * E_1[T] exceeds
    _MAX_EXPECTED_EVENTS (1e10).  That product bounds the expected event
    count from below for any init: every transient state fires events at
    rate at least gamma, and every path to extinction passes state 1, so
    E_init[T] >= E_1[T].

    Args:
        init: distribution over states 1..n (entry k is state k + 1).
        workers: process count for replicate-level parallelism, >= 1 and
            capped at the CPU count; None or 1 runs serially.  Results are
            identical either way.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates!r}")
    init_cum = np.cumsum(check_probability_vector(init, p.n))
    # log(replicates * gamma * E_1[T]), gamma * E_1[T] being the sum of
    # the weights as in log_expected_extinction_time.  Summed with numpy's
    # logaddexp: scipy's logsumexp would map in ~0.45 MB of code (scipy
    # 1.17, x86-64 Linux) in a process that otherwise never calls it.
    log_events = math.log(replicates) + float(np.logaddexp.reduce(log_stationary_weights(p)))
    if log_events > math.log(_MAX_EXPECTED_EVENTS):
        raise ValueError(
            f"extinction sampling needs at least ~1e{log_events / math.log(10.0):.0f} "
            "expected events (replicates * gamma * E_1[T]), beyond the budget of "
            f"1e{math.log10(_MAX_EXPECTED_EVENTS):.0f} events; use the exact or qsd method"
        )
    times = [t for _, t in _fan_out(p, init_cum, math.inf, seed, replicates, workers)]
    return ExtinctionSamples(times=np.asarray(times))
