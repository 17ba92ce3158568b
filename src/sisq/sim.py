"""Exact event-driven (Gillespie) simulation of the SIS jump chain.

At state i the waiting time to the next event is exponential with rate
b_i + d_i, the state's birth and death rates from chain.rates, and the
event is a birth with probability b_i/(b_i + d_i).  No approximation is
involved anywhere; these trajectories are the empirical oracle the
analytic modules are checked against.

One loop implements this.  `_walk` walks the state path of a draw block
in Python: one uniform per jump, plus a restart row after each
absorption.  It reads its steps from a table built once per run (and
once per chunk of replicates): the next state up and down, and per state
the threshold thr[s], the smallest double u with u * total >= birth.  For
a fixed positive total, u * total rounds monotonically in u, so the walk
steps up, `u < thr[s]`, for exactly the doubles u with
`u * total < birth`; thr[s] is 0 where the birth rate is, at 0 and n.
One clock times it.  `_clock` gives the block's jumps their waits and
clocks in numpy (one in-place division of the exponentials by the total
rates of the states left, one cumulative sum) and counts the jumps
before the horizon (one `searchsorted`).  Each of these adds in the
order a per-event loop would, so every double is the one such a loop
computes.  The walk reads its uniforms through a memoryview, which hands
each double out as a Python float only when the loop reaches it, so the
tail of a block that a plain run leaves after absorption is never boxed.
Two callers walk and clock each block:

`_run` is the recorder behind `simulate` and `simulate_restarted`: it
keeps the event log, the occupancy clocks (one `np.add.at` a block) and
the restart rows, and stops at the horizon, or at absorption unless
restarts are on.  Each block's rows are appended in place to growable
columns (`array.array`), states at the narrowest signed integer type
that holds n, and the Trajectory gets views of them.  The log is never
joined or copied, so it peaks near what it holds once recorded: 9 B a
row (n <= 127) or 10 B (n <= 32,767), a time and a state.  No flag
column is kept: a restart row is exactly a row whose previous row is at
state 0, so the flags are derived from the states wherever they are
read.
`_jump` is the lean sampler behind `conditioned_ensemble` and
`extinction_time_samples`: it keeps nothing but the state and the clock,
and stops at absorption or once the clock reaches t_stop (infinite for
extinction times).  It walks the block that t_stop falls in to its end,
and its clocks find the jump past t_stop.  It counts the jumps it takes,
a block at a time, against what its chunk has left of the event budget.  A
chunk of replicates writes each result straight into two preallocated
columns, the states and the times (16 B a replicate), and a pool's
chunks are joined column by column, so no replicate's result outlives
`_jump` as a Python object.

Determinism contract: replicate r of a run seeded with SeedSpec(root)
draws all of its randomness from a Philox4x64 generator keyed with
key = [root, r].  Within a stream the draw order is fixed: one scalar
uniform for the initial state when it is sampled from a distribution,
then alternating blocks of 1024 standard exponentials and 1024 uniforms,
one (exponential, uniform) pair consumed per attempted event; a restart
consumes none.  The contract fixes which draws are taken and in what
order, not how a loop walks a block, and neither the thresholds nor the
successor tables change it.  A chunk of replicates builds one Philox and
puts it, before each replicate, in the state SeedSpec.generator(r)
starts in (counter 0, key [root, r], an empty buffer), so each replicate
draws the stream of its own key.  Replicates therefore never share a
stream, and parallel execution over replicates is observationally
identical to a serial run.
"""

from __future__ import annotations

import array
import bisect
import math
import os
import struct
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from sisq.chain import ModelParams, _is_integer, check_state, rates
from sisq.stationary import _log_mean_times, check_probability_vector

__all__ = [
    "MAX_LOGGED_EVENTS",
    "SeedSpec",
    "Trajectory",
    "EnsembleResult",
    "ExtinctionSamples",
    "ZeroSurvivorsError",
    "simulate",
    "simulate_restarted",
    "conditioned_ensemble",
    "extinction_time_samples",
]

# Beyond this many logged rows a trajectory keeps simulating but stops
# recording individual events; occupancy and counters stay exact.  A row
# costs 9 B in the finished Trajectory for n <= 127 and 10 B up to
# n = 32,767: a double and the state at the narrowest signed integer type
# that holds n (_state_dtype); restart flags are derived, not stored.
# _run records the log in place, so it peaks near that: 9.0 B a row at
# n = 100 and 10.1 B at n = 1000 (tracemalloc, CPython 3.11).  A plain
# n = 1000 run that fills the cap peaked at 151 MB resident, 97 MB above
# the 54 MB of an imported sisq.cli (x86-64 Linux, numpy 2.4); the CLI
# export adds one chunk of text and its temporaries (about 0.5 MB; 0.6 MB
# more resident here) whatever the length.
MAX_LOGGED_EVENTS = 10**7

_BLOCK = 1024

# Refuse extinction sampling and restarted runs whose expected event
# count exceeds this, and stop a trajectory, or a fan-out of replicates,
# whose event count passes it:
# about 25 minutes at the 6.9M (n = 20, from the QSD) and 7.2M (n = 1000,
# R0 = 5) events/s the sampler ran, medians over 5 processes of the
# median of 7 runs each, on a 2-core x86-64 host with Python 3.11 and
# numpy 2.4.  That host's speed swings up to 2x (5.4-8.7M events/s over
# those processes), so the figure is a scale, not a promise.
_MAX_EXPECTED_EVENTS = 1e10


class ZeroSurvivorsError(RuntimeError):
    """No replicate survived to the snapshot time; statistics undefined."""


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seeding: replicate r draws from Philox4x64 keyed with
    [root_seed, r], so distinct replicates get statistically independent
    streams.

    Attributes:
        root_seed: 64-bit integer identifying the experiment.
    """

    root_seed: int

    def __post_init__(self) -> None:
        # 1.5, True and "7" would each truncate or parse into another
        # seed's stream.
        if not _is_integer(self.root_seed) or not 0 <= int(self.root_seed) < 2**64:
            raise ValueError(f"root_seed must be a 64-bit integer, got {self.root_seed!r}")
        object.__setattr__(self, "root_seed", int(self.root_seed))

    def generator(self, offset: int = 0) -> np.random.Generator:
        """Generator for replicate `offset` of this seed."""
        # A uint64 array, not a list: numpy would turn a list holding a
        # seed >= 2**63 into float64 and map distinct seeds to one key.
        key = np.array([self.root_seed, offset], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-constant sample path of the jump process.

    The first logged row is the initial condition (time 0); every later
    row is an event.  Event times are strictly increasing, except that an
    instantaneous restart shares its clock reading with the absorption row
    it follows and is flagged in restart_flags.  Consecutive states differ
    by exactly +-1.

    The event log is capped at MAX_LOGGED_EVENTS rows past the initial
    one; past the cap log_truncated is set and only the aggregate fields
    (state_time, n_events, n_restarts, final_state, t_end) keep growing.

    Attributes:
        n: population size.
        times: logged row times, starting at 0.0.
        states: logged row states in 0..n, at the narrowest signed
            integer type that holds n (int8 up to n = 127, int16 up to
            32,767).
        restart_flags: True exactly on instantaneous-restart rows; a
            read-only property derived from states, not a stored field.
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
    t_end: float
    state_time: np.ndarray
    n_events: int
    n_restarts: int
    final_state: int
    log_truncated: bool

    def __post_init__(self) -> None:
        # Checked before the narrowing cast below, which would wrap them.
        states = np.asarray(self.states)
        lo, hi = states.min(initial=0), states.max(initial=self.n)
        if lo < 0 or hi > self.n:
            raise ValueError(f"states must lie in 0..{self.n}, got {lo if lo < 0 else hi}")
        for name, dtype in (("times", float), ("states", _state_dtype(self.n)),
                            ("state_time", float)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def restart_flags(self) -> np.ndarray:
        """True exactly on instantaneous-restart rows, derived from states
        on each read (read-only)."""
        flags = _restart_flags(self.states)
        flags.flags.writeable = False
        return flags


def _restart_flags(states: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Restart flags of log rows start..stop-1, from the log's state column.

    A restart row is exactly a row whose previous row is at state 0: a
    plain run stops at its first 0, a restarted run logs the restart
    right after it, and a truncated log is a prefix.  Row 0, the initial
    condition, is never one.  So no flag column is stored.
    """
    stop = states.size if stop is None else min(stop, states.size)
    flags = np.zeros(stop - start, dtype=bool)
    np.equal(states[max(start - 1, 0):max(stop - 1, 0)], 0, out=flags[int(start == 0):])
    return flags


def _state_dtype(n: int) -> np.dtype:
    """Narrowest signed integer type that holds the states 0..n.

    Signed, so that np.diff of a state column is -1 where it falls.
    """
    return np.min_scalar_type(-(n + 1))


def _rates(p: ModelParams) -> tuple[list, list]:
    """Per-state birth rates and total event rates, states 0..n."""
    births, deaths = rates(p)
    return births, [b + d for b, d in zip(births, deaths)]


# The bit patterns of nonnegative doubles, as int64, order them as numbers.
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


def _threshold(birth: float, total: float) -> float:
    """Smallest double u with u * total >= birth, or 0.0 where birth is 0.

    u * total rounds monotonically in u, so `u < _threshold(b, t)` holds
    for exactly the doubles u with `u * t < b`.  The quotient b / t lies
    within an ulp or two of the threshold, and a few steps reach it.
    Where u * total falls among the subnormals, many doubles u round to
    one product and the threshold can lie 2**52 steps away; a bisection
    over the bit patterns of [0, 1] finds it in at most 62 halvings
    (u = 1 always qualifies: total = birth + death >= birth).
    """
    if birth == 0.0:
        return 0.0
    u = birth / total
    for _ in range(4):
        if u * total < birth:
            u = math.nextafter(u, math.inf)
        else:
            below = math.nextafter(u, 0.0)
            if below * total < birth:
                return u
            u = below
    lo, hi = 0, _I64.unpack(_F64.pack(1.0))[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _F64.unpack(_I64.pack(mid))[0] * total < birth:
            lo = mid
        else:
            hi = mid
    return _F64.unpack(_I64.pack(hi))[0]


def _table(p: ModelParams) -> tuple[list, list, list, np.ndarray]:
    """What a walk and its clocks read, per state 0..n: the thresholds,
    the states one up and one down, and the total rates as an array.

    up and down are slices of one list of ints, so a walk at n > 256
    steps between int objects that already exist.
    """
    births, totals = _rates(p)
    levels = list(range(-1, p.n + 2))
    return ([_threshold(b, t) for b, t in zip(births, totals)],
            levels[2:], levels[:-2], np.array(totals))


def _walk(thr: list, up: list, down: list, state: int, unis: np.ndarray,
          restarted: bool) -> list:
    """State path of one draw block: `state`, then one row per uniform,
    plus a restart row after each absorption; a plain run stops at its
    first 0.
    """
    path = [state]
    append = path.append
    for u in memoryview(unis):
        state = up[state] if u < thr[state] else down[state]
        append(state)
        if state == 0:
            if not restarted:
                break
            state = 1
            append(1)
    return path


def _clock(exps: np.ndarray, before: np.ndarray, total_arr: np.ndarray, t: float,
           t_stop: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Waits and clocks of a block's jumps, and how many fall before t_stop.

    `before` holds the state each jump leaves, in order.  The waits are
    the block's first before.size exponentials, divided in place by
    those states' total rates (a view of exps).  The clocks are t plus
    the running sum of the waits.  Each is the double a per-event loop
    computes: the same division, and cumsum adds left to right as it
    does.  The count is the number of clocks below t_stop.
    """
    waits = exps[:before.size]
    waits /= total_arr[before]
    clocks = waits.copy()
    clocks[0] += t
    np.cumsum(clocks, out=clocks)
    return waits, clocks, int(np.searchsorted(clocks, t_stop))


def _run(p: ModelParams, y0: int, t_max: float, gen: np.random.Generator,
         restarted: bool) -> Trajectory:
    thr, up, down, total_arr = _table(p)
    narrow = _state_dtype(p.n)
    # The log, grown in place once per draw block from the initial row.
    times = array.array("d", [0.0])
    states = array.array(narrow.char, [y0])  # numpy's char is array's code
    room = MAX_LOGGED_EVENTS  # rows past the initial one still to log
    state_time = np.zeros(p.n + 1)
    state = y0
    t = 0.0
    n_events = 0
    n_restarts = 0
    truncated = False
    running = True
    while running:
        exps = gen.standard_exponential(_BLOCK)
        walk = _walk(thr, up, down, state, gen.random(_BLOCK), restarted)
        path = np.fromiter(walk, narrow, len(walk))
        rows, prev = path[1:], path[:-1]
        # A restart row follows a row at state 0; every other row is a jump
        # and takes the block's next exponential.  add.at sums occupancy
        # left to right, as a per-event loop does.
        jump_rows = np.flatnonzero(prev)
        before = prev[jump_rows]
        waits, clocks, jumps = _clock(exps, before, total_arr, t, t_max)
        np.add.at(state_time, before[:jumps], waits[:jumps])
        if jumps < clocks.size:
            if jumps:
                t = float(clocks[jumps - 1])
            state = int(before[jumps])
            state_time[state] += t_max - t
            t = t_max
            end = int(jump_rows[jumps])
            running = False
        else:
            t = float(clocks[-1])
            state = int(rows[-1])
            end = rows.size
            running = state != 0
        n_events += end
        if n_events > _MAX_EXPECTED_EVENTS:
            raise ValueError(f"the run passed {n_events} events by t={t!r}, beyond the "
                             f"budget of {_MAX_EXPECTED_EVENTS:.0e} events; use a shorter horizon")
        n_restarts += end - jumps
        kept = min(end, room)
        truncated = truncated or kept < end
        if kept:
            room -= kept
            # A restart row shares the clock of the absorption row before it;
            # in a block without one, row i is jump i.  frombytes reads a
            # column's buffer, in byte-sized items only.
            if before.size < rows.size:
                clocks = clocks[np.cumsum(prev[:kept] != 0) - 1]
            times.frombytes(clocks[:kept].view(np.uint8))
            states.frombytes(rows[:kept].view(np.uint8))
    # Views of the columns, not copies.
    return Trajectory(
        n=p.n,
        times=np.frombuffer(times),
        states=np.frombuffer(states, dtype=narrow),
        t_end=t,
        state_time=state_time,
        n_events=n_events,
        n_restarts=n_restarts,
        final_state=state,
        log_truncated=truncated,
    )


def _check_horizon(t_max: float) -> float:
    t_max = float(t_max)
    if not 0 < t_max < math.inf:
        raise ValueError(f"horizon must be finite and > 0, got {t_max!r}")
    return t_max


def simulate(p: ModelParams, y0: int, t_max: float, seed: SeedSpec) -> Trajectory:
    """One exact trajectory, stopped at absorption or at the horizon.

    A run that passes _MAX_EXPECTED_EVENTS (1e10) events, checked once per
    block of draws, is refused with ValueError before it returns.

    Args:
        p: model parameters.
        y0: initial state, an integer in 1..n.
        t_max: simulation horizon, finite and > 0.
        seed: root seed; this call uses replicate offset 0.
    """
    return _run(p, check_state(p, y0, "initial state"), _check_horizon(t_max),
                seed.generator(), restarted=False)


def simulate_restarted(p: ModelParams, t_max: float, seed: SeedSpec) -> Trajectory:
    """Trajectory of the restart-at-one chain over [0, t_max].

    Starts at state 1; every absorption is immediately followed by a
    flagged restart row at the same clock reading, so state 0 never
    accumulates occupancy time.

    Every transient state fires events at rate at least gamma and the
    chain never rests at 0, so gamma * t_max bounds the expected event
    count from below; a run above _MAX_EXPECTED_EVENTS (1e10) is refused
    up front.
    """
    t_max = _check_horizon(t_max)
    events = p.gamma * t_max
    if events > _MAX_EXPECTED_EVENTS:
        raise ValueError(
            f"a restarted run to t_max={t_max!r} needs at least {events:.3g} expected "
            f"events (gamma * t_max), beyond the budget of {_MAX_EXPECTED_EVENTS:.0e} "
            "events; use a shorter horizon"
        )
    return _run(p, 1, t_max, seed.generator(), restarted=True)


def _jump(table: tuple, state: int, t_stop: float, gen: np.random.Generator,
          room: float) -> tuple[int, float, int]:
    """Lean sampler: run from transient `state` at time 0 until absorption
    or t >= t_stop.

    Returns (0, absorption time, events) or (state held at t_stop, time
    of the first event past it, events), events being the jumps taken
    before the stop.  It gives up at the end of the first block that
    takes it past `room` events and returns where it stands, with that
    count.  `table` is _table(p).
    """
    thr, up, down, total_arr = table
    t = 0.0
    events = 0
    while True:
        exps = gen.standard_exponential(_BLOCK)
        walk = _walk(thr, up, down, state, gen.random(_BLOCK), False)
        path = np.fromiter(walk, np.intp, len(walk))
        _, clocks, jumps = _clock(exps, path[:-1], total_arr, t, t_stop)
        if jumps < clocks.size:
            return int(path[jumps]), float(clocks[jumps]), events + jumps
        events += clocks.size
        state = int(path[-1])
        t = float(clocks[-1])
        if state == 0 or events > room:
            return state, t, events


def _start_state(cum: list, u: float) -> int:
    """Initial state in 1..n for uniform u, from the cumulative initial
    distribution `cum` over 1..n.

    Inverse CDF with the tie rule "first state whose cumulative sum
    reaches u", kept to states with positive mass: u = 0 takes the first
    of them, and a u above cum[-1], which may fall short of 1 by
    rounding, takes the last.
    """
    first = bisect.bisect_right(cum, 0.0)
    last = bisect.bisect_left(cum, cum[-1])
    return min(max(bisect.bisect_left(cum, u), first), last) + 1


def _streams(seed: SeedSpec, lo: int, hi: int):
    """Generators of replicates lo..hi-1 in turn, each valid until the next.

    One Philox serves them all: before each replicate it is set to the
    state SeedSpec.generator(r) starts in, which differs from replicate
    lo's only in the key.  Setting a state took 2.3 us, building a
    Generator 17 us (numpy 2.4, x86-64 Linux).
    """
    gen = seed.generator(lo)
    fresh = gen.bit_generator.state  # counter 0, key [root, lo], empty buffer
    for r in range(lo, hi):
        fresh["state"]["key"][1] = r
        gen.bit_generator.state = fresh
        yield gen


def _chunk(args: tuple) -> tuple[np.ndarray, np.ndarray, int]:
    """_jump results for replicates lo..hi-1, replicate r on stream offset r,
    as two columns, the states and the times (16 B a replicate), and the
    events the replicates took.

    `start` is a fixed initial state, or the cumulative initial
    distribution over 1..n as a list, whose inverse-CDF draw is then the
    first draw of each replicate's stream.  The chunk is refused once its
    events pass `budget`, counted at the end of each draw block.
    """
    p, start, t_stop, seed, lo, hi, budget = args
    table = _table(p)
    sampled = isinstance(start, list)
    states, times = np.empty(hi - lo, np.intp), np.empty(hi - lo)
    count = 0
    for k, gen in enumerate(_streams(seed, lo, hi)):
        y0 = _start_state(start, gen.random()) if sampled else start
        states[k], times[k], events = _jump(table, y0, t_stop, gen, budget - count)
        count = _check_events(count + events, budget)
    return states, times, count


def _check_events(count: int, budget: float) -> int:
    """The event count of replicates, refused past `budget`."""
    if count > budget:
        raise ValueError(f"the replicates take more than the budget of {budget:g} events "
                         "to reach their snapshot or absorption; use fewer replicates "
                         "or an earlier snapshot")
    return count


def _check_count(value: int, what: str) -> int:
    """A replicate or worker count, refused unless an integer >= 1 (bool excluded)."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{what} must be an integer >= 1, got {value!r}")
    return int(value)


def _fan_out(p: ModelParams, start, t_stop: float, seed: SeedSpec,
             replicates: int, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """_chunk over all replicates, in replicate order: its state and time
    columns, each chunk's joined in order when a pool ran them.

    Runs on min(workers, usable CPUs, replicates) processes; 1 runs
    serially.  The usable CPUs are the ones this process may run on (its
    affinity mask, which a cpuset or taskset narrows), or the host's CPU
    count where the platform has no affinity call.  The pool is looked up
    on `futures` only when one starts, so the pool code (multiprocessing,
    concurrent.futures.process) is imported on the first run with more
    than one process, never by a command that runs serially.

    Refused once the replicates' events, counted a draw block at a time,
    pass _MAX_EXPECTED_EVENTS: each chunk stops at that many, and their
    sum is checked here, so the outcome does not depend on the process
    count and the work done is at most processes x budget.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    procs = min(workers, cpus, replicates)
    # Read here and passed on, so that every worker holds this value.
    budget = _MAX_EXPECTED_EVENTS
    if procs == 1:
        return _chunk((p, start, t_stop, seed, 0, replicates, budget))[:2]
    edges = np.linspace(0, replicates, procs + 1).astype(int).tolist()
    args = [(p, start, t_stop, seed, lo, hi, budget) for lo, hi in zip(edges, edges[1:])]
    with futures.ProcessPoolExecutor(max_workers=procs) as pool:
        states, times, counts = zip(*pool.map(_chunk, args))
    _check_events(sum(counts), budget)
    return np.concatenate(states), np.concatenate(times)


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
    workers: int = 1,
) -> EnsembleResult:
    """Snapshot sample of the process conditioned on survival.

    Runs `replicates` independent trajectories from the point mass at y0
    (state 1 unless overridden) and collects the states of those still
    alive at t_snap; one sample per replicate, so the collection is
    independent across entries.  Replicate r uses stream offset r.  A run
    whose replicates take more than _MAX_EXPECTED_EVENTS (1e10) events
    in all, counted a block of draws at a time, is refused with
    ValueError, whatever `workers` is.

    Args:
        workers: process count for replicate-level parallelism, >= 1 and
            capped at the number of CPUs this process may run on; 1
            runs serially.  Results are identical either way.
    """
    replicates = _check_count(replicates, "replicates")
    workers = _check_count(workers, "workers")
    y0 = check_state(p, y0, "initial state")
    t_snap = _check_horizon(t_snap)
    states, _ = _fan_out(p, y0, t_snap, seed, replicates, workers)
    return EnsembleResult(
        n=p.n,
        t_snap=t_snap,
        replicates=replicates,
        survivor_states=states[states > 0],
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
    workers: int = 1,
) -> ExtinctionSamples:
    """Absorption times from an initial state drawn per replicate.

    The initial state comes from inverse-CDF sampling of `init` with the
    tie rule "first index whose cumulative sum reaches u", kept to states
    with positive mass; the uniform for that draw is the first draw of
    the replicate's stream.  There is no
    horizon: each replicate runs until absorption.  Instead the run is
    refused up front when replicates * gamma * E_1[T] exceeds
    _MAX_EXPECTED_EVENTS (1e10).  That product bounds the expected event
    count from below for any init: every transient state fires events at
    rate at least gamma, and every path to extinction passes state 1, so
    E_init[T] >= E_1[T].  A run accepted up front is still refused once
    its replicates' events pass that budget, as in conditioned_ensemble.

    Args:
        init: distribution over states 1..n (entry k is state k + 1).
        workers: process count for replicate-level parallelism, >= 1 and
            capped at the number of CPUs this process may run on; 1
            runs serially.  Results are identical either way.
    """
    replicates = _check_count(replicates, "replicates")
    workers = _check_count(workers, "workers")
    init_cum = np.cumsum(check_probability_vector(init, p.n)).tolist()
    _check_sampling_budget(p, replicates)
    _, times = _fan_out(p, init_cum, math.inf, seed, replicates, workers)
    return ExtinctionSamples(times=times)


def _check_sampling_budget(p: ModelParams, replicates: int) -> None:
    """Refuse extinction sampling whose replicates * gamma * E_1[T], a
    lower bound on its expected event count, passes _MAX_EXPECTED_EVENTS."""
    log_events = math.log(replicates) + float(_log_mean_times(p)[0])
    if log_events > math.log(_MAX_EXPECTED_EVENTS):
        raise ValueError(
            f"extinction sampling needs at least ~1e{log_events / math.log(10.0):.0f} "
            "expected events (replicates * gamma * E_1[T]), beyond the budget of "
            f"1e{math.log10(_MAX_EXPECTED_EVENTS):.0f} events; use the exact or qsd method"
        )
