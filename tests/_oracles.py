"""Independent numerical oracles shared by the test modules.

Everything here is deliberately written by a different route than the
library code it checks: dense matrices instead of banded storage, a
Poisson-series propagator instead of the spectral one, raw ratio
recurrences instead of log-gamma closed forms, LAPACK's stebz/stein
eigenpair of the symmetrized generator, built here from the rates,
instead of the flux recurrence.  The exceptions are frozen
copies that pin the library's output bit for bit rather than check it by
another route: bands_reference, the generator's bands as a numpy builder
computed them before the chain's rates became lists;
flux_bisection_reference, the flux solver as it stood
before its halving phase became a binary search, with its _flux_sweep,
the sweep as it stood when it read each term back from a numpy array;
jump_reference and run_reference, the Gillespie loops as they stood when
each event indexed into a block of draws turned into Python lists; and
trajectory_output_reference, the trajectory export as it stood when it
built the whole file as one string.  assert_same_rows compares texts as
long as such an export.
"""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import sisq.cli as cli
import sisq.sim as sim
from sisq.chain import ModelParams, rates
from sisq.spectral import ConvergenceError


def bands(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of the transient generator over states 1..n,
    sliced from rates(p) as the spectral route slices them."""
    b, d = map(np.array, rates(p))
    return d[2:], -(b[1:] + d[1:]), b[1:-1]


def bands_reference(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) as the numpy builder computed them before the
    chain's rates became two lists; its expressions kept verbatim."""
    i = np.arange(1, p.n + 1, dtype=float)
    births = p.lam * i * (p.n - i) / p.n
    deaths = p.gamma * i
    return deaths[1:], -(births + deaths), births[:-1]


def dense_transient(p: ModelParams) -> np.ndarray:
    """Dense n x n copy of the transient generator."""
    lower, diag, upper = bands(p)
    q = np.diag(diag)
    if p.n > 1:
        q += np.diag(upper, 1) + np.diag(lower, -1)
    return q


def dense_full(p: ModelParams) -> np.ndarray:
    """Dense generator over all states 0..n, absorbing state included."""
    n = p.n
    q = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        b = p.lam * i * (n - i) / n
        d = p.gamma * i
        q[i, i] = -(b + d)
        q[i, i - 1] = d
        if i < n:
            q[i, i + 1] = b
    return q


def uniformization(q: np.ndarray, t: float, tail: float = 1e-14) -> np.ndarray:
    """exp(q*t) as a Poisson-weighted power series of I + q/rate.

    Works for any generator or sub-generator with bounded diagonal; the
    series is truncated once the remaining Poisson mass drops below
    `tail`.  Completely independent of the spectral route.
    """
    dim = q.shape[0]
    rate = max(-q.diagonal().min(), 1e-12) * 1.0000001
    a = np.eye(dim) + q / rate
    mu = rate * t
    weight = math.exp(-mu)
    acc = weight * np.eye(dim)
    power = np.eye(dim)
    covered = weight
    k = 0
    while covered < 1.0 - tail:
        k += 1
        weight *= mu / k
        power = power @ a
        acc += weight * power
        covered += weight
        if k > mu + 50.0 * math.sqrt(mu + 1.0) + 1000:
            raise RuntimeError("poisson series failed to converge")
    return acc


def ratio_log_weights(p: ModelParams) -> np.ndarray:
    """Unnormalized stationary log-weights via the one-step ratio recurrence.

    log w_1 = 0, log w_{i+1} = log w_i + log(b_i / d_{i+1}); a different
    derivation path than the closed-form log-gamma expression used by the
    library.
    """
    out = np.zeros(p.n)
    for i in range(1, p.n):
        b = p.lam * i * (p.n - i) / p.n
        d = p.gamma * (i + 1)
        out[i] = out[i - 1] + math.log(b) - math.log(d)
    return out


def _tridiag_norm_inf(diag: np.ndarray, offdiag: np.ndarray) -> float:
    rs = np.abs(diag).copy()
    if offdiag.size:
        rs[:-1] += np.abs(offdiag)
        rs[1:] += np.abs(offdiag)
    return float(rs.max())


def dominant_eigenpair(p: ModelParams) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and its unit eigenvector, all entries one sign.

    Works on the symmetric tridiagonal matrix similar to the transient
    generator: its diagonal, and off-diagonal sqrt(upper * lower).
    Delegates to LAPACK's Sturm-count bisection and inverse iteration
    (stebz/stein).  The residual is checked against the documented bound
    1e-10 * ||S||.

    Returns:
        (lambda1, u1) with u1 normalized to unit Euclidean norm and
        oriented positive.
    """
    lower, diag, upper = bands(p)
    offdiag = np.sqrt(upper * lower)
    if p.n == 1:
        return float(diag[0]), np.ones(1)
    evals, evecs = eigh_tridiagonal(
        diag, offdiag, select="i", select_range=(p.n - 1, p.n - 1)
    )
    lam1 = float(evals[0])
    u1 = evecs[:, 0]
    if u1[np.argmax(np.abs(u1))] < 0.0:
        u1 = -u1
    resid = np.abs(
        diag * u1
        + np.concatenate((offdiag * u1[1:], [0.0]))
        + np.concatenate(([0.0], offdiag * u1[:-1]))
        - lam1 * u1
    ).max()
    bound = 1e-10 * _tridiag_norm_inf(diag, offdiag)
    if resid > bound:
        raise ConvergenceError(
            f"dominant eigenpair residual {resid:.3e} exceeds {bound:.3e}"
        )
    return lam1, u1


_BRACKET_RTOL = 1e-12
_MAX_BISECTIONS = 2000
_MAX_LOG_FLUX_SUM = 280.0 * math.log(10.0)


def _log_flux_sum_at_zero(upper: np.ndarray, lower: np.ndarray, gamma: float) -> float:
    log_gamma = math.log(gamma)
    lu = np.log(upper)
    ll = np.log(lower)
    lv = 0.0
    ls = 0.0
    for k in range(upper.size):
        lv = np.logaddexp(lu[k] + lv, log_gamma) - ll[k]
        ls = np.logaddexp(ls, lv)
    return float(ls)


def _flux_sweep(
    theta: float, upper: list, lower: list, gamma: float, n: int
) -> tuple[bool, np.ndarray | None, float]:
    v = np.empty(n)
    v[0] = 1.0
    s = 1.0
    for k in range(n - 1):
        vn = (upper[k] * v[k] + gamma - theta * s) / lower[k]
        if not vn > 0.0 or vn == math.inf:
            return False, None, s
        v[k + 1] = vn
        s += vn
    return gamma - theta * s > 0.0, v, s


def flux_bisection_reference(p: ModelParams) -> tuple[float, np.ndarray]:
    """Decay rate theta = -lambda1 and QSD by the original flux bisection.

    Halves theta down from gamma one sweep at a time until a sweep lies
    below the decay rate, then bisects geometrically.  Kept verbatim, with
    its sweep and theta = 0 helpers, so the library solver can be held to
    the same bits; only its rates are now read from rates(p).
    """
    n = p.n
    gamma = p.gamma
    lower, _, upper = bands(p)
    if n == 1:
        return gamma, np.ones(1)
    log_s0 = _log_flux_sum_at_zero(upper, lower, gamma)
    if log_s0 > _MAX_LOG_FLUX_SUM:
        raise OverflowError(
            "dominant eigenvalue magnitude ~ gamma*exp(-%.4g) underflows double "
            "precision at these parameters; the spectral route cannot represent it"
            % log_s0
        )
    upper = upper.tolist()
    lower = lower.tolist()
    lo = 0.0
    hi = gamma
    v_lo: np.ndarray | None = None
    s_lo = math.nan
    for it in range(_MAX_BISECTIONS):
        mid = hi / 2.0 if lo == 0.0 else math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        below, v, s = _flux_sweep(mid, upper, lower, gamma, n)
        if below:
            lo, v_lo, s_lo = mid, v, s
        else:
            hi = mid
        if lo > 0.0 and hi - lo <= _BRACKET_RTOL * hi:
            break
    else:
        raise ConvergenceError(
            f"flux bisection did not reach bracket tolerance {_BRACKET_RTOL:g}",
            iterations=_MAX_BISECTIONS,
        )
    if v_lo is None:
        raise ConvergenceError(
            "flux bisection never found a point below the decay rate",
            iterations=it + 1,
        )
    theta = gamma / s_lo
    return theta, v_lo / s_lo


def run_reference(p: ModelParams, y0: int, t_max: float, gen: np.random.Generator,
                  restarted: bool) -> sim.Trajectory:
    """The recording loop `sim._run` as it stood with an index into each block.

    Kept verbatim apart from reading the block size and the log cap from
    `sisq.sim` at call time, so a test that patches either patches both
    loops alike.
    """
    births, totals = sim._rates(p)
    times = [0.0]
    states = [y0]
    state_time = [0.0] * (p.n + 1)
    state = y0
    t = 0.0
    n_events = 0
    n_restarts = 0
    truncated = False
    cap = sim.MAX_LOGGED_EVENTS + 1
    exps: list = []
    unis: list = []
    k = sim._BLOCK
    while True:
        if state == 0:
            if not restarted:
                break
            n_restarts += 1
            state = 1
        else:
            birth = births[state]
            total = totals[state]
            if k == sim._BLOCK:
                exps = gen.standard_exponential(sim._BLOCK).tolist()
                unis = gen.random(sim._BLOCK).tolist()
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
        n_events += 1
        if len(times) < cap:
            times.append(t)
            states.append(state)
        else:
            truncated = True
    states_arr = np.asarray(states)
    return sim.Trajectory(
        n=p.n,
        times=np.asarray(times),
        states=states_arr,
        restart_flags=np.concatenate(([False], states_arr[:-1] == 0)),
        t_end=t,
        state_time=np.asarray(state_time),
        n_events=n_events,
        n_restarts=n_restarts,
        final_state=state,
        log_truncated=truncated,
    )


def jump_reference(births: list, totals: list, state: int, t_stop: float,
                   gen: np.random.Generator) -> tuple[int, float]:
    """The lean sampler `sim._jump` as it stood with an index into each block.

    Verbatim apart from reading the block size from `sisq.sim` at call time.
    """
    t = 0.0
    exps: list = []
    unis: list = []
    k = sim._BLOCK
    while state != 0:
        birth = births[state]
        total = totals[state]
        if k == sim._BLOCK:
            exps = gen.standard_exponential(sim._BLOCK).tolist()
            unis = gen.random(sim._BLOCK).tolist()
            k = 0
        t += exps[k] / total
        if t >= t_stop:
            break
        state = state + 1 if unis[k] * total < birth else state - 1
        k += 1
    return state, t


def trajectory_output_reference(args, tr: sim.Trajectory) -> str:
    """Text of `cli._trajectory_output` as it stood when it joined the whole
    event log into one string before writing it.

    Verbatim apart from returning the text instead of writing it.
    """
    times = tr.times.tolist()
    states = tr.states.tolist()
    flags = tr.restart_flags.astype(int).tolist()
    if args.format == "csv":
        rows = "\n".join(map("{!r},{},{}".format, times, states, flags))
        return "time,state,restart_flag\n" + rows + "\n"
    head = json.dumps({
        "schema_version": cli.SCHEMA_VERSION,
        "command": "simulate",
        "mode": args.mode,
        "params": cli._params_json(cli._params_from_args(args)),
        "t_end": tr.t_end,
        "final_state": tr.final_state,
        "n_events": tr.n_events,
        "n_restarts": tr.n_restarts,
        "log_truncated": tr.log_truncated,
    }, indent=2)
    columns = "".join(
        f',\n  "{key}": [\n    ' + ",\n    ".join(map(fmt, col)) + "\n  ]"
        for key, fmt, col in (("time", float.__repr__, times),
                              ("state", int.__repr__, states),
                              ("restart_flag", int.__repr__, flags))
    )
    return head[:-2] + columns + "\n}\n"


def assert_same_rows(got: str, want: str) -> None:
    """got == want, reported as the first row that differs.

    A bare == on texts of a megabyte or more would make pytest build a
    diff of the whole text when they differ, which takes minutes.
    """
    if got != want:
        rows = itertools.zip_longest(got.split("\n"), want.split("\n"))
        k, (g, w) = next((k, r) for k, r in enumerate(rows) if r[0] != r[1])
        pytest.fail(f"row {k}: got {g!r}, want {w!r}", pytrace=False)
