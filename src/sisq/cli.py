"""Command-line front end: every computation, cross-method comparison, and
plot-ready export in one tool.

Commands
    stationary       equilibrium of the restart-at-one chain
    qsd              quasi-stationary distribution, lambda1, mean absorption time
    extinction-time  mean extinction time by any of the four routes
    compare          qsd-vs-clt convergence table over an n-grid
    simulate         exact trajectories and conditioned ensembles

Model parameters are given as --n with exactly one of --lambda or --r0;
--gamma defaults to 1.  Machine-readable output goes to --output (default
stdout), diagnostics to stderr, and every command is deterministic given
its full flag set.  JSON documents are a single object carrying
schema_version.  A table command (all but the trajectory modes of
simulate) builds only its document and names its CSV columns; its CSV is
that document's table, written by _write_table, with shortest round-trip
decimals and an empty cell for null.  The trajectory modes stream their
event log in chunks in either format.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from sisq.chain import ModelParams
from sisq.clt import endemic_normal, expected_time_clt, q1_normal_approx
from sisq.sim import (
    SeedSpec,
    _check_sampling_budget,
    _restart_flags,
    conditioned_ensemble,
    extinction_time_samples,
    simulate,
    simulate_restarted,
)
from sisq.spectral import _scaled_flux_sum, expected_time_qsd, quasi_stationary_distribution
from sisq.stationary import log_expected_extinction_time, stationary_distribution

SCHEMA_VERSION = 1

# Rows a trajectory export formats and writes at a time, so that it holds
# one chunk of text, never the whole event log.  A chunk's formatter peak
# is about 69 B a row (tracemalloc), 0.57 MB at 8,192 rows and 1.13 MB at
# 16,384.  Serial exports of a 487,620-row restarted n = 100 log took
# 93 ms (CSV) and 109 ms (JSON) at 8,192 rows, against 90/103 ms at
# 16,384, inside the host's noise for twice the memory, and 104/136 at
# 4,096 (medians of 30 runs, 2-core x86-64 host).
_CHUNK = 1 << 13

__all__ = ["main"]


def _fmt_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    return str(x)


def _write(path: str, pieces) -> None:
    """Write the strings of `pieces`, in order, to `path` or to stdout ('-')."""
    if path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as f:
            f.writelines(pieces)


def _write_json(path: str, obj: dict) -> None:
    _write(path, [json.dumps(obj, indent=2) + "\n"])


def _write_table(args, doc: dict, header: list) -> None:
    """Write `doc` to --output as JSON, or as the CSV table of `header`.

    A CSV cell comes from the first of: the row's record (an item of the
    document's list of dicts), entry i of a list of the document, or a
    scalar of the document or of its params, repeated on every row.
    """
    if args.format == "json":
        _write_json(args.output, doc)
        return
    records = next((v for v in doc.values()
                    if isinstance(v, list) and v and isinstance(v[0], dict)), [{}])
    scalars = {**doc.get("params", {}), **doc}
    columns = [[r[name] for r in records] if name in records[0] else scalars[name]
               for name in header]
    size = max(len(c) for c in columns if isinstance(c, list))
    columns = [c if isinstance(c, list) else [c] * size for c in columns]
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in zip(*columns))
    _write(args.output, ["\n".join(lines) + "\n"])


def _params_json(p: ModelParams) -> dict:
    return {"n": p.n, "lambda": p.lam, "gamma": p.gamma, "r0": p.r0}


def _add_model_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, required=True, help="population size")
    _add_rate_args(sp)


def _add_rate_args(sp: argparse.ArgumentParser) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--lambda", dest="lam", type=float, help="infection rate")
    grp.add_argument("--r0", type=float, help="basic reproduction number (implies lambda = r0*gamma)")
    sp.add_argument("--gamma", type=float, default=1.0, help="recovery rate (default 1)")


def _positive_int(text: str) -> int:
    """argparse type of --replicates and --workers: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_output_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", default="-", help="output path ('-' for stdout)")


def _params_from_args(args, n: int | None = None) -> ModelParams:
    """Model of the rate flags, at population --n unless `n` is given.

    --r0 and its product with --gamma are checked here, where the flags
    are known; ModelParams would blame the infection rate for either.
    """
    lam = args.lam
    if lam is None:
        lam = args.r0 * args.gamma
        if not 0.0 < args.r0 < math.inf:
            raise ValueError(f"--r0 must be positive and finite, got {args.r0!r}")
        if not 0.0 < lam < math.inf:
            raise ValueError(
                f"--r0 * --gamma must be a positive finite double, got {lam!r} "
                f"from --r0 {args.r0!r}, --gamma {args.gamma!r}"
            )
    return ModelParams(n=args.n if n is None else n, lam=lam, gamma=args.gamma)


def _cmd_stationary(args) -> int:
    p = _params_from_args(args)
    _write_table(args, {
        "schema_version": SCHEMA_VERSION,
        "command": "stationary",
        "params": _params_json(p),
        "state": list(range(1, p.n + 1)),
        "pi_hat": stationary_distribution(p).tolist(),
    }, ["state", "pi_hat"])
    return 0


def _cmd_qsd(args) -> int:
    p = _params_from_args(args)
    r = quasi_stationary_distribution(p)
    et = expected_time_qsd(p)
    _write_table(args, {
        "schema_version": SCHEMA_VERSION,
        "command": "qsd",
        "params": _params_json(p),
        "state": list(range(1, p.n + 1)),
        "q_tilde": r.qsd.tolist(),
        "lambda1": r.lambda1,
        "expected_time_qsd": et,
        "log_expected_time_qsd": math.log(et),
    }, ["state", "q_tilde", "lambda1", "expected_time_qsd", "log_expected_time_qsd"])
    return 0


def _extinction_record(p: ModelParams, method: str, args) -> dict:
    rec = {"method": method, "value": None, "log_value": None,
           "se": None, "replicates": None}
    if method == "exact":
        rec["log_value"] = log_expected_extinction_time(p)
    elif method == "qsd":
        rec["value"] = expected_time_qsd(p)
        rec["log_value"] = math.log(rec["value"])
    elif method == "clt":
        rec["log_value"] = expected_time_clt(p).log
    else:  # "simulate": _cmd_extinction_time has refused any other name
        init = quasi_stationary_distribution(p).qsd
        res = extinction_time_samples(
            p, args.replicates, SeedSpec(args.seed), init, workers=args.workers
        )
        rec["value"] = res.mean
        rec["log_value"] = math.log(res.mean)
        se = res.standard_error
        rec["se"] = None if math.isnan(se) else se
        rec["replicates"] = res.replicates
    if rec["value"] is None:
        try:
            rec["value"] = math.exp(rec["log_value"])
        except OverflowError:
            pass
    return rec


def _cmd_extinction_time(args) -> int:
    p = _params_from_args(args)
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise ValueError("no method given")
    # The whole list is checked before any route runs, and simulate runs last.
    for method in methods:
        if method not in ("exact", "qsd", "clt", "simulate"):
            raise ValueError(f"unknown method {method!r}")
        if method == "simulate" and args.seed is None:
            raise ValueError("--method simulate requires --seed")
    if "simulate" in methods:
        # On its event budget, not on the QSD its start states come from.
        _check_sampling_budget(p, args.replicates)
    records = {m: _extinction_record(p, m, args)
               for m in sorted(set(methods), key=lambda m: m == "simulate")}
    _write_table(args, {
        "schema_version": SCHEMA_VERSION,
        "command": "extinction-time",
        "params": _params_json(p),
        "results": [records[m] for m in methods],
    }, ["method", "n", "lambda", "gamma", "r0", "value", "log_value", "se", "replicates"])
    return 0


def _cmd_compare(args) -> int:
    try:
        grid = [int(x) for x in args.n_grid.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"--n-grid takes comma-separated integers: {args.n_grid!r}") from None
    if not grid:
        raise ValueError("empty n-grid")
    # All models, clt rows and flux-range checks before any flux solve;
    # each qsd row goes in before its clt row.
    points = [_params_from_args(args, n) for n in grid]
    rows = [{"method": "clt", "n": p.n, "r0": p.r0, "q1": math.exp(q1_normal_approx(p).log),
             "log_ET": expected_time_clt(p).log} for p in points]
    for p in points:
        _scaled_flux_sum(p)
    for i, p in enumerate(points):
        q1_qsd = float(quasi_stationary_distribution(p).qsd[0])
        rows.insert(2 * i, {"method": "qsd", "n": p.n, "r0": p.r0, "q1": q1_qsd,
                            "log_ET": -math.log(p.gamma * q1_qsd)})
    _write_table(args, {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "gamma": p.gamma,
        "lambda": p.lam,
        "rows": rows,
    }, ["method", "n", "r0", "q1", "log_ET"])
    return 0


def _trajectory_output(args, tr) -> None:
    """Write the trajectory export of `tr` to --output."""
    pieces = _csv_pieces(tr) if args.format == "csv" else _json_pieces(args, tr)
    _write(args.output, pieces)


def _csv_pieces(tr):
    # Each row's time followed by the suffix ",state,flag\n", entry
    # state + (n+1)*flag of the entries.
    yield "time,state,restart_flag\n"
    width = tr.n + 1
    yield from _chunks(tr, (f",{state},{flag}\n" for flag in (0, 1) for state in range(width)),
                       width, True, True)


def _json_pieces(args, tr):
    head = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "mode": args.mode,
        "params": _params_json(_params_from_args(args)),
        "t_end": tr.t_end,
        "final_state": tr.final_state,
        "n_events": tr.n_events,
        "n_restarts": tr.n_restarts,
        "log_truncated": tr.log_truncated,
    }, indent=2)
    yield head[:-2]
    # json.dumps never uses its C encoder when indent is set, so the
    # columns (never empty: the log starts with the initial row) are
    # spliced in with the layout indent=2 gives them.  Every item carries
    # the separator that follows it, and the column's last chunk drops
    # the last one.
    sep = ",\n    "
    for key, items, flag_key, with_state in (("time", [""], 0, False),
                                             ("state", range(tr.n + 1), 0, True),
                                             ("restart_flag", [0, 1], 1, False)):
        yield f',\n  "{key}": [\n    '
        yield from _chunks(tr, (f"{item}{sep}" for item in items), flag_key, with_state,
                           key == "time", len(sep))
        yield "\n  ]"
    yield "\n}\n"


def _chunks(tr, entries, flag_key: int, with_state: bool, timed: bool, cut: int = 0):
    """Text of the log's rows, _CHUNK rows at a time: each row's time when
    `timed`, then the entry of the strings `entries` keyed by the row's
    state when `with_state`, plus flag_key on a restart row.  The last
    chunk drops its last `cut` characters.

    A chunk's flags come from the state column, one chunk at a time.
    The text formatter is imported here, not with this module, so that
    the other commands load no more code.
    """
    from sisq import _shortrepr

    table = _shortrepr.byte_table(entries)
    size = tr.times.size
    for i in range(0, size, _CHUNK):
        j = min(i + _CHUNK, size)
        keys = tr.states[i:j].astype(np.intp) if with_state else np.zeros(j - i, np.intp)
        if flag_key:
            keys[_restart_flags(tr.states, i, j)] += flag_key
        text = (_shortrepr.time_text(tr.times[i:j], keys, table) if timed
                else _shortrepr.keyed_text(keys, table))
        yield text[:len(text) - cut] if j == size else text
        del text  # not held while the next chunk is formatted


def _cmd_simulate(args) -> int:
    p = _params_from_args(args)
    seed = SeedSpec(args.seed)
    if args.mode == "plain":
        _trajectory_output(args, simulate(p, args.y0, args.t_max, seed))
        return 0
    if args.mode == "restarted":
        if args.y0 != 1:
            raise ValueError(
                f"--mode restarted always starts at state 1, got --y0 {args.y0}"
            )
        _trajectory_output(args, simulate_restarted(p, args.t_max, seed))
        return 0

    if args.format == "csv":
        if args.output == "-":
            raise ValueError(
                "ensemble CSV needs --output so the normal-curve JSON sidecar "
                "has a destination"
            )
        _check_output(str(Path(args.output).with_suffix(".normal.json")), "--output sidecar")
    res = conditioned_ensemble(
        p, args.replicates, args.t_max, seed, y0=args.y0, workers=args.workers
    )
    if res.survivors == 0:
        raise ValueError(
            f"no replicate survived to t={args.t_max}; "
            "nothing to report (try a shorter --t-max or more replicates)"
        )
    counts = res.histogram()
    occupied = np.nonzero(counts)[0]
    supercrit = p.r0 > 1
    summ = endemic_normal(p) if supercrit else None
    normal = {
        "mu_n": summ.mu_n if supercrit else None,
        "sigma2_n": summ.sigma2_n if supercrit else None,
    }
    meta = {
        "schema_version": SCHEMA_VERSION,
        **normal,
        "t_snap": res.t_snap,
        "replicates": res.replicates,
        "survivors": res.survivors,
        "survival_fraction": res.survival_fraction,
    }
    _write_table(args, {
        "command": "simulate",
        "mode": "ensemble",
        "params": _params_json(p),
        # Per element: counts[occupied].tolist() maps about 60 KB more of
        # numpy's code into a process that otherwise never runs it.
        "state": [int(k + 1) for k in occupied],
        "count": [int(counts[k]) for k in occupied],
        **meta,
    }, ["state", "count", "survivors"])
    if args.format == "csv":
        _write_json(str(Path(args.output).with_suffix(".normal.json")), meta)
    return 0


_WORKERS_HELP = ("process count for replicate-level parallelism only (results "
                 "unchanged); trajectory exports do not read it")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sisq",
        description="Quasi-stationary analysis of the SIS epidemic birth-death chain.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("stationary", help="equilibrium of the restarted chain")
    _add_model_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=_cmd_stationary)

    sp = sub.add_parser("qsd", help="quasi-stationary distribution and lambda1")
    _add_model_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=_cmd_qsd)

    sp = sub.add_parser("extinction-time", help="mean extinction time by method")
    _add_model_args(sp)
    _add_output_args(sp)
    sp.add_argument(
        "--method", default="exact",
        help="comma-separated subset of exact,qsd,clt,simulate (default exact)",
    )
    sp.add_argument("--seed", type=int, help="root seed (simulate method)")
    sp.add_argument("--replicates", type=_positive_int, default=10000)
    sp.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    sp.set_defaults(fn=_cmd_extinction_time)

    sp = sub.add_parser("compare", help="qsd vs clt over an n-grid")
    sp.add_argument("--n-grid", required=True, help="comma-separated n values")
    _add_rate_args(sp)
    _add_output_args(sp)
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("simulate", help="exact trajectories and ensembles")
    _add_model_args(sp)
    _add_output_args(sp)
    sp.add_argument("--mode", choices=("plain", "restarted", "ensemble"),
                    default="plain")
    sp.add_argument("--seed", type=int, required=True, help="root seed")
    sp.add_argument("--y0", type=int, default=1, help="initial state (default 1)")
    sp.add_argument("--t-max", type=float, required=True,
                    help="horizon (trajectory modes) or snapshot time (ensemble)")
    sp.add_argument("--replicates", type=_positive_int, default=10000)
    sp.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    sp.set_defaults(fn=_cmd_simulate)

    return ap


def _check_output(path: str, what: str = "--output") -> None:
    """Refuse an output file (`what` names it) that cannot be created,
    before any computation."""
    if path == "-":
        return
    target = Path(path)
    if not target.parent.is_dir():
        raise ValueError(f"{what} {path}: directory {target.parent} does not exist")
    if target.is_dir():
        raise ValueError(f"{what} {path} is a directory")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        return args.fn(args)
    except (OSError, ValueError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
