"""Operation lists and output checks of the three benchmark workloads.

Every operation is one call into a public entry point of sisq:
``sisq.cli.main(argv)`` for the commands the README lists, and
``sisq.spectral.conditioned_distribution`` for the dense route, which has
no command.  CLI operations write their output to files in the pass
directory; dense operations return an array.  Both are checked after the
timed region of a pass (see ``check``).

Why these three workloads is explained in README.md next to this file.
The checks import numpy locally: run.py imports this module as well and
starts every pass process, so it stays free of numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("analytic", "ensemble", "trajectory")

# At this seed the simulation commands use the seeds the README uses.
DEFAULT_SEED = 0

# Workloads whose outputs depend on the seed.  The analytic workload has
# no randomness, so its recorded digests hold at every seed.
SEEDED = ("ensemble", "trajectory")

# The (n, R0) grid of the analytic workload, in ROADMAP order.
GRID = ((100, 2.0), (1000, 2.0), (400, 5.0), (1000, 1.2))

# Extinction-sample mean against expected_time_qsd: allowed distance in
# standard errors.  The mean of >= 1000 exponential samples is close to
# normal, so a correct program exceeds 5 SE at about one seed in 1.7 million.
EXTINCTION_SE_BOUND = 5.0

# Edge-coverage points as (route, n, R0), tried untimed in traced runs.
# ROADMAP open items 3 and 4: every one is refused today; a route that
# learns to handle one shows as a coverage gain, not as a slower pass.
PROBE_POINTS = (
    ("qsd", 2000, 3.0),
    ("qsd", 10000, 2.0),
    ("transition_matrix", 2000, 2.0),
    ("transition_matrix", 4096, 0.5),
    ("transition_matrix", 4096, 1.05),
)


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    Attributes:
        id: name, unique within the workload.
        argv: arguments of ``sisq.cli.main``; empty for a dense operation.
        dense: (n, R0, t) of a ``conditioned_distribution(p, t, 1)`` call.
        outputs: files the operation writes, relative to the pass directory.
    """

    id: str
    argv: tuple = ()
    dense: tuple | None = None
    outputs: tuple = ()


def _num(x: float) -> str:
    return f"{x:g}"


def _cli(op_id: str, argv: tuple, *outputs: str) -> Op:
    return Op(id=op_id, argv=argv, outputs=outputs)


def operations(workload: str, seed: int, tiny: bool = False) -> list:
    """The fixed operation list of one pass; ``tiny`` shrinks every size."""
    if workload == "analytic":
        return _analytic(tiny)
    if workload == "ensemble":
        return _ensemble(seed, tiny)
    if workload == "trajectory":
        return _trajectory(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def _analytic(tiny: bool) -> list:
    grid = ((40, 2.0), (60, 1.2)) if tiny else GRID
    ops = []
    for n, r0 in grid:
        out = f"et_n{n}_r{_num(r0)}.json"
        ops.append(_cli(
            f"et_n{n}_r{_num(r0)}",
            ("extinction-time", "--n", str(n), "--r0", _num(r0),
             "--method", "exact,qsd,clt", "--format", "json", "--output", out),
            out))
    n_grid = "20,40" if tiny else "50,100,200,400"
    ops.append(_cli("compare", ("compare", "--n-grid", n_grid, "--r0", "2",
                                "--output", "compare.csv"), "compare.csv"))
    for n in ((50,) if tiny else (500, 1000)):
        for t in (0.5, 5.0, 50.0):
            ops.append(Op(id=f"cond_n{n}_t{_num(t)}", dense=(n, 2.0, t)))
    return ops


def _ensemble(seed: int, tiny: bool) -> list:
    # The README runs 10000 replicates of each; 400 and 2000 keep one pass
    # near 3 s on two cores so that a run holds several passes.
    n, reps, ext_n, ext_reps = (100, 40, 10, 200) if tiny else (1000, 400, 20, 2000)
    ens = ("simulate", "--mode", "ensemble", "--n", str(n), "--r0", "5",
           "--t-max", "10", "--seed", str((42 + seed) % 2**64),
           "--replicates", str(reps))
    ext = ("extinction-time", "--n", str(ext_n), "--lambda", "2",
           "--method", "simulate", "--seed", str((7 + seed) % 2**64),
           "--replicates", str(ext_reps))
    w2 = ("--workers", "2")
    return [
        _cli("ens_serial", ens + ("--output", "ens_serial.csv"),
             "ens_serial.csv", "ens_serial.normal.json"),
        _cli("ens_w2", ens + w2 + ("--output", "ens_w2.csv"),
             "ens_w2.csv", "ens_w2.normal.json"),
        _cli("ext_serial", ext + ("--output", "ext_serial.csv"), "ext_serial.csv"),
        _cli("ext_w2", ext + w2 + ("--output", "ext_w2.csv"), "ext_w2.csv"),
    ]


def _trajectory(seed: int, tiny: bool) -> list:
    # A 1e4 horizon (about 976k events) took about 9 s a pass, too few
    # passes per run for a steady median; 5e3 logs about 490k events.
    n, t_max, plain_n, plain_t = (20, "200", 100, "20") if tiny else (100, "5e3", 1000, "200")
    rst = ("simulate", "--mode", "restarted", "--n", str(n), "--r0", "2",
           "--t-max", t_max, "--seed", str((1 + seed) % 2**64))
    plain = ("simulate", "--mode", "plain", "--n", str(plain_n), "--r0", "2",
             "--y0", str(plain_n // 2), "--t-max", plain_t,
             "--seed", str((3 + seed) % 2**64), "--output", "plain.csv")
    return [
        _cli("restarted_csv", rst + ("--output", "restarted.csv"), "restarted.csv"),
        _cli("restarted_json", rst + ("--format", "json", "--output", "restarted.json"),
             "restarted.json"),
        _cli("plain_csv", plain, "plain.csv"),
    ]


def digests(ops: list, pass_dir: Path) -> dict:
    """sha256 and size of every output file, keyed by file name."""
    out = {}
    for op in ops:
        for name in op.outputs:
            path = pass_dir / name
            if path.is_file():
                data = path.read_bytes()
                out[name] = {"op": op.id, "sha256": hashlib.sha256(data).hexdigest(),
                             "bytes": len(data)}
    return out


class _Checks:
    """Collects failed checks per operation id."""

    def __init__(self):
        self.failures: dict = {}

    def require(self, op_id: str, ok: bool, message: str) -> None:
        if not ok:
            self.failures.setdefault(op_id, []).append(message)


def check(workload: str, ops: list, dense_results: dict, pass_dir: Path,
          cli_main, full: bool) -> dict:
    """Seed-independent output checks of one pass.

    Args:
        dense_results: array returned by each dense operation, by op id.
        cli_main: ``sisq.cli.main``, used for untimed reference commands.
        full: also parse large trajectory files.  Later passes of a run
            skip this, because their digests must equal the first pass's.

    Returns:
        {op id: [failure messages]} for every operation that failed a check.
    """
    c = _Checks()
    if workload == "analytic":
        _check_analytic(c, ops, dense_results, pass_dir, cli_main)
    elif workload == "ensemble":
        _check_ensemble(c, ops, pass_dir, cli_main)
    elif full:
        _check_trajectory(c, ops, pass_dir)
    return c.failures


def _read_csv(path: Path) -> list:
    """Rows of a CSV file as dicts keyed by the header."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _argv_value(argv: tuple, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_analytic(c, ops, dense_results, pass_dir, cli_main) -> None:
    import numpy as np

    for op in ops:
        if op.dense is not None:
            row = dense_results.get(op.id)
            if row is None:
                continue
            row = np.asarray(row, dtype=float)
            c.require(op.id, row.shape == (op.dense[0],), f"row shape {row.shape}")
            c.require(op.id, bool(np.all(np.isfinite(row)) and np.all(row >= 0.0)),
                      "row has a negative or non-finite entry")
            c.require(op.id, abs(float(row.sum()) - 1.0) <= 1e-12,
                      f"row sums to {float(row.sum())!r}")
            continue
        path = pass_dir / op.outputs[0]
        if not path.is_file():
            continue
        if op.id == "compare":
            rows = _read_csv(path)
            c.require(op.id, len(rows) == 2 * len(_argv_value(op.argv, "--n-grid").split(",")),
                      f"{len(rows)} rows")
            for r in rows:
                q1, log_et = float(r["q1"]), float(r["log_ET"])
                c.require(op.id, 0.0 < q1 <= 1.0 and math.isfinite(log_et),
                          f"bad row {r}")
            continue
        n, r0 = _argv_value(op.argv, "--n"), _argv_value(op.argv, "--r0")
        res = {r["method"]: r for r in json.loads(path.read_text())["results"]}
        if not all(m in res and res[m]["log_value"] is not None for m in ("exact", "qsd", "clt")):
            c.require(op.id, False, "missing method or log_value")
            continue
        # Starting from state 1 is the worst start, so the exact mean
        # extinction time is at most the mean from quasi-stationarity.
        c.require(op.id, res["exact"]["log_value"] <= res["qsd"]["log_value"] + 1e-12,
                  "exact extinction time exceeds the QSD-route time")
        # lambda1 = -gamma*q1, read from the qsd command's own output.
        ref = pass_dir / f"check_qsd_n{n}_r{r0}.json"
        rc = cli_main(["qsd", "--n", n, "--r0", r0, "--format", "json", "--output", str(ref)])
        if rc != 0:
            c.require(op.id, False, f"reference qsd command exited {rc}")
            continue
        q = json.loads(ref.read_text())
        q_tilde = np.asarray(q["q_tilde"])
        c.require(op.id, math.isclose(q["lambda1"], -q["params"]["gamma"] * q_tilde[0],
                                      rel_tol=1e-12),
                  "lambda1 != -gamma*q1")
        c.require(op.id, bool(np.all(q_tilde > 0.0)) and abs(q_tilde.sum() - 1.0) <= 1e-12,
                  "QSD is not a positive distribution")
        c.require(op.id, math.isclose(res["qsd"]["value"], -1.0 / q["lambda1"], rel_tol=1e-12),
                  "QSD-route time != -1/lambda1")


def _check_ensemble(c, ops, pass_dir, cli_main) -> None:
    by_id = {op.id: op for op in ops}
    for par, ser in (("ens_w2", "ens_serial"), ("ext_w2", "ext_serial")):
        for a, b in zip(by_id[par].outputs, by_id[ser].outputs):
            pa, pb = pass_dir / a, pass_dir / b
            c.require(par, pa.is_file() and pb.is_file()
                      and pa.read_bytes() == pb.read_bytes(),
                      f"{a} differs from serial {b}")

    op = by_id["ens_serial"]
    csv_path, meta_path = (pass_dir / name for name in op.outputs)
    if csv_path.is_file() and meta_path.is_file():
        rows = _read_csv(csv_path)
        meta = json.loads(meta_path.read_text())
        n = int(_argv_value(op.argv, "--n"))
        total = sum(int(r["count"]) for r in rows)
        c.require(op.id, all(1 <= int(r["state"]) <= n for r in rows), "state out of range")
        c.require(op.id, total == meta["survivors"]
                  and all(int(r["survivors"]) == total for r in rows),
                  "histogram counts do not sum to the survivor count")
        c.require(op.id, meta["replicates"] == int(_argv_value(op.argv, "--replicates"))
                  and meta["survival_fraction"] == total / meta["replicates"],
                  "sidecar replicate count or survival fraction is wrong")

    op = by_id["ext_serial"]
    path = pass_dir / op.outputs[0]
    if path.is_file():
        r = _read_csv(path)[0]
        ref = pass_dir / "check_ext_qsd.csv"
        argv = ["extinction-time", "--n", _argv_value(op.argv, "--n"),
                "--lambda", _argv_value(op.argv, "--lambda"), "--method", "qsd",
                "--output", str(ref)]
        if cli_main(argv) != 0:
            c.require(op.id, False, "reference qsd-route command failed")
            return
        expected = float(_read_csv(ref)[0]["value"])
        mean, se = float(r["value"]), float(r["se"])
        c.require(op.id, int(r["replicates"]) == int(_argv_value(op.argv, "--replicates")),
                  "replicate count differs from the request")
        c.require(op.id, abs(mean - expected) <= EXTINCTION_SE_BOUND * se,
                  f"sample mean {mean!r} is more than {EXTINCTION_SE_BOUND:g} SE "
                  f"({se!r}) from expected_time_qsd {expected!r}")


def _check_path(c, op_id: str, times, states, n: int) -> None:
    import numpy as np

    c.require(op_id, times.size >= 1 and times[0] == 0.0, "first row is not at time 0")
    c.require(op_id, bool(np.all(np.diff(times) >= 0.0)), "trajectory time decreases")
    c.require(op_id, bool(np.all(np.abs(np.diff(states)) == 1)), "a step is not +-1")
    c.require(op_id, bool(np.all((states >= 0) & (states <= n))), "state out of range")


def _check_trajectory(c, ops, pass_dir) -> None:
    import numpy as np

    paths = {}
    for op in ops:
        path = pass_dir / op.outputs[0]
        if not path.is_file():
            continue
        n = int(_argv_value(op.argv, "--n"))
        if path.suffix == ".csv":
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            times, states = data[:, 0], data[:, 1].astype(np.int64)
        else:
            doc = json.loads(path.read_text())
            times = np.asarray(doc["time"], dtype=float)
            states = np.asarray(doc["state"], dtype=np.int64)
            c.require(op.id, doc["log_truncated"] or doc["n_events"] == states.size - 1,
                      "n_events differs from the logged event count")
            c.require(op.id, doc["final_state"] == int(states[-1]),
                      "final_state differs from the last logged state")
            del doc
        _check_path(c, op.id, times, states, n)
        paths[op.id] = (times, states)
    if "restarted_csv" in paths and "restarted_json" in paths:
        (tc, sc), (tj, sj) = paths["restarted_csv"], paths["restarted_json"]
        c.require("restarted_json", np.array_equal(tc, tj) and np.array_equal(sc, sj),
                  "CSV and JSON of the same seeded run disagree")
