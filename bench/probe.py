"""Edge-coverage probe: one of the parameter points in workloads.PROBE_POINTS.

Untimed.  run.py starts one process per point, so the dense points never
share a propagator cache and each process's memory ends with it.  Prints
one JSON line: {"outcome": "accepted" | "refused" | "failed", "detail": ...}.
A refusal is a named error raised up front; an accepted point must
return a valid result, or it counts as failed.

    python3 bench/probe.py qsd N R0
    python3 bench/probe.py transition_matrix N R0
"""

import json
import math
import sys

import numpy as np

import sisq.cli
import sisq.spectral
from sisq.chain import ModelParams

# Errors through which a route refuses a point it cannot represent.
REFUSALS = (ArithmeticError, ValueError, RuntimeError)


def _probe_qsd(n: int, r0: str) -> tuple:
    rc = sisq.cli.main(["qsd", "--n", str(n), "--r0", r0, "--format", "json",
                        "--output", "probe_qsd.json"])
    if rc != 0:
        return "refused", ""  # the CLI printed the named error to stderr
    with open("probe_qsd.json") as fh:
        q = np.asarray(json.load(fh)["q_tilde"], dtype=float)
    ok = q.shape == (n,) and bool(np.all(np.isfinite(q)) and np.all(q >= 0.0)) \
        and abs(q.sum() - 1.0) <= 1e-9
    return ("accepted", "") if ok else ("failed", "q_tilde is not a distribution")


def _probe_transition_matrix(n: int, r0: float) -> tuple:
    p = ModelParams(n=n, lam=r0, gamma=1.0)
    try:
        mat = sisq.spectral.transition_matrix(p, 1.0)
    except REFUSALS as exc:
        return "refused", f"{type(exc).__name__}: {exc}"
    rows = mat.sum(axis=1)
    ok = mat.shape == (n, n) and bool(np.all((mat >= 0.0) & (mat <= 1.0))) \
        and bool(np.all(rows <= 1.0 + 1e-9)) and math.isfinite(float(rows.sum()))
    return ("accepted", "") if ok else ("failed", "entries outside [0, 1] or rows above 1")


def main(argv: list) -> int:
    route, n, r0 = argv[0], int(argv[1]), argv[2]
    try:
        if route == "qsd":
            outcome, detail = _probe_qsd(n, r0)
        else:
            outcome, detail = _probe_transition_matrix(n, float(r0))
    except Exception as exc:  # anything but a named refusal is a failure
        outcome, detail = "failed", f"{type(exc).__name__}: {exc}"
    print(json.dumps({"outcome": outcome, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
