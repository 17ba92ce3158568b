"""sisq benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload {analytic,ensemble,trajectory} \\
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke           # every workload at tiny sizes
    python3 bench/run.py --record-digests  # rewrite bench/digests.json

Run it from the root of a sisq checkout: the program is imported from
./src, and nothing is installed or built.  Scratch files go to
./.bench_work.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
each metric with its sample count, the error rate and the environment.

A run is closed-loop: it starts one pass process at a time, each a fresh
interpreter that imports sisq and runs the workload's operation list
once (one_pass.py), until the time is used, with at least MIN_PASSES.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, each
the median over the run; with --trace 1 it alternates untraced and
traced passes, reports the per-layer metrics, and tries the edge probe.

Exit codes: 0 when every operation ran and passed its checks, 1 when one
did not, 2 when the checkout holds no program or the run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent

# Import-only interpreters started before the passes, for set-up time.
# The first one warms the file cache and is not counted.
SETUP_PROBES = 4
MIN_PASSES = 3
# Past this many seconds from the start no pass or probe begins, so a run
# ends well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def _median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


class Runner:
    """Starts the processes of one run inside its scratch directory."""

    def __init__(self, root: Path, label: str):
        self.root = root
        self.start = time.monotonic()
        self.work = root / ".bench_work" / f"{label}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def launch(self, script: str, args: list, subdir: str) -> tuple:
        """Run a bench script to completion in its own directory.

        Returns (exit code or None on timeout, spawn time, directory).  A
        process past the run's time limit is killed with its whole
        session, so worker processes it started end with it.
        """
        cwd = self.work / subdir
        cwd.mkdir()
        timeout = max(1.0, RUN_LIMIT_S - self.elapsed())
        with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(BENCH / script), *args], cwd=cwd,
                                    env=self.env, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                rc = None
        return rc, t_spawn, cwd

    def one_pass(self, args: list, subdir: str) -> tuple:
        """(result dict or None, set-up seconds or None, stderr tail)."""
        rc, t_spawn, cwd = self.launch("one_pass.py", args, subdir)
        result_file = cwd / "result.json"
        if rc != 0 or not result_file.is_file():
            tail = (cwd / "stderr.txt").read_text()[-2000:]
            return None, None, f"exit {rc}: {tail}"
        result = json.loads(result_file.read_text())
        src = (self.root / "src").resolve()
        if not Path(result["sisq_file"]).resolve().is_relative_to(src):
            raise BenchError(f"sisq was imported from {result['sisq_file']}, not from {src}")
        return result, result["import_done"] - t_spawn, ""

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _reference_digests(workload, seed, tiny, platform) -> tuple:
    """Recorded digests that apply to this run, or None, and why."""
    if tiny:
        return None, "tiny sizes have no recorded digests"
    if workload in workloads.SEEDED and seed != workloads.DEFAULT_SEED:
        return None, f"seed {seed} is not the default seed {workloads.DEFAULT_SEED}"
    recorded = _load_json(BENCH / "digests.json")
    if recorded["platform"] != platform:
        return None, "recorded on another platform; digests are exact only per platform"
    return recorded["digests"][workload], "compared with bench/digests.json"


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple:
    """One run.  Returns (result object, report lines)."""
    ops = workloads.operations(workload, seed, tiny)
    runner = Runner(root, workload)
    report = []
    try:
        setup_s, numpy_ms, sisq_ms = [], [], []
        env = platform = None
        for k in range(SETUP_PROBES):
            res, setup, err = runner.one_pass(["--setup-only"] + (["--env"] if k == 0 else []),
                                              f"setup{k}")
            if res is None:
                raise BenchError(f"import-only interpreter failed: {err}")
            if k == 0:
                env, platform = res["env"], res["platform"]
                continue
            setup_s.append(setup)
            numpy_ms.append(res["numpy_scipy_ms"])
            sisq_ms.append(res["sisq_ms"])
        report.append("env " + json.dumps(env, sort_keys=True))

        reference, why = _reference_digests(workload, seed, tiny, platform)
        passes, durations = [], []
        base = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        spans_file = root / ".bench_work" / f"spans-{workload}.json"
        while True:
            i = len(passes)
            traced = trace and i % 2 == 1
            args = base + (["--trace", "--spans", str(spans_file)] if traced else []) \
                + (["--full-check"] if i == 0 else [])
            t0 = time.monotonic()
            res, setup, err = runner.one_pass(args, f"pass{i}")
            durations.append(time.monotonic() - t0)
            passes.append((traced, res, err))
            if res is not None:
                setup_s.append(setup)
                numpy_ms.append(res["numpy_scipy_ms"])
                sisq_ms.append(res["sisq_ms"])
                if reference is None:
                    reference = {name: d["sha256"] for name, d in res["digests"].items()}
                    why = "compared with the run's first pass"
            untraced = sum(1 for t, _, _ in passes if not t)
            enough = (untraced >= 1 and len(passes) - untraced >= 1) if trace \
                else untraced >= MIN_PASSES
            if runner.elapsed() > HARD_LIMIT_S or (
                    enough and runner.elapsed() + _median(durations) > seconds):
                break

        attempted = failed = 0
        failures = []
        # Only the first pass parses everything (--full-check); a later
        # pass with the same output bytes shares its verdict.
        first = passes[0][1]
        for i, (traced, res, err) in enumerate(passes):
            attempted += len(ops)
            if res is None:
                failed += len(ops)
                failures.append(f"pass {i} produced no result: {err.strip()}")
                continue
            errors = {k: list(v) for k, v in res["errors"].items()}
            for op in ops:
                for name in op.outputs:
                    got = res["digests"].get(name, {}).get("sha256")
                    if got != reference.get(name):
                        errors.setdefault(op.id, []).append(f"{name}: sha256 differs ({why})")
                if i > 0 and first is not None and op.id in first["errors"] \
                        and op.id not in errors:
                    errors[op.id] = ["same output as pass 0, which failed its checks"]
            failed += len(errors)
            failures.extend(f"pass {i} {op_id}: {'; '.join(msgs)}"
                            for op_id, msgs in sorted(errors.items()))
        report.append(f"digests: {why}")

        ok = [(traced, res) for traced, res, _ in passes if res is not None]
        plain = [res for traced, res in ok if not traced]
        if trace:
            refused, probe_attempted, probe_failed, probe_lines = probe(runner)
            attempted += probe_attempted
            failed += probe_failed
            report.extend(probe_lines)
            metrics = _layer_metrics([res for traced, res in ok if traced], plain,
                                     numpy_ms, sisq_ms, refused)
            counts = {"traced passes": len(ok) - len(plain), "untraced passes": len(plain)}
        else:
            samples = {"setup_s": setup_s}
            samples.update((k, [r[k] for r in plain]) for k in ("wall_s", "peak_rss_mb"))
            counts = {k: len(v) for k, v in samples.items()}
            report.extend(f"{k} samples " + " ".join(f"{x:.4g}" for x in v)
                          for k, v in samples.items())
            metrics = {k: _median(v) for k, v in samples.items()}
        report.append(f"workload {workload} seed {seed} trace {int(trace)}: "
                      f"{len(passes)} passes of {len(ops)} operations, "
                      f"{runner.elapsed():.1f} s; samples per median {json.dumps(counts)}")
        report.append(f"error_rate {failed}/{attempted} = {failed / attempted:g}")
        report.extend("FAILED " + line for line in failures)
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics if plain else {}}
        return result, report
    finally:
        runner.close()


def _layer_metrics(traced: list, plain: list, numpy_ms, sisq_ms, refused) -> dict:
    per_pass = []
    for res in traced:
        m = dict(res["layers"])
        m["cli.bytes_out"] = sum(d["bytes"] for d in res["digests"].values())
        m["cli.format_mb_per_s"] = (m["cli.bytes_out"] / 1e6) / (m["cli.self_ms"] / 1e3) \
            if m["cli.self_ms"] > 0 else 0.0
        per_pass.append(m)
    metrics = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]} \
        if per_pass else {}
    metrics["setup.numpy_scipy_ms"] = _median(numpy_ms)
    metrics["setup.sisq_ms"] = _median(sisq_ms)
    metrics.update(refused)
    untraced_wall = _median([r["wall_s"] for r in plain])
    traced_wall = _median([r["wall_s"] for r in traced])
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0) \
        if untraced_wall > 0 and traced_wall > 0 else 0.0
    return metrics


def probe(runner: Runner) -> tuple:
    """Try each edge-coverage point in its own process, untimed."""
    refused = {"spectral.flux.refused_points": 0, "spectral.dense.refused_points": 0}
    failed = 0
    lines = []
    for k, (route, n, r0) in enumerate(workloads.PROBE_POINTS):
        label = f"probe {route} n={n} R0={r0:g}"
        if runner.elapsed() > HARD_LIMIT_S:
            failed += 1
            lines.append(f"FAILED {label}: not tried, run out of time")
            continue
        rc, _, cwd = runner.launch("probe.py", [route, str(n), f"{r0:g}"], f"probe{k}")
        out = (cwd / "stdout.txt").read_text().strip().splitlines()
        outcome = json.loads(out[-1]) if rc == 0 and out else \
            {"outcome": "failed", "detail": f"exit {rc}"}
        if outcome["outcome"] == "refused":
            refused["spectral.flux.refused_points" if route == "qsd"
                    else "spectral.dense.refused_points"] += 1
        elif outcome["outcome"] != "accepted":
            failed += 1
        err = (cwd / "stderr.txt").read_text().strip().splitlines()
        detail = outcome["detail"] or (err[-1] if err else "")
        lines.append(f"{'FAILED ' if outcome['outcome'] == 'failed' else ''}"
                     f"{label}: {outcome['outcome']} {detail}".rstrip())
    return refused, len(workloads.PROBE_POINTS), failed, lines


def _declared(root: Path, trace: bool) -> list:
    spec = _load_json(root / "BENCHMARK.json")
    return spec["per_layer" if trace else "end_to_end"]


def _emit(root: Path, result: dict, report: list, trace: bool) -> None:
    declared = _declared(root, trace)
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if result["correct"] and missing:
        raise BenchError(f"metrics not produced: {missing}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared if m["name"] in result["metrics"]}
    for line in report:
        print(line)
    for name, v in result["metrics"].items():
        print(f"  {name:34s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))


def smoke(root: Path) -> int:
    """Every workload, traced and not, at tiny sizes: all metrics present."""
    bad = 0
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result, report = measure(root, workload, workloads.DEFAULT_SEED, 0.0, trace,
                                     tiny=True)
            names = [m["name"] for m in _declared(root, trace)]
            missing = sorted(set(names) - set(result["metrics"]))
            extra = sorted(set(result["metrics"]) - set(names))
            good = result["correct"] and not missing and not extra
            bad += not good
            print(f"smoke {workload} trace {int(trace)}: {'ok' if good else 'FAILED'} "
                  f"({len(result['metrics'])} metrics, {result['failed']} failed)")
            if not good:
                print("\n".join(report + [f"missing {missing}", f"extra {extra}"]))
    return 1 if bad else 0


def record_digests(root: Path) -> int:
    """Write bench/digests.json from one checked pass per workload."""
    runner = Runner(root, "record")
    try:
        res, _, err = runner.one_pass(["--setup-only", "--env"], "env")
        if res is None:
            raise BenchError(err)
        doc = {"seed": workloads.DEFAULT_SEED, "platform": res["platform"], "digests": {}}
        for workload in workloads.WORKLOADS:
            res, _, err = runner.one_pass(["--workload", workload, "--full-check"], workload)
            if res is None or res["errors"]:
                raise BenchError(f"{workload}: {err or res['errors']}")
            doc["digests"][workload] = {name: d["sha256"] for name, d in res["digests"].items()}
        (BENCH / "digests.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    finally:
        runner.close()
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    root = Path.cwd()
    if not (root / "src" / "sisq" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"error: {root} is not a sisq checkout (need src/sisq and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke(root)
        if args.record_digests:
            return record_digests(root)
        if args.workload is None:
            ap.error("--workload is required")
        result, report = measure(root, args.workload, args.seed, args.seconds,
                                 bool(args.trace))
        _emit(root, result, report, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
