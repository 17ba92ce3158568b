import ast
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from _oracles import assert_same_rows, table_output_reference, trajectory_output_reference

import sisq
import sisq.chain
import sisq.cli
import sisq.clt
import sisq.sim
import sisq.spectral
import sisq.stationary
from sisq.chain import ModelParams
from sisq.cli import main
from sisq.clt import expected_time_clt, q1_normal_approx
from sisq.spectral import expected_time_qsd, quasi_stationary_distribution
from sisq.stationary import stationary_distribution


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_stationary_hand_values(capsys):
    code, out, err = run_cli(capsys, "stationary", "--n", "2", "--lambda", "1", "--gamma", "1")
    assert code == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["state", "pi_hat"]
    pi = stationary_distribution(ModelParams(2, 1.0, 1.0))
    assert [r[0] for r in rows] == ["1", "2"]
    # shortest-roundtrip cells reproduce the library doubles exactly
    assert [float(r[1]) for r in rows] == pi.tolist()
    assert float(rows[0][1]) == pytest.approx(0.8, rel=1e-12)
    assert out.endswith("\n")


def test_stationary_json_document(capsys):
    code, out, err = run_cli(capsys, "stationary", "--n", "4", "--r0", "1.5", "--gamma", "2",
                             "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "command", "params", "state", "pi_hat"]
    p = ModelParams(4, 3.0, 2.0)
    assert doc["schema_version"] == 1 and doc["command"] == "stationary"
    assert doc["params"] == {"n": 4, "lambda": 3.0, "gamma": 2.0, "r0": p.r0}
    assert list(doc["params"]) == ["n", "lambda", "gamma", "r0"]
    assert doc["state"] == [1, 2, 3, 4]
    assert doc["pi_hat"] == stationary_distribution(p).tolist()


def test_r0_flag_aliases_lambda(capsys):
    _, out_lam, _ = run_cli(capsys, "stationary", "--n", "8", "--lambda", "2", "--gamma", "1")
    _, out_r0, _ = run_cli(capsys, "stationary", "--n", "8", "--r0", "2", "--gamma", "1")
    assert out_lam == out_r0


def test_invalid_n_exits_nonzero_without_output(tmp_path, capsys):
    target = tmp_path / "pi.csv"
    code, out, err = run_cli(capsys, "stationary", "--n", "0", "--lambda", "1",
                             "--output", str(target))
    assert code == 1
    assert "error:" in err
    assert out == ""
    assert not target.exists()


def test_rate_flags_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--n", "2", "--lambda", "1", "--r0", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["stationary", "--n", "2"])
    assert exc.value.code == 2


def test_qsd_csv_and_json_encode_identical_numbers(tmp_path, capsys):
    code, out_csv, _ = run_cli(capsys, "qsd", "--n", "5", "--lambda", "3")
    assert code == 0
    target = tmp_path / "qsd.json"
    code, _, _ = run_cli(capsys, "qsd", "--n", "5", "--lambda", "3",
                         "--format", "json", "--output", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["schema_version"] == 1
    _, rows = parse_csv(out_csv)
    assert [float(r[1]) for r in rows] == doc["q_tilde"]
    assert float(rows[0][2]) == doc["lambda1"]
    assert float(rows[0][3]) == doc["expected_time_qsd"]
    r = quasi_stationary_distribution(ModelParams(5, 3.0, 1.0))
    assert doc["lambda1"] == r.lambda1
    assert doc["q_tilde"] == r.qsd.tolist()


def test_qsd_hand_values(capsys):
    code, out, _ = run_cli(capsys, "qsd", "--n", "2", "--lambda", "1")
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == pytest.approx(-0.7192236, abs=1e-6)
    assert float(rows[0][3]) == pytest.approx(1.390388, abs=1e-6)
    code, out, _ = run_cli(capsys, "qsd", "--n", "1", "--lambda", "0.5", "--gamma", "2")
    _, rows = parse_csv(out)
    assert float(rows[0][2]) == -2.0
    assert float(rows[0][3]) == 0.5


def test_extinction_time_analytic_methods(capsys):
    code, out, _ = run_cli(capsys, "extinction-time", "--n", "2", "--lambda", "1",
                           "--method", "exact,qsd")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["method", "n", "lambda", "gamma", "r0", "value",
                      "log_value", "se", "replicates"]
    by_method = {r[0]: r for r in rows}
    assert float(by_method["exact"][5]) == pytest.approx(1.25, rel=1e-12)
    assert float(by_method["qsd"][5]) == pytest.approx(1.390388, abs=1e-6)
    assert by_method["exact"][7] == "" and by_method["exact"][8] == ""


def test_extinction_time_clt_method(capsys):
    code, out, _ = run_cli(capsys, "extinction-time", "--n", "20", "--lambda", "2",
                           "--method", "clt")
    _, rows = parse_csv(out)
    want = expected_time_clt(ModelParams(20, 2.0, 1.0))
    assert float(rows[0][5]) == want.value
    assert float(rows[0][6]) == want.log


def test_extinction_time_clt_subcritical_names_precondition(capsys):
    code, out, err = run_cli(capsys, "extinction-time", "--n", "20",
                             "--lambda", "0.5", "--method", "clt")
    assert code == 1
    assert "R0" in err
    assert out == ""


def test_extinction_time_overflow_keeps_log(capsys):
    code, out, _ = run_cli(capsys, "extinction-time", "--n", "1000", "--r0", "5",
                           "--method", "exact")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][5] == ""
    assert float(rows[0][6]) > 709.0


def test_extinction_time_simulate_method(capsys):
    code, out, _ = run_cli(capsys, "extinction-time", "--n", "2", "--lambda", "1",
                           "--method", "simulate", "--seed", "9",
                           "--replicates", "2000")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0][5]) == pytest.approx(1.390388, abs=3.0 * float(rows[0][7]))
    assert rows[0][8] == "2000"


def test_extinction_time_single_replicate_has_no_se(capsys):
    args = ("extinction-time", "--n", "5", "--r0", "2", "--method", "simulate",
            "--seed", "1", "--replicates", "1")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][7] == "" and rows[0][8] == "1"
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert "NaN" not in out
    rec = json.loads(out)["results"][0]
    assert rec["se"] is None and rec["replicates"] == 1


@pytest.mark.parametrize("args, flag", [
    (("simulate", "--mode", "plain", "--n", "5", "--r0", "2", "--t-max", "1",
      "--seed", "1", "--replicates", "0", "--workers", "-3"), "--replicates"),
    (("extinction-time", "--n", "5", "--r0", "2", "--method", "exact",
      "--replicates", "-5", "--workers", "0", "--seed", "3"), "--replicates"),
])
def test_out_of_range_counts_are_refused(capsys, args, flag):
    # refused even though no sampler runs to read them
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--replicates", "--workers"])
@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ("simulate", "--mode", "plain"),
    ("simulate", "--mode", "restarted"),
    ("simulate", "--mode", "ensemble"),
    ("extinction-time", "--method", "exact"),
    ("extinction-time", "--method", "qsd"),
    ("extinction-time", "--method", "clt"),
    ("extinction-time", "--method", "simulate"),
])
def test_count_flags_refuse_values_below_one(capsys, command, value, flag):
    args = [*command, "--n", "5", "--r0", "2", "--seed", "1", flag, value]
    if command[0] == "simulate":
        args += ["--t-max", "1", "--format", "json"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--replicates", "--workers"])
@pytest.mark.parametrize("value", ["2.5", "two", ""])
def test_count_flags_refuse_non_integers(capsys, value, flag):
    with pytest.raises(SystemExit) as exc:
        main(["extinction-time", "--n", "5", "--r0", "2", "--method", "exact", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


def test_extinction_time_simulate_requires_seed(capsys):
    code, _, err = run_cli(capsys, "extinction-time", "--n", "2", "--lambda", "1",
                           "--method", "simulate")
    assert code == 1
    assert "seed" in err


def test_extinction_time_simulate_refuses_past_event_budget(capsys):
    # about 1e87 expected events: refused before the first draw
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "extinction-time", "--n", "1000", "--r0", "2",
                           "--method", "simulate", "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "budget of 1e10 events" in err


def test_extinction_time_simulate_past_the_flux_edge_names_the_event_budget(capsys, monkeypatch):
    # Past the flux edge the QSD start cannot be formed, but the budget
    # refuses the run before it is asked for.
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran before the event budget was checked")

    for name in ("log_expected_extinction_time", "quasi_stationary_distribution"):
        monkeypatch.setattr(sisq.cli, name, refuse)
    code, out, err = run_cli(capsys, "extinction-time", "--n", "41247", "--r0", "1.2",
                             "--method", "exact,simulate", "--seed", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: extinction sampling needs at least ~1e")
    assert "beyond the budget of 1e10 events; use the exact or qsd method" in err


@pytest.mark.parametrize("methods, seed, message", [
    ("simulate,bogus", ["--seed", "1"], "unknown method 'bogus'"),
    ("exact,qsd,clt,simulate", [], "--method simulate requires --seed"),
    ("bogus,simulate", [], "unknown method 'bogus'"),
    (",", [], "no method given"),
])
def test_extinction_time_refuses_method_list_before_any_route(
        capsys, monkeypatch, methods, seed, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran before the method list was checked")

    for name in ("log_expected_extinction_time", "expected_time_qsd",
                 "expected_time_clt", "quasi_stationary_distribution",
                 "extinction_time_samples"):
        monkeypatch.setattr(sisq.cli, name, refuse)
    code, out, err = run_cli(capsys, "extinction-time", "--n", "20", "--r0", "2",
                             "--method", methods, "--replicates", "20000", *seed)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n, r0, message", [
    ("20", "0.8", "the diffusion-limit route requires R0 > 1"),
    ("1", "2", "n = 1 leaves no room for a normal approximation"),
])
def test_extinction_time_refuses_a_later_method_before_sampling(
        capsys, monkeypatch, n, r0, message):
    def refuse(*args, **kwargs):
        raise AssertionError("replicates were drawn before clt was checked")

    monkeypatch.setattr(sisq.cli, "extinction_time_samples", refuse)
    code, out, err = run_cli(capsys, "extinction-time", "--n", n, "--r0", r0,
                             "--method", "simulate,clt", "--seed", "1",
                             "--replicates", "200000")
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_extinction_time_with_simulate_first_keeps_its_bytes(fmt, tmp_path, capsys):
    # simulate runs after the other routes, but its row stays where it was listed
    argv = ["extinction-time", "--n", "20", "--lambda", "2", "--method", "simulate,exact",
            "--seed", "7", "--replicates", "50", "--format", fmt,
            "--output", str(tmp_path / f"out.{fmt}")]
    assert run_cli(capsys, *argv) == (0, "", "")
    written = {str(f): f.read_text() for f in tmp_path.iterdir()}
    assert written == table_output_reference(sisq.cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("args", [
    ("qsd", "--n", "10", "--r0", "2", "--gamma", "5e-324"),
    ("qsd", "--n", "10", "--r0", "2", "--gamma", "1e-310"),
    ("extinction-time", "--n", "10", "--r0", "2", "--gamma", "1e-310",
     "--method", "qsd"),
])
def test_subnormal_decay_rate_is_refused_not_inf(capsys, args):
    code, out, err = run_cli(capsys, *args)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "normal double" in err


@pytest.mark.parametrize("command", [
    ("qsd",),
    ("extinction-time", "--method", "exact"),
    ("simulate", "--seed", "1", "--t-max", "1"),
])
@pytest.mark.parametrize("lam, gamma, r0", [("1e300", "1e-300", "inf"),
                                             ("1e-300", "1e300", "0.0")])
def test_rate_ratio_outside_doubles_is_refused(capsys, command, lam, gamma, r0):
    # Used to print NaN cells (extinction-time), a math range error (qsd)
    # or a refusal that blamed the infection rate.
    code, out, err = run_cli(capsys, command[0], "--n", "10", "--lambda", lam,
                             "--gamma", gamma, *command[1:])
    assert code == 1 and out == ""
    assert err == (f"error: R0 = lambda/gamma must be a positive finite double, "
                   f"got {r0} from lambda={float(lam)!r}, gamma={float(gamma)!r}\n")


def test_rates_past_the_double_range_are_refused(capsys):
    # Used to print an absorption at time 0.0: births held inf and NaN, and
    # a NaN wait fell past every clock.
    code, out, err = run_cli(capsys, "simulate", "--mode", "plain", "--n", "3",
                             "--lambda", "1e308", "--gamma", "1e308", "--t-max", "1e-300",
                             "--seed", "1")
    assert (code, out) == (1, "")
    assert err == ("error: the event rates of n=3, lambda=1e+308, gamma=1e+308 exceed "
                   "the double range; use smaller rates\n")


@pytest.mark.parametrize("command", [
    ("qsd", "--n", "10"),
    ("compare", "--n-grid", "10,20"),
    ("simulate", "--n", "10", "--seed", "1", "--t-max", "1"),
])
@pytest.mark.parametrize("r0, gamma", [("1e10", "1e300"), ("1e-10", "1e-320")])
def test_r0_product_outside_doubles_names_the_flags(capsys, command, r0, gamma):
    # The product r0 * gamma used to be refused as an infection rate of
    # inf or 0.0, a flag the user never gave.
    code, out, err = run_cli(capsys, *command, "--r0", r0, "--gamma", gamma)
    lam = float(r0) * float(gamma)
    assert code == 1 and out == ""
    assert err == (f"error: --r0 * --gamma must be a positive finite double, "
                   f"got {lam!r} from --r0 {float(r0)!r}, --gamma {float(gamma)!r}\n")


@pytest.mark.parametrize("command", [
    ("qsd", "--n", "10"),
    ("compare", "--n-grid", "10,20"),
    ("simulate", "--n", "10", "--seed", "1", "--t-max", "1"),
])
@pytest.mark.parametrize("r0", ["nan", "inf", "0", "-2"])
def test_invalid_r0_names_the_flag(capsys, command, r0):
    code, out, err = run_cli(capsys, *command, "--r0", r0)
    assert code == 1 and out == ""
    assert err == f"error: --r0 must be positive and finite, got {float(r0)!r}\n"


def test_extinction_time_qsd_far_from_unit_gamma(capsys):
    code, out, _ = run_cli(capsys, "extinction-time", "--n", "10", "--r0", "2",
                           "--gamma", "1e160", "--method", "qsd")
    assert code == 0
    _, rows = parse_csv(out)
    want = expected_time_qsd(ModelParams(10, 2.0, 1.0)) / 1e160
    assert float(rows[0][5]) == pytest.approx(want, rel=1e-13)


def test_compare_long_format(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n-grid", "10,20", "--r0", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["method", "n", "r0", "q1", "log_ET"]
    assert len(rows) == 4
    assert [r[0] for r in rows] == ["qsd", "clt", "qsd", "clt"]
    p = ModelParams(10, 2.0, 1.0)
    assert float(rows[0][3]) == quasi_stationary_distribution(p).qsd[0]
    assert float(rows[1][3]) == math.exp(q1_normal_approx(p).log)


def test_compare_json_document(capsys):
    code, out, err = run_cli(capsys, "compare", "--n-grid", "10,20", "--r0", "2",
                             "--gamma", "0.5", "--format", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "command", "gamma", "lambda", "rows"]
    assert (doc["schema_version"], doc["command"]) == (1, "compare")
    assert (doc["gamma"], doc["lambda"]) == (0.5, 1.0)
    want = []
    for n in (10, 20):
        p = ModelParams(n, 1.0, 0.5)
        q1 = float(quasi_stationary_distribution(p).qsd[0])
        want += [{"method": "qsd", "n": n, "r0": 2.0, "q1": q1, "log_ET": -math.log(0.5 * q1)},
                 {"method": "clt", "n": n, "r0": 2.0, "q1": math.exp(q1_normal_approx(p).log),
                  "log_ET": expected_time_clt(p).log}]
    assert doc["rows"] == want
    assert all(list(row) == ["method", "n", "r0", "q1", "log_ET"] for row in doc["rows"])


@pytest.mark.parametrize("grid", [",", " , ,"])
def test_compare_refuses_an_empty_grid(capsys, grid):
    code, out, err = run_cli(capsys, "compare", "--n-grid", grid, "--r0", "2")
    assert (code, out, err) == (1, "", "error: empty n-grid\n")


def test_compare_single_point_degenerates_to_extinction_time(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n-grid", "20", "--r0", "2")
    _, rows = parse_csv(out)
    assert len(rows) == 2
    assert float(rows[0][4]) == pytest.approx(
        math.log(expected_time_qsd(ModelParams(20, 2.0, 1.0))), rel=1e-12)
    assert float(rows[1][4]) == pytest.approx(
        expected_time_clt(ModelParams(20, 2.0, 1.0)).log, rel=1e-12)


def test_compare_rejects_single_host(capsys):
    # the clt row at n = 1 would be a "probability" above 1
    code, out, err = run_cli(capsys, "compare", "--n-grid", "1,2", "--r0", "2")
    assert code == 1
    assert err.startswith("error:") and "n = 1" in err
    assert out == ""


def test_compare_rejects_subcritical(capsys):
    code, _, err = run_cli(capsys, "compare", "--n-grid", "10,20", "--r0", "1")
    assert code == 1
    assert "R0" in err


def _refuse_flux_solves(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a flux solve ran before every point was checked")

    monkeypatch.setattr(sisq.cli, "quasi_stationary_distribution", refuse)


def test_compare_names_the_grid_flag_in_a_parse_error(capsys, monkeypatch):
    _refuse_flux_solves(monkeypatch)
    code, out, err = run_cli(capsys, "compare", "--n-grid", "50,abc", "--r0", "2")
    assert (code, out) == (1, "")
    assert err == "error: --n-grid takes comma-separated integers: '50,abc'\n"


@pytest.mark.parametrize("grid, r0, message", [
    ("3000,1", "1.2", "n = 1 leaves no room"),
    ("3000,0", "1.2", "population size must be >= 1"),
    ("3000,20", "0.9", "requires R0 > 1"),
])
def test_compare_refuses_every_point_before_any_flux_solve(
        capsys, monkeypatch, grid, r0, message):
    _refuse_flux_solves(monkeypatch)
    code, out, err = run_cli(capsys, "compare", "--n-grid", grid, "--r0", r0)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


def test_compare_refuses_a_point_past_the_flux_edge_before_any_solve(capsys, monkeypatch):
    # n = 41,247 is one past the flux route's edge at R0 = 1.2; the two
    # points before it are not solved first.
    calls = []
    real = sisq.cli.quasi_stationary_distribution
    monkeypatch.setattr(sisq.cli, "quasi_stationary_distribution",
                        lambda p: calls.append(p) or real(p))
    code, out, err = run_cli(capsys, "compare", "--n-grid", "41000,41246,41247", "--r0", "1.2")
    assert (code, out, calls) == (1, "", [])
    assert err.startswith("error:") and "underflows double precision" in err


@pytest.mark.xfail(
    strict=True,
    reason="the qsd-vs-clt relative gap widens with n at fixed R0 instead "
    "of shrinking; see the Testing section of README.md for the analysis",
)
def test_compare_gap_shrinks_along_reference_grid(capsys):
    code, out, _ = run_cli(capsys, "compare", "--n-grid", "50,100,200,400", "--r0", "2")
    assert code == 0
    _, rows = parse_csv(out)
    qsd = {int(r[1]): float(r[3]) for r in rows if r[0] == "qsd"}
    clt = {int(r[1]): float(r[3]) for r in rows if r[0] == "clt"}
    gaps = [abs(clt[n] - qsd[n]) / qsd[n] for n in (50, 100, 200, 400)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_simulate_plain_single_host(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "1", "--lambda", "1",
                           "--mode", "plain", "--t-max", "100", "--seed", "4")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["time", "state", "restart_flag"]
    assert len(rows) == 2
    assert rows[0] == ["0.0", "1", "0"]
    assert rows[1][1] == "0" and rows[1][2] == "0"


def test_simulate_trajectory_modes_need_horizon(capsys):
    for mode in ("plain", "restarted", "ensemble"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n", "5", "--lambda", "1", "--mode", mode,
                  "--seed", "4"])
        assert exc.value.code == 2
        assert "--t-max" in capsys.readouterr().err


def test_simulate_restarted_refuses_other_start(capsys):
    # the restarted chain always starts at state 1
    code, out, err = run_cli(capsys, "simulate", "--n", "5", "--lambda", "1",
                             "--mode", "restarted", "--y0", "3", "--t-max", "5",
                             "--seed", "4")
    assert code == 1
    assert err.startswith("error:") and "--y0" in err
    assert out == ""


def test_simulate_refuses_infinite_horizon(capsys, tmp_path):
    # a restarted run never stays absorbed, so t-max inf would never stop
    out = tmp_path / "never.csv"
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "simulate", "--mode", "restarted", "--n", "2",
                           "--r0", "2", "--t-max", "inf", "--seed", "1",
                           "--output", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert err.startswith("error:") and "horizon must be finite" in err
    assert not out.exists()


def test_simulate_restarted_flags_restarts(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--lambda", "1",
                           "--mode", "restarted", "--t-max", "50", "--seed", "4")
    _, rows = parse_csv(out)
    flags = {r[2] for r in rows}
    assert flags == {"0", "1"}


def test_simulate_json_trajectory(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "5", "--lambda", "2",
                           "--mode", "plain", "--t-max", "3", "--seed", "11",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["mode"] == "plain"
    assert doc["state"][0] == 1
    assert len(doc["time"]) == len(doc["state"]) == len(doc["restart_flag"])
    assert doc["log_truncated"] is False


# sha256 of each trajectory export, identical to --output FILE and to
# stdout.  The cases cover restart rows, a plain run, a single logged row
# (t-max below the first wait) and a log cut at MAX_LOGGED_EVENTS = 5.
_TRAJECTORY_CASES = {
    "restarted": (("--mode", "restarted", "--n", "10", "--r0", "2",
                   "--t-max", "50", "--seed", "1"), None),
    "plain": (("--mode", "plain", "--n", "10", "--r0", "2", "--y0", "5",
               "--t-max", "5", "--seed", "3"), None),
    "one_row": (("--mode", "plain", "--n", "10", "--r0", "2",
                 "--t-max", "0.01", "--seed", "2"), None),
    "truncated": (("--mode", "restarted", "--n", "10", "--r0", "2",
                   "--t-max", "50", "--seed", "1"), 5),
}
_TRAJECTORY_SHA256 = {
    ("restarted", "csv"):
        "72821e97a15f1ca4e827cc3667e7ae99440f8f8e8d5492c773548d3858048cb1",
    ("restarted", "json"):
        "cd7441e65bc347613a83ee56bc5343e47f465699d6703d97a8a3bca40ab77e9d",
    ("plain", "csv"):
        "00186cf8269c396811056ec64c4e1183a36dd6ffc3a2fafb57d9f63de69e8afb",
    ("plain", "json"):
        "07fb213ad22ed417d5be977596dba4c4ad6dedaa0aa4dba5fe7907f1e2417b73",
    ("one_row", "csv"):
        "1e30e2067e32c0c8030aad501c1757f0c0144a2753dfbed2f3c56fe1561f7ea7",
    ("one_row", "json"):
        "89a50ae0ba70215e1264c926fe84d4903931124014789943c3edd606226ffe88",
    ("truncated", "csv"):
        "ea91241e0fb5b76853df75ab9e29be39486d1a716642fb71d96843f2857f16c2",
    ("truncated", "json"):
        "0502fd4592c0914ef7d030ea05cc2e670205e60d5e4e9dd02d7ab1d00f4184f6",
}


@pytest.mark.parametrize("case,fmt", sorted(_TRAJECTORY_SHA256))
def test_trajectory_output_bytes_are_pinned(case, fmt, tmp_path, capsys, monkeypatch):
    flags, cap = _TRAJECTORY_CASES[case]
    if cap is not None:
        monkeypatch.setattr(sisq.sim, "MAX_LOGGED_EVENTS", cap)
    argv = ("simulate", *flags, "--format", fmt)
    target = tmp_path / f"traj.{fmt}"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    code, out, err = run_cli(capsys, *argv, "--output", "-")
    assert code == 0 and err == ""
    data = target.read_bytes()
    assert out.encode() == data
    assert hashlib.sha256(data).hexdigest() == _TRAJECTORY_SHA256[case, fmt]
    if fmt == "json":
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["log_truncated"] is (cap is not None)
        flags = doc["restart_flag"]
    else:
        flags = [int(row[2]) for row in parse_csv(out)[1]]
    assert len(flags) == {"one_row": 1, "truncated": 6}.get(case, len(flags))
    assert (1 in flags) is (case in ("restarted", "truncated"))


def test_each_trajectory_kernel_is_reached_through_its_module_binding(tmp_path, monkeypatch):
    # The traced benchmark wraps sisq.sim's public functions and rebinds
    # every module attribute that holds one (bench/tracing.install).  A
    # command that reached a kernel by another binding, a default argument
    # say, would drop that kernel's span and events from the traced
    # trajectory run, which sums both kernels' events and so cannot tell.
    calls = dict.fromkeys(("simulate", "simulate_restarted"), 0)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "sisq"]
    for name in calls:
        kernel = getattr(sisq.sim, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is kernel:
                    monkeypatch.setattr(mod, attr, counted)
    for mode, want in (("plain", {"simulate": 1, "simulate_restarted": 0}),
                       ("restarted", {"simulate": 1, "simulate_restarted": 1})):
        assert main(["simulate", "--mode", mode, "--n", "10", "--r0", "2", "--t-max", "5",
                     "--seed", "1", "--output", str(tmp_path / f"{mode}.csv")]) == 0
        assert calls == want, mode


# Rows of the cases: restarted 371, plain 34, one_row 1, truncated 6, so
# that every chunk size but 1 leaves a short last chunk on some case.
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 17])
@pytest.mark.parametrize("case,fmt", sorted(_TRAJECTORY_SHA256))
def test_trajectory_output_bytes_hold_across_chunk_sizes(case, fmt, chunk, tmp_path,
                                                         capsys, monkeypatch):
    monkeypatch.setattr(sisq.cli, "_CHUNK", chunk)
    flags, cap = _TRAJECTORY_CASES[case]
    if cap is not None:
        monkeypatch.setattr(sisq.sim, "MAX_LOGGED_EVENTS", cap)
    argv = ("simulate", *flags, "--format", fmt)
    target = tmp_path / f"traj.{fmt}"
    assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
    code, out, err = run_cli(capsys, *argv, "--output", "-")
    assert (code, err) == (0, "")
    assert_same_rows(out, target.read_text())
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _TRAJECTORY_SHA256[case, fmt]
    assert os.listdir(tmp_path) == [target.name]


# Times that take both paths of the time formatter: 0.1, 0.75, 1.3 and
# 2**52 + 1 are computed; +0.0 and 3e-05 (below 1e-4), 0.5 and 2**52
# (powers of two), and 2**53 and up go to repr.  With chunks of 1, 2, 3
# and 5 rows, repr rows fall at the start and at the end of chunks.  The
# export is written to a file and to stdout, the two ends of _write.
_MIXED_TIMES = (0.0, 3e-05, 0.1, 0.5, 0.75, 1.3, 2.0 ** 52, 2.0 ** 52 + 1,
                2.0 ** 53, 2.0 ** 53 + 2, 2.0 ** 60, 1.5 * 2.0 ** 60)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@pytest.mark.parametrize("to_stdout", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mixed_computed_and_repr_times_export_as_reference(fmt, to_stdout, chunk, tmp_path,
                                                           capsys, monkeypatch):
    monkeypatch.setattr(sisq.cli, "_CHUNK", chunk)
    tr = sisq.sim.Trajectory(
        n=10, times=_MIXED_TIMES, states=[1, 2, 1, 0, 1, 2, 3, 2, 1, 0, 1, 2],
        t_end=2.0 ** 61, state_time=[0.0] * 11, n_events=11, n_restarts=2,
        final_state=2, log_truncated=False)
    assert tr.restart_flags.tolist() == [False] * 4 + [True] + [False] * 5 + [True, False]
    target = tmp_path / f"traj.{fmt}"
    args = sisq.cli._build_parser().parse_args(
        ("simulate", "--mode", "restarted", "--n", "10", "--r0", "2", "--t-max", "1e20",
         "--seed", "1", "--format", fmt, "--output", "-" if to_stdout else str(target)))
    sisq.cli._trajectory_output(args, tr)
    text = capsys.readouterr().out if to_stdout else target.read_text()
    assert_same_rows(text, trajectory_output_reference(args, tr))


@pytest.mark.parametrize("n, dtype", [(127, np.int8), (128, np.int16)])
def test_state_column_at_the_dtype_boundary_exports_as_reference(n, dtype, tmp_path, capsys):
    # At R0 = 1000 the chain soon climbs to n and stays near it, the top of
    # the state type: int8 holds n = 127, not 128.
    argv = ("simulate", "--mode", "restarted", "--n", str(n), "--r0", "1000",
            "--t-max", "2", "--seed", "3")
    args = sisq.cli._build_parser().parse_args(argv)
    tr = sisq.sim.simulate_restarted(sisq.cli._params_from_args(args), args.t_max,
                                     sisq.sim.SeedSpec(args.seed))
    assert tr.states.dtype == dtype and tr.states.max() == n
    assert np.all(np.abs(np.diff(tr.states)) == 1)
    for fmt in ("csv", "json"):
        target = tmp_path / f"traj.{fmt}"
        assert run_cli(capsys, *argv, "--format", fmt, "--output", str(target)) == (0, "", "")
        args = sisq.cli._build_parser().parse_args((*argv, "--format", fmt))
        assert_same_rows(target.read_text(), trajectory_output_reference(args, tr))


# About 255k rows, so that the export runs over several chunks.
_LONG_RUN = ("simulate", "--mode", "restarted", "--n", "100", "--r0", "2",
             "--t-max", "2600", "--seed", "5")


@pytest.fixture(scope="module")
def long_run():
    args = sisq.cli._build_parser().parse_args(_LONG_RUN)
    p = sisq.cli._params_from_args(args)
    return sisq.sim.simulate_restarted(p, args.t_max, sisq.sim.SeedSpec(args.seed))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_long_trajectory_output_matches_reference(fmt, long_run, tmp_path, capsys):
    assert long_run.times.size > 2 * sisq.cli._CHUNK
    argv = (*_LONG_RUN, "--format", fmt, "--output", str(tmp_path / "traj"))
    assert run_cli(capsys, *argv) == (0, "", "")
    args = sisq.cli._build_parser().parse_args(argv)
    assert_same_rows((tmp_path / "traj").read_text(), trajectory_output_reference(args, long_run))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_output_memory_does_not_grow_with_the_log(fmt, long_run, tmp_path):
    # Peak allocation of the export of the first 70k and 140k rows, both
    # past the first chunk: the second 70k may add at most 16 B a row.
    # Building the whole file as one string cost 151 B (CSV) and 163 B
    # (JSON) a row.
    args = sisq.cli._build_parser().parse_args(
        (*_LONG_RUN, "--format", fmt, "--output", str(tmp_path / "traj")))
    sizes = (70_000, 140_000)
    peaks = []
    for rows in sizes:
        tr = dataclasses.replace(long_run, times=long_run.times[:rows],
                                 states=long_run.states[:rows])
        tracemalloc.start()
        try:
            sisq.cli._trajectory_output(args, tr)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (sizes[1] - sizes[0]) <= 16, peaks


def test_restarted_command_memory_per_row(tmp_path):
    # Marginal tracemalloc peak of the whole command, run plus export,
    # between two horizons (about 488k and 976k rows).  The export is
    # formatted in this process one chunk at a time, so what it adds to
    # the peak does not grow with the log
    # (test_trajectory_output_memory_does_not_grow_with_the_log).  These
    # logs are long enough that the run, not the export's one chunk of
    # text, sets the peak: joining the log at the end of the run cost
    # 17.3 B a row here, recording it in place 10.9 B, and 9.9 B with the
    # flags derived from the states instead of stored.
    rows, peaks = [], []
    for t_max in ("5000", "10000"):
        target = tmp_path / f"traj{t_max}.csv"
        tracemalloc.start()
        try:
            code = main(["simulate", "--mode", "restarted", "--n", "100", "--r0", "2",
                         "--t-max", t_max, "--seed", "1", "--output", str(target)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
        with target.open() as f:
            rows.append(sum(1 for _ in f) - 1)
    assert rows[1] - rows[0] > 400_000
    assert (peaks[1] - peaks[0]) / (rows[1] - rows[0]) <= 10.5, (rows, peaks)


def test_ensemble_csv_requires_output_path(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "20", "--r0", "5",
                           "--mode", "ensemble", "--t-max", "2",
                           "--replicates", "50", "--seed", "1")
    assert code == 1
    assert "--output" in err


def test_ensemble_csv_refuses_stdout_before_sampling(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the destination was checked")

    monkeypatch.setattr(sisq.cli, "conditioned_ensemble", refuse)
    code, out, err = run_cli(capsys, "simulate", "--mode", "ensemble", "--n", "1000",
                             "--r0", "5", "--replicates", "2000", "--t-max", "10",
                             "--seed", "42")
    assert code == 1 and out == ""
    assert err == ("error: ensemble CSV needs --output so the normal-curve JSON "
                   "sidecar has a destination\n")


def test_unbounded_restarted_run_is_refused(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated a run beyond the event budget")

    monkeypatch.setattr(sisq.sim, "_run", refuse)
    code, out, err = run_cli(capsys, "simulate", "--mode", "restarted", "--n", "10",
                             "--r0", "2", "--gamma", "2", "--t-max", "1e10",
                             "--seed", "1")
    assert code == 1 and out == ""
    assert err == ("error: a restarted run to t_max=10000000000.0 needs at least 2e+10 "
                   "expected events (gamma * t_max), beyond the budget of 1e+10 events; "
                   "use a shorter horizon\n")


# 15,912 events by t = 10, none of them an absorption.
_PLAIN_RUN = ("simulate", "--mode", "plain", "--n", "1000", "--r0", "5", "--y0", "800",
              "--t-max", "10", "--seed", "1")
_PLAIN_RUN_EVENTS = 15_912


def test_plain_run_past_the_event_budget_is_refused(capsys, monkeypatch, tmp_path):
    # The budget is checked once per block of 1024 draws, so the run stops
    # after the third block.
    monkeypatch.setattr(sisq.sim, "_MAX_EXPECTED_EVENTS", 3000)
    target = tmp_path / "traj.csv"
    code, out, err = run_cli(capsys, *_PLAIN_RUN, "--output", str(target))
    assert code == 1 and out == ""
    assert err == ("error: the run passed 3072 events by t=1.9353169779741606, beyond "
                   "the budget of 3e+03 events; use a shorter horizon\n")
    assert not target.exists()


def test_plain_run_at_the_event_budget_is_accepted(capsys, monkeypatch):
    code, want, _ = run_cli(capsys, *_PLAIN_RUN)
    assert code == 0
    monkeypatch.setattr(sisq.sim, "_MAX_EXPECTED_EVENTS", _PLAIN_RUN_EVENTS)
    assert run_cli(capsys, *_PLAIN_RUN) == (0, want, "")
    monkeypatch.setattr(sisq.sim, "_MAX_EXPECTED_EVENTS", _PLAIN_RUN_EVENTS - 1)
    code, out, err = run_cli(capsys, *_PLAIN_RUN)
    assert code == 1 and out == ""
    assert err.startswith(f"error: the run passed {_PLAIN_RUN_EVENTS} events by t=10.0,")


def _ensemble_budget_error(budget) -> str:
    return (f"error: the replicates take more than the budget of {budget} events to reach "
            "their snapshot or absorption; use fewer replicates or an earlier snapshot\n")


def test_ensemble_run_past_the_event_budget_is_refused(capsys, monkeypatch, tmp_path):
    # One replicate that at n = 1000, R0 = 5 fires about 1,600 events per
    # unit time and is all but sure to survive to t = 1e9: without a
    # budget it runs for days.
    monkeypatch.setattr(sisq.sim, "_MAX_EXPECTED_EVENTS", 10_000)
    with _deadline(60):
        code, out, err = run_cli(capsys, "simulate", "--mode", "ensemble", "--n", "1000",
                                 "--r0", "5", "--t-max", "1e9", "--replicates", "1",
                                 "--seed", "1", "--output", str(tmp_path / "F.csv"))
    assert (code, out, err) == (1, "", _ensemble_budget_error(10_000))
    assert os.listdir(tmp_path) == []


_ENSEMBLE_RUN = ("simulate", "--mode", "ensemble", "--n", "100", "--r0", "2",
                 "--t-max", "5", "--replicates", "40", "--seed", "3")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_ensemble_run_at_the_event_budget_is_accepted(workers, capsys, monkeypatch, tmp_path):
    # The run's events, counted by the recorder: replicate r is a plain
    # trajectory from state 1 on stream r, to the snapshot or absorption.
    p = ModelParams(100, 2.0)
    events = [sisq.sim._run(p, 1, 5.0, sisq.sim.SeedSpec(3).generator(r), False).n_events
              for r in range(40)]
    total = sum(events)
    # Each of the two workers' chunks (replicates 0-19 and 20-39) stays
    # below total - 1, so at 2 workers only their sum is refused there.
    assert max(sum(events[:20]), sum(events[20:])) < total - 1
    argv = (*_ENSEMBLE_RUN, "--workers", workers, "--output", str(tmp_path / "h.csv"))

    def run(budget):
        monkeypatch.setattr(sisq.sim, "_MAX_EXPECTED_EVENTS", budget)
        for f in tmp_path.iterdir():
            f.unlink()
        code, out, err = run_cli(capsys, *argv)
        assert out == ""
        return code, err, {f.name: f.read_bytes() for f in tmp_path.iterdir()}

    code, err, want = run(sisq.sim._MAX_EXPECTED_EVENTS)
    assert (code, err, sorted(want)) == (0, "", ["h.csv", "h.normal.json"])
    assert run(total) == (0, "", want)
    # At a budget of 1 every chunk passes it on its own.
    for budget in (total - 1, 1):
        assert run(budget) == (1, _ensemble_budget_error(budget), {})


@contextlib.contextmanager
def _deadline(seconds):
    """Fail the test, rather than hang, if the block runs past `seconds`."""
    def expire(signum, frame):
        pytest.fail(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trajectory_export_to_a_pipe_fd(fmt, capsys):
    # /dev/fd/N of a pipe, as a shell passes >(gzip > x.gz), gets the
    # bytes of stdout.  The export (under 16 KB) fits in the pipe's
    # buffer, so no reader need run while the command writes.
    argv = ("simulate", *_TRAJECTORY_CASES["restarted"][0], "--format", fmt)
    r, w = os.pipe()
    with open(r, "rb") as reader:
        try:
            with _deadline(30):
                code = main([*argv, "--output", f"/dev/fd/{w}"])
        finally:
            os.close(w)
        data = reader.read()
    assert code == 0
    assert run_cli(capsys, *argv, "--output", "-") == (0, data.decode(), "")
    assert hashlib.sha256(data).hexdigest() == _TRAJECTORY_SHA256["restarted", fmt]


def test_missing_output_directory_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the output directory was checked")

    monkeypatch.setattr(sisq.sim, "_run", refuse)
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "simulate", "--mode", "restarted", "--n", "100",
                             "--r0", "2", "--t-max", "5e3", "--seed", "1",
                             "--output", str(target))
    assert code == 1 and out == ""
    assert err == f"error: --output {target}: directory {target.parent} does not exist\n"
    code, _, err = run_cli(capsys, "simulate", "--mode", "restarted", "--n", "100",
                           "--r0", "2", "--t-max", "5e3", "--seed", "1",
                           "--output", str(tmp_path))
    assert code == 1 and err == f"error: --output {tmp_path} is a directory\n"
    assert os.listdir(tmp_path) == []


def test_ensemble_sidecar_directory_is_refused_before_any_run(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated before the sidecar was checked")

    monkeypatch.setattr(sisq.sim, "_fan_out", refuse)
    sidecar = tmp_path / "h.normal.json"
    sidecar.mkdir()
    code, out, err = run_cli(capsys, "simulate", "--mode", "ensemble", "--n", "1000",
                             "--r0", "5", "--t-max", "10", "--seed", "1",
                             "--replicates", "200", "--output", str(tmp_path / "h.csv"))
    assert code == 1 and out == ""
    assert err == f"error: --output sidecar {sidecar} is a directory\n"
    assert os.listdir(tmp_path) == ["h.normal.json"]


def test_failed_write_is_an_error_not_a_traceback(tmp_path, capsys, monkeypatch):
    def disk_full(path, pieces):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(sisq.cli, "_write", disk_full)
    code, out, err = run_cli(capsys, "stationary", "--n", "10", "--r0", "2",
                             "--output", str(tmp_path / "pi.csv"))
    assert code == 1 and out == ""
    assert err == "error: [Errno 28] No space left on device\n"


def test_ensemble_histogram_and_sidecar(tmp_path, capsys):
    target = tmp_path / "hist.csv"
    code, _, _ = run_cli(capsys, "simulate", "--n", "100", "--r0", "5",
                         "--mode", "ensemble", "--t-max", "4",
                         "--replicates", "300", "--seed", "13",
                         "--output", str(target))
    assert code == 0
    header, rows = parse_csv(target.read_text())
    assert header == ["state", "count", "survivors"]
    survivors = {int(r[2]) for r in rows}
    assert len(survivors) == 1
    total = sum(int(r[1]) for r in rows)
    assert total == survivors.pop()
    sidecar = json.loads((tmp_path / "hist.normal.json").read_text())
    assert sidecar["schema_version"] == 1
    assert sidecar["mu_n"] == pytest.approx(80.0, rel=1e-12)
    assert sidecar["sigma2_n"] == pytest.approx(20.0, rel=1e-12)
    assert sidecar["replicates"] == 300
    assert 0 < sidecar["survival_fraction"] <= 1


def test_ensemble_subcritical_sidecar_has_no_normal_law(tmp_path, capsys):
    target = tmp_path / "sub.csv"
    code, _, _ = run_cli(capsys, "simulate", "--n", "30", "--lambda", "0.5",
                         "--mode", "ensemble", "--t-max", "1",
                         "--replicates", "200", "--seed", "3",
                         "--output", str(target))
    assert code == 0
    sidecar = json.loads((tmp_path / "sub.normal.json").read_text())
    assert sidecar["mu_n"] is None
    assert sidecar["sigma2_n"] is None


def test_ensemble_zero_survivors_fails_loudly(tmp_path, capsys):
    target = tmp_path / "none.csv"
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--lambda", "0.2",
                           "--mode", "ensemble", "--t-max", "80",
                           "--replicates", "30", "--seed", "5",
                           "--output", str(target))
    assert code == 1
    assert "survived" in err
    assert not target.exists()


def test_ensemble_json_single_document(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--n", "50", "--r0", "3",
                           "--mode", "ensemble", "--t-max", "2",
                           "--replicates", "200", "--seed", "8",
                           "--format", "json")
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert sum(doc["count"]) == doc["survivors"]
    assert doc["mu_n"] == pytest.approx(50 * (1 - 1 / 3), rel=1e-12)


# One case per shape of table output: a single row and many, missing cells
# (an overflowed value, a single replicate's se, an absent normal law),
# records with scalars repeated on every row, and the ensemble's sidecar.
_TABLE_CASES = {
    "stationary_n1": ("stationary", "--n", "1", "--r0", "2"),
    "stationary_n100": ("stationary", "--n", "100", "--r0", "2"),
    "qsd_n1": ("qsd", "--n", "1", "--r0", "2"),
    "qsd_n100": ("qsd", "--n", "100", "--r0", "2"),
    "extinction_analytic": ("extinction-time", "--n", "100", "--r0", "2",
                            "--method", "exact,qsd,clt"),
    "extinction_overflow": ("extinction-time", "--n", "2000", "--r0", "5",
                            "--method", "exact,clt"),
    "extinction_one_replicate": ("extinction-time", "--n", "20", "--lambda", "2",
                                 "--method", "simulate", "--seed", "7",
                                 "--replicates", "1"),
    "compare": ("compare", "--n-grid", "50,100,200,400", "--r0", "2"),
    "ensemble_supercritical": ("simulate", "--mode", "ensemble", "--n", "100", "--r0", "5",
                               "--t-max", "4", "--replicates", "300", "--seed", "13"),
    "ensemble_subcritical": ("simulate", "--mode", "ensemble", "--n", "30", "--lambda",
                             "0.5", "--t-max", "1", "--replicates", "200", "--seed", "3"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_TABLE_CASES))
def test_table_outputs_match_reference(case, fmt, tmp_path, capsys):
    argv = [*_TABLE_CASES[case], "--format", fmt, "--output", str(tmp_path / f"out.{fmt}")]
    assert run_cli(capsys, *argv) == (0, "", "")
    written = {str(f): f.read_text() for f in tmp_path.iterdir()}
    assert written == table_output_reference(sisq.cli._build_parser().parse_args(argv))
    # The cases hold the missing cells they are there for.
    missing = {"extinction_overflow": ("value", 1), "extinction_one_replicate": ("se", 0),
               "ensemble_subcritical": ("mu_n", None)}
    if case in missing:
        name, row = missing[case]
        text = written[argv[-1]]
        if fmt == "json":
            doc = json.loads(text)
            assert (doc if row is None else doc["results"][row])[name] is None
        elif row is not None:
            header, rows = parse_csv(text)
            assert rows[row][header.index(name)] == ""
        else:
            sidecar = json.loads(written[str(tmp_path / "out.normal.json")])
            assert sidecar[name] is None


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("sisq ")]
    assert lines
    parser = sisq.cli._build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_library_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    mean, var = map(float, capsys.readouterr().out.split())
    assert 1.0 <= mean <= 100.0 and var > 0.0


def test_each_public_name_is_listed_once():
    mods = (sisq.chain, sisq.stationary, sisq.spectral, sisq.clt, sisq.sim, sisq.cli)
    names = [name for mod in mods for name in mod.__all__]
    assert len(names) == len(set(names))
    assert all(hasattr(mod, name) for mod in mods for name in mod.__all__)
    assert not hasattr(sisq, "__all__")


def _system_identifiers() -> set:
    """Identifiers the system itself uses: the package, the benchmark, the
    release criteria and the README's code.

    From the Python sources it takes Name and Attribute nodes and
    ImportFrom aliases, so a name's own def/class, its __all__ string and
    docstrings do not count.  From the README it takes every identifier
    inside a code span or block.
    """
    root = Path(__file__).resolve().parents[1]
    paths = [*sorted((root / "src" / "sisq").glob("*.py")),
             *sorted((root / "bench").glob("*.py")),
             root / "tests" / "test_acceptance.py"]
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    readme = (root / "README.md").read_text()
    for code in re.findall(r"```.*?```|`[^`\n]+`", readme, flags=re.DOTALL):
        used.update(re.findall(r"[A-Za-z_]\w*", code))
    return used


def test_every_public_name_has_a_system_user():
    # an export that only its own unit tests call belongs under tests/
    used = _system_identifiers()
    mods = (sisq.chain, sisq.stationary, sisq.spectral, sisq.clt, sisq.sim, sisq.cli)
    unused = [f"{mod.__name__}.{name}" for mod in mods for name in mod.__all__
              if name not in used]
    assert not unused


def test_cli_import_leaves_lapack_unloaded():
    # Only the dense route needs scipy.linalg, and no command takes it.
    src = str(Path(sisq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sisq.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_simulate_leaves_scipy_special_unloaded():
    # The simulate modes call no scipy function, so they never import one.
    src = str(Path(sisq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import contextlib, io, sys, sisq.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = sisq.cli.main(['simulate', '--mode', 'restarted', '--n', '20',\n"
        "                          '--r0', '2', '--t-max', '10', '--seed', '1'])\n"
        "print(code, 'scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 False\n", "")


def test_serial_commands_leave_pool_code_unloaded():
    # Only a fan-out over more than one process needs the pool machinery.
    src = str(Path(sisq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import contextlib, io, sys, sisq.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [sisq.cli.main(['qsd', '--n', '50', '--r0', '2']),\n"
        "             sisq.cli.main(['extinction-time', '--n', '50', '--r0', '2',\n"
        "                            '--method', 'exact,qsd,clt'])]\n"
        "print(codes, sorted({'multiprocessing', 'concurrent.futures.process'}\n"
        "                    & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0] []\n", "")


def test_cli_entrypoint_subprocess():
    # the child imports the same sisq checkout as this process
    src = str(Path(sisq.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "sisq.cli", "qsd", "--n", "2", "--lambda", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    header, rows = parse_csv(proc.stdout)
    assert header[:2] == ["state", "q_tilde"]
    assert len(rows) == 2
