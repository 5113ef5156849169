import csv
import json

import numpy as np
import pytest

from spcdm.cli import main
from spcdm.eso import beta1, beta2, beta3, dual_weights, local_factors, primal_weights
from spcdm.problem import synth_problem, save_svmlight
from spcdm.smoothing import prepare_problem
from spcdm.solver import RunReport


def _solve_args(tmp_path, *extra):
    return [
        "solve",
        "--synth", "40,12,4",
        "--app", "l1",
        "--mu", "0.2",
        "--tau", "3",
        "--max-epochs", "20",
        "--out", str(tmp_path / "rep"),
        *extra,
    ]


def test_solve_writes_report_and_trace(tmp_path, capsys):
    assert main(_solve_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "target_reached=False" in out  # no target was requested

    blob = json.loads((tmp_path / "rep.json").read_text())
    assert blob["schema"] == 1
    report = RunReport.from_dict(blob)
    assert report.epochs_run == 20
    assert report.config["app"] == "l1"
    assert report.config["tau"] == 3

    with open(tmp_path / "rep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "objective"]
    assert len(rows) == len(report.objective_trace) + 1
    got = [(int(e), float(v)) for e, v in rows[1:]]
    assert got == report.objective_trace  # repr round-trips exactly


def test_solve_reaches_target(tmp_path):
    probe = _solve_args(tmp_path)
    assert main(probe) == 0
    trace = RunReport.from_dict(
        json.loads((tmp_path / "rep.json").read_text())
    ).objective_trace
    midway = trace[len(trace) // 2][1]
    assert main(_solve_args(tmp_path, "--target", repr(midway))) == 0
    rep = RunReport.from_dict(json.loads((tmp_path / "rep.json").read_text()))
    assert rep.target_reached
    assert rep.epochs_run < 20


def test_solve_budget_exhausted_is_exit_2(tmp_path):
    assert main(_solve_args(tmp_path, "--target", "0.0")) == 2


def test_usage_errors_are_exit_1(tmp_path, capsys):
    bad = [
        ["solve", "--synth", "10,5,2", "--app", "l1", "--tau", "1"],  # no --mu
        ["solve", "--synth", "10,5", "--app", "l1", "--mu", "0.1", "--tau", "1"],
        ["solve", "--synth", "10,5,2", "--app", "l1", "--mu", "0.1", "--tau", "1",
         "--reg", "l2:0.1"],
        ["solve", "--synth", "10,5,2", "--app", "l1", "--mu", "0.1", "--tau", "1",
         "--reg", "box:1"],
        ["solve", "--synth", "10,5,2", "--app", "l1", "--mu", "0.1", "--tau", "99"],
        ["solve", "--synth", "10,5,2", "--app", "l1", "--mu", "0.1", "--tau", "1",
         "--beta-formula", "beta9"],
        ["solve", "--synth", "10,5,2", "--app", "l1", "--mu", "0.1",
         "--eps-prime", "0.1", "--tau", "1"],  # mutually exclusive
        ["solve", "--synth", "10,5,2", "--tau", "1", "--mu", "0.1"],  # no --app
        ["solve", "--synth", "10,5,2", "--app", "hinge", "--mu", "0.1", "--tau", "1"],
        ["fit", "--synth", "10,5,2"],  # unknown subcommand
        [],
        ["solve", "--dataset", str(tmp_path / "missing.txt"), "--app", "l1",
         "--mu", "0.1", "--tau", "1"],
        ["solve", "--synth", "20,10,3", "--n-cols", "50", "--app", "l1",
         "--mu", "0.1", "--tau", "1"],  # --synth fixes n
    ]
    for argv in bad:
        assert main(argv) == 1, argv
        assert "error" in capsys.readouterr().err.lower()
    # a bad name reaches the library, whose check names it
    assert main(["solve", "--synth", "10,5,2", "--app", "l1", "--mu", "0.1", "--tau", "1",
                 "--beta-formula", "beta9"]) == 1
    assert "error: unknown beta formula 'beta9'" in capsys.readouterr().err


def test_l1_rejects_dataset_with_empty_row(tmp_path, capsys):
    data = tmp_path / "gap.txt"
    data.write_text("+1\n-1 1:2.0 2:1.0\n")
    argv = ["solve", "--dataset", str(data), "--app", "l1", "--mu", "0.1", "--tau", "1"]
    assert main(argv) == 1
    assert "row 0" in capsys.readouterr().err
    # the same file is fine for the exponential losses
    ok = ["solve", "--dataset", str(data), "--app", "adaboost", "--tau", "1",
          "--max-epochs", "2"]
    assert main(ok) == 0


def test_adaboost_mu_is_fixed(tmp_path):
    base = ["solve", "--synth", "10,5,2", "--app", "adaboost", "--tau", "1",
            "--max-epochs", "2"]
    assert main(base) == 0
    assert main(base + ["--mu", "1.0"]) == 0
    assert main(base + ["--mu", "0.5"]) == 1
    assert main(base + ["--eps-prime", "0.1"]) == 1


@pytest.mark.parametrize("flag,value,field", [
    ("--mu", "nan", "mu"),
    ("--mu", "inf", "mu"),
    ("--beta-formula", "nan", "beta_prime override"),
    ("--beta-formula", "inf", "beta_prime override"),
    ("--reg", "l1:nan", "bad regularizer 'l1:nan': lam"),
    ("--reg", "ridge:inf", "bad regularizer 'ridge:inf': delta"),
    ("--eps-prime", "nan", "eps_prime"),
    ("--target", "nan", "target_value"),
])
def test_non_finite_inputs_fail_naming_the_field(tmp_path, capsys, flag, value, field):
    argv = _solve_args(tmp_path)
    if flag == "--eps-prime":  # it replaces --mu
        argv[argv.index("--mu")] = flag
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    assert main(argv) == 1
    assert f"error: {field} must " in capsys.readouterr().err


def test_n_cols_override_flows_through(tmp_path):
    pd = synth_problem(8, 4, 2, seed=3)
    data = tmp_path / "d.txt"
    save_svmlight(pd, data)
    argv = ["solve", "--dataset", str(data), "--n-cols", "9", "--app", "l1",
            "--mu", "0.2", "--tau", "2", "--max-epochs", "3",
            "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["config"]["n"] == 9


def test_eps_prime_met_at_start_short_circuits(tmp_path, capsys):
    argv = ["solve", "--synth", "20,6,3", "--app", "l1", "--eps-prime", "1e9",
            "--tau", "2", "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    assert "met at the starting point" in capsys.readouterr().out
    rep = json.loads((tmp_path / "r.json").read_text())
    assert rep["epochs_run"] == 0
    assert rep["target_reached"] is True
    # the report of a run with no epochs, in the shape of every other run;
    # a --target turns the short cut off
    more = ["--target", "-1", "--max-epochs", "1", "--out", str(tmp_path / "s")]
    assert main(argv[:-2] + more) == 2
    full = json.loads((tmp_path / "s.json").read_text())
    assert rep["config"] == {**full["config"], "max_epochs": 0, "target_value": None}
    assert rep["objective_trace"] == full["objective_trace"][:1]


def test_eps_prime_without_target_cannot_certify(tmp_path):
    argv = ["solve", "--synth", "20,6,3", "--app", "l1", "--eps-prime", "1e-6",
            "--tau", "2", "--max-epochs", "3"]
    assert main(argv) == 2


def test_gradcheck_passes_and_fails(capsys):
    assert main(["gradcheck", "--app", "l1"]) == 0
    assert main(["gradcheck", "--app", "linf", "--mu", "0.5"]) == 0
    assert main(["gradcheck", "--app", "adaboost"]) == 0
    # a kinked objective breaks central differences at this step size
    assert main(["gradcheck", "--app", "linf", "--mu", "1e-12"]) == 3
    assert main(["gradcheck", "--app", "adaboost", "--mu", "0.5"]) == 1
    assert main(["gradcheck", "--app", "l1", "--mu", "-1"]) == 1
    capsys.readouterr()
    assert main(["gradcheck", "--app", "l1", "--mu", "nan"]) == 1
    assert "error: mu must be positive and finite, got nan" in capsys.readouterr().err


def test_eso_table_stdout_and_file(tmp_path, capsys):
    assert main(["eso-table", "--n", "30", "--m", "12", "--omega", "7",
                 "--tau-range", "1:4"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    assert rows[0] == ["tau", "beta1", "beta2", "beta3"]
    assert len(rows) == 5
    for row in rows[1:]:
        tau = int(row[0])
        assert float(row[1]) == beta1(7, tau)
        assert float(row[2]) == beta2(7, tau, 30)
        assert float(row[3]) == beta3(7, tau, 30, 12)

    path = tmp_path / "table.csv"
    assert main(["eso-table", "--n", "30", "--m", "12", "--omega", "7",
                 "--tau-range", "2,5,9", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["2", "5", "9"]

    assert main(["eso-table", "--n", "10", "--m", "5", "--omega", "11",
                 "--tau-range", "1:2"]) == 1
    capsys.readouterr()
    assert main(["eso-table", "--n", "5", "--m", "5", "--omega", "9",
                 "--tau-range", "1:2"]) == 1
    assert "error: omega must be <= n" in capsys.readouterr().err
    assert main(["eso-table", "--n", "10", "--m", "5", "--omega", "3",
                 "--tau-range", "0:2"]) == 1
    assert main(["eso-table", "--n", "10", "--m", "5", "--omega", "3",
                 "--tau-range", "5:1:1:1"]) == 1


def test_bench_table_and_exit_codes(tmp_path):
    path = tmp_path / "bench.csv"
    argv = ["bench", "--synth", "40,12,4", "--app", "l1", "--mu", "0.2",
            "--tau-list", "1,3", "--target", "1e9", "--max-epochs", "5",
            "--out", str(path)]
    assert main(argv) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tau", "epochs", "updates", "wall_time", "final_value", "target_reached",
                       "beta_formula", "beta_prime", "local_beta_max"]
    assert [r[0] for r in rows[1:]] == ["1", "3"]
    for r in rows[1:]:
        float(r[3]); float(r[4])
        assert r[5] == "True"
    # l1 is p = 2: auto runs beta2, 1 + (omega - 1)(tau - 1)/(n - 1), and
    # computes no local factors
    assert [r[6:] for r in rows[1:]] == [["beta2", "1.0", ""], ["beta2", repr(1 + 3 * 2 / 11), ""]]

    argv_hard = ["bench", "--synth", "40,12,4", "--app", "l1", "--mu", "0.2",
                 "--tau-list", "1,3", "--target", "0.0", "--max-epochs", "2",
                 "--out", str(path)]
    assert main(argv_hard) == 2
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3  # table still written
    assert [r[5] for r in rows[1:]] == ["False", "False"]  # and the misses flagged


def test_bench_tau_range_syntax(tmp_path):
    path = tmp_path / "bench.csv"
    argv = ["bench", "--synth", "30,8,3", "--app", "l1", "--mu", "0.2",
            "--tau-list", "1:5:2", "--target", "1e9", "--max-epochs", "2",
            "--out", str(path)]
    assert main(argv) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["1", "3", "5"]


def test_bench_rows_name_the_eso_each_tau_ran(tmp_path):
    # adaboost's auto keeps beta3 at tau = 1, where every local factor is 1,
    # and runs the column-local ESO at tau = 4
    path = tmp_path / "bench.csv"
    argv = ["bench", "--synth", "400,200,3", "--app", "adaboost", "--tau-list", "1,4",
            "--target", "1e9", "--max-epochs", "1", "--out", str(path)]
    assert main(argv) == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["beta_formula"] for r in rows] == ["beta3", "local"]
    assert rows[0]["beta_prime"] == "1.0" and rows[1]["beta_prime"] == "1.0"
    # the factor beta_prime hides under local: the largest beta_i that ran
    working = prepare_problem(synth_problem(400, 200, 3, seed=0), "adaboost")
    active = primal_weights(working, dual_weights(working, "adaboost")).active
    assert rows[0]["local_beta_max"] == "1.0"
    assert float(rows[1]["local_beta_max"]) == float(local_factors(working, 4, active.sum())[active].max())
    assert 1.0 < float(rows[1]["local_beta_max"]) < 4.0


def test_solve_rerun_is_deterministic(tmp_path):
    argv = _solve_args(tmp_path, "--app", "linf")
    argv[argv.index("--mu") + 1] = "0.3"
    assert main(argv) == 0
    trace1 = (tmp_path / "rep.csv").read_text()
    assert main(argv) == 0
    assert (tmp_path / "rep.csv").read_text() == trace1
