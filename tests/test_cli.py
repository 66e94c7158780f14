"""Command line behaviour: parsing, exit codes, outputs."""

import argparse

import pytest

from qfmax.bench import EXPERIMENTS
from qfmax.cli import build_parser, main
from qfmax.search import DEFAULT_MAX_QUANTUM_QUERIES


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# The flags each subcommand reads, and so accepts (besides -h/--help).
FLAGS = {
    "qsearch-bench": (
        "--seed", "--boost-rounds", "--budget-factor", "--trials", "--out", "--plot-out", "--n",
    ),
    "maxfind-bench": (
        "--seed", "--boost-rounds", "--budget-factor", "--trials", "--out", "--plot-out", "--n",
    ),
    "holder-max": (
        "--seed", "--boost-rounds", "--budget-factor",
        "--function", "--d", "--r", "--rho", "--n", "--eps",
    ),
    "scaling": (
        "--seed", "--boost-rounds", "--budget-factor", "--trials", "--out", "--plot-out",
        "--function", "--d", "--r", "--rho", "--kind", "--n", "--eps",
    ),
    "lowerbound-demo": (
        "--seed", "--boost-rounds", "--budget-factor", "--trials", "--out", "--plot-out",
        "--d", "--r", "--rho", "--n", "--patterns",
    ),
    "list-functions": (),
}


def test_each_subcommand_accepts_exactly_its_flags():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        command: {flag for flag in parser._option_string_actions if flag not in ("-h", "--help")}
        for command, parser in sub.choices.items()
    }
    assert got == {command: set(flags) for command, flags in FLAGS.items()}


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["holder-max", "--n", "8"], "trials", "5"),
        (["holder-max", "--n", "8"], "out", "x.csv"),
        (["holder-max", "--n", "8"], "plot-out", "x.dat"),
        (["lowerbound-demo", "--n", "8", "--trials", "1"], "function", "cosprod"),
        (["holder-max", "--eps", "0.1"], "h-conf", "1"),
        (["qsearch-bench", "--n", "16", "--trials", "1"], "lambda", "1.2"),
        (["maxfind-bench", "--n", "16", "--trials", "1"], "config", "x.cfg"),
    ],
)
def test_flag_a_subcommand_does_not_read_is_refused(
    argv, flag, value, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + [f"--{flag}", value], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"qfmax: error: unrecognized arguments: --{flag} {value}\n")
    assert not any(tmp_path.iterdir())


def test_list_functions(capsys):
    code, out, _ = run_cli(["list-functions"], capsys)
    assert code == 0
    assert out.split() == ["bumpfamily", "cosprod", "peak", "sin1d"]


def test_holder_max_reports_result(capsys):
    args = ["holder-max", "--function", "sin1d", "--r", "1", "--n", "16", "--seed", "3"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "max value:" in out
    assert "known max:" in out
    assert "quantum=" in out


def test_holder_max_reproducible(capsys):
    args = ["holder-max", "--function", "peak", "--n", "12", "--seed", "9"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_holder_max_requires_a_target(capsys):
    code, _, err = run_cli(["holder-max", "--function", "peak"], capsys)
    assert code == 2
    assert "error" in err


def test_unknown_function_is_parameter_error(capsys):
    args = ["holder-max", "--function", "bogus", "--n", "8"]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert "bogus" in err


def test_bad_int_list_is_parameter_error(capsys):
    code, _, err = run_cli(["qsearch-bench", "--n", "16,abc"], capsys)
    assert code == 2
    assert err


def test_unknown_subcommand_is_error(capsys):
    code, _, _ = run_cli(["frobnicate"], capsys)
    assert code == 2


def test_qsearch_bench_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "q.csv"
    args = [
        "qsearch-bench", "--n", "16,64,256", "--trials", "15",
        "--seed", "4", "--out", str(out_csv),
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "[summary]" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("experiment,function,d,r")
    assert len(lines) == 5


def test_scaling_kind_choices(tmp_path, capsys):
    args = [
        "scaling", "--kind", "queries-vs-eps", "--function", "peak",
        "--eps", "0.2,0.1,0.05", "--trials", "2", "--seed", "5",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "slope=-0.5" in out or "slope=-0.4" in out

    code, _, _ = run_cli(["scaling", "--kind", "sideways"], capsys)
    assert code == 2


def test_maxfind_bench_and_plot_data(tmp_path, capsys):
    dat = tmp_path / "m.dat"
    args = [
        "maxfind-bench", "--n", "16,64", "--trials", "25", "--seed", "6",
        "--plot-out", str(dat),
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "success_rate" in out
    assert len(dat.read_text().splitlines()) == 3


def test_lowerbound_demo(capsys):
    args = [
        "lowerbound-demo", "--n", "8", "--trials", "6", "--seed", "7",
        "--patterns", "one",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "bits-one" in out


def test_abbreviated_flag_is_refused(capsys):
    code, _, err = run_cli(["maxfind-bench", "--trial", "1"], capsys)
    assert code == 2
    assert "--trial" in err


def test_scaling_without_kind_is_one_line_error(capsys):
    code, out, err = run_cli(["scaling", "--trials", "2", "--n", "4,8"], capsys)
    assert code == 2
    assert out == ""
    assert err == "qfmax: error: scaling needs --kind\n"


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_budget_factor_is_parameter_error(value, capsys):
    args = ["holder-max", "--function", "peak", "--n", "8", f"--budget-factor={value}"]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("qfmax: error: budget_factor")


@pytest.mark.parametrize("flag", ["--budget-factor=1e300", "--boost-rounds=1000000000000"])
def test_unbounded_quantum_budget_is_one_line_parameter_error(flag, capsys):
    code, out, err = run_cli(["holder-max", "--function", "peak", "--n", "8", flag], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("qfmax: error: quantum budget of ")
    assert err.endswith(f" exceeds the cap of {DEFAULT_MAX_QUANTUM_QUERIES}\n")
    assert err.count("\n") == 1


def test_node_cap_is_parameter_error(monkeypatch, capsys):
    def capped(*args, **kwargs):
        raise RuntimeError("certified refinement exceeded the node cap")

    monkeypatch.setattr("qfmax.cli.quantum_maximize", capped)
    code, _, err = run_cli(["holder-max", "--function", "peak", "--n", "8"], capsys)
    assert code == 2
    assert err == "qfmax: error: certified refinement exceeded the node cap\n"


@pytest.mark.parametrize(
    "argv, names",
    [
        (["maxfind-bench", "--n", "0", "--trials", "2"], "sizes"),
        (["qsearch-bench", "--n", "0"], "sizes"),
        (["holder-max", "--d", "0", "--n", "4"], "d must"),
        (["holder-max", "--d", "-1", "--n", "3"], "d must"),
        (["holder-max", "--eps", "nan"], "epsilon"),
        (["holder-max", "--eps", "inf"], "epsilon"),
        (["holder-max", "--n", "0"], "n_override must be positive"),
        (["holder-max", "--n", "4", "--boost-rounds", "0"], "boost_rounds must be at least 1"),
        (["holder-max", "--n", "4", "--budget-factor", "0"], "budget_factor must be positive"),
        (["scaling", "--kind", "error-vs-n", "--n", "4,8", "--trials", "0"],
         "trials must be a positive integer"),
        (["holder-max", "--n", "4", "--seed", "-1"], "seed"),
        (["qsearch-bench", "--n", "16", "--trials", "2", "--seed", "-1"], "seed"),
        (["lowerbound-demo", "--n", "8", "--patterns", ","], "patterns"),
        (["lowerbound-demo", "--n", "8", "--trials", "2", "--patterns", "one,bogus"],
         "patterns"),
        (["lowerbound-demo", "--n", "8", "--trials", "2", "--patterns", "one,one"],
         "patterns"),
        (["scaling", "--kind", "queries-vs-eps", "--rho", "0"], "rho must"),
        (["scaling", "--kind", "baseline-queries-vs-eps", "--rho", "0"], "rho must"),
        (["scaling", "--kind", "queries-vs-eps", "--r", "-1"], "r must"),
        (["holder-max", "--eps", "0.1", "--rho", "1e-300"], "epsilon"),
        (["lowerbound-demo", "--n", "8", "--trials", "2", "--rho", "0.001"], "epsilon"),
        (["qsearch-bench", "--n", "16777217", "--trials", "1"], "sizes"),
        (["maxfind-bench", "--n", "16777217", "--trials", "1"], "sizes"),
        (["holder-max", "--n", "1", "--d", "65", "--r", "0", "--function", "cosprod"],
         "grid needs d <= 64"),
        (["holder-max", "--function", "bumpfamily", "--n", "2", "--r", "44"],
         "bump profile derivative of order 44"),
        (["holder-max", "--function", "bumpfamily", "--d", "2", "--r", "44", "--n", "1"],
         "bump profile derivative of order 44"),
        (["lowerbound-demo", "--n", "4", "--r", "44", "--trials", "1"],
         "bump profile derivative of order 44"),
        (["holder-max", "--function", "cosprod", "--d", "1", "--r", "171", "--eps", "0.1"],
         "Taylor models need r <= 170"),
        (["holder-max", "--function", "cosprod", "--r", "387", "--eps", "0.1"],
         "cosprod needs r <= 386"),
        (["holder-max", "--function", "cosprod", "--d", "10000", "--r", "300", "--eps", "0.1"],
         "epsilon 0.1 at r + rho = 301 needs a grid beyond the cap"),
        (["holder-max", "--function", "sin1d", "--r", "387", "--n", "2"], "sin1d needs r <= 386"),
        # the whole line, so numpy's own message (it names intp) cannot show
        (["lowerbound-demo", "--d", "63", "--n", "2", "--trials", "1"],
         "grid of 2^63 cells has more cells than numpy can index\n"),
        (["lowerbound-demo", "--d", "64", "--n", "2", "--trials", "1"],
         "grid of 2^64 cells has more cells than numpy can index\n"),
    ],
)
def test_bad_size_or_accuracy_is_one_line_parameter_error(argv, names, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"qfmax: error: {names}")
    assert err.count("\n") == 1


def test_grid_cap_refusal_is_short(capsys):
    code, out, err = run_cli(["holder-max", "--eps", "1e-300", "--function", "peak"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("qfmax: error: epsilon 1e-300") and "beyond the cap" in err
    assert err.count("\n") == 1 and len(err) < 120


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["holder-max", "--function", "peak", "--d", "2", "--rho", "1e-300", "--n", "4"], 2,
         "qfmax: error: rho 1e-300 is too small"),
        (["holder-max", "--function", "bumpfamily", "--rho", "1e-300", "--n", "4"], 0,
         "function: bump[0] (d=1, r=0, rho=1e-300)"),
        (["lowerbound-demo", "--rho", "1e-300"], 2, "qfmax: error: epsilon"),
    ],
)
def test_tiny_rho_is_not_taken_for_zero(argv, code, text, capsys):
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert (out if code == 0 else err).startswith(text)
    if code:
        assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("command", ["qsearch-bench", "maxfind-bench"])
def test_size_one_point_still_gets_rows_and_a_summary(command, capsys):
    code, out, _ = run_cli([command, "--n", "1,16,64", "--trials", "3"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 3
    code, out, _ = run_cli([command, "--n", "1,16,64,256", "--trials", "3"], capsys)
    assert code == 0
    assert "n=1  " in out
    assert out.splitlines()[-1].startswith("[summary]")


def test_repeated_sizes_keep_their_rows(tmp_path, capsys):
    out_csv = tmp_path / "f.csv"
    args = ["qsearch-bench", "--n", "64,64,64", "--trials", "2", "--out", str(out_csv)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out.count("n=64") == 3
    assert "[summary]" not in out
    assert len(out_csv.read_text().splitlines()) == 4


def test_every_descriptor_has_exactly_one_cli_route(monkeypatch, capsys):
    # Run every bench subcommand and every scaling --kind the parser offers,
    # recording the descriptor each one asks the library to run.
    seen = []
    monkeypatch.setattr(
        "qfmax.cli.run_experiment", lambda spec, **_: seen.append(spec.descriptor) or []
    )
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        if command in ("list-functions", "holder-max"):
            continue
        kinds = [a.choices for a in parser._actions if a.dest == "kind"]
        for argv in [[command, "--kind", k] for k in kinds[0]] if kinds else [[command]]:
            assert run_cli(argv, capsys)[0] == 0
    assert sorted(seen) == sorted(EXPERIMENTS)
