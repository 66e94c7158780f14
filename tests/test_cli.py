"""Command line behaviour: parsing, exit codes, outputs."""

import argparse
import shlex
from pathlib import Path

import pytest

from qfmax.bench import EXPERIMENTS
from qfmax.cli import build_parser, main
from qfmax.holder import DEFAULT_MAX_CUBES
from qfmax.search import DEFAULT_MAX_QUANTUM_QUERIES


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# The flags each subcommand reads, and so accepts (besides -h/--help): an
# experiment's are the flags of its EXPERIMENTS reads, plus --out.
FLAGS = {
    "qsearch-scaling": ("--n", "--trials", "--seed", "--budget-factor", "--out"),
    "maxfind-success": (
        "--n", "--trials", "--seed", "--budget-factor", "--boost-rounds", "--out",
    ),
    "holder-error-vs-n": (
        "--function", "--d", "--r", "--rho", "--n",
        "--trials", "--seed", "--budget-factor", "--boost-rounds", "--out",
    ),
    "holder-queries-vs-eps": (
        "--function", "--d", "--r", "--rho", "--eps",
        "--trials", "--seed", "--budget-factor", "--boost-rounds", "--out",
    ),
    "baseline-queries-vs-eps": ("--function", "--d", "--r", "--rho", "--eps", "--seed", "--out"),
    "or-reduction": (
        "--d", "--r", "--rho", "--n", "--patterns",
        "--trials", "--seed", "--budget-factor", "--boost-rounds", "--out",
    ),
    "holder-max": (
        "--seed", "--boost-rounds", "--budget-factor",
        "--function", "--d", "--r", "--rho", "--n", "--eps",
    ),
    "list-functions": (),
}


def _subparsers():
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_each_subcommand_accepts_exactly_its_flags():
    got = {
        command: {flag for flag in parser._option_string_actions if flag not in ("-h", "--help")}
        for command, parser in _subparsers().items()
    }
    assert got == {command: set(flags) for command, flags in FLAGS.items()}
    # 48 flags over the six experiments
    assert sum(len(FLAGS[descriptor]) for descriptor in EXPERIMENTS) == 48


@pytest.mark.parametrize("descriptor", EXPERIMENTS)
def test_experiment_flags_are_its_reads_plus_out(descriptor):
    dests = {
        action.dest for action in _subparsers()[descriptor]._actions if action.dest != "help"
    }
    assert dests == set(EXPERIMENTS[descriptor].reads) | {"out"}


@pytest.mark.parametrize("descriptor", EXPERIMENTS)
def test_default_points_are_the_entrys_points(descriptor):
    args = build_parser().parse_args([descriptor])
    points = args.sizes if EXPERIMENTS[descriptor].x == "n" else args.eps_values
    assert points == EXPERIMENTS[descriptor].points


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["holder-max", "--n", "8"], "trials", "5"),
        (["holder-max", "--n", "8"], "out", "x.csv"),
        (["holder-max", "--n", "8"], "plot-out", "x.dat"),
        (["or-reduction", "--n", "8", "--trials", "1"], "function", "cosprod"),
        (["holder-max", "--eps", "0.1"], "h-conf", "1"),
        (["qsearch-scaling", "--n", "16", "--trials", "1"], "lambda", "1.2"),
        (["maxfind-success", "--n", "16", "--trials", "1"], "config", "x.cfg"),
        # flags of fields the runner does not read
        (["qsearch-scaling", "--n", "16", "--trials", "1"], "boost-rounds", "7"),
        (["baseline-queries-vs-eps", "--eps", "0.1"], "trials", "5"),
        (["baseline-queries-vs-eps", "--eps", "0.1"], "budget-factor", "30"),
        (["baseline-queries-vs-eps", "--eps", "0.1"], "n", "8"),
        (["holder-error-vs-n", "--n", "4", "--trials", "1"], "eps", "0.1"),
        (["holder-queries-vs-eps", "--eps", "0.1", "--trials", "1"], "n", "8"),
        (["maxfind-success", "--n", "16", "--trials", "1"], "plot-out", "x.dat"),
    ],
)
def test_flag_a_subcommand_does_not_read_is_refused(
    argv, flag, value, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + [f"--{flag}", value], capsys)
    assert (code, out) == (2, "")
    assert err == f"qfmax: error: unrecognized arguments: --{flag} {value}\n"
    assert not any(tmp_path.iterdir())


def _readme_commands():
    """The argv of each qfmax line in README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("qfmax ")]


@pytest.mark.parametrize("argv", _readme_commands())
def test_readme_command_line_parses(argv):
    build_parser().parse_args(argv)


def test_readme_shows_every_experiment():
    assert {argv[0] for argv in _readme_commands()} >= set(EXPERIMENTS)


def test_list_functions(capsys):
    code, out, _ = run_cli(["list-functions"], capsys)
    assert code == 0
    assert out.split() == ["bumpfamily", "cosprod", "peak"]


def test_holder_max_reports_result(capsys):
    args = ["holder-max", "--function", "cosprod", "--r", "1", "--n", "16", "--seed", "3"]
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
    code, _, err = run_cli(["qsearch-scaling", "--n", "16,abc"], capsys)
    assert code == 2
    assert err == "qfmax: error: argument --n: expected comma separated int values, got '16,abc'\n"


def test_unknown_subcommand_is_error(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 2
    assert err.startswith("qfmax: error: argument command: invalid choice: 'frobnicate'")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["holder-max", "--d", "1.5", "--n", "4"], "argument --d: invalid int value: '1.5'"),
        (["qsearch-scaling", "--n", "16,abc"], "argument --n: expected comma separated int"),
        ([], "the following arguments are required: command"),
        (["scaling", "--kind", "error-vs-n"], "argument command: invalid choice: 'scaling'"),
        (["qsearch-bench"], "argument command: invalid choice: 'qsearch-bench'"),
        (["maxfind-bench"], "argument command: invalid choice: 'maxfind-bench'"),
        (["lowerbound-demo"], "argument command: invalid choice: 'lowerbound-demo'"),
        (["holder-error-vs-n", "--kind", "error-vs-n"], "unrecognized arguments: --kind"),
        (["or-reduction", "--patterns"], "argument --patterns: expected one argument"),
    ],
)
def test_parse_error_is_one_line(argv, text, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"qfmax: error: {text}")
    assert err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    code, out, err = run_cli(["holder-queries-vs-eps", "--help"], capsys)
    assert (code, err) == (0, "")
    assert "--eps" in out and "--kind" not in out


def test_qsearch_bench_writes_csv(tmp_path, capsys):
    out_csv = tmp_path / "q.csv"
    args = [
        "qsearch-scaling", "--n", "16,64,256", "--trials", "15",
        "--seed", "4", "--out", str(out_csv),
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "[summary]" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("experiment,function,d,r")
    assert len(lines) == 5


def test_queries_vs_eps_slope_is_near_half(tmp_path, capsys):
    args = [
        "holder-queries-vs-eps", "--function", "peak",
        "--eps", "0.2,0.1,0.05", "--trials", "2", "--seed", "5",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "slope=-0.5" in out or "slope=-0.4" in out


def test_maxfind_success_writes_only_its_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["maxfind-success", "--n", "16,64", "--trials", "25", "--seed", "6", "--out", "m.csv"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "success_rate" in out
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 3


def test_lowerbound_demo(capsys):
    args = [
        "or-reduction", "--n", "8", "--trials", "6", "--seed", "7",
        "--patterns", "one",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "bits-one" in out


def test_abbreviated_flag_is_refused(capsys):
    code, _, err = run_cli(["maxfind-success", "--trial", "1"], capsys)
    assert code == 2
    assert err == "qfmax: error: unrecognized arguments: --trial 1\n"


def test_scaling_without_kind_is_one_line_error(capsys):
    # scaling is no subcommand: each experiment runs under its own name
    code, out, err = run_cli(["scaling", "--trials", "2", "--n", "4,8"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("qfmax: error: argument command: invalid choice: 'scaling' (choose from")
    assert err.count("\n") == 1
    assert all(name in err for name in EXPERIMENTS)


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
        (["maxfind-success", "--n", "0", "--trials", "2"], "sizes"),
        (["qsearch-scaling", "--n", "0"], "sizes"),
        (["holder-max", "--d", "0", "--n", "4"], "d must"),
        (["holder-max", "--d", "-1", "--n", "3"], "d must"),
        (["holder-max", "--eps", "nan"], "epsilon"),
        (["holder-max", "--eps", "inf"], "epsilon"),
        (["holder-max", "--n", "0"], "n_override must be positive"),
        (["holder-max", "--n", "4", "--boost-rounds", "0"], "boost_rounds must be at least 1"),
        (["holder-max", "--n", "4", "--budget-factor", "0"], "budget_factor must be positive"),
        (["holder-error-vs-n", "--n", "4,8", "--trials", "0"],
         "trials must be a positive integer"),
        (["holder-max", "--n", "4", "--seed", "-1"], "seed"),
        (["qsearch-scaling", "--n", "16", "--trials", "2", "--seed", "-1"], "seed"),
        (["or-reduction", "--n", "8", "--patterns", ","], "patterns"),
        (["or-reduction", "--n", "8", "--trials", "2", "--patterns", "one,bogus"],
         "patterns"),
        (["or-reduction", "--n", "8", "--trials", "2", "--patterns", "one,one"],
         "patterns"),
        (["holder-queries-vs-eps", "--rho", "0"], "rho must"),
        (["baseline-queries-vs-eps", "--rho", "0"], "rho must"),
        (["holder-queries-vs-eps", "--r", "-1"], "r must"),
        (["holder-max", "--eps", "0.1", "--rho", "1e-300"], "epsilon"),
        (["or-reduction", "--n", "8", "--trials", "2", "--rho", "0.001"], "epsilon"),
        (["qsearch-scaling", "--n", "16777217", "--trials", "1"], "sizes"),
        (["maxfind-success", "--n", "16777217", "--trials", "1"], "sizes"),
        (["holder-max", "--n", "1", "--d", "65", "--r", "0", "--function", "cosprod"],
         "grid needs d <= 64"),
        (["holder-max", "--function", "bumpfamily", "--n", "2", "--r", "44"],
         "bump profile derivative of order 44"),
        (["holder-max", "--function", "bumpfamily", "--d", "2", "--r", "44", "--n", "1"],
         "bump profile derivative of order 44"),
        (["or-reduction", "--n", "4", "--r", "44", "--trials", "1"],
         "bump profile derivative of order 44"),
        (["holder-max", "--function", "cosprod", "--d", "1", "--r", "171", "--eps", "0.1"],
         "Taylor models need r <= 170"),
        (["holder-max", "--function", "cosprod", "--r", "387", "--eps", "0.1"],
         "cosprod needs r <= 386"),
        (["holder-max", "--function", "cosprod", "--d", "10000", "--r", "300", "--eps", "0.1"],
         "epsilon 0.1 at r + rho = 301 needs a grid beyond the cap"),
        (["holder-max", "--function", "sine", "--n", "2"],
         "unknown function 'sine'; known: bumpfamily, cosprod, peak\n"),
        # the whole line, so numpy's own message (it names intp) cannot show
        (["or-reduction", "--d", "63", "--n", "2", "--trials", "1"],
         "grid of 2^63 cells has more cells than numpy can index\n"),
        (["or-reduction", "--d", "64", "--n", "2", "--trials", "1"],
         "grid of 2^64 cells has more cells than numpy can index\n"),
        # n_override would win over epsilon, so the two are refused together
        (["holder-max", "--function", "peak", "--n", "4", "--eps", "0.001"],
         "set one of epsilon and n_override, not both"),
        (["holder-queries-vs-eps", "--d", "2", "--eps", "0.02,0", "--trials", "100"],
         "epsilon must be positive and finite, got 0.0"),
        (["holder-queries-vs-eps", "--eps", "0.02,1e-300", "--trials", "100"],
         "epsilon 1e-300 at r + rho = 1 needs a grid beyond the cap"),
    ],
)
def test_bad_size_or_accuracy_is_one_line_parameter_error(argv, names, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"qfmax: error: {names}")
    assert err.count("\n") == 1


def test_error_vs_n_refuses_a_grid_past_the_cap_before_any_trial(monkeypatch, capsys):
    # holder-error-vs-n's sizes are subdivisions per axis: 5000^2 cubes are
    # past the cap, and the refusal comes before the n = 16 point's trials
    trials = []

    def trial(*args):
        trials.append(args)
        raise RuntimeError("a trial ran")

    monkeypatch.setattr("qfmax.bench.quantum_maximize", trial)
    argv = ["holder-error-vs-n", "--d", "2", "--n", "16,5000", "--trials", "200"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, trials) == (2, "", [])
    assert err == f"qfmax: error: grid of 5000^2 cubes exceeds the cap of {DEFAULT_MAX_CUBES}\n"


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
         "function: bumpfamily (d=1, r=0, rho=1e-300)"),
        (["or-reduction", "--rho", "1e-300"], 2, "qfmax: error: epsilon"),
    ],
)
def test_tiny_rho_is_not_taken_for_zero(argv, code, text, capsys):
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert (out if code == 0 else err).startswith(text)
    if code:
        assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("command", ["qsearch-scaling", "maxfind-success"])
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
    args = ["qsearch-scaling", "--n", "64,64,64", "--trials", "2", "--out", str(out_csv)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out.count("n=64") == 3
    assert "[summary]" not in out
    assert len(out_csv.read_text().splitlines()) == 4


def test_every_descriptor_has_exactly_one_cli_route(monkeypatch, capsys):
    # Run every subcommand the parser offers, recording the descriptor each
    # one asks the library to run: each experiment runs under its own name.
    seen = []
    monkeypatch.setattr(
        "qfmax.cli.run_experiment", lambda spec, **_: seen.append(spec.descriptor) or []
    )
    for command in _subparsers():
        if command in ("list-functions", "holder-max"):
            continue
        assert run_cli([command], capsys)[0] == 0
        assert seen[-1] == command
    assert seen == list(EXPERIMENTS)
