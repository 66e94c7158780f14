"""Command line behaviour: parsing, config files, exit codes, outputs."""

import pytest

from qfmax.cli import main, read_config


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


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


def test_read_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\ntrials = 9\nn = 16,32  # inline comment\n\nlambda=1.25\n")
    values = read_config(cfg)
    assert values == {"trials": "9", "n": "16,32", "lambda": "1.25"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config(bad)


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 7\nn = 16\nseed = 42\n")
    args = ["qsearch-bench", "--config", str(cfg)]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert "n=16" in out


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\nn = 16\ntrials = 5\n")
    base = ["qsearch-bench", "--config", str(cfg)]
    _, out_cfg, _ = run_cli(base, capsys)
    _, out_cli, _ = run_cli(base + ["--n", "64"], capsys)
    assert "n=16" in out_cfg
    assert "n=64" in out_cli
    assert "n=16" not in out_cli


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    code, _, err = run_cli(["qsearch-bench", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus" in err


def test_missing_config_file_is_parameter_error(capsys):
    code, _, err = run_cli(["qsearch-bench", "--config", "/does/not/exist.cfg"], capsys)
    assert code == 2
    assert err


def test_config_loses_to_full_flag_and_refuses_abbreviation(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\nn = 16\n")
    out_csv = tmp_path / "m.csv"
    args = ["maxfind-bench", "--trials", "1", "--config", str(cfg), "--out", str(out_csv)]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    header, row = out_csv.read_text().splitlines()[:2]
    assert dict(zip(header.split(","), row.split(",")))["trials"] == "1"
    # an abbreviated flag would slip past the config precedence check
    code, _, err = run_cli(["maxfind-bench", "--trial", "1", "--config", str(cfg)], capsys)
    assert code == 2
    assert "--trial" in err


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_budget_factor_is_parameter_error(value, capsys):
    args = ["holder-max", "--function", "peak", "--n", "8", f"--budget-factor={value}"]
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("qfmax: error: budget_factor")


def test_node_cap_is_parameter_error(monkeypatch, capsys):
    def capped(*args, **kwargs):
        raise RuntimeError("certified refinement exceeded the node cap")

    monkeypatch.setattr("qfmax.cli.quantum_maximize", capped)
    code, _, err = run_cli(["holder-max", "--function", "peak", "--n", "8"], capsys)
    assert code == 2
    assert err == "qfmax: error: certified refinement exceeded the node cap\n"
