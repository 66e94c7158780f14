"""Command line front end for the benchmark experiments.

Each bench subcommand runs one bench.EXPERIMENTS descriptor, and flags
with a library default take it from ExperimentSpec or SearchParams.
Each subcommand takes only the flags it reads.

Defaults may be collected in a config file of ``key = value`` lines
(# comments allowed); flags given on the command line always win over
the file.  Keys use the flag names without the leading dashes, and each
value is parsed like the flag's value; keys that only other subcommands
take are ignored, e.g.::

    trials = 500
    budget-factor = 30
    n = 16,64,256

Every subcommand exits 0 on success and 2 on a parameter error, with a
one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

from .bench import EXPERIMENTS, ExperimentSpec, run_experiment, trial_rng
from .functions import available_functions, make_function
from .maximizer import MaximizerParams, quantum_maximize
from .search import SearchParams

_BENCH_COMMANDS = {
    "qsearch-bench": "qsearch-scaling",
    "maxfind-bench": "maxfind-success",
    "lowerbound-demo": "or-reduction",
}

_SCALING_KINDS = {
    "error-vs-n": "holder-error-vs-n",
    "queries-vs-eps": "holder-queries-vs-eps",
    "baseline-queries-vs-eps": "baseline-queries-vs-eps",
}


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated integers, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma separated floats, got {text!r}")


def read_config(path) -> dict[str, str]:
    """Parse a key = value config file into a flat string dict."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _add_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value defaults file")
    p.add_argument("--seed", type=int, help="master seed (default %(default)s)")
    p.add_argument("--boost-rounds", type=int)
    p.add_argument("--lambda", dest="lambda_", type=float)
    p.add_argument("--budget-factor", type=float)
    p.set_defaults(seed=ExperimentSpec.master_seed, **asdict(SearchParams()))


def _add_experiment(p: argparse.ArgumentParser) -> None:
    _add_search(p)
    p.add_argument("--trials", type=int, help="trials per point (default %(default)s)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout summary only)")
    p.add_argument("--plot-out", default=None, help="optional gnuplot-style .dat output path")
    p.set_defaults(trials=ExperimentSpec.trials)


def _add_class(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=ExperimentSpec.d)
    p.add_argument("--r", type=int, default=ExperimentSpec.r)
    p.add_argument("--rho", type=float, default=ExperimentSpec.rho)
    p.add_argument(
        "--h-conf",
        type=float,
        default=ExperimentSpec.h_conf,
        help="model-error constant H, default d^r/r!: it picks n from --eps (or from the "
        "bump height in lowerbound-demo) and sets the (H+1)(1/n)^(r+rho) bound that "
        "scores scaling trials; a maximizer run at a given --n does not read it",
    )


def build_parser() -> argparse.ArgumentParser:
    # Flags must be spelled in full, on the command line and as config keys.
    parser = argparse.ArgumentParser(
        prog="qfmax",
        description="Benchmarks for quantum maximum finding over smoothness classes.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("qsearch-bench", help="query scaling of the amplified search")
    _add_experiment(p)
    p.add_argument("--n", type=_int_list, default=[2**k for k in range(4, 13)])

    p = add_parser("maxfind-bench", help="success rate of sequence maximum finding")
    _add_experiment(p)
    p.add_argument("--n", type=_int_list, default=[16, 64, 256, 1024])

    p = add_parser("holder-max", help="maximize one function instance and print the result")
    _add_search(p)
    _add_class(p)
    p.add_argument("--function", default=ExperimentSpec.function, help="test function family name")
    p.add_argument("--n", type=int, default=None, help="subdivisions per axis")
    p.add_argument("--eps", type=float, default=None, help="target accuracy")

    p = add_parser("scaling", help="scaling-law experiments over n or epsilon")
    _add_experiment(p)
    _add_class(p)
    p.add_argument("--function", default=ExperimentSpec.function, help="test function family name")
    # Checked after the config merge, so a config file may supply it.
    p.add_argument("--kind", choices=sorted(_SCALING_KINDS), default=None)
    p.add_argument("--n", type=_int_list, default=[4, 8, 16, 32, 64])
    p.add_argument("--eps", type=_float_list, default=[0.2, 0.1, 0.05, 0.02, 0.01])

    p = add_parser("lowerbound-demo", help="OR-of-bits decision via the maximizer")
    _add_experiment(p)
    _add_class(p)
    p.add_argument("--n", type=_int_list, default=[64], help="bit counts")
    p.add_argument("--patterns", help="comma list: zeros, one, random, ones")
    p.set_defaults(patterns=",".join(ExperimentSpec.patterns))

    add_parser("list-functions", help="list available test function families")
    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv, with the --config file's values ahead of the command line's flags.

    Each file value becomes one --key=value token of the subcommand, so it
    is typed and checked like the flag, and a flag given on the command
    line, parsed later, wins.  Keys of other subcommands are ignored.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    own = sub.choices[args.command]._option_string_actions
    known = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    tokens = []
    for key, value in read_config(args.config).items():
        if f"--{key}" not in known or key == "config":
            raise ValueError(f"unknown config key {key!r}")
        if f"--{key}" in own:
            tokens.append(f"--{key}={value}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


def _search_params(args: argparse.Namespace) -> SearchParams:
    return SearchParams(**{name: getattr(args, name) for name in asdict(SearchParams())})


def _spec_from(args: argparse.Namespace, descriptor: str) -> ExperimentSpec:
    # the function class flags this subcommand takes
    names = ("function", "d", "r", "rho", "h_conf")
    fields = {name: getattr(args, name) for name in names if hasattr(args, name)}
    if EXPERIMENTS[descriptor].x == "epsilon":
        fields["eps_values"] = tuple(args.eps)
    else:
        fields["sizes"] = tuple(args.n)
    if descriptor == "or-reduction":
        fields["patterns"] = tuple(tok for tok in args.patterns.split(",") if tok)
    return ExperimentSpec(
        descriptor=descriptor,
        trials=args.trials,
        master_seed=args.seed,
        search=_search_params(args),
        **fields,
    )


def _print_rows(rows: list[dict]) -> None:
    for row in rows:
        if row.get("slope") is not None:
            print(
                f"[summary] {row['experiment']} ({row['function']}): "
                f"slope={row['slope']:+.4f} r2={row['r2']:.4f}"
            )
            continue
        parts = [f"{row['experiment']}"]
        for key in ("function", "n", "epsilon"):
            if row.get(key) not in (None, ""):
                parts.append(f"{key}={row[key]}")
        for key in (
            "success_rate",
            "mean_quantum_queries",
            "mean_classical_queries",
            "error_quantile_theta25",
        ):
            if row.get(key) not in (None, ""):
                parts.append(f"{key}={row[key]:.6g}")
        print("  ".join(parts))


def _run_spec(args: argparse.Namespace, descriptor: str) -> int:
    spec = _spec_from(args, descriptor)
    rows = run_experiment(spec, out_path=args.out, plot_path=args.plot_out)
    _print_rows(rows)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_holder_max(args: argparse.Namespace) -> int:
    if args.n is None and args.eps is None:
        raise ValueError("holder-max needs --n or --eps")
    rng = trial_rng(args.seed)
    f = make_function(args.function, args.d, args.r, args.rho, rng=rng)
    params = MaximizerParams(
        epsilon=args.eps,
        n_override=args.n,
        h_conf=args.h_conf,
        search=_search_params(args),
    )
    res = quantum_maximize(f, params, rng)
    witness = ", ".join(f"{x:.6f}" for x in res.witness)
    print(f"function: {f.name} (d={args.d}, r={args.r}, rho={args.rho})")
    print(f"max value: {res.value:.10f} at ({witness})")
    if f.known_max is not None:
        print(f"known max: {f.known_max:.10f}  error: {abs(res.value - f.known_max):.3e}")
    print(
        f"queries: quantum={res.ledger.quantum_queries} "
        f"classical={res.ledger.classical_queries} evaluations={res.ledger.evaluations}"
    )
    print(f"clean run: {res.success}")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse(parser, argv)
        if args.command == "list-functions":
            for name in available_functions():
                print(name)
            return 0
        if args.command == "holder-max":
            return _cmd_holder_max(args)
        if args.command == "scaling":
            if args.kind is None:
                raise ValueError("scaling needs --kind")
            return _run_spec(args, _SCALING_KINDS[args.kind])
        return _run_spec(args, _BENCH_COMMANDS[args.command])
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"qfmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
