"""Command line front end for the benchmark experiments.

Each bench.EXPERIMENTS descriptor is a subcommand of the same name whose
flags are the fields its entry reads, plus --out, each spelled in full;
flags with a library default take it from ExperimentSpec or
SearchParams.  Flags are the only way to set a run.

Every subcommand exits 0 on success and 2 on a parse or parameter error,
with a one-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .bench import EXPERIMENTS, ExperimentSpec, run_experiment, trial_rng
from .functions import available_functions, make_function
from .maximizer import MaximizerParams, quantum_maximize
from .search import SearchParams

_SEARCH_FIELDS = tuple(f.name for f in fields(SearchParams))


def _comma_list(kind):
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma separated {kind.__name__} values, got {text!r}"
            )

    return parse


# The flag, type and help of each field an experiment can read; the
# default is the field's own, in ExperimentSpec or SearchParams.
_FLAGS = {
    "function": ("--function", str, "test function family name"),
    "d": ("--d", int, "dimension"),
    "r": ("--r", int, "smoothness order"),
    "rho": ("--rho", float, "Holder exponent in (0, 1]"),
    "sizes": ("--n", _comma_list(int), "comma separated sizes"),
    "eps_values": ("--eps", _comma_list(float), "comma separated target accuracies"),
    "patterns": ("--patterns", _comma_list(str), "comma list: zeros, one, random, ones"),
    "trials": ("--trials", int, "trials per point"),
    "master_seed": ("--seed", int, "master seed"),
    "budget_factor": ("--budget-factor", float, "quantum budget per round over sqrt(n)"),
    "boost_rounds": ("--boost-rounds", int, "search rounds, best value kept"),
}


class _Parser(argparse.ArgumentParser):
    """Flags spelled in full only, and a parse error raised for main to report on one line."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        flag, kind, text = _FLAGS[name]
        default = getattr(SearchParams if name in _SEARCH_FIELDS else ExperimentSpec, name)
        text += " (default %(default)s)"
        p.add_argument(flag, dest=name, type=kind, default=default, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfmax", description="Benchmarks for quantum maximum finding over smoothness classes."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for descriptor, experiment in EXPERIMENTS.items():
        p = sub.add_parser(descriptor, help=experiment.help)
        _add_flags(p, experiment.reads)
        p.add_argument("--out", help="CSV output path (default: stdout summary only)")
        p.set_defaults(**{"sizes" if experiment.x == "n" else "eps_values": experiment.points})

    p = sub.add_parser("holder-max", help="maximize one function instance and print the result")
    _add_flags(p, ("function", "d", "r", "rho", "master_seed", *_SEARCH_FIELDS))
    p.add_argument("--n", type=int, help="subdivisions per axis")
    p.add_argument("--eps", type=float, help="target accuracy")

    sub.add_parser("list-functions", help="list available test function families")
    return parser


def _search_params(args: argparse.Namespace) -> SearchParams:
    # the search flags this subcommand takes; a field it does not read keeps its default
    return SearchParams(**{name: v for name, v in vars(args).items() if name in _SEARCH_FIELDS})


def _print_rows(rows: list[dict]) -> None:
    for row in rows:
        if row.get("slope") is not None:
            print(
                f"[summary] {row['experiment']} ({row['function']}): "
                f"slope={row['slope']:+.4f} r2={row['r2']:.4f}"
            )
            continue
        # a point row holds only the columns its experiment reports
        stats = ("success_rate", "mean_quantum_queries", "mean_classical_queries")
        parts = [row["experiment"]]
        parts += [f"{k}={row[k]}" for k in ("function", "n", "epsilon") if k in row]
        parts += [f"{k}={row[k]:.6g}" for k in (*stats, "error_quantile_theta25") if k in row]
        print("  ".join(parts))


def _run_spec(args: argparse.Namespace) -> int:
    reads = EXPERIMENTS[args.command].reads
    spec_fields = {name: getattr(args, name) for name in reads if name not in _SEARCH_FIELDS}
    spec = ExperimentSpec(descriptor=args.command, search=_search_params(args), **spec_fields)
    _print_rows(run_experiment(spec, out_path=args.out))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_holder_max(args: argparse.Namespace) -> int:
    if args.n is None and args.eps is None:
        raise ValueError("holder-max needs --n or --eps")
    rng = trial_rng(args.master_seed)
    f = make_function(args.function, args.d, args.r, args.rho, rng=rng)
    params = MaximizerParams(epsilon=args.eps, n_override=args.n, search=_search_params(args))
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
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list-functions":
            for name in available_functions():
                print(name)
            return 0
        if args.command == "holder-max":
            return _cmd_holder_max(args)
        return _run_spec(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"qfmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
