"""Command line front end for the benchmark experiments.

Defaults may be collected in a config file of ``key = value`` lines
(# comments allowed); flags given on the command line always win over
the file.  Keys use the flag names without the leading dashes, e.g.::

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

import numpy as np

from .bench import ExperimentSpec, run_experiment
from .functions import available_functions, make_function
from .maximizer import MaximizerParams, quantum_maximize
from .search import SearchParams

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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key = value defaults file")
    p.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    p.add_argument("--trials", type=int, default=200, help="trials per point (default 200)")
    p.add_argument("--out", default=None, help="CSV output path (default: stdout summary only)")
    p.add_argument("--plot-out", default=None, help="optional gnuplot-style .dat output path")
    p.add_argument("--boost-rounds", type=int, default=2)
    p.add_argument("--lambda", dest="lambda_", type=float, default=8.0 / 7.0)
    p.add_argument("--budget-factor", type=float, default=22.5)


def _add_holder(p: argparse.ArgumentParser) -> None:
    p.add_argument("--function", default="peak", help="test function family name")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--h-conf", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    # Abbreviated flags are refused: _apply_config tells given flags from
    # file defaults by their literal --name.
    parser = argparse.ArgumentParser(
        prog="qfmax",
        description="Benchmarks for quantum maximum finding over smoothness classes.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("qsearch-bench", help="query scaling of the amplified search")
    _add_common(p)
    p.add_argument("--n", type=_int_list, default=[2**k for k in range(4, 13)])

    p = add_parser("maxfind-bench", help="success rate of sequence maximum finding")
    _add_common(p)
    p.add_argument("--n", type=_int_list, default=[16, 64, 256, 1024])

    p = add_parser("holder-max", help="maximize one function instance and print the result")
    _add_common(p)
    _add_holder(p)
    p.add_argument("--n", type=int, default=None, help="subdivisions per axis")
    p.add_argument("--eps", type=float, default=None, help="target accuracy")

    p = add_parser("scaling", help="scaling-law experiments over n or epsilon")
    _add_common(p)
    _add_holder(p)
    p.add_argument("--kind", choices=sorted(_SCALING_KINDS), required=True)
    p.add_argument("--n", type=_int_list, default=[4, 8, 16, 32, 64])
    p.add_argument("--eps", type=_float_list, default=[0.2, 0.1, 0.05, 0.02, 0.01])

    p = add_parser("lowerbound-demo", help="OR-of-bits decision via the maximizer")
    _add_common(p)
    _add_holder(p)
    p.add_argument("--n", type=_int_list, default=[64], help="bit counts")
    p.add_argument(
        "--patterns", default="zeros,one,random", help="comma list: zeros, one, random, ones"
    )

    add_parser("list-functions", help="list available test function families")
    return parser


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser, argv) -> None:
    """Fill args from the config file for flags not given on the command line."""
    if getattr(args, "config", None) is None:
        return
    file_values = read_config(args.config)
    converters = {
        "seed": int,
        "trials": int,
        "out": str,
        "plot-out": str,
        "boost-rounds": int,
        "lambda": float,
        "budget-factor": float,
        "function": str,
        "d": int,
        "r": int,
        "rho": float,
        "h-conf": float,
        "kind": str,
        "patterns": str,
        "n": _int_list,
        "eps": _float_list,
    }
    given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for key, raw in file_values.items():
        if key not in converters:
            raise ValueError(f"unknown config key {key!r}")
        if f"--{key}" in given:
            continue
        dest = {"lambda": "lambda_", "plot-out": "plot_out"}.get(key, key.replace("-", "_"))
        if not hasattr(args, dest):
            continue
        value = converters[key](raw)
        if dest == "n" and args.command == "holder-max":
            value = int(raw)
        if dest == "eps" and args.command == "holder-max":
            value = float(raw)
        setattr(args, dest, value)


def _search_params(args: argparse.Namespace) -> SearchParams:
    return SearchParams(
        lambda_=args.lambda_,
        budget_factor=args.budget_factor,
        boost_rounds=args.boost_rounds,
    )


def _spec_from(args: argparse.Namespace, descriptor: str) -> ExperimentSpec:
    spec = ExperimentSpec(
        descriptor=descriptor,
        trials=args.trials,
        master_seed=args.seed,
        search=_search_params(args),
    )
    if hasattr(args, "function"):
        spec.function = args.function
        spec.d = args.d
        spec.r = args.r
        spec.rho = args.rho
        spec.h_conf = args.h_conf
    if descriptor in ("holder-queries-vs-eps", "baseline-queries-vs-eps"):
        spec.eps_values = tuple(args.eps)
    else:
        spec.sizes = tuple(args.n)
    if descriptor == "or-reduction":
        spec.patterns = tuple(tok for tok in args.patterns.split(",") if tok)
    return spec


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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(args.seed)))
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(args, parser, argv)
        if args.command == "list-functions":
            for name in available_functions():
                print(name)
            return 0
        if args.command == "holder-max":
            return _cmd_holder_max(args)
        if args.command == "qsearch-bench":
            return _run_spec(args, "qsearch-scaling")
        if args.command == "maxfind-bench":
            return _run_spec(args, "maxfind-success")
        if args.command == "scaling":
            return _run_spec(args, _SCALING_KINDS[args.kind])
        if args.command == "lowerbound-demo":
            return _run_spec(args, "or-reduction")
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"qfmax: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
