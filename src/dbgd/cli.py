"""Command-line interface.

Subcommands::

    dbgd run <config> [--output DIR] [--iterations K]
    dbgd rates <config> [--output FILE]
    dbgd casestudy <config> [--output DIR]
    dbgd validate <config>
    dbgd gradcheck <config> [--seed S] [--points N]

Exit codes: 0 success, 1 check failed, 2 configuration error,
3 divergence, 143 terminated by SIGTERM.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional, Sequence

from .errors import ConfigurationError, DbgdError, DivergenceError
from .harness import prepare_config, run_casestudy, run_experiment, run_rates
from .verify import finite_diff_sweep

GRADCHECK_TOLERANCE = 1e-5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbgd",
        description=(
            "Dynamic-barrier gradient descent experiments for simple "
            "bilevel problems"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment grid")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--output", help="override the output directory")
    p_run.add_argument(
        "--iterations",
        type=int,
        help="override the iteration budget (e.g. the full-scale budget)",
    )

    p_rates = sub.add_parser("rates", help="fit minimal-potential decay slopes")
    p_rates.add_argument("config", help="rates config file")
    p_rates.add_argument("--output", help="override the report file")

    p_case = sub.add_parser("casestudy", help="classify terminal points per initialization")
    p_case.add_argument("config", help="case-study config file")
    p_case.add_argument("--output", help="override the output directory")

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config", help="config file of any kind")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("config", help="config file of any kind; its problem is audited")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--points", type=int, default=100)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # SIGTERM ends a command as an exception does, which removes the trace
    # CSVs it streamed so far; the previous handler is back when it ends
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.command == "run":
            out = run_experiment(args.config, args.output, args.iterations)
            print(f"wrote {out}/summary.csv")
        elif args.command == "rates":
            path = run_rates(args.config, output_file=args.output)
            print(f"wrote {path}")
        elif args.command == "casestudy":
            out = run_casestudy(args.config, output_dir=args.output)
            print(f"wrote {out}/cases.csv")
        elif args.command == "validate":
            doc, _, _, _ = prepare_config(args.config)
            print(f"valid {doc['kind']} config")
        else:
            if args.points < 1:
                raise ConfigurationError(f"--points must be at least 1, got {args.points}")
            if args.seed < 0:
                raise ConfigurationError(f"--seed must be nonnegative, got {args.seed}")
            _, problem, _, _ = prepare_config(args.config)
            worst = finite_diff_sweep(problem, points=args.points, seed=args.seed)
            status = "ok" if worst <= GRADCHECK_TOLERANCE else "FAIL"
            print(
                f"{problem.name}: worst relative gradient error {worst:.3e} "
                f"over {args.points} points ({status})"
            )
            if worst > GRADCHECK_TOLERANCE:
                return 1
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except DbgdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
