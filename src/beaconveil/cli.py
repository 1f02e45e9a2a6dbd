"""Command-line front end.

Subcommands: validate, run, sweep, enumerate, fixtures. Exit codes: 0 on
success, 1 for user errors (missing file, invalid config, bad flags), 2 for
internal failures. Diagnostics go to stderr; results go to files or stdout.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

from .core import pattern_space_size
from .scenario import (ConfigError, load_scenario, write_fixtures,
                       write_report, write_sweep)
from .sim import SWEEP_AXES, run_scenario, sweep, validate_scenario


class _UsageError(Exception):
    pass


# enumerate prints at most this many digits. The exact size of a larger space
# can take gigabytes, and printing it takes time quadratic in its length.
_MAX_DIGITS = 100_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; bad flags are a user error
    # here, so route them through the normal exit-1 path instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="beaconveil",
                description="Covert beacon-pattern authentication simulator.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    v = sub.add_parser("validate", help="check a scenario file")
    v.add_argument("config")

    common = argparse.ArgumentParser(add_help=False)  # what run and sweep share
    common.add_argument("config")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--trials", type=int, default=None)
    common.add_argument("--threads", type=int, default=1)

    sub.add_parser("run", parents=[common], help="run a scenario and write report files")

    s = sub.add_parser("sweep", parents=[common], help="re-run a scenario across one axis")
    s.add_argument("--axis", required=True, choices=SWEEP_AXES)
    s.add_argument("--values", required=True,
                   help="comma-separated axis values, e.g. 0.5,1,2")

    e = sub.add_parser("enumerate", help="print the credential space size")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--L", type=int, required=True)
    e.add_argument("--channels", type=int, required=True)
    e.add_argument("--max-tu", type=int, required=True)

    f = sub.add_parser("fixtures", help="write the canonical scenario files")
    f.add_argument("--out", default=".")
    return p


def _resolve_seed(cfg_seed: int, flag_seed) -> int:
    # precedence: --seed flag, then BEACONVEIL_SEED, then the config file
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("BEACONVEIL_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"BEACONVEIL_SEED must be an integer, got {env!r}") from None
    return cfg_seed


def _print_problems(problems) -> bool:
    """Print each problem to stderr; True if any."""
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return bool(problems)


def _load_for_run(args):
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    # Unvalidated: run checks the config, sweep each row it builds from it.
    cfg = load_scenario(args.config)
    cfg = replace(cfg, seed=_resolve_seed(cfg.seed, args.seed))
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    return cfg


def _fmt_rate(x) -> str:
    return "n/a" if x is None else f"{x:.6f}"


def _dispatch(args) -> int:
    if args.command == "validate":
        if _print_problems(validate_scenario(load_scenario(args.config))):
            return 1
        print("ok")
        return 0

    if args.command == "run":
        cfg = _load_for_run(args)
        if _print_problems(validate_scenario(cfg)):
            return 1
        report = run_scenario(cfg, workers=args.threads)
        json_path, csv_path = write_report(report, cfg, Path(args.out))
        m = report.metrics
        print(f"trials={m.trials} far={_fmt_rate(m.far)} frr={_fmt_rate(m.frr)} "
              f"mean_session_s={m.mean_session_s:.3f}")
        print(json_path)
        print(csv_path)
        return 0

    if args.command == "sweep":
        cfg = _load_for_run(args)
        try:
            values = [float(tok) for tok in args.values.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}") from None
        if not values:
            raise ConfigError("--values is empty")
        print(write_sweep(args.axis, sweep(cfg, args.axis, values, workers=args.threads),
                          Path(args.out)))
        return 0

    if args.command == "enumerate":
        n, L, channels, max_tu = dims = (args.n, args.L, args.channels, args.max_tu)
        # Refused from log10 of the size, before any big-integer arithmetic.
        if min(dims) >= 1 and (L * (n * math.log10(2) + math.log10(channels * max_tu))
                               - 2 * math.log10(max_tu)) >= _MAX_DIGITS:
            raise ConfigError(f"the credential space has more than {_MAX_DIGITS} "
                              "decimal digits, too many to print")
        try:
            size = pattern_space_size(*dims)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # Decimal prints every digit; str() of an int over 4300 digits raises.
        print(Decimal(size))
        return 0

    if args.command == "fixtures":
        for path in write_fixtures(Path(args.out)):
            print(path)
        return 0

    raise _UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except FileNotFoundError as e:
        name = e.filename if e.filename is not None else e
        print(f"error: file not found: {name}", file=sys.stderr)
        return 1
    except (ConfigError, IsADirectoryError, PermissionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # anything else is a bug, not a usage problem
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
