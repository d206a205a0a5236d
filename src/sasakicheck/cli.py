"""Command line entry point.

    verify --config <path> [--format json|text] [--seed N]
           [--strict-paper] [--check <group> ...] [--out FILE]

Exit codes: 0 all checks passed (vacuous and refuted rows do not count
as failures), 2 at least one check failed, 1 configuration error,
degenerate surface, sample count too large to allocate or unwritable
``--out`` file, each with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .config import CHECK_GROUPS, check_seed, load_suite_config, resolve_config_path
from .errors import SasakicheckError
from .report import EXIT_CONFIG_ERROR, exit_code_for, render_json, render_text
from .runner import run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run a configured verification suite and report per-check residuals.",
    )
    parser.add_argument("--config", required=True,
                        help="suite config file (or a name looked up in $SASAKICHECK_CONFIG_DIR)")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--strict-paper", action="store_true",
                        help="check identities only in the printed convention")
    parser.add_argument("--check", action="append", choices=CHECK_GROUPS, default=None,
                        help="restrict to these check groups (repeatable)")
    parser.add_argument("--out", default=None, help="also write the report to this file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        path = resolve_config_path(args.config)
        config = load_suite_config(path)
        if args.seed is not None:
            config.seed = check_seed(args.seed)
        if args.strict_paper:
            config.strict_paper = True
        if args.check:
            config.checks = [g for g in CHECK_GROUPS if g in args.check]
        report = run_suite(config)
    except SasakicheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # numpy refuses an array too large for the sample count
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    rendered = render_json(report) if args.format == "json" else render_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write report to {args.out!r}: {exc.strerror or exc}",
                  file=sys.stderr)
            return EXIT_CONFIG_ERROR
    sys.stdout.write(rendered)
    return exit_code_for(report)


if __name__ == "__main__":
    sys.exit(main())
