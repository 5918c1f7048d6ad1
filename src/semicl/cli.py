"""Command-line entry point.

Commands: ``train``, ``eval``, ``ablate``, ``compare-regimes``, ``synth-gen``.
Exit codes: 0 success, 2 configuration/schema problems, 3 training
divergence, 4 I/O failures, 1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import load_config
from .data import PATTERNS
from .errors import ConfigError, ContractError, DataError, DivergenceError, SemiCLError
from .rng import SEED_LIMIT
from . import experiments

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _parse_seeds(s: str) -> list[int]:
    try:
        seeds = [int(p) for p in s.split(",") if p != ""]
    except ValueError as e:
        raise ConfigError(f"bad --seeds value {s!r}: {e}") from e
    if not seeds:
        raise ConfigError("--seeds must list at least one seed")
    if any(not 0 <= seed < SEED_LIMIT for seed in seeds):
        raise ConfigError(f"--seeds must lie in [0, 2**64), got {s!r}")
    return seeds


def _parse_ratios(s: str) -> list[float]:
    try:
        ratios = [float(p) for p in s.split(",") if p != ""]
    except ValueError as e:
        raise ConfigError(f"bad --ratios value {s!r}: {e}") from e
    if not ratios or any(not (0.0 < r <= 1.0) for r in ratios):
        raise ConfigError("--ratios must list values in (0, 1]")
    return ratios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semicl",
        description="Semi-supervised contrastive training engine for time-series classification.",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seeds", default="0", help="comma-separated seed list")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (repeatable)")
        p.add_argument("--pattern", default=None,
                       choices=PATTERNS,
                       help="split pattern override")
        p.add_argument("--label-ratio", type=float, default=None,
                       help="label ratio override")

    p_train = sub.add_parser("train", help="train and evaluate one configuration")
    common(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved checkpoint on the test split")
    common(p_eval)
    p_eval.add_argument("--model", required=True, help="checkpoint path")

    p_ablate = sub.add_parser("ablate", help="run the loss-component ablations")
    common(p_ablate)
    p_ablate.add_argument("--with-two-stage-ls", action="store_true",
                          help="also run the two-stage regime with L_s in fine-tuning")

    p_cmp = sub.add_parser("compare-regimes", help="paired end-to-end vs two-stage table")
    common(p_cmp)
    p_cmp.add_argument("--ratios", default="0.1,0.2,0.4,0.6,0.8,1.0",
                       help="comma-separated label ratios")

    p_gen = sub.add_parser("synth-gen", help="write the configured synthetic dataset as CSV")
    common(p_gen)
    return parser


def _apply_flag_overrides(args) -> list[str]:
    overrides = list(args.override)
    if args.pattern is not None:
        overrides.append(f"split.pattern={args.pattern}")
    if getattr(args, "label_ratio", None) is not None:
        overrides.append(f"data.label_ratio={args.label_ratio}")
    return overrides


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    exp = load_config(args.config, overrides=_apply_flag_overrides(args))
    seeds = _parse_seeds(args.seeds)

    if args.command == "train":
        experiments.cmd_train(exp, args.out, seeds)
    elif args.command == "eval":
        experiments.cmd_eval(exp, args.out, seeds[0], args.model)
    elif args.command == "ablate":
        experiments.cmd_ablate(exp, args.out, seeds,
                               include_two_stage_ls=args.with_two_stage_ls)
    elif args.command == "compare-regimes":
        experiments.cmd_compare_regimes(exp, args.out, seeds, _parse_ratios(args.ratios))
    elif args.command == "synth-gen":
        experiments.cmd_synth_gen(exp, args.out, seeds[0])
    return EXIT_OK


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as e:
        print(f"error[config]: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"error[divergence]: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FileNotFoundError, PermissionError, IsADirectoryError, OSError) as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_IO
    except (DataError, ContractError) as e:
        print(f"error[data]: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SemiCLError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
