"""The `tracker` command line: presets, config runs, synthesis, evaluation."""

import argparse
import sys

from .errors import QuadtrackError
from .presets import PRESET_NAMES
from .runner import evaluate_cmd, run_config, run_preset, synthesize_cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracker",
        description="Benchmark LTI trackers of time-varying quadratic minima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preset", help="run a built-in benchmark preset")
    p.add_argument("name", help=f"one of {', '.join(PRESET_NAMES)}")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the CSV and metadata files")
    p.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")

    p = sub.add_parser("run", help="run an experiment described by a config file")
    p.add_argument("--config", required=True, metavar="FILE")

    p = sub.add_parser("synthesize", help="synthesize a worst-case controller")
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="path for the controller JSON")

    p = sub.add_parser("evaluate", help="evaluate a stored controller on a scenario")
    p.add_argument("--controller", required=True, metavar="FILE")
    p.add_argument("--config", required=True, metavar="FILE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            written = run_preset(args.name, args.out, args.seed)
        elif args.command == "run":
            written = run_config(args.config)
        elif args.command == "synthesize":
            written = [synthesize_cmd(args.config, args.out)]
        else:
            written = evaluate_cmd(args.controller, args.config)
    except (QuadtrackError, OSError, KeyError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
