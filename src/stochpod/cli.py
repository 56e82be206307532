"""Command-line driver.

Subcommands mirror the pipeline stages: ``run`` executes everything,
``train``/``sample``/``predict``/``report`` reproduce the corresponding
slice given the upstream artifacts on disk.

Exit codes: 0 success, 2 config/usage error, 3 a missing or unreadable
artifact, one made from a different config or one whose content does not
fit the run, 4 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, pipeline
from .config import ConfigError, load_config
from .errors import ConvergenceError, GapError
from .matrixio import write_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERICAL = 4

THREADS_HELP = "accepted for compatibility; has no effect"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochpod",
        description="Stochastic reduced-order modeling with trained "
                    "prediction intervals.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the output directory")
        p.add_argument("--verbose", action="store_true")

    run = sub.add_parser("run", help="execute the full workflow")
    add_common(run)
    run.add_argument("--threads", type=int, default=1, help=THREADS_HELP)

    train = sub.add_parser("train", help="snapshots, POD, and beta training")
    add_common(train)

    sample = sub.add_parser("sample", help="draw the prediction ensemble")
    add_common(sample)
    sample.add_argument("--threads", type=int, default=1, help=THREADS_HELP)

    predict = sub.add_parser("predict", help="summarize ensembles into intervals")
    add_common(predict)

    report = sub.add_parser("report", help="coverage and sharpness report")
    add_common(report)
    return parser


def _log(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_config(args.config, seed_override=args.seed,
                             output_override=args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            report = pipeline.run_pipeline(config, threads=args.threads)
            _log(args, f"beta*={report.beta_star} coverage={report.coverage:.4f}")
            print(json.dumps({"beta_star": report.beta_star,
                              "coverage": report.coverage,
                              "mean_pi_width": report.mean_pi_width,
                              "output_dir": str(pipeline._outdir(config, None))}))
        elif args.command == "train":
            doc = pipeline.stage_train(config)
            _log(args, f"trained beta_integer={doc['beta_integer']} "
                       f"beta_star={doc['beta_star']}")
            print(json.dumps({"beta_integer": doc["beta_integer"],
                              "beta_star": doc["beta_star"]}))
        elif args.command == "sample":
            shapes = pipeline.stage_sample(config, threads=args.threads)
            _log(args, f"ensembles: {shapes}")
            print(json.dumps({name: list(shape) for name, shape in shapes.items()}))
        elif args.command == "predict":
            produced = pipeline.stage_predict(config)
            print(json.dumps(produced))
        elif args.command == "report":
            report = pipeline.stage_report(config)
            print(json.dumps({"coverage": report["coverage"],
                              "mean_pi_width": report["mean_pi_width"]}))
    except pipeline.MissingArtifactError as exc:
        print(f"error: {exc} (run the upstream stage first)", file=sys.stderr)
        return EXIT_MISSING
    except (ConvergenceError, GapError, np.linalg.LinAlgError, MemoryError) as exc:
        _record_failure(config, exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _record_failure(config, exc) -> None:
    """Keep partial artifacts and leave a machine-readable failure note."""
    out = pipeline._outdir(config, None)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / pipeline.artifact_file("report"), {
            "schema_version": 1,
            "config_hash": config.config_hash(),
            "error": f"{type(exc).__name__}: {exc}",
        })
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
