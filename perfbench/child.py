"""One benchmark process: set up, run pipeline stages, write one result file.

Started by ``run.py`` as a fresh Python process, so that each run pays the
set-up a user of the ``stochpod`` command pays on every call.  It puts
``src/`` on the import path (no install step), imports stochpod, and loads
the workload's config with the workload seed and output directory.  The
time from ``--started-ns`` (the parent's monotonic clock just before it
started this process) to that point is the set-up time.  ``--stages``
then runs the named stage functions in order, the sequence that
``pipeline.run_pipeline`` runs, and times each.  With ``--trace 1`` every
layer boundary is wrapped first (``tracer.py``) and the layer table and
spans are written too.  Without stages the process only measures set-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_facts() -> dict:
    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--started-ns", type=int, required=True)
    parser.add_argument("--stages", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--facts", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    from stochpod import pipeline
    from stochpod.config import load_config

    config = load_config(root / args.config, seed_override=args.seed,
                         output_override=args.out)
    result = {"setup_s": (time.monotonic_ns() - args.started_ns) / 1e9,
              "stages": {}}
    if args.facts:
        result["facts"] = _blas_facts()

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)

    calls = {
        "train": lambda: pipeline.stage_train(config, args.out),
        "sample": lambda: pipeline.stage_sample(config, args.out),
        "predict": lambda: pipeline.stage_predict(config, args.out),
        "report": lambda: pipeline.stage_report(config, args.out),
    }
    status = 0
    try:
        for stage in filter(None, args.stages.split(",")):
            start = time.perf_counter()
            calls[stage]()
            result["stages"][stage] = time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
        status = 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.report()
        if args.spans:
            Path(args.spans).write_text(json.dumps(
                {"fields": ["id", "parent", "layer", "start_s", "end_s"],
                 "spans": tracer.spans}))
    Path(args.result).write_text(json.dumps(result, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
