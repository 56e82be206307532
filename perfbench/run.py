"""Benchmark of the stochpod pipeline: one workload, one seed, one result.

Run from the repository root, with no install step:

    python3 perfbench/run.py --workload ex1-cubic [--seed N] [--seconds S] [--trace 0|1]

Each timed iteration is a fresh Python process (``child.py``) that imports
stochpod from ``src/``, loads the workload's config with an iteration seed
and runs the four pipeline stages.  Iterations repeat until ``--seconds``
of stage time is measured; at least one always runs, and metrics are
medians over them.  The first iteration uses the workload seed.  How much
work a run does depends on its seed (the beta search visits more or fewer
betas), so untraced iterations after the first use further seeds derived
from it, and the median is over several inputs rather than one; traced
iterations all use the workload seed, so that their counts and artifacts
can be compared.  A few extra processes stop after loading the config, so
that set-up time is a median of several.  Every iteration's outputs are
checked (``workloads.py``), and the artifacts are hashed: runs of one
workload and seed on the same source must give equal digests, within an
invocation and across invocations in the same checkout.

With ``--trace 0`` the result line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (``tracer.py``).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else,
with machine facts, per-iteration numbers and digests, goes to
``.bench_build/perfbench/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import STAGES
from workloads import (WORKLOADS, check_acceptance, check_structure,
                       draws_consumed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"

# BLAS threads of every child process.  One thread keeps each run on one
# core, so the figures do not depend on how busy the other cores are; it
# is never more than the cores this process may use.
BLAS_THREADS = 1
SETUP_PROBES = 3          # set-up-only processes per untraced invocation
SEED_STRIDE = 7919        # iteration i of an untraced run uses seed + i * this
DEADLINE_S = 170.0        # the whole invocation ends within this
HEADROOM = 1.25           # another iteration starts only if this many of
                          # the last one still fit before the deadline

# The sample stage (0.4 to 2.5 s) has no end-to-end metric: over ten seeds
# on a shared 2-core machine its quartiles spread by 27-31% of its median,
# more than any bound the benchmark may set.  The traced pipeline.sample_s
# carries it.
END_TO_END_UNITS = {
    "total_s": "s", "train_s": "s", "setup_s": "s",
    "draws_per_s": "draws/s", "peak_rss_mb": "MB",
}

# per-layer metric -> (layer, field) of the tracer's layer table
LAYER_TIMES = {
    "sampling.stream_s": ("sampling.stream", "total_s"),
    "sampling.draws_s": ("sampling.draws", "total_s"),
    "sampling.draws_self_s": ("sampling.draws", "self_s"),
    "pipeline.kernel_s": ("pipeline.kernel", "total_s"),
    "rom.solve_s": ("rom.solve", "total_s"),
    "rom.reduce_s": ("rom.reduce", "total_s"),
    "pipeline.references_s": ("pipeline.references", "total_s"),
    "problems.snapshots_s": ("problems.snapshots", "total_s"),
    "subspace.pod_s": ("subspace.pod", "total_s"),
    "pipeline.ensembles_s": ("pipeline.ensembles", "total_s"),
    "pipeline.ensembles_self_s": ("pipeline.ensembles", "self_s"),
    "ensemble.summarize_s": ("ensemble.summarize", "total_s"),
    "training.integer_s": ("training.integer", "total_s"),
    "training.objective_s": ("training.objective", "total_s"),
    "matrixio.write_s": ("matrixio.write", "total_s"),
    "matrixio.read_s": ("matrixio.read", "total_s"),
    "pipeline.sample_s": ("pipeline.sample", "total_s"),
    "pipeline.train_unattributed_s": ("pipeline.train", "self_s"),
    "pipeline.sample_unattributed_s": ("pipeline.sample", "self_s"),
    "pipeline.predict_unattributed_s": ("pipeline.predict", "self_s"),
    "pipeline.report_unattributed_s": ("pipeline.report", "self_s"),
}
# per-layer counts: the tracer's counts of these names, except
# sampling.streams, the call count of the sampling.stream layer
LAYER_COUNTS = (
    "sampling.streams", "sampling.gaussians", "sampling.draws",
    "sampling.batch_draws_calls",
    "sampling.per_sample_draws", "pipeline.newton_batch_calls",
    "pipeline.newmark_kernel_calls", "pipeline.linear_kernel_calls",
    "pipeline.references_calls", "rom.projections", "rom.rom_newton_calls",
    "ensemble.run_srom_calls", "training.objective_calls",
    "training.cache_hits", "training.cache_misses", "training.refine_evals",
    "matrixio.bytes_written", "matrixio.bytes_read",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "matrixio.bytes_written": "B", "matrixio.bytes_read": "B",
    "sampling.stream_reuse": "ratio",
    "trace.total_s": "s", "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# facts and digests


def source_fingerprint(root: Path, config_doc: dict) -> str:
    """Digest of the package source and the workload's config."""
    digest = hashlib.sha256(json.dumps(config_doc, sort_keys=True).encode())
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()[:16]


def artifact_digest(out: Path) -> tuple[str, dict]:
    """Digest of every artifact except ``timings.json``, and per file."""
    files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(out.iterdir())
             if path.is_file() and path.name != "timings.json"}
    combined = hashlib.sha256(
        "".join(f"{name}\0{d}\n" for name, d in files.items()).encode())
    return combined.hexdigest()[:16], files


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _load_state(name: str) -> dict:
    path = STATE / name
    return json.loads(path.read_text()) if path.exists() else {}


def _save_state(name: str, doc: dict) -> None:
    path = STATE / name
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True))
    tmp.replace(path)


# ---------------------------------------------------------------------------
# one invocation


class Invocation:
    def __init__(self, workload, seed: int, trace: bool, seconds: float):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = STATE / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.out = self.work / "artifacts"
        self.config_doc = workload.config_doc(ROOT)
        self.config = self.work / "config.json"
        self.default_seed = self.config_doc["ensemble"]["seed"]
        self.fingerprint = source_fingerprint(ROOT, self.config_doc)
        threads = str(BLAS_THREADS)
        self.env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                        OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        self.children = 0
        self.setups: list[float] = []

    def child(self, seed: int, stages=(), traced=False, facts=False) -> dict:
        """Run one child process to completion and return its result."""
        self.children += 1
        tag = f"p{self.children:02d}"
        result_path = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
               "--config", str(self.config), "--seed", str(seed),
               "--out", str(self.out), "--result", str(result_path),
               "--stages", ",".join(stages)]
        if traced:
            cmd += ["--trace", "1", "--spans", str(self.work / f"{tag}-spans.json")]
        if facts:
            cmd.append("--facts")
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            return {"error": "no time left before the deadline"}
        with (self.work / f"{tag}.log").open("w") as log:
            cmd += ["--started-ns", str(time.monotonic_ns())]
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"error": f"killed at the {DEADLINE_S:.0f} s deadline"}
        if not result_path.exists():
            return {"error": f"exit code {proc.returncode} without a result "
                             f"(see {tag}.log)"}
        result = json.loads(result_path.read_text())
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"exit code {proc.returncode}"
        if "error" not in result:
            self.setups.append(result["setup_s"])
        return result

    def iteration(self, seed: int, traced: bool) -> dict:
        """One timed run of the pipeline at ``seed``, checked and hashed."""
        shutil.rmtree(self.out, ignore_errors=True)
        result = self.child(seed, STAGES, traced=traced)
        result["seed"] = seed
        if "error" in result:
            return result
        result["total_s"] = sum(result["stages"].values())
        try:
            result["draws"] = draws_consumed(self.config_doc, self.out)
            problems = check_structure(self.config_doc, self.out)
            if seed == self.default_seed:
                problems += check_acceptance(self.workload.acceptance, self.out,
                                             result["total_s"])
            result["digest"], result["files"] = artifact_digest(self.out)
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            result["error"] = "; ".join(problems)
        return result

    def run(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config.write_text(json.dumps(self.config_doc, indent=2))
        doc = {
            "workload": self.workload.name, "why": self.workload.why,
            "stresses": self.workload.stresses, "seed": self.seed,
            "config_seed": self.seed == self.default_seed,
            "trace": int(self.trace), "seconds": self.seconds,
            "facts": {
                "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
                "python": platform.python_version(),
                "blas_threads": BLAS_THREADS,
                "git_commit": git_commit(ROOT), "source": self.fingerprint,
            },
        }
        probes = [self.child(self.seed, facts=i == 0)
                  for i in range(1 if self.trace else SETUP_PROBES)]
        if "facts" in probes[0]:
            doc["facts"].update(probes[0]["facts"])
        iterations = []
        measured, last = 0.0, 0.0
        while all("error" not in r for r in iterations):
            if iterations and (measured >= self.seconds or
                               time.monotonic() + HEADROOM * last > self.deadline):
                break
            seed = self.seed if self.trace else self.seed + SEED_STRIDE * len(iterations)
            start = time.monotonic()
            iterations.append(self.iteration(seed, self.trace))
            last = time.monotonic() - start
            measured += iterations[-1].get("total_s", 0.0)
        self.check_digests(iterations)

        good = [r for r in iterations if "error" not in r]
        if good and self.trace:
            doc["metrics"], doc["overhead_basis"] = self.layer_metrics(good)
        elif good:
            doc["metrics"] = self.end_to_end(good)
            self.remember(good)
        else:
            doc["metrics"] = {}
        doc.update(probes=probes, iterations=iterations, setups_s=self.setups)
        if good:
            doc["digest"] = good[0]["digest"]
        runs = probes + iterations
        doc["attempted"] = len(runs)
        doc["failed"] = sum(1 for r in runs if "error" in r)
        (self.work / "result.json").write_text(json.dumps(doc, indent=1))
        return doc

    # -- determinism ---------------------------------------------------------

    def check_digests(self, iterations) -> None:
        """Equal digests within this invocation and with earlier ones."""
        known = _load_state("digests.json")
        for result in iterations:
            if "digest" not in result or "error" in result:
                continue
            key = f"{self.workload.name}|seed={result['seed']}|source={self.fingerprint}"
            expected = known.setdefault(key, result["digest"])
            if result["digest"] != expected:
                result["error"] = (f"artifact digest {result['digest']} differs from "
                                   f"{expected} of an earlier run of the same source")
        _save_state("digests.json", known)

    # -- metrics -------------------------------------------------------------

    def end_to_end(self, good) -> dict:
        median = statistics.median
        values = {
            "total_s": median(r["total_s"] for r in good),
            "train_s": median(r["stages"]["train"] for r in good),
            "setup_s": median(self.setups),
            "draws_per_s": median(r["draws"] / r["total_s"] for r in good),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in good),
        }
        return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                for name, value in values.items()}

    def remember(self, good) -> None:
        """Keep untraced totals so a traced run can report its overhead."""
        history = _load_state("history.json")
        key = f"{self.workload.name}|source={self.fingerprint}"
        history.setdefault(key, []).extend(
            [r["seed"], r["total_s"], r["draws"]] for r in good)
        _save_state("history.json", history)

    def untraced_reference(self, traced_total: float, traced_draws: int):
        """Untraced time comparable with the traced one, and how it was got.

        Untraced runs of the same seed on the same source, else untraced
        time per draw at other seeds scaled to this run's draws, else one
        untraced iteration run now.
        """
        key = f"{self.workload.name}|source={self.fingerprint}"
        runs = _load_state("history.json").get(key, [])
        same = [total for seed, total, _ in runs if seed == self.seed]
        if same:
            return statistics.median(same), f"median of {len(same)} untraced runs"
        if runs:
            per_draw = statistics.median(total / draws for _, total, draws in runs)
            return (per_draw * traced_draws,
                    f"median untraced time per draw of {len(runs)} runs at other seeds")
        if time.monotonic() + HEADROOM * traced_total > self.deadline:
            return None, "no untraced run and no time left for one"
        result = self.iteration(self.seed, traced=False)
        if "error" in result:
            return None, f"untraced iteration failed: {result['error']}"
        return result["total_s"], "one untraced iteration in this invocation"

    def layer_metrics(self, good) -> tuple[dict, str]:
        """Per-layer metrics, and what the tracing overhead was measured against.

        Times are medians over the iterations; counts must repeat exactly,
        and an iteration whose counts differ from the first one's fails.
        """
        per_iteration = [layer_values(r) for r in good]
        first = per_iteration[0]
        for result, values in zip(good[1:], per_iteration[1:]):
            differ = [name for name in LAYER_COUNTS if values[name] != first[name]]
            if differ:
                result["error"] = f"counts differ from the first iteration: {differ}"
        values = {name: statistics.median(v[name] for v in per_iteration)
                  for name in LAYER_TIMES}
        values.update({name: first[name] for name in LAYER_COUNTS})
        values["sampling.stream_reuse"] = first["sampling.stream_reuse"]
        traced_total = statistics.median(r["total_s"] for r in good)
        values["trace.total_s"] = traced_total
        untraced, basis = self.untraced_reference(traced_total, good[0]["draws"])
        values["trace.overhead_pct"] = (100.0 * (traced_total / untraced - 1.0)
                                        if untraced else 0.0)
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in values.items()}
        return metrics, basis


def layer_values(result: dict) -> dict:
    """Per-layer metrics of one traced process."""
    totals = result["trace"]["layers"]
    counts = result["trace"]["counts"]
    values = {name: totals.get(layer, {}).get(field, 0.0)
              for name, (layer, field) in LAYER_TIMES.items()}
    for name in LAYER_COUNTS:
        values[name] = counts.get(name, 0)
    streams = totals.get("sampling.stream", {}).get("calls", 0)
    values["sampling.streams"] = streams
    values["sampling.stream_reuse"] = (
        counts.get("sampling.distinct_streams", 0) / streams if streams else 0.0)
    return values


# ---------------------------------------------------------------------------
# command line


def _print_summary(doc: dict) -> None:
    facts = doc["facts"]
    print(f"workload {doc['workload']}  seed {doc['seed']}"
          f"{' (config seed)' if doc['config_seed'] else ''}"
          f"  trace {doc['trace']}")
    print(f"  why: {doc['why']}")
    print(f"  stresses: {doc['stresses']}")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    for n, r in enumerate(doc["iterations"], 1):
        state = f"FAILED: {r['error']}" if "error" in r else "ok"
        stages = " ".join(f"{s}={t:.3f}s" for s, t in r.get("stages", {}).items())
        print(f"  iteration {n}: seed={r['seed']} {stages} digest={r.get('digest')} {state}")
    for r in doc["probes"]:
        if "error" in r:
            print(f"  FAILED set-up probe: {r['error']}")
    for name, metric in doc["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6f} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the config's own seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="stage time to measure; at least one iteration runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    missing = [p for p in (ROOT / "src" / "stochpod" / "__init__.py",
                           ROOT / workload.config) if not p.is_file()]
    if missing:
        print(f"error: not a stochpod checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    seed = args.seed
    if seed is None:
        seed = json.loads((ROOT / workload.config).read_text())["ensemble"]["seed"]
    if seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    STATE.mkdir(parents=True, exist_ok=True)
    doc = Invocation(workload, seed, bool(args.trace), args.seconds).run()
    _print_summary(doc)
    if "overhead_basis" in doc:
        print(f"  tracing overhead measured against: {doc['overhead_basis']}")
    print(json.dumps({"correct": doc["failed"] == 0, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}),
          flush=True)
    return 0 if doc["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
