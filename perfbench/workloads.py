"""The benchmark's workloads and the checks their outputs must pass.

Every workload is a closed loop with one client: one pipeline run at a
time, each in a fresh Python process, with the BLAS thread count fixed.
The workload seed replaces the config's own seed; without one, the
config's seed is used.  At that default seed a run must also pass the
acceptance-suite ranges for its config (``tests/test_acceptance.py``);
at any other seed its outputs are checked for structure only.

Each workload owns one of the three batched Monte-Carlo kernels.  The
per-sample path (``ensemble.run_srom``) runs in the sample stage of
``ex1-cubic`` and ``ex2-two-step``.  A workload that only resampled a
trained ex1 model with 20,000 draws through that path was tried and left
out: that path is almost all interpreter work, and on a shared 2-core
virtual machine its time varied by 40% between runs, beyond any bound the
benchmark can set.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # relative to the repository root
    why: str             # why the workload exists, one line
    stresses: str        # the layer it is meant to stress
    acceptance: str      # acceptance criterion checked at the config seed
    overrides: tuple = ()      # (dotted config field, value) applied to the config

    def config_doc(self, root: Path) -> dict:
        """The workload's config document, overrides applied."""
        doc = json.loads((root / self.config).read_text())
        for field, value in self.overrides:
            *parents, leaf = field.split(".")
            node = doc
            for key in parents:
                node = node[key]
            node[leaf] = value
        return doc


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ex1-cubic",
        config="configs/ex1-desk.json",
        why="pipeline._cubic_newton_batch takes most of the run (3,200 calls); "
            "RNG and SVD are small",
        stresses="batched Newton with the full-space product w.T @ (K @ w) "
                 "in cubic training; per-sample ROM Newton when sampling",
        acceptance="criterion-1",
    ),
    Workload(
        name="ex2-two-step",
        config="configs/ex2-desk.json",
        why="10 refinement evaluations regenerate the same 20 k Gaussian "
            "streams each, then run a batched SVD; reduced solves are ~2%",
        stresses="per-stream RNG generation and batched SVD of the draws",
        acceptance="criterion-3",
        # The desk config's refinement takes 15 to 25 evaluations of 100 k
        # draws, depending on the seed.  A fixed 10 evaluations of 20 k
        # draws keep the layer shares and make the work nearly the same at
        # every seed, in a time that fits a round of all workloads.
        overrides=(("training.refinement.mc_samples", 20000),
                   ("training.refinement.max_iter", 10)),
    ),
    Workload(
        name="ex3-dynamics",
        config="configs/ex3-desk.json",
        why="the 2,000-step batched Newmark loop takes most of the run; SVD "
            "at rank 44 is the rest",
        stresses="pipeline._dynamic_qoi_predictions and batched SVD at large "
                 "rank; four 9.6 MB ensembles",
        acceptance="criterion-11",
    ),
)}


# ---------------------------------------------------------------------------
# artifacts


def read_table(path: Path) -> dict:
    """A ``matrixio.write_csv`` table as float columns."""
    with path.open(newline="") as handle:
        rows = list(csv.reader(ln for ln in handle if not ln.startswith("#")))
    names = rows[0]
    return {name: [float(row[j]) for row in rows[1:]]
            for j, name in enumerate(names)}


def matrix_rows(path: Path) -> int:
    """Row count of a ``matrixio.save_matrix`` blob, from its sidecar."""
    return int(json.loads(path.with_suffix(".json").read_text())["rows"])


def draws_consumed(config: dict, out: Path) -> int:
    """Monte-Carlo subspace draws a full run consumed, from its artifacts.

    Training: one batch of ``training.mc_samples`` draws per distinct
    integer beta evaluated, and ``refinement.mc_samples`` per refinement
    evaluation (the training trace rows at that sample count).  Sampling:
    one draw per ensemble row, per ensemble drawn; the extra quantities of
    the dynamics problem reuse the primary ensemble's draws.
    """
    model = json.loads((out / "model.json").read_text())
    training = config.get("training", {})
    draws = model["integer_evaluations"] * int(training["mc_samples"])
    refinement = training.get("refinement", {})
    if refinement.get("enabled"):
        ref_samples = int(refinement["mc_samples"])
        if ref_samples == int(training["mc_samples"]):
            raise ValueError("refinement and integer sample counts must "
                             "differ to tell their trace rows apart")
        trace = read_table(out / "training_trace.csv")
        draws += ref_samples * sum(1 for m in trace["mc_samples"]
                                   if int(m) == ref_samples)
    for name in ("ensemble.bin", "ensemble_integer.bin"):
        if (out / name).exists():
            draws += matrix_rows(out / name)
    return draws


# ---------------------------------------------------------------------------
# output checks


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def check_structure(config: dict, out: Path) -> list[str]:
    """Checks that hold at any seed: finite intervals, beta in range,
    coverages in [0, 1]."""
    problems = []
    model = json.loads((out / "model.json").read_text())
    report = json.loads((out / "report.json").read_text())
    k, rank = model["k"], model["rank"]
    beta_max = config.get("training", {}).get("beta_max") or 10.0 * rank
    for key in ("beta_integer", "beta_star"):
        if not k <= model[key] <= beta_max:
            problems.append(f"{key}={model[key]} outside [{k}, {beta_max}]")
    for summary in sorted(out.glob("summary*.csv")):
        table = read_table(summary)
        lower, upper = table["lower"], table["upper"]
        if not (_finite(lower) and _finite(upper) and _finite(table["mean"])):
            problems.append(f"{summary.name}: non-finite interval")
        elif any(lo > hi for lo, hi in zip(lower, upper)):
            problems.append(f"{summary.name}: lower bound above upper bound")
    coverages = {key: value for key, value in report.items()
                 if key.startswith("coverage") and value is not None}
    for name, info in report.get("extra_qois", {}).items():
        coverages[f"extra_qois.{name}.coverage"] = info["coverage"]
    for key, value in coverages.items():
        if not 0.0 <= value <= 1.0:
            problems.append(f"{key}={value} outside [0, 1]")
    return problems


def check_acceptance(criterion: str, out: Path, runtime_s: float) -> list[str]:
    """The acceptance-suite ranges for the workload's config at its own seed."""
    problems = []
    model = json.loads((out / "model.json").read_text())
    report = json.loads((out / "report.json").read_text())
    if criterion == "criterion-1":
        k, rank = model["k"], model["rank"]
        if not k <= report["beta_integer"] <= 10 * rank:
            problems.append(f"beta_integer={report['beta_integer']} outside "
                            f"[{k}, {10 * rank}]")
        if not 0.85 <= report["coverage"] <= 1.0:
            problems.append(f"coverage={report['coverage']:.3f} outside [0.85, 1.00]")
        if runtime_s > 600.0:
            problems.append(f"runtime {runtime_s:.0f} s above 600 s")
        summary = read_table(out / "summary.csv")
        widths = [hi - lo for lo, hi in zip(summary["lower"], summary["upper"])]
        width = sum(widths) / len(widths)
        close = [abs(m - r) <= 0.2 * width
                 for m, r in zip(summary["mean"], summary["rom"])]
        if sum(close) < 0.90 * len(close):
            problems.append("ensemble mean strays from the ROM on over 10% of points")
    elif criterion == "criterion-3":
        if not report["coverage"] >= report["coverage_integer"]:
            problems.append(f"refined coverage {report['coverage']:.3f} below "
                            f"integer coverage {report['coverage_integer']:.3f}")
        if not report["coverage_noisy"] < report["coverage"]:
            problems.append(f"noisy coverage {report['coverage_noisy']:.3f} not "
                            f"below noiseless {report['coverage']:.3f}")
    elif criterion == "criterion-11":
        if not report["coverage"] >= 0.80:
            problems.append(f"velocity coverage {report['coverage']:.3f} below 0.80")
        for name, info in report["extra_qois"].items():
            if not (info["finite"] and info["max_width"] > 0.0):
                problems.append(f"{name}: intervals not finite or of zero width")
    else:
        raise ValueError(f"unknown acceptance criterion {criterion!r}")
    return problems
