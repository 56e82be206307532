"""Run configuration: parsing, validation, canonical hashing.

Configs are JSON documents.  Validation errors carry the offending field
path so the CLI can emit a precise diagnostic (exit code 2).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .training import RefinementConfig, TrainingConfig


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"config field '{field_path}': {message}")
        self.field_path = field_path


PROBLEM_KINDS = ("cubic-parametric", "linear-static-experiment", "surrogate-dynamics")

#: Defaults of the optional ``problem`` fields, per problem kind, read by
#: the pipeline's drivers.  They are never written into a config, whose
#: hash covers only what the document says.  The surrogate's structure
#: defaults are those of ``problems.SurrogateSpec``.
PROBLEM_DEFAULTS = {
    "cubic-parametric": {"newton_tol": 1e-10, "newton_max_iter": 50},
    "linear-static-experiment": {
        "perturbation_ratio": 0.15, "noise_level": 0.05, "sensor_count": 19,
        "snapshot_count": 100, "snapshot_force": "nominal",
        "force_weights": (0.5, 0.5, 0.5, 0.5, 1.0)},
    "surrogate-dynamics": {"snapshot_stride": 4},
}

#: config ``problem`` key -> ``problems.SurrogateSpec`` field
SURROGATE_SPEC_FIELDS = {
    "heavy_dof": "heavy_dof", "mass_ratio": "mass_ratio",
    "stiffness_scale": "stiffness_scale", "rayleigh_beta": "rayleigh_beta",
    "impulse_amplitude": "impulse_amplitude",
    "impulse_duration": "impulse_duration", "structure_seed": "seed",
}

#: How the cubic objective combines its training parameters when the
#: config does not say: "pooled" (one distance over all of them) or
#: "per-parameter" (the mean of per-parameter distance gaps).
DEFAULT_PARAMETRIC_AGGREGATION = "pooled"


@dataclass(frozen=True)
class PodConfig:
    k: int | None = None
    energy_threshold: float | None = None
    source: str | None = None   # "centered" | "raw"; default depends on problem


@dataclass(frozen=True)
class EnsembleConfig:
    count: int
    level: float
    seed: int


@dataclass(frozen=True)
class RunConfig:
    problem: dict
    pod: PodConfig
    training: dict
    ensemble: EnsembleConfig
    output_dir: str | None = None

    @property
    def seed(self) -> int:
        return self.ensemble.seed

    def canonical_dict(self) -> dict:
        return {
            "problem": self.problem,
            "pod": {k: v for k, v in asdict(self.pod).items() if v is not None},
            "training": self.training,
            "ensemble": asdict(self.ensemble),
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    @property
    def parametric_aggregation(self) -> str:
        return self.training.get("parametric_aggregation",
                                 DEFAULT_PARAMETRIC_AGGREGATION)

    def training_config(self, k: int, rank: int) -> TrainingConfig:
        """The training settings; a field the document omits keeps the
        ``TrainingConfig`` or ``RefinementConfig`` default."""
        t = self.training
        beta_max = t.get("beta_max")
        if beta_max is None:
            beta_max = 10.0 * rank
        _require(beta_max > k, "training.beta_max", f"must exceed k = {k}")
        return TrainingConfig(
            beta_bounds=(float(k), float(beta_max)),
            refinement=RefinementConfig(**_given(t.get("refinement", {}),
                                                 _REFINEMENT_FIELDS)),
            **_given(t, _TRAINING_FIELDS),
        )


#: The fields of ``training`` and of ``training.refinement`` that become
#: ``TrainingConfig`` and ``RefinementConfig`` fields: name -> (type, test
#: of the value, what the test asks for).
_TRAINING_FIELDS = {
    "mc_samples": (int, lambda v: v >= 2, "an integer >= 2"),
    "tolerance": (float, lambda v: v > 0, "a positive number"),
    "max_iter": (int, lambda v: v >= 1, "an integer >= 1"),
}
_REFINEMENT_FIELDS = {
    **_TRAINING_FIELDS,
    "enabled": (bool, lambda v: True, "true or false"),
    "window": (float, lambda v: v >= 0, "a number >= 0"),
}


_POSITIVE = (float, lambda v: v > 0, "a positive number")
_NONNEGATIVE = (float, lambda v: v >= 0, "a nonnegative number")


def _count(least: int) -> tuple:
    return (int, lambda v: v >= least, f"an integer >= {least}")


#: The ``problem`` fields each kind reads besides ``kind`` and ``n``, as in
#: ``_TRAINING_FIELDS``; None marks a field whose value ``parse_config``
#: checks on its own (the DoF indices) or leaves to its reader.
_PROBLEM_FIELDS = {
    "cubic-parametric": {
        "alpha": _POSITIVE, "snapshot_count": _count(2),
        "mu_test": (list, lambda v: len(v) == 5 and all(map(_is_number, v)),
                    "a list of 5 numbers"),
        "newton_tol": _POSITIVE, "newton_max_iter": _count(1)},
    "linear-static-experiment": {
        "perturbation_ratio": _NONNEGATIVE, "noise_level": _NONNEGATIVE,
        "sensor_count": _count(1), "snapshot_count": _count(2),
        "snapshot_force": (str, lambda v: v in ("nominal", "perturbed"),
                           "'nominal' or 'perturbed'"),
        "force_weights": None},
    "surrogate-dynamics": {
        "dt": _POSITIVE, "t_end": _POSITIVE, "qoi_dof": None, "alt_dof": None,
        "snapshot_stride": _count(1), **dict.fromkeys(SURROGATE_SPEC_FIELDS)},
}
#: The ``problem`` fields without a default, per kind.
_PROBLEM_REQUIRED = {"cubic-parametric": ("alpha", "snapshot_count", "mu_test"),
                     "linear-static-experiment": (),
                     "surrogate-dynamics": ("dt", "t_end", "qoi_dof")}


def _given(document: dict, fields: dict) -> dict:
    """The fields the document sets, each converted to its type."""
    return {key: kind(document[key]) for key, (kind, _, _) in fields.items()
            if key in document}


def _require(condition: bool, field_path: str, message: str) -> None:
    if not condition:
        raise ConfigError(field_path, message)


def _is_number(value) -> bool:
    """A finite JSON number; a string or a bool is none."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_fields(section, fields: dict, path: str, others=()) -> None:
    """Refuse a key of ``section`` that is neither in ``fields`` nor in
    ``others``, and a value of ``fields`` of the wrong type or range (a
    field whose entry is None is not checked).  An ``int`` field refuses a
    float, and no number field takes a bool."""
    _require(isinstance(section, dict), path, "must be an object")
    for key, value in section.items():
        _require(key in fields or key in others, f"{path}.{key}", "unknown field")
        if fields.get(key) is not None:
            kind, test, wanted = fields[key]
            typed = _is_number(value) if kind is float else type(value) is kind
            _require(typed and test(value), f"{path}.{key}", f"must be {wanted}")


def parse_config(document: dict, seed_override: int | None = None,
                 output_override: str | None = None) -> RunConfig:
    _require(isinstance(document, dict), "", "top level must be a JSON object")
    for key in ("problem", "pod", "ensemble"):
        _require(key in document, key, "missing required section")
        _require(isinstance(document[key], dict), key, "must be an object")

    problem = dict(document["problem"])
    kind = problem.get("kind")
    _require(kind in PROBLEM_KINDS, "problem.kind",
             f"must be one of {', '.join(PROBLEM_KINDS)}")
    _require(isinstance(problem.get("n"), int) and problem["n"] >= 8,
             "problem.n", "must be an integer >= 8")
    for key in _PROBLEM_REQUIRED[kind]:
        _require(key in problem, f"problem.{key}", "missing required field")
    _check_fields(problem, _PROBLEM_FIELDS[kind], "problem", others=("kind", "n"))
    if kind == "surrogate-dynamics":
        n = problem["n"]
        _require(n >= 10, "problem.n", "must be an integer >= 10 for surrogate-dynamics")
        for key in ("qoi_dof", "alt_dof", "heavy_dof"):
            dof = problem.get(key)
            # alt_dof may be omitted; heavy_dof omitted or null is the centre node
            if (key == "alt_dof" and key not in problem
                    or key == "heavy_dof" and dof is None):
                continue
            _require(type(dof) is int and 0 <= dof < n, f"problem.{key}",
                     f"must be an integer DoF index in [0, {n})")
    if "force_weights" in problem:
        # weight j scales sine mode j + 2, and there are n - 2 modes
        weights, most = problem["force_weights"], problem["n"] - 3
        _require(type(weights) is list and 1 <= len(weights) <= most
                 and all(map(_is_number, weights)) and any(weights),
                 "problem.force_weights",
                 f"must be a list of 1 to {most} numbers, not all zero")

    pod_doc = document["pod"]
    k = pod_doc.get("k")
    tau = pod_doc.get("energy_threshold")
    _require((k is None) != (tau is None), "pod",
             "exactly one of 'k' or 'energy_threshold' must be set")
    if k is not None:
        _require(type(k) is int and k >= 1, "pod.k", "must be an integer >= 1")
    if tau is not None:
        _require(_is_number(tau) and 0.0 < tau < 1.0, "pod.energy_threshold",
                 "must lie in (0, 1)")
    source = pod_doc.get("source")
    _require(source in (None, "centered", "raw"), "pod.source",
             "must be 'centered' or 'raw'")

    ens = document["ensemble"]
    _require(isinstance(ens.get("count"), int) and ens["count"] >= 2,
             "ensemble.count", "must be an integer >= 2")
    level = ens.get("level", 0.95)
    _require(_is_number(level) and 0.0 < level < 1.0, "ensemble.level",
             "must lie in (0, 1)")
    seed = seed_override if seed_override is not None else ens.get("seed")
    _require(type(seed) is int, "ensemble.seed", "a mandatory integer seed")

    training = document.get("training", {})
    _check_fields(training, _TRAINING_FIELDS, "training",
                  others=("beta_max", "parametric_aggregation", "refinement"))
    _check_fields(training.get("refinement", {}), _REFINEMENT_FIELDS,
                  "training.refinement")
    beta_max = training.get("beta_max")
    _require(beta_max is None or _is_number(beta_max) and beta_max > 0,
             "training.beta_max", "must be a positive number or null")
    agg = training.get("parametric_aggregation", DEFAULT_PARAMETRIC_AGGREGATION)
    _require(agg in ("per-parameter", "pooled"), "training.parametric_aggregation",
             "must be 'per-parameter' or 'pooled'")

    output_dir = output_override if output_override is not None else document.get("output_dir")
    return RunConfig(
        problem=problem,
        pod=PodConfig(k=k, energy_threshold=tau, source=source),
        training=dict(training),
        ensemble=EnsembleConfig(count=int(ens["count"]),
                                level=float(level),
                                seed=int(seed)),
        output_dir=output_dir,
    )


def load_config(path, seed_override: int | None = None,
                output_override: str | None = None) -> RunConfig:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
    return parse_config(document, seed_override, output_override)
