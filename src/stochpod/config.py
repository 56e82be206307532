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

from .problems import SurrogateSpec
from .training import RefinementConfig, TrainingConfig


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        super().__init__(f"config field '{field_path}': {message}")
        self.field_path = field_path


PROBLEM_KINDS = ("cubic-parametric", "linear-static-experiment", "surrogate-dynamics")

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
    def problem_settings(self) -> dict:
        """Every ``problem`` field of the run's kind: the document's, over the
        defaults of ``_problem_fields``, which never enter the config's hash."""
        fields = _problem_fields(self.problem["kind"], self.problem["n"])
        return {**{key: default for key, (*_, default) in fields.items()
                   if default is not _REQUIRED},
                **self.problem}

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
        _require(beta_max >= k + 1, "training.beta_max", f"must be at least k + 1 = {k + 1}")
        return TrainingConfig(
            beta_bounds=(float(k), float(beta_max)),
            refinement=RefinementConfig(**_given(t.get("refinement", {}),
                                                 _REFINEMENT_FIELDS)),
            **_given(t, _TRAINING_FIELDS),
        )


_POSITIVE = (float, lambda v: v > 0, "a positive number")
_NONNEGATIVE = (float, lambda v: v >= 0, "a nonnegative number")
_FRACTION = (float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")


def _count(least: int) -> tuple:
    return (int, lambda v: v >= least, f"an integer >= {least}")


def _or_null(field: tuple) -> tuple:
    """The field ``field``, which may also be null."""
    kind, test, wanted = field
    return (None, lambda v: v is None or _typed(kind, v) and test(v), f"{wanted} or null")


#: The fields of ``training`` and of ``training.refinement`` that become
#: ``TrainingConfig`` and ``RefinementConfig`` fields: name -> (type, test
#: of the value, what the test asks for).
_TRAINING_FIELDS = {"mc_samples": _count(2), "tolerance": _POSITIVE, "max_iter": _count(1)}
_REFINEMENT_FIELDS = {**_TRAINING_FIELDS, "window": _NONNEGATIVE,
                      "enabled": (bool, lambda v: True, "true or false")}

#: The fields of the top level and of the other sections, as above; a
#: type of None lets the test alone judge the value, and an entry of None
#: is a section checked on its own.
_TOP_FIELDS = {"problem": None, "pod": None, "training": None, "ensemble": None,
               "output_dir": _or_null((str, lambda v: True, "a string"))}
_POD_FIELDS = {"k": _or_null(_count(1)), "energy_threshold": _or_null(_FRACTION),
               "source": _or_null((str, lambda v: v in ("centered", "raw"),
                                   "'centered' or 'raw'"))}
_ENSEMBLE_FIELDS = {"count": _count(2), "level": _FRACTION, "seed": _count(0)}
_TRAINING_SECTION = {
    **_TRAINING_FIELDS, "beta_max": _or_null(_POSITIVE), "refinement": None,
    "parametric_aggregation": (str, lambda v: v in ("per-parameter", "pooled"),
                               "'per-parameter' or 'pooled'")}


#: The default of a ``problem`` field that the document must set.
_REQUIRED = object()


def _problem_fields(kind: str, n: int) -> dict:
    """The ``problem`` fields of ``kind`` on an ``n``-DoF model, besides
    ``kind`` and ``n``: name -> (type, test, what the test asks for,
    default).  The surrogate's structure fields are the ``SurrogateSpec``
    fields of the same names, with its defaults; an omitted ``alt_dof`` is
    None, which the driver derives from ``qoi_dof``."""
    dof = (int, lambda v: 0 <= v < n, f"an integer DoF index in [0, {n})")
    return {
        "cubic-parametric": {
            "alpha": (*_POSITIVE, _REQUIRED), "snapshot_count": (*_count(2), _REQUIRED),
            "mu_test": (list, lambda v: len(v) == 5 and all(map(_is_number, v)) and any(v),
                        "a list of 5 numbers, not all zero", _REQUIRED),
            "newton_tol": (*_POSITIVE, 1e-10), "newton_max_iter": (*_count(1), 50)},
        "linear-static-experiment": {
            "perturbation_ratio": (*_NONNEGATIVE, 0.15), "noise_level": (*_NONNEGATIVE, 0.05),
            # observe_sparse places at most one sensor on each interior node
            "sensor_count": (int, lambda v: 1 <= v <= n - 2, f"an integer in [1, {n - 2}]",
                             19),
            "snapshot_count": (*_count(2), 100),
            "snapshot_force": (str, lambda v: v in ("nominal", "perturbed"),
                               "'nominal' or 'perturbed'", "nominal"),
            # weight j scales sine mode j + 2, and there are n - 2 modes
            "force_weights": (list, lambda v: 1 <= len(v) <= n - 3
                              and all(map(_is_number, v)) and any(v),
                              f"a list of 1 to {n - 3} numbers, not all zero",
                              (0.5, 0.5, 0.5, 0.5, 1.0))},
        "surrogate-dynamics": {
            "dt": (*_POSITIVE, _REQUIRED), "t_end": (*_POSITIVE, _REQUIRED),
            "qoi_dof": (*dof, _REQUIRED), "alt_dof": (*dof, None),
            "snapshot_stride": (*_count(1), 4),
            # a null heavy_dof is the centre node
            "heavy_dof": (*_or_null(dof), SurrogateSpec.heavy_dof),
            "mass_ratio": (*_POSITIVE, SurrogateSpec.mass_ratio),
            "stiffness_scale": (*_POSITIVE, SurrogateSpec.stiffness_scale),
            "rayleigh_beta": (*_NONNEGATIVE, SurrogateSpec.rayleigh_beta),
            "impulse_amplitude": (float, lambda v: v != 0, "a nonzero number",
                                  SurrogateSpec.impulse_amplitude),
            "impulse_duration": (*_POSITIVE, SurrogateSpec.impulse_duration),
            "structure_seed": (*_count(0), SurrogateSpec.structure_seed)},
    }[kind]


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


def _typed(kind, value) -> bool:
    """A ``float`` is any finite number, an ``int`` no float, no number a
    bool, and any value is of type None."""
    return kind is None or (_is_number(value) if kind is float else type(value) is kind)


def _check_fields(section, fields: dict, path: str) -> None:
    """Refuse a key of ``section`` not in ``fields``, and a value that fails
    its entry's (type, test, what the test asks for, ...); an entry of None
    is not checked.  ``path`` is the section's field path, "" at the top level."""
    _require(isinstance(section, dict), path, "must be an object")
    for key, value in section.items():
        field = f"{path}.{key}" if path else key
        _require(key in fields, field, "unknown field")
        if fields[key] is not None:
            kind, test, wanted = fields[key][:3]
            _require(_typed(kind, value) and test(value), field, f"must be {wanted}")


def parse_config(document: dict, seed_override: int | None = None,
                 output_override: str | None = None) -> RunConfig:
    _require(isinstance(document, dict), "", "top level must be a JSON object")
    _check_fields(document, _TOP_FIELDS, "")
    for key in ("problem", "pod", "ensemble"):
        _require(key in document, key, "missing required section")
        _require(isinstance(document[key], dict), key, "must be an object")

    problem = dict(document["problem"])
    kind, n = problem.get("kind"), problem.get("n")
    _require(kind in PROBLEM_KINDS, "problem.kind",
             f"must be one of {', '.join(PROBLEM_KINDS)}")
    least = 10 if kind == "surrogate-dynamics" else 8
    _require(_typed(int, n) and n >= least, "problem.n", f"must be an integer >= {least}")
    fields = _problem_fields(kind, n)
    for key, (_, test, wanted, default) in fields.items():
        if key not in problem:
            _require(default is not _REQUIRED, f"problem.{key}", "missing required field")
            _require(default is None or test(default), f"problem.{key}",
                     f"must be set: its default {default} is not {wanted}")
    _check_fields(problem, {**fields, "kind": None, "n": None}, "problem")
    if kind == "surrogate-dynamics":
        # the half-sine load is sampled at t = 0, dt, 2 dt, ... up to t_end and
        # is zero at t = 0: with no second step, or a pulse that ends by
        # t = dt, it is zero at every step, and so is the response
        dt = problem["dt"]
        _require(problem["t_end"] >= dt, "problem.t_end", f"must be at least dt = {dt}")
        duration = problem.get("impulse_duration", fields["impulse_duration"][-1])
        _require(duration > dt, "problem.impulse_duration",
                 f"must exceed dt = {dt}, got {duration}")

    pod_doc = document["pod"]
    _check_fields(pod_doc, _POD_FIELDS, "pod")
    k, tau, source = (pod_doc.get(key) for key in _POD_FIELDS)
    _require((k is None) != (tau is None), "pod",
             "exactly one of 'k' or 'energy_threshold' must be set")

    ens = document["ensemble"]
    _check_fields(ens, _ENSEMBLE_FIELDS, "ensemble")
    _require("count" in ens, "ensemble.count", "missing required field")
    seed = seed_override if seed_override is not None else ens.get("seed")
    _require(_typed(int, seed) and seed >= 0, "ensemble.seed",
             "a mandatory integer seed >= 0")

    training = document.get("training", {})
    _check_fields(training, _TRAINING_SECTION, "training")
    _check_fields(training.get("refinement", {}), _REFINEMENT_FIELDS,
                  "training.refinement")

    output_dir = output_override if output_override is not None else document.get("output_dir")
    return RunConfig(
        problem=problem,
        pod=PodConfig(k=k, energy_threshold=tau, source=source),
        training=dict(training),
        ensemble=EnsembleConfig(count=ens["count"], level=float(ens.get("level", 0.95)),
                                seed=seed),
        output_dir=output_dir,
    )


def load_config(path, seed_override: int | None = None,
                output_override: str | None = None) -> RunConfig:
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                              f"{exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("", f"cannot read config file {path}: {exc}") from exc
    return parse_config(document, seed_override, output_override)
