import json
from pathlib import Path

import numpy as np
import pytest

from stochpod.config import ConfigError, load_config, parse_config
from stochpod.matrixio import (load_matrix, read_csv, read_json, save_matrix,
                               write_csv, write_json)
from stochpod.training import RefinementConfig, TrainingConfig


def base_document(**overrides):
    doc = {
        "problem": {"kind": "linear-static-experiment", "n": 100},
        "pod": {"k": 3},
        "training": {"mc_samples": 50},
        "ensemble": {"count": 50, "level": 0.95, "seed": 7},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# matrix blobs


def test_matrix_round_trip_exact(tmp_path, rng):
    a = rng.normal(size=(17, 5))
    save_matrix(tmp_path / "m.bin", a, config_hash="abc")
    b = load_matrix(tmp_path / "m.bin")
    assert np.array_equal(a, b)
    sidecar = json.loads((tmp_path / "m.json").read_text())
    assert sidecar["rows"] == 17 and sidecar["cols"] == 5
    assert sidecar["order"] == "column-major"
    assert sidecar["config_hash"] == "abc"


def test_matrix_blob_is_column_major(tmp_path):
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    save_matrix(tmp_path / "m.bin", a)
    flat = np.frombuffer((tmp_path / "m.bin").read_bytes(), dtype=np.float64)
    assert np.array_equal(flat, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0])


def test_matrix_size_mismatch_detected(tmp_path):
    save_matrix(tmp_path / "m.bin", np.zeros((3, 2)))
    (tmp_path / "m.bin").write_bytes(b"\x00" * 8)
    with pytest.raises(ValueError):
        load_matrix(tmp_path / "m.bin")


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip_preserves_floats(tmp_path, rng):
    cols = {"grid": rng.normal(size=9), "value": rng.normal(size=9) * 1e-7}
    write_csv(tmp_path / "t.csv", cols, config_hash="ff")
    back = read_csv(tmp_path / "t.csv")
    assert np.array_equal(back["grid"], cols["grid"])
    assert np.array_equal(back["value"], cols["value"])


def test_csv_layout(tmp_path):
    write_csv(tmp_path / "t.csv", {"a": np.array([1.5]), "b": np.array([2])},
              config_hash="xyz")
    text = (tmp_path / "t.csv").read_bytes().decode()
    lines = text.split("\n")
    assert lines[0] == "# config_hash=xyz"
    assert lines[1] == "a,b"
    assert lines[2] == "1.5,2"
    assert "\r" not in text


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", {"a": np.zeros(2), "b": np.zeros(3)})


def test_json_round_trip(tmp_path):
    payload = {"b": 2, "a": [1.25, -3.5], "nested": {"x": None}}
    write_json(tmp_path / "r.json", payload)
    assert read_json(tmp_path / "r.json") == payload


# ---------------------------------------------------------------------------
# config parsing


def test_parse_valid_config():
    cfg = parse_config(base_document())
    assert cfg.seed == 7
    assert cfg.pod.k == 3
    assert cfg.ensemble.count == 50


def test_seed_override_changes_hash():
    a = parse_config(base_document())
    b = parse_config(base_document(), seed_override=8)
    assert b.seed == 8
    assert a.config_hash() != b.config_hash()


def test_hash_stable_under_key_order():
    doc = base_document()
    reordered = json.loads(json.dumps(doc))
    reordered["ensemble"] = dict(reversed(list(doc["ensemble"].items())))
    assert parse_config(doc).config_hash() == parse_config(reordered).config_hash()


def test_output_dir_not_hashed(tmp_path):
    a = parse_config(base_document())
    b = parse_config(base_document(output_dir=str(tmp_path)))
    assert a.config_hash() == b.config_hash()


def test_missing_section_names_field():
    doc = base_document()
    del doc["pod"]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.field_path == "pod"


def test_pod_requires_exactly_one_selector():
    with pytest.raises(ConfigError):
        parse_config(base_document(pod={"k": 3, "energy_threshold": 0.9}))
    with pytest.raises(ConfigError):
        parse_config(base_document(pod={}))
    cfg = parse_config(base_document(pod={"energy_threshold": 0.99}))
    assert cfg.pod.energy_threshold == 0.99


def test_bad_problem_kind_rejected():
    doc = base_document()
    doc["problem"]["kind"] = "unknown"
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "problem.kind" in str(err.value)


def test_bad_parametric_aggregation_rejected():
    # and the other string-choice fields
    for section, field, value in (("training", "parametric_aggregation", "mixed"),
                                  ("pod", "source", "centre"),
                                  ("problem", "snapshot_force", "sometimes")):
        doc = base_document()
        doc[section] = {**doc[section], field: value}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.field_path == f"{section}.{field}"


def test_seed_is_mandatory():
    doc = base_document()
    del doc["ensemble"]["seed"]
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "seed" in str(err.value)


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"problem": {,}}')
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 1" in str(err.value)


def test_training_config_defaults():
    cfg = parse_config(base_document())
    tcfg = cfg.training_config(k=3, rank=12)
    assert tcfg.beta_bounds == (3.0, 120.0)
    assert tcfg.mc_samples == 50
    assert tcfg.refinement.enabled is False
    assert tcfg.refinement.mc_samples == 100_000
    # every field the document omits takes the dataclass default
    tcfg = parse_config(base_document(training={})).training_config(k=3, rank=12)
    assert tcfg == TrainingConfig(beta_bounds=(3.0, 120.0))
    doc = base_document(training={"max_iter": 7, "refinement": {"window": 2.0}})
    tcfg = parse_config(doc).training_config(k=3, rank=12)
    assert tcfg == TrainingConfig(beta_bounds=(3.0, 120.0), max_iter=7,
                                  refinement=RefinementConfig(window=2.0))


def surrogate_document(**problem):
    return base_document(problem={"kind": "surrogate-dynamics", "n": 40,
                                  "dt": 0.005, "t_end": 0.1, "qoi_dof": 10,
                                  **problem})


@pytest.mark.parametrize("field,value", [
    ("qoi_dof", 400), ("qoi_dof", -1), ("qoi_dof", 40), ("qoi_dof", 2.0),
    ("alt_dof", 400), ("alt_dof", -1), ("alt_dof", None),
    ("heavy_dof", 40), ("heavy_dof", -3), ("n", 9)])
def test_surrogate_indices_must_lie_in_the_chain(field, value):
    with pytest.raises(ConfigError) as err:
        parse_config(surrogate_document(**{field: value}))
    assert err.value.field_path == f"problem.{field}"


def test_surrogate_valid_indices_keep_their_hash():
    # the end points of the chain and a null heavy_dof (the centre node) are
    # valid, and the checks leave the hash as it was before they existed
    doc = surrogate_document(qoi_dof=0, alt_dof=39, heavy_dof=None)
    assert parse_config(doc).config_hash() == "7e609593a4e275de"
    doc["problem"]["heavy_dof"] = 39
    assert parse_config(doc).config_hash() == "4e725128c20a0e34"


@pytest.mark.parametrize("name,chash", [
    ("ex1-desk", "c847b1e5a8c31294"), ("ex1-full", "2727610bba8771af"),
    ("ex2-desk", "7bd3518b2b153f6f"), ("ex3-desk", "77c7246aadddc9d8")])
def test_bundled_configs_keep_their_hash(name, chash):
    configs = Path(__file__).resolve().parent.parent / "configs"
    assert load_config(configs / f"{name}.json").config_hash() == chash


def test_valid_training_fields_keep_their_hash():
    # every training field set, an int where a float is expected, a null
    # beta_max and a zero window: all valid, hashed as before the checks
    doc = base_document(training={
        "mc_samples": 50, "tolerance": 1, "max_iter": 20, "beta_max": None,
        "parametric_aggregation": "pooled",
        "refinement": {"enabled": False, "window": 0, "mc_samples": 200,
                       "tolerance": 1e-8, "max_iter": 5}})
    assert parse_config(doc).config_hash() == "d1f47a90f334f619"
    doc["training"]["beta_max"] = 40
    assert parse_config(doc).config_hash() == "a01c01043f97dc2f"
    assert parse_config(base_document()).config_hash() == "962151a2383cfa7a"


@pytest.mark.parametrize("training,field", [
    ({"refinement": {"enabled": "false"}}, "training.refinement.enabled"),
    ({"refinement": {"enabled": 1}}, "training.refinement.enabled"),
    ({"mc_samples": 2.7}, "training.mc_samples"),
    ({"mc_samples": 2.0}, "training.mc_samples"),
    ({"mc_samples": True}, "training.mc_samples"),
    ({"mc_samples": 1}, "training.mc_samples"),
    ({"tolerance": "1e-3"}, "training.tolerance"),
    ({"tolerance": 0.0}, "training.tolerance"),
    ({"tolerance": float("nan")}, "training.tolerance"),
    ({"max_iter": 0}, "training.max_iter"),
    ({"refinement": {"window": -1.0}}, "training.refinement.window"),
    ({"refinement": {"mc_samples": 1.5e3}}, "training.refinement.mc_samples"),
    ({"refinement": {"tolerance": False}}, "training.refinement.tolerance"),
    ({"refinement": {"max_iter": None}}, "training.refinement.max_iter"),
    ({"mc_sample": 50}, "training.mc_sample"),
    ({"refinement": {"enable": True}}, "training.refinement.enable"),
    ({"refinement": [True]}, "training.refinement"),
    ({"beta_max": "40"}, "training.beta_max"),
    ({"beta_max": True}, "training.beta_max"),
    ({"beta_max": -5}, "training.beta_max")])
def test_training_fields_are_checked(training, field):
    with pytest.raises(ConfigError) as err:
        parse_config(base_document(training=training))
    assert err.value.field_path == field


def test_training_section_must_be_an_object():
    with pytest.raises(ConfigError) as err:
        parse_config(base_document(training=[50]))
    assert err.value.field_path == "training"


@pytest.mark.parametrize("section,value", [
    ("problem", [1]), ("problem", [["kind", "cubic-parametric"]]),
    ("pod", "x"), ("pod", None), ("ensemble", 5), ("ensemble", [])])
def test_required_section_must_be_an_object(section, value):
    with pytest.raises(ConfigError, match="must be an object") as err:
        parse_config(base_document(**{section: value}))
    assert err.value.field_path == section


@pytest.mark.parametrize("beta_max", [3, 2.5])
def test_beta_max_at_or_below_k_names_the_field(beta_max):
    cfg = parse_config(base_document(training={"beta_max": beta_max}))
    with pytest.raises(ConfigError) as err:
        cfg.training_config(k=3, rank=12)
    assert err.value.field_path == "training.beta_max"
    assert cfg.training_config(k=1, rank=12).beta_bounds == (1.0, float(beta_max))


def cubic_document(**problem):
    return base_document(problem={"kind": "cubic-parametric", "n": 80, "alpha": 1.0e4,
                                  "snapshot_count": 16,
                                  "mu_test": [0.5, 0.5, 0.5, 0.5, 1.0], **problem})


@pytest.mark.parametrize("document,field", [
    (base_document(ensemble={"count": 50, "level": "0.9", "seed": 7}), "ensemble.level"),
    (base_document(ensemble={"count": 50, "level": True, "seed": 7}), "ensemble.level"),
    (base_document(ensemble={"count": 50, "seed": True}), "ensemble.seed"),
    (cubic_document(alpha="1e4"), "problem.alpha"),
    (cubic_document(alpha=True), "problem.alpha"),
    (surrogate_document(dt="0.005"), "problem.dt"),
    (surrogate_document(t_end="0.1"), "problem.t_end"),
    (base_document(problem={"kind": "linear-static-experiment", "n": 100,
                            "noise_level": "0.05"}), "problem.noise_level"),
    (base_document(problem={"kind": "linear-static-experiment", "n": 100,
                            "perturbation_ratio": False}), "problem.perturbation_ratio"),
    (base_document(pod={"energy_threshold": "0.9"}), "pod.energy_threshold"),
    (base_document(pod={"k": True}), "pod.k")])
def test_number_fields_refuse_strings_and_bools(document, field):
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.field_path == field


def experiment_document(**problem):
    return base_document(problem={"kind": "linear-static-experiment", "n": 100,
                                  **problem})


@pytest.mark.parametrize("document,field", [
    (experiment_document(snapshot_count=20.7), "problem.snapshot_count"),
    (experiment_document(snapshot_count="20"), "problem.snapshot_count"),
    (experiment_document(sensor_count="9"), "problem.sensor_count"),
    (experiment_document(sensor_count=0), "problem.sensor_count"),
    (cubic_document(snapshot_count=16.0), "problem.snapshot_count"),
    (cubic_document(newton_max_iter=True), "problem.newton_max_iter"),
    (cubic_document(newton_max_iter=2.5), "problem.newton_max_iter"),
    (surrogate_document(snapshot_stride="4"), "problem.snapshot_stride"),
    (surrogate_document(snapshot_stride=0), "problem.snapshot_stride"),
    (experiment_document(snapshot_countt=3), "problem.snapshot_countt"),
    # a field another problem kind reads is unknown to this one
    (experiment_document(alpha=1.0e4), "problem.alpha"),
    (cubic_document(sensor_count=9), "problem.sensor_count"),
    (surrogate_document(snapshot_count=20), "problem.snapshot_count"),
    # list elements are finite numbers; force weight j needs sine mode j + 2
    (cubic_document(mu_test=[1, 2, 3, 4, None]), "problem.mu_test"),
    (cubic_document(mu_test=[1, 2, 3, 4, True]), "problem.mu_test"),
    (cubic_document(mu_test=[1, 2, 3, 4, float("nan")]), "problem.mu_test"),
    (cubic_document(mu_test=[1, 2, 3, 4]), "problem.mu_test"),
    (experiment_document(force_weights=5), "problem.force_weights"),
    (experiment_document(force_weights=[1, None]), "problem.force_weights"),
    (experiment_document(force_weights=[1, False]), "problem.force_weights"),
    (experiment_document(force_weights=["1"]), "problem.force_weights"),
    (experiment_document(force_weights=[]), "problem.force_weights"),
    (experiment_document(force_weights=[0, 0.0]), "problem.force_weights"),
    (experiment_document(force_weights=[1.0] * 98), "problem.force_weights"),
    # an all-zero mu_test has no force direction
    (cubic_document(mu_test=[0, 0, 0, 0, 0]), "problem.mu_test"),
    # the surrogate's structure fields
    (surrogate_document(mass_ratio=-5.0), "problem.mass_ratio"),
    (surrogate_document(impulse_amplitude=True), "problem.impulse_amplitude"),
    (surrogate_document(mass_ratio="100"), "problem.mass_ratio"),
    (surrogate_document(stiffness_scale="1e4"), "problem.stiffness_scale"),
    (surrogate_document(structure_seed=1.5), "problem.structure_seed"),
    (surrogate_document(impulse_duration=0.0), "problem.impulse_duration"),
    (surrogate_document(structure_seed=-3), "problem.structure_seed"),
    (surrogate_document(rayleigh_beta=-1.0), "problem.rayleigh_beta"),
    (surrogate_document(heavy_dof="3"), "problem.heavy_dof"),
    # at most one sensor on each of the n - 2 interior nodes, also by default
    (experiment_document(n=20, sensor_count=19), "problem.sensor_count"),
    (experiment_document(n=20), "problem.sensor_count"),
    # a half-sine load that is zero at every time step: a pulse that ends
    # by t = dt, given or by its default of 0.05, or a zero amplitude
    (surrogate_document(impulse_duration=0.005), "problem.impulse_duration"),
    (surrogate_document(impulse_duration=0.001), "problem.impulse_duration"),
    (surrogate_document(dt=0.05), "problem.impulse_duration"),
    (surrogate_document(dt=0.08), "problem.impulse_duration"),
    (surrogate_document(impulse_amplitude=0.0), "problem.impulse_amplitude"),
    (surrogate_document(impulse_amplitude=0), "problem.impulse_amplitude"),
    (surrogate_document(impulse_amplitude=float("inf")), "problem.impulse_amplitude"),
    (surrogate_document(impulse_amplitude=float("nan")), "problem.impulse_amplitude"),
    (surrogate_document(t_end=0.004), "problem.t_end")])
def test_problem_fields_are_checked(document, field):
    # integer fields refuse floats, strings and bools; unknown keys are refused
    with pytest.raises(ConfigError) as err:
        parse_config(document)
    assert err.value.field_path == field


def test_every_problem_field_parses():
    documents = [
        cubic_document(newton_tol=1e-9, newton_max_iter=30),
        experiment_document(perturbation_ratio=0.1, noise_level=0.0, sensor_count=9,
                            snapshot_count=20, snapshot_force="perturbed",
                            force_weights=[1.0, 0.5]),
        experiment_document(force_weights=[0.0] * 96 + [1]),     # n - 3 modes
        surrogate_document(alt_dof=3, snapshot_stride=2, heavy_dof=5, mass_ratio=50.0,
                           stiffness_scale=2.0, rayleigh_beta=1e-3,
                           impulse_amplitude=10.0, impulse_duration=0.05,
                           structure_seed=4),
        surrogate_document(rayleigh_beta=0.0, impulse_amplitude=-1.0, structure_seed=0),
        experiment_document(sensor_count=98),                    # n - 2 sensors
        experiment_document(n=20, sensor_count=18),
        surrogate_document(impulse_duration=0.006),              # just past dt
        surrogate_document(dt=0.049),                            # the default 0.05
        surrogate_document(t_end=0.005)]                         # one step of dt
    for doc in documents:
        assert parse_config(doc).problem == doc["problem"]
