import dataclasses
import json
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import stochpod as sp
from stochpod import config, pipeline, rom, sampling
from stochpod.config import DEFAULT_PARAMETRIC_AGGREGATION, parse_config
from stochpod.matrixio import load_matrix, read_csv
from stochpod.problems import SpectralStiffness, SurrogateSpec, surrogate_dynamics


def tiny_ex2_config(seed=5, **problem):
    doc = {
        "problem": {"kind": "linear-static-experiment", "n": 100,
                    "snapshot_count": 20, "sensor_count": 9, **problem},
        "pod": {"k": 3},
        "training": {"mc_samples": 60},
        "ensemble": {"count": 80, "level": 0.95, "seed": seed},
    }
    return parse_config(doc)


def tiny_ex1_config(seed=21):
    return parse_config({
        "problem": {"kind": "cubic-parametric", "n": 80, "alpha": 1.0e4,
                    "snapshot_count": 16, "mu_test": [0.5, 0.5, 0.5, 0.5, 1.0]},
        "pod": {"k": 4},
        "training": {"mc_samples": 80},
        "ensemble": {"count": 200, "level": 0.95, "seed": seed},
    })


def tiny_ex3_config(seed=9):
    return parse_config({
        "problem": {"kind": "surrogate-dynamics", "n": 40, "dt": 0.005,
                    "t_end": 1.0, "qoi_dof": 10, "alt_dof": 30,
                    "snapshot_stride": 2, "impulse_duration": 0.15,
                    "rayleigh_beta": 0.003},
        "pod": {"k": 6},
        "training": {"mc_samples": 50},
        "ensemble": {"count": 60, "level": 0.95, "seed": seed},
    })


def refined(cfg):
    """``cfg`` with a short real-valued refinement stage."""
    doc = cfg.canonical_dict()
    doc["training"] = {**doc["training"], "refinement": {
        "enabled": True, "mc_samples": 200, "max_iter": 4}}
    return parse_config(doc)


@pytest.mark.parametrize("make_config,chash", [
    (tiny_ex1_config, "c0748872ec108bed"), (tiny_ex2_config, "65192294f12df0d0"),
    (tiny_ex3_config, "dca04f1cf9914570")])
def test_tiny_configs_keep_their_hash(make_config, chash):
    assert make_config().config_hash() == chash


# ---------------------------------------------------------------------------
# end-to-end runs


def test_pipeline_produces_complete_report(tmp_path):
    report = pipeline.run_pipeline(tiny_ex2_config(), tmp_path)
    assert report == json.loads((tmp_path / "report.json").read_text())
    assert 0.0 <= report["coverage"] <= 1.0
    assert report["mean_pi_width"] > 0
    assert report["library_version"]
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings) >= {"train_s", "sample_s", "predict_s", "report_s", "total_s"}
    assert report["beta_integer"] >= 3
    assert report["coverage_noisy"] >= 0.0
    assert report["points_total"] == 100


def test_run_pipeline_calls_the_stages_by_name(tmp_path, monkeypatch):
    # the benchmark's tracer wraps pipeline.stage_*; run_pipeline must run
    # the wrappers, and timings.json keeps one key per stage
    called = []
    for stage in ("train", "sample", "predict", "report"):
        monkeypatch.setattr(pipeline, f"stage_{stage}",
                            lambda *args, _run=getattr(pipeline, f"stage_{stage}"),
                            _name=stage: called.append(_name) or _run(*args))
    pipeline.run_pipeline(tiny_ex2_config(), tmp_path)
    assert called == ["train", "sample", "predict", "report"]
    timings = json.loads((tmp_path / "timings.json").read_text())
    assert set(timings) == {"config_hash", "train_s", "sample_s", "predict_s",
                            "report_s", "total_s"}


def test_pipeline_rerun_is_byte_identical(tmp_path):
    cfg = tiny_ex2_config()
    a, b = tmp_path / "a", tmp_path / "b"
    pipeline.run_pipeline(cfg, a)
    pipeline.run_pipeline(cfg, b)
    names = sorted(p.name for p in a.iterdir() if p.name != "timings.json")
    assert names == sorted(p.name for p in b.iterdir() if p.name != "timings.json")
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_artifacts_embed_config_hash(tmp_path):
    cfg = tiny_ex2_config()
    pipeline.run_pipeline(cfg, tmp_path)
    chash = cfg.config_hash()
    for csv_name in ("pod_spectrum.csv", "observations.csv", "summary.csv",
                     "training_trace.csv", "sensors.csv"):
        first = (tmp_path / csv_name).read_text().splitlines()[0]
        assert first == f"# config_hash={chash}", csv_name
    for sidecar in ("snapshots.json", "pod_modes.json", "ensemble.json"):
        assert json.loads((tmp_path / sidecar).read_text())["config_hash"] == chash
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config_hash"] == chash


def test_stage_sample_requires_train(tmp_path):
    with pytest.raises(pipeline.MissingArtifactError):
        pipeline.stage_sample(tiny_ex2_config(), tmp_path)


# "theirs" copies the artifact of a run with another seed over ours,
# "delete" removes it, and any other text becomes its content
@pytest.mark.parametrize("stale,damage,error", [
    pytest.param("model.json", "theirs", pipeline.StaleArtifactError, id="model.json"),
    pytest.param("pod_modes.bin", "theirs", pipeline.StaleArtifactError, id="pod_modes.bin"),
    pytest.param("observations.csv", "theirs", pipeline.StaleArtifactError,
                 id="observations.csv"),
    pytest.param("pod_modes.json", "delete", pipeline.MissingArtifactError,
                 id="sidecar-deleted"),
    pytest.param("model.json", "[1,2]", pipeline.StaleArtifactError, id="model-not-an-object"),
    pytest.param("model.json", "{", pipeline.StaleArtifactError, id="model-not-json"),
])
def test_stage_sample_refuses_artifacts_of_another_config(stale, damage, error, tmp_path):
    ours = tiny_ex2_config()
    pipeline.stage_train(ours, tmp_path / "ours")
    if damage == "theirs":
        pipeline.stage_train(tiny_ex2_config(seed=99), tmp_path / "theirs")
        for name in (stale, stale.replace(".bin", ".json")):
            (tmp_path / "ours" / name).write_bytes((tmp_path / "theirs" / name).read_bytes())
    elif damage == "delete":
        (tmp_path / "ours" / stale).unlink()
    else:
        (tmp_path / "ours" / stale).write_text(damage)
    with pytest.raises(pipeline.MissingArtifactError, match=stale) as refused:
        pipeline.stage_sample(ours, tmp_path / "ours")
    assert type(refused.value) is error
    assert not (tmp_path / "ours" / "ensemble.bin").exists()


def test_integer_ensemble_follows_the_model_not_leftover_files(tmp_path):
    # a run without refinement in a directory left by a refined run makes
    # and reads no integer-beta artifacts; the leftovers are not summarized
    refined = parse_config({
        "problem": {"kind": "linear-static-experiment", "n": 100,
                    "snapshot_count": 20, "sensor_count": 9},
        "pod": {"k": 3},
        "training": {"mc_samples": 60,
                     "refinement": {"enabled": True, "mc_samples": 200,
                                    "max_iter": 4}},
        "ensemble": {"count": 80, "level": 0.95, "seed": 5},
    })
    pipeline.run_pipeline(refined, tmp_path)
    leftover = (tmp_path / "summary_integer.csv").read_bytes()
    report = pipeline.run_pipeline(tiny_ex2_config(), tmp_path)
    assert "coverage_integer" not in report
    assert (tmp_path / "summary_integer.csv").read_bytes() == leftover


def test_stage_predict_requires_sample(tmp_path):
    cfg = tiny_ex2_config()
    pipeline.stage_train(cfg, tmp_path)
    with pytest.raises(pipeline.MissingArtifactError):
        pipeline.stage_predict(cfg, tmp_path)


def test_trace_has_expected_columns(tmp_path):
    cfg = tiny_ex2_config()
    pipeline.stage_train(cfg, tmp_path)
    trace = read_csv(tmp_path / "training_trace.csv")
    assert list(trace) == ["iteration", "beta", "f_estimate", "mc_samples", "seed"]
    assert np.all(trace["f_estimate"] >= 0.0)
    model = json.loads((tmp_path / "model.json").read_text())
    # cache discipline: one Monte-Carlo evaluation per distinct integer
    integers = np.unique(np.concatenate([np.floor(trace["beta"]),
                                         np.ceil(trace["beta"])]))
    bounds = cfg.training_config(model["k"], model["rank"]).beta_bounds
    valid = integers[(integers >= bounds[0]) & (integers <= bounds[1])]
    assert model["integer_evaluations"] <= len(valid)


def test_integer_training_stays_below_a_fractional_beta_max(tmp_path):
    # k = 3 and beta_max 4.2: the integer search never evaluates 5
    doc = tiny_ex2_config().canonical_dict()
    doc["training"]["beta_max"] = 4.2
    model = pipeline.stage_train(parse_config(doc), tmp_path)
    assert model["beta_integer"] <= 4
    trace = read_csv(tmp_path / "training_trace.csv")
    assert np.ceil(trace["beta"]).max() <= 4


def test_cubic_pipeline_completes_and_is_consistent(tmp_path):
    # the quantified mean-tracks-ROM soft check lives in the acceptance
    # suite at desk scale; here just sanity-check the tiny-scale run
    cfg = tiny_ex1_config()
    report = pipeline.run_pipeline(cfg, tmp_path)
    summary = read_csv(tmp_path / "summary.csv")
    assert np.all(summary["lower"] <= summary["upper"])
    assert report["beta_integer"] >= 4


def test_surrogate_pipeline_extra_qois(tmp_path):
    cfg = tiny_ex3_config()
    report = pipeline.run_pipeline(cfg, tmp_path)
    extras = report["extra_qois"]
    assert set(extras) == {"acceleration", "displacement", "velocity_alt"}
    for name, info in extras.items():
        assert info["finite"], name
        assert info["max_width"] > 0.0, name
        assert (tmp_path / f"summary_{name}.csv").exists()


def test_two_step_pipeline_reports_both_betas(tmp_path):
    cfg = parse_config({
        "problem": {"kind": "linear-static-experiment", "n": 100,
                    "snapshot_count": 20, "sensor_count": 9},
        "pod": {"k": 3},
        "training": {"mc_samples": 60,
                     "refinement": {"enabled": True, "window": 1.0,
                                    "mc_samples": 500, "tolerance": 1e-6,
                                    "max_iter": 12}},
        "ensemble": {"count": 80, "level": 0.95, "seed": 5},
    })
    d = pipeline.run_pipeline(cfg, tmp_path)
    assert d["objective_refined"] is not None
    assert "coverage_integer" in d and "coverage_noisy_integer" in d
    assert abs(d["beta_star"] - d["beta_integer"]) <= 1.0
    assert (tmp_path / "ensemble_integer.bin").exists()
    assert (tmp_path / "summary_integer.csv").exists()


@pytest.mark.parametrize("snapshot_force", ["nominal", "perturbed"])
def test_snapshot_forces(snapshot_force, tmp_path, monkeypatch):
    # snapshot j solves its perturbed stiffness at a force: the config's,
    # or under "perturbed" its own unit max-norm combination of the sine
    # modes 2..1+len(force_weights) that the config force uses
    weights = [0.5, 1.0, 0.25]
    cfg = tiny_ex2_config(snapshot_force=snapshot_force, force_weights=weights)
    driver = pipeline.make_driver(cfg)
    stiffnesses = []
    perturb = pipeline.perturb_stiffness
    monkeypatch.setattr(pipeline, "perturb_stiffness", lambda *args: stiffnesses.append(
        perturb(*args)) or stiffnesses[-1])
    x = driver.snapshots()
    assert len(stiffnesses) == x.shape[1] == 20
    forces = np.stack([s.matrix @ x[:, j] for j, s in enumerate(stiffnesses)], axis=1)
    base = SpectralStiffness.sine_basis(100)
    if snapshot_force == "nominal":
        nominal = base.mode_combination_force(weights)
        assert np.max(np.abs(forces - nominal[:, None])) <= 1e-10
    else:
        coefficients = base.modes.T @ forces            # one column per snapshot
        used = np.s_[1:1 + len(weights)]
        assert np.max(np.abs(np.delete(coefficients, used, axis=0))) <= 1e-10
        assert np.all(coefficients[used] > -1e-10)     # uniform [0, 1) weights
        assert np.max(np.abs(base.modes @ coefficients - forces)) <= 1e-10
        assert np.allclose(np.max(np.abs(forces), axis=0), 1.0, rtol=0, atol=1e-10)
        gaps = np.linalg.norm(forces[:, :, None] - forces[:, None, :], axis=0)
        assert np.min(gaps + np.eye(len(stiffnesses))) > 1e-3
    report = pipeline.run_pipeline(cfg, tmp_path)
    assert 0.0 <= report["coverage"] <= 1.0


COMMON_ARTIFACTS = {
    "snapshots.bin", "snapshots.json", "pod_modes.bin", "pod_modes.json",
    "pod_spectrum.csv", "model.json", "training_trace.csv", "observations.csv",
    "ensemble.bin", "ensemble.json", "summary.csv", "report.json", "timings.json"}
INTEGER_ARTIFACTS = {"ensemble_integer.bin", "ensemble_integer.json",
                     "summary_integer.csv"}
EXTRA_ARTIFACTS = {f"{stem}_{name}{ext}"
                   for name in ("acceleration", "displacement", "velocity_alt")
                   for stem, ext in (("ensemble", ".bin"), ("ensemble", ".json"),
                                     ("summary", ".csv"))}
COMMON_REPORT_KEYS = {
    "schema_version", "config_hash", "config", "library_version", "problem_kind",
    "beta_integer", "beta_star", "objective_integer", "objective_refined", "level",
    "coverage", "mean_pi_width", "points_total", "points_inside"}
SENSOR_REPORT_KEYS = {"coverage_noisy", "mean_pi_width_sensors"}
INTEGER_REPORT_KEYS = {"coverage_integer", "mean_pi_width_integer",
                       "coverage_noisy_integer"}


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("make_config,files,keys", [
    (tiny_ex1_config, set(), set()),
    (tiny_ex2_config, {"sensors.csv"}, SENSOR_REPORT_KEYS),
    (tiny_ex3_config, EXTRA_ARTIFACTS, {"extra_qois"})])
def test_artifacts_of_each_problem_kind(make_config, files, keys, refine, tmp_path):
    cfg = refined(make_config()) if refine else make_config()
    report = pipeline.run_pipeline(cfg, tmp_path)
    # a refined run also samples and summarizes its integer beta; only the
    # run with sensors reports on those intervals
    files = files | (INTEGER_ARTIFACTS if refine else set())
    if refine and "sensors.csv" in files:
        keys = keys | INTEGER_REPORT_KEYS
    assert {p.name for p in tmp_path.iterdir()} == COMMON_ARTIFACTS | files
    assert set(report) == COMMON_REPORT_KEYS | keys
    assert set(json.loads((tmp_path / "report.json").read_text())) == set(report)


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("make_config", [tiny_ex1_config, tiny_ex2_config,
                                         tiny_ex3_config])
def test_worker_count_changes_no_artifact(make_config, refine, tmp_path, monkeypatch):
    # the sampler, the kernels and the objective's gaps split each batch
    # into one piece per worker; 3 workers make uneven pieces, and can make
    # more helper pieces than the helper pool has threads
    cfg = refined(make_config()) if refine else make_config()
    runs = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(sampling, "_WORKERS", workers)
        out = tmp_path / str(workers)
        pipeline.run_pipeline(cfg, out)
        runs[workers] = {p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "timings.json"}
    for workers in (2, 3):
        assert runs[workers].keys() == runs[1].keys()
        for name, data in runs[1].items():
            assert runs[workers][name] == data, (workers, name)


# the names that perfbench/tracer.py wraps and the pipeline calls, by owner
_TRACED_NAMES = {
    pipeline: ("stage_train", "stage_sample", "stage_predict", "stage_report",
               "compact_svd", "train_integer_beta", "refine_beta_real",
               "summarize_matrix", "save_matrix", "write_csv", "write_json",
               "load_matrix", "read_csv", "read_json", "batch_fractional_draws",
               "_cubic_newton_batch", "_linear_qoi_predictions",
               "_dynamic_qoi_predictions"),
    **{driver: ("snapshots", "references", "draw_ensembles", "integer_evaluator")
       for driver in pipeline._DRIVERS.values()},
    rom: ("solve_nonlinear_cubic", "newmark_integrate", "galerkin_reduce"),
    sp.RandomStream: ("normal_matrix",),
}


# the traced names that a problem kind's run does not call
_UNREACHED = {
    "cubic-parametric": {"_linear_qoi_predictions", "_dynamic_qoi_predictions",
                         "newmark_integrate", "galerkin_reduce"},
    "linear-static-experiment": {"_cubic_newton_batch", "_dynamic_qoi_predictions",
                                 "solve_nonlinear_cubic", "newmark_integrate"},
    "surrogate-dynamics": {"_cubic_newton_batch", "_linear_qoi_predictions",
                           "solve_nonlinear_cubic"},
}


@pytest.mark.parametrize("make_config", [tiny_ex1_config, tiny_ex2_config,
                                         tiny_ex3_config])
def test_only_the_calling_thread_enters_the_traced_names(make_config, tmp_path,
                                                         monkeypatch):
    # the benchmark's tracer wraps these names and keeps one span stack per
    # process: a call from a helper thread would corrupt its counts
    monkeypatch.setattr(sampling, "_WORKERS", 3)
    threads = {}        # name -> the threads that entered it

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    def objectives(name, fn):
        # the tracer times the objective that integer_evaluator returns
        return lambda *args, **kwargs: recorded(name, fn(*args, **kwargs))

    for owner, names in _TRACED_NAMES.items():
        for name in names:
            wrap = objectives if name == "integer_evaluator" else recorded
            monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    cfg = refined(make_config())
    pipeline.run_pipeline(cfg, tmp_path)
    assert set(threads) == ({n for names in _TRACED_NAMES.values() for n in names}
                            - _UNREACHED[cfg.problem["kind"]])
    assert all(entered == {threading.get_ident()} for entered in threads.values()), threads


# ---------------------------------------------------------------------------
# batched kernels against the per-draw rom reference


def ensemble_inputs(cfg, k):
    """Driver, spectrum scales, modes and references of a tiny config."""
    driver = pipeline.make_driver(cfg)
    snapshots = driver.snapshots()
    pod = sp.compact_svd(sp.center(snapshots))
    scales = pod.singular_values / np.sqrt(snapshots.shape[1])
    return driver, scales, pod.modes, driver.references(pod.modes, k, snapshots)


def test_batched_linear_kernel_matches_rom():
    driver, scales, modes, _ = ensemble_inputs(tiny_ex2_config(), 3)
    model = sp.StochasticSubspaceModel(scales, 3, 7)
    draws = sp.batch_fractional_draws(model, 123, range(32))
    staged = rom.galerkin_reduce(driver.system, modes)
    idx = np.array([10, 40, 77])
    batched = pipeline._linear_qoi_predictions(
        draws, staged.stiffness, staged.force, modes[idx])
    looped = np.stack([
        (modes[idx] @ u) @ rom.solve_linear_static(rom.inner_reduce(staged, u))
        for u in draws])
    scale = np.max(np.abs(looped))
    assert np.max(np.abs(batched - looped)) <= 1e-11 * scale


def looped_series(staged, draws, modes, series, dt, t_end):
    """The kernel's outputs, one ``rom.newmark_integrate`` run per draw."""
    fields = ("states", "velocities", "accelerations")
    out = []
    for u in draws:
        traj = rom.newmark_integrate(rom.inner_reduce(staged, u), dt, t_end)
        out.append([(modes[dof] @ u) @ getattr(traj, fields[order])
                    for dof, order in series])
    return np.array(out)


def test_batched_dynamic_kernel_matches_rom():
    driver, scales, modes, _ = ensemble_inputs(tiny_ex3_config(), 5)
    model = sp.StochasticSubspaceModel(scales, 5, 8)
    draws = sp.batch_fractional_draws(model, 55, range(12))
    staged = rom.galerkin_reduce(driver.system, modes)
    velocity = [(driver.qoi_dof, 1)]
    series = pipeline._dynamic_qoi_predictions(
        draws, staged, modes, driver.dt, driver.steps, velocity)
    looped = looped_series(staged, draws, modes, velocity, driver.dt, driver.t_end)[:, 0]
    scale = np.max(np.abs(looped))
    assert series.shape == (12, 1, driver.steps + 1)
    assert np.max(np.abs(series[:, 0] - looped)) <= 1e-9 * scale


# the load acts on steps 1..37 (37 is no multiple of the block length of
# four series, 16), on every step, or on none (all steps are free phase)
@pytest.mark.parametrize("loaded_steps", [37, 300, 0])
def test_dynamic_kernel_free_phase_matches_rom(loaded_steps):
    n, r, k, count, steps, dt = 12, 8, 5, 6, 300, 0.002
    chain = surrogate_dynamics(SurrogateSpec(n=n, rayleigh_beta=1e-3))
    gen = np.random.default_rng(loaded_steps)
    times = np.arange(steps + 1) * dt
    load = np.zeros((steps + 1, n))
    if loaded_steps:
        load[:loaded_steps + 1, n // 2] = 2.0 + np.sin(40.0 * times[:loaded_steps + 1])
    # a rigid-body velocity: the free-free chain drifts
    v0 = 0.1 + 0.01 * gen.normal(size=n)
    system = rom.LinearDynamicSystem(chain.mass, chain.damping, chain.stiffness,
                                     load, (0.01 * gen.normal(size=n), v0))
    # the rigid-body translation, the kernel of K, lies in every draw's span
    modes = np.linalg.qr(np.column_stack([np.ones(n), gen.normal(size=(n, r - 1))]))[0]
    first = np.broadcast_to(np.eye(r)[:, :1], (count, r, 1))
    draws = np.linalg.qr(np.concatenate(
        [first, gen.normal(size=(count, r, k - 1))], axis=2))[0]
    staged = rom.galerkin_reduce(system, modes)
    series = [(3, 0), (5, 1), (8, 2), (0, 1)]
    got = pipeline._dynamic_qoi_predictions(draws, staged, modes, dt, steps, series)
    expected = looped_series(staged, draws, modes, series, dt, steps * dt)
    assert got.shape == (count, len(series), steps + 1)
    assert np.ptp(expected[:, 0], axis=1).min() > 1e-3       # displacement drifts
    for j in range(len(series)):
        scale = np.max(np.abs(expected[:, j]))
        assert np.max(np.abs(got[:, j] - expected[:, j])) <= 1e-9 * scale, j


def test_dynamic_kernel_conserves_energy():
    # the kernel-level form of acceptance criterion 8: undamped and unloaded,
    # so every step is a power of the one-step map
    n, steps, dt = 4, 1000, 0.01
    gen = np.random.default_rng(8)
    a = gen.normal(size=(n, n))
    stiff = a @ a.T + n * np.eye(n)
    mass = np.diag(gen.uniform(1.0, 2.0, n))
    system = rom.LinearDynamicSystem(mass, np.zeros((n, n)), stiff,
                                     np.zeros((steps + 1, n)),
                                     (gen.normal(size=n), gen.normal(size=n)))
    staged = rom.galerkin_reduce(system, np.eye(n))
    series = [(dof, 0) for dof in range(n)] + [(dof, 1) for dof in range(n)]
    out = pipeline._dynamic_qoi_predictions(np.eye(n)[None], staged, np.eye(n),
                                            dt, steps, series)[0]
    x, v = out[:n], out[n:]
    energy = 0.5 * np.einsum("it,ij,jt->t", v, mass, v) \
        + 0.5 * np.einsum("it,ij,jt->t", x, stiff, x)
    assert np.max(np.abs(energy - energy[0])) / energy[0] <= 1e-8


def test_cubic_ensemble_matches_rom_newton():
    k = 4
    driver, scales, modes, refs = ensemble_inputs(tiny_ex1_config(), k)
    beta = 6.5
    got = driver.draw_ensembles(scales, k, modes, refs, {"primary": beta}, 20, 31)
    draws = sp.batch_fractional_draws(sp.StochasticSubspaceModel(scales, k, beta),
                                      31, range(20))
    for row, u in zip(got["primary"], draws):
        w = modes @ u
        q = rom.solve_rom_nonlinear(w, driver.system, driver.mu_test,
                                    guess=w.T @ refs["rom"], tol=driver.newton_tol,
                                    max_iter=driver.newton_max_iter)
        expected = w @ q
        assert np.max(np.abs(row - expected)) <= 1e-9 * np.max(np.abs(expected))


def kernel_at_mode(driver, modes, k):
    """Reference key -> the driver's kernel at the identity inner draw."""
    draw = np.eye(modes.shape[1])[None, :, :k]
    if isinstance(driver, pipeline.CubicDriver):
        forces = np.stack([driver.system.force_map(mu)
                           for mu in (*driver.params, driver.mu_test)])
        x = driver._kernel(modes, forces, np.zeros_like(forces))(draw, [0])[0]
        return {"train_rom": x[:, :-1], "rom": x[:, -1]}
    if isinstance(driver, pipeline.ExperimentDriver):
        red = rom.galerkin_reduce(driver.system, modes)
        return {"rom": pipeline._linear_qoi_predictions(draw, red.stiffness, red.force,
                                                        modes)[0]}
    spec = driver.series_spec()
    red = rom.galerkin_reduce(driver.system, modes)
    out = pipeline._dynamic_qoi_predictions(draw, red, modes, driver.dt, driver.steps,
                                            list(spec.values()))[0]
    return {pipeline._named("rom", name): out[j] for j, name in enumerate(spec)}


def library_rom(driver, modes, k):
    """The same curves from the per-draw library solvers on modes[:, :k]."""
    basis = modes[:, :k]
    if isinstance(driver, pipeline.CubicDriver):
        def solve(mu):
            return basis @ rom.solve_rom_nonlinear(basis, driver.system, mu,
                                                   tol=driver.newton_tol,
                                                   max_iter=driver.newton_max_iter)
        return {"train_rom": np.column_stack([solve(mu) for mu in driver.params]),
                "rom": solve(driver.mu_test)}
    if isinstance(driver, pipeline.ExperimentDriver):
        reduced = rom.galerkin_reduce(driver.system, basis)
        return {"rom": basis @ rom.solve_linear_static(reduced)}
    traj = rom.newmark_integrate(rom.galerkin_reduce(driver.system, basis),
                                 driver.dt, driver.t_end)
    fields = ("states", "velocities", "accelerations")
    return {pipeline._named("rom", name): basis[dof] @ getattr(traj, fields[order])
            for name, (dof, order) in driver.series_spec().items()}


@pytest.mark.parametrize("make_config,k", [(tiny_ex1_config, 4), (tiny_ex2_config, 3),
                                           (tiny_ex3_config, 6)])
def test_references_are_the_kernel_at_the_mode(make_config, k):
    # the deterministic ROM is the ensemble kernel at the draw whose basis is
    # modes[:, :k], and it agrees with the per-draw library solvers
    driver, _, modes, refs = ensemble_inputs(make_config(), k)
    kernel = kernel_at_mode(driver, modes, k)
    library = library_rom(driver, modes, k)
    assert kernel.keys() == library.keys()
    for key, values in kernel.items():
        assert np.array_equal(refs[key], values), key
        # per series: each column of train_rom is one training parameter
        peak = np.max(np.abs(library[key]), axis=0)
        assert np.all(np.max(np.abs(refs[key] - library[key]), axis=0)
                      <= 1e-9 * peak), key


@pytest.mark.parametrize("make_config,k", [(tiny_ex1_config, 4), (tiny_ex2_config, 3),
                                           (tiny_ex3_config, 6)])
def test_ensemble_independent_of_chunking(make_config, k):
    driver, scales, modes, refs = ensemble_inputs(make_config(), k)
    betas = {"primary": k + 2.5, "integer": float(k + 1)}
    whole = driver.draw_ensembles(scales, k, modes, refs, betas, 10, 77, chunk=10)
    split = driver.draw_ensembles(scales, k, modes, refs, betas, 10, 77, chunk=3)
    assert whole.keys() == split.keys()
    for name in whole:
        assert np.array_equal(whole[name], split[name]), name


@pytest.mark.parametrize("make_config,k,count", [(tiny_ex1_config, 4, 120),
                                                 (tiny_ex2_config, 3, 300),
                                                 (tiny_ex3_config, 6, 120)])
def test_objective_independent_of_chunking(make_config, k, count):
    driver, scales, modes, refs = ensemble_inputs(make_config(), k)
    whole = driver.integer_evaluator(scales, k, modes, refs, count, 77, chunk=count)
    split = driver.integer_evaluator(scales, k, modes, refs, count, 77, chunk=7)
    for beta in (k + 1, k + 2.5):
        assert whole(beta) == split(beta), beta


@pytest.mark.parametrize("make_config,k", [(tiny_ex1_config, 4), (tiny_ex2_config, 3),
                                           (tiny_ex3_config, 6)])
def test_ensemble_is_prefix_of_larger_count(make_config, k):
    driver, scales, modes, refs = ensemble_inputs(make_config(), k)
    betas = {"primary": k + 2.5}
    shorter = driver.draw_ensembles(scales, k, modes, refs, betas, 9, 77)
    longer = driver.draw_ensembles(scales, k, modes, refs, betas, 10, 77)
    for name in shorter:
        assert np.array_equal(shorter[name], longer[name][:9]), name


@pytest.mark.parametrize("make_config,k", [(tiny_ex1_config, 4), (tiny_ex2_config, 3),
                                           (tiny_ex3_config, 6)])
def test_kernels_ignore_the_signs_of_a_draws_columns(make_config, k, monkeypatch):
    # a draw is a subspace: flipping the signs of its basis columns moves
    # no bit of any kernel's predictions, in training or in sampling
    driver, scales, modes, refs = ensemble_inputs(make_config(), k)
    signs = np.random.default_rng(8).choice([-1.0, 1.0], size=(40, 1, k))
    sampler, batches = pipeline.batch_fractional_draws, []

    def flipped_sampler(model, z, indices):
        batches.append(indices)
        return sampler(model, z, indices) * signs[list(indices)]

    def outputs():
        objective = driver.integer_evaluator(scales, k, modes, refs, 40, 77)
        return ([objective(beta) for beta in (k, k + 1.5)],
                driver.draw_ensembles(scales, k, modes, refs, {"primary": k + 2.5}, 40, 77))

    plain = outputs()
    monkeypatch.setattr(pipeline, "batch_fractional_draws", flipped_sampler)
    flipped = outputs()
    assert batches
    assert plain[0] == flipped[0]
    for name in plain[1]:
        assert np.array_equal(plain[1][name], flipped[1][name]), name


# the set-up of each kind's kernel, and the batched kernel it serves
_KERNEL_SETUP = {
    "cubic-parametric": ((pipeline.CubicDriver, "_kernel"), "_cubic_newton_batch"),
    "linear-static-experiment": ((rom, "galerkin_reduce"), "_linear_qoi_predictions"),
    "surrogate-dynamics": ((rom, "galerkin_reduce"), "_dynamic_qoi_predictions"),
}


@pytest.mark.parametrize("make_config", [tiny_ex1_config, tiny_ex2_config,
                                         tiny_ex3_config])
def test_each_loop_sets_up_its_kernel_once(make_config, tmp_path, monkeypatch):
    # every loop runs in chunks of 7 draws, far fewer than its count: a
    # set-up made per chunk would be counted per chunk
    cfg = refined(make_config())
    (owner, setup_name), kernel_name = _KERNEL_SETUP[cfg.problem["kind"]]
    driver = pipeline._DRIVERS[cfg.problem["kind"]]
    entered = []                # the driver methods, in call order
    setups, kernels = [], []    # per set-up or kernel call, the method it ran in
    holders = []                # per kernel call, its loop and its last argument

    def counted(fn, into):
        def wrapper(*args, **kwargs):
            into.append(entered[-1])
            if into is kernels:
                holders.append((len(entered), args[-1]))
            return fn(*args, **kwargs)
        return wrapper

    def entry(name, method):
        chunk = {} if name == "references" else {"chunk": 7}

        def wrapper(self, *args, **kwargs):
            entered.append(name)
            return method(self, *args, **kwargs, **chunk)
        return wrapper

    monkeypatch.setattr(owner, setup_name, counted(getattr(owner, setup_name), setups))
    monkeypatch.setattr(pipeline, kernel_name,
                        counted(getattr(pipeline, kernel_name), kernels))
    for name in ("references", "integer_evaluator", "draw_ensembles"):
        monkeypatch.setattr(driver, name, entry(name, getattr(driver, name)))
    pipeline.run_pipeline(cfg, tmp_path)
    # the integer loop, then the refinement's; the sample stage draws both betas
    assert entered == ["references", "integer_evaluator", "integer_evaluator",
                       "draw_ensembles"]
    assert setups == entered
    assert kernels.count("draw_ensembles") == 2 * math.ceil(cfg.ensemble.count / 7)
    assert kernels.count("integer_evaluator") > 2 * math.ceil(
        cfg.training["refinement"]["mc_samples"] / 7)
    if kernel_name == "_cubic_newton_batch":
        # one holder of the Newton buffers per loop, kept across its chunks
        per_loop = {}
        for loop, holder in holders:
            assert per_loop.setdefault(loop, holder) is holder, loop
        assert len({id(holder) for holder in per_loop.values()}) == len(entered)


# ---------------------------------------------------------------------------
# one block of streams per Monte-Carlo loop

# widening, narrowing, repeated, integer and fractional
CACHE_WALK = (4, 7.5, 3.25, 9, 9, 5.5, 11.75, 2, 6)
CACHE_SCALES = np.array([3.0, 2.0, 1.2, 0.7, 0.4, 0.2])


def fresh_draws(beta, seed, count):
    model = sp.StochasticSubspaceModel(CACHE_SCALES, 2, float(beta))
    return sp.batch_fractional_draws(model, seed, range(count))


def test_cached_objective_matches_fresh_draws():
    count, chunk, seed = 23, 5, 17       # the chunk does not divide the count
    weights = np.arange(1.0, 13.0).reshape(6, 2)

    def predict(draws, indices):
        return np.sum(draws * weights, axis=(1, 2))[:, None]

    # the distance of a one-element prediction to 0 is its magnitude,
    # sqrt(x * x) == |x| exactly, so each gap is the square of the sum
    objective = pipeline._mc_objective(CACHE_SCALES, 2, seed, count, chunk, predict,
                                       np.zeros(1), 0.0)
    for beta in CACHE_WALK:
        sums = predict(fresh_draws(beta, seed, count), None)[:, 0]
        expected = float(np.sum(sums**2)) / count
        assert objective(beta) == expected, beta


def test_cached_ensembles_match_fresh_draws():
    count, chunk, seed = 23, 5, 29
    betas = {f"b{j}": float(beta) for j, beta in enumerate(CACHE_WALK)}
    ensembles = pipeline._mc_draws(CACHE_SCALES, 2, seed, count, chunk,
                                   lambda draws, indices, out: np.copyto(out, draws), (6, 2))
    got = {name: ensembles(beta) for name, beta in betas.items()}
    for name, beta in betas.items():
        assert np.array_equal(got[name], fresh_draws(beta, seed, count)), name


def test_objective_generates_each_stream_once(monkeypatch):
    calls = []
    normal_matrix = sp.RandomStream.normal_matrix

    def counted(stream, *args):
        calls.append(stream.stream_index)
        return normal_matrix(stream, *args)

    monkeypatch.setattr(sp.RandomStream, "normal_matrix", counted)
    count = 23
    objective = pipeline._mc_objective(CACHE_SCALES, 2, 3, count, 5,
                                       lambda draws, indices: draws[:, 0],
                                       np.zeros(2), 0.0)
    for beta in (9.5, 10, 9, 7.25, 5, 5, 2):     # widths 10, 10, 9, 8, 5, 5, 2
        objective(beta)
    assert sorted(calls) == list(range(count))
    # a wider beta regenerates every held stream once more
    objective(12)
    assert sorted(calls[count:]) == list(range(count))


def test_first_fill_at_the_widest_beta_serves_narrower_betas(monkeypatch):
    # a loop that knows its widest beta fills its block once, at that width
    count, walk = 10, (4.5, 6.25, 3, 7, 7.5)
    expected = {beta: fresh_draws(beta, 42, count) for beta in walk}
    calls = []
    normal_matrix = sp.RandomStream.normal_matrix

    def counted(stream, *args):
        calls.append(stream.stream_index)
        return normal_matrix(stream, *args)

    monkeypatch.setattr(sp.RandomStream, "normal_matrix", counted)
    draws = pipeline._mc_draws(CACHE_SCALES, 2, 42, count, 4,
                               lambda draws, indices, out: np.copyto(out, draws), (6, 2),
                               widest=7)
    for beta in walk:
        assert np.array_equal(draws(beta), expected[beta]), beta
        fills = 1 if beta <= 7 else 2
        assert sorted(calls) == sorted(list(range(count)) * fills), beta


def test_loop_holds_one_result_and_one_chunks_temporaries():
    # each chunk writes its rows of the loop's one result: no list of
    # chunk outputs and no concatenated copy of them
    count, chunk = 2000, 250
    lift = np.random.default_rng(0).normal(size=(2, 40))
    draws = pipeline._mc_draws(CACHE_SCALES, 2, 3, count, chunk,
                               lambda u, indices, out: np.copyto(out, np.matmul(u, lift)),
                               (6, 40))
    draws(2.5)                                   # fills the stream block
    tracemalloc.start()
    try:
        result = draws(2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk_rows = result[:chunk].nbytes           # the kernel's one temporary
    assert peak <= result.nbytes + 2 * chunk_rows


def test_integer_loop_streams_are_freed_before_the_refinement(tmp_path, monkeypatch):
    blocks = []
    alive = []
    normals = pipeline._normals
    refine = pipeline.refine_beta_real

    def recorded(*args):
        block = normals(*args)
        blocks.append(weakref.ref(block))
        return block

    def checked_refine(*args):
        alive.extend(ref() is not None for ref in blocks)
        return refine(*args)

    monkeypatch.setattr(pipeline, "_normals", recorded)
    monkeypatch.setattr(pipeline, "refine_beta_real", checked_refine)
    pipeline.stage_train(refined(tiny_ex2_config()), tmp_path)
    assert alive and not any(alive)


def test_refinement_generates_each_stream_once(tmp_path, monkeypatch):
    # the refinement's streams are filled once, at the width of the top of
    # its window, however many widths its betas need
    calls = []
    normal_matrix = sp.RandomStream.normal_matrix
    refine = pipeline.refine_beta_real
    seen = {}

    def counted(stream, *args):
        calls.append(stream.stream_index)
        return normal_matrix(stream, *args)

    def counted_refine(*args):
        start = len(calls)
        result = refine(*args)
        seen["streams"] = sorted(calls[start:])
        seen["widths"] = {math.ceil(beta) for beta, _ in result.trace}
        return result

    monkeypatch.setattr(sp.RandomStream, "normal_matrix", counted)
    monkeypatch.setattr(pipeline, "refine_beta_real", counted_refine)
    cfg = refined(tiny_ex2_config())
    pipeline.stage_train(cfg, tmp_path)
    assert len(seen["widths"]) > 1
    assert seen["streams"] == list(range(cfg.training["refinement"]["mc_samples"]))


@pytest.mark.parametrize("make_config", [lambda: refined(tiny_ex2_config()),
                                         tiny_ex3_config], ids=["ex2-refined", "ex3"])
def test_sample_stage_frees_its_driver_before_it_writes(tmp_path, monkeypatch,
                                                       make_config):
    # the driver's operators are not held while the ensembles are written
    cfg = make_config()
    pipeline.stage_train(cfg, tmp_path)
    drivers = []
    alive = []
    make = pipeline.make_driver
    save = pipeline.save_matrix

    def recorded(config):
        driver = make(config)
        drivers.append(weakref.ref(driver))
        return driver

    def checked_save(*args):
        alive.extend(ref() is not None for ref in drivers)
        return save(*args)

    monkeypatch.setattr(pipeline, "make_driver", recorded)
    monkeypatch.setattr(pipeline, "save_matrix", checked_save)
    pipeline.stage_sample(cfg, tmp_path)
    assert len(drivers) == 1
    assert alive and not any(alive)


def test_per_parameter_objective_is_mean_of_parameter_gaps():
    # per-parameter aggregation: one distance gap per training parameter,
    # averaged over the parameters and then over the draws
    doc = tiny_ex1_config().canonical_dict()
    doc["training"]["parametric_aggregation"] = "per-parameter"
    cfg = parse_config(doc)
    k, count, seed, beta = 4, 30, 77, 6.5
    driver, scales, modes, refs = ensemble_inputs(cfg, k)
    assert driver.aggregation == "per-parameter"
    rom_train, truth = refs["train_rom"], refs["train_truth"]
    forces = np.stack([driver.system.force_map(mu) for mu in driver.params])
    model = sp.StochasticSubspaceModel(scales, k, beta)
    draws = sp.batch_fractional_draws(model, seed, range(count))
    pred = driver._kernel(modes, forces, rom_train.T)(draws, range(count))
    gaps = [[(np.linalg.norm(pred[d, :, p] - rom_train[:, p])
              - np.linalg.norm(truth[:, p] - rom_train[:, p]))**2
             for p in range(rom_train.shape[1])] for d in range(count)]
    expected = np.mean(gaps)
    value = driver.integer_evaluator(scales, k, modes, refs, count, seed)(beta)
    assert value == pytest.approx(expected, rel=1e-12)


def test_parametric_aggregation_default_agrees():
    cfg = tiny_ex1_config()
    assert "parametric_aggregation" not in cfg.training
    assert cfg.parametric_aggregation == pipeline.make_driver(cfg).aggregation
    assert cfg.parametric_aggregation == DEFAULT_PARAMETRIC_AGGREGATION


@pytest.mark.parametrize("make_config", [tiny_ex1_config, tiny_ex2_config,
                                         tiny_ex3_config])
def test_sample_stage_solves_no_references(make_config, tmp_path, monkeypatch):
    cfg = make_config()
    staged, whole = tmp_path / "staged", tmp_path / "whole"
    pipeline.run_pipeline(cfg, whole)
    pipeline.stage_train(cfg, staged)

    def refuse(*args, **kwargs):
        raise AssertionError("references solved after the train stage")

    def construct(*args, **kwargs):
        raise AssertionError("driver constructed after the sample stage")

    for driver in pipeline._DRIVERS.values():
        monkeypatch.setattr(driver, "references", refuse)
    pipeline.stage_sample(cfg, staged)
    # predict and report read what a driver writes from its class
    monkeypatch.setattr(pipeline, "make_driver", construct)
    for driver in pipeline._DRIVERS.values():
        monkeypatch.setattr(driver, "__init__", construct)
    pipeline.stage_predict(cfg, staged)
    pipeline.stage_report(cfg, staged)
    names = sorted(p.name for p in whole.iterdir() if p.name != "timings.json")
    assert names == sorted(p.name for p in staged.iterdir())
    for name in names:
        assert (whole / name).read_bytes() == (staged / name).read_bytes(), name


def test_problem_defaults_fill_omitted_fields():
    cubic = tiny_ex1_config()
    experiment = parse_config({
        "problem": {"kind": "linear-static-experiment", "n": 100},
        "pod": {"k": 3}, "ensemble": {"count": 10, "seed": 1}})
    surrogate = parse_config({
        "problem": {"kind": "surrogate-dynamics", "n": 40, "dt": 0.005,
                    "t_end": 0.1, "qoi_dof": 10},
        "pod": {"k": 3}, "ensemble": {"count": 10, "seed": 1}})
    configs = (cubic, experiment, surrogate)
    before = [(cfg.config_hash(), dict(cfg.problem)) for cfg in configs]

    d = pipeline.make_driver(cubic)
    assert (d.newton_tol, d.newton_max_iter) == (1e-10, 50)
    d = pipeline.make_driver(experiment)
    assert (d.ratio, d.noise_level, d.sensor_count, d.snapshot_count,
            d.snapshot_force) == (0.15, 0.05, 19, 100, "nominal")
    assert d.force_weights.tolist() == [0.5, 0.5, 0.5, 0.5, 1.0]
    d = pipeline.make_driver(surrogate)
    assert d.stride == 4
    assert d.spec == SurrogateSpec(n=40)
    assert (d.spec.mass_ratio, d.spec.stiffness_scale, d.spec.rayleigh_beta,
            d.spec.impulse_amplitude, d.spec.impulse_duration,
            d.spec.structure_seed) == (100.0, 1.0e4, 2.0e-4, 1.0, 0.05, 60301)
    # the settings name every field of the kind's table; an omitted
    # structure field is the SurrogateSpec default, an omitted alt_dof None
    for cfg in configs:
        kind, n = cfg.problem["kind"], cfg.problem["n"]
        assert set(cfg.problem_settings) == {"kind", "n", *config._problem_fields(kind, n)}
    settings = surrogate.problem_settings
    assert settings["alt_dof"] is None and d.alt_dof == 10 + 40 // 3
    for field in dataclasses.fields(SurrogateSpec):
        if field.name != "n":
            assert settings[field.name] == field.default, field.name
    # the defaults are never written into the config, so its hash is unchanged
    assert [(cfg.config_hash(), cfg.problem) for cfg in configs] == before


def test_each_problem_kind_has_one_driver():
    assert set(config.PROBLEM_KINDS) == set(pipeline._DRIVERS)


def test_energy_threshold_picks_the_smallest_rank_that_reaches_it(tmp_path):
    doc = tiny_ex1_config().canonical_dict()      # its 16 snapshots have rank 16
    doc["pod"] = {"energy_threshold": 0.99}
    model = pipeline.stage_train(parse_config(doc), tmp_path)
    energy = np.cumsum(read_csv(tmp_path / "pod_spectrum.csv")["singular_value"]**2)
    reached = [k for k in range(1, energy.size + 1) if energy[k - 1] >= 0.99 * energy[-1]]
    assert model["k"] == reached[0]
    assert 1 < model["k"] < energy.size


def test_raw_pod_source_overrides_the_centered_default(tmp_path):
    # the experiment's POD is of the centered snapshots unless pod.source says
    doc = tiny_ex2_config().canonical_dict()
    doc["pod"] = {**doc["pod"], "source": "raw"}
    model = pipeline.stage_train(parse_config(doc), tmp_path)
    assert model["pod_source"] == "raw"
    assert json.loads((tmp_path / "model.json").read_text())["pod_source"] == "raw"
    snapshots = load_matrix(tmp_path / "snapshots.bin")
    modes = load_matrix(tmp_path / "pod_modes.bin")
    assert np.array_equal(modes, sp.compact_svd(snapshots).modes)
    centered = sp.compact_svd(sp.center(snapshots)).modes
    assert not np.allclose(np.abs(modes[:, :3]), np.abs(centered[:, :3]))


def test_tracing_entry_points_stay_looked_up_by_name(monkeypatch):
    # the benchmark's tracer wraps these by name on each driver class and
    # on the pipeline module; a method moved to a base class or a kernel
    # renamed would silently read zero in its per-layer metrics
    for driver in pipeline._DRIVERS.values():
        for name in ("snapshots", "references", "integer_evaluator", "draw_ensembles"):
            assert name in vars(driver), (driver.__name__, name)
    for name in ("_cubic_newton_batch", "_linear_qoi_predictions",
                 "_dynamic_qoi_predictions", "batch_fractional_draws"):
        assert callable(vars(pipeline).get(name)), name
    # sampling.streams and sampling.stream_s wrap the class attribute
    # RandomStream.normal_matrix, and sampling.draws the module global
    # pipeline.batch_fractional_draws: both must be looked up at call time
    seen = {"streams": 0, "batches": 0}
    normal_matrix = sp.RandomStream.normal_matrix
    batch = pipeline.batch_fractional_draws

    def counted_streams(stream, *args):
        seen["streams"] += 1
        return normal_matrix(stream, *args)

    def counted_batches(*args):
        seen["batches"] += 1
        return batch(*args)

    monkeypatch.setattr(sp.RandomStream, "normal_matrix", counted_streams)
    monkeypatch.setattr(pipeline, "batch_fractional_draws", counted_batches)
    pipeline._mc_objective(CACHE_SCALES, 2, 5, 7, 3, lambda draws, indices: draws[:, 0],
                           np.zeros(2), 0.0)(4.5)
    assert seen == {"streams": 7, "batches": 3}
    pipeline._mc_draws(CACHE_SCALES, 2, 5, 7, 4,
                       lambda draws, indices, out: np.copyto(out, draws), (6, 2))(4.5)
    assert seen == {"streams": 14, "batches": 5}


def test_stage_reads_stay_looked_up_by_name(monkeypatch, tmp_path):
    # matrixio.read_s and matrixio.bytes_read wrap these module globals of
    # pipeline; a read table that bound them at import would read zero there
    cfg = refined(tiny_ex2_config())
    pipeline.stage_train(cfg, tmp_path)
    reads = []
    for name in ("load_matrix", "read_csv", "read_json"):
        def counted(path, reader=getattr(pipeline, name)):
            reads.append(path.name)
            return reader(path)
        monkeypatch.setattr(pipeline, name, counted)
    for stage, files in (
            (pipeline.stage_sample, ["model.json", "pod_modes.bin", "observations.csv"]),
            (pipeline.stage_predict, ["observations.csv", "model.json", "ensemble.bin",
                                      "ensemble_integer.bin"]),
            (pipeline.stage_report, ["model.json", "observations.csv", "summary.csv",
                                     "summary_integer.csv", "sensors.csv"])):
        reads.clear()
        stage(cfg, tmp_path)
        assert reads == files, stage.__name__


# ---------------------------------------------------------------------------
# seed derivation


def test_derived_seeds_are_distinct():
    seeds = {pipeline.derive_seed(7, p) for p in range(1, 40)}
    assert len(seeds) == 39


def test_derived_seeds_are_deterministic():
    assert pipeline.derive_seed(123, 11) == pipeline.derive_seed(123, 11)
    assert pipeline.derive_seed(123, 11) != pipeline.derive_seed(124, 11)
