import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stochpod import cli
from stochpod.matrixio import artifact_hash, load_matrix, save_matrix


TINY_EXPERIMENT = {
    "problem": {"kind": "linear-static-experiment", "n": 100,
                "snapshot_count": 20, "sensor_count": 9},
    "pod": {"k": 3},
    "training": {"mc_samples": 60},
    "ensemble": {"count": 80, "level": 0.95, "seed": 5},
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY_EXPERIMENT, "output_dir": str(tmp_path / "out")}))
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_run_completes_and_writes_report(tiny_config, tmp_path, capsys):
    assert run_cli("run", "--config", tiny_config) == 0
    out = tmp_path / "out"
    for name in ("snapshots.bin", "pod_modes.bin", "pod_spectrum.csv",
                 "model.json", "training_trace.csv", "observations.csv",
                 "sensors.csv", "ensemble.bin", "summary.csv", "report.json",
                 "timings.json"):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["coverage"] <= 1.0
    assert report["config_hash"]
    assert json.loads(capsys.readouterr().out) == {
        "beta_star": report["beta_star"], "coverage": report["coverage"],
        "mean_pi_width": report["mean_pi_width"], "output_dir": str(out)}


@pytest.mark.parametrize("command,line", [("run", "beta*="),
                                          ("train", "trained beta_integer="),
                                          ("sample", "ensembles: "),
                                          ("predict", "summaries: summary.csv"),
                                          ("report", "coverage=")])
def test_verbose_logs_one_line_and_leaves_stdout(tiny_config, capsys, command, line):
    stages = ("train", "sample", "predict", "report")
    for stage in stages[:stages.index(command)] if command in stages else ():
        assert run_cli(stage, "--config", tiny_config) == 0
    capsys.readouterr()
    outputs = []
    for flags in ((), ("--verbose",)):
        assert run_cli(command, "--config", tiny_config, *flags) == 0
        outputs.append(capsys.readouterr())
    quiet, verbose = outputs
    assert quiet.err == ""
    assert verbose.err.startswith(line) and verbose.err.count("\n") == 1
    assert json.loads(verbose.out) == json.loads(quiet.out)


def test_module_entry_point_runs_from_source(tiny_config, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "stochpod", "run", "--config",
                           str(tiny_config)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["output_dir"] == str(tmp_path / "out")
    assert (tmp_path / "out" / "report.json").exists()


def test_runs_of_every_problem_kind_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests alone
    docs = {
        "cubic": {"problem": {"kind": "cubic-parametric", "n": 80, "alpha": 1.0e4,
                              "snapshot_count": 16,
                              "mu_test": [0.5, 0.5, 0.5, 0.5, 1.0]},
                  "pod": {"k": 4}, "training": {"mc_samples": 80},
                  "ensemble": {"count": 200, "level": 0.95, "seed": 21}},
        "experiment": TINY_EXPERIMENT,
        "dynamics": {"problem": {"kind": "surrogate-dynamics", "n": 40, "dt": 0.005,
                                 "t_end": 0.1, "qoi_dof": 10},
                     "pod": {"k": 3}, "training": {"mc_samples": 20},
                     "ensemble": {"count": 20, "level": 0.95, "seed": 1}},
    }
    paths = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / name)}))
        paths.append(str(path))
    script = "\n".join([
        "import json, sys",
        "import stochpod, stochpod.cli",
        "def scipy_modules():",
        "    print(json.dumps(sorted(m for m in sys.modules",
        "                            if m.split('.')[0] == 'scipy')))",
        "scipy_modules()",
        "for path in sys.argv[1:]:",
        "    assert stochpod.cli.main(['run', '--config', path]) == 0",
        "scipy_modules()"])
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-W", "error", "-c", script, *paths],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5      # the import, three runs, the runs' end
    assert json.loads(lines[0]) == [] and json.loads(lines[-1]) == []
    for name in docs:
        assert (tmp_path / name / "report.json").exists()


def test_malformed_config_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    assert run_cli("run", "--config", bad) == 2
    assert "line" in capsys.readouterr().err


def test_invalid_field_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "problem": {"kind": "linear-static-experiment", "n": 100},
        "pod": {},
        "ensemble": {"count": 50, "level": 0.95, "seed": 1},
    }))
    assert run_cli("run", "--config", bad) == 2
    assert "pod" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("qoi_dof", 400), ("alt_dof", 400),
                                         ("qoi_dof", -1), ("n", 9)])
def test_surrogate_index_out_of_range_exit_code_2(tmp_path, capsys, field, value):
    problem = {"kind": "surrogate-dynamics", "n": 40, "dt": 0.005, "t_end": 0.1,
               "qoi_dof": 10, field: value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "problem": problem, "pod": {"k": 3},
        "ensemble": {"count": 10, "level": 0.95, "seed": 1},
        "output_dir": str(tmp_path / "out"),
    }))
    assert run_cli("run", "--config", bad) == 2
    assert f"problem.{field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields,field", [
    ({"impulse_duration": 0.005}, "impulse_duration"),
    ({"dt": 0.05}, "impulse_duration"),          # the default duration is 0.05
    ({"impulse_amplitude": 0.0}, "impulse_amplitude"),
    ({"impulse_amplitude": float("inf")}, "impulse_amplitude"),
    ({"t_end": 0.004}, "t_end")])                # no step after t = 0
def test_zero_surrogate_load_exit_code_2(tmp_path, capsys, fields, field):
    # the load is sampled at t = 0, dt, ...; these configs make it zero at every step
    problem = {"kind": "surrogate-dynamics", "n": 40, "dt": 0.005, "t_end": 0.1,
               "qoi_dof": 10, **fields}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "problem": problem, "pod": {"k": 3},
        "ensemble": {"count": 10, "level": 0.95, "seed": 1},
        "output_dir": str(tmp_path / "out"),
    }))
    assert run_cli("run", "--config", bad) == 2
    assert f"'problem.{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,field,value", [
    ("ensemble", "level", "0.9"), ("training", "mc_samples", 2.7),
    ("training", "beta_max", 3), ("problem", "snapshot_count", 20.7),
    ("problem", "sensor_count", "9"), ("problem", "snapshot_countt", 3),
    ("problem", None, [1]), ("ensemble", None, 5), ("pod", None, "x"),
    ("problem", "force_weights", 5), ("problem", "force_weights", [1, None]),
    ("problem", "force_weights", [1.0] * 200),
    ("problem", "mu_test", [1, 2, 3, 4, None]), ("problem", "mu_test", [1, 2, 3, 4, True]),
    ("trainng", None, {"mc_samples": 7}), ("pod", "sorce", "raw"),
    ("ensemble", "levle", 0.9), ("output_dir", None, 5), ("ensemble", "seed", -3)])
def test_mistyped_or_out_of_range_field_exit_code_2(tiny_config, capsys,
                                                    section, field, value):
    # beta_max = k passes parsing and is refused once training knows k;
    # a field of None replaces the whole section (or the top-level key);
    # mu_test is a field of the cubic problem
    doc = json.loads(tiny_config.read_text())
    if field == "mu_test":
        doc["problem"] = {"kind": "cubic-parametric", "n": 40, "alpha": 1.0e4,
                          "snapshot_count": 8}
    if field is None:
        doc[section] = value
    else:
        doc[section][field] = value
    tiny_config.write_text(json.dumps(doc))
    assert run_cli("train", "--config", tiny_config) == 2
    path = section if field is None else f"{section}.{field}"
    assert f"'{path}'" in capsys.readouterr().err


def test_negative_seed_override_exit_code_2(tiny_config, capsys):
    assert run_cli("train", "--config", tiny_config, "--seed", -3) == 2
    assert "'ensemble.seed'" in capsys.readouterr().err


def test_unreadable_config_path_exit_code_2(tmp_path, capsys):
    assert run_cli("run", "--config", tmp_path) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_beta_max_refusal_writes_no_file(tiny_config, tmp_path):
    doc = json.loads(tiny_config.read_text())
    doc["training"]["beta_max"] = 3          # pod.k is 3
    tiny_config.write_text(json.dumps(doc))
    assert run_cli("train", "--config", tiny_config) == 2
    assert list((tmp_path / "out").glob("*")) == []


@pytest.mark.parametrize("ratio,draw", [(0.5, "the truth"), (0.31, "snapshot 7")])
def test_indefinite_perturbed_stiffness_exit_code_2(tiny_config, tmp_path, capsys,
                                                    ratio, draw):
    # at seed 5, a ratio of 0.5 gives the truth two eigenvalues <= 0; at 0.31
    # the truth's stiffness stays positive definite, and snapshot 7's is the
    # first of the snapshots' that does not
    doc = json.loads(tiny_config.read_text())
    doc["problem"]["perturbation_ratio"] = ratio
    tiny_config.write_text(json.dumps(doc))
    assert run_cli("run", "--config", tiny_config) == 2
    err = capsys.readouterr().err
    assert "'problem.perturbation_ratio'" in err
    assert f"the perturbed stiffness of {draw} has" in err
    assert list((tmp_path / "out").glob("*")) == []


def test_missing_config_file_exit_code_2(tmp_path):
    assert run_cli("run", "--config", tmp_path / "nope.json") == 2


def test_sample_before_train_exit_code_3(tiny_config, capsys):
    assert run_cli("sample", "--config", tiny_config) == 3
    assert "upstream" in capsys.readouterr().err


def test_refused_stage_creates_no_output_directory(tiny_config, tmp_path, capsys):
    # only train, the first writer, creates the output directory, and only
    # once the config is accepted
    for command in ("sample", "predict", "report"):
        assert run_cli(command, "--config", tiny_config, "--out", tmp_path / "nowhere") == 3
    assert not (tmp_path / "nowhere").exists()
    capsys.readouterr()
    # refused at the driver's set-up, by the training settings and by the POD
    accepted = tiny_config.read_text()
    for section, field, value in (("problem", "perturbation_ratio", 0.5),
                                  ("training", "beta_max", 2.0), ("training", "beta_max", 3.5),
                                  ("pod", "k", 30)):
        doc = json.loads(accepted)
        doc[section][field] = value
        tiny_config.write_text(json.dumps(doc))
        assert run_cli("train", "--config", tiny_config, "--out", tmp_path / "nowhere") == 2
        assert f"'{section}.{field}'" in capsys.readouterr().err
        assert not (tmp_path / "nowhere").exists(), field


@pytest.mark.parametrize("field,value", [
    pytest.param("scales", None, id="scales-missing"),
    pytest.param("problem_kind", None, id="problem_kind-missing"),
    pytest.param("objective_refined", None, id="objective_refined-missing"),
    pytest.param("scales", "1.0", id="scales-string"),
    pytest.param("scales", [], id="scales-empty"),
    pytest.param("scales", [1.0, "2"], id="scales-element"),
    pytest.param("k", 3.0, id="k-float"),
    pytest.param("k", True, id="k-bool"),
    pytest.param("beta_star", "12", id="beta_star-string"),
    pytest.param("objective_refined", "x", id="objective_refined-string"),
    pytest.param("problem_kind", "cubic", id="problem_kind-unknown"),
    pytest.param("problem_kind", [1], id="problem_kind-list"),
    pytest.param("problem_kind", "cubic-parametric", id="problem_kind-other"),
    pytest.param("k", 99, id="k-above-scales"),
    pytest.param("beta_star", 1.0, id="beta_star-below-k"),
    pytest.param("scales", [1.0, 2.0, 3.0], id="scales-increasing"),
    pytest.param("beta_integer", 0, id="beta_integer-below-k")])
def test_damaged_model_json_exit_code_3(tiny_config, tmp_path, capsys, field, value):
    # a model.json with this config's hash but a missing (None here),
    # mistyped or out-of-range field is refused by every stage that reads
    # it, naming both
    assert run_cli("train", "--config", tiny_config) == 0
    model = tmp_path / "out" / "model.json"
    doc = json.loads(model.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    for command in ("sample", "predict", "report"):
        assert run_cli(command, "--config", tiny_config) == 3, command
        err = capsys.readouterr().err
        assert str(model) in err and repr(field) in err, command
    assert not (tmp_path / "out" / "ensemble.bin").exists()


def test_stale_upstream_artifact_exit_code_3(tiny_config, tmp_path, capsys):
    # stages run with --seed 99 (another config hash) on artifacts made
    # without it refuse them and name the first stale file they read
    for command in ("train", "sample", "predict"):
        assert run_cli(command, "--config", tiny_config) == 0
    capsys.readouterr()
    for command, stale in (("sample", "model.json"), ("predict", "observations.csv"),
                           ("report", "model.json")):
        assert run_cli(command, "--config", tiny_config, "--seed", 99) == 3, command
        err = capsys.readouterr().err
        assert "stale" in err and str(tmp_path / "out" / stale) in err, command
    assert not (tmp_path / "out" / "report.json").exists()
    # an artifact that is not JSON has no config_hash to compare
    (tmp_path / "out" / "model.json").write_text("{")
    assert run_cli("sample", "--config", tiny_config) == 3
    assert str(tmp_path / "out" / "model.json") in capsys.readouterr().err


def _cut(size):
    return lambda path: path.write_bytes(path.read_bytes()[:size])


def _without_rows(path):
    doc = json.loads(path.read_text())
    del doc["rows"]
    path.write_text(json.dumps(doc))


def _float32_sidecar(path):
    doc = json.loads(path.read_text())
    doc["dtype"] = "float32"
    path.write_text(json.dumps(doc))


def _last_row(edit):
    def damage(path):
        lines = path.read_text().splitlines()
        lines[-1] = edit(lines[-1])
        path.write_text("\n".join(lines) + "\n")
    return damage


def _resaved(edit):
    # the matrix edited, the sidecar and its hash consistent
    def damage(path):
        save_matrix(path, edit(load_matrix(path)), artifact_hash(path))
    return damage


def _without_last_rows(count):
    def damage(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-count]) + "\n")
    return damage


def _without_column(name):
    def damage(path):
        stamp, header, *rows = path.read_text().splitlines()
        drop = header.split(",").index(name)
        kept = [",".join(c for j, c in enumerate(line.split(",")) if j != drop)
                for line in (header, *rows)]
        path.write_text("\n".join([stamp, *kept]) + "\n")
    return damage


def _first_cell(text):
    return _last_row(lambda row: text + row[row.index(","):])


def _directory(path):
    path.unlink()
    path.mkdir()


@pytest.mark.parametrize("command,name,damage", [
    pytest.param("predict", "ensemble.bin", _cut(100), id="ensemble-bin-cut"),
    pytest.param("predict", "ensemble.bin", _resaved(lambda m: m[:, :m.shape[1] * 3 // 4]),
                 id="ensemble-bin-narrow"),
    pytest.param("report", "summary.csv", _without_last_rows(30), id="summary-rows-cut"),
    pytest.param("predict", "ensemble.json", _without_rows, id="ensemble-sidecar-no-rows"),
    pytest.param("predict", "ensemble.json", _float32_sidecar,
                 id="ensemble-sidecar-float32"),
    pytest.param("predict", "observations.csv", _first_cell("abc"),
                 id="observations-text-cell"),
    pytest.param("report", "summary.csv", _last_row(lambda row: row.rsplit(",", 1)[0]),
                 id="summary-short-row"),
    pytest.param("sample", "pod_modes.bin", _cut(64), id="pod-modes-bin-cut"),
    # content that parses but does not fit the run
    pytest.param("sample", "pod_modes.bin", _resaved(lambda m: m[:, :-1]),
                 id="pod-modes-narrow"),
    pytest.param("sample", "pod_modes.bin", _resaved(lambda m: m[:-1]), id="pod-modes-short"),
    pytest.param("report", "sensors.csv", _first_cell("100"), id="sensors-index-off-grid"),
    pytest.param("report", "sensors.csv", _first_cell("-1"), id="sensors-index-negative"),
    pytest.param("predict", "observations.csv", _without_column("truth"),
                 id="observations-no-truth"),
    pytest.param("report", "summary.csv", _without_column("upper"), id="summary-no-upper"),
    pytest.param("sample", "observations.csv", _without_last_rows(10),
                 id="observations-rows-cut"),
    # a file that cannot be opened
    pytest.param("report", "summary.csv", _directory, id="summary-is-a-directory"),
    pytest.param("sample", "model.json", _directory, id="model-json-is-a-directory")])
def test_damaged_artifact_exit_code_3(tiny_config, tmp_path, capsys, command, name, damage):
    # an artifact with this config's hash that its stage cannot read, or
    # whose content does not fit the run, is refused like a stale one,
    # naming the file
    assert run_cli("run", "--config", tiny_config) == 0
    path = tmp_path / "out" / name
    damage(path)
    capsys.readouterr()
    assert run_cli(command, "--config", tiny_config) == 3
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [
    pytest.param("train", None, id="out-is-a-file"),
    pytest.param("sample", "ensemble.bin", id="ensemble-bin-is-a-directory"),
    pytest.param("report", "report.json", id="report-json-is-a-directory")])
def test_unwritable_artifact_exit_code_3(tiny_config, tmp_path, capsys, command, name):
    # a stage that cannot write its output directory or an artifact exits
    # 3, naming the path
    out = tmp_path / "out"
    if name is None:
        out.write_text("")
        path = out
    else:
        assert run_cli("run", "--config", tiny_config) == 0
        path = out / name
        _directory(path)
    capsys.readouterr()
    assert run_cli(command, "--config", tiny_config, "--out", out) == 3
    assert str(path) in capsys.readouterr().err


def test_sample_count_flag_is_refused(tiny_config, tmp_path, capsys):
    # the ensemble size is the config's: an override would write an
    # ensemble under the hash of a config that names another count
    assert run_cli("train", "--config", tiny_config) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli("sample", "--config", tiny_config, "--count", 7)
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "out" / "ensemble.bin").exists()


def test_stagewise_equals_run_byte_for_byte(tiny_config, tmp_path):
    out_run = tmp_path / "full"
    assert run_cli("run", "--config", tiny_config, "--out", out_run) == 0
    out_stage = tmp_path / "staged"
    for command in ("train", "sample", "predict", "report"):
        assert run_cli(command, "--config", tiny_config, "--out", out_stage) == 0
    names = sorted(p.name for p in out_run.iterdir())
    staged_names = sorted(p.name for p in out_stage.iterdir())
    assert [n for n in names if n != "timings.json"] == staged_names
    for name in staged_names:
        assert (out_run / name).read_bytes() == (out_stage / name).read_bytes(), name


def test_seed_override_changes_outputs(tiny_config, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("run", "--config", tiny_config, "--out", a) == 0
    assert run_cli("run", "--config", tiny_config, "--out", b, "--seed", 99) == 0
    assert (a / "ensemble.bin").read_bytes() != (b / "ensemble.bin").read_bytes()


def test_threads_flag_does_not_change_results(tiny_config, tmp_path):
    a = tmp_path / "t1"
    b = tmp_path / "t3"
    assert run_cli("run", "--config", tiny_config, "--out", a) == 0
    assert run_cli("run", "--config", tiny_config, "--out", b, "--threads", 3) == 0
    for name in ("ensemble.bin", "summary.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_numerical_failure_exit_code_4(tmp_path, capsys):
    doc = {
        "problem": {"kind": "cubic-parametric", "n": 60, "alpha": 1.0e4,
                    "snapshot_count": 6, "mu_test": [0.5, 0.5, 0.5, 0.5, 1.0],
                    "newton_max_iter": 1, "newton_tol": 1e-14},
        "pod": {"k": 2},
        "training": {"mc_samples": 10},
        "ensemble": {"count": 10, "level": 0.95, "seed": 3},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert run_cli("run", "--config", path) == 4
    assert "numerical failure" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "error" in report and "Newton" in report["error"]


@pytest.mark.parametrize("stage", ["stage_train", "stage_sample"])
def test_out_of_memory_exit_code_4(tiny_config, tmp_path, capsys, monkeypatch, stage):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 64.0 GiB")

    monkeypatch.setattr(cli.pipeline, stage, exhausted)
    assert run_cli("run", "--config", tiny_config) == 4
    assert "Unable to allocate" in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["error"] == "MemoryError: Unable to allocate 64.0 GiB"


def test_bundled_configs_parse():
    from stochpod.config import load_config

    configs = Path(__file__).resolve().parent.parent / "configs"
    for name in ("ex1-desk.json", "ex1-full.json", "ex2-desk.json",
                 "ex3-desk.json"):
        cfg = load_config(configs / name)
        assert cfg.seed is not None
        assert cfg.ensemble.level == 0.95


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
