"""Harness: config validation, experiment outputs, determinism, comparison,
report rendering, and the command line."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from failcover import harness
from failcover.cli import main as cli_main
from failcover.problems import get_problem
from failcover.samplers import STRATEGIES, make_rng, sample_by_name
from failcover.harness import (
    ConfigError,
    compare,
    emit_report,
    load_config,
    parse_config,
    run_experiment,
    summarize,
)

BASE_CONFIG = {
    "problem": {"name": "two_ball", "variant": "Large"},
    "algorithms": [{"name": "rs", "params": {"batch_size": 20}},
                   {"name": "nsga2", "params": {"population_size": 20}}],
    "budget": 120,
    "repetitions": 2,
    "base_seed": 500,
    "refset": {"strategy": "grid", "params": {"k": 24}},
    "cid": {"interval": 40},
}


def make_config(**overrides) -> dict:
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw.update(overrides)
    return raw


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- config parsing ---------------------------------------------------------------


def test_defaults_filled():
    raw = make_config()
    del raw["repetitions"], raw["cid"]
    config = parse_config(raw)
    assert config.repetitions == 10
    assert config.cid_params.p == 2.0 and config.cid_params.q == 1.0
    assert config.cid_interval == 100


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys.*'sampler'"):
        parse_config(make_config(sampler="grid"))


def test_unknown_algorithm_rejected():
    raw = make_config(algorithms=[{"name": "nsga3"}])
    with pytest.raises(ConfigError, match="algorithms\\[0\\].name.*nsga3"):
        parse_config(raw)


def test_unknown_algorithm_param_rejected():
    raw = make_config(algorithms=[{"name": "rs", "params": {"population_size": 4}}])
    with pytest.raises(ConfigError, match="params"):
        parse_config(raw)


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("nsga2", "population_size", 5),
        ("omopso", "w_min", 0.95),
        ("rs", "batch_size", 0),
        ("nsga2d", "repopulation_fraction", 0.9),
    ],
)
def test_invalid_algorithm_value_rejected_at_parse(name, field, value):
    raw = make_config(algorithms=[{"name": name, "params": {field: value}}])
    with pytest.raises(ConfigError, match=rf"config\.algorithms\[0\]\.params: .*{field}"):
        parse_config(raw)


def test_budget_below_population_rejected():
    raw = make_config(budget=10)
    with pytest.raises(ConfigError, match="budget.*10"):
        parse_config(raw)


def test_missing_required_field():
    raw = make_config()
    del raw["base_seed"]
    with pytest.raises(ConfigError, match="base_seed"):
        parse_config(raw)


def test_unknown_problem_and_variant():
    with pytest.raises(ConfigError, match="problem.name"):
        parse_config(make_config(problem={"name": "sphere"}))
    with pytest.raises(ConfigError, match="variant"):
        parse_config(make_config(problem={"name": "two_ball", "variant": "Tiny"}))


def test_preset_expansion():
    raw = make_config(algorithms=[{"name": "nsga2d", "preset": "mnist"}], budget=200)
    config = parse_config(raw)
    assert config.algorithms[0].params["population_size"] == 20
    assert config.algorithms[0].params["archive_threshold"] == 1.77


def test_preset_override_combination():
    raw = make_config(
        algorithms=[{"name": "nsga2d", "preset": "avp", "params": {"archive_threshold": 0.5}}],
        budget=200,
    )
    config = parse_config(raw)
    assert config.algorithms[0].params["population_size"] == 40
    assert config.algorithms[0].params["archive_threshold"] == 0.5


def test_duplicate_algorithms_rejected():
    raw = make_config(algorithms=[{"name": "rs"}, {"name": "rs"}])
    with pytest.raises(ConfigError, match="once"):
        parse_config(raw)


def test_refset_path_xor_strategy():
    with pytest.raises(ConfigError, match="path or a strategy"):
        parse_config(make_config(refset={"path": "x.csv", "strategy": "grid"}))


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_bad_problem_params_rejected_at_load():
    raw = make_config(problem={"name": "two_ball", "variant": "Large",
                               "params": {"radius": 0.3}})
    with pytest.raises(ConfigError, match="config.problem.params"):
        parse_config(raw)


def test_bad_refset_params_rejected_at_load():
    with pytest.raises(ConfigError, match="config.refset.*unknown parameters"):
        parse_config(make_config(refset={"strategy": "grid", "params": {"count": 10}}))
    with pytest.raises(ConfigError, match="config.refset.*missing"):
        parse_config(make_config(refset={"strategy": "poisson", "params": {}}))
    with pytest.raises(ConfigError, match="config.refset: unknown sampling strategy"):
        parse_config(make_config(refset={"strategy": ["grid"], "params": {"k": 8}}))
    with pytest.raises(ConfigError, match="config.refset: "):
        parse_config(make_config(refset={"strategy": "grid", "params": [["k", 8, 1]]}))


@pytest.mark.parametrize("value", [150.7, "150", True, "abc", None])
@pytest.mark.parametrize("field", ["budget", "repetitions", "base_seed"])
def test_top_level_integer_fields_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=rf"config\.{field} must be an integer"):
        parse_config(make_config(**{field: value}))


@pytest.mark.parametrize("value", [40.5, "40", False])
def test_cid_interval_must_be_an_integer(value):
    with pytest.raises(ConfigError, match=r"config\.cid\.interval must be an integer"):
        parse_config(make_config(cid={"interval": value}))


@pytest.mark.parametrize(
    "strategy, params, key",
    [
        ("grid", {"k": 16.5}, "k"),
        ("grid", {"k": True}, "k"),
        ("lhs", {"n": "50"}, "n"),
        ("fps", {"n": 20, "candidate_pool_size": 400.0}, "candidate_pool_size"),
        ("fps", {"n": 20, "seed": 1.5}, "seed"),
        ("poisson", {"r": 0.1, "attempts_per_point": 30.0}, "attempts_per_point"),
        ("poisson", {"r": "0.1"}, "r"),
        ("poisson", {"r": True}, "r"),
    ],
)
def test_refset_sampler_params_have_their_types_checked_at_parse(strategy, params, key):
    raw = make_config(refset={"strategy": strategy, "params": params})
    with pytest.raises(ConfigError, match=rf"config\.refset: {strategy} sampler parameter {key}"):
        parse_config(raw)


@pytest.mark.parametrize(
    "strategy, params",
    [
        ("grid", {"k": 1}),
        ("grid", {"k": True}),
        ("grid", {"k": 10**6}),  # 10**12 points on two_ball, refused before allocating
        ("grid", {"k": 8, "seed": 1}),
        ("lhs", {"n": 0}),
        ("fps", {"n": 20, "candidate_pool_size": 19}),
        ("poisson", {"r": -1}),
        ("poisson", {"r": float("nan")}),
        ("poisson", {"r": float("inf")}),
        ("poisson", {"r": 0.1, "attempts_per_point": 0}),
    ],
)
def test_bad_refset_values_fail_at_parse_and_in_the_sampler(strategy, params):
    with pytest.raises(ConfigError, match=r"config\.refset: "):
        parse_config(make_config(refset={"strategy": strategy, "params": params}))
    space = get_problem("two_ball", "Large").space
    with pytest.raises(ValueError) as by_name:
        sample_by_name(space, strategy, params)
    if "seed" not in params:  # a config key, not a sampler argument
        spec = STRATEGIES[strategy]
        rng = {"rng": make_rng(0)} if spec.seeded else {}
        with pytest.raises(ValueError) as direct:
            spec.sample(space, **params, **rng)
        assert str(direct.value) == str(by_name.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "2"])
@pytest.mark.parametrize("field", ["p", "q"])
def test_cid_orders_must_be_finite_reals(field, value):
    with pytest.raises(ConfigError, match=r"config\.cid: .* must be a finite real number"):
        parse_config(make_config(cid={field: value}))


@pytest.mark.parametrize(
    "name, field, value",
    [
        ("rs", "batch_size", 2.5),
        ("rs", "batch_size", "20"),
        ("nsga2", "population_size", 40.0),
        ("nsga2d", "population_size", True),
        ("omopso", "swarm_size", 10.0),
        ("omopso", "archive_size", 5.5),
    ],
)
def test_algorithm_size_fields_must_be_integers(name, field, value):
    raw = make_config(algorithms=[{"name": name, "params": {field: value}}])
    with pytest.raises(ConfigError,
                       match=rf"config\.algorithms\[0\]\.params: {field} must be an integer"):
        parse_config(raw)


@pytest.mark.parametrize(
    "name, params, field",
    [
        ("nsga2", {"sbx_eta": -1}, "sbx_eta"),  # once a ZeroDivisionError mid-run
        ("nsga2", {"pm_eta": -1}, "pm_eta"),
        ("nsga2", {"sbx_eta": float("nan")}, "sbx_eta"),  # once "outside the search space"
        ("nsga2", {"pm_eta": float("inf")}, "pm_eta"),
        ("nsga2", {"crossover_rate": True}, "crossover_rate"),
        ("nsga2d", {"mutation_rate": False}, "mutation_rate"),
        ("nsga2d", {"archive_threshold": float("nan")}, "archive_threshold"),  # once ran silently
        ("nsga2d", {"archive_threshold": 0}, "archive_threshold"),
        ("nsga2d", {"repopulation_fraction": float("nan")}, "repopulation_fraction"),
        ("omopso", {"c_min": float("nan")}, "c_min"),  # once an OverflowError mid-run
        ("omopso", {"c_min": 3, "c_max": 1}, "c_min"),  # once a ValueError mid-run
        ("omopso", {"c_min": 0}, "c_min"),
        ("omopso", {"c_max": float("inf")}, "c_max"),
        ("omopso", {"w_min": float("nan")}, "w_min"),
        ("omopso", {"mutation_rate": True}, "mutation_rate"),
    ],
)
def test_algorithm_float_fields_are_checked_at_parse(name, params, field):
    raw = make_config(algorithms=[{"name": name, "params": params}])
    with pytest.raises(ConfigError, match=rf"config\.algorithms\[0\]\.params: .*{field}"):
        parse_config(raw)


def test_cli_run_exits_1_on_a_negative_distribution_index(tmp_path, capsys):
    raw = make_config(algorithms=[{"name": "nsga2", "params": {"sbx_eta": -1}}])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert "sbx_eta must be >= 0" in capsys.readouterr().err


def test_algorithm_float_fields_accept_their_boundaries():
    params = {"population_size": 20, "sbx_eta": 0, "pm_eta": 0.0, "crossover_rate": 1,
              "mutation_rate": 0}
    assert len(harness.run_algorithm("nsga2", get_problem("two_ball", "Large"), 200, 1,
                                     params)) == 200
    omopso = {"swarm_size": 20, "c_min": 1.5, "c_max": 1.5}
    assert len(harness.run_algorithm("omopso", get_problem("two_ball", "Large"), 60, 1,
                                     omopso)) == 60


@pytest.mark.parametrize("params", [[["k", 8]], [], "k"])
def test_refset_params_must_be_a_mapping(tmp_path, capsys, params):
    raw = make_config(refset={"strategy": "grid", "params": params})
    with pytest.raises(ConfigError,
                       match=r"config\.refset: grid sampler: params must be a mapping"):
        parse_config(raw)
    problem = get_problem("two_ball", "Large")
    with pytest.raises(ValueError, match="params must be a mapping"):
        harness.build_reference_set(problem, {"strategy": "grid", "params": params},
                                    cache_dir=tmp_path / "refsets")
    assert cli_main([
        "refset", "--problem", "two_ball", "--strategy", "grid",
        "--params", json.dumps(params), "--out", str(tmp_path / "ref.csv"),
    ]) == 1
    assert "params must be a mapping" in capsys.readouterr().err
    assert not (tmp_path / "ref.csv").exists()


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"algorithms": [5]}, r"config\.algorithms\[0\]"),
        ({"problem": 5}, r"config\.problem"),
        ({"refset": 5}, r"config\.refset"),
        ({"cid": 5}, r"config\.cid"),
        ({"problem": {"name": "two_ball", "params": [1]}}, r"config\.problem\.params"),
        ({"algorithms": [{"name": "rs", "params": [1]}]}, r"config\.algorithms\[0\]\.params"),
    ],
)
def test_config_sections_must_be_objects(overrides, path):
    with pytest.raises(ConfigError, match=rf"^{path}: expected a JSON object"):
        parse_config(make_config(**overrides))


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"problem": {"name": ["two_ball"]}}, r"config\.problem\.name"),
        ({"algorithms": [{"name": ["rs"]}]}, r"config\.algorithms\[0\]\.name"),
        ({"refset": {"path": 3}}, r"config\.refset\.path"),
    ],
)
def test_names_and_refset_path_must_be_strings(tmp_path, capsys, overrides, path):
    raw = make_config(**overrides)
    with pytest.raises(ConfigError, match=rf"^{path}: expected a string, got "):
        parse_config(raw)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert "expected a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem",
    [
        {"name": "two_ball", "params": {"t1": float("nan")}},
        {"name": "two_ball", "params": {"t2": float("inf")}},
        {"name": "two_region", "params": {"margin": float("nan")}},
    ],
)
def test_problem_thresholds_must_be_finite_at_parse(problem):
    with pytest.raises(ConfigError,
                       match=r"^config\.problem\.params: .* must be a finite real number"):
        parse_config(make_config(problem=problem))


def test_unhashable_preset_is_a_config_error():
    raw = make_config(algorithms=[{"name": "rs", "preset": []}])
    with pytest.raises(ConfigError, match=r"config\.algorithms\[0\]\.preset: unknown preset \[\]"):
        parse_config(raw)


@pytest.mark.parametrize("overrides", [{"algorithms": [5]}, {"cid": 5}])
def test_cli_run_exits_1_on_a_section_that_is_not_an_object(tmp_path, overrides, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_config(**overrides)))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, digest",
    [
        ({}, "fc2c55de289e85a12ef98412bb34adbed98bc78078b0c7fb4498fd16732a2cb6"),
        (
            {
                "algorithms": [{"name": "omopso", "params": {"swarm_size": 20, "archive_size": 10}},
                               {"name": "nsga2d", "preset": "avp"}],
                "budget": 200,
                "refset": {"strategy": "fps",
                           "params": {"n": 50, "candidate_pool_size": 500, "seed": 3}},
                "cid": {"p": 2, "q": 1, "interval": 30},
            },
            "99f98f1cf48ff044c716802d5edbbfe01fbc646c8057602032a686a2abe33215",
        ),
        ({"cid": {"p": 2}}, "9a9fe9da8c501a981143ae0ddcab8ea2a9bcdd389e97e8ca4f199180d9093d84"),
    ],
)
def test_integer_configs_keep_their_config_hash(overrides, digest):
    assert parse_config(make_config(**overrides)).config_hash() == digest


def test_cli_uses_config_output_dir(tmp_path):
    raw = make_config(output_dir=str(tmp_path / "from-config"))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "from-config" / "runs.csv").exists()


# --- experiment outputs ----------------------------------------------------------------


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = parse_config(make_config())
    result = run_experiment(config, out)
    return config, result, out


def test_run_counts_and_files(experiment):
    config, result, out = experiment
    assert len(result.runs) == 4  # 2 algorithms x 2 repetitions
    for name in ("runs.csv", "cid_series.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists()


def test_runs_csv_schema(experiment):
    _, result, out = experiment
    rows = read_csv(out / "runs.csv")
    assert list(rows[0]) == [
        "run_id", "algorithm", "problem", "variant", "seed",
        "eval_index", "generation", "x1", "x2", "f1", "f2", "failed",
    ]
    assert len(rows) == 4 * 120
    assert {r["run_id"] for r in rows} == {"rs-00", "rs-01", "nsga2-00", "nsga2-01"}
    assert {r["failed"] for r in rows} <= {"0", "1"}
    first = rows[0]
    assert first["seed"] == "500" and first["eval_index"] == "0"


def test_runs_csv_novelty_column_only_with_nsga2d(tmp_path):
    raw = make_config(algorithms=[{"name": "nsga2d", "params": {"population_size": 20}}])
    result = run_experiment(parse_config(raw), tmp_path)
    rows = read_csv(tmp_path / "runs.csv")
    assert "novelty" in rows[0]
    assert rows[0]["novelty"] == "inf"  # archive empty at the first evaluation


def test_series_csv_checkpoints(experiment):
    config, _, out = experiment
    rows = read_csv(out / "cid_series.csv")
    marks = sorted({int(r["evaluations"]) for r in rows})
    assert marks == [40, 80, 120]
    by_run = {}
    for r in rows:
        by_run.setdefault(r["run_id"], []).append(r)
    assert all(len(v) == 3 for v in by_run.values())


def test_summary_matches_series_finals(experiment):
    config, result, out = experiment
    series_rows = read_csv(out / "cid_series.csv")
    finals = {}
    for row in series_rows:
        if int(row["evaluations"]) == 120:
            finals.setdefault(row["run_id"].rsplit("-", 1)[0], []).append(float(row["cid"]))
    for summary_row in read_csv(out / "summary.csv"):
        expected = np.mean(finals[summary_row["algorithm"]])
        assert abs(float(summary_row["cid_mean"]) - expected) < 1e-12


def test_rerun_byte_identical(experiment, tmp_path):
    config, _, out = experiment
    rerun = run_experiment(config, tmp_path)
    for name in ("runs.csv", "cid_series.csv", "summary.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_different_seed_changes_runs_not_schema(experiment, tmp_path):
    config, _, out = experiment
    other = parse_config(make_config(base_seed=501))
    run_experiment(other, tmp_path)
    original = (out / "runs.csv").read_text().splitlines()
    shifted = (tmp_path / "runs.csv").read_text().splitlines()
    assert original[0] == shifted[0]  # header identical
    assert original[1:] != shifted[1:]


def test_manifest_hashes(experiment, tmp_path):
    config, result, out = experiment
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["refset_hash"] == result.refset.content_hash()
    assert [r["seed"] for r in manifest["runs"]] == [500, 501, 500, 501]

    other = parse_config(make_config(base_seed=501))
    run_experiment(other, tmp_path)
    other_manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert other_manifest["config_hash"] != manifest["config_hash"]
    assert other_manifest["refset_hash"] == manifest["refset_hash"]


def test_summarize_values(experiment):
    config, result, _ = experiment
    rows = summarize(config, result.runs)
    assert [r["algorithm"] for r in rows] == ["rs", "nsga2"]
    for row in rows:
        assert row["variant"] == "Large"
        assert row["cid_mean"] is not None and row["failures_mean"] > 0


def test_empty_refset_aborts_cleanly(tmp_path):
    raw = make_config(
        problem={"name": "two_ball", "variant": "Large",
                 "params": {"c1": [0.2, 0.5], "c2": [0.8, 0.5], "t1": 0.1, "t2": 0.1}},
    )
    with pytest.raises(Exception, match="no failures"):
        run_experiment(parse_config(raw), tmp_path / "doomed")
    assert not list((tmp_path / "doomed").glob("*.csv"))


def test_refset_of_another_dimensionality_fails_before_any_run(tmp_path, monkeypatch):
    path = tmp_path / "ref3d.csv"
    path.write_text("x1,x2,x3\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
    raw = make_config(refset={"path": str(path)})

    def no_run(*args):
        raise AssertionError("an algorithm ran")

    monkeypatch.setattr(harness, "run_algorithm", no_run)
    with pytest.raises(ValueError, match="reference set is 3-D, two_ball's inputs are 2-D"):
        run_experiment(parse_config(raw), tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert not list((tmp_path / "out").iterdir())


def test_empty_refset_file_fails_before_any_run(tmp_path, monkeypatch, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("x1,x2\n")
    raw = make_config(refset={"path": str(path)})

    def no_run(*args):
        raise AssertionError("an algorithm ran")

    monkeypatch.setattr(harness, "run_algorithm", no_run)
    with pytest.raises(ConfigError, match=r"^config\.refset\.path: .*empty\.csv holds no points"):
        run_experiment(parse_config(raw), tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    assert "holds no points" in capsys.readouterr().err
    assert not list((tmp_path / "out").iterdir())


def test_refset_of_another_dimensionality_fails_without_failures(tmp_path):
    # A one-evaluation run finds no failure, so no distance to the set is ever taken.
    path = tmp_path / "ref2d.csv"
    path.write_text("x1,x2\n0.1,0.2\n")
    raw = make_config(problem={"name": "avp_analog", "variant": "Small"},
                      algorithms=[{"name": "rs"}], budget=1, repetitions=1,
                      refset={"path": str(path)})
    with pytest.raises(ValueError, match="reference set is 2-D, avp_analog's inputs are 3-D"):
        run_experiment(parse_config(raw), tmp_path / "out")
    assert not list((tmp_path / "out").iterdir())


class FailingHandle:
    """A text file whose writes stop with ``OSError`` after ``limit`` characters.

    The write that crosses the limit first writes the characters that fit,
    so a partial file is on disk when the error is raised.
    """

    def __init__(self, fh, limit: int):
        self.fh = fh
        self.room = limit

    def write(self, text: str) -> int:
        if len(text) > self.room:
            self.fh.write(text[: self.room])
            self.fh.flush()
            self.room = 0
            raise OSError("disk full")
        self.room -= len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()


def test_write_error_leaves_no_partial_runs_csv(tmp_path, monkeypatch):
    # The failure is injected at open(), under whatever writes runs.csv, so a
    # writer that skipped atomic_open would leave its partial file behind.
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and Path(file).name.startswith("runs.csv"):
            return FailingHandle(fh, limit=2000)
        return fh

    monkeypatch.setattr("builtins.open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        run_experiment(parse_config(make_config()), tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["refsets"]


def test_interrupt_while_writing_manifest_removes_written_results(tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "_write_manifest", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_experiment(parse_config(make_config()), tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["refsets"]


# --- compare -------------------------------------------------------------------------------


def test_compare_writes_stats(experiment):
    _, _, out = experiment
    rows = compare(out, test="ranksum")
    assert len(rows) == 1
    row = rows[0]
    assert row["pair"] == "rs vs nsga2"
    assert 0.0 <= row["p_value"] <= 1.0
    stats_rows = read_csv(out / "stats.csv")
    assert list(stats_rows[0]) == [
        "pair", "variant", "test", "p_value", "a12", "magnitude", "significant",
    ]


@pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, -0.05, float("nan")])
def test_compare_rejects_alpha_outside_unit_interval(experiment, alpha):
    _, _, out = experiment
    with pytest.raises(ConfigError, match="alpha"):
        compare(out, alpha=alpha)


def test_cli_compare_bad_alpha_exit_code(experiment, capsys):
    _, _, out = experiment
    assert cli_main(["compare", "--in", str(out), "--alpha", "2"]) == 1
    assert "alpha" in capsys.readouterr().err


def test_compare_three_algorithms_three_pairs(tmp_path):
    raw = make_config(
        algorithms=[
            {"name": "rs", "params": {"batch_size": 20}},
            {"name": "nsga2", "params": {"population_size": 20}},
            {"name": "omopso", "params": {"swarm_size": 20}},
        ]
    )
    run_experiment(parse_config(raw), tmp_path)
    rows = compare(tmp_path, test="signedrank")
    assert [r["pair"] for r in rows] == [
        "rs vs nsga2", "rs vs omopso", "nsga2 vs omopso",
    ]


def test_compare_identical_samples_via_same_seeds(tmp_path):
    # rs compared against itself through two entries is impossible (duplicate
    # names are rejected), so check the degenerate statistics directly on a
    # pair whose samples happen to be identical by construction.
    from failcover.stats import compare_samples

    result = compare_samples("x vs y", [0.3, 0.4], [0.3, 0.4])
    assert result.p_value == 1.0 and result.a12 == 0.5
    assert result.magnitude == "negligible" and not result.significant


def test_compare_skips_pairs_with_undefined_cid(tmp_path):
    # A problem variant whose failures random search cannot hit in 60 evals:
    # tiny lens, miles from anywhere dense. Use an oracle region so small the
    # run logs zero failures, leaving the final CID undefined.
    raw = make_config(
        problem={"name": "two_ball", "variant": "Large",
                 "params": {"c1": [0.1, 0.1], "c2": [0.12, 0.1],
                            "t1": 0.011, "t2": 0.011}},
        budget=60,
        refset={"strategy": "grid", "params": {"k": 400}},
        repetitions=1,
    )
    run_experiment(parse_config(raw), tmp_path)
    rows = compare(tmp_path)
    assert rows[0]["p_value"] is None
    assert "undefined" in rows[0]["skipped_reason"]
    stats_rows = read_csv(tmp_path / "stats.csv")
    assert stats_rows[0]["p_value"] == ""


def test_compare_needs_two_algorithms(tmp_path):
    raw = make_config(algorithms=[{"name": "rs", "params": {"batch_size": 20}}])
    run_experiment(parse_config(raw), tmp_path)
    with pytest.raises(ConfigError, match="two algorithms"):
        compare(tmp_path)


# --- report -------------------------------------------------------------------------------


def test_report_contents(experiment):
    _, _, out = experiment
    compare(out)
    report = emit_report(out).read_text()
    assert "# Experiment report" in report
    assert "| rs |" in report and "| nsga2 |" in report
    assert "## Statistical comparison" in report
    assert "rs vs nsga2" in report
    assert report.count("**") >= 2  # best CID mean bolded


def test_report_single_algorithm_notes_no_comparison(tmp_path):
    raw = make_config(algorithms=[{"name": "rs", "params": {"batch_size": 20}}])
    run_experiment(parse_config(raw), tmp_path)
    report = emit_report(tmp_path).read_text()
    assert "nothing to compare" in report


def test_report_marks_undefined_and_missing(tmp_path):
    raw = make_config(
        problem={"name": "two_ball", "variant": "Large",
                 "params": {"c1": [0.1, 0.1], "c2": [0.12, 0.1],
                            "t1": 0.011, "t2": 0.011}},
        budget=60,
        refset={"strategy": "grid", "params": {"k": 400}},
        repetitions=1,
        algorithms=[{"name": "rs", "params": {"batch_size": 20}}],
    )
    run_experiment(parse_config(raw), tmp_path)
    report = emit_report(tmp_path).read_text()
    assert "undef" in report
    assert "—" in report


def test_rerun_into_a_used_directory_drops_the_old_comparison(tmp_path):
    three = [{"name": "rs", "params": {"batch_size": 20}},
             {"name": "nsga2", "params": {"population_size": 20}},
             {"name": "omopso", "params": {"swarm_size": 20}}]
    run_experiment(parse_config(make_config(algorithms=three)), tmp_path)
    compare(tmp_path)
    emit_report(tmp_path)
    two = [{"name": "rs", "params": {"batch_size": 20}},
           {"name": "nsga2d", "params": {"population_size": 20}}]
    run_experiment(parse_config(make_config(algorithms=two, base_seed=900)), tmp_path)
    assert not (tmp_path / "stats.csv").exists() and not (tmp_path / "report.md").exists()
    report = emit_report(tmp_path).read_text()
    assert "nsga2 vs omopso" not in report and "### omopso" not in report
    assert "No stats.csv found" in report


def test_report_missing_inputs_error(tmp_path):
    with pytest.raises(FileNotFoundError, match="summary.csv"):
        emit_report(tmp_path)


# --- command line ---------------------------------------------------------------------------


PROBLEMS_LIST = """\
avp_analog: 3-D input, 2 objectives
  Large: f1 < 0.25, f2 < -0.4
  Medium: f1 < 0.18, f2 < -0.5
  Small: f1 < 0.12, f2 < -0.55
two_ball: 2-D input, 2 objectives
  Large: disc radii (0.3, 0.3)
  Medium: disc radii (0.22, 0.22)
  Small: disc radii (0.15, 0.15)
two_region: 2-D input, 2 objectives
  Large: distance margin 0.05
  Medium: distance margin 0.02
  Small: distance margin 1e-09
"""


def test_cli_problems_list(capsys):
    assert cli_main(["problems", "list"]) == 0
    assert capsys.readouterr().out == PROBLEMS_LIST


def test_cli_refset_and_cid(tmp_path, capsys):
    refset_path = tmp_path / "ref.csv"
    code = cli_main([
        "refset", "--problem", "two_ball", "--variant", "Large",
        "--strategy", "grid", "--params", '{"k": 24}', "--out", str(refset_path),
    ])
    assert code == 0
    assert refset_path.exists() and refset_path.with_suffix(".json").exists()

    points_path = tmp_path / "pts.csv"
    points_path.write_text("x1,x2\n0.5,0.5\n0.4,0.6\n")
    assert cli_main(["cid", "--refset", str(refset_path), "--points", str(points_path)]) == 0
    value = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert value > 0.0


def test_cli_cid_rejects_non_finite_order(tmp_path):
    refset_path = tmp_path / "ref.csv"
    assert cli_main([
        "refset", "--problem", "two_ball", "--strategy", "grid",
        "--params", '{"k": 24}', "--out", str(refset_path),
    ]) == 0
    points_path = tmp_path / "pts.csv"
    points_path.write_text("x1,x2\n0.5,0.5\n")
    assert cli_main([
        "cid", "--refset", str(refset_path), "--points", str(points_path), "--p", "nan",
    ]) == 1


def test_cli_run_compare_report(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(make_config()))
    out_dir = tmp_path / "out"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert cli_main(["compare", "--in", str(out_dir), "--test", "signedrank"]) == 0
    assert cli_main(["report", "--in", str(out_dir)]) == 0
    assert (out_dir / "report.md").exists()


def test_cli_validation_error_exit_code(tmp_path):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(make_config(budget=1)))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 1


def test_cli_empty_refset_exit_code(tmp_path):
    raw = make_config(
        problem={"name": "two_ball", "variant": "Large",
                 "params": {"c1": [0.2, 0.5], "c2": [0.8, 0.5], "t1": 0.1, "t2": 0.1}},
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2


def test_cli_tampered_refset_exit_code(tmp_path):
    refset_path = tmp_path / "ref.csv"
    assert cli_main([
        "refset", "--problem", "two_ball", "--strategy", "grid",
        "--params", '{"k": 24}', "--out", str(refset_path),
    ]) == 0
    lines = refset_path.read_text().splitlines()
    lines[1] += "1"  # one extra digit on the first point's last coordinate
    refset_path.write_text("\n".join(lines) + "\n")
    points_path = tmp_path / "pts.csv"
    points_path.write_text("x1,x2\n0.5,0.5\n")
    assert cli_main(["cid", "--refset", str(refset_path), "--points", str(points_path)]) == 2
