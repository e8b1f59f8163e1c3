from __future__ import annotations

import math

import numpy as np
import pytest

from faultcast import cli
from faultcast.autoencoder import TrainingConfig
from faultcast.classifier import SIGMA_GRID, ClassifierConfig, ErrorBaseline, threshold
from faultcast.config import (
    EndpointsConfig,
    PathsConfig,
    ToolConfig,
    apply_overrides,
    config_to_json,
    load_config,
    override_fields,
    parse_override_value,
)
from faultcast.errors import IoError, SchemaError
from faultcast.knowledge import DEFAULT_DIMENSION
from faultcast.pagerank import PageRankConfig

from helpers import load_text


def test_defaults():
    config = ToolConfig()
    assert config.paths.kb_store == "artifacts/knowledge.json"
    assert config.paths.report_dir == "reports"
    assert config.paths.descriptors is None
    assert config.embedder == "offline"
    assert config.llm == "echo"
    assert config.missing_policy == "forward_fill"
    assert config.embedding_dimension == DEFAULT_DIMENSION == 512
    assert config.sigma_grid == SIGMA_GRID
    assert config.endpoints.base_url == "http://localhost:11434"
    assert config.endpoints.retries == 2
    assert config.training.epochs == 200
    assert config.classifier.sigma == 4.5


def test_tool_config_validation():
    with pytest.raises(ValueError):
        ToolConfig(embedder="local")
    with pytest.raises(ValueError):
        ToolConfig(llm="gpt")
    with pytest.raises(ValueError):
        ToolConfig(missing_policy="drop")
    with pytest.raises(ValueError):
        ToolConfig(embedding_dimension=0)
    with pytest.raises(ValueError):
        ToolConfig(sigma_grid=())
    with pytest.raises(ValueError):
        ToolConfig(sigma_grid=(3.0, 1.5))
    with pytest.raises(ValueError):
        ToolConfig(sigma_grid=(0.0, 1.5))
    with pytest.raises(ValueError):
        EndpointsConfig(timeout=0.0)
    with pytest.raises(ValueError):
        EndpointsConfig(retries=-1)
    with pytest.raises(ValueError):
        EndpointsConfig(backoff=-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: ClassifierConfig(sigma=v),
        lambda v: ClassifierConfig(sigma_kpi=v),
        lambda v: EndpointsConfig(timeout=v),
        lambda v: EndpointsConfig(backoff=v),
        lambda v: TrainingConfig(learning_rate=v),
        lambda v: threshold(ErrorBaseline(0.0, 1.0, np.zeros(1), np.ones(1)), v),
    ],
    ids=["sigma", "sigma_kpi", "timeout", "backoff", "learning_rate", "threshold"],
)
def test_non_finite_values_are_refused(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


def test_config_to_json_layout():
    text = config_to_json(ToolConfig())
    assert text.startswith('{\n  "classifier"')
    assert text.endswith("}\n")


def test_json_round_trip_default_and_custom(tmp_path):
    assert load_text(load_config, config_to_json(ToolConfig()), tmp_path) == ToolConfig()
    custom = ToolConfig(
        paths=PathsConfig(kb_store="kb.json", descriptors="d.csv"),
        sigma_grid=(1.0, 2.0, 4.0),
        embedder="remote",
        llm="http",
        pagerank=PageRankConfig(reverse_edges=False),
    )
    assert load_text(load_config, config_to_json(custom), tmp_path) == custom


def test_partial_json_fills_defaults(tmp_path):
    config = load_text(load_config, '{"classifier": {"sigma": 6.0}}', tmp_path)
    assert config.classifier.sigma == 6.0
    assert config.classifier.sigma_kpi is None
    assert config.training == ToolConfig().training


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ('{"bogus": 1}', "bogus"),
        ('{"classifier": {"sgima": 1}}', "classifier.sgima"),
        ('{"classifier": {"sigma": "high"}}', "must be a number"),
        ('{"training": {"epochs": 2.5}}', "must be an integer"),
        ('{"training": {"epochs": true}}', "must be an integer"),
        ('{"pagerank": {"reverse_edges": 1}}', "must be a boolean"),
        ('{"sigma_grid": 3}', "must be an array"),
        ('{"paths": 3}', "must be an object"),
        ('{"paths": {"kb_store": 4}}', "must be a string"),
        ('{"classifier": {"sigma": -1}}', "invalid config value"),
        ('{"classifier": {"sigma": 1e400}}', "invalid config value"),
        ('{"pagerank": {"damping": NaN}}', "literal NaN"),
        ('{"endpoints": {"timeout": Infinity}}', "invalid config value"),
        ('{"training": {"learning_rate": 1e400}}', "invalid config value"),
        ("[1, 2]", "JSON object"),
        ("{broken", "not valid JSON"),
    ],
)
def test_schema_errors_name_the_offending_path(payload, fragment, tmp_path):
    with pytest.raises(SchemaError, match=fragment):
        load_text(load_config, payload, tmp_path)


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(config_to_json(ToolConfig()), encoding="utf-8")
    assert load_config(path) == ToolConfig()
    with pytest.raises(IoError):
        load_config(tmp_path / "absent.json")


def test_override_fields_lists_every_leaf():
    """Every settable value, so adding or removing one is a one-line change here."""
    assert [name for name, _ in override_fields()] == [
        "paths.kb_store",
        "paths.report_dir",
        "paths.descriptors",
        "training.epochs",
        "training.learning_rate",
        "training.batch_size",
        "training.seed",
        "classifier.sigma",
        "classifier.sigma_kpi",
        "granger.lag",
        "granger.alpha",
        "granger.window",
        "pagerank.damping",
        "pagerank.reverse_edges",
        "prompt.kpi_count",
        "retrieval.top_k",
        "retrieval.min_similarity",
        "endpoints.base_url",
        "endpoints.completion_model",
        "endpoints.embed_model",
        "endpoints.timeout",
        "endpoints.retries",
        "endpoints.backoff",
        "embedder",
        "embedding_dimension",
        "llm",
        "missing_policy",
        "sigma_grid",
    ]


class TestParseOverrideValue:
    def test_scalars(self):
        assert parse_override_value("12", int, "x") == 12
        assert parse_override_value("0.5", float, "x") == 0.5
        assert parse_override_value("text", str, "x") == "text"

    @pytest.mark.parametrize("text, expected", [("true", True), ("yes", True), ("1", True), ("false", False), ("no", False), ("0", False)])
    def test_booleans(self, text, expected):
        assert parse_override_value(text, bool, "x") is expected

    def test_bad_boolean(self):
        with pytest.raises(ValueError, match="--x"):
            parse_override_value("maybe", bool, "x")

    def test_tuples(self):
        hint = tuple[float, ...]
        assert parse_override_value("1.5,3.0", hint, "x") == (1.5, 3.0)
        assert parse_override_value("1.5, 3.0,", hint, "x") == (1.5, 3.0)

    def test_optionals(self):
        assert parse_override_value("none", int | None, "x") is None
        assert parse_override_value("null", str | None, "x") is None
        assert parse_override_value("16", int | None, "x") == 16

    def test_bad_int(self):
        with pytest.raises(ValueError, match="bad value for --x"):
            parse_override_value("abc", int, "x")


class TestApplyOverrides:
    def test_nested_leaf_override(self):
        base = ToolConfig()
        updated = apply_overrides(base, {"classifier.sigma": "6"})
        assert updated.classifier.sigma == 6.0
        assert base.classifier.sigma == 4.5
        assert updated.training == base.training
        assert updated.paths == base.paths

    def test_top_level_and_tuple_overrides(self):
        updated = apply_overrides(
            ToolConfig(),
            {"embedder": "remote", "sigma_grid": "1,2,4", "pagerank.reverse_edges": "false"},
        )
        assert updated.embedder == "remote"
        assert updated.sigma_grid == (1.0, 2.0, 4.0)
        assert updated.pagerank.reverse_edges is False

    def test_optional_leaf(self):
        updated = apply_overrides(ToolConfig(), {"training.batch_size": "16"})
        assert updated.training.batch_size == 16
        cleared = apply_overrides(updated, {"training.batch_size": "none"})
        assert cleared.training.batch_size is None

    def test_unknown_names_raise_value_error(self):
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(ToolConfig(), {"bogus.key": "1"})
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(ToolConfig(), {"classifier": "3"})
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(ToolConfig(), {"classifier.sigma.deep": "1"})

    def test_invalid_values_raise_value_error(self):
        with pytest.raises(ValueError, match="bad value"):
            apply_overrides(ToolConfig(), {"classifier.sigma": "-1"})
        with pytest.raises(ValueError, match="bad value"):
            apply_overrides(ToolConfig(), {"training.epochs": "abc"})

    def test_empty_overrides_are_identity(self):
        assert apply_overrides(ToolConfig(), {}) == ToolConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"granger.lag": "20", "granger.window": "60"},
            {"granger.window": "60", "granger.lag": "20"},
        ],
    )
    def test_related_fields_are_checked_together_in_any_order(self, overrides, tmp_path):
        from_file = load_text(load_config, '{"granger": {"lag": 20, "window": 60}}', tmp_path)
        assert apply_overrides(ToolConfig(), overrides) == from_file

    def test_an_invalid_pair_names_the_override(self):
        with pytest.raises(ValueError, match="bad value for --granger.lag"):
            apply_overrides(ToolConfig(), {"granger.lag": "30"})


@pytest.mark.parametrize(
    "flags",
    [
        ["--granger.lag", "20", "--granger.window", "60"],
        ["--granger.window", "60", "--granger.lag", "20"],
    ],
)
def test_cli_overrides_match_the_config_file(flags, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text('{"granger": {"lag": 20, "window": 60}}', encoding="utf-8")
    seen = []
    monkeypatch.setattr(cli, "_cmd_simulate", lambda args, resolved: seen.append(resolved) or 0)
    spec = ["simulate", "--spec", "spec.json", "--seed", "1"]
    assert cli.main([*spec, *flags]) == 0
    assert cli.main([*spec, "--config", str(config)]) == 0
    assert seen[0] == seen[1] == load_config(config)


def test_cli_invalid_override_pair_is_a_usage_error(capsys):
    rc = cli.main(["simulate", "--spec", "spec.json", "--seed", "1", "--granger.lag", "30"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("usage error: bad value for --granger.lag")
