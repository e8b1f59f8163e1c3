from __future__ import annotations

import pytest

from faultcast.classifier import SIGMA_GRID
from faultcast.config import (
    EndpointsConfig,
    PathsConfig,
    ToolConfig,
    apply_overrides,
    config_from_json,
    config_to_json,
    default_config,
    load_config,
    override_fields,
    parse_override_value,
)
from faultcast.errors import IoError, SchemaError


def test_defaults():
    config = default_config()
    assert config.paths.model == "artifacts/model.json"
    assert config.paths.kb_store == "artifacts/knowledge.json"
    assert config.paths.report_dir == "reports"
    assert config.paths.descriptors is None
    assert config.embedder == "offline"
    assert config.llm == "echo"
    assert config.missing_policy == "forward_fill"
    assert config.embedding_dimension == 512
    assert config.count_central_only is True
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


def test_config_to_json_layout():
    text = config_to_json(default_config())
    assert text.startswith('{\n  "classifier"')
    assert text.endswith("}\n")


def test_json_round_trip_default_and_custom():
    assert config_from_json(config_to_json(default_config())) == default_config()
    custom = ToolConfig(
        paths=PathsConfig(model="m.json", descriptors="d.csv"),
        sigma_grid=(1.0, 2.0, 4.0),
        embedder="remote",
        llm="http",
        count_central_only=False,
    )
    assert config_from_json(config_to_json(custom)) == custom


def test_partial_json_fills_defaults():
    config = config_from_json('{"classifier": {"sigma": 6.0}}')
    assert config.classifier.sigma == 6.0
    assert config.classifier.sigma_kpi is None
    assert config.training == default_config().training


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ('{"bogus": 1}', "bogus"),
        ('{"classifier": {"sgima": 1}}', "classifier.sgima"),
        ('{"classifier": {"sigma": "high"}}', "must be a number"),
        ('{"training": {"epochs": 2.5}}', "must be an integer"),
        ('{"training": {"epochs": true}}', "must be an integer"),
        ('{"count_central_only": 1}', "must be a boolean"),
        ('{"sigma_grid": 3}', "must be an array"),
        ('{"paths": 3}', "must be an object"),
        ('{"paths": {"model": 4}}', "must be a string"),
        ('{"classifier": {"sigma": -1}}', "invalid config value"),
        ("[1, 2]", "JSON object"),
        ("{broken", "not valid JSON"),
    ],
)
def test_schema_errors_name_the_offending_path(payload, fragment):
    with pytest.raises(SchemaError, match=fragment):
        config_from_json(payload)


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(config_to_json(default_config()), encoding="utf-8")
    assert load_config(path) == default_config()
    with pytest.raises(IoError):
        load_config(tmp_path / "absent.json")


def test_override_fields_lists_every_leaf():
    leaves = dict(override_fields())
    assert "classifier.sigma" in leaves
    assert "paths.model" in leaves
    assert "training.batch_size" in leaves
    assert "endpoints.base_url" in leaves
    assert "embedder" in leaves
    assert "sigma_grid" in leaves
    # dataclass nodes are not leaves
    assert "classifier" not in leaves
    assert "paths" not in leaves


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
        base = default_config()
        updated = apply_overrides(base, {"classifier.sigma": "6"})
        assert updated.classifier.sigma == 6.0
        assert base.classifier.sigma == 4.5
        assert updated.training == base.training
        assert updated.paths == base.paths

    def test_top_level_and_tuple_overrides(self):
        updated = apply_overrides(
            default_config(),
            {"embedder": "remote", "sigma_grid": "1,2,4", "count_central_only": "false"},
        )
        assert updated.embedder == "remote"
        assert updated.sigma_grid == (1.0, 2.0, 4.0)
        assert updated.count_central_only is False

    def test_optional_leaf(self):
        updated = apply_overrides(default_config(), {"training.batch_size": "16"})
        assert updated.training.batch_size == 16
        cleared = apply_overrides(updated, {"training.batch_size": "none"})
        assert cleared.training.batch_size is None

    def test_unknown_names_raise_value_error(self):
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(default_config(), {"bogus.key": "1"})
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(default_config(), {"classifier": "3"})
        with pytest.raises(ValueError, match="unknown config field"):
            apply_overrides(default_config(), {"classifier.sigma.deep": "1"})

    def test_invalid_values_raise_value_error(self):
        with pytest.raises(ValueError, match="bad value"):
            apply_overrides(default_config(), {"classifier.sigma": "-1"})
        with pytest.raises(ValueError, match="bad value"):
            apply_overrides(default_config(), {"training.epochs": "abc"})

    def test_empty_overrides_are_identity(self):
        assert apply_overrides(default_config(), {}) == default_config()
