"""Single-file tool configuration with dotted-name overrides.

One JSON file configures every stage of the pipeline.  Each leaf field can
also be overridden on the command line with a flag of the same dotted name
(for example ``--classifier.sigma 6``), so scripted sweeps never need to
rewrite the file.
"""

from __future__ import annotations

import json
import os
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .autoencoder import TrainingConfig
from .classifier import SIGMA_GRID, ClassifierConfig, check_sigma_grid
from .errors import IoError, SchemaError
from .granger import GrangerConfig
from .pagerank import PageRankConfig
from .troubleshoot import PromptSpec, RetrievalConfig

EMBEDDER_MODES = ("offline", "remote")
LLM_MODES = ("echo", "http")
MISSING_POLICIES = ("forward_fill", "reject")


@dataclass(frozen=True)
class PathsConfig:
    """Where artifacts live; relative paths resolve against the working directory."""

    model: str = "artifacts/model.json"
    kb_store: str = "artifacts/knowledge.json"
    report_dir: str = "reports"
    descriptors: str | None = None


@dataclass(frozen=True)
class EndpointsConfig:
    """Remote completion/embedding service addresses and retry policy."""

    base_url: str = "http://localhost:11434"
    completion_model: str = "troubleshoot-llm"
    embed_model: str = "kb-embedder"
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")


@dataclass(frozen=True)
class ToolConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    granger: GrangerConfig = field(default_factory=GrangerConfig)
    pagerank: PageRankConfig = field(default_factory=PageRankConfig)
    prompt: PromptSpec = field(default_factory=PromptSpec)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    endpoints: EndpointsConfig = field(default_factory=EndpointsConfig)
    embedder: str = "offline"
    embedding_dimension: int = 512
    llm: str = "echo"
    count_central_only: bool = True
    missing_policy: str = "forward_fill"
    sigma_grid: tuple[float, ...] = SIGMA_GRID

    def __post_init__(self) -> None:
        if self.embedder not in EMBEDDER_MODES:
            raise ValueError(f"embedder must be one of {EMBEDDER_MODES}")
        if self.llm not in LLM_MODES:
            raise ValueError(f"llm must be one of {LLM_MODES}")
        if self.missing_policy not in MISSING_POLICIES:
            raise ValueError(f"missing_policy must be one of {MISSING_POLICIES}")
        if self.embedding_dimension < 1:
            raise ValueError("embedding_dimension must be >= 1")
        check_sigma_grid(self.sigma_grid)


def _type_hints(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _optional_inner(hint: object) -> object | None:
    """The non-None member of an Optional hint, or None if not Optional."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if len(args) == 1 and len(typing.get_args(hint)) == 2:
            return args[0]
    return None


def _from_json_value(value: object, hint: object, where: str) -> object:
    inner = _optional_inner(hint)
    if inner is not None:
        if value is None:
            return None
        hint = inner
    if is_dataclass(hint):
        if not isinstance(value, dict):
            raise SchemaError(f"config field {where} must be an object")
        return _from_json_dict(typing.cast(type, hint), value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise SchemaError(f"config field {where} must be an array")
        item = typing.get_args(hint)[0]
        return tuple(
            _from_json_value(v, item, f"{where}[{i}]") for i, v in enumerate(value)
        )
    if hint is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"config field {where} must be a boolean")
        return value
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"config field {where} must be an integer")
        return value
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"config field {where} must be a number")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise SchemaError(f"config field {where} must be a string")
        return value
    raise SchemaError(f"config field {where} has an unsupported type")


def _from_json_dict(cls: type, payload: dict, where: str) -> object:
    hints = _type_hints(cls)
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        label = f"{where}.{key}" if where else key
        if key not in names:
            raise SchemaError(f"unknown config field: {label}")
        kwargs[key] = _from_json_value(value, hints[key], label)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"invalid config value under {where or 'config'}: {exc}") from exc


def _to_json_value(value: object) -> object:
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _to_json_value(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json_value(v) for v in value]
    return value


def default_config() -> ToolConfig:
    return ToolConfig()


def config_from_json(text: str) -> ToolConfig:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("config file is not valid JSON") from exc
    if not isinstance(payload, dict):
        raise SchemaError("config file must hold a JSON object")
    return typing.cast(ToolConfig, _from_json_dict(ToolConfig, payload, ""))


def config_to_json(config: ToolConfig) -> str:
    return json.dumps(_to_json_value(config), indent=2, sort_keys=True) + "\n"


def load_config(path: str | os.PathLike[str]) -> ToolConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return config_from_json(handle.read())
    except OSError as exc:
        raise IoError(f"cannot read config: {path}") from exc


def override_fields(cls: type = ToolConfig, prefix: str = "") -> list[tuple[str, object]]:
    """All (dotted name, type hint) leaves of the config tree, in field order."""
    leaves: list[tuple[str, object]] = []
    hints = _type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        dotted = f"{prefix}{f.name}"
        if is_dataclass(hint):
            leaves.extend(override_fields(typing.cast(type, hint), f"{dotted}."))
        else:
            leaves.append((dotted, hint))
    return leaves


def parse_override_value(text: str, hint: object, name: str) -> object:
    """Parse a command-line override string according to the field's type."""
    inner = _optional_inner(hint)
    if inner is not None:
        if text.lower() in ("none", "null"):
            return None
        hint = inner
    try:
        if hint is bool:
            lowered = text.lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError("expected true or false")
        if hint is int:
            return int(text)
        if hint is float:
            return float(text)
        if hint is str:
            return text
        if typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            parts = [p for p in text.split(",") if p.strip()]
            return tuple(parse_override_value(p.strip(), item, name) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad value for --{name}: {exc}") from exc
    raise ValueError(f"--{name} does not accept overrides")


def apply_overrides(config: ToolConfig, overrides: dict[str, str]) -> ToolConfig:
    """Replace leaf fields named by dotted paths; values parsed from strings.

    Raises ValueError on unknown names or malformed values (a usage error,
    not a data error, since the values come from the command line).
    """
    for dotted, text in overrides.items():
        parts = dotted.split(".")
        chain = [config]
        hints = _type_hints(type(config))
        for part in parts[:-1]:
            if part not in hints or not is_dataclass(hints[part]):
                raise ValueError(f"unknown config field: {dotted}")
            chain.append(getattr(chain[-1], part))
            hints = _type_hints(type(chain[-1]))
        leaf = parts[-1]
        if leaf not in hints or is_dataclass(hints[leaf]):
            raise ValueError(f"unknown config field: {dotted}")
        value = parse_override_value(text, hints[leaf], dotted)
        try:
            updated = replace(chain[-1], **{leaf: value})
            for owner, part in zip(reversed(chain[:-1]), reversed(parts[:-1])):
                updated = replace(owner, **{part: updated})
        except ValueError as exc:
            raise ValueError(f"bad value for --{dotted}: {exc}") from exc
        config = typing.cast(ToolConfig, updated)
    return config
