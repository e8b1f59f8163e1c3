"""Single-file tool configuration with dotted-name overrides.

One JSON file configures every stage of the pipeline.  Each leaf field can
also be overridden on the command line with a flag of the same dotted name
(for example ``--classifier.sigma 6``), so scripted sweeps never need to
rewrite the file.

A config file is a partial config: it overlays the defaults, and the keys it
leaves out keep their default values.  Overrides form a partial config too and
overlay the config they are applied to.  Either way the whole config is then
built once with :func:`faultcast.kpi.from_json`, so values that constrain each
other are checked together and the order of overrides never matters.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass

from .autoencoder import TrainingConfig
from .classifier import SIGMA_GRID, ClassifierConfig, check_sigma_grid
from .endpoints import EndpointsConfig
from .errors import SchemaError, load_json
from .granger import GrangerConfig
from .knowledge import EMBEDDER_MODES
from .kpi import _optional_inner, from_json, to_json
from .pagerank import PageRankConfig
from .troubleshoot import PromptSpec, RetrievalConfig

LLM_MODES = ("echo", "http")
MISSING_POLICIES = ("forward_fill", "reject")


@dataclass(frozen=True)
class PathsConfig:
    """Where artifacts live; relative paths resolve against the working directory."""

    kb_store: str = "artifacts/knowledge.json"
    report_dir: str = "reports"
    descriptors: str | None = None


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


def _overlay(base: dict, partial: dict) -> dict:
    """``base`` with the values of ``partial`` written over it, object by object."""
    merged = dict(base)
    for key, value in partial.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            merged[key] = _overlay(base[key], value)
        else:
            merged[key] = value
    return merged


def _build(partial: dict, base: ToolConfig = ToolConfig()) -> ToolConfig:
    """``base`` (by default the defaults) overlaid with a partial JSON config."""
    return from_json(_overlay(to_json(base), partial), ToolConfig, "config")


def config_to_json(config: ToolConfig) -> str:
    return json.dumps(to_json(config), indent=2, sort_keys=True) + "\n"


def load_config(path: str | os.PathLike[str]) -> ToolConfig:
    return load_json(_build, "config file", path=path)


def override_fields(cls: type = ToolConfig, prefix: str = "") -> list[tuple[str, object]]:
    """All (dotted name, type hint) leaves of the config tree, in field order."""
    leaves: list[tuple[str, object]] = []
    hints = typing.get_type_hints(cls)
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
    """Set leaf fields named by dotted paths; values parsed from strings.

    The overridden values form a partial config that overlays ``config`` as
    a config file overlays the defaults; the result is checked as a whole, so
    fields that constrain each other may be set in any order.  Raises
    ValueError on unknown names or malformed values (a usage error, not a
    data error, since the values come from the command line).
    """
    if not overrides:
        return config
    leaves = dict(override_fields())
    partial: dict = {}
    for dotted, text in overrides.items():
        if dotted not in leaves:
            raise ValueError(f"unknown config field: {dotted}")
        *sections, leaf = dotted.split(".")
        node = partial
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = to_json(parse_override_value(text, leaves[dotted], dotted))
    try:
        return _build(partial, config)
    except SchemaError as exc:
        names = ", ".join(f"--{name}" for name in overrides)
        raise ValueError(f"bad value for {names}: {exc}") from exc
