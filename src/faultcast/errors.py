"""Exception hierarchy shared across the package.

Every error raised by library code derives from :class:`FaultcastError` so
callers (notably the CLI) can map failures to exit codes without matching on
message text.  :func:`load_json` is the one way outside JSON (model, store,
report, config, simulation spec, fault spec) becomes a typed value or one of
these errors.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class FaultcastError(Exception):
    """Base class for all package errors."""


class DataError(FaultcastError):
    """Problems with input data, schemas, or persisted artifacts."""


class IoError(DataError):
    """A file could not be read or written."""


class SchemaError(DataError):
    """A file does not follow the expected layout (header, cell types)."""


class MissingValue(DataError):
    """An empty cell was found and the active policy cannot repair it."""


class MalformedKpiId(DataError):
    """A KPI key does not parse as ``metric@node``."""


class SchemaMismatch(DataError):
    """Dataset columns do not match the columns a model was trained on."""


class DimensionMismatch(DataError):
    """Vector length differs from the expected dimension."""


class NonFiniteLoss(FaultcastError):
    """Training produced a NaN or infinite loss."""


class TooFewPoints(FaultcastError):
    """A curve has too few points for knee selection."""


class InsufficientHistory(FaultcastError):
    """Fewer buffered samples than the analysis window requires."""


class NoNodes(FaultcastError):
    """Centrality was requested for an empty graph."""


class EmptyDocument(DataError):
    """A document to ingest has no content."""


class EmptyStore(FaultcastError):
    """Retrieval was attempted against a store with no chunks."""


class MissingDescriptor(FaultcastError):
    """An anomalous KPI has no human-readable description."""


class EndpointError(FaultcastError):
    """A remote endpoint failed after all retries."""


class Timeout(EndpointError):
    """A remote endpoint did not answer within the deadline."""


class OnsetOutOfRange(DataError):
    """A fault onset lies outside the simulated time range."""


class NoAnomalousReport(FaultcastError):
    """Localization scoring got no anomalous report to score."""


def load_json(
    build: Callable[[dict[str, Any]], T],
    what: str,
    *,
    path: str | os.PathLike[str],
    version: int | None = None,
    object_hook: Callable[[dict[str, Any]], Any] | None = None,
) -> T:
    """Decode the JSON object in the file at ``path`` and ``build`` a value from it.

    An unreadable file raises :class:`IoError`.  Text that is not JSON or
    holds the literal ``NaN`` (``Infinity`` is read as a float), a document
    that is not an object (or whose ``version`` is not the given integer),
    and a ``KeyError``, ``TypeError``, ``ValueError``, ``AttributeError`` or
    ``OverflowError`` raised by ``build`` raise :class:`SchemaError`; ``what``
    names the document.  Every :class:`DataError` ends with the file's path.

    ``object_hook``, if given, is ``json.load``'s: it is called with each
    JSON object as the parser closes it, innermost first, and its result
    takes the object's place.  It must not raise, since an error inside the
    parser reads as text that is not JSON.
    """
    where = f" (in {path})"

    def constant(literal: str) -> float:
        if literal == "NaN":
            raise SchemaError(f"{what} holds the JSON literal NaN, which is not a number{where}")
        return float(literal)

    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_constant=constant, object_hook=object_hook)
    except OSError as exc:
        raise IoError(f"cannot read {what}: {path}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise SchemaError(f"{what} is not valid JSON{where}") from exc
    if not isinstance(payload, dict):
        raise SchemaError(f"{what} must hold a JSON object{where}")
    found = payload.get("version")
    if version is not None and (type(found) is not int or found != version):
        raise SchemaError(f"unsupported {what} version {found!r}{where}")
    try:
        return build(payload)
    except KeyError as exc:
        raise SchemaError(f"{what} is missing key {exc}{where}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SchemaError(f"malformed {what}: {exc}{where}") from exc
    except DataError as exc:
        raise type(exc)(f"{exc}{where}") from exc
