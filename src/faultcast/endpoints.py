"""HTTP plumbing shared by the embedding and completion clients.

:class:`EndpointsConfig` holds the service address, the model names and the
retry policy.  :func:`post_json` sends one JSON POST with bounded retries:
after the first failure the call is retried ``retries`` times with
exponentially growing pauses.  All failure modes end in
:class:`EndpointError` (or its :class:`Timeout` subclass when the last
attempt timed out).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import requests

from .errors import EndpointError, Timeout


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
        if not 0 < self.timeout < math.inf:
            raise ValueError("timeout must be positive and finite")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if not 0 <= self.backoff < math.inf:
            raise ValueError("backoff must be non-negative and finite")


def post_json(endpoint: EndpointsConfig, route: str, payload: dict) -> dict:
    """POST ``payload`` as JSON to ``route`` under the base URL; return the decoded object (no NaN or Infinity)."""
    url = f"{endpoint.base_url.rstrip('/')}/{route}"

    def constant(literal: str) -> float:
        raise EndpointError(f"{url}: response holds the JSON literal {literal}, which is not a finite number")

    delay = endpoint.backoff
    failure: EndpointError | None = None
    for attempt in range(endpoint.retries + 1):
        try:
            response = requests.post(url, json=payload, timeout=endpoint.timeout)
            response.raise_for_status()
            body = response.json(parse_constant=constant)
            if not isinstance(body, dict):
                raise EndpointError(f"{url}: expected a JSON object response")
            return body
        except requests.Timeout as exc:
            failure = Timeout(f"{url}: no answer within {endpoint.timeout}s")
            failure.__cause__ = exc
        except (requests.RequestException, ValueError) as exc:
            failure = EndpointError(f"{url}: {exc}")
            failure.__cause__ = exc
        if attempt < endpoint.retries:
            time.sleep(delay)
            delay *= 2
    assert failure is not None
    raise failure
