"""HTTP plumbing shared by the embedding and completion clients.

:class:`~faultcast.config.EndpointsConfig` holds the service address, the
model names and the retry policy.  :func:`post_json` sends one JSON POST to an
``http`` or ``https`` URL through :mod:`urllib.request`; after the first
failure the call is retried ``retries`` times with exponentially growing
pauses.  All failure modes end in :class:`EndpointError` (or its
:class:`Timeout` subclass when the last attempt timed out).
"""

from __future__ import annotations

import json
import time

from .config import EndpointsConfig
from .errors import EndpointError, Timeout


def post_json(endpoint: EndpointsConfig, route: str, payload: dict) -> dict:
    """POST ``payload`` as JSON to ``route`` under the base URL; return the decoded object (no NaN or Infinity)."""
    # Imported here: they pull in ssl and email, and only the remote clients ever post.
    import http.client
    import urllib.request

    url = f"{endpoint.base_url.rstrip('/')}/{route}"
    if not url.lower().startswith(("http://", "https://")):
        raise EndpointError(f"{endpoint.base_url}: base URL must be an http:// or https:// URL")

    def constant(literal: str) -> float:
        raise EndpointError(f"{url}: response holds the JSON literal {literal}, which is not a finite number")

    delay = endpoint.backoff
    failure: EndpointError | None = None
    for attempt in range(endpoint.retries + 1):
        try:
            data = json.dumps(payload, allow_nan=False).encode()
            request = urllib.request.Request(url, data, {"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=endpoint.timeout) as response:
                body = json.loads(response.read(), parse_constant=constant)
            if not isinstance(body, dict):
                raise EndpointError(f"{url}: expected a JSON object response")
            return body
        except (OSError, http.client.HTTPException, ValueError) as exc:
            failure = EndpointError(f"{url}: {exc}")
            if isinstance(exc, TimeoutError) or isinstance(getattr(exc, "reason", None), TimeoutError):
                failure = Timeout(f"{url}: no answer within {endpoint.timeout}s")
            failure.__cause__ = exc
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # free the error response's socket now, not when the chain is collected
        if attempt < endpoint.retries:
            time.sleep(delay)
            delay *= 2
    assert failure is not None
    raise failure
