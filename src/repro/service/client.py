"""Stdlib HTTP client for a running simulation service.

:class:`ServiceClient` wraps the ``/v1`` endpoints with plain
``urllib``; no dependencies.  It is deliberately *session-shaped*: it
exposes ``run_many(specs)`` with the same signature and bit-identical
results as :meth:`repro.service.session.SimService.run_many`, so any
code written against a session -- including every paper artefact's
``compute(..., session=)`` hook -- can run against a remote service
unchanged::

    client = ServiceClient("http://127.0.0.1:8421")
    fig5 = ARTEFACTS["figure5"].compute(session=client)

Service-side errors are re-raised as :class:`ServiceClientError` with
the HTTP status and the server's message.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Iterator

from repro.core.pipeline import SimResult


class ServiceClientError(RuntimeError):
    """An HTTP endpoint returned an error document."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceClient:
    """Talk to one service at ``base_url`` (e.g. ``http://127.0.0.1:8421``)."""

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------------

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as e:
            try:
                message = json.loads(e.read()).get("error", str(e))
            except ValueError:
                message = str(e)
            raise ServiceClientError(e.code, message) from None

    # -- endpoints -----------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def metrics(self) -> str:
        """The raw Prometheus text from ``GET /v1/metrics``."""
        req = urllib.request.Request(self.base_url + "/v1/metrics")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.read().decode()
        except urllib.error.HTTPError as e:
            raise ServiceClientError(e.code, str(e)) from None
        except urllib.error.URLError as e:
            raise ServiceClientError(0, f"cannot reach {self.base_url}: {e.reason}") from None

    def submit(self, specs) -> dict:
        """Submit a batch of ``SimSpec`` objects (or ready wire docs)."""
        from repro.service.wire import spec_to_doc

        docs = [s if isinstance(s, dict) else spec_to_doc(s) for s in specs]
        return self._request("POST", "/v1/batch", {"specs": docs})

    def batch_status(self, batch_id: str) -> dict:
        return self._request("GET", f"/v1/batch/{batch_id}")

    def results(self, batch_id: str, timeout: float | None = None) -> list[SimResult]:
        """Block until a batch finishes; results in submission order."""
        path = f"/v1/batch/{batch_id}/results"
        if timeout is not None:
            path += f"?timeout={timeout}"
        doc = self._request("GET", path)
        return [SimResult.from_dict(r["result"]) for r in doc["results"]]

    def stream(self, batch_id: str, timeout: float = 300.0) -> Iterator[dict]:
        """Yield progress events (JSON lines) until the batch completes."""
        req = urllib.request.Request(
            self.base_url + f"/v1/batch/{batch_id}/stream?timeout={timeout}"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                for line in resp:
                    line = line.strip()
                    if line:
                        yield json.loads(line)
        except urllib.error.HTTPError as e:
            try:
                message = json.loads(e.read()).get("error", str(e))
            except ValueError:
                message = str(e)
            raise ServiceClientError(e.code, message) from None

    def result(self, cache_id: str) -> SimResult:
        doc = self._request("GET", f"/v1/result/{cache_id}")
        return SimResult.from_dict(doc["result"])

    def clear_cache(self) -> tuple[int, int]:
        doc = self._request("POST", "/v1/cache/clear")
        return (doc["removed"], doc["stale"])

    # -- the session-shaped facade ------------------------------------------

    def run_many(self, specs, jobs: int | None = None) -> list[SimResult]:
        """Submit + wait: remote twin of ``SimService.run_many``.

        ``jobs`` is accepted for interface parity but ignored -- the
        *service* owns its worker pool; a client cannot resize it.
        """
        batch = self.submit(specs)
        return self.results(batch["batch"])
