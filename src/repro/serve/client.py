"""A tiny stdlib client for the synthesis service.

:class:`ServeClient` wraps :mod:`http.client` with the service's
conventions -- JSON bodies, one request per connection, structured
error envelopes, JSONL streams -- so tests, examples and benchmarks
all talk to the server the same way (and the docs can show working
code with zero dependencies).

Transport errors and HTTP error responses both surface as
:class:`ServeResponse` values, never exceptions: a robustness client
must be able to *look at* a 429 (for ``retry_after_ms``) rather than
unwind on it.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..obs.telemetry import current_trace_context

__all__ = ["ServeClient", "ServeResponse"]


def _trace_headers() -> Dict[str, str]:
    """A ``traceparent`` header naming the caller's ambient position
    (its open span, inside one), so the server joins the client's trace
    instead of minting its own."""
    ctx = current_trace_context()
    if ctx is None:
        return {}
    return {"traceparent": ctx.to_traceparent()}


def _truncated_stream_record(detail: str) -> Dict[str, Any]:
    """The synthetic terminal record yielded when a JSONL stream dies
    mid-read: same envelope shape as a server-side error line, so one
    consumer loop handles both."""
    return {
        "ok": False,
        "error": {
            "code": "truncated_stream",
            "kind": "transport",
            "message": f"stream ended before completion: {detail}",
        },
    }


@dataclass
class ServeResponse:
    """One exchange with the service: status + parsed body."""

    status: int
    body: Any = None
    #: JSONL records, populated for streaming endpoints.
    lines: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def error(self) -> Optional[Dict[str, Any]]:
        """The structured error block, if the body carries one."""
        if isinstance(self.body, dict):
            err = self.body.get("error")
            if isinstance(err, dict):
                return err
        return None

    @property
    def error_code(self) -> Optional[str]:
        err = self.error
        return str(err["code"]) if err and "code" in err else None

    @property
    def retry_after_ms(self) -> Optional[float]:
        err = self.error
        if err and err.get("retry_after_ms") is not None:
            return float(err["retry_after_ms"])
        return None


def _parse_body(raw: bytes, content_type: str) -> Any:
    if not raw:
        return None
    if "json" in content_type and "ndjson" not in content_type:
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError:
            return raw.decode("utf-8", "replace")
    return raw.decode("utf-8", "replace")


class ServeClient:
    """Talks to one server; a new connection per request (the server's
    framing is ``Connection: close``)."""

    def __init__(self, host: str, port: int, timeout_s: float = 60.0):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    # -- plumbing ------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> ServeResponse:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            body = None
            headers = _trace_headers()
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            content_type = response.getheader("Content-Type", "")
            raw = response.read()
            if "ndjson" in content_type:
                lines = [
                    json.loads(line)
                    for line in raw.decode("utf-8").splitlines()
                    if line.strip()
                ]
                return ServeResponse(status=response.status, lines=lines)
            return ServeResponse(
                status=response.status, body=_parse_body(raw, content_type)
            )
        finally:
            conn.close()

    def get(self, path: str) -> ServeResponse:
        return self._request("GET", path)

    def post(self, path: str, payload: Dict[str, Any]) -> ServeResponse:
        return self._request("POST", path, payload)

    # -- streaming (line-at-a-time, for clients that act per record) ---
    def stream(
        self, path: str, payload: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """POST and yield JSONL records as they arrive.

        A stream that dies mid-read -- the server vanishing, a reset
        connection, a half-written trailing line -- terminates with one
        synthetic ``truncated_stream`` error record instead of raising,
        so consumers that act per record see a structured failure in
        the same shape as any server-side error line.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            body = json.dumps(payload).encode("utf-8")
            conn.request(
                "POST", path, body=body,
                headers={"Content-Type": "application/json", **_trace_headers()},
            )
            response = conn.getresponse()
            content_type = response.getheader("Content-Type", "")
            if "ndjson" not in content_type:
                parsed = _parse_body(response.read(), content_type)
                record = parsed if isinstance(parsed, dict) else {"body": parsed}
                yield {"__status__": response.status, **record}
                return
            buffer = b""
            while True:
                try:
                    chunk = response.read(4096)
                except (OSError, http.client.HTTPException) as exc:
                    yield _truncated_stream_record(
                        f"{type(exc).__name__}: {exc}"
                    )
                    return
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line.strip():
                        yield json.loads(line)
            if buffer.strip():
                # A trailing fragment without its newline means the
                # server died mid-line; the bytes cannot be a record.
                try:
                    yield json.loads(buffer)
                except ValueError:
                    yield _truncated_stream_record(
                        f"{len(buffer)} byte partial trailing line"
                    )
        finally:
            conn.close()

    # -- the service's verbs -------------------------------------------
    def healthz(self) -> ServeResponse:
        return self.get("/healthz")

    def readyz(self) -> ServeResponse:
        return self.get("/readyz")

    def metrics(self, as_json: bool = True) -> ServeResponse:
        return self.get("/metrics?format=json" if as_json else "/metrics")

    def synthesize(self, **payload: Any) -> ServeResponse:
        return self.post("/synthesize", payload)

    def batch(self, **payload: Any) -> ServeResponse:
        return self.post("/batch", payload)

    def lint(self, netlist: str, **payload: Any) -> ServeResponse:
        return self.post("/lint", {"netlist": netlist, **payload})

    def analyze(self, spec: Dict[str, Any], **payload: Any) -> ServeResponse:
        return self.post("/analyze", {"spec": spec, **payload})
