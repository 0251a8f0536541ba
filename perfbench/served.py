"""The ``serve_synth`` workload: ``repro serve`` under closed-loop load.

The server runs as a subprocess in process mode with one worker and
the result cache on.  Two client threads in this process send seeded
``/synthesize`` requests (verification off) from the item-4 ranges,
each thread waiting for its reply before sending the next.  Two in five
requests repeat an earlier spec, so cache reads run beside cache
writes; the share stays off one half so that the latency median sits
inside the miss population instead of on the gap between hits and
misses.

The load generator imports nothing from the program while it measures;
afterwards every served record is checked against the in-process
``synthesize()`` record for its spec, modulo ``VOLATILE_KEYS``.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import checks
import common
import inputs
import layers

CLIENTS = 2
REPEAT_SHARE = 0.4
#: Fresh specs drawn per run second, well above what one worker answers.
DRAWS_PER_SECOND = 2000

#: SO_LINGER on with a zero timeout: close() sends a reset.
_RESET = struct.pack("ii", 1, 0)

SERVE_COMMAND = (
    "-m", "repro", "serve",
    "--mode", "process", "--workers", "1", "--cache", "--port", "0",
)


def start_server() -> Tuple[subprocess.Popen, str, int, float]:
    """Spawn ``repro serve`` and wait for ``/readyz`` 200; returns the
    process, its address and the seconds that took."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *SERVE_COMMAND],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=common.program_env(),
        cwd=common.ROOT,
    )
    line = proc.stdout.readline().decode()
    match = re.match(r"serving on (\S+):(\d+)", line)
    if match is None:
        common.stop(proc)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    host, port = match.group(1), int(match.group(2))
    while _get(host, port, "/readyz")[0] != 200:
        if time.perf_counter() - start > 60:
            common.stop(proc)
            raise RuntimeError("repro serve never became ready")
        time.sleep(0.002)
    return proc, host, port, time.perf_counter() - start


def _get(host: str, port: int, path: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def load(host, port, stream, seconds, observe) -> Tuple[List[tuple], float]:
    """Closed-loop load; returns [(spec id, status, latency ms, body)]
    and the wall seconds it ran."""
    done: List[tuple] = []
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        while time.perf_counter() < deadline:
            spec_id, spec = stream.next()
            payload = {"spec": spec}
            if observe:
                payload["observe"] = True
            body = json.dumps(payload)
            start = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.connect()
                # Close with a reset once the reply is read: ~1000
                # connections a second would otherwise leave tens of
                # thousands of TIME_WAIT sockets on the loopback, which
                # slow later connects and carry over into the next run.
                conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _RESET)
                conn.request(
                    "POST", "/synthesize", body, {"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                status, data = response.status, response.read()
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                status, data = 0, repr(exc).encode()
            finally:
                conn.close()
            done.append((spec_id, status, common.elapsed_ms(start), data))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, time.perf_counter() - started


def measure(seed, seconds, observe) -> dict:
    """One fresh server, one load pass, then its /metrics snapshot."""
    proc, host, port, setup_s = start_server()
    try:
        stream = inputs.RequestStream(
            seed, int(DRAWS_PER_SECOND * seconds) + 100, REPEAT_SHARE
        )
        done, wall_s = load(host, port, stream, seconds, observe)
        status, body = _get(host, port, "/metrics?format=json")
    finally:
        common.stop(proc)
    return {
        "setup_s": setup_s,
        "stream": stream,
        "done": done,
        "wall_s": wall_s,
        "metrics": json.loads(body)["metrics"] if status == 200 else {},
    }


class Reference:
    """In-process synthesis records, one per distinct spec."""

    def __init__(self, clock=None, totals=None) -> None:
        common.use_source()
        from repro import CMOS_5UM, OpAmpSpec
        from repro.batch import VOLATILE_KEYS
        from repro.obs import Tracer
        from repro.opamp import designer

        self._api = (CMOS_5UM, OpAmpSpec, designer, Tracer)
        self.volatile_keys = VOLATILE_KEYS
        self.clock, self.totals = clock, totals
        self._expected: Dict[int, dict] = {}

    @property
    def distinct(self) -> int:
        return max(1, len(self._expected))

    def expected(self, spec_id: int, spec: dict) -> dict:
        if spec_id not in self._expected:
            process, OpAmpSpec, designer, Tracer = self._api
            spec = OpAmpSpec(**spec)
            if self.clock is None:
                result = designer.synthesize(spec, process, best_effort=True)
            else:
                tracer = Tracer()
                with self.clock, tracer.activate():
                    result = designer.synthesize(spec, process, best_effort=True)
                self.totals.add(tracer)
            self._expected[spec_id] = checks.expected_served(result)
        return self._expected[spec_id]


def check(passes, reference) -> dict:
    """Check every response against the in-process record."""
    attempted = failed = 0
    problems, sample = [], None
    for one in passes:
        stream = one["stream"]
        for spec_id, status, _, data in one["done"]:
            attempted += 1
            if status != 200:
                found = [f"HTTP {status}: {data[:200]!r}"]
            else:
                record = json.loads(data)
                expected = reference.expected(spec_id, stream.spec(spec_id))
                found = checks.check_served(record, expected, reference.volatile_keys)
                if not found and sample is None:
                    sample = (record, expected)
            if found:
                failed += 1
                problems.append(f"request for spec {spec_id}: {found[0]}")
    missed = checks.self_test(served=sample, volatile_keys=reference.volatile_keys)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5] + missed,
        "self_test_ok": sample is not None and not missed,
    }


def run(seed: int, seconds: float, trace: bool, setup_repeats: int) -> dict:
    if trace:
        return _run_traced(seed, seconds)
    setups = []
    for _ in range(setup_repeats - 1):
        proc, _, _, setup_s = start_server()
        common.stop(proc)
        setups.append(setup_s)
    one = measure(seed, seconds, observe=False)
    setups.append(one["setup_s"])
    result = check([one], Reference())
    latencies = [latency for _, _, latency, _ in one["done"]]
    result["metrics"] = common.end_to_end(setups, latencies, one["wall_s"])
    return result


def _run_traced(seed: int, seconds: float) -> dict:
    """Half the time untraced, half with ``observe`` on, each against a
    fresh server and the same request stream.  Serve, batch and cache
    timings come from the untraced half; the designer and knowledge-base
    figures from the in-process reference run, wrapped and traced."""
    plain = measure(seed, seconds / 2, observe=False)
    observed = measure(seed, seconds / 2, observe=True)
    clock, totals = layers.LayerClock(), layers.TracerTotals()
    reference = Reference(clock, totals)
    result = check([plain, observed], reference)
    result["metrics"] = layers.layer_metrics(clock, totals, reference.distinct)
    result["metrics"].update(_serve_metrics(plain, observed))
    return result


def _serve_metrics(plain, observed) -> dict:
    records = [
        (latency, json.loads(data))
        for _, status, latency, data in plain["done"]
        if status == 200
    ]
    overhead = [latency - record["wall_ms"] for latency, record in records]
    task_ms = [record["wall_ms"] for _, record in records]
    hits = [record["wall_ms"] for _, record in records if record["cache"] == "hit"]
    misses = [record["wall_ms"] for _, record in records if record["cache"] == "miss"]
    histograms = plain["metrics"].get("histograms", {})
    rejected = sum(
        1
        for one in (plain, observed)
        for _, status, _, _ in one["done"]
        if status == 429
    )

    def p50(values):
        return common.median(values) if values else 0.0

    latency = {
        name: common.median([lat for _, _, lat, _ in one["done"]])
        for name, one in (("plain", plain), ("observed", observed))
    }
    values = {
        "serve.overhead_ms_p50": p50(overhead),
        "serve.queue_wait_ms_p50": common.histogram_quantile(
            histograms.get("serve.queue_wait_ms", {}), 0.5
        ),
        "serve.request_ms_p50": common.histogram_quantile(
            histograms.get("serve.request_ms{endpoint=synthesize}", {}), 0.5
        ),
        "serve.rejected": float(rejected),
        "batch.task_ms_p50": p50(task_ms),
        "cache.synth.hit_share": common.share(len(hits), len(records)),
        "cache.synth.hit_ms_p50": p50(hits),
        "cache.synth.miss_ms_p50": p50(misses),
        "obs.trace_overhead_share": latency["observed"] / latency["plain"] - 1.0,
    }
    return values
