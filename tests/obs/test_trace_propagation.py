"""Trace propagation: one trace id across gateway -> worker -> batch.

The fast tests run an in-process `WorkerServer` (real sockets, no child
processes) and a `ClusterGateway` against scripted fake workers, covering
the retry-after-503 and failover annotations without timing dependence.
The slow test drives a real 2-worker cluster and asserts the aggregated
cross-process trace."""

from __future__ import annotations

import asyncio
import json
import socket
from collections import deque

import pytest

from repro.config import SolveConfig
from repro.cluster import protocol
from repro.cluster.gateway import ClusterGateway
from repro.cluster.hashing import route
from repro.cluster.worker import WorkerServer
from repro.instances import pigou, random_linear_parallel
from repro.obs import Observability, trace_id_for

QUICK = SolveConfig(compute_nash=False)


def spans_by_name(obs: Observability):
    out = {}
    for record in obs.tracer.spans():
        out.setdefault(record["name"], []).append(record)
    return out


class TestWorkerSpans:
    def test_one_solve_yields_worker_and_batch_spans_sharing_the_id(self):
        obs = Observability(service="worker-test")
        trace_id = trace_id_for("digest", 1)
        body, digest = protocol.encode_solve_request(
            random_linear_parallel(4, demand=2.0, seed=11), "optop", QUICK)

        async def main():
            worker = WorkerServer(obs=obs)
            await worker.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", worker.port)
                try:
                    await protocol.write_request(
                        writer, "POST", "/solve", body,
                        headers={protocol.DIGEST_HEADER: digest,
                                 protocol.TRACE_HEADER: trace_id})
                    status, _, payload = await protocol.read_response(reader)
                    assert status == 200, payload
                finally:
                    writer.close()
            finally:
                await worker.stop()

        asyncio.run(main())
        spans = spans_by_name(obs)
        assert set(spans) >= {"worker.solve", "service.batch"}, set(spans)
        solve_span = spans["worker.solve"][0]
        batch_span = spans["service.batch"][0]
        assert solve_span["trace_id"] == trace_id
        assert batch_span["trace_id"] == trace_id
        kernel_spans = [record for name, records in spans.items()
                        if name.startswith("kernel.") for record in records]
        assert kernel_spans, set(spans)
        assert all(record["trace_id"] == trace_id
                   for record in kernel_spans)

    def test_worker_without_trace_header_records_no_solve_span(self):
        obs = Observability(service="worker-test")
        body, digest = protocol.encode_solve_request(pigou(), "optop", QUICK)

        async def main():
            worker = WorkerServer(obs=obs)
            await worker.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", worker.port)
                try:
                    await protocol.write_request(
                        writer, "POST", "/solve", body,
                        headers={protocol.DIGEST_HEADER: digest})
                    status, _, _ = await protocol.read_response(reader)
                    assert status == 200
                finally:
                    writer.close()
            finally:
                await worker.stop()

        asyncio.run(main())
        names = set(spans_by_name(obs))
        assert "worker.solve" not in names


class FakeWorker:
    """A scripted shard: answers each request from a response queue."""

    def __init__(self, responses):
        self.responses = deque(responses)
        self.requests = []  # (method, path, headers) in arrival order
        self.server = None
        self.port = None

    async def start(self):
        self.server = await asyncio.start_server(
            self._handle, host="127.0.0.1", port=0)
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self):
        self.server.close()
        await self.server.wait_closed()

    async def _handle(self, reader, writer):
        try:
            while True:
                message = await protocol.read_request(reader)
                if message is None:
                    break
                method, path, headers, _ = message
                self.requests.append((method, path, headers))
                status, payload = self.responses.popleft() \
                    if self.responses else (200, b"{}")
                await protocol.write_response(writer, status, payload)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def free_port() -> int:
    """A port with nothing listening (for the dead-worker endpoint)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


OVERLOADED = json.dumps({"error": "ServiceOverloadedError",
                         "message": "full", "queue_depth": 9}).encode()


class TestGatewayAnnotations:
    def test_retry_after_503_is_annotated(self):
        obs = Observability(service="gateway")

        async def main():
            worker = FakeWorker([(503, OVERLOADED), (200, b"{}")])
            await worker.start()
            gateway = ClusterGateway([("127.0.0.1", worker.port)],
                                     backoff_base_ms=1.0,
                                     backoff_cap_ms=2.0, obs=obs)
            try:
                status, payload = await gateway.submit_encoded(
                    b"{}", "digest-1")
                assert status == 200, payload
            finally:
                gateway.close()
                await worker.stop()
            return worker.requests

        requests = asyncio.run(main())
        span = spans_by_name(obs)["gateway.request"][0]
        assert span["annotations"]["retry"] == 1
        assert span["annotations"]["status"] == 200
        assert "reroutes" not in span["annotations"]
        # Both attempts shipped the same deterministic trace id.
        shipped = [headers[protocol.TRACE_HEADER]
                   for method, path, headers in requests
                   if path == "/solve"]
        assert len(shipped) == 2
        assert set(shipped) == {span["trace_id"]}
        assert span["trace_id"] == trace_id_for("digest-1", 1)
        # The retry went to the histogram too: one end-to-end sample.
        hist = obs.latency_histogram("repro_gateway_request_seconds")
        assert hist.snapshot()["count"] == 1

    def test_failover_to_the_surviving_worker_is_annotated(self):
        obs = Observability(service="gateway")
        dead_port = free_port()

        async def main():
            live = FakeWorker([(200, b"{}")])
            await live.start()
            dead_id = f"127.0.0.1:{dead_port}"
            node_ids = [dead_id, f"127.0.0.1:{live.port}"]
            # Pick a digest the rendezvous router sends to the dead shard
            # first, so the request must fail over.
            digest = next(f"digest-{i}" for i in range(1000)
                          if route(f"digest-{i}", node_ids) == dead_id)
            gateway = ClusterGateway(
                [("127.0.0.1", dead_port), ("127.0.0.1", live.port)],
                backoff_base_ms=1.0, backoff_cap_ms=2.0, obs=obs)
            try:
                status, payload = await gateway.submit_encoded(
                    b"{}", digest)
                assert status == 200, payload
            finally:
                gateway.close()
                await live.stop()

        asyncio.run(main())
        span = spans_by_name(obs)["gateway.request"][0]
        assert span["annotations"]["reroutes"] == 1
        assert span["annotations"]["retry"] == 0
        assert span["annotations"]["status"] == 200

    def test_disabled_obs_ships_no_trace_header(self):
        async def main():
            worker = FakeWorker([(200, b"{}")])
            await worker.start()
            gateway = ClusterGateway([("127.0.0.1", worker.port)])
            try:
                status, _ = await gateway.submit_encoded(b"{}", "digest-1")
                assert status == 200
            finally:
                gateway.close()
                await worker.stop()
            return worker.requests

        requests = asyncio.run(main())
        _, _, headers = requests[0]
        assert protocol.TRACE_HEADER not in headers


@pytest.mark.slow
class TestClusterTracePropagation:
    def test_cross_process_trace_shares_one_id(self, tmp_path):
        from repro.cluster import start_cluster

        instance = random_linear_parallel(4, demand=2.0, seed=23)
        with start_cluster(n_workers=2, store_dir=str(tmp_path / "store"),
                           obs=True) as cluster:
            report = cluster.solve(instance, "optop", config=QUICK,
                                   timeout=60.0)
            assert report.beta is not None
            events = cluster.trace()["traceEvents"]

        by_trace = {}
        for event in events:
            by_trace.setdefault(event["cat"], set()).add(event["name"])
        # The one request produced one trace with a gateway span, a worker
        # span and at least one batch span, all sharing the trace id.
        full = [names for names in by_trace.values()
                if {"gateway.request", "worker.solve",
                    "service.batch"} <= names]
        assert full, by_trace
        gateway_events = [event for event in events
                          if event["name"] == "gateway.request"]
        assert gateway_events[0]["args"]["retry"] == 0
        # Chrome trace events from different processes stay well-formed.
        services = {event["pid"] for event in events}
        assert any(pid == "gateway" for pid in services)
        assert any(pid.startswith("worker-") for pid in services)
