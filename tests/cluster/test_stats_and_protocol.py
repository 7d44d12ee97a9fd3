"""ServiceStats wire round-trips and the cluster JSON/HTTP protocol."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import SolveConfig
from repro.cluster import protocol
from repro.exceptions import (
    ClusterError,
    ModelError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.instances import pigou
from repro.serve.service import ServiceStats


class TestServiceStatsRoundTrip:
    def test_to_dict_from_dict_round_trip(self):
        stats = ServiceStats(requests=10, tier1_hits=4, tier2_hits=2,
                             coalesced=1, enqueued=3, batches=2,
                             queue_peak=5, pending=0,
                             cache={"memory": {"hits": 4}})
        rebuilt = ServiceStats.from_dict(stats.to_dict())
        assert rebuilt == stats
        assert rebuilt.consistent

    def test_round_trip_survives_json(self):
        stats = ServiceStats(requests=7, tier1_hits=7, queue_peak=3)
        payload = json.dumps(stats.to_dict(), sort_keys=True)
        assert ServiceStats.from_dict(json.loads(payload)) == stats

    def test_from_dict_ignores_derived_keys(self):
        data = ServiceStats(requests=3, enqueued=3).to_dict()
        data["hits"] = 999            # derived: recomputed, not trusted
        data["consistent"] = False    # derived: recomputed, not trusted
        rebuilt = ServiceStats.from_dict(data)
        assert rebuilt.hits == 0
        assert rebuilt.consistent

    def test_from_dict_rejects_unknown_keys(self):
        data = ServiceStats(requests=3, enqueued=3).to_dict()
        data["speculative_solves"] = 4
        with pytest.raises(ModelError, match="speculative_solves"):
            ServiceStats.from_dict(data)

    def test_merge_sums_counters_and_preserves_partition(self):
        a = ServiceStats(requests=10, tier1_hits=6, enqueued=4,
                         batches=1, queue_peak=2,
                         cache={"memory": {"hits": 6}})
        b = ServiceStats(requests=5, tier2_hits=2, coalesced=1, enqueued=1,
                         rejected=1, batches=1, queue_peak=7,
                         cache={"memory": {"hits": 2}})
        merged = a.merge(b)
        assert merged.requests == 15
        assert merged.tier1_hits == 6
        assert merged.tier2_hits == 2
        assert merged.enqueued == 5
        assert merged.queue_peak == 7          # high-water mark: max
        assert merged.cache == {"memory": {"hits": 8}}
        assert a.consistent and b.consistent and merged.consistent

    def test_merge_of_many_is_order_independent(self):
        parts = [ServiceStats(requests=i, enqueued=i, queue_peak=i)
                 for i in range(1, 5)]
        forward = parts[0].merge(*parts[1:])
        backward = parts[-1].merge(*parts[-2::-1])
        assert forward == backward

    def test_since_subtracts_every_additive_field(self):
        from dataclasses import fields

        point = {"queue_peak", "pending", "cache"}
        names = [f.name for f in fields(ServiceStats)]
        before = ServiceStats(**{name: 10 + i for i, name in enumerate(names)
                                 if name not in point},
                              queue_peak=9, pending=4,
                              cache={"memory": {"hits": 1}})
        after = ServiceStats(**{name: 100 + 3 * i
                                for i, name in enumerate(names)
                                if name not in point},
                             queue_peak=3, pending=1,
                             cache={"memory": {"hits": 5}})
        delta = after.since(before)
        for i, name in enumerate(names):
            if name not in point:
                assert getattr(delta, name) == 90 + 2 * i, name
        # Point-in-time values come from the later snapshot; the tiers'
        # counters belong to the cache handles and are left out.
        assert delta.queue_peak == 3 and delta.pending == 1
        assert delta.cache == {}
        assert set(names) - point - {"requests"} >= {"timeouts",
                                                     "shutdown_timeouts"}

    def test_since_of_a_snapshot_is_zero(self):
        stats = ServiceStats(requests=5, enqueued=5, timeouts=2,
                             queue_peak=4, pending=1)
        delta = stats.since(stats)
        assert delta == ServiceStats(queue_peak=4, pending=1)
        assert delta.consistent

    def test_merge_keeps_inconsistency_visible(self):
        broken = ServiceStats(requests=5, tier1_hits=1)  # 4 unaccounted
        merged = ServiceStats(requests=2, tier1_hits=2).merge(broken)
        assert not merged.consistent


class TestOverloadedError:
    def test_carries_queue_depth(self):
        exc = ServiceOverloadedError("full", queue_depth=17)
        assert exc.queue_depth == 17

    def test_queue_depth_defaults_to_none(self):
        assert ServiceOverloadedError("full").queue_depth is None


class TestSolveRequestWire:
    def test_encode_decode_round_trip(self):
        instance = pigou()
        config = SolveConfig(compute_nash=False)
        body, digest = protocol.encode_solve_request(instance, "optop",
                                                     config)
        decoded_instance, strategy, decoded_config, decoded_digest = \
            protocol.decode_solve_request(body)
        assert strategy == "optop"
        assert decoded_digest == digest
        assert decoded_config.compute_nash is False
        assert decoded_instance.num_links == instance.num_links

    def test_digest_is_stable_across_encodes(self):
        _, first = protocol.encode_solve_request(pigou(), "optop", None)
        _, second = protocol.encode_solve_request(pigou(), "optop", None)
        assert first == second

    def test_malformed_body_raises_model_error(self):
        # ModelError -> HTTP 400: the caller sent garbage, not the cluster.
        with pytest.raises(ModelError):
            protocol.decode_solve_request(b"not json")


class TestErrorWire:
    def test_overload_maps_to_503_with_queue_depth(self):
        status, body = protocol.error_response(
            ServiceOverloadedError("queue full", queue_depth=42))
        assert status == 503
        with pytest.raises(ServiceOverloadedError) as excinfo:
            protocol.raise_for_response(status, body)
        assert excinfo.value.queue_depth == 42

    def test_closed_maps_to_503_and_reconstructs(self):
        status, body = protocol.error_response(ServiceClosedError("bye"))
        assert status == 503
        with pytest.raises(ServiceClosedError):
            protocol.raise_for_response(status, body)

    def test_model_error_maps_to_400(self):
        status, body = protocol.error_response(ModelError("bad instance"))
        assert status == 400
        with pytest.raises(ClusterError):
            protocol.raise_for_response(status, body)

    def test_unknown_error_maps_to_500(self):
        status, _ = protocol.error_response(RuntimeError("boom"))
        assert status == 500

    def test_success_does_not_raise(self):
        protocol.raise_for_response(200, b"{}")


class TestHttpFraming:
    def _round_trip(self, writer_coro, reader_coro):
        async def run():
            read_stream = asyncio.StreamReader()

            class _Collector:
                def __init__(self):
                    self.chunks = []

                def write(self, data):
                    self.chunks.append(bytes(data))
                    read_stream.feed_data(data)

                async def drain(self):
                    return None

            collector = _Collector()
            await writer_coro(collector)
            read_stream.feed_eof()
            return await reader_coro(read_stream)

        return asyncio.run(run())

    def test_request_round_trip(self):
        async def write(writer):
            await protocol.write_request(
                writer, "POST", "/solve", b'{"x": 1}',
                headers={protocol.DIGEST_HEADER: "abc123"})

        result = self._round_trip(write, protocol.read_request)
        method, path, headers, body = result
        assert (method, path) == ("POST", "/solve")
        assert headers[protocol.DIGEST_HEADER] == "abc123"
        assert body == b'{"x": 1}'

    def test_response_round_trip(self):
        async def write(writer):
            await protocol.write_response(writer, 503, b'{"q": 9}')

        status, headers, body = self._round_trip(write,
                                                 protocol.read_response)
        assert status == 503
        assert body == b'{"q": 9}'

    def test_clean_eof_reads_as_none(self):
        async def write(writer):
            return None

        assert self._round_trip(write, protocol.read_request) is None

    def test_oversized_request_line_is_rejected(self):
        async def run():
            stream = asyncio.StreamReader()
            stream.feed_data(b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n")
            stream.feed_eof()
            await protocol.read_request(stream)

        with pytest.raises((ClusterError, asyncio.LimitOverrunError)):
            asyncio.run(run())
