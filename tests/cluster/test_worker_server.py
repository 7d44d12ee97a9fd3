"""In-process `WorkerServer`: one shard exercised over real sockets."""

from __future__ import annotations

import asyncio
import json

from repro.config import SolveConfig
from repro.cluster import WorkerServer, protocol
from repro.cluster.worker import build_worker_service
from repro.instances import pigou
from repro.serve.service import ServiceStats


def run_against_worker(interaction, *, store_dir=None):
    """Start a worker on an ephemeral port, run ``interaction``, stop it."""

    async def main():
        worker = WorkerServer(store_dir=store_dir)
        await worker.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           worker.port)
            try:
                return await interaction(worker, reader, writer)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        finally:
            await worker.stop()

    return asyncio.run(main())


async def exchange(reader, writer, method, path, body=b"", headers=None):
    await protocol.write_request(writer, method, path, body, headers=headers)
    return await protocol.read_response(reader)


class TestSolveRoute:
    def test_solve_round_trip(self):
        body, digest = protocol.encode_solve_request(
            pigou(), "optop", SolveConfig(compute_nash=False))

        async def interaction(worker, reader, writer):
            status, _, payload = await exchange(
                reader, writer, "POST", "/solve", body,
                headers={protocol.DIGEST_HEADER: digest})
            assert status == 200
            report = protocol.decode_report(payload)
            assert report.beta is not None
            stats = worker.service.stats()
            assert stats.requests == 1
            assert stats.consistent
            return report

        run_against_worker(interaction)

    def test_repeated_solves_hit_tier1_on_one_connection(self):
        body, digest = protocol.encode_solve_request(
            pigou(), "optop", SolveConfig(compute_nash=False))

        async def interaction(worker, reader, writer):
            for _ in range(3):  # keep-alive: three requests, one socket
                status, _, _payload = await exchange(
                    reader, writer, "POST", "/solve", body,
                    headers={protocol.DIGEST_HEADER: digest})
                assert status == 200
            stats = worker.service.stats()
            assert stats.requests == 3
            assert stats.tier1_hits == 2
            assert stats.enqueued == 1

        run_against_worker(interaction)

    def test_malformed_solve_body_yields_400(self):
        async def interaction(worker, reader, writer):
            status, _, payload = await exchange(
                reader, writer, "POST", "/solve", b"not json")
            assert status == 400
            assert json.loads(payload)["error"] == "ModelError"

        run_against_worker(interaction)


class TestControlRoutes:
    def test_stats_route_ships_exact_snapshot(self):
        async def interaction(worker, reader, writer):
            status, _, payload = await exchange(reader, writer,
                                                "GET", "/stats")
            assert status == 200
            remote = ServiceStats.from_dict(json.loads(payload))
            assert remote == worker.service.stats()

        run_against_worker(interaction)

    def test_health_route(self):
        async def interaction(worker, reader, writer):
            status, _, payload = await exchange(reader, writer,
                                                "GET", "/health")
            assert status == 200
            health = json.loads(payload)
            assert health["status"] == "ok"
            assert health["port"] == worker.port

        run_against_worker(interaction)

    def test_drain_route(self):
        async def interaction(worker, reader, writer):
            status, _, payload = await exchange(
                reader, writer, "POST", "/drain",
                json.dumps({"timeout": 5.0}).encode())
            assert status == 200
            assert json.loads(payload)["drained"] is True

        run_against_worker(interaction)

    def test_unknown_route_yields_404(self):
        async def interaction(worker, reader, writer):
            status, _, _payload = await exchange(reader, writer,
                                                 "GET", "/nope")
            assert status == 404

        run_against_worker(interaction)


class TestSharedStoreTier:
    def test_cold_worker_serves_warm_keys_from_shared_store(self, tmp_path):
        store = str(tmp_path / "store")
        body, digest = protocol.encode_solve_request(
            pigou(), "optop", SolveConfig(compute_nash=False))

        async def solve_once(worker, reader, writer):
            status, _, _payload = await exchange(
                reader, writer, "POST", "/solve", body,
                headers={protocol.DIGEST_HEADER: digest})
            assert status == 200
            return worker.service.stats()

        first = run_against_worker(solve_once, store_dir=store)
        assert first.enqueued == 1
        # A brand-new worker on the same store: tier-2 hit, no solver call.
        second = run_against_worker(solve_once, store_dir=store)
        assert second.tier2_hits == 1
        assert second.enqueued == 0


class TestDigestPassthrough:
    def test_wire_digest_becomes_the_cache_key(self):
        service = build_worker_service()
        service.start()
        try:
            config = SolveConfig(compute_nash=False)
            _, digest = protocol.encode_solve_request(pigou(), "optop",
                                                      config)
            service.submit(pigou(), "optop", config=config,
                           digest=digest).result(timeout=60.0)
            # Same digest, submitted without recomputation: tier-1 hit.
            service.submit(pigou(), "optop", config=config,
                           digest=digest).result(timeout=60.0)
            stats = service.stats()
            assert stats.tier1_hits == 1
            assert stats.enqueued == 1
        finally:
            service.shutdown()

    def test_passthrough_matches_computed_digest(self):
        service = build_worker_service()
        service.start()
        try:
            config = SolveConfig(compute_nash=False)
            _, digest = protocol.encode_solve_request(pigou(), "optop",
                                                      config)
            service.submit(pigou(), "optop", config=config,
                           digest=digest).result(timeout=60.0)
            # A submit that computes the digest itself must land on the
            # same tier-1 entry — passthrough and local hashing agree.
            service.submit(pigou(), "optop",
                           config=config).result(timeout=60.0)
            assert service.stats().tier1_hits == 1
        finally:
            service.shutdown()
