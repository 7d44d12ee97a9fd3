"""Full-cluster lifecycle: sharding, resume, fault tolerance, CLI.

These spawn real worker processes, so they live in the slow lane
(``-m slow``); the fast per-component coverage is in the sibling modules.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SolveConfig
from repro.cluster import start_cluster
from repro.cluster.hashing import route
from repro.serialization import instance_digest
from repro.serve.bench import build_workload
from repro.serve.service import ServiceStats

pytestmark = pytest.mark.slow

CONFIG = SolveConfig(compute_nash=False)


def make_stream(num_requests=40, num_distinct=30, seed=3):
    instances, schedule = build_workload(
        num_requests=num_requests, num_distinct=num_distinct,
        num_links=3, seed=seed)
    return [instances[i] for i in schedule]


class TestTwoPassResume:
    def test_second_pass_makes_zero_solver_calls(self, tmp_path):
        stream = make_stream(seed=0)
        merged, shard_enqueued = [], []
        with start_cluster(n_workers=2, store_dir=str(tmp_path / "store"),
                           max_wait_ms=2.0) as cluster:
            before = cluster.stats()
            for _ in range(2):
                cluster.solve_many(stream, "optop", config=CONFIG)
                after = cluster.stats()
                merged.append(
                    ServiceStats.from_dict(dict(after["merged"])).since(
                        ServiceStats.from_dict(dict(before["merged"]))))
                shard_enqueued.append({
                    node: entry["stats"]["enqueued"]
                    - before["workers"][node]["stats"]["enqueued"]
                    for node, entry in after["workers"].items()})
                before = after
        cold, warm = merged
        assert cold.consistent and warm.consistent
        assert cold.requests == warm.requests == 40
        assert cold.enqueued == 30               # one per distinct instance
        assert warm.enqueued == 0                # fully resumed
        assert warm.hits == 40
        assert len(shard_enqueued[1]) == 2
        assert all(count == 0 for count in shard_enqueued[1].values())

    def test_requests_follow_the_rendezvous_mapping(self, tmp_path):
        stream = make_stream()
        with start_cluster(n_workers=2,
                           store_dir=str(tmp_path / "store")) as cluster:
            node_ids = sorted(cluster.gateway.alive_ids())
            expected = {node: 0 for node in node_ids}
            for instance in stream:
                expected[route(instance_digest(instance), node_ids)] += 1
            cluster.solve_many(stream, "optop", config=CONFIG)
            stats = cluster.stats()
            observed = {node: entry["forwarded"]
                        for node, entry in stats["workers"].items()}
        assert observed == expected

    def test_cold_cluster_adopts_a_warm_store(self, tmp_path):
        store = str(tmp_path / "store")
        stream = make_stream()
        with start_cluster(n_workers=2, store_dir=store) as cluster:
            cluster.solve_many(stream, "optop", config=CONFIG)
        # Fresh processes, fresh tier-1 caches — only the store survives.
        with start_cluster(n_workers=2, store_dir=store) as cluster:
            cluster.solve_many(stream, "optop", config=CONFIG)
            merged = cluster.merged_stats()
        assert merged.enqueued == 0
        assert merged.tier2_hits > 0
        assert merged.consistent


class TestFaultTolerance:
    def test_killed_worker_loses_no_requests(self, tmp_path):
        stream = make_stream(num_requests=40, num_distinct=40)
        with start_cluster(n_workers=2,
                           store_dir=str(tmp_path / "store")) as cluster:
            futures = [cluster.submit(instance, "optop", config=CONFIG)
                       for instance in stream]
            dead = cluster.kill_worker(0)
            reports = [future.result(timeout=300.0) for future in futures]
            assert len(reports) == 40
            assert all(report.beta is not None for report in reports)
            stats = cluster.stats()
            assert stats["workers"][dead]["alive"] is False
            merged = cluster.merged_stats()
            assert merged.consistent
            # The survivor now owns every key: later requests just work.
            late = cluster.solve(stream[0], "optop", config=CONFIG)
            assert late.beta is not None

    def test_gateway_counts_reroutes(self, tmp_path):
        stream = make_stream(num_requests=30, num_distinct=30)
        with start_cluster(n_workers=2,
                           store_dir=str(tmp_path / "store")) as cluster:
            cluster.solve_many(stream[:10], "optop", config=CONFIG)
            cluster.kill_worker(1)
            cluster.solve_many(stream[10:], "optop", config=CONFIG)
            gateway = cluster.stats()["gateway"]
        assert gateway["requests"] == 30
        assert gateway["failures"] == 0
        assert gateway["reroutes"] >= 1


class TestHttpGateway:
    def test_http_front_door_solves_and_reports_stats(self, tmp_path):
        import asyncio

        from repro.cluster import protocol
        from repro.instances import pigou

        async def drive(port):
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            try:
                body, digest = protocol.encode_solve_request(
                    pigou(), "optop", CONFIG)
                await protocol.write_request(
                    writer, "POST", "/solve", body,
                    headers={protocol.DIGEST_HEADER: digest})
                status, _, payload = await protocol.read_response(reader)
                assert status == 200
                report = protocol.decode_report(payload)
                await protocol.write_request(writer, "GET", "/stats")
                status, _, payload = await protocol.read_response(reader)
                assert status == 200
                return report, json.loads(payload)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        with start_cluster(n_workers=2, store_dir=str(tmp_path / "store"),
                           http=True) as cluster:
            report, stats = asyncio.run(drive(cluster.http_port))
        assert report.beta is not None
        assert stats["merged"]["requests"] == 1
        assert stats["merged"]["consistent"] is True


class TestCli:
    def test_serve_cluster_duration(self, capsys):
        from repro.cli import main

        code = main(["serve", "cluster", "--workers", "1", "--port", "0",
                     "--duration", "0.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "gateway listening" in out
        assert "worker[0]" in out

    def test_serve_cluster_keeps_max_inflight(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "cluster", "--max-inflight", "3"])
        assert args.max_inflight == 3
