"""Satellite: every strategy returns a losslessly JSON-round-tripping report."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import (SolveConfig, SolveReport, available_strategies, solve,
                       solve_many)
from repro.cache import LRUCache
from repro.cluster import protocol
from repro.exceptions import ModelError
from repro.instances import (braess_paradox, figure_4_example, pigou,
                             random_mixed_parallel)
from repro.serialization import instance_digest
from repro.study import ArtifactStore, artifact_key

INSTANCES = {
    "pigou": pigou,
    "braess_paradox": braess_paradox,
    "figure_4_example": figure_4_example,
}

#: Small brute-force grid keeps the 5-link figure-4 case fast.
CONFIG = SolveConfig(brute_force_resolution=5)


@pytest.mark.parametrize("strategy", sorted(available_strategies()))
@pytest.mark.parametrize("instance_name", sorted(INSTANCES))
class TestRoundTrip:
    def test_returns_solve_report(self, strategy, instance_name):
        report = solve(INSTANCES[instance_name](), strategy, config=CONFIG)
        assert isinstance(report, SolveReport)
        assert report.strategy == strategy
        assert report.induced_cost >= report.optimum_cost - 1e-9

    def test_json_round_trip_is_lossless(self, strategy, instance_name):
        report = solve(INSTANCES[instance_name](), strategy, config=CONFIG)
        text = report.to_json()
        restored = SolveReport.from_json(text)
        assert restored == report
        # A second round trip is byte-identical (canonical rendering).
        assert restored.to_json() == text

    def test_lean_report_round_trips_through_store_and_wire(
            self, strategy, instance_name, tmp_path):
        instance = INSTANCES[instance_name]()
        report = solve(instance, strategy, config=CONFIG)
        assert "instance" not in report.to_dict()
        canonical = report.to_json()
        store = ArtifactStore(tmp_path)
        key = artifact_key(instance_digest(instance), strategy, CONFIG)
        envelope = json.loads(store.put(key, report).read_text())
        assert envelope["sha256"] == \
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert store.get(key) == report
        wire = protocol.encode_report(report)
        assert wire == canonical.encode("utf-8")
        assert protocol.decode_report(wire) == report


class TestReportShape:
    def test_dict_is_json_compatible(self, pigou_instance):
        report = solve(pigou_instance, "optop")
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_nash_fields_absent_when_disabled(self, pigou_instance):
        report = solve(pigou_instance, "llf",
                       config=SolveConfig(compute_nash=False))
        assert report.nash_flows is None
        assert report.nash_cost is None
        assert report.price_of_anarchy is None

    def test_beta_only_for_price_of_optimum_strategies(self, pigou_instance):
        cfg = SolveConfig(brute_force_resolution=4)
        for name in ("optop", "mop"):
            assert solve(pigou_instance, name, config=cfg).beta is not None
        for name in ("llf", "scale", "aloof", "brute_force"):
            assert solve(pigou_instance, name, config=cfg).beta is None

    def test_cost_ratio_and_attainment(self, pigou_instance):
        report = solve(pigou_instance, "optop")
        assert report.cost_ratio == pytest.approx(1.0, abs=1e-9)
        assert report.attains_optimum
        aloof = solve(pigou_instance, "aloof")
        assert aloof.cost_ratio == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert not aloof.attains_optimum

    def test_optop_and_mop_agree_across_models(self, figure4_instance):
        """The embedded-graph MOP path reproduces OpTop's beta (Cor. 2.2/2.3)."""
        beta_links = solve(figure4_instance, "optop").beta
        beta_graph = solve(figure4_instance, "mop").beta
        assert beta_graph == pytest.approx(beta_links, abs=1e-5)

    def test_unknown_field_rejected(self, pigou_instance):
        data = solve(pigou_instance, "optop").to_dict()
        data["surprise"] = 1
        with pytest.raises(ModelError):
            SolveReport.from_dict(data)

    def test_embedded_instance_rejected(self, pigou_instance):
        """Reports that still embed their instance are not read back."""
        data = solve(pigou_instance, "optop").to_dict()
        data["instance"] = {"kind": "parallel"}
        with pytest.raises(ModelError):
            SolveReport.from_dict(data)

    def test_canonical_json_is_compact_and_sorted(self, pigou_instance):
        report = solve(pigou_instance, "optop")
        text = report.to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True,
                                  separators=(",", ":"))
        assert SolveReport.from_json(report.to_json(indent=2)) == report


#: Configurations that take every stamping path of a fresh solve: the cache
#: record, no cache record, and the profiler's extra metadata.
STAMP_CONFIGS = [SolveConfig(), SolveConfig(cache=False),
                 SolveConfig(profile=True)]


@pytest.fixture()
def post_init_calls(monkeypatch):
    """How many times ``SolveReport.__post_init__`` has run."""
    calls = []
    original = SolveReport.__post_init__

    def counted(self):
        calls.append(None)
        original(self)

    monkeypatch.setattr(SolveReport, "__post_init__", counted)
    return calls


class TestReportBuiltOnce:
    """A fresh report is built once and stamped by at most one ``replace``."""

    @pytest.mark.parametrize("config", STAMP_CONFIGS)
    @pytest.mark.parametrize("strategy", ["optop", "aloof", "mop"])
    def test_cold_solve(self, post_init_calls, strategy, config):
        solve(random_mixed_parallel(20, demand=4.0, seed=3), strategy,
              config=config, cache=LRUCache())
        assert len(post_init_calls) <= 2

    @pytest.mark.parametrize("config", STAMP_CONFIGS)
    @pytest.mark.parametrize("strategy", ["optop", "aloof"])
    def test_cold_solve_many(self, post_init_calls, strategy, config):
        # aloof takes the whole-batch pre-pass: its instances share links.
        base = random_mixed_parallel(20, demand=4.0, seed=3)
        instances = [type(base)(base.latencies, 1.0 + k) for k in range(4)]
        reports = solve_many(instances, strategy, config=config,
                             cache=LRUCache())
        assert len(reports) == len(instances)
        assert len(post_init_calls) <= 2 * len(instances)
