"""End-to-end chaos harness: the smoke plan must hold the contract.

These spin up a real multi-process cluster under fault injection, so
they live in the slow lane alongside the cluster lifecycle tests.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faults import run_chaos

pytestmark = pytest.mark.slow


class TestRunChaos:
    def test_smoke_plan_holds_degradation_contract(self, tmp_path):
        report = run_chaos("smoke", steps=50, n_workers=2, seed=0,
                           store_dir=tmp_path / "store")
        why = f"{report.summary()}\nviolations: {report.violations}"
        assert report.violations == [], why
        assert report.passed, why
        # Every request resolved: either a correct report or a typed error.
        assert report.ok + report.failed == report.steps == 50, why
        # The SIGKILLed worker came back and the store survived the damage.
        assert report.respawns >= 1, why
        assert report.quarantined >= 1, why
        # Merged stats still partition exactly under chaos.
        assert report.merged.get("consistent") is True, why
        # The warm sweep after the storm hits cache (respawned workers
        # reattach to the shared store, so reheat is immediate).
        assert report.warm_sweep_hits > 0, why

    def test_report_serialises_and_summarises(self, tmp_path):
        report = run_chaos("bad_disk", steps=10, n_workers=1, seed=1,
                           store_dir=tmp_path / "store")
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["plan"] == "bad_disk"
        assert payload["steps"] == 10
        assert "PASS" in report.summary() or "FAIL" in report.summary()


class TestChaosCli:
    def test_chaos_run_smoke_json(self, tmp_path, capsys):
        exit_code = main([
            "chaos", "run", "--plan", "smoke", "--steps", "50",
            "--workers", "2", "--seed", "0", "--expect-respawn",
            "--store", str(tmp_path / "store"), "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        assert payload["failures"] == []
        assert payload["ok"] + payload["failed"] == 50
        assert payload["respawns"] >= 1
        assert payload["quarantined"] >= 1
