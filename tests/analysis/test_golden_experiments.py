"""Golden regression fixtures for the paper experiments E1-E16.

Every experiment table is pinned to a checked-in JSON snapshot under
``tests/fixtures/golden/``.  Future refactors diff against the paper's
numbers (to 1e-9) instead of re-deriving them by hand; a deliberate change
is committed with ``pytest --update-golden`` (see tests/README.md).

What is compared:

* experiment id, title, headers — exactly;
* every table cell — numerics with the 1e-9 comparator, everything else
  exactly.  Columns whose header names a wall-clock quantity (``seconds``)
  are skipped: timings are real measurements, not paper numbers;
* every claim's text and its verdict (``holds``).  The free-form
  ``measured`` strings are presentation, not data, and are not pinned.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.analysis.studies import experiment_ids, run_experiment

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "fixtures" / "golden"

#: Relative/absolute tolerance of the golden comparator.
TOL = 1e-9

#: Header substrings marking non-deterministic (timing) columns.
VOLATILE_HEADERS = ("seconds",)

EXPERIMENTS = [eid for eid in experiment_ids() if eid.startswith("E")]


def _golden_payload(record) -> dict:
    """The pinned subset of an ExperimentRecord."""
    data = record.to_dict()
    return {
        "experiment_id": data["experiment_id"],
        "title": data["title"],
        "headers": data["headers"],
        "rows": data["rows"],
        "claims": [[claim, holds] for claim, _measured, holds
                   in record.claims],
        "all_claims_hold": data["all_claims_hold"],
    }


def _numbers_match(measured: float, pinned: float) -> bool:
    if math.isnan(measured) or math.isnan(pinned):
        return math.isnan(measured) and math.isnan(pinned)
    return abs(measured - pinned) <= TOL + TOL * max(abs(measured),
                                                     abs(pinned))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def assert_matches_golden(measured: dict, pinned: dict) -> None:
    assert measured["experiment_id"] == pinned["experiment_id"]
    assert measured["title"] == pinned["title"]
    assert measured["headers"] == pinned["headers"], \
        "table schema changed; rerun with --update-golden if intentional"
    assert len(measured["rows"]) == len(pinned["rows"]), (
        f"row count changed: {len(measured['rows'])} vs golden "
        f"{len(pinned['rows'])}")
    headers = measured["headers"]
    for r, (row, gold_row) in enumerate(zip(measured["rows"],
                                            pinned["rows"])):
        assert len(row) == len(gold_row), f"row {r} length changed"
        for c, (cell, gold_cell) in enumerate(zip(row, gold_row)):
            header = str(headers[c]) if c < len(headers) else ""
            if any(tag in header.lower() for tag in VOLATILE_HEADERS):
                continue
            where = f"row {r}, column {headers[c]!r}"
            if _is_number(cell) and _is_number(gold_cell):
                assert _numbers_match(float(cell), float(gold_cell)), (
                    f"{where}: {cell!r} drifted from golden {gold_cell!r} "
                    f"beyond {TOL:g}")
            else:
                assert cell == gold_cell, (
                    f"{where}: {cell!r} != golden {gold_cell!r}")
    assert measured["claims"] == pinned["claims"], \
        "claim set or verdicts changed"
    assert measured["all_claims_hold"] == pinned["all_claims_hold"]


@pytest.mark.parametrize("experiment_id", EXPERIMENTS)
def test_experiment_matches_golden(experiment_id, update_golden):
    record = run_experiment(experiment_id)
    payload = _golden_payload(record)
    path = GOLDEN_DIR / f"{experiment_id}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return
    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"pytest --update-golden")
    pinned = json.loads(path.read_text(encoding="utf-8"))
    assert_matches_golden(payload, pinned)
    assert record.all_claims_hold, "a paper claim regressed"


def test_every_pinned_experiment_still_exists():
    """Stale fixtures (for renamed/removed experiments) must be deleted."""
    if not GOLDEN_DIR.exists():
        pytest.skip("golden fixtures not generated yet")
    pinned_ids = {path.stem for path in GOLDEN_DIR.glob("E*.json")}
    assert pinned_ids <= set(EXPERIMENTS), (
        f"golden fixtures without a matching experiment: "
        f"{sorted(pinned_ids - set(EXPERIMENTS))}")
