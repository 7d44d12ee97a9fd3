#!/usr/bin/env python3
"""Regenerate the measured-results section of EXPERIMENTS.md.

Runs every declarative experiment plan (E1-E16, and the ablations with
``--ablations``) through the study pipeline and prints the regenerated
tables together with the paper-vs-measured claim lists.  The output of this
script is pasted into EXPERIMENTS.md (section "Measured results"); re-run it
after any solver change to refresh the numbers::

    PYTHONPATH=src python scripts/generate_experiments_report.py \
        > /tmp/experiments_section.txt

Pass ``--store DIR`` to make the run resumable: every solver cell lands in
the content-addressed artifact store, so a re-run (for example after editing
only the prose) performs zero solver work.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.studies import build_experiment, experiment_ids
from repro.study import ArtifactStore


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--store", default=None,
                        help="artifact-store directory (resumable runs)")
    parser.add_argument("--ablations", action="store_true",
                        help="include the design ablations A1-A3")
    parser.add_argument("--only", nargs="+", default=None,
                        help="restrict to specific experiment ids")
    args = parser.parse_args(argv)

    store = None if args.store is None else ArtifactStore(args.store)
    known = experiment_ids()
    unknown = sorted(set(args.only or ()) - set(known))
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)} "
                     f"(known: {', '.join(known)})")
    ids = args.only or [eid for eid in known
                        if args.ablations or eid.startswith("E")]
    failures = []
    for experiment_id in ids:
        record = build_experiment(experiment_id).run(store=store)
        status = ("all claims hold" if record.all_claims_hold
                  else "CLAIMS FAILED")
        if not record.all_claims_hold:
            failures.append(experiment_id)
        print(f"### {record.experiment_id} — {record.title}")
        print()
        print(f"Status: {status}.")
        print()
        print("```text")
        print(record.to_table())
        print("```")
        print()
    if store is not None:
        stats = store.stats()
        print(f"<!-- artifact store: {stats['hits']} hits, "
              f"{stats['misses']} misses, {stats['writes']} writes -->",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
