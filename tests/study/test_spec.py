"""Study specs: lazy expansion, determinism, serialisation."""

from __future__ import annotations

import itertools

import pytest

from repro.config import SolveConfig
from repro.exceptions import ModelError
from repro.study import GeneratorAxis, StudySpec


def demo_spec() -> StudySpec:
    return StudySpec(
        "demo",
        [GeneratorAxis("random_linear_parallel",
                       {"demand": 2.0},
                       grid={"num_links": [3, 4]},
                       seeds=(0, 1),
                       label="family-a"),
         GeneratorAxis("pigou", label="family-b")],
        strategies=("optop", "llf"),
        configs=(SolveConfig(alpha=0.5), SolveConfig(alpha=0.9)))


class TestExpansion:
    def test_num_cells_matches_expansion(self):
        spec = demo_spec()
        cells = list(spec.expand())
        # (2 grid points x 2 seeds + 1) instances x 2 strategies x 2 configs
        assert spec.num_cells == len(cells) == 5 * 2 * 2

    def test_plan_is_deterministic_and_indexed(self):
        spec = demo_spec()
        first = [c.to_dict() for c in spec.expand()]
        second = [c.to_dict() for c in spec.expand()]
        assert first == second
        assert [c["index"] for c in first] == list(range(len(first)))

    def test_expansion_is_lazy(self):
        spec = StudySpec(
            "huge",
            [GeneratorAxis("random_linear_parallel", {"num_links": 3},
                           grid={"demand": [float(d) for d in range(1, 1001)]},
                           seeds=range(100))])
        assert spec.num_cells == 100_000
        head = list(itertools.islice(spec.expand(), 3))
        assert [c.index for c in head] == [0, 1, 2]

    def test_axis_overrides_spec_strategies_and_configs(self):
        spec = StudySpec(
            "override",
            [GeneratorAxis("pigou", strategies=("mop",),
                           configs=(SolveConfig(compute_nash=False),)),
             GeneratorAxis("figure4")],
            strategies=("optop",))
        cells = list(spec.expand())
        assert [c.strategy for c in cells] == ["mop", "optop"]
        assert cells[0].config.compute_nash is False
        assert cells[1].config.compute_nash is True

    def test_cells_materialise_instances(self):
        spec = demo_spec()
        cell = next(spec.expand())
        instance = cell.make_instance()
        assert instance.num_links == 3

    def test_instances_enumerates_each_instance_once(self):
        spec = demo_spec()
        entries = list(spec.instances())
        assert len(entries) == 5
        labels = [axis.label for axis, _, _, _ in entries]
        assert labels == ["family-a"] * 4 + ["family-b"]

    def test_empty_strategies_yield_no_cells(self):
        spec = StudySpec("instances-only", [GeneratorAxis("pigou")],
                         strategies=())
        assert spec.num_cells == 0
        assert list(spec.expand()) == []
        assert len(list(spec.instances())) == 1


class TestParamFidelity:
    def test_empty_lists_and_pair_lists_round_trip_unchanged(self):
        # Canonical-JSON freezing must not confuse lists with mappings.
        params = {"weights": [], "pairs": [["fast", 2.0], ["slow", 1.0]],
                  "nested": {"a": [1, 2], "b": {}}}
        axis = GeneratorAxis("pigou", params)
        assert axis.to_dict()["params"] == params
        spec = StudySpec("fidelity", [axis], strategies=("optop",))
        cell = next(spec.expand())
        assert cell.params_dict == params
        clone = StudySpec.from_json(spec.to_json())
        assert next(clone.expand()).params_dict == params

    def test_grid_values_round_trip_unchanged(self):
        axis = GeneratorAxis("pigou", grid={"demand": [1.0, 2], "tags": [[]]})
        combos = list(axis.combinations())
        assert combos == [{"demand": 1.0, "tags": []},
                          {"demand": 2, "tags": []}]

    def test_non_json_params_rejected(self):
        with pytest.raises(ModelError, match="JSON"):
            GeneratorAxis("pigou", {"bad": object()})


class TestValidation:
    def test_overlapping_fixed_and_grid_params_rejected(self):
        with pytest.raises(ModelError, match="also fixed"):
            GeneratorAxis("pigou", {"demand": 1.0}, grid={"demand": [1, 2]})

    def test_empty_grid_values_rejected(self):
        with pytest.raises(ModelError, match="empty"):
            GeneratorAxis("pigou", grid={"demand": []})

    def test_validate_resolves_names(self):
        StudySpec("ok", [GeneratorAxis("pigou")]).validate()
        with pytest.raises(ModelError, match="unknown generator"):
            StudySpec("bad", [GeneratorAxis("bogus")]).validate()
        with pytest.raises(Exception, match="unknown strategy"):
            StudySpec("bad", [GeneratorAxis("pigou")],
                      strategies=("bogus",)).validate()


class TestSerialisation:
    def test_json_round_trip_preserves_plan_and_digest(self):
        spec = demo_spec()
        clone = StudySpec.from_json(spec.to_json())
        assert clone.digest() == spec.digest()
        assert ([c.to_dict() for c in clone.expand()]
                == [c.to_dict() for c in spec.expand()])

    def test_digest_changes_with_the_plan(self):
        spec = demo_spec()
        other = spec.with_configs([SolveConfig(alpha=0.25)])
        assert other.digest() != spec.digest()

    def test_axis_round_trip_keeps_overrides(self):
        axis = GeneratorAxis("pigou", strategies=("mop",),
                             configs=(SolveConfig(compute_nash=False),),
                             label="x")
        clone = GeneratorAxis.from_dict(axis.to_dict())
        assert clone == axis
