"""Tests for JSON (de)serialisation of latencies and instances."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.latency import (
    BPRLatency,
    ConstantLatency,
    LinearLatency,
    MM1Latency,
    MonomialLatency,
    PolynomialLatency,
    ShiftedLatency,
)
from repro.network import NetworkInstance, ParallelLinkInstance
from repro.serialization import (
    instance_from_dict,
    instance_to_dict,
    latency_from_dict,
    latency_to_dict,
    load_instance,
    save_instance,
)
from repro.instances import (
    braess_paradox,
    figure_4_example,
    pigou,
    roughgarden_example,
    random_multicommodity_instance,
)

ALL_LATENCIES = [
    LinearLatency(1.5, 0.25),
    ConstantLatency(0.7),
    MonomialLatency(2.0, 3.0, 0.1),
    PolynomialLatency([0.5, 1.0, 0.25]),
    BPRLatency(1.0, 2.0, alpha=0.2, beta=3.0),
    MM1Latency(5.0),
]


class TestLatencyRoundTrip:
    @pytest.mark.parametrize("latency", ALL_LATENCIES,
                             ids=lambda lat: type(lat).__name__)
    def test_roundtrip_preserves_values(self, latency):
        restored = latency_from_dict(latency_to_dict(latency))
        assert type(restored) is type(latency)
        for x in (0.0, 0.5, 1.0, 2.0):
            assert float(restored.value(x)) == pytest.approx(float(latency.value(x)))

    def test_unknown_type_rejected(self):
        with pytest.raises(ModelError):
            latency_from_dict({"type": "exotic"})

    def test_missing_type_rejected(self):
        with pytest.raises(ModelError):
            latency_from_dict({"slope": 1.0})

    def test_wrapped_latency_not_serialisable(self):
        with pytest.raises(ModelError):
            latency_to_dict(ShiftedLatency(LinearLatency(1.0), 0.5))

    def test_dicts_are_json_compatible(self):
        for latency in ALL_LATENCIES:
            json.dumps(latency_to_dict(latency))


class TestInstanceRoundTrip:
    @pytest.mark.parametrize("builder", [pigou, figure_4_example],
                             ids=["pigou", "figure4"])
    def test_parallel_roundtrip(self, builder):
        instance = builder()
        restored = instance_from_dict(instance_to_dict(instance))
        assert isinstance(restored, ParallelLinkInstance)
        assert restored.num_links == instance.num_links
        assert restored.demand == instance.demand
        assert restored.names == instance.names
        flows = np.full(instance.num_links, instance.demand / instance.num_links)
        assert restored.cost(flows) == pytest.approx(instance.cost(flows))

    @pytest.mark.parametrize("builder", [braess_paradox, roughgarden_example],
                             ids=["braess", "roughgarden"])
    def test_network_roundtrip(self, builder):
        instance = builder()
        restored = instance_from_dict(instance_to_dict(instance))
        assert isinstance(restored, NetworkInstance)
        assert restored.network.num_edges == instance.network.num_edges
        assert restored.total_demand == pytest.approx(instance.total_demand)
        flows = np.linspace(0.1, 0.5, instance.network.num_edges)
        assert restored.cost(flows) == pytest.approx(instance.cost(flows))

    def test_multicommodity_roundtrip(self):
        instance = random_multicommodity_instance(3, 3, num_commodities=2, seed=1)
        restored = instance_from_dict(instance_to_dict(instance))
        assert restored.num_commodities == 2

    def test_unknown_instance_type_rejected(self):
        with pytest.raises(ModelError):
            instance_from_dict({"type": "hypergraph"})

    def test_invalid_payload_rejected(self):
        with pytest.raises(ModelError):
            instance_from_dict("not-a-dict")


_PIGOU = {"type": "parallel", "demand": 1.0,
          "links": [{"type": "linear", "slope": 1.0},
                    {"type": "constant", "value": 1.0}]}
_EDGE = {"tail": "s", "head": "t", "latency": {"type": "linear", "slope": 1.0}}


def _network(**edge):
    return {"type": "network", "edges": [{**_EDGE, **edge}],
            "commodities": [{"source": "s", "sink": "t", "demand": 1.0}]}


#: Malformed descriptions and the field each error must name.
MALFORMED = [
    ({**_PIGOU, "demand": "x"}, "'demand'"),
    ({**_PIGOU, "demand": None}, "'demand'"),
    ({k: v for k, v in _PIGOU.items() if k != "demand"}, "'demand'"),
    ({**_PIGOU, "links": 5}, "'links'"),
    ({**_PIGOU, "links": [{"type": "linear", "slope": "a"}]}, "'slope'"),
    ({**_PIGOU, "links": [{"type": "constant"}]}, "'value'"),
    ({**_PIGOU, "links": ["linear"]}, "a link must be an object"),
    ({**_PIGOU, "links": [{"type": "polynomial", "coefficients": 3}]},
     "'coefficients'"),
    ({**_PIGOU, "links": [{"type": "polynomial", "coefficients": ["a"]}]},
     "'coefficients'"),
    ({**_network(), "edges": [{"tail": "s", "latency": _EDGE["latency"]}]},
     "'head'"),
    (_network(tail={"a": 1}), "'tail'"),
    (_network(latency={"type": "linear", "slope": []}), "edges[0].latency"),
    ({**_network(), "commodities": [{"source": "s", "sink": "t",
                                     "demand": "lots"}]}, "commodities[0]"),
    ({**_network(), "commodities": {"source": "s"}}, "'commodities'"),
]


@pytest.mark.parametrize("data, field", MALFORMED,
                         ids=[f"case{i}" for i in range(len(MALFORMED))])
def test_malformed_instance_raises_model_error_naming_the_field(data, field):
    with pytest.raises(ModelError) as excinfo:
        instance_from_dict(data)
    assert field in str(excinfo.value)


@pytest.mark.parametrize("data", [[1, 2], "alpha", None])
def test_malformed_config_raises_model_error(data):
    from repro.config import SolveConfig

    with pytest.raises(ModelError, match="SolveConfig"):
        SolveConfig.from_dict(data)


class TestFileIO:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "pigou.json"
        save_instance(pigou(), path)
        restored = load_instance(path)
        assert isinstance(restored, ParallelLinkInstance)
        assert restored.demand == 1.0

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelError):
            load_instance(path)

    def test_beta_preserved_through_roundtrip(self, tmp_path):
        from repro.core import optop
        path = tmp_path / "figure4.json"
        save_instance(figure_4_example(), path)
        restored = load_instance(path)
        assert optop(restored).beta == pytest.approx(29.0 / 120.0, abs=1e-9)
