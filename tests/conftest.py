import json

import numpy as np
import pytest

from safecomp.contracts import DnnContract, dnn_contract_from_json
from safecomp.network import Layer, Network


def make_network(layers, labels=("a", "b"), score_order="max_best", name="test",
                 input_min=None, input_max=None, input_mean=None, input_range=None,
                 metadata=None):
    input_dim = layers[0].in_dim
    return Network(
        name=name,
        labels=tuple(labels),
        score_order=score_order,
        input_dim=input_dim,
        layers=tuple(layers),
        input_min=np.zeros(input_dim) if input_min is None else np.asarray(input_min, float),
        input_max=np.ones(input_dim) if input_max is None else np.asarray(input_max, float),
        input_mean=np.zeros(input_dim) if input_mean is None else np.asarray(input_mean, float),
        input_range=np.ones(input_dim) if input_range is None else np.asarray(input_range, float),
        metadata=metadata or {},
    )


def identity_network(dim=2, score_order="max_best", labels=None):
    """One identity layer, W=I, b=0: scores equal the inputs."""
    labels = labels or tuple(chr(ord("a") + i) for i in range(dim))
    return make_network(
        [Layer(np.eye(dim), np.zeros(dim), "identity")],
        labels=labels,
        score_order=score_order,
    )


def random_network(seed, dims=(2, 8, 8, 3), score_order="max_best", scale=1.0):
    """Seeded random ReLU net with hidden relu layers and identity output."""
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(len(dims) - 1):
        activation = "identity" if i == len(dims) - 2 else "relu"
        layers.append(Layer(
            weights=rng.normal(0.0, scale, size=(dims[i + 1], dims[i])),
            bias=rng.normal(0.0, scale, size=dims[i + 1]),
            activation=activation,
        ))
    labels = tuple(f"l{i}" for i in range(dims[-1]))
    return make_network(layers, labels=labels, score_order=score_order,
                        name=f"rand{seed}")


def capacity_network():
    """The 5-input, 6x50-ReLU, 5-label net of acceptance criterion 8."""
    rng = np.random.default_rng(88)
    dims = [5] + [50] * 6 + [5]
    layers = []
    for i in range(len(dims) - 1):
        activation = "identity" if i == len(dims) - 2 else "relu"
        layers.append(Layer(rng.normal(0, 0.4, size=(dims[i + 1], dims[i])),
                            rng.normal(0, 0.1, size=dims[i + 1]), activation))
    return make_network(layers, labels=("COC", "WL", "WR", "SL", "SR"),
                        score_order="min_best", name="capacity")


def networks_equal(a: Network, b: Network) -> bool:
    """Structural equality with bit-exact reals (round-trip checks)."""
    if (a.name, a.labels, a.score_order, a.input_dim, a.metadata) != (
        b.name, b.labels, b.score_order, b.input_dim, b.metadata,
    ):
        return False
    if len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if la.activation != lb.activation:
            return False
        if not (np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)):
            return False
    return all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("input_min", "input_max", "input_mean", "input_range")
    )


def parse_dnn_contract(text: str) -> DnnContract:
    return dnn_contract_from_json(json.loads(text))


def contracts_equal(a: DnnContract, b: DnnContract) -> bool:
    """Field-by-field equality with bit-exact centroids (round-trip checks)."""
    if a.network != b.network or len(a.regions) != len(b.regions):
        return False
    for ra, rb in zip(a.regions, b.regions):
        if (ra.id, ra.metric, ra.radius, ra.guarantee, ra.provenance, ra.uncertainty_max) != (
            rb.id, rb.metric, rb.radius, rb.guarantee, rb.provenance, rb.uncertainty_max,
        ):
            return False
        if not np.array_equal(ra.centroid, rb.centroid):
            return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
