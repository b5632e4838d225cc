import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    capacity_network,
    identity_network,
    make_network,
    networks_equal,
    random_network,
)
import safecomp
from safecomp.network import (
    Layer,
    NetworkFormatError,
    classify,
    evaluate,
    normalize,
    parse_network,
    render_network,
)

MINIMAL = """\
RELUNET 1
name tiny
labels a,b
score_order max_best
inputs 2
input_min 0,0
input_max 1,1
input_mean 0,0
input_range 1,1
layer 2x2 identity
1,0
0,1
0,0
"""


class TestParse:
    def test_minimal_identity_file(self):
        net = parse_network(MINIMAL)
        assert net.name == "tiny"
        assert net.labels == ("a", "b")
        assert len(net.layers) == 1
        assert net.layers[0].activation == "identity"
        np.testing.assert_array_equal(net.layers[0].weights, np.eye(2))

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n" + MINIMAL.replace(
            "inputs 2", "inputs 2   # with trailing comment\n"
        )
        assert parse_network(text).input_dim == 2

    def test_deep_narrow_layout_accepted(self):
        # 6 hidden layers of 50 relu nodes (300 total), 5 inputs, 5 labels
        net = random_network(7, dims=(5, 50, 50, 50, 50, 50, 50, 5))
        reparsed = parse_network(render_network(net))
        assert sum(l.out_dim for l in reparsed.layers[:-1]) == 300
        assert networks_equal(net, reparsed)

    def test_dimension_mismatch_reports_line(self):
        bad = MINIMAL.replace("layer 2x2 identity", "layer 2x3 identity")
        with pytest.raises(NetworkFormatError, match="line"):
            parse_network(bad)

    def test_chained_width_mismatch_rejected(self):
        text = MINIMAL.replace(
            "layer 2x2 identity\n1,0\n0,1\n0,0\n",
            "layer 3x2 relu\n1,0\n0,1\n1,1\n0,0,0\nlayer 2x2 identity\n1,0\n0,1\n0,0\n",
        )
        with pytest.raises(NetworkFormatError, match="width"):
            parse_network(text)

    def test_non_finite_number_rejected(self):
        bad = MINIMAL.replace("1,0\n", "1,inf\n", 1)
        with pytest.raises(NetworkFormatError, match="non-finite"):
            parse_network(bad)

    def test_unknown_activation_rejected(self):
        bad = MINIMAL.replace("identity", "tanh")
        with pytest.raises(NetworkFormatError, match="activation"):
            parse_network(bad)

    def test_malformed_header_rejected(self):
        with pytest.raises(NetworkFormatError, match="header"):
            parse_network("RELUNET 2\n" + MINIMAL.split("\n", 1)[1])

    def test_trailing_relu_final_layer_rejected(self):
        bad = MINIMAL.replace("layer 2x2 identity", "layer 2x2 relu")
        with pytest.raises(NetworkFormatError):
            parse_network(bad)

    def test_meta_lines(self):
        text = MINIMAL.replace("layer 2x2", "meta tau 5\nmeta a_prev COC\nlayer 2x2")
        net = parse_network(text)
        assert net.metadata == {"tau": "5", "a_prev": "COC"}


class TestRoundTrip:
    def test_identity_round_trip(self):
        net = parse_network(MINIMAL)
        assert networks_equal(net, parse_network(render_network(net)))

    def test_negative_bias_sign_exact(self):
        net = make_network([Layer(np.eye(2), np.array([-0.5, -1.25]), "identity")])
        text = render_network(net)
        assert "-0.5" in text and "-1.25" in text
        assert networks_equal(net, parse_network(text))

    @pytest.mark.parametrize("seed", range(200))
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        n_hidden = int(rng.integers(0, 3))
        dims = [int(rng.integers(1, 5))]
        dims += [int(rng.integers(1, 6)) for _ in range(n_hidden)]
        dims.append(int(rng.integers(2, 5)))
        net = random_network(seed, dims=tuple(dims),
                             score_order="min_best" if seed % 2 else "max_best",
                             scale=float(rng.uniform(0.1, 10.0)))
        assert networks_equal(net, parse_network(render_network(net)))


class TestNormalize:
    def test_mean_vector_maps_to_zero(self):
        net = make_network([Layer(np.eye(2), np.zeros(2), "identity")],
                           input_mean=[0.3, -1.0], input_range=[2.0, 4.0],
                           input_min=[-5, -5], input_max=[5, 5])
        np.testing.assert_allclose(normalize(net, [0.3, -1.0]), [0.0, 0.0])

    def test_zero_mean_unit_range_is_identity(self):
        net = identity_network()
        np.testing.assert_array_equal(normalize(net, [0.2, 0.9]), [0.2, 0.9])

    def test_matches_hand_formula(self, rng):
        mean = rng.normal(size=3)
        rang = rng.uniform(0.5, 2.0, size=3)
        net = make_network([Layer(np.eye(3), np.zeros(3), "identity")],
                           labels=("a", "b", "c"),
                           input_mean=mean, input_range=rang,
                           input_min=mean - 10, input_max=mean + 10)
        for _ in range(20):
            raw = rng.normal(size=3)
            expected = np.array([(raw[i] - mean[i]) / rang[i] for i in range(3)])
            np.testing.assert_allclose(normalize(net, raw), expected, rtol=1e-12)
        batch = rng.normal(size=(7, 3))
        np.testing.assert_array_equal(normalize(net, batch),
                                      np.array([normalize(net, row) for row in batch]))

    def test_dimension_mismatch(self):
        for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0, 3.0]], np.zeros((2, 2, 2)), 1.0):
            with pytest.raises(ValueError):
                normalize(identity_network(), bad)


def straight_line_forward(net, x):
    """Independent re-implementation of the forward pass (plain loops)."""
    a = [float(v) for v in x]
    for layer in net.layers:
        out = []
        for row, b in zip(layer.weights, layer.bias):
            acc = float(b)
            for w, v in zip(row, a):
                acc += float(w) * v
            if layer.activation == "relu" and acc < 0.0:
                acc = 0.0
            out.append(acc)
        a = out
    return np.array(a)


class TestEvaluate:
    def test_identity_layer(self):
        net = identity_network()
        np.testing.assert_allclose(evaluate(net, [0.2, 0.7]), [0.2, 0.7])

    def test_relu_clamps_negative(self):
        hidden = Layer(np.array([[-1.0]]), np.zeros(1), "relu")
        out = Layer(np.array([[1.0], [0.0]]), np.zeros(2), "identity")
        net = make_network([hidden, out])
        np.testing.assert_allclose(evaluate(net, [0.5]), [0.0, 0.0])

    def test_against_duplicate_implementation(self, rng):
        net = random_network(99, dims=(2, 8, 8, 3))
        for _ in range(100):
            x = rng.uniform(-2, 2, size=2)
            np.testing.assert_allclose(evaluate(net, x), straight_line_forward(net, x),
                                       rtol=1e-9, atol=1e-12)

    def test_piecewise_linearity_within_activation_cell(self, rng):
        net = random_network(5, dims=(2, 6, 6, 3))

        def pattern(x):
            a = x
            pats = []
            for layer in net.layers:
                pre = layer.weights @ a + layer.bias
                if layer.activation == "relu":
                    pats.append(tuple(pre > 0))
                    a = np.maximum(pre, 0.0)
                else:
                    a = pre
            return tuple(pats)

        checked = 0
        while checked < 5:
            x = rng.uniform(-1, 1, size=2)
            y = x + rng.uniform(-0.05, 0.05, size=2)
            ts = np.linspace(0.0, 1.0, 20)
            pts = [x + t * (y - x) for t in ts]
            if any(pattern(p) != pattern(x) for p in pts):
                continue
            f0, f1 = evaluate(net, x), evaluate(net, y)
            for t, p in zip(ts, pts):
                expected = (1 - t) * f0 + t * f1
                np.testing.assert_allclose(evaluate(net, p), expected,
                                           rtol=1e-9, atol=1e-9)
            checked += 1


    @pytest.mark.parametrize("which", ["semaphore", "capacity"])
    def test_batch_equals_rows_bit_for_bit(self, which, rng):
        from safecomp.app import build_semaphore_classifier

        net = build_semaphore_classifier(42)[0] if which == "semaphore" else capacity_network()
        for n in (1, 2, 7, 1024, 3000):
            xs = rng.uniform(-0.5, 1.5, size=(n, net.input_dim))
            batch = evaluate(net, xs)
            assert batch.shape == (n, net.n_labels)
            assert np.array_equal(batch, np.stack([evaluate(net, x) for x in xs]))

    def test_batch_leaves_input_untouched(self, rng):
        net = random_network(3, dims=(2, 6, 6, 3))
        xs = rng.uniform(-1, 1, size=(5, 2))
        before = xs.copy()
        evaluate(net, xs)
        assert np.array_equal(xs, before)

    @pytest.mark.parametrize("bad", [np.zeros((3, 3)), np.zeros((2, 2, 2)), np.float64(0.5)])
    def test_batch_shape_rejected(self, bad):
        with pytest.raises(ValueError, match="expected 2 inputs"):
            evaluate(identity_network(), bad)

    def test_batch_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            evaluate(identity_network(), [[0.1, 0.2], [np.nan, 0.0]])


class TestOrientation:
    def test_max_best_returns_the_same_array(self):
        scores = np.array([[0.3, -1.0], [2.0, 0.0]])
        assert identity_network(score_order="max_best").oriented(scores) is scores

    def test_min_best_negates(self):
        scores = np.array([[0.3, -1.0], [2.0, 0.0]])
        np.testing.assert_array_equal(identity_network(score_order="min_best").oriented(scores),
                                      -scores)

    def test_only_network_reads_score_order(self):
        # every other module goes through Network.oriented, so a new kernel
        # cannot get the score order wrong on its own
        readers = []
        for path in sorted(Path(safecomp.__file__).parent.glob("*.py")):
            if path.name == "network.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and node.attr == "score_order":
                    readers.append(f"{path.name}:{node.lineno}")
        assert readers == []


class TestClassify:
    def test_min_best_picks_lowest(self):
        net = identity_network(score_order="min_best")
        assert classify(net, [0.1, 0.5]) == 0

    def test_max_best_picks_highest(self):
        net = identity_network(score_order="max_best")
        assert classify(net, [0.1, 0.5]) == 1

    def test_tie_breaks_to_lowest_index(self):
        for order in ("min_best", "max_best"):
            net = identity_network(score_order=order)
            assert classify(net, [0.5, 0.5]) == 0

    def test_bias_shift_invariance(self, rng):
        net = random_network(17, dims=(2, 6, 3), score_order="min_best")
        last = net.layers[-1]
        shifted = make_network(
            list(net.layers[:-1]) + [Layer(last.weights, last.bias + 3.7, "identity")],
            labels=net.labels, score_order=net.score_order,
        )
        for _ in range(50):
            x = rng.uniform(-1, 1, size=2)
            assert classify(net, x) == classify(shifted, x)
