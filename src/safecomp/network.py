"""Feedforward ReLU classification networks: file format, normalization, evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import read_numbers

ACTIVATIONS = ("relu", "identity")
SCORE_ORDERS = ("min_best", "max_best")
INPUT_VECTORS = ("input_min", "input_max", "input_mean", "input_range")  # in file order


class NetworkFormatError(ValueError):
    """Raised on malformed network files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str      # "relu" | "identity"

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Network:
    """Layered ReLU classifier with input normalization and a score-order convention.

    All geometry downstream (regions, verification) lives in normalized input
    space: x_norm[i] = (raw[i] - input_mean[i]) / input_range[i]. The final
    layer must use the identity activation so scores stay signed-comparable.
    """

    name: str
    labels: tuple[str, ...]
    score_order: str
    input_dim: int
    layers: tuple[Layer, ...]
    input_min: np.ndarray
    input_max: np.ndarray
    input_mean: np.ndarray
    input_range: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)
    # normalized_domain(), computed once, as read-only arrays
    _domain: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError("network needs at least 2 labels")
        for i, label in enumerate(self.labels):
            if label in self.labels[:i]:
                raise ValueError(f"label {label!r} is repeated")
        if self.score_order not in SCORE_ORDERS:
            raise ValueError(f"unknown score_order {self.score_order!r}")
        if not self.layers:
            raise ValueError("network needs at least one layer")
        width = self.input_dim
        for i, layer in enumerate(self.layers):
            if layer.weights.ndim != 2:
                raise ValueError(f"layer {i + 1}: weights must be 2-D, not {layer.weights.ndim}-D")
            if layer.activation not in ACTIVATIONS:
                raise ValueError(f"layer {i + 1}: unknown activation {layer.activation!r}")
            if layer.in_dim != width:
                raise ValueError(
                    f"layer {i + 1}: input width {layer.in_dim} != previous width {width}"
                )
            width = layer.out_dim
        if width != len(self.labels):
            raise ValueError(f"final width {width} != label count {len(self.labels)}")
        if self.layers[-1].activation != "identity":
            raise ValueError("final layer must use identity activation")
        for vec_name in INPUT_VECTORS:
            vec = getattr(self, vec_name)
            if vec.shape != (self.input_dim,):
                raise ValueError(f"{vec_name} must have length {self.input_dim}")
        if np.any(self.input_range <= 0):
            raise ValueError("input_range entries must be positive")
        if np.any(self.input_min > self.input_max):
            raise ValueError("input_min must not exceed input_max")
        domain = tuple((bound - self.input_mean) / self.input_range
                       for bound in (self.input_min, self.input_max))
        for bound in domain:
            bound.setflags(write=False)
        object.__setattr__(self, "_domain", domain)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    def oriented(self, scores: np.ndarray) -> np.ndarray:
        """Scores turned so that larger is better: the same array (no copy)
        under max_best, its exact negation under min_best."""
        return -scores if self.score_order == "min_best" else scores

    def normalized_domain(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension [lo, hi] of the raw input bounds, in normalized space."""
        return self._domain


def _parse_floats(text: str, n: int | None, line: int) -> np.ndarray:
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        values = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise NetworkFormatError(f"bad number: {exc}", line) from None
    if not np.all(np.isfinite(values)):
        raise NetworkFormatError("non-finite number", line)
    if n is not None and len(values) != n:
        raise NetworkFormatError(f"expected {n} values, got {len(values)}", line)
    return values


def parse_network(text: str) -> Network:
    """Parse the line-oriented network file format.

    Raises NetworkFormatError (with line number) on malformed headers,
    dimension mismatches, non-finite numbers, or unknown activations.
    The input vectors, and each layer's weight rows and bias, are read in one
    numpy pass per block; the line loop, _parse_floats, reads a block only
    where that pass cannot tell, and so raises every error in it.
    """
    # (line_number, content) with comments and blanks stripped
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))
    pos = 0

    def take(expected: str | None = None) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 0
            raise NetworkFormatError("unexpected end of file", last)
        ln, content = lines[pos]
        pos += 1
        if expected is not None:
            key = content.split(None, 1)[0]
            if key != expected:
                raise NetworkFormatError(f"expected {expected!r}, found {key!r}", ln)
        return ln, content

    ln, header = take()
    if header.split() != ["RELUNET", "1"]:
        raise NetworkFormatError(f"malformed header {header!r}, expected 'RELUNET 1'", ln)

    def take_value(key: str) -> tuple[int, str]:
        ln, content = take(key)
        parts = content.split(None, 1)
        if len(parts) != 2:
            raise NetworkFormatError(f"{key} needs a value", ln)
        return ln, parts[1].strip()

    def take_line(key: str | int) -> tuple[int, str]:
        return take_value(key) if isinstance(key, str) else take()

    def take_numbers(keys, width: int) -> np.ndarray:
        """The next line for each of keys, each holding width numbers after
        the key, as one (len(keys), width) array. A number in keys, as a range
        holds, stands for a line of numbers alone."""
        nonlocal pos
        start = pos
        try:
            block = read_numbers([take_line(key)[1] for key in keys], width)
        except NetworkFormatError:
            block = None
        if block is None:  # the line loop, which names the first bad line
            pos = start
            block = np.array([_parse_floats(text, width, ln) for ln, text in map(take_line, keys)])
        return block

    _, name = take_value("name")
    _, labels_text = take_value("labels")
    labels = tuple(l.strip() for l in labels_text.split(",") if l.strip())
    ln, score_order = take_value("score_order")
    if score_order not in SCORE_ORDERS:
        raise NetworkFormatError(f"unknown score_order {score_order!r}", ln)
    ln, inputs_text = take_value("inputs")
    try:
        input_dim = int(inputs_text)
    except ValueError:
        raise NetworkFormatError(f"bad input count {inputs_text!r}", ln) from None
    if input_dim < 1:
        raise NetworkFormatError("inputs must be positive", ln)

    vectors = dict(zip(INPUT_VECTORS, take_numbers(INPUT_VECTORS, input_dim)))

    metadata: dict[str, str] = {}
    layers: list[Layer] = []
    while pos < len(lines):
        ln, content = lines[pos]
        key = content.split(None, 1)[0]
        if key == "meta":
            pos += 1
            parts = content.split(None, 2)
            if len(parts) != 3:
                raise NetworkFormatError("meta needs a key and a value", ln)
            metadata[parts[1]] = parts[2]
            continue
        if key != "layer":
            raise NetworkFormatError(f"expected 'layer' or 'meta', found {key!r}", ln)
        pos += 1
        parts = content.split()
        if len(parts) != 3 or "x" not in parts[1]:
            raise NetworkFormatError("layer line must be 'layer <out>x<in> <activation>'", ln)
        out_text, _, in_text = parts[1].partition("x")
        try:
            out_dim, in_dim = int(out_text), int(in_text)
        except ValueError:
            raise NetworkFormatError(f"bad layer shape {parts[1]!r}", ln) from None
        if out_dim < 1 or in_dim < 1:
            raise NetworkFormatError(f"layer shape {parts[1]!r} needs widths of 1 or more", ln)
        activation = parts[2]
        if activation not in ACTIVATIONS:
            raise NetworkFormatError(f"unknown activation {activation!r}", ln)
        weights = take_numbers(range(out_dim), in_dim)
        layers.append(Layer(weights, take_numbers(range(1), out_dim)[0], activation))

    if not layers:
        raise NetworkFormatError("network has no layers", lines[-1][0] if lines else 0)

    try:
        return Network(
            name=name,
            labels=labels,
            score_order=score_order,
            input_dim=input_dim,
            layers=tuple(layers),
            **vectors,
            metadata=metadata,
        )
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_text(what: str, text: str, banned: str = "#", word: bool = False) -> None:
    """Raise unless parse_network reads text back as itself: one line, or one
    word if word, with no blank at either end and no banned character ("#"
    starts a comment)."""
    if (text.split() if word else text.strip().splitlines()) != [text] or \
            any(c in text for c in banned):
        raise ValueError(f"{what} {text!r} would not read back from a network file")


def render_network(net: Network) -> str:
    """Serialize a network so that parse_network round-trips it exactly; a
    name, label or meta text that it would read back otherwise is refused."""
    _check_text("name", net.name)
    for label in net.labels:
        _check_text("label", label, banned="#,")
    for key, value in net.metadata.items():
        _check_text("meta key", key, word=True)
        _check_text("meta value", value)
    out = [
        "RELUNET 1",
        f"name {net.name}",
        f"labels {','.join(net.labels)}",
        f"score_order {net.score_order}",
        f"inputs {net.input_dim}",
    ]
    for key in INPUT_VECTORS:
        vec = getattr(net, key)
        out.append(f"{key} {','.join(_fmt(v) for v in vec)}")
    for key in sorted(net.metadata):
        out.append(f"meta {key} {net.metadata[key]}")
    for layer in net.layers:
        out.append(f"layer {layer.out_dim}x{layer.in_dim} {layer.activation}")
        for row in layer.weights:
            out.append(",".join(_fmt(v) for v in row))
        out.append(",".join(_fmt(v) for v in layer.bias))
    return "\n".join(out) + "\n"


def normalize(net: Network, raw) -> np.ndarray:
    """Map a raw-unit input vector, or a batch of them (one per row), into
    normalized space."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim not in (1, 2) or raw.shape[-1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} inputs, got shape {raw.shape}")
    return (raw - net.input_mean) / net.input_range


def evaluate(net: Network, x) -> np.ndarray:
    """Forward pass on one normalized input, or on an (n, input_dim) batch of
    them; returns the raw score vector, or an (n, n_labels) array of them.

    A batch row gets bit for bit the scores it gets on its own: the batch is
    a stack of the same matrix-vector products, so a row's scores never
    depend on the batch it sits in (evaluate_batch's matrix product gives no
    such promise).
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != net.input_dim:
        raise ValueError(f"expected {net.input_dim} inputs, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("input has non-finite entries")
    return _forward(net, a)


def _forward(net: Network, a: np.ndarray) -> np.ndarray:
    """evaluate without the checks, for inputs already known to be valid."""
    batch = a.ndim == 2
    if batch:
        a = a[:, :, None]
    for layer in net.layers:
        a = layer.weights @ a
        a += layer.bias[:, None] if batch else layer.bias
        if layer.activation == "relu":
            np.maximum(a, 0.0, out=a)
    return a[:, :, 0] if batch else a


def evaluate_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    """Forward pass on an (n, input_dim) batch, or on a (P, n, input_dim)
    stack of batches; returns (n, n_labels) scores, or (P, n, n_labels).

    Each block of a stack gets bit for bit the scores a call on that block
    alone gives: a stack is a stack of the same matrix products. Within one
    block the rows share a matrix product, so a row's scores may depend on
    the block it sits in (evaluate gives the per-row promise).
    """
    a = np.asarray(xs, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != net.input_dim:
        raise ValueError(f"expected (n, {net.input_dim}) batch or (P, n, {net.input_dim}) "
                         f"stack, got shape {a.shape}")
    for layer in net.layers:
        a = a @ layer.weights.T + layer.bias
        if layer.activation == "relu":
            a = np.maximum(a, 0.0)
    return a


def classify(net: Network, x) -> int:
    """Best-label index under the network's score order; ties go to the lowest index."""
    return int(np.argmax(net.oriented(evaluate(net, x))))


def classify_batch(net: Network, xs: np.ndarray) -> np.ndarray:
    return np.argmax(net.oriented(evaluate_batch(net, xs)), axis=1)
