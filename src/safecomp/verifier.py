"""Targeted safety verification of a network over a region.

The engine is input-splitting branch-and-bound: each input box gets symbolic
affine lower/upper bounds for every score (exact through affine layers, ReLU
relaxed), and is discharged when the certified score margin clears the safety
threshold, refuted when a concrete in-region counterexample validates, or
bisected otherwise. Safe is sound by construction; Unsafe is exact (every
counterexample re-validates by forward evaluation); Unknown reports which
budget ran out.

Splits are deterministic, so the targets of one region visit the same boxes;
verify_full gives them one per-region cache of each box's certified margins,
and bounds are propagated at most once per distinct box of a region.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .network import Network, classify, evaluate, evaluate_batch
from .regions import Region, dist_many, region_membership

# random starts per counterexample search, and the box width below which a
# node is no longer split (its verdict is then Unknown, reason "min_box")
CE_EFFORT = 8
MIN_BOX_WIDTH = 1e-4


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        if self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must share a shape")

    @property
    def empty(self) -> bool:
        return bool(np.any(self.lo > self.hi))

    def widths(self) -> np.ndarray:
        return self.hi - self.lo


@dataclass(frozen=True)
class LinearBounds:
    """Affine lower/upper bounding functions per output, valid over one box.

    lower(x) = lower_a @ x + lower_b and upper(x) = upper_a @ x + upper_b
    satisfy lower(x) <= score(x) <= upper(x) for every x in the box. concrete
    lo/hi are interval bounds at least as tight as the concretized functions.

    The symbolic bounds of the final layer's input activations ride along
    (penult_*), together with that layer's weights, so score differences can
    be bounded as one composed affine row instead of subtracting two
    independently relaxed outputs.
    """

    lower_a: np.ndarray
    lower_b: np.ndarray
    upper_a: np.ndarray
    upper_b: np.ndarray
    concrete_lo: np.ndarray
    concrete_hi: np.ndarray
    penult_lower_a: np.ndarray
    penult_lower_b: np.ndarray
    penult_upper_a: np.ndarray
    penult_upper_b: np.ndarray
    penult_lo: np.ndarray
    penult_hi: np.ndarray
    final_w: np.ndarray
    final_b: np.ndarray


@dataclass(frozen=True)
class Counterexample:
    point: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True)
class VerdictStats:
    nodes: int
    deepest_split: int
    elapsed: float


@dataclass(frozen=True)
class Verdict:
    status: str  # "Safe" | "Unsafe" | "Unknown"
    counterexample: Counterexample | None = None
    stats: VerdictStats = VerdictStats(0, 0, 0.0)
    reason: str | None = None  # Unknown only: "budget" | "min_box"

    def __post_init__(self):
        if self.status == "Unsafe" and self.counterexample is None:
            raise ValueError("Unsafe verdict requires a counterexample")
        if self.status == "Safe" and self.counterexample is not None:
            raise ValueError("Safe verdict must not carry a counterexample")


@dataclass(frozen=True)
class VerificationTask:
    network: Network
    region: Region
    target_label: int
    max_nodes: int = 50_000
    time_budget: float | None = None
    epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_budgets(self.max_nodes, self.time_budget, self.epsilon)
        if self.target_label == self.region.expected_label:
            raise ValueError("target label must differ from the region's expected label")
        if not 0 <= self.target_label < self.network.n_labels:
            raise ValueError("target label out of range")


def check_budgets(max_nodes: int, time_budget: float | None, epsilon: float) -> None:
    """Raise ValueError unless the settings keep a Safe verdict sound and the
    budgets in force: a negative or infinite epsilon would discharge boxes the
    target wins, and a NaN time budget never runs out."""
    if max_nodes <= 0:
        raise ValueError("node budget must be positive")
    if time_budget is not None and not time_budget > 0:
        raise ValueError(f"time budget must be positive, got {time_budget!r}")
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon!r}")


def enclosing_box(region: Region, domain: tuple[np.ndarray, np.ndarray] | None = None) -> Box:
    """Smallest axis-aligned box containing the region (exact for Linf,
    circumscribed for L1/L2), intersected with the given input domain."""
    lo = region.centroid - region.radius
    hi = region.centroid + region.radius
    if domain is not None:
        lo = np.maximum(lo, domain[0])
        hi = np.minimum(hi, domain[1])
    return Box(lo, hi)


def _affine_min(a: np.ndarray, b: np.ndarray, box: Box) -> np.ndarray:
    pos = np.maximum(a, 0.0)
    neg = np.minimum(a, 0.0)
    return pos @ box.lo + neg @ box.hi + b


def _affine_max(a: np.ndarray, b: np.ndarray, box: Box) -> np.ndarray:
    pos = np.maximum(a, 0.0)
    neg = np.minimum(a, 0.0)
    return pos @ box.hi + neg @ box.lo + b


def propagate_bounds(net: Network, box: Box) -> LinearBounds:
    """Layer-by-layer symbolic propagation over the box.

    Affine layers compose the bounding functions exactly (sign-split on the
    weights). A ReLU with pre-activation interval [l, u] becomes: zero when
    u <= 0, identity when l >= 0, and otherwise the chord u(z-l)/(u-l) above
    with alpha*z below, alpha = 1 if u >= -l else 0. Interval bounds are
    tracked alongside and intersected with the concretized functions.
    """
    d = net.input_dim
    lower_a = np.eye(d)
    lower_b = np.zeros(d)
    upper_a = np.eye(d)
    upper_b = np.zeros(d)
    clo = box.lo.copy()
    chi = box.hi.copy()

    for index, layer in enumerate(net.layers):
        if index == len(net.layers) - 1:
            penult = (lower_a, lower_b, upper_a, upper_b, clo, chi)
        w_pos = np.maximum(layer.weights, 0.0)
        w_neg = np.minimum(layer.weights, 0.0)
        pre_la = w_pos @ lower_a + w_neg @ upper_a
        pre_lb = w_pos @ lower_b + w_neg @ upper_b + layer.bias
        pre_ua = w_pos @ upper_a + w_neg @ lower_a
        pre_ub = w_pos @ upper_b + w_neg @ lower_b + layer.bias
        # interval propagation runs in parallel; keep the tighter of the two
        int_lo = w_pos @ clo + w_neg @ chi + layer.bias
        int_hi = w_pos @ chi + w_neg @ clo + layer.bias
        l = np.maximum(_affine_min(pre_la, pre_lb, box), int_lo)
        u = np.minimum(_affine_max(pre_ua, pre_ub, box), int_hi)
        u = np.maximum(u, l)  # float-rounding guard; raising an upper bound is sound

        if layer.activation == "identity":
            lower_a, lower_b, upper_a, upper_b = pre_la, pre_lb, pre_ua, pre_ub
            clo, chi = l, u
            continue

        # relu
        neg_mask = u <= 0.0
        pos_mask = l >= 0.0
        mixed = ~(neg_mask | pos_mask)
        up_slope = np.ones_like(u)
        up_shift = np.zeros_like(u)
        lo_slope = np.ones_like(l)
        if np.any(mixed):
            s = u[mixed] / (u[mixed] - l[mixed])
            up_slope[mixed] = s
            up_shift[mixed] = -s * l[mixed]
            lo_slope[mixed] = (u[mixed] >= -l[mixed]).astype(np.float64)
        up_slope[neg_mask] = 0.0
        lo_slope[neg_mask] = 0.0

        lower_a = lo_slope[:, None] * pre_la
        lower_b = lo_slope * pre_lb
        upper_a = up_slope[:, None] * pre_ua
        upper_b = up_slope * pre_ub + up_shift
        clo = np.maximum(l, 0.0)
        chi = np.maximum(u, 0.0)

    final = net.layers[-1]
    return LinearBounds(lower_a, lower_b, upper_a, upper_b, clo, chi,
                        penult[0], penult[1], penult[2], penult[3],
                        penult[4], penult[5], final.weights, final.bias)


def score_gap_bound(bounds: LinearBounds, box: Box, true_label: int, target: int,
                    score_order: str) -> float:
    """Certified lower bound over the box of the margin by which the target
    label loses to the true label (positive means the target never wins).

    Three sound candidates, best wins: the margin row composed through the
    final layer against the symbolic penultimate bounds (cancels shared
    terms), the same row against the penultimate intervals, and the concrete
    interval difference. Subtracting the two outputs' bounding functions is
    never tighter than the composed row, so it is not a candidate.
    """
    if true_label == target:
        raise ValueError("labels must be distinct")
    if score_order == "min_best":
        win, lose = target, true_label  # margin = s_target - s_true
    else:
        win, lose = true_label, target  # margin = s_true - s_target

    # candidate 1: single affine row for the difference over the penultimate
    # activations, sign-split against their symbolic bounds
    row = bounds.final_w[win] - bounds.final_w[lose]
    row_b = bounds.final_b[win] - bounds.final_b[lose]
    r_pos = np.maximum(row, 0.0)
    r_neg = np.minimum(row, 0.0)
    m_a = r_pos @ bounds.penult_lower_a + r_neg @ bounds.penult_upper_a
    m_b = r_pos @ bounds.penult_lower_b + r_neg @ bounds.penult_upper_b + row_b
    composed = float(_affine_min(m_a, m_b, box))
    interval = float(r_pos @ bounds.penult_lo + r_neg @ bounds.penult_hi + row_b)
    concrete = float(bounds.concrete_lo[win] - bounds.concrete_hi[lose])
    return max(composed, interval, concrete)


def _pull_into_region_batch(xs: np.ndarray, region: Region) -> np.ndarray:
    """Scale points radially toward the centroid until inside the ball."""
    d = dist_many(region.metric, xs, region.centroid)
    outside = d > region.radius
    if np.any(outside):
        scale = np.ones_like(d)
        scale[outside] = (region.radius / d[outside]) * (1.0 - 1e-12)
        xs = region.centroid + (xs - region.centroid) * scale[:, None]
    return xs


def find_counterexample(net: Network, region: Region, box: Box, target: int,
                        effort: int, seed: int = 0) -> np.ndarray | None:
    """Concrete violation search: seeded random starts inside the box pulled
    into the region, then coordinate descent on the target's advantage.

    Returns a point only if it validates: inside the region under its own
    metric and classified as the target. Returning None proves nothing.
    """
    if effort <= 0 or box.empty:
        return None
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0x7FFFFFFF, effort]))
    width = box.widths()
    d = len(box.lo)
    sign = -1.0 if net.score_order == "min_best" else 1.0

    def first_hit(xs: np.ndarray, scores: np.ndarray) -> np.ndarray | None:
        if net.score_order == "min_best":
            winners = np.argmin(scores, axis=1)
        else:
            winners = np.argmax(scores, axis=1)
        inside = dist_many(region.metric, xs, region.centroid) <= region.radius
        hits = np.nonzero((winners == target) & inside)[0]
        return xs[hits[0]] if len(hits) else None

    others = [j for j in range(net.n_labels) if j != target]

    def advantage(scores: np.ndarray) -> np.ndarray:
        # how far the target is from winning outright: positive means it wins
        good = sign * scores
        return good[:, target] - np.max(good[:, others], axis=1)

    starts = np.vstack([(box.lo + box.hi)[None, :] / 2.0,
                        box.lo + rng.random((effort, d)) * width])
    starts = _pull_into_region_batch(starts, region)
    scores = evaluate_batch(net, starts)
    hit = first_hit(starts, scores)
    if hit is not None:
        return hit

    # coordinate descent from the most promising start
    adv = advantage(scores)
    idx = int(np.argmax(adv))
    x, best = starts[idx], adv[idx]
    step = width / 4.0
    for _ in range(3):
        moves = np.repeat(x[None, :], 2 * d, axis=0)
        for i in range(d):
            moves[2 * i, i] = min(x[i] + step[i], box.hi[i])
            moves[2 * i + 1, i] = max(x[i] - step[i], box.lo[i])
        moves = _pull_into_region_batch(moves, region)
        mscores = evaluate_batch(net, moves)
        hit = first_hit(moves, mscores)
        if hit is not None:
            return hit
        madv = advantage(mscores)
        j = int(np.argmax(madv))
        if madv[j] > best:
            best, x = madv[j], moves[j]
        step = step / 2.0
    return None


def _box_region_gap(box: Box, region: Region) -> float:
    """Lower bound on the distance from the box to the region centroid."""
    g = np.maximum(np.maximum(box.lo - region.centroid, region.centroid - box.hi), 0.0)
    return float(dist_many(region.metric, g, 0.0))


def _discharge_bounds(net: Network, box: Box, targets: tuple[int, ...]) -> tuple[float, ...]:
    """Each target's certified discharge bound over the box, in the order of
    targets: the best margin by which any rival beats it (positive means the
    target never wins)."""
    bounds = propagate_bounds(net, box)
    return tuple(max(score_gap_bound(bounds, box, rival, t, net.score_order)
                     for rival in range(net.n_labels) if rival != t)
                 for t in targets)


def verify_targeted(task: VerificationTask,
                    margins: dict[bytes, tuple[float, ...]] | None = None) -> Verdict:
    """Branch-and-bound targeted safety check; see the module docstring.

    Deterministic for a fixed task and seed: the worklist is FIFO by creation
    index, and each node's counterexample search derives its seed from the
    task seed and the node counter. Stats are deterministic apart from wall
    time.

    margins maps a box's lo and hi bytes to the discharge bounds of the labels
    other than the region's expected one, in label order. verify_full shares
    one such cache among the targets of a region, so a box another target
    already reached costs no bound propagation; a lone call starts from an
    empty one. Each cached float is computed the same way either way, so the
    verdict does not depend on the cache.
    """
    t0 = time.perf_counter()
    net, region = task.network, task.region
    margins = {} if margins is None else margins
    targets = tuple(t for t in range(net.n_labels) if t != region.expected_label)
    slot = targets.index(task.target_label)
    root = enclosing_box(region, net.normalized_domain())
    nodes = 0
    deepest = 0
    floor_hit = False

    def done(status: str, ce: Counterexample | None = None, reason: str | None = None) -> Verdict:
        elapsed = time.perf_counter() - t0
        return Verdict(status, ce, VerdictStats(nodes, deepest, elapsed), reason)

    if root.empty:
        return done("Safe")  # region lies outside the admissible input domain

    worklist: deque[tuple[Box, int]] = deque([(root, 0)])
    while worklist:
        if task.time_budget is not None and time.perf_counter() - t0 > task.time_budget:
            return done("Unknown", reason="budget")
        box, depth = worklist.popleft()
        nodes += 1
        deepest = max(deepest, depth)

        if region.metric in ("L1", "L2") and _box_region_gap(box, region) > region.radius:
            continue  # box cannot intersect the region
        # discharged as soon as ANY label certifiably beats the target on the
        # whole box; the target only ever wins where it beats all rivals
        key = box.lo.tobytes() + box.hi.tobytes()
        entry = margins.get(key)
        if entry is None:
            entry = margins[key] = _discharge_bounds(net, box, targets)
        if entry[slot] > task.epsilon:
            continue
        if nodes >= task.max_nodes:
            return done("Unknown", reason="budget")
        point = find_counterexample(net, region, box, task.target_label,
                                    effort=CE_EFFORT,
                                    seed=task.seed * 1_000_003 + nodes)
        if point is not None:
            scores = evaluate(net, point)
            if not (region_membership(region, point) and classify(net, point) == task.target_label):
                raise AssertionError("counterexample failed re-validation")
            return done("Unsafe", ce=Counterexample(point, scores))
        widths = box.widths()
        axis = int(np.argmax(widths))
        if widths[axis] <= MIN_BOX_WIDTH:
            floor_hit = True
            continue
        mid = 0.5 * (box.lo[axis] + box.hi[axis])
        left_hi = box.hi.copy()
        left_hi[axis] = mid
        right_lo = box.lo.copy()
        right_lo[axis] = mid
        worklist.append((Box(box.lo, left_hi), depth + 1))
        worklist.append((Box(right_lo, box.hi), depth + 1))

    if floor_hit:
        return done("Unknown", reason="min_box")
    return done("Safe")


@dataclass(frozen=True)
class FullSummary:
    kind: str  # "FullySafe" | "TargetedSafe" | "NotSafe" | "Inconclusive"
    safe_targets: tuple[int, ...] = ()


@dataclass(frozen=True)
class FullResult:
    verdicts: dict[int, Verdict] = field(default_factory=dict)
    summary: FullSummary = FullSummary("Inconclusive")


def verify_full(net: Network, region: Region, max_nodes: int = 50_000,
                time_budget: float | None = None, epsilon: float = 1e-6,
                seed: int = 0) -> FullResult:
    """Targeted verification against every label other than the expected one.

    FullySafe: all targets Safe. TargetedSafe: some Safe alongside proven
    Unsafe targets. NotSafe: Unsafe with no Safe target. Inconclusive: no
    Unsafe but at least one Unknown (proved-safe targets still listed).

    The targets share one cache of box margins (see verify_targeted), fresh
    per call, so bounds are propagated at most once per distinct box.
    """
    margins: dict[bytes, tuple[float, ...]] = {}
    verdicts: dict[int, Verdict] = {}
    for target in range(net.n_labels):
        if target == region.expected_label:
            continue
        task = VerificationTask(net, region, target, max_nodes=max_nodes,
                                time_budget=time_budget, epsilon=epsilon,
                                seed=seed * 131 + target)
        verdicts[target] = verify_targeted(task, margins)

    safe = tuple(sorted(t for t, v in verdicts.items() if v.status == "Safe"))
    any_unsafe = any(v.status == "Unsafe" for v in verdicts.values())
    any_unknown = any(v.status == "Unknown" for v in verdicts.values())
    if any_unsafe:
        kind = "TargetedSafe" if safe else "NotSafe"
    elif any_unknown:
        kind = "Inconclusive"
    else:
        kind = "FullySafe"
    return FullResult(verdicts=verdicts, summary=FullSummary(kind, safe))
