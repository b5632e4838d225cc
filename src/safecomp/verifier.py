"""Targeted safety verification of a network over a region.

The engine is input-splitting branch-and-bound. Each input box gets its
bounds by backward substitution (CROWN, Zhang et al. 2018; DeepPoly, Singh
et al. 2019): every hidden layer's pre-activations, and then the score
margin, are sent back as affine rows through the ReLU relaxations of the
layers below and concretized over box ∩ ball. Each bound is the tighter of
that and interval arithmetic (IBP, Gowal et al. 2018); one routine,
_lower_bound, concretizes both. A box is discharged when the certified
margin clears the safety threshold, refuted when a concrete in-region
counterexample validates, or bisected otherwise. Safe is sound by
construction; Unsafe is exact (every counterexample re-validates by forward
evaluation); Unknown reports which budget ran out.

Boxes come in stacks: a Box holds (K, d) bounds, and the kernels below
(propagate_bounds, score_gap_bound, find_counterexample) take a stack and
return one result per box, a single box being a stack of one.

Splits are deterministic, so the targets of one region visit the same boxes.
verify_full runs them as one lockstep search: a FIFO frontier of boxes, each
carrying the targets still live on it, is popped up to FRONTIER_BATCH boxes
at a time; the batch gets one stacked bound propagation, one stacked margin
scoring and one stacked counterexample search. Every stacked operation is a
stack of the per-box products, so each target's verdict, node count and
counterexample are bit for bit those of a search that visits its boxes one
at a time.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .network import Network, classify, evaluate, evaluate_batch
from .regions import Region, dist_many, region_membership

# random starts per counterexample search, the box width below which a node
# is no longer split (its verdict is then Unknown, reason "min_box"), and the
# most boxes one step of the lockstep search takes off the frontier
CE_EFFORT = 8
MIN_BOX_WIDTH = 1e-4
FRONTIER_BATCH = 256
_scratch = threading.local()  # per thread, the buffer _lower_bound works in


@dataclass(frozen=True)
class Box:
    """A stack of K axis-aligned boxes: (K, d) lower and upper bounds."""

    lo: np.ndarray
    hi: np.ndarray
    ball: Region | None = None  # bounds may assume every point lies in its ball

    def __post_init__(self):
        if self.lo.ndim != 2 or self.lo.shape != self.hi.shape:
            raise ValueError("box bounds must be (K, d) arrays of one shape")

    @property
    def empty(self) -> np.ndarray:
        """(K,) mask of the boxes with no point."""
        return np.any(self.lo > self.hi, axis=1)


@dataclass(frozen=True)
class LinearBounds:
    """Interval bounds on the final layer's inputs and the ReLU relaxations
    that certify them, over box ∩ ball.

    lo <= h(x) <= hi for every x in box ∩ ball, h(x) being the activations of
    the last hidden layer (the input itself when the network has one layer),
    each bound the tighter of backward substitution and interval arithmetic.
    Hidden neuron j with pre-activation z lies between lower_slope[j] * z and
    upper_slope[j] * z + upper_shift[j]; the neurons of every hidden layer
    are concatenated in layer order. Every field has a leading axis of length
    K, one entry per box of the stack.
    """

    lo: np.ndarray
    hi: np.ndarray
    lower_slope: np.ndarray
    upper_slope: np.ndarray
    upper_shift: np.ndarray


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
        if self.status not in ("Safe", "Unsafe", "Unknown"):
            raise ValueError(f"verdict status must be Safe, Unsafe or Unknown, got {self.status!r}")
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
    circumscribed for L1/L2), intersected with the given input domain, as a
    stack of one."""
    lo = region.centroid - region.radius
    hi = region.centroid + region.radius
    if domain is not None:
        lo = np.maximum(lo, domain[0])
        hi = np.minimum(hi, domain[1])
    return Box(lo[None], hi[None])


# Stacked products below are stacks of the per-box ones: numpy's matmul runs
# one BLAS call per block of a stack, so a box's results never depend on the
# boxes stacked with it. A flat matrix product over the rows of all boxes
# would give no such promise.

def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x per block, for a of shape (..., m, n) and x of shape (..., n)."""
    return (a @ x[..., None])[..., 0]


def _ball_min(a: np.ndarray, b: np.ndarray, box: Box) -> np.ndarray | float:
    """Minimum of a @ x + b over box.ball, a @ c + b - r * |a|_q with q the
    dual norm, taken over a transposed copy (a short last axis reduces row by
    row, far slower); -inf with no ball or an Linf one (its own box)."""
    if box.ball is None or box.ball.metric == "Linf":
        return -np.inf
    t = np.abs(a).T.copy()
    norm = (t.max(0) if box.ball.metric == "L1" else np.sqrt((t * t).sum(0))).T
    return _mv(a, box.ball.centroid) + b - box.ball.radius * norm


def _lower_bound(layers, relax: tuple[np.ndarray, ...], a: np.ndarray, b: np.ndarray,
                 box: Box) -> np.ndarray:
    """Certified lower bound over each box ∩ ball of a @ h + b, h being the
    activations of the last of the hidden layers given (the input when there
    are none), by backward substitution: each coefficient goes back through
    its neuron's relaxation, the lower line when it is positive and the
    upper one when negative, then through the layer's weights. The affine
    function of the input that results is concretized over the box by sign
    split and over the ball; with no layers, that is interval arithmetic.

    relax is (lower slope, upper slope, upper shift), each (K, N) with the
    neurons of the layers in order, as LinearBounds holds them. a is (1 or
    K, M, m, n) and b broadcasts to (K, M, m): one (m, n) product per (box,
    block), so no block's bound depends on another's. The result is
    (K, M, m).

    The coefficient stacks live in a buffer kept per thread from call to
    call (_scratch): fresh arrays of that size map fresh pages, whose faults
    cost more than the arithmetic. Each value is bit for bit that of the
    plain expression max(a, 0) * lower + min(a, 0) * upper, then @ weights.
    """
    pos, neg = np.maximum(a, 0.0), np.minimum(a, 0.0)  # at a's shape, before broadcasting
    end = sum(len(layer.bias) for layer in layers)
    if layers:
        stack = (len(relax[0]),) + a.shape[1:-1]
        size, widths = math.prod(stack), {a.shape[-1]} | {layer.in_dim for layer in layers}
        if getattr(_scratch, "buffer", np.empty(0)).size < 3 * (part := size * max(widths)):
            _scratch.buffer = np.empty(3 * part)
        views = {n: [_scratch.buffer[k * part:k * part + size * n].reshape(stack + (n,))
                     for k in range(3)] for n in widths}
        lower, upper, shift = (f[:, None, None, :] for f in relax)  # (K, 1, 1, N)
    for layer in reversed(layers):
        start = end - len(layer.bias)
        _, p, q = views[end - start]
        b = b + _mv(neg, shift[..., 0, start:end])
        relaxed = np.multiply(pos, lower[..., start:end], out=p)
        relaxed += np.multiply(neg, upper[..., start:end], out=q)
        b = b + _mv(relaxed, layer.bias)
        out, p, q = views[layer.in_dim]
        a = np.matmul(relaxed, layer.weights, out=out)
        pos, neg = np.maximum(a, 0.0, out=p), np.minimum(a, 0.0, out=q)
        end = start
    lo, hi = box.lo[:, None], box.hi[:, None]
    box_min = _mv(pos, lo) + _mv(neg, hi) + b
    return np.maximum(box_min, _ball_min(a, b, box))


def propagate_bounds(net: Network, box: Box) -> LinearBounds:
    """Bounds on every hidden layer over each box of the stack, up to the
    final layer's inputs (score_gap_bound sends the final layer back).

    Each hidden layer's pre-activation interval [l, u] bounds the rows
    [W; -W] by the tighter of two _lower_bound calls: backward substitution
    over box ∩ ball, and interval arithmetic over the layer below's bounds.
    A ReLU over [l, u] is then relaxed to: zero when u <= 0, identity when
    l >= 0, and otherwise the chord u(z-l)/(u-l) above with alpha*z below,
    alpha = 1 if u >= -l else 0. An identity layer is its own relaxation.
    """
    hidden = net.layers[:-1]
    width = (len(box.lo), sum(len(layer.bias) for layer in hidden))
    relax = (np.ones(width), np.ones(width), np.zeros(width))
    clo, chi, start = box.lo, box.hi, 0
    for i, layer in enumerate(hidden):
        n = len(layer.bias)
        rows = np.concatenate([layer.weights, -layer.weights])[None, None]
        shift = np.concatenate([layer.bias, -layer.bias])
        bound = np.maximum(_lower_bound(hidden[:i], relax, rows, shift, box),
                           _lower_bound((), relax, rows, shift, Box(clo, chi)))[:, 0]
        l = bound[:, :n]
        u = np.maximum(-bound[:, n:], l)  # float-rounding guard; raising an upper bound is sound
        if layer.activation == "identity":
            clo, chi = l, u
        else:
            off = u <= 0.0
            mixed = ~(off | (l >= 0.0))
            s = u / np.where(mixed, u - l, 1.0)  # the chord's slope where mixed
            relax[0][:, start:start + n] = np.where(mixed, u >= -l, ~off)
            relax[1][:, start:start + n] = np.where(mixed, s, ~off)
            relax[2][:, start:start + n] = np.where(mixed, -s * l, 0.0)
            clo, chi = np.maximum(l, 0.0), np.maximum(u, 0.0)
        start += n
    return LinearBounds(clo, chi, *relax)


def score_gap_bound(net: Network, bounds: LinearBounds, box: Box, true_label: np.ndarray,
                    target: np.ndarray) -> np.ndarray:
    """Certified lower bound over each box of the margin by which the target
    label loses to the true label (positive means the target never wins).

    The margin is one affine row over the final layer's inputs, the final
    layer's W[true] - W[target] turned by net.oriented, bounded by the
    tighter of two _lower_bound calls: backward substitution through every
    hidden layer's relaxation over box ∩ ball, and interval arithmetic over
    bounds.lo and bounds.hi.

    bounds come from propagate_bounds on the stack of K boxes, and true_label
    and target are (Q,) arrays of label pairs; the result is (K, Q).
    """
    true_label, target = np.asarray(true_label), np.asarray(target)
    if true_label.ndim != 1 or true_label.shape != target.shape:
        raise ValueError("labels must be (Q,) arrays of one shape")
    if np.any(true_label == target):
        raise ValueError("labels must be distinct")

    # each (box, pair) is its own one-row product: arrays are (box, pair, 1, n)
    final = net.layers[-1]
    row = net.oriented(final.weights[true_label] - final.weights[target])[None, :, None, :]
    row_b = net.oriented(final.bias[true_label] - final.bias[target])[:, None]
    relax = (bounds.lower_slope, bounds.upper_slope, bounds.upper_shift)
    return np.maximum(_lower_bound(net.layers[:-1], relax, row, row_b, box),
                      _lower_bound((), relax, row, row_b, Box(bounds.lo, bounds.hi)))[..., 0]


def _pull_into_region_batch(xs: np.ndarray, region: Region) -> np.ndarray:
    """Scale points radially toward the centroid until inside the ball.

    xs is a (J, n, d) stack of J blocks; a block with no point outside the
    ball is returned unchanged, as a stack of that block alone returns it."""
    d = dist_many(region.metric, xs, region.centroid)
    outside = d > region.radius
    if np.any(outside):
        scale = np.ones_like(d)
        scale[outside] = (region.radius / d[outside]) * (1.0 - 1e-12)
        pulled = region.centroid + (xs - region.centroid) * scale[..., None]
        xs = np.where(np.any(outside, axis=-1)[..., None, None], pulled, xs)
    return xs


def find_counterexample(net: Network, region: Region, box: Box, targets: np.ndarray,
                        effort: int, seeds: list[int]) -> list[np.ndarray | None]:
    """Concrete violation search in each box of the stack, for its own
    target label and seed: seeded random starts inside the box pulled into
    the region, then coordinate descent on the target's advantage, read from
    scores turned by net.oriented once per forward pass.

    Returns, per box, a point only if it validates: inside the region under
    its own metric and classified as the target. None proves nothing; an
    empty box, or effort 0, gives None. Each box's result is what a stack of
    that box alone gives. All searches share one forward pass for their
    starts and one per descent round.
    """
    found: list[np.ndarray | None] = [None] * len(box.lo)
    boxes = np.flatnonzero(~box.empty) if effort > 0 else np.arange(0)
    if not len(boxes):
        return found
    lo, hi, targets = box.lo[boxes], box.hi[boxes], np.asarray(targets)[boxes]
    d = lo.shape[1]
    others = np.arange(net.n_labels) != targets[:, None]  # (J, L)

    def score(xs: np.ndarray, jobs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one forward pass over the jobs' points: record each job's first
        # validated point; the mask of the jobs still searching, and each
        # point's advantage, how far the target is from winning outright
        # (positive means it wins)
        good = net.oriented(evaluate_batch(net, xs))
        t = targets[jobs]
        inside = dist_many(region.metric, xs, region.centroid) <= region.radius
        valid = (np.argmax(good, axis=-1) == t[:, None]) & inside
        hit = np.where(np.any(valid, axis=1), np.argmax(valid, axis=1), -1)
        for i in np.flatnonzero(hit >= 0):
            found[boxes[jobs[i]]] = xs[i, hit[i]].copy()
        rival = np.max(np.where(others[jobs][:, None, :], good, -np.inf), axis=2)
        return hit < 0, good[np.arange(len(jobs)), :, t] - rival

    draws = np.stack([np.random.default_rng(np.random.SeedSequence(
        [seeds[b] & 0x7FFFFFFF, effort])).random((effort, d)) for b in boxes])
    width = hi - lo
    starts = np.concatenate([((lo + hi) / 2.0)[:, None, :],
                             lo[:, None, :] + draws * width[:, None, :]], axis=1)
    starts = _pull_into_region_batch(starts, region)
    jobs = np.arange(len(boxes))
    going, adv = score(starts, jobs)

    # coordinate descent from each job's most promising start
    idx = np.argmax(adv, axis=1)
    x = starts[jobs, idx]
    best = adv[jobs, idx]
    step = width / 4.0
    axes = np.arange(d)
    for _ in range(3):
        jobs, x, best, step = jobs[going], x[going], best[going], step[going]
        if not len(jobs):
            break
        # min and max as Python's: the bound wins only when strictly beyond
        up, down = x + step, x - step
        moves = np.repeat(x[:, None, :], 2 * d, axis=1)
        moves[:, 2 * axes, axes] = np.where(hi[jobs] < up, hi[jobs], up)
        moves[:, 2 * axes + 1, axes] = np.where(lo[jobs] > down, lo[jobs], down)
        moves = _pull_into_region_batch(moves, region)
        going, madv = score(moves, jobs)
        rows = np.arange(len(jobs))
        j = np.argmax(madv, axis=1)
        better = madv[rows, j] > best
        best = np.where(better, madv[rows, j], best)
        x = np.where(better[:, None], moves[rows, j], x)
        step = step / 2.0
    return found


def _box_region_gap(lo: np.ndarray, hi: np.ndarray, region: Region) -> np.ndarray:
    """Per box of a (K, d) stack, a lower bound on the distance from the box
    to the region centroid."""
    g = np.maximum(np.maximum(lo - region.centroid, region.centroid - hi), 0.0)
    return dist_many(region.metric, g, 0.0)


class _RegionSearch:
    """Lockstep branch and bound for the targets of one region.

    One FIFO frontier of boxes holds, per box, its depth and the targets
    still live on it; a box's children inherit the targets that split it.
    Each step pops up to FRONTIER_BATCH boxes and works on (box x target)
    masks, each target's column in frontier order: the node numbers, the
    geometry prune, the epsilon discharge, the node budget, the
    counterexample seed (task seed * 1_000_003 + node number) and the
    min-box floor are the target's own, so it sees exactly the nodes a search
    of its boxes alone would. Bounds, margins and counterexample searches run
    stacked over the batch. A target's counterexample hit or budget stop
    drops the rest of its column.

    The time budgets are read against one clock started with the search,
    once per step, and a verdict's elapsed time is measured from the
    search's start.
    """

    def __init__(self, tasks):
        self.tasks = tuple(tasks)
        self.net, self.region = self.tasks[0].network, self.tasks[0].region
        labels = [t.target_label for t in self.tasks]
        if len(set(labels)) != len(labels) or any(
                t.network is not self.net or t.region is not self.region for t in self.tasks):
            raise ValueError("a region search takes distinct targets of one network and region")
        self.t0 = time.perf_counter()
        n_labels = self.net.n_labels
        # every (rival, target) pair: per target, a row of its rivals in label order
        self.rivals = np.array([[r for r in range(n_labels) if r != t] for t in labels])
        self.pair_targets = np.repeat(labels, n_labels - 1).reshape(self.rivals.shape)
        self.labels = np.array(labels)
        self.epsilons = np.array([t.epsilon for t in self.tasks])
        # no node number reaches int64's maximum, so a larger budget acts as that
        self.max_nodes = np.array([min(t.max_nodes, np.iinfo(np.int64).max) for t in self.tasks])
        count = len(self.tasks)
        self.nodes = np.zeros(count, dtype=np.int64)
        self.deepest = np.zeros(count, dtype=np.int64)
        self.floor_hit = np.zeros(count, dtype=bool)
        self.verdicts: list[Verdict | None] = [None] * count
        # chunks of (lo, hi, depth, live): (n, d), (n, d), (n,), (n, targets)
        self.frontier: deque = deque()
        self.pending = np.zeros(count, dtype=np.int64)  # frontier boxes live per target
        root = enclosing_box(self.region, self.net.normalized_domain())
        if root.empty[0]:  # region lies outside the admissible input domain
            for slot in range(count):
                self._finish(slot, "Safe")
        else:
            self._push(root.lo, root.hi, np.zeros(1, dtype=np.int64),
                       np.ones((1, count), dtype=bool))

    def verdict(self, task: VerificationTask) -> Verdict:
        """Advance the search until the task's verdict is final."""
        slot = next((i for i, t in enumerate(self.tasks) if t is task), None)
        if slot is None:
            raise ValueError("task is not a target of this search")
        while self.verdicts[slot] is None:
            self._step()
        return self.verdicts[slot]

    def _finish(self, slot: int, status: str, ce: Counterexample | None = None,
                reason: str | None = None) -> None:
        elapsed = time.perf_counter() - self.t0
        self.verdicts[slot] = Verdict(status, ce, VerdictStats(
            int(self.nodes[slot]), int(self.deepest[slot]), elapsed), reason)

    def _push(self, lo, hi, depth, live) -> None:
        self.frontier.append((lo, hi, depth, live))
        self.pending += live.sum(axis=0)

    def _pop(self, alive: np.ndarray):
        """Up to FRONTIER_BATCH boxes in frontier order, keeping only the
        targets still searching and the boxes with one of them live, and no
        more than the largest remaining node budget of those targets (at
        least one: a target can sit at its budget after a pruned node)."""
        batch = min(FRONTIER_BATCH, max(1, int(np.max((self.max_nodes - self.nodes)[alive]))))
        parts = []
        taken = 0
        while self.frontier and taken < batch:
            chunk = self.frontier.popleft()
            room = batch - taken
            if len(chunk[0]) > room:
                self.frontier.appendleft(tuple(a[room:] for a in chunk))
                chunk = tuple(a[:room] for a in chunk)
            lo, hi, depth, live = chunk
            self.pending -= live.sum(axis=0)
            live = live & alive
            keep = np.any(live, axis=1)
            parts.append((lo[keep], hi[keep], depth[keep], live[keep]))
            taken += int(keep.sum())
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _margins(self, lo: np.ndarray, hi: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """(K, len(slots)) certified discharge bounds of a stack of boxes:
        per target slot given, the best margin by which any rival beats it
        (positive means the target never wins)."""
        box = Box(lo, hi, self.region)
        bounds = propagate_bounds(self.net, box)
        gaps = score_gap_bound(self.net, bounds, box, self.rivals[slots].ravel(),
                               self.pair_targets[slots].ravel())
        return gaps.reshape(len(lo), len(slots), self.net.n_labels - 1).max(axis=2)

    def _step(self) -> None:
        now = time.perf_counter()
        for slot, task in enumerate(self.tasks):
            if (self.verdicts[slot] is None and task.time_budget is not None
                    and now - self.t0 > task.time_budget):
                self._finish(slot, "Unknown", reason="budget")
        alive = np.array([v is None for v in self.verdicts])
        if not alive.any():
            return
        # (box, target) masks over the batch; a column's end is the row of
        # its first counterexample hit or budget stop, len(lo) if neither
        lo, hi, depth, live = self._pop(alive)
        rows = np.arange(len(lo))[:, None]
        opened = self._open_boxes(lo, hi, live)
        numbers = self.nodes + np.cumsum(live, axis=0)  # node number of each live pair
        over = opened & (numbers >= self.max_nodes)
        stop = np.where(over.any(axis=0), over.argmax(axis=0), len(lo))
        searched = opened & (rows < stop)

        slots, boxes = np.nonzero(searched.T)  # target by target, in frontier order
        points = []
        hit = np.zeros_like(live)
        if len(slots):
            points = find_counterexample(
                self.net, self.region, Box(lo[boxes], hi[boxes]), self.labels[slots],
                CE_EFFORT, [self.tasks[s].seed * 1_000_003 + int(numbers[b, s])
                            for s, b in zip(slots, boxes)])
            hit[boxes, slots] = [point is not None for point in points]
        first = np.where(hit.any(axis=0), hit.argmax(axis=0), len(lo))
        end = np.minimum(first, stop)
        seen = live & (rows <= end)
        self.nodes += seen.sum(axis=0)
        self.deepest = np.maximum(self.deepest, np.max(seen * depth[:, None], axis=0))
        for slot, point in zip(slots, points):
            if point is not None and self.verdicts[slot] is None:
                self._refuted(slot, point)
        for slot in np.flatnonzero(stop < first):
            self._finish(slot, "Unknown", reason="budget")

        going = searched & (end == len(lo))
        floor = (np.max(hi - lo, axis=1) <= MIN_BOX_WIDTH)[:, None]
        self.floor_hit |= np.any(going & floor, axis=0)
        self._split(lo, hi, depth, going & ~floor)
        for slot in np.flatnonzero(self.pending == 0):  # no box left to search
            if self.verdicts[slot] is None:
                reason = "min_box" if self.floor_hit[slot] else None
                self._finish(slot, "Unknown" if reason else "Safe", reason=reason)

    def _open_boxes(self, lo: np.ndarray, hi: np.ndarray, live: np.ndarray) -> np.ndarray:
        """The live (box, target) pairs that are open: neither pruned by
        geometry nor discharged, so they need a CE search or a split. Bounds
        are propagated once for every box the geometry keeps."""
        region = self.region
        pruned = np.zeros(len(lo), dtype=bool)
        if region.metric in ("L1", "L2"):
            pruned = _box_region_gap(lo, hi, region) > region.radius
        margins = np.zeros(live.shape)
        kept = np.flatnonzero(~pruned)
        slots = np.flatnonzero(live.any(axis=0))  # a finished target needs no margin
        if len(kept):
            margins[np.ix_(kept, slots)] = self._margins(lo[kept], hi[kept], slots)
        return live & ~pruned[:, None] & ~(margins > self.epsilons)

    def _split(self, lo: np.ndarray, hi: np.ndarray, depth: np.ndarray,
               split: np.ndarray) -> None:
        """Bisect each box some target splits along its widest axis; the
        children go to the back of the frontier, each parent's left one
        first, live for the targets that split the parent."""
        parents = np.flatnonzero(np.any(split, axis=1))
        if not len(parents):
            return
        p_lo, p_hi = lo[parents], hi[parents]
        axis = np.argmax(p_hi - p_lo, axis=1)
        at = np.arange(len(parents))
        mid = 0.5 * (p_lo[at, axis] + p_hi[at, axis])
        left_hi = p_hi.copy()
        left_hi[at, axis] = mid
        right_lo = p_lo.copy()
        right_lo[at, axis] = mid
        d = lo.shape[1]
        self._push(np.stack([p_lo, right_lo], axis=1).reshape(-1, d),
                   np.stack([left_hi, p_hi], axis=1).reshape(-1, d),
                   np.repeat(depth[parents] + 1, 2), np.repeat(split[parents], 2, axis=0))

    def _refuted(self, slot: int, point: np.ndarray) -> None:
        net, region, task = self.net, self.region, self.tasks[slot]
        scores = evaluate(net, point)
        if not (region_membership(region, point) and classify(net, point) == task.target_label):
            raise AssertionError("counterexample failed re-validation")
        self._finish(slot, "Unsafe", ce=Counterexample(point, scores))


def verify_targeted(task: VerificationTask, search: _RegionSearch | None = None) -> Verdict:
    """Branch-and-bound targeted safety check; see the module docstring.

    Deterministic for a fixed task and seed: the worklist is FIFO by creation
    index, and each node's counterexample search derives its seed from the
    task seed and the node counter. Stats are deterministic apart from wall
    time.

    search is the lockstep search of the task's region that verify_full
    shares among the region's targets; the call advances it until this
    task's verdict is final. A lone call runs a search of its one target.
    Either way the verdict is the same. The time budget bounds the wall time
    of the search since it started, and elapsed is measured from its start.
    """
    return (_RegionSearch((task,)) if search is None else search).verdict(task)


@dataclass(frozen=True)
class FullResult:
    """The verdicts of a region's targets, keyed by label, and the summary
    that only they decide: TargetedSafe with Unsafe and Safe targets, NotSafe
    with Unsafe ones alone, FullySafe with Safe ones alone, and otherwise
    (an Unknown, or no verdict at all) Inconclusive."""

    verdicts: dict[int, Verdict]

    @property
    def kind(self) -> str:
        statuses = {v.status for v in self.verdicts.values()}
        if "Unsafe" in statuses:
            return "TargetedSafe" if "Safe" in statuses else "NotSafe"
        return "FullySafe" if statuses == {"Safe"} else "Inconclusive"

    @property
    def safe_targets(self) -> tuple[int, ...]:
        return tuple(sorted(t for t, v in self.verdicts.items() if v.status == "Safe"))


def verify_full(net: Network, region: Region, max_nodes: int = 50_000,
                time_budget: float | None = None, epsilon: float = 1e-6,
                seed: int = 0) -> FullResult:
    """Targeted verification against every label other than the expected one;
    the result's kind and safe targets follow from the verdicts (FullResult).

    The targets run as one lockstep search (see the module docstring), fresh
    per call, so the region's boxes get their bounds once, in batches. The
    time budget bounds the region's wall time: a target still undecided when
    it runs out is Unknown ("budget"), and each verdict's elapsed time is
    measured from the region's start.
    """
    tasks = [VerificationTask(net, region, target, max_nodes=max_nodes,
                              time_budget=time_budget, epsilon=epsilon,
                              seed=seed * 131 + target)
             for target in range(net.n_labels) if target != region.expected_label]
    search = _RegionSearch(tasks)
    return FullResult({task.target_label: verify_targeted(task, search) for task in tasks})
