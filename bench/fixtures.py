"""Inputs for the benchmark workloads, built only through safecomp's public API.

Everything here is deterministic given its seed argument.
"""

from __future__ import annotations

import numpy as np

from safecomp import app
from safecomp import compose as cm
from safecomp.contracts import ComponentContract, LabelIs, LabelNotIn, parse_property
from safecomp.network import Layer, Network, classify, evaluate_batch
from safecomp.regions import Region

LABELS = app.SEMAPHORE_LABELS


# ---------------------------------------------------------------------------
# Geometry


def norm_rows(metric: str, v: np.ndarray) -> np.ndarray:
    """Row norms of v. Written here rather than taken from
    safecomp.regions.dist_many on purpose: the output checks use it as an
    oracle independent of the code they check."""
    a = np.abs(v)
    if metric == "L1":
        return a.sum(axis=1)
    if metric == "L2":
        return np.sqrt((a * a).sum(axis=1))
    return a.max(axis=1)


def sample_ball(rng, metric: str, centroid, radius: float, n: int) -> np.ndarray:
    """n points uniform in the closed ball of the given metric."""
    d = len(centroid)
    if metric == "Linf":
        return centroid + rng.uniform(-radius, radius, size=(n, d))
    if metric == "L2":
        g = rng.normal(size=(n, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return centroid + g * (radius * rng.random(n) ** (1.0 / d))[:, None]
    # L1: normalised exponentials are uniform on the simplex; random signs fill the ball
    e = rng.exponential(size=(n, d + 1))
    x = e[:, :d] / e.sum(axis=1, keepdims=True)
    return centroid + radius * x * rng.choice((-1.0, 1.0), size=(n, d))


def sample_sphere(rng, metric: str, centroid, rho: float, n: int) -> np.ndarray:
    """n points whose metric distance from the centroid is rho."""
    d = len(centroid)
    if metric == "Linf":
        u = rng.uniform(-1.0, 1.0, size=(n, d))
        u[np.arange(n), rng.integers(d, size=n)] = rng.choice((-1.0, 1.0), size=n)
    elif metric == "L2":
        u = rng.normal(size=(n, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    else:
        u = rng.exponential(size=(n, d)) * rng.choice((-1.0, 1.0), size=(n, d))
        u /= np.abs(u).sum(axis=1, keepdims=True)
    return centroid + rho * u


def in_domain(net: Network, xs: np.ndarray) -> np.ndarray:
    lo, hi = net.normalized_domain()
    return np.all((xs >= lo) & (xs <= hi), axis=1)


# ---------------------------------------------------------------------------
# verify-capacity


def capacity_net() -> Network:
    """The 5-input, 6x50-ReLU, 5-label net of acceptance criterion 8."""
    rng = np.random.default_rng(88)
    dims = [5] + [50] * 6 + [5]
    layers = []
    for i in range(len(dims) - 1):
        activation = "identity" if i == len(dims) - 2 else "relu"
        layers.append(Layer(rng.normal(0, 0.4, size=(dims[i + 1], dims[i])),
                            rng.normal(0, 0.1, size=dims[i + 1]), activation))
    d = dims[0]
    return Network(name="capacity", labels=("COC", "WL", "WR", "SL", "SR"),
                   score_order="min_best", input_dim=d, layers=tuple(layers),
                   input_min=np.zeros(d), input_max=np.ones(d),
                   input_mean=np.zeros(d), input_range=np.ones(d))


def boundary_centroid(rng, net: Network, metric: str, radius: float) -> np.ndarray:
    """A centroid half a radius inside a decision boundary, so the ball
    crosses it and the rival label across it has a counterexample."""
    while True:
        a, b = rng.uniform(0.1, 0.9, size=(2, net.input_dim))
        la = classify(net, a)
        if la != classify(net, b):
            break
    for _ in range(48):
        m = 0.5 * (a + b)
        if classify(net, m) == la:
            a = m
        else:
            b = m
    step = a - b
    step /= norm_rows(metric, step[None, :])[0]
    return a + 0.5 * radius * step


# (kind, metric, radius): a boundary-straddling ball gives one Unsafe rival
# and cheap Safe ones; an interior ball of radius 0.002 is provable at the
# root; interior balls of 0.025-0.045 are budget-bound. About four in five
# tasks are budget-bound whatever the seed, so the median task sits inside
# that mode rather than between modes. The workload takes the mix twice, so
# that the share of cheap tasks varies less from seed to seed.
CAPACITY_MIX = (
    ("boundary", "Linf", 0.005), ("interior", "L1", 0.002),
    ("interior", "Linf", 0.025), ("interior", "L1", 0.025),
    ("interior", "Linf", 0.03), ("interior", "L1", 0.03),
    ("interior", "Linf", 0.035), ("interior", "L1", 0.035),
    ("interior", "Linf", 0.04), ("interior", "L1", 0.04),
    ("interior", "Linf", 0.045), ("interior", "L1", 0.045),
)


def capacity_batch(rng, net: Network, batch: int, mix=CAPACITY_MIX) -> list[Region]:
    regions = []
    for k, (kind, metric, radius) in enumerate(mix):
        if kind == "boundary":
            c = boundary_centroid(rng, net, metric, radius)
        else:
            c = rng.uniform(0.1, 0.9, size=net.input_dim)
        regions.append(Region(f"b{batch:03d}-{k:02d}", c, radius, metric,
                              classify(net, c), 1, (0,)))
    return regions


# ---------------------------------------------------------------------------
# Perception models and the braking fleet


def same_tick_perception(token_map: dict, class_domain) -> cm.ComponentModel:
    """Perception whose token x and class are output in the same tick, with
    the class restricted to the labels the token's guarantee allows. This is
    the reading of a DNN contract that the assume-guarantee premise 3 uses."""
    class_domain = tuple(class_domain)
    tokens = tuple(token_map) + (("outside",) if "outside" not in token_map else ())

    def allowed(token):
        g = token_map.get(token)
        if g is None:
            return class_domain
        if isinstance(g, LabelIs):
            return (g.label,)
        return tuple(c for c in class_domain if c not in g.labels)

    states = [(t, c) for t in tokens for c in allowed(t)]
    sname = {s: f"{s[0]}|{s[1]}" for s in states}
    transitions = {}
    for s in states:
        for cpick in class_domain:  # input ports sorted: Class_pick, x_pick
            for t2 in tokens:
                adm = allowed(t2)
                transitions[(sname[s], (cpick, t2))] = sname[(t2, cpick if cpick in adm else adm[0])]
    return cm.ComponentModel(
        name="NNsync",
        inputs={"Class_pick": class_domain, "x_pick": tokens},
        outputs={"x": tokens, "Class": class_domain},
        states=tuple(sname.values()),
        initial=tuple(sname.values()),
        output_map={sname[s]: {"x": s[0], "Class": s[1]} for s in states},
        transitions=transitions,
    )


def rename_ports(comp: cm.ComponentModel, name: str, ren: dict) -> cm.ComponentModel:
    """Copy of a component with ports renamed; the rename must keep the
    sorted order of input ports, which orders the transition keys."""
    r = lambda p: ren.get(p, p)  # noqa: E731
    if [r(p) for p in comp.input_ports()] != sorted(r(p) for p in comp.inputs):
        raise ValueError("port rename would reorder transition keys")
    return cm.ComponentModel(
        name=name,
        inputs={r(p): d for p, d in comp.inputs.items()},
        outputs={r(p): d for p, d in comp.outputs.items()},
        states=comp.states,
        initial=comp.initial,
        output_map={s: {r(p): v for p, v in out.items()} for s, out in comp.output_map.items()},
        transitions=comp.transitions,
    )


# Ticks from the camera seeing red to every vehicle stopped: the braking
# contract C1 allows three, and abstract_dnn_component's class latch adds one.
FLEET_DEADLINE = 4


class FleetQuery:
    """N braking subsystems sharing one Class input, plus the perception
    stub contract, the property and the monolithic system."""

    def __init__(self, n: int, braking_ticks: int, deadline: int = FLEET_DEADLINE):
        self.n, self.braking_ticks = n, braking_ticks
        demo = app.build_ebs_demo(braking_ticks)
        bs = demo.m1.component("BreakingSystem")
        veh = demo.m1.component("Vehicle")
        comps, wires = [], []
        for i in range(n):
            ren = {"velocity": f"velocity_{i}", "brake": f"brake_{i}"}
            comps += [rename_ports(bs, f"BreakingSystem_{i}", ren),
                      rename_ports(veh, f"Vehicle_{i}", ren)]
            wires += [cm.Wire(f"Vehicle_{i}", f"velocity_{i}", f"BreakingSystem_{i}", f"velocity_{i}"),
                      cm.Wire(f"BreakingSystem_{i}", f"brake_{i}", f"Vehicle_{i}", f"brake_{i}")]
        self.m1 = cm.System(tuple(comps), tuple(wires))
        stopped = " & ".join(f"velocity_{i}=0" for i in range(n))
        self.c1 = ComponentContract(
            "C1", None, parse_property(f"G (Class=red => F<=3 ({stopped}))"),
            inputs={"Class": LABELS},
            outputs={f"velocity_{i}": ("0", "1", "2") for i in range(n)})
        self.p = parse_property(f"G (x=red => F<={deadline} ({stopped}))")
        self.dnn = demo.dnn_contract
        self.token_map = {label: LabelIs(label) for label in LABELS}
        nn = cm.abstract_dnn_component(self.dnn, LABELS, token_map=self.token_map)
        self.full = cm.wire_by_name(self.m1, nn)

    @property
    def key(self) -> str:
        return f"n{self.n}-t{self.braking_ticks}"

    def same_tick_full(self) -> cm.System:
        return cm.wire_by_name(self.m1, same_tick_perception(self.token_map, LABELS))


# ---------------------------------------------------------------------------
# guard-stream


# the timed stream: rows the guard decides correctly today
GUARD_MIX = (("inside", 0.45), ("outside", 0.35), ("boundary", 0.20))
# the untimed probe of the guard's known defects (ROADMAP item 4)
GUARD_DEFECT_MIX = (("off_domain", 0.80), ("nan", 0.10), ("width7", 0.05), ("width9", 0.05))


def guard_rows(rng, net: Network, contract, n: int, mix=GUARD_MIX):
    """n rows (lists of floats) mixing the kinds in mix, shuffled."""
    regions = sorted(contract.regions, key=lambda r: r.id)
    lo, hi = net.normalized_domain()
    d = net.input_dim
    counts = [int(round(share * n)) for _, share in mix]
    counts[0] += n - sum(counts)

    def in_any(xs):
        return np.any([norm_rows(rc.metric, xs - rc.centroid) <= rc.radius for rc in regions], axis=0)

    def draw(kind, m):
        """Up to m candidate points of one kind, all inside the domain."""
        if kind == "outside":
            xs = rng.uniform(lo, hi, size=(m, d))
            return xs[~in_any(xs)]
        which = rng.integers(len(regions), size=m)
        xs = np.empty((m, d))
        for k, rc in enumerate(regions):
            sel = which == k
            if kind == "boundary":  # a relative hair inside or outside the sphere
                xs[sel] = sample_sphere(rng, rc.metric, rc.centroid, rc.radius, int(sel.sum()))
                xs[sel] = rc.centroid + (xs[sel] - rc.centroid) * (
                    1.0 + rng.choice((-1e-7, 1e-7), size=int(sel.sum())))[:, None]
            else:
                xs[sel] = sample_ball(rng, rc.metric, rc.centroid, rc.radius, int(sel.sum()))
        return xs[in_domain(net, xs)]

    rows: list = []
    for (kind, _), count in zip(mix, counts):
        xs = np.empty((0, d))
        while len(xs) < count:
            xs = np.vstack([xs, draw(kind, 2 * (count - len(xs)) + 16)])
        xs = xs[:count]
        cols = rng.integers(d, size=count)
        if kind == "off_domain":  # push one coordinate just past the nearer domain edge
            delta = rng.uniform(1e-4, 0.02, size=count)
            v = xs[np.arange(count), cols]
            xs[np.arange(count), cols] = np.where(v - lo[cols] < hi[cols] - v,
                                                  lo[cols] - delta, hi[cols] + delta)
        elif kind == "nan":
            xs[np.arange(count), cols] = np.nan
        if kind == "width7":
            xs = xs[:, :d - 1]
        elif kind == "width9":
            xs = np.hstack([xs, np.full((count, 1), 0.5)])
        rows.extend(xs.tolist())
    return [rows[i] for i in rng.permutation(len(rows))]


def guarantee_holds(guarantee, label: str) -> bool:
    if isinstance(guarantee, LabelIs):
        return label == guarantee.label
    if isinstance(guarantee, LabelNotIn):
        return label not in guarantee.labels
    return False


def net_labels(net: Network, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(label index per row, score rows)."""
    scores = evaluate_batch(net, xs)
    if net.score_order == "min_best":
        return np.argmin(scores, axis=1), scores
    return np.argmax(scores, axis=1), scores
