"""Label-guided discovery of candidate safe regions by iterative clustering.

Clustering runs in normalized input space with the usual squared-L2 k-means
objective; the declared region metric (L1/L2/Linf) governs only radius and
membership geometry.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .codec import json_field

METRICS = ("L1", "L2", "Linf")
KMEANS_MAX_ITER = 100  # Lloyd iterations before k-means stops short of a fixed point


@dataclass(frozen=True)
class LabeledDataset:
    attributes: tuple[str, ...]
    points: np.ndarray   # (n, d), normalized space
    labels: np.ndarray   # (n,) label indices

    def __post_init__(self):
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if len(self.points) != len(self.labels):
            raise ValueError("points and labels must have equal length")
        if self.points.shape[1] != len(self.attributes):
            raise ValueError("attribute names must match point dimension")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def check_ball(rid: str, metric: str, centroid, radius) -> None:
    """The rule for every region ball, a Region's or a contract's: a known
    metric, a finite 1-D centroid and a finite positive radius. The error
    names the region."""
    if metric not in METRICS:
        raise ValueError(f"region {rid!r} has unknown metric {metric!r}")
    if np.ndim(centroid) != 1:
        raise ValueError(f"region {rid!r} centroid must be a vector, "
                         f"got shape {np.shape(centroid)}")
    if not np.all(np.isfinite(centroid)):
        raise ValueError(f"region {rid!r} has a non-finite centroid")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"region {rid!r} radius must be finite and positive, got {radius!r}")


@dataclass(frozen=True)
class Region:
    """A centroid/radius ball (under one metric) whose members share a label."""

    id: str
    centroid: np.ndarray
    radius: float
    metric: str
    expected_label: int
    member_count: int
    member_indices: tuple[int, ...]

    def __post_init__(self):
        check_ball(self.id, self.metric, self.centroid, self.radius)
        if self.member_indices and self.member_count != len(self.member_indices):
            raise ValueError("member_count must match member_indices")


@dataclass(frozen=True)
class DiscoveryConfig:
    seed: int = 0
    min_members: int = 3
    radius_strategy: str = "separating"  # "tight" | "separating"


@dataclass
class DiscoveryResult:
    regions: list[Region]
    dropped_indices: list[int]  # singletons, sub-minimum clusters, degenerate radii
    singleton_count: int = 0


def dist(metric: str, a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = np.abs(a - b)
    if metric == "L1":
        return float(np.sum(diff))
    if metric == "L2":
        return float(np.sqrt(np.sum(diff * diff)))
    if metric == "Linf":
        return float(np.max(diff))
    raise ValueError(f"unknown metric {metric!r}")


def dist_many(metric: str, points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Distances from each vector along the last axis of `points` to `center`
    (broadcast against each other)."""
    diff = np.abs(points - center)
    if metric == "L1":
        return np.add.reduce(diff, axis=-1)
    if metric == "L2":
        return np.sqrt(np.add.reduce(diff * diff, axis=-1))
    if metric == "Linf":
        return np.maximum.reduce(diff, axis=-1)
    raise ValueError(f"unknown metric {metric!r}")


def region_membership(region: Region, x) -> bool:
    """Boundary-inclusive containment test under the region's own metric."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != region.centroid.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {region.centroid.shape}")
    return dist(region.metric, x, region.centroid) <= region.radius


def kmeans(points: np.ndarray, k: int, seed: int = 0):
    """Seeded Lloyd iteration with k-means++ initialization.

    Returns (assignment, centroids). Empty clusters are re-seeded from the
    point farthest from its current centroid, so all k clusters end non-empty
    whenever the data allows it. Deterministic for a fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if k < 1 or k > n:
        raise ValueError(f"k={k} out of range for {n} points")
    rng = np.random.default_rng(seed)

    # k-means++ seeding
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))

    assignment = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        sq = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_assignment = np.argmin(sq, axis=1)  # ties resolve to the lowest index
        stable = np.array_equal(new_assignment, assignment)
        assignment = new_assignment
        reseeded = False
        for j in range(k):
            members = points[assignment == j]
            if len(members) == 0:
                # farthest point from its own centroid claims the empty slot
                own = np.take_along_axis(sq, assignment[:, None], axis=1)[:, 0]
                far = int(np.argmax(own))
                centroids[j] = points[far]
                reseeded = True
            else:
                centroids[j] = members.mean(axis=0)
        if stable and not reseeded:
            break
    return assignment, centroids


def compute_radius(members: np.ndarray, centroid: np.ndarray, metric: str,
                   data: LabeledDataset, label: int, strategy: str) -> float:
    """Radius for a pure cluster.

    tight: farthest member. separating: additionally stay at most halfway to
    the nearest foreign-label point in the whole dataset, so no known
    foreign-label input can sit inside the region.
    """
    tight = float(np.max(dist_many(metric, members, centroid))) if len(members) else 0.0
    if strategy == "tight":
        return tight
    if strategy != "separating":
        raise ValueError(f"unknown radius strategy {strategy!r}")
    foreign = data.points[data.labels != label]
    if len(foreign) == 0:
        return tight
    nearest = float(np.min(dist_many(metric, foreign, centroid)))
    return min(tight, 0.5 * nearest)


def _majority_split(labels: np.ndarray) -> np.ndarray:
    """Fallback binary split: majority label vs the rest (ties to lowest index)."""
    values, counts = np.unique(labels, return_counts=True)
    majority = values[np.argmax(counts)]
    return (labels != majority).astype(np.int64)


def discover_regions(data: LabeledDataset, metric: str,
                     cfg: DiscoveryConfig = DiscoveryConfig()) -> DiscoveryResult:
    """Iterative splitting: cluster label-agnostically, re-cluster impure clusters
    with k=2 until every cluster is label-pure or a singleton.

    Pure clusters with at least cfg.min_members become Regions; singletons,
    sub-minimum clusters, and clusters whose radius degenerates to zero are
    reported in dropped_indices instead. Deterministic for a fixed cfg.seed.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")

    n_labels = len(np.unique(data.labels))
    split_counter = 0

    def split(indices: np.ndarray, k: int) -> list[np.ndarray]:
        nonlocal split_counter
        assignment, _ = kmeans(data.points[indices], k, seed=cfg.seed + split_counter)
        split_counter += 1
        parts = [indices[assignment == j] for j in range(k)]
        if any(len(p) == 0 for p in parts) and k == 2:
            # duplicate points with conflicting labels: force progress by label
            assignment = _majority_split(data.labels[indices])
            parts = [indices[assignment == j] for j in range(2)]
        return [p for p in parts if len(p) > 0]

    queue: list[np.ndarray] = split(np.arange(len(data)), min(n_labels, len(data)))
    pure: list[np.ndarray] = []
    dropped: list[int] = []
    singleton_count = 0
    while queue:
        cluster = queue.pop(0)
        if len(np.unique(data.labels[cluster])) == 1:
            pure.append(cluster)
        else:
            queue.extend(split(cluster, 2))

    regions: list[Region] = []
    for cluster in pure:
        if len(cluster) == 1:
            singleton_count += 1
            dropped.extend(int(i) for i in cluster)
            continue
        if len(cluster) < cfg.min_members:
            dropped.extend(int(i) for i in cluster)
            continue
        label = int(data.labels[cluster[0]])
        members = data.points[cluster]
        centroid = members.mean(axis=0)
        radius = compute_radius(members, centroid, metric, data, label, cfg.radius_strategy)
        if not radius > 0:
            dropped.extend(int(i) for i in cluster)
            continue
        # a separating radius may undercut the farthest members; they are shed
        inside = dist_many(metric, members, centroid) <= radius
        kept = cluster[inside]
        if len(kept) < cfg.min_members:
            dropped.extend(int(i) for i in cluster)
            continue
        dropped.extend(int(i) for i in cluster[~inside])
        regions.append(Region(
            id=f"r{len(regions):03d}",
            centroid=centroid,
            radius=radius,
            metric=metric,
            expected_label=label,
            member_count=len(kept),
            member_indices=tuple(int(i) for i in kept),
        ))
    return DiscoveryResult(regions=regions, dropped_indices=sorted(dropped),
                           singleton_count=singleton_count)


def load_dataset_csv(text: str, label_names: list[str] | tuple[str, ...]) -> LabeledDataset:
    """Read the dataset CSV: header x1,...,xn,label on the first non-blank
    line; labels resolved by name. Blank lines are skipped, and an error names
    the row by its line in the file."""
    reader = csv.reader(io.StringIO(text))
    header = next((row for row in reader if row), None)
    if not header or len(header) < 2 or header[-1].strip() != "label":
        raise ValueError("dataset CSV needs a header ending in 'label'")
    attributes = tuple(h.strip() for h in header[:-1])
    points, labels = [], []
    index = {name: i for i, name in enumerate(label_names)}
    for row in reader:
        if not row:
            continue
        row_num = reader.line_num
        if len(row) != len(header):
            raise ValueError(f"row {row_num}: expected {len(header)} fields, got {len(row)}")
        try:
            point = [float(v) for v in row[:-1]]
        except ValueError as exc:
            raise ValueError(f"row {row_num}: bad number: {exc}") from None
        if not all(map(math.isfinite, point)):
            raise ValueError(f"row {row_num}: non-finite number")
        points.append(point)
        name = row[-1].strip()
        if name not in index:
            raise ValueError(f"row {row_num}: unknown label {name!r}")
        labels.append(index[name])
    if not points:
        raise ValueError("dataset CSV has no rows")
    return LabeledDataset(attributes, np.array(points, dtype=np.float64),
                          np.array(labels, dtype=np.int64))


def render_dataset_csv(data: LabeledDataset, label_names) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(data.attributes) + ["label"])
    for point, label in zip(data.points, data.labels):
        writer.writerow([repr(float(v)) for v in point] + [label_names[int(label)]])
    return out.getvalue()


def region_to_dict(region: Region, label_names) -> dict:
    return {
        "id": region.id,
        "metric": region.metric,
        "centroid": [float(v) for v in region.centroid],
        "radius": float(region.radius),
        "expected_label": label_names[region.expected_label],
        "member_count": region.member_count,
        "member_indices": list(region.member_indices),
    }


def geometry_from_dict(obj: dict, where: str) -> tuple[np.ndarray, float, str]:
    """Centroid, radius and metric of a JSON region record."""
    return (np.array(json_field(obj, "centroid", list, where, items=float), dtype=np.float64),
            float(json_field(obj, "radius", float, where)), json_field(obj, "metric", str, where))


def region_from_dict(obj: dict, label_names) -> Region:
    rid = json_field(obj, "id", str, "a region record")
    where = f"region {rid!r}"
    member_indices = json_field(obj, "member_indices", list, where, items=int, default=[])
    member_count = json_field(obj, "member_count", int, where, default=len(member_indices))
    geometry, label = geometry_from_dict(obj, where), json_field(obj, "expected_label", str, where)
    if label not in label_names:
        raise ValueError(f"{where} expected_label {label!r} is not one of {list(label_names)}")
    return Region(rid, *geometry, label_names.index(label), member_count, tuple(member_indices))
