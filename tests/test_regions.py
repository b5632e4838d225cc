import numpy as np
import pytest

from safecomp.contracts import LabelIs, RegionContract
from safecomp.regions import (
    DiscoveryConfig,
    LabeledDataset,
    Region,
    compute_radius,
    discover_regions,
    dist,
    kmeans,
    load_dataset_csv,
    region_from_dict,
    region_membership,
    region_to_dict,
    render_dataset_csv,
)


def blob_dataset(seed=0, centers=((0.0, 0.0), (5.0, 5.0)), per=20, sigma=0.3,
                 attributes=("x1", "x2")):
    rng = np.random.default_rng(seed)
    points, labels = [], []
    for label, center in enumerate(centers):
        points.append(rng.normal(0, sigma, size=(per, len(center))) + np.asarray(center))
        labels.extend([label] * per)
    return LabeledDataset(attributes, np.vstack(points), np.array(labels))


class TestDist:
    def test_zero_for_equal_points(self):
        for metric in ("L1", "L2", "Linf"):
            assert dist(metric, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_values(self):
        a, b = [0.0, 0.0], [0.5, 0.4]
        assert dist("L1", a, b) == pytest.approx(0.9)
        assert dist("Linf", a, b) == pytest.approx(0.5)
        assert dist("L2", a, b) == pytest.approx(np.hypot(0.5, 0.4))

    def test_against_duplicate_formulas(self, rng):
        for _ in range(50):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            l1 = sum(abs(float(x) - float(y)) for x, y in zip(a, b))
            l2 = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) ** 0.5
            linf = max(abs(float(x) - float(y)) for x, y in zip(a, b))
            assert dist("L1", a, b) == pytest.approx(l1, rel=1e-12)
            assert dist("L2", a, b) == pytest.approx(l2, rel=1e-12)
            assert dist("Linf", a, b) == pytest.approx(linf, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dist("L1", [1.0], [1.0, 2.0])


class TestMembership:
    def test_five_dim_l1_coc_region_contains_centroid(self):
        # a 5-dim normalized-space L1 region shaped like a COC advisory contract
        centroid = np.array([0.19, 0.31, 0.28, 0.33, 0.33])
        region = Region("r0", centroid, 0.28, "L1", 0, 1, (0,))
        assert region_membership(region, centroid)

    def test_inside_and_outside(self):
        region = Region("r0", np.zeros(2), 1.0, "L1", 0, 1, (0,))
        assert region_membership(region, [0.5, 0.4])      # distance 0.9
        assert not region_membership(region, [0.6, 0.5])  # distance 1.1

    def test_boundary_inclusive(self):
        region = Region("r0", np.zeros(2), 1.0, "L1", 0, 1, (0,))
        assert region_membership(region, [1.0, 0.0])

    def test_dimension_mismatch(self):
        region = Region("r0", np.zeros(2), 1.0, "L2", 0, 1, (0,))
        with pytest.raises(ValueError):
            region_membership(region, [1.0, 0.0, 0.0])


class TestKmeans:
    def test_k1_centroid_is_mean(self, rng):
        points = rng.normal(size=(10, 3))
        assignment, centroids = kmeans(points, 1, seed=0)
        assert set(assignment) == {0}
        np.testing.assert_allclose(centroids[0], points.mean(axis=0), rtol=1e-12)

    def test_k_equals_n_each_point_own_cluster(self, rng):
        points = rng.normal(size=(6, 2)) * 10
        assignment, centroids = kmeans(points, 6, seed=1)
        assert sorted(assignment) == list(range(6))
        for j in range(6):
            np.testing.assert_allclose(centroids[j], points[assignment == j][0])

    def test_two_blobs_beat_label_split_wcss(self):
        data = blob_dataset(seed=3)
        assignment, centroids = kmeans(data.points, 2, seed=0)

        def wcss(groups):
            total = 0.0
            for g in groups:
                if len(g):
                    c = g.mean(axis=0)
                    total += float(np.sum((g - c) ** 2))
            return total

        km = wcss([data.points[assignment == j] for j in range(2)])
        by_label = wcss([data.points[data.labels == l] for l in range(2)])
        assert km <= by_label + 1e-9
        # blobs are well separated: each cluster is label-pure
        for j in range(2):
            assert len(np.unique(data.labels[assignment == j])) == 1

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((2, 2)), 3, seed=0)

    def test_deterministic(self, rng):
        points = rng.normal(size=(30, 2))
        a1, c1 = kmeans(points, 4, seed=9)
        a2, c2 = kmeans(points, 4, seed=9)
        assert np.array_equal(a1, a2) and np.array_equal(c1, c2)


class TestComputeRadius:
    def _data(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [0.3, 0.0], [0.4, 0.0]])
        labels = np.array([0, 0, 0, 1])
        return LabeledDataset(("x1", "x2"), points, labels)

    def test_tight_is_farthest_member(self):
        data = self._data()
        members = data.points[:3]
        r = compute_radius(members, np.zeros(2), "L1", data, 0, "tight")
        assert r == pytest.approx(0.3)

    def test_separating_halves_foreign_distance(self):
        data = self._data()
        members = data.points[:3]
        # nearest foreign point at L1 distance 0.4 from the centroid
        r = compute_radius(members, np.zeros(2), "L1", data, 0, "separating")
        assert r == pytest.approx(min(0.3, 0.2))

    def test_single_member_at_centroid_gives_zero(self):
        data = self._data()
        r = compute_radius(data.points[:1], data.points[0], "L1", data, 0, "tight")
        assert r == 0.0


class TestDiscovery:
    def test_single_label_dataset_yields_one_region(self, rng):
        points = rng.normal(size=(12, 2))
        data = LabeledDataset(("x1", "x2"), points, np.zeros(12, dtype=np.int64))
        result = discover_regions(data, "L2", DiscoveryConfig(seed=0))
        assert len(result.regions) == 1
        assert result.regions[0].member_count == 12

    def test_two_blobs_pure_and_covering(self):
        data = blob_dataset(seed=11, per=25)
        result = discover_regions(data, "L2", DiscoveryConfig(seed=0, radius_strategy="tight"))
        assert len(result.regions) >= 2
        covered = set()
        for region in result.regions:
            member_labels = data.labels[list(region.member_indices)]
            assert set(member_labels) == {region.expected_label}
            for idx in region.member_indices:
                assert region_membership(region, data.points[idx])
            covered.update(region.member_indices)
        assert covered | set(result.dropped_indices) == set(range(len(data)))

    def test_xor_interleaved_terminates_with_singletons(self):
        # alternating labels on a line: no dense pure cluster exists
        points = np.array([[float(i), 0.0] for i in range(8)])
        labels = np.array([i % 2 for i in range(8)])
        data = LabeledDataset(("x1", "x2"), points, labels)
        result = discover_regions(data, "L2", DiscoveryConfig(seed=1, min_members=2))
        for region in result.regions:
            member_labels = data.labels[list(region.member_indices)]
            assert len(set(member_labels)) == 1
        assert result.singleton_count > 0

    def test_duplicate_points_conflicting_labels_terminate(self):
        points = np.zeros((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        data = LabeledDataset(("x1", "x2"), points, labels)
        result = discover_regions(data, "L1", DiscoveryConfig(seed=0))
        # all-identical points give zero radii: nothing can be emitted
        assert result.regions == []
        assert set(result.dropped_indices) == set(range(6))

    def test_partition_no_point_in_two_regions(self):
        data = blob_dataset(seed=21, centers=((0, 0), (4, 0), (0, 4)), per=15)
        result = discover_regions(data, "L1", DiscoveryConfig(seed=2))
        seen = set()
        for region in result.regions:
            overlap = seen & set(region.member_indices)
            assert not overlap
            seen.update(region.member_indices)

    def test_determinism_bit_equal(self):
        data = blob_dataset(seed=5, per=30, sigma=1.2)
        r1 = discover_regions(data, "L2", DiscoveryConfig(seed=77))
        r2 = discover_regions(data, "L2", DiscoveryConfig(seed=77))
        assert len(r1.regions) == len(r2.regions)
        for a, b in zip(r1.regions, r2.regions):
            assert a.id == b.id
            assert np.array_equal(a.centroid, b.centroid)
            assert a.radius == b.radius
            assert a.member_indices == b.member_indices

    def test_separating_excludes_foreign_points_exhaustively(self):
        data = blob_dataset(seed=8, centers=((0, 0), (1.5, 0)), per=25, sigma=0.5)
        result = discover_regions(data, "L2",
                                  DiscoveryConfig(seed=3, radius_strategy="separating"))
        assert result.regions
        for region in result.regions:
            for idx in range(len(data)):
                if data.labels[idx] != region.expected_label:
                    assert not region_membership(region, data.points[idx])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            data = LabeledDataset(("x1",), np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
            discover_regions(data, "L1", DiscoveryConfig())


class TestCsvAndJson:
    def test_csv_round_trip(self):
        data = blob_dataset(seed=2, per=5)
        text = render_dataset_csv(data, ["zero", "one"])
        back = load_dataset_csv(text, ["zero", "one"])
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.attributes == data.attributes

    def test_csv_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            load_dataset_csv("x1,label\n0.5,mystery\n", ["zero", "one"])

    @pytest.mark.parametrize("cell, message", [
        ("nan", "row 3: non-finite number"),
        ("inf", "row 3: non-finite number"),
        ("-inf", "row 3: non-finite number"),
        ("oops", "row 3: bad number"),
        ("", "row 3: bad number"),
    ])
    def test_csv_bad_number_rejected_with_row(self, cell, message):
        with pytest.raises(ValueError, match=message):
            load_dataset_csv(f"x1,x2,label\n0.5,0.5,zero\n0.5,{cell},one\n", ["zero", "one"])

    def test_csv_header_after_blank_lines(self):
        # the header is the first non-blank row, as the guard's CSV reader
        # takes it; errors still name the row by its line in the file
        back = load_dataset_csv("\nx1,label\n0.5,zero\n", ["zero", "one"])
        assert back.attributes == ("x1",)
        assert back.points.tolist() == [[0.5]] and back.labels.tolist() == [0]
        with pytest.raises(ValueError, match="row 6: bad number"):
            load_dataset_csv("\n\nx1,label\n0.5,zero\n\noops,one\n", ["zero", "one"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_centroid_rejected_naming_the_region(self, bad):
        with pytest.raises(ValueError, match="region 'r7' has a non-finite centroid"):
            Region("r7", np.array([0.1, bad]), 0.5, "Linf", 0, 1, (0,))
        obj = region_to_dict(Region("r7", np.array([0.1, 0.2]), 0.5, "Linf", 0, 1, (0,)),
                             ["a", "b"])
        obj["centroid"][0] = bad
        with pytest.raises(ValueError, match="region 'r7' has a non-finite centroid"):
            region_from_dict(obj, ["a", "b"])

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 0.0, -0.5])
    def test_non_finite_or_non_positive_radius_rejected_naming_the_region(self, bad):
        with pytest.raises(ValueError, match="region 'r7' radius must be finite and positive"):
            Region("r7", np.array([0.1, 0.2]), bad, "Linf", 0, 1, (0,))
        obj = region_to_dict(Region("r7", np.array([0.1, 0.2]), 0.5, "Linf", 0, 1, (0,)),
                             ["a", "b"])
        obj["radius"] = bad
        with pytest.raises(ValueError, match="region 'r7' radius must be finite and positive"):
            region_from_dict(obj, ["a", "b"])

    @pytest.mark.parametrize("key, bad, message", [
        ("radius", True, "region 'r7' radius must be a number, got True"),
        ("radius", "0.5", "region 'r7' radius must be a number, got '0.5'"),
        ("radius", 10**400, "region 'r7' radius 1000.* lies beyond float range"),
        ("centroid", [False, 0.2], "region 'r7' centroid entry must be a number, got False"),
        ("centroid", ["0.1", 0.2], "region 'r7' centroid entry must be a number, got '0.1'"),
        ("centroid", [[0.1], 0.2], "region 'r7' centroid entry must be a number"),
        ("centroid", {"x": 0.1}, "region 'r7' centroid must be a list of numbers"),
    ], ids=["bool", "string", "huge-int", "bool-entry", "string-entry", "list-entry",
            "not-a-list"])
    def test_non_number_geometry_rejected_naming_the_region(self, key, bad, message):
        obj = region_to_dict(Region("r7", np.array([0.1, 0.2]), 0.5, "Linf", 0, 1, (0,)),
                             ["a", "b"])
        obj[key] = bad
        with pytest.raises(ValueError, match=message):
            region_from_dict(obj, ["a", "b"])

    @pytest.mark.parametrize("metric, centroid, radius, message", [
        ("L3", [0.1, 0.2], 0.5, "region 'r7' has unknown metric 'L3'"),
        ("Linf", [[0.1, 0.2]], 0.5, "region 'r7' centroid must be a vector"),
        ("Linf", 0.1, 0.5, "region 'r7' centroid must be a vector"),
        ("Linf", [np.nan, 0.0], 0.5, "region 'r7' has a non-finite centroid"),
        ("Linf", [0.1, np.inf], 0.5, "region 'r7' has a non-finite centroid"),
        ("Linf", [0.1, 0.2], np.nan, "region 'r7' radius must be finite and positive"),
        ("Linf", [0.1, 0.2], 0.0, "region 'r7' radius must be finite and positive"),
    ], ids=["metric", "matrix", "scalar", "nan", "inf", "nan-radius", "zero-radius"])
    def test_region_and_contract_keep_one_ball_rule(self, metric, centroid, radius, message):
        centroid = np.asarray(centroid, dtype=np.float64)
        with pytest.raises(ValueError, match=message):
            Region("r7", centroid, radius, metric, 0, 1, (0,))
        with pytest.raises(ValueError, match=message):
            RegionContract("r7", centroid, radius, metric, LabelIs("a"))

    def test_region_dict_round_trip(self):
        region = Region("r001", np.array([0.1, 0.2]), 0.5, "Linf", 1, 3, (1, 4, 7))
        obj = region_to_dict(region, ["a", "b"])
        back = region_from_dict(obj, ["a", "b"])
        assert back.id == region.id
        assert np.array_equal(back.centroid, region.centroid)
        assert back.metric == region.metric
        assert back.expected_label == region.expected_label
        assert back.member_indices == region.member_indices
