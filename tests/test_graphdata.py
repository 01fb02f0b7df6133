import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from lgnsde.graphdata import (SplitSpec, build_graph, load_bundle,
                              load_cora_raw, make_splits,
                              normalized_adjacency, ood_view, save_bundle,
                              sbm_generate)
from tests.test_autodiff import scipy_csr


class TestNormalizedAdjacency:
    def test_single_node_self_loop_only(self):
        assert np.array_equal(scipy_csr(normalized_adjacency([], 1)).toarray(), [[1.0]])

    def test_two_nodes_one_edge(self):
        # degrees with self-loops are both 2, so every entry is 1/2
        dense = scipy_csr(normalized_adjacency([(0, 1)], 2)).toarray()
        assert np.abs(dense - 0.5).max() < 1e-15

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            normalized_adjacency([(0, 3)], 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_spectrum(self, seed):
        g = sbm_generate(3, 10, 0.3, 0.05, 4, 1.0, seed=seed)
        dense = scipy_csr(g.norm_adj).toarray()
        assert np.array_equal(dense, dense.T)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() >= -1 - 1e-12 and eig.max() <= 1 + 1e-12

    def test_positive_diagonal_and_row_sums(self):
        g = sbm_generate(2, 8, 0.4, 0.1, 3, 1.0, seed=3)
        dense = scipy_csr(g.norm_adj).toarray()
        assert (np.diag(dense) > 0).all()
        sums = dense.sum(axis=1)
        assert (sums > 0).all() and (sums <= np.sqrt(g.n) + 1e-12).all()


class TestBundle:
    def test_round_trip(self, tmp_path):
        graph = build_graph(np.arange(24.0).reshape(8, 3),
                            [0, 1, 0, 1, 0, 1, 0, 1], [(0, 1), (1, 2), (3, 7)])
        graph = make_splits(graph, SplitSpec(seed=0, train_frac=0.3, val_frac=0.3))
        save_bundle(graph, tmp_path / "b")
        back = load_bundle(tmp_path / "b")
        assert np.array_equal(back.features, graph.features)
        assert np.array_equal(back.labels, graph.labels)
        assert np.array_equal(back.edges, graph.edges)
        assert np.array_equal(back.train_mask, graph.train_mask)
        assert np.array_equal(back.test_mask, graph.test_mask)

    def test_one_class_test_list_is_rejected(self, tmp_path):
        graph = sbm_generate(3, 6, 0.3, 0.03, 4, 2.0, seed=0)
        save_bundle(make_splits(graph, SplitSpec(seed=0, train_frac=0.34,
                                                 val_frac=0.33)), tmp_path / "b")
        splits_path = tmp_path / "b" / "splits.json"
        splits = json.loads(splits_path.read_text())
        splits["test"] = [i for i in splits["test"] if graph.labels[i] == 1]
        splits_path.write_text(json.dumps(splits))
        with pytest.raises(ValueError, match="the 'test' list holds fewer than two classes"):
            load_bundle(tmp_path / "b")

    def test_empty_edge_file_gives_identity_propagation(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        (d / "nodes.tsv").write_text("0\t0\t1.0\n1\t1\t2.0\n")
        (d / "edges.tsv").write_text("")
        g = load_bundle(d)
        assert np.array_equal(scipy_csr(g.norm_adj).toarray(), np.eye(2))

    def test_malformed_line_reports_number(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        (d / "nodes.tsv").write_text("0\t0\t1.0\nbroken\n")
        (d / "edges.tsv").write_text("")
        with pytest.raises(ValueError, match=":2:"):
            load_bundle(d)

    def test_inconsistent_feature_width(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        (d / "nodes.tsv").write_text("0\t0\t1.0\t2.0\n1\t0\t1.0\n")
        (d / "edges.tsv").write_text("")
        with pytest.raises(ValueError, match="width"):
            load_bundle(d)

    @pytest.mark.parametrize("blank", ["", "  ", " \t "])
    def test_blank_line_counts_no_node(self, tmp_path, blank):
        # ids count the nodes read, not the lines: after a blank line the
        # next id is 1, and an id of 2 once shifted every later node
        d = tmp_path / "b"
        d.mkdir()
        (d / "nodes.tsv").write_text(f"0\t0\t1.0\n{blank}\n1\t1\t2.0\n")
        (d / "edges.tsv").write_text(f"{blank}\n0\t1\n")
        g = load_bundle(d)
        assert g.n == 2 and np.array_equal(g.labels, [0, 1])
        assert np.array_equal(g.edges, [[0, 1]])
        (d / "nodes.tsv").write_text(f"0\t0\t1.0\n{blank}\n2\t1\t2.0\n3\t1\t3.0\n")
        with pytest.raises(ValueError, match=r"nodes.tsv:3: node ids must be 0-based contiguous$"):
            load_bundle(d)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_no_nodes_names_the_file(self, tmp_path, text):
        d = tmp_path / "b"
        d.mkdir()
        (d / "nodes.tsv").write_text(text)
        (d / "edges.tsv").write_text("")
        with pytest.raises(ValueError) as e:
            load_bundle(d)
        assert str(e.value) == f"{d / 'nodes.tsv'}: no nodes"

    def test_overlapping_split_lists(self, tmp_path):
        graph = sbm_generate(3, 6, 0.3, 0.03, 4, 2.0, seed=0)
        save_bundle(make_splits(graph, SplitSpec(seed=0, train_frac=0.34,
                                                 val_frac=0.33)), tmp_path / "b")
        splits_path = tmp_path / "b" / "splits.json"
        splits = json.loads(splits_path.read_text())
        splits["train"] += splits["test"]
        splits_path.write_text(json.dumps(splits))
        with pytest.raises(ValueError, match=f"node {min(splits['test'])} is in both "
                           "the 'train' and the 'test' list"):
            load_bundle(tmp_path / "b")


class TestCoraRaw:
    def _write(self, tmp_path, content, cites):
        c = tmp_path / "x.content"
        e = tmp_path / "x.cites"
        c.write_text(content)
        e.write_text(cites)
        return c, e

    def test_string_ids_and_labels(self, tmp_path):
        content = ("paperA\t1\t0\t1\tml\n"
                   "paperB\t0\t1\t0\tdb\n"
                   "paperC\t1\t1\t0\tml\n")
        cites = "paperA\tpaperB\npaperC\tpaperA\n"
        g = load_cora_raw(*self._write(tmp_path, content, cites))
        assert (g.n, g.d_in, g.num_classes) == (3, 3, 2)
        assert len(g.edges) == 2

    def test_unknown_endpoints_dropped_with_warning(self, tmp_path):
        content = "a\t1\tml\nb\t0\tdb\n"
        cites = "a\tb\na\tmissing\nghost\tb\n"
        with pytest.warns(UserWarning, match="dropped 2"):
            g = load_cora_raw(*self._write(tmp_path, content, cites))
        assert len(g.edges) == 1

    def test_bad_feature_value(self, tmp_path):
        content = "a\tnotanumber\tml\n"
        with pytest.raises(ValueError, match=":1:"):
            load_cora_raw(*self._write(tmp_path, content, ""))

    @pytest.mark.parametrize("content", ["", "\n \t\n"])
    def test_no_nodes_names_the_file(self, tmp_path, content):
        with pytest.raises(ValueError) as e:
            load_cora_raw(*self._write(tmp_path, content, ""))
        assert str(e.value) == f"{tmp_path / 'x.content'}: no nodes"

    def test_repeated_paper_id(self, tmp_path):
        # the citation once joined only the second 'a', orphaning node 0
        content = "a\t1\tml\nb\t0\tdb\na\t1\tml\n"
        with pytest.raises(ValueError) as e:
            load_cora_raw(*self._write(tmp_path, content, "a\tb\n"))
        assert str(e.value) == f"{tmp_path / 'x.content'}:3: paper id 'a' is already on line 1"


def sbm_one_shot(classes, nodes_per_class, p_in, p_out, feature_dim, feature_gap, seed):
    """The generator drawn over all n(n-1)/2 pairs at once, O(n^2) memory:
    the reference that ``sbm_generate`` must reproduce byte for byte."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = classes * nodes_per_class
    labels = np.repeat(np.arange(classes), nodes_per_class)
    means = np.zeros((classes, feature_dim))
    for c in range(classes):
        means[c, c % feature_dim] = feature_gap
    features = means[labels] + rng.standard_normal((n, feature_dim))
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.size) < probs
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    return build_graph(features, labels, edges, num_classes=classes)


class TestSBM:
    def test_no_edges_when_probs_zero(self):
        g = sbm_generate(2, 5, 0.0, 0.0, 3, 1.0, seed=0)
        assert len(g.edges) == 0

    def test_deterministic_under_seed(self):
        a = sbm_generate(3, 7, 0.3, 0.1, 4, 2.0, seed=11)
        b = sbm_generate(3, 7, 0.3, 0.1, 4, 2.0, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.edges, b.edges)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sbm_generate(2, 0, 0.1, 0.0, 2, 1.0, seed=0)
        with pytest.raises(ValueError):
            sbm_generate(2, 5, 0.1, 0.5, 2, 1.0, seed=0)

    # nan and inf once passed the sign check and were blamed on node 0's
    # feature, three calls later
    @pytest.mark.parametrize("gap", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_gap_is_rejected(self, gap):
        with pytest.raises(ValueError, match=f"^feature_gap must be finite and >= 0, got {gap}$"):
            sbm_generate(2, 3, 0.5, 0.1, 2, gap, seed=0)

    def test_zero_gap_means_statistically_identical(self):
        # two-sample t-test at alpha=0.01 should reject ~1% of the time
        rejections = 0
        for seed in range(100):
            g = sbm_generate(2, 30, 0.0, 0.0, 2, 0.0, seed=seed)
            a = g.features[g.labels == 0, 0]
            b = g.features[g.labels == 1, 0]
            if stats.ttest_ind(a, b).pvalue < 0.01:
                rejections += 1
        assert rejections <= 5

    def test_gap_separates_means(self):
        g = sbm_generate(2, 200, 0.0, 0.0, 4, 3.0, seed=0)
        m0 = g.features[g.labels == 0].mean(axis=0)
        m1 = g.features[g.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) > 2.0

    @pytest.mark.parametrize("args", [
        (3, 1, 0.5, 0.2, 4, 2.0, 0),           # one node per class
        (3, 6, 1.0, 1.0, 4, 2.0, 1),           # every pair an edge
        (3, 6, 0.0, 0.0, 4, 2.0, 2),           # no edge
        (5, 4, 0.4, 0.1, 2, 1.5, 3),           # feature_dim < classes: c % d wraps
        (3, 8, 0.4, 0.1, 5, 0.0, 4),           # feature_gap = 0
        (7, 120, 0.05, 0.005, 16, 2.0, 0),
        (7, 120, 0.05, 0.005, 16, 2.0, 1),
        (7, 120, 0.05, 0.005, 16, 2.0, 2),
    ])
    def test_bytes_equal_the_one_shot_draw(self, args):
        got, ref = sbm_generate(*args), sbm_one_shot(*args)
        assert got.num_classes == ref.num_classes
        for name in ("features", "labels", "edges"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        for name in ("data", "indices", "indptr"):
            a, b = (getattr(scipy_csr(g.norm_adj), name) for g in (got, ref))
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_peak_memory_is_linear_in_n(self):
        # the one-shot draw held all 979,300 pairs' indices, labels, coins
        # and probabilities (31 MB here); row by row the peak is the
        # features plus O(n) scratch and the edges
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = sbm_generate(7, 200, 0.02, 0.001, 16, 2.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= g.features.nbytes + 4 * 2**20, peak


class TestSplits:
    def test_ood_class_excluded_from_train(self):
        g = sbm_generate(3, 20, 0.2, 0.05, 4, 1.0, seed=0)
        g = make_splits(g, SplitSpec(seed=0, train_frac=0.2, val_frac=0.2,
                                     ood_class=2))
        assert not np.any(g.train_mask & (g.labels == 2))
        assert g.train_mask.any()

    def test_per_class_counts(self):
        g = sbm_generate(4, 100, 0.1, 0.02, 4, 1.0, seed=0)
        g = make_splits(g, SplitSpec(seed=0, train_per_class=20,
                                     val_count=50, test_count=100))
        assert g.train_mask.sum() == 80
        assert g.val_mask.sum() == 50
        assert g.test_mask.sum() == 100
        for c in range(4):
            assert (g.train_mask & (g.labels == c)).sum() == 20

    def test_masks_disjoint(self):
        g = sbm_generate(3, 30, 0.2, 0.05, 4, 1.0, seed=5)
        g = make_splits(g, SplitSpec(seed=5, train_frac=0.1, val_frac=0.1))
        assert not np.any(g.train_mask & g.val_mask)
        assert not np.any(g.train_mask & g.test_mask)
        assert not np.any(g.val_mask & g.test_mask)

    def test_identical_seeds_identical_masks(self):
        g = sbm_generate(3, 30, 0.2, 0.05, 4, 1.0, seed=5)
        a = make_splits(g, SplitSpec(seed=9, train_frac=0.1, val_frac=0.1))
        b = make_splits(g, SplitSpec(seed=9, train_frac=0.1, val_frac=0.1))
        assert np.array_equal(a.train_mask, b.train_mask)
        assert np.array_equal(a.val_mask, b.val_mask)

    def test_class_too_small(self):
        g = sbm_generate(2, 5, 0.1, 0.0, 2, 1.0, seed=0)
        with pytest.raises(ValueError, match="class"):
            make_splits(g, SplitSpec(seed=0, train_per_class=10))

    def test_one_class_test_mask_is_rejected(self):
        g = sbm_generate(3, 10, 0.3, 0.03, 4, 2.0, seed=0)
        with pytest.raises(ValueError, match="test mask holds fewer than two classes"):
            make_splits(g, SplitSpec(seed=0, train_per_class=3, val_count=5,
                                     test_count=1))

    def test_ood_view_keeps_held_out_nodes_out_of_validation(self):
        g = sbm_generate(3, 20, 0.2, 0.05, 4, 1.0, seed=0)
        g = make_splits(g, SplitSpec(seed=0, train_frac=0.3, val_frac=0.3,
                                     ood_class=1))
        view, is_ood = ood_view(g, 1)
        assert (g.val_mask & is_ood).any()
        assert np.array_equal(view.val_mask, g.val_mask & ~is_ood)
        assert np.array_equal(view.train_mask, g.train_mask)
        assert np.array_equal(view.test_mask, g.test_mask)
        assert (view.test_mask & is_ood).any()

    def test_ood_view_drops_held_out_nodes_from_a_given_train_mask(self):
        # a bundle's split, made without ood_class, trains the held-out class
        g = sbm_generate(3, 10, 0.3, 0.03, 4, 2.0, seed=0)
        g = make_splits(g, SplitSpec(seed=0, train_frac=0.3, val_frac=0.3))
        view, is_ood = ood_view(g, 2)
        assert (g.train_mask & is_ood).sum() == 3
        assert not (view.train_mask & is_ood).any()
        assert np.array_equal(view.train_mask, g.train_mask & ~is_ood)

    @pytest.mark.parametrize("mask, keep, message", [
        ("train_mask", "ood", "every training node is in held-out class 1"),
        ("val_mask", "ood", "every validation node is in held-out class 1"),
        ("test_mask", "in", "no test node is in held-out class 1"),
        ("test_mask", "ood+2", "in-distribution test mask holds fewer than two"),
    ], ids=["all-train-held-out", "all-val-held-out", "no-held-out-test",
            "one-in-test-class"])
    def test_ood_view_rejects_split_it_cannot_score(self, mask, keep, message):
        g = sbm_generate(3, 20, 0.2, 0.05, 4, 1.0, seed=0)
        g = make_splits(g, SplitSpec(seed=0, train_frac=0.3, val_frac=0.3,
                                     ood_class=1))
        kept = {"ood": g.labels == 1, "in": g.labels != 1,
                "ood+2": g.labels != 0}[keep]
        g = replace(g, **{mask: getattr(g, mask) & kept})
        with pytest.raises(ValueError, match=message):
            ood_view(g, 1)

    def test_ood_view_relabels(self):
        g = sbm_generate(3, 10, 0.2, 0.05, 4, 1.0, seed=0)
        view, is_ood = ood_view(g, 1)
        assert view.num_classes == 2
        assert is_ood.sum() == 10
        kept = view.labels[~is_ood]
        assert set(np.unique(kept)) <= {0, 1}
