import numpy as np
import pytest
from scipy import stats

from lgnsde.graphdata import (SplitSpec, build_graph, load_bundle,
                              load_cora_raw, make_splits,
                              normalized_adjacency, ood_view, save_bundle,
                              sbm_generate)


class TestNormalizedAdjacency:
    def test_single_node_self_loop_only(self):
        assert np.array_equal(normalized_adjacency([], 1).to_dense(), [[1.0]])

    def test_two_nodes_one_edge(self):
        # degrees with self-loops are both 2, so every entry is 1/2
        dense = normalized_adjacency([(0, 1)], 2).to_dense()
        assert np.abs(dense - 0.5).max() < 1e-15

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            normalized_adjacency([(0, 3)], 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_spectrum(self, seed):
        g = sbm_generate(3, 10, 0.3, 0.05, 4, 1.0, seed=seed)
        dense = g.norm_adj.to_dense()
        assert np.array_equal(dense, dense.T)
        eig = np.linalg.eigvalsh(dense)
        assert eig.min() >= -1 - 1e-12 and eig.max() <= 1 + 1e-12

    def test_positive_diagonal_and_row_sums(self):
        g = sbm_generate(2, 8, 0.4, 0.1, 3, 1.0, seed=3)
        dense = g.norm_adj.to_dense()
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

    def test_empty_edge_file_gives_identity_propagation(self, tmp_path):
        d = tmp_path / "b"
        d.mkdir()
        (d / "nodes.tsv").write_text("0\t0\t1.0\n1\t1\t2.0\n")
        (d / "edges.tsv").write_text("")
        g = load_bundle(d)
        assert np.array_equal(g.norm_adj.to_dense(), np.eye(2))

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

    def test_ood_view_relabels(self):
        g = sbm_generate(3, 10, 0.2, 0.05, 4, 1.0, seed=0)
        view, is_ood = ood_view(g, 1)
        assert view.num_classes == 2
        assert is_ood.sum() == 10
        kept = view.labels[~is_ood]
        assert set(np.unique(kept)) <= {0, 1}
