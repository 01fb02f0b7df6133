import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy.stats import rankdata

from lgnsde.cli import _write_json
from lgnsde.metrics import (aurc, binary_auroc, entropy_histogram_csv,
                            entropy_rows, evaluate, micro_auroc, midranks,
                            ood_evaluate)


class TestEntropy:
    def test_uniform_four(self):
        assert entropy_rows(np.full((1, 4), 0.25)) == pytest.approx([np.log(4)], abs=1e-12)

    def test_one_hot_zero(self):
        assert entropy_rows(np.array([[0.0, 1.0, 0.0]])) == pytest.approx([0.0], abs=1e-12)

    def test_binary_half(self):
        assert entropy_rows(np.array([[0.5, 0.5]])) == pytest.approx([np.log(2)], abs=1e-12)

    def test_rows(self):
        p = np.array([[0.25] * 4, [1.0, 0, 0, 0]])
        out = entropy_rows(p)
        assert out == pytest.approx([np.log(4), 0.0], abs=1e-12)


def pair_count_auroc(scores, labels):
    """Brute-force AUROC: fraction of (pos, neg) pairs ranked correctly,
    ties counting one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(pos) * len(neg))


class TestMidranks:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_rankdata(self, seed):
        # scipy.stats stays a test oracle only; ties are forced by drawing
        # from a few values, and the ranks must match bit for bit
        rng = np.random.Generator(np.random.PCG64(seed))
        for size in (1, 2, 17, 300):
            values = np.linspace(-1.0, 1.0, int(rng.integers(1, 12)))
            x = rng.choice(values, size=size)
            assert np.array_equal(midranks(x), rankdata(x))
        x = rng.standard_normal(50)
        assert np.array_equal(midranks(x), rankdata(x))

    def test_nan_gives_all_nan(self):
        x = np.array([0.3, np.nan, 0.1, 0.3])
        assert np.array_equal(midranks(x), rankdata(x), equal_nan=True)
        assert np.isnan(midranks(x)).all()
        assert np.isnan(binary_auroc(x, [1, 0, 1, 0]))


class TestBinaryAUROC:
    def test_perfect_separation(self):
        s = np.array([0.9, 0.8, 0.2, 0.1])
        y = np.array([1, 1, 0, 0])
        assert binary_auroc(s, y) == 1.0

    def test_reversed(self):
        s = np.array([0.1, 0.2, 0.8, 0.9])
        y = np.array([1, 1, 0, 0])
        assert binary_auroc(s, y) == 0.0

    def test_all_ties(self):
        s = np.ones(6)
        y = np.array([1, 0, 1, 0, 1, 0])
        assert binary_auroc(s, y) == 0.5

    @pytest.mark.parametrize("seed", range(10))
    def test_against_pair_count_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        scores = rng.choice(np.linspace(0, 1, 7), size=40)  # force ties
        labels = rng.integers(0, 2, size=40)
        if labels.sum() in (0, 40):
            labels[0] = 1 - labels[0]
        assert binary_auroc(scores, labels) == pytest.approx(
            pair_count_auroc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            binary_auroc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestMicroAUROC:
    def test_perfect_probs(self):
        probs = np.eye(3)[[0, 1, 2, 0]]
        labels = np.array([0, 1, 2, 0])
        assert micro_auroc(probs, labels) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_probs_near_half(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        probs = rng.dirichlet(np.ones(4), size=500)
        labels = rng.integers(0, 4, size=500)
        assert abs(micro_auroc(probs, labels) - 0.5) < 0.05

    @pytest.mark.parametrize("seed", range(8))
    def test_pooled_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(100 + seed))
        n, c = 15, 3
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        scores = probs.reshape(-1)
        onehot = np.eye(c)[labels].reshape(-1).astype(int)
        assert micro_auroc(probs, labels) == pytest.approx(
            pair_count_auroc(scores, onehot), abs=1e-12)


class TestAURC:
    def test_all_correct(self):
        assert aurc(np.array([0.9, 0.8]), np.array([True, True])) == 0.0

    def test_all_incorrect(self):
        assert aurc(np.array([0.9, 0.8]), np.array([False, False])) == 1.0

    def test_two_sample_hand_computed(self):
        # confident sample correct, shaky sample wrong:
        # coverage 1/2 -> risk 0; coverage 1 -> risk 1/2; mean = 0.25
        assert aurc(np.array([0.9, 0.6]),
                    np.array([True, False])) == pytest.approx(0.25, abs=1e-12)

    def test_confident_wrong_is_worse(self):
        good = aurc(np.array([0.9, 0.6]), np.array([True, False]))
        bad = aurc(np.array([0.9, 0.6]), np.array([False, True]))
        assert bad > good

    @pytest.mark.parametrize("seed", range(5))
    def test_brute_force_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = 12
        conf = rng.random(n)
        correct = rng.integers(0, 2, size=n).astype(bool)
        order = np.argsort(-conf, kind="stable")
        wrong = ~correct[order]
        risks = [wrong[:k].mean() for k in range(1, n + 1)]
        assert aurc(conf, correct) == pytest.approx(np.mean(risks), abs=1e-12)


class TestOODEvaluate:
    def test_perfect_entropy_split(self):
        # in-dist rows confident, OOD rows uniform
        probs = np.array([[0.98, 0.01, 0.01]] * 4 + [[1 / 3] * 3] * 4)
        is_ood = np.array([False] * 4 + [True] * 4)
        labels = np.zeros(8, dtype=int)
        rep = ood_evaluate(probs, is_ood, labels=labels)
        assert rep["auroc_ood"] == 1.0

    def test_indistinguishable_half(self):
        probs = np.full((6, 3), 1 / 3)
        is_ood = np.array([False, True] * 3)
        rep = ood_evaluate(probs, is_ood, labels=np.zeros(6, dtype=int))
        assert rep["auroc_ood"] == 0.5

    def test_six_row_brute_force(self):
        rng = np.random.Generator(np.random.PCG64(3))
        probs = rng.dirichlet(np.ones(3), size=6)
        is_ood = np.array([0, 1, 0, 1, 1, 0], dtype=bool)
        rep = ood_evaluate(probs, is_ood, labels=np.zeros(6, dtype=int))
        ent = entropy_rows(probs)
        assert rep["auroc_ood"] == pytest.approx(
            pair_count_auroc(ent, is_ood.astype(int)), abs=1e-12)

    def test_monotone_transform_invariance(self):
        # AUROC depends only on score order: sharpening all rows by the same
        # temperature preserves the entropy ordering here
        probs = np.array([[0.9, 0.1], [0.7, 0.3], [0.6, 0.4], [0.5, 0.5]])
        is_ood = np.array([False, False, True, True])
        labels = np.zeros(4, dtype=int)
        a = ood_evaluate(probs, is_ood, labels)["auroc_ood"]
        sharp = probs ** 2
        sharp /= sharp.sum(axis=1, keepdims=True)
        b = ood_evaluate(sharp, is_ood, labels)["auroc_ood"]
        assert a == b

    def test_requires_both_groups(self):
        probs = np.full((3, 2), 0.5)
        with pytest.raises(ValueError):
            ood_evaluate(probs, np.array([True, True, True]), np.zeros(3, dtype=int))


class TestEvaluateAndReports:
    def _toy(self):
        probs = np.array([[0.8, 0.1, 0.1],
                          [0.2, 0.7, 0.1],
                          [0.3, 0.3, 0.4],
                          [0.6, 0.3, 0.1]])
        labels = np.array([0, 1, 2, 1])
        return probs, labels

    def test_accuracy(self):
        probs, labels = self._toy()
        rep = evaluate(probs, labels, np.ones(4, dtype=bool))
        assert rep.accuracy == pytest.approx(0.75)

    def test_json_round_trip_sorted(self, tmp_path):
        # a report is plain data; the commands write it through one writer
        probs, labels = self._toy()
        rep = evaluate(probs, labels, np.ones(4, dtype=bool))
        text = _write_json(tmp_path / "eval.json", asdict(rep))
        assert (tmp_path / "eval.json").read_text() == text + "\n"
        obj = json.loads(text)
        assert list(obj.keys()) == sorted(obj.keys())
        assert obj["accuracy"] == pytest.approx(0.75)

    def test_histogram_counts(self, tmp_path):
        probs, _ = self._toy()
        ent = entropy_rows(probs)
        path = tmp_path / "hist.csv"
        entropy_histogram_csv(path, ent[:3], ent[3:], label_a="in", label_b="ood")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,count_in,count_ood"
        counts_in = sum(int(l.split(",")[2]) for l in lines[1:])
        counts_ood = sum(int(l.split(",")[3]) for l in lines[1:])
        assert counts_in == 3 and counts_ood == 1
