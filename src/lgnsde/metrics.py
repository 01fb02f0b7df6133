"""Classification and uncertainty metrics, plus the leave-one-class-out
OOD evaluation protocol.

Conventions: natural-log entropy; micro-AUROC pools all one-vs-rest
(score, indicator) pairs and uses midranks for ties; AURC is the mean
selective risk with confidence = max predicted probability.
"""

import csv
from dataclasses import dataclass, field

import numpy as np


def entropy_rows(probs):
    """Shannon entropy (nats) of each probability row; 0 log 0 := 0."""
    p = np.asarray(probs, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.log(p), 0.0)
    return -terms.sum(axis=1)


def midranks(x):
    """1-based ranks of x, tied entries sharing the mean of their ranks:
    ``scipy.stats.rankdata(x)`` (method "average"). All NaN if any entry
    is NaN, since a NaN has no rank."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    y = x[order]
    first = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    counts = np.diff(first, append=x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def binary_auroc(scores, flags):
    """Rank-statistic AUROC with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    pos = int(flags.sum())
    neg = flags.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("AUROC needs both positive and negative samples")
    ranks = midranks(scores)
    return float((ranks[flags].sum() - pos * (pos + 1) / 2.0) / (pos * neg))


def micro_auroc(probs, labels):
    """One-vs-rest AUROC over all n*C pooled (score, indicator) pairs."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, c = probs.shape
    if n < 1 or np.unique(labels).size < 2:
        raise ValueError("micro_auroc needs at least two distinct labels")
    onehot = np.zeros((n, c), dtype=bool)
    onehot[np.arange(n), labels] = True
    return binary_auroc(probs.reshape(-1), onehot.reshape(-1))


def aurc(confidences, correctness):
    """Area under the risk-coverage curve.

    Samples are taken in descending confidence (stable index on ties);
    risk(k) is the error rate among the top-k, and AURC averages risk(k)
    over all coverages k = 1..n.
    """
    confidences = np.asarray(confidences, dtype=np.float64)
    correctness = np.asarray(correctness, dtype=bool)
    n = confidences.size
    if n == 0:
        raise ValueError("aurc of empty input")
    order = np.argsort(-confidences, kind="stable")
    wrong = ~correctness[order]
    risks = np.cumsum(wrong) / np.arange(1, n + 1)
    return float(risks.mean())


def ood_evaluate(probs, is_ood, labels):
    """Score the OOD protocol: entropy as the OOD signal.

    `probs` are over the C-1 in-distribution classes. For AURC, an OOD
    sample always counts as incorrect; in-distribution samples count by
    their (C-1)-way correctness against `labels`.
    """
    probs = np.asarray(probs, dtype=np.float64)
    is_ood = np.asarray(is_ood, dtype=bool)
    if is_ood.all() or not is_ood.any():
        raise ValueError("need both OOD and in-distribution samples")
    ent = entropy_rows(probs)
    auroc_ood = binary_auroc(ent, is_ood)
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == np.asarray(labels)
    correct[is_ood] = False
    return {"auroc_ood": auroc_ood,
            "aurc_ood": aurc(conf, correct),
            "mean_entropy_in": float(ent[~is_ood].mean()),
            "mean_entropy_ood": float(ent[is_ood].mean())}


@dataclass
class EvalReport:
    accuracy: float
    micro_auroc: float
    aurc: float
    mean_entropy_correct: float
    mean_entropy_incorrect: float
    ood: dict = field(default=None)
    confidence_convention: str = "max_softmax"


def evaluate(probs, labels, mask):
    """EvalReport over the rows that `mask` selects."""
    mask = np.asarray(mask, dtype=bool)
    probs = np.asarray(probs, dtype=np.float64)[mask]
    labels = np.asarray(labels, dtype=np.int64)[mask]
    pred = probs.argmax(axis=1)
    correct = pred == labels
    ent = entropy_rows(probs)
    mec = float(ent[correct].mean()) if correct.any() else 0.0
    mei = float(ent[~correct].mean()) if (~correct).any() else 0.0
    return EvalReport(accuracy=float(correct.mean()),
                      micro_auroc=micro_auroc(probs, labels),
                      aurc=aurc(probs.max(axis=1), correct),
                      mean_entropy_correct=mec,
                      mean_entropy_incorrect=mei)


def entropy_histogram_csv(path, ent_a, ent_b, label_a, label_b):
    """Write paired entropy histograms over 30 equal bins (bin_left,
    bin_right, two counts)."""
    bins = 30
    ent_a = np.asarray(ent_a, dtype=np.float64)
    ent_b = np.asarray(ent_b, dtype=np.float64)
    hi = max(ent_a.max(initial=0.0), ent_b.max(initial=0.0), 1e-9)
    edges = np.linspace(0.0, hi, bins + 1)
    ca, _ = np.histogram(ent_a, bins=edges)
    cb, _ = np.histogram(ent_b, bins=edges)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_left", "bin_right", f"count_{label_a}", f"count_{label_b}"])
        for i in range(bins):
            w.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                        int(ca[i]), int(cb[i])])
