"""Graph container, normalized propagation operator, loaders and splits.

Supported sources: a simple on-disk bundle (nodes.tsv / edges.tsv /
optional splits.json), the raw Cora citation files (*.content / *.cites),
and a stochastic-block-model generator for synthetic experiments.
"""

import json
import os
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import SparseMatrix


@dataclass
class Graph:
    """Immutable node-classification graph with a normalized adjacency."""

    n: int
    d_in: int
    features: np.ndarray            # n x d_in
    labels: np.ndarray              # n, int class indices in [0, num_classes)
    num_classes: int
    edges: np.ndarray               # E x 2 undirected pairs, src < dst, no self-edges
    norm_adj: SparseMatrix          # n x n, D^{-1/2} (A+I) D^{-1/2}
    train_mask: np.ndarray = field(default=None)
    val_mask: np.ndarray = field(default=None)
    test_mask: np.ndarray = field(default=None)


@dataclass
class SplitSpec:
    """How to carve train/val/test masks out of a graph.

    Either `train_per_class` with fixed val/test counts (citation-network
    convention) or fractional `train_frac`/`val_frac` (rest is test).
    An `ood_class` is excluded from the train mask entirely.
    """

    seed: int = 0
    train_per_class: int = None
    val_count: int = 500
    test_count: int = 1000
    train_frac: float = None
    val_frac: float = None
    ood_class: int = None


def normalized_adjacency(edges, n):
    """Symmetric normalization with self-loops: D^{-1/2} (A+I) D^{-1/2}."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        raise ValueError(f"edge endpoint out of range for n={n}")
    rows = np.concatenate([edges[:, 0], edges[:, 1], np.arange(n)])
    cols = np.concatenate([edges[:, 1], edges[:, 0], np.arange(n)])
    deg = np.bincount(rows, minlength=n).astype(np.float64)
    dinv = 1.0 / np.sqrt(deg)
    vals = dinv[rows] * dinv[cols]
    return SparseMatrix(rows, cols, vals, (n, n))


def _canonical_edges(pairs, n):
    """Dedupe, drop self-edges, store each undirected pair once as (min, max)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size == 0:
        return pairs
    if pairs.min() < 0 or pairs.max() >= n:
        raise ValueError(f"edge endpoint out of range for n={n}")
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def build_graph(features, labels, edges, num_classes=None, where="labels"):
    """A Graph over the nodes' features, labels and undirected edges.

    The labels must be exactly the classes 0..C-1, each with a node, where
    C is `num_classes` or, when it is None, the largest label plus one; a
    label outside them, or a class with no node, is a ValueError that
    starts with `where` (the file a loader read the labels from).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n, d_in = features.shape
    bad = np.nonzero(~np.isfinite(features).all(axis=1))[0]
    if bad.size:
        raise ValueError(f"node {bad[0]} has a non-finite feature")
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    # no num_classes-sized array, so a huge label fails at once
    out = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if out.size:
        raise ValueError(f"{where}: node {out[0]} has label {labels[out[0]]}, "
                         f"outside 0..{num_classes - 1}")
    present = np.unique(labels)
    if present.size < num_classes:
        gaps = np.flatnonzero(present != np.arange(present.size))
        missing = gaps[0] if gaps.size else present.size
        raise ValueError(f"{where}: class {missing} has no node "
                         f"(the labels must cover 0..{num_classes - 1})")
    edges = _canonical_edges(edges, n)
    return Graph(n=n, d_in=d_in, features=features, labels=labels,
                 num_classes=num_classes, edges=edges,
                 norm_adj=normalized_adjacency(edges, n))


# ----------------------------------------------------------------- bundle

def save_bundle(graph, path):
    """Write nodes.tsv / edges.tsv (and splits.json if masks are set)."""
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "nodes.tsv"), "w") as f:
        for i in range(graph.n):
            feats = "\t".join(repr(float(v)) for v in graph.features[i])
            f.write(f"{i}\t{int(graph.labels[i])}\t{feats}\n")
    with open(os.path.join(path, "edges.tsv"), "w") as f:
        for s, d in graph.edges:
            f.write(f"{int(s)}\t{int(d)}\n")
    if graph.train_mask is not None:
        splits = {k: np.nonzero(m)[0].tolist() for k, m in
                  [("train", graph.train_mask), ("val", graph.val_mask),
                   ("test", graph.test_mask)]}
        with open(os.path.join(path, "splits.json"), "w") as f:
            json.dump(splits, f, sort_keys=True)


def _read_lines(path, parse):
    """Call parse(lineno, fields) on each line of the text file at `path`
    that is not blank, in order: the line's surrounding whitespace is
    stripped and the rest split on tabs. A ValueError that parse raises
    comes back as one `path:lineno: ...` error."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            if line.strip():
                try:
                    parse(lineno, line.strip().split("\t"))
                except ValueError as e:
                    raise ValueError(f"{path}:{lineno}: {e}") from None


def _pair(fields, expected):
    if len(fields) != 2:
        raise ValueError(f"expected {expected!r}")
    return fields


def load_bundle(path):
    """Load a graph bundle directory; see save_bundle for the layout."""
    nodes_path = os.path.join(path, "nodes.tsv")
    feats, labels, edges = [], [], []

    def node(lineno, fields):
        if len(fields) < 3:
            raise ValueError("expected id, label, features")
        nid, label, row = int(fields[0]), int(fields[1]), [float(v) for v in fields[2:]]
        if nid != len(labels):
            raise ValueError("node ids must be 0-based contiguous")
        if feats and len(row) != len(feats[0]):
            raise ValueError(f"feature width {len(row)} != {len(feats[0])}")
        labels.append(label)
        feats.append(row)

    _read_lines(nodes_path, node)
    if not labels:
        raise ValueError(f"{nodes_path}: no nodes")
    _read_lines(os.path.join(path, "edges.tsv"), lambda lineno, fields: edges.append(
        [int(v) for v in _pair(fields, "src<TAB>dst")]))
    n = len(labels)
    graph = build_graph(np.asarray(feats, dtype=np.float64).reshape(n, -1),
                        labels, edges, where=nodes_path)
    splits_path = os.path.join(path, "splits.json")
    if os.path.exists(splits_path):
        with open(splits_path) as f:
            try:
                splits = json.load(f)
            except ValueError as e:
                raise ValueError(f"{splits_path}: {e}") from None
        masks = {}
        for key in ("train", "val", "test"):
            idx = splits.get(key) if isinstance(splits, dict) else None
            if not isinstance(idx, list):
                raise ValueError(f"{splits_path}: no {key!r} list of node indices")
            if not idx:
                raise ValueError(f"{splits_path}: the {key!r} list is empty")
            for i in idx:
                if type(i) is not int or not 0 <= i < n:
                    raise ValueError(f"{splits_path}: {key!r} index {i!r} is not "
                                     f"a node in 0..{n - 1}")
            m = np.zeros(n, dtype=bool)
            m[idx] = True
            masks[key] = m
        for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
            shared = np.flatnonzero(masks[a] & masks[b])
            if shared.size:
                raise ValueError(f"{splits_path}: node {shared[0]} is in both the "
                                 f"{a!r} and the {b!r} list")
        _check_scorable(graph.labels[masks["test"]], f"{splits_path}: the 'test' list")
        graph = replace(graph, train_mask=masks["train"],
                        val_mask=masks["val"], test_mask=masks["test"])
    return graph


def load_cora_raw(content_path, cites_path):
    """Parse the raw Cora citation files into a Graph.

    String node ids are remapped to dense 0-based indices in file order; a
    repeated id is a ValueError, and citations whose endpoints are missing
    from the content file are dropped with a warning.
    """
    line_of, feats, label_names, edges = {}, [], [], []

    def paper(lineno, fields):
        if len(fields) < 3:
            raise ValueError("expected id, features, label")
        if fields[0] in line_of:
            raise ValueError(f"paper id {fields[0]!r} is already on line "
                             f"{line_of[fields[0]]}")
        feats.append([float(v) for v in fields[1:-1]])
        if len(feats[-1]) != len(feats[0]):
            raise ValueError("inconsistent feature width")
        line_of[fields[0]] = lineno
        label_names.append(fields[-1])

    _read_lines(content_path, paper)
    if not feats:
        raise ValueError(f"{content_path}: no nodes")
    index = {nid: i for i, nid in enumerate(line_of)}
    classes = sorted(set(label_names))
    labels = np.array([classes.index(c) for c in label_names], dtype=np.int64)
    _read_lines(cites_path, lambda lineno, fields: edges.append(
        [index.get(v) for v in _pair(fields, "cited<TAB>citing")]))
    kept = [e for e in edges if None not in e]
    if len(kept) < len(edges):
        warnings.warn(f"dropped {len(edges) - len(kept)} citations with unknown endpoints")
    return build_graph(np.asarray(feats, dtype=np.float64), labels, kept,
                       num_classes=len(classes))


# -------------------------------------------------------------- synthetic

def sbm_generate(classes, nodes_per_class, p_in, p_out, feature_dim,
                 feature_gap, seed):
    """Stochastic-block-model graph with Gaussian class-mean features.

    Class c gets mean `feature_gap` on coordinate c (mod feature_dim) and
    unit-variance noise everywhere; edges are Bernoulli(p_in) within a class
    and Bernoulli(p_out) across classes.

    The features are one ``standard_normal((n, feature_dim))`` draw, then
    the edge coins are drawn one row of the upper triangle at a time: row i
    draws ``random(n - 1 - i)`` for its pairs (i, j > i). PCG64 takes one
    64-bit draw per double and buffers nothing, so this is the same stream,
    and the same graph, as one ``random(n (n - 1) / 2)`` draw over all
    pairs. Memory is O(n feature_dim) plus the edges; time is O(n^2) draws.
    """
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if nodes_per_class < 1:
        raise ValueError("nodes_per_class must be >= 1")
    n = classes * nodes_per_class
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"classes * nodes_per_class = {n} is past the largest array index")
    if feature_dim < 1:
        raise ValueError(f"feature_dim must be >= 1, got {feature_dim}")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("need 0 <= p_out <= p_in <= 1")
    if feature_gap < 0:
        raise ValueError("feature_gap must be >= 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    labels = np.repeat(np.arange(classes), nodes_per_class)
    means = np.zeros((classes, feature_dim))
    for c in range(classes):
        means[c, c % feature_dim] = feature_gap
    features = rng.standard_normal((n, feature_dim))
    # the rows are class-contiguous; z + m is bitwise m + z, also for -0.0
    features.reshape(classes, nodes_per_class, feature_dim)[...] += means[:, None]
    hits = []
    for i in range(n - 1):
        probs = np.where(labels[i + 1:] == labels[i], p_in, p_out)
        hits.append(np.flatnonzero(rng.random(n - 1 - i) < probs) + (i + 1))
    src = np.repeat(np.arange(n - 1), [h.size for h in hits])
    edges = np.stack([src, np.concatenate(hits)], axis=1)
    return build_graph(features, labels, edges, num_classes=classes)


# ----------------------------------------------------------------- splits

def make_splits(graph, spec):
    """Return a copy of the graph with stratified train/val/test masks."""
    if spec.train_per_class is not None and spec.train_per_class < 1:
        raise ValueError(f"train_per_class must be >= 1, got {spec.train_per_class}")
    for name in ("val_count", "test_count"):
        if getattr(spec, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {getattr(spec, name)}")
    for name in ("train_frac", "val_frac"):
        frac = getattr(spec, name)
        if frac is not None and not 0.0 < frac < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {frac}")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    n = graph.n
    order = rng.permutation(n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    if spec.ood_class is not None and not (0 <= spec.ood_class < graph.num_classes):
        raise ValueError(f"ood_class {spec.ood_class} outside [0,{graph.num_classes})")

    if spec.train_per_class is not None:
        for c in range(graph.num_classes):
            if spec.ood_class is not None and c == spec.ood_class:
                continue
            members = order[graph.labels[order] == c]
            if members.size < spec.train_per_class:
                raise ValueError(f"class {c} has only {members.size} nodes, "
                                 f"need {spec.train_per_class} for training")
            train[members[:spec.train_per_class]] = True
        rest = order[~train[order]]
        val[rest[:spec.val_count]] = True
        test[rest[spec.val_count:spec.val_count + spec.test_count]] = True
    else:
        tf = 0.1 if spec.train_frac is None else spec.train_frac
        vf = 0.1 if spec.val_frac is None else spec.val_frac
        for c in range(graph.num_classes):
            members = order[graph.labels[order] == c]
            if c == spec.ood_class:
                k = members.size // 2
                val[members[:k]] = True
                test[members[k:]] = True
                continue
            n_tr = max(1, int(round(tf * members.size)))
            n_va = max(1, int(round(vf * members.size)))
            if members.size < n_tr + n_va + 1:
                raise ValueError(f"class {c} too small for the requested split")
            train[members[:n_tr]] = True
            val[members[n_tr:n_tr + n_va]] = True
            test[members[n_tr + n_va:]] = True
    for name, mask in (("train", train), ("val", val), ("test", test)):
        if not mask.any():
            raise ValueError(f"empty {name} mask")
    _check_scorable(graph.labels[test], "the test mask")
    return replace(graph, train_mask=train, val_mask=val, test_mask=test)


def _check_scorable(test_labels, where):
    """A test split is scored by micro-AUROC, which needs two classes."""
    if np.unique(test_labels).size < 2:
        raise ValueError(f"{where} holds fewer than two classes, so it cannot be scored")


def ood_view(graph, ood_class):
    """Relabel for the leave-one-class-out protocol.

    Returns (graph over C-1 classes, is_ood flags). Held-out nodes keep a
    placeholder label 0, are scored only through the flags and leave the
    training and validation masks, whichever split made them; a split that
    then cannot train, validate or score raises ValueError.
    """
    if not (0 <= ood_class < graph.num_classes):
        raise ValueError(f"ood_class {ood_class} outside [0,{graph.num_classes})")
    remap = np.full(graph.num_classes, -1, dtype=np.int64)
    kept = [c for c in range(graph.num_classes) if c != ood_class]
    for new, old in enumerate(kept):
        remap[old] = new
    is_ood = graph.labels == ood_class
    labels = np.where(is_ood, 0, remap[graph.labels])
    if graph.val_mask is not None:
        graph = replace(graph, train_mask=graph.train_mask & ~is_ood,
                        val_mask=graph.val_mask & ~is_ood)
        if not graph.train_mask.any():
            raise ValueError(f"every training node is in held-out class {ood_class}")
        if not graph.val_mask.any():
            raise ValueError(f"every validation node is in held-out class {ood_class}")
        if not (graph.test_mask & is_ood).any():
            raise ValueError(f"no test node is in held-out class {ood_class}")
        _check_scorable(labels[graph.test_mask & ~is_ood], "the in-distribution test mask")
    return replace(graph, labels=labels, num_classes=graph.num_classes - 1), is_ood
