"""Minimal dense-tensor reverse-mode autodiff on numpy, plus Adam.

Everything is float64. The tape is define-by-run: each op that has an
input needing a gradient gives its output a tape node, and
``backward(loss)`` replays the nodes in reverse creation order: every node
carries a sequence number, and a node that feeds several ops receives
their gradients newest first, so a node with consumers c1, c2, c3 (made in
that order) holds (g3 + g2) + g1. The switch that ``no_grad`` flips is a
``contextvars.ContextVar``, so a ``no_grad`` block in one thread leaves
the tape on in every other. Tensors and the graphs they form are meant to
be confined to a single thread; parameter values may be shared read-only.

A Tensor holds its data and its node; the node holds the gradient, the
backward closure and the nodes of the op's inputs, never a Tensor. Each
closure keeps only the arrays its backward reads (tanh its output, matmul
the other operand, mul its operands, dropout its boolean mask; add, sub,
scale, concat_cols, spmm and tensor_sum only shapes), so an intermediate
that no backward reads is freed as soon as the forward drops its Tensor.
``backward`` releases each interior node's gradient, closure and parents
right after using them, so the tape shrinks as the pass runs and a second
``backward`` through the same graph raises RuntimeError. Leaves keep their
gradients. The first gradient a node receives is kept without a copy: no
op writes a gradient in place.

``checkpoint(fn, inputs, rng)`` trades memory for time: it records a node
that keeps only the inputs' arrays, and backward re-runs `fn` on a nested
tape, with `rng` (a generator or a tuple of them) put back where it stood
at the call so dropout draws the same mask and a solver step the same
Brownian increment. Each output of `fn` gets its own node on the one
recompute node. The nested tape keeps the forward's creation order, so
when each input feeds one op in `fn` the gradients are bitwise those of
calling `fn` on the tape. The nested pass runs through the private
``_backward``, so ``backward`` is called once per loss.
"""

import contextlib
import contextvars
import functools
import importlib.machinery
import importlib.util
import itertools
import os
import sys

import numpy as np

_grad_enabled = contextvars.ContextVar("lgnsde_grad_enabled", default=True)
_sequence = itertools.count()


@contextlib.contextmanager
def _recording(enabled):
    token = _grad_enabled.set(enabled)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def no_grad():
    """Disable tape recording of ops inside the block (pure inference). A
    leaf made there with requires_grad still gets its node."""
    return _recording(False)


def _released(g):
    raise RuntimeError("backward through a tape already released")


class _Node:
    """A tape entry: the gradient so far, the backward closure (None for a
    leaf), the input nodes (None for an input that needs no gradient) and
    its place in creation order. The closure maps the output gradient to
    one gradient per input, None for an input that gets none."""

    __slots__ = ("grad", "backward", "parents", "seq")

    def __init__(self, backward=None, parents=()):
        self.grad = None
        self.backward = backward
        self.parents = parents
        self.seq = next(_sequence)

    def accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g


class Tensor:
    """Dense float64 array participating in reverse-mode differentiation."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self._node = _Node() if requires_grad else None

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, g):
        self._node.grad = g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; the real work is in the module-level ops
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __mul__(self, other):
        if np.isscalar(other):
            return scale(self, float(other))
        return mul(self, _as_tensor(other))

    def __neg__(self):
        return scale(self, -1.0)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward_fn):
    """Wrap an op result; record a node only when an input needs a gradient."""
    out = Tensor(data)
    if _grad_enabled.get():
        nodes = tuple(p._node for p in parents)
        if any(n is not None for n in nodes):
            out._node = _Node(backward_fn, nodes)
    return out


# ---------------------------------------------------------------- core ops
# A closure returns one gradient per input, in input order; backward drops
# those of inputs that need none, and the closure skips computing them.

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data
    ra, rb = a.requires_grad, b.requires_grad
    a_data = a.data if rb else None
    b_data = b.data if ra else None

    def _bwd(g):
        return (g @ b_data.T if ra else None, a_data.T @ g if rb else None)

    return _make(out_data, (a, b), _bwd)


def add(a, b):
    """Elementwise add; also supports a row-broadcast bias (1,d) or (d,)
    on an (n, d) `a`."""
    shape, b_shape = a.data.shape, b.data.shape
    bias_like = b_shape != shape
    if bias_like and (len(shape) != 2 or b_shape not in ((shape[1],), (1, shape[1]))):
        raise ValueError(f"add shape mismatch: {shape} + {b_shape}")
    out_data = a.data + b.data
    rb = b.requires_grad

    def _bwd(g):
        return g, (g.sum(axis=0).reshape(b_shape) if bias_like and rb else g)

    return _make(out_data, (a, b), _bwd)


def sub(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} - {b.data.shape}")
    out_data = a.data - b.data
    rb = b.requires_grad

    def _bwd(g):
        return g, (-g if rb else None)

    return _make(out_data, (a, b), _bwd)


def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} * {b.data.shape}")
    out_data = a.data * b.data
    ra, rb = a.requires_grad, b.requires_grad
    a_data = a.data if rb else None
    b_data = b.data if ra else None

    def _bwd(g):
        return (g * b_data if ra else None, g * a_data if rb else None)

    return _make(out_data, (a, b), _bwd)


def scale(a, c):
    c = float(c)
    out_data = a.data * c
    return _make(out_data, (a,), lambda g: (g * c,))


def tanh(a):
    out_data = np.tanh(a.data)
    return _make(out_data, (a,), lambda g: (g * (1.0 - out_data * out_data),))


def relu(a):
    out_data = np.maximum(a.data, 0.0)
    return _make(out_data, (a,), lambda g: (g * (out_data > 0.0),))


def concat_cols(a, b):
    if a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat_cols row mismatch: {a.data.shape} | {b.data.shape}")
    out_data = np.hstack([a.data, b.data])
    split = a.data.shape[1]
    return _make(out_data, (a, b), lambda g: (g[:, :split], g[:, split:]))


def slice_rows(a, idx):
    idx = np.asarray(idx)
    out_data = a.data[idx]
    shape = a.data.shape

    def _bwd(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return (ga,)

    return _make(out_data, (a,), _bwd)


def dropout(a, p, rng=None):
    """Inverted dropout: with an rng (training), zero each entry with
    probability p and scale survivors by 1/(1-p); without one, identity."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0,1), got {p}")
    if rng is None or p == 0.0:
        return a
    # the tape keeps a bool mask, an eighth of the float one; both passes
    # scale it to the same float mask on the fly
    keep = rng.random(a.data.shape) >= p
    q = 1.0 - p
    return _make(a.data * (keep / q), (a,), lambda g: (g * (keep / q),))


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax_rows(a):
    s = _softmax(a.data)

    def _bwd(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner),)

    return _make(s, (a,), _bwd)


def log_softmax_rows(a):
    out_data = _log_softmax(a.data)

    def _bwd(g):
        s = np.exp(out_data)
        return (g - s * g.sum(axis=1, keepdims=True),)

    return _make(out_data, (a,), _bwd)


def masked_cross_entropy(logits, labels, mask):
    """Mean negative log-likelihood over the rows selected by `mask`."""
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    rows = np.nonzero(mask)[0]
    if rows.size == 0:
        raise ValueError("masked_cross_entropy: mask selects no rows")
    logp = _log_softmax(logits.data)
    nll = -logp[rows, labels[rows]].mean()

    def _bwd(g):
        gl = np.zeros(logp.shape)
        s = np.exp(logp[rows])
        s[np.arange(rows.size), labels[rows]] -= 1.0
        gl[rows] = s / rows.size
        return (float(g) * gl,)

    return _make(nll, (logits,), _bwd)


def tensor_sum(a):
    shape = a.data.shape
    return _make(a.data.sum(), (a,), lambda g: (np.full(shape, float(g)),))


def backward(loss):
    """Reverse pass from a scalar loss; accumulates into leaf .grad fields
    and releases every interior node as soon as it has been used."""
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss._node is not None:
        _backward([(loss._node, np.ones_like(loss.data))])


def _backward(seeds):
    """The reverse pass of ``backward``, seeded with each (node, gradient)
    pair of `seeds`; ``checkpoint`` runs its nested passes through it too.
    The nodes run newest first, so every gradient is summed over its
    consumers in reverse creation order."""
    nodes = set()
    stack = [node for node, _ in seeds]
    while stack:
        node = stack.pop()
        if node not in nodes:
            nodes.add(node)
            stack.extend(p for p in node.parents if p is not None)
    for node, g in seeds:
        node.accumulate(g)
    for node in sorted(nodes, key=lambda n: n.seq, reverse=True):
        if node.backward is None:
            continue
        for p, g in zip(node.parents, node.backward(node.grad)):
            if p is not None and g is not None:
                p.accumulate(g)
        node.grad, node.backward, node.parents = None, _released, ()


def checkpoint(fn, inputs, rng=None):
    """``fn(*inputs)`` on the tape through nodes that keep only the inputs'
    arrays.

    The forward runs `fn` with the tape off. `fn` returns a Tensor or a
    tuple of Tensors, and each output gets a node whose one parent is the
    recompute node. Backward rebuilds the inputs as fresh leaves, puts
    `rng` (the generator `fn` draws from, or a tuple of them, if any) back
    in its state at the call, re-runs `fn` once with the tape on, returns
    each generator to where it was and back-propagates the outputs'
    gradients through that sub-tape (an output that got none is left out):
    the parameters `fn` closes over get their gradients there, the inputs
    get theirs from the recompute node. The recompute repeats the
    forward's float ops in the same order. An input's gradient is summed
    over `fn`'s ops before it joins those of later ops, so every gradient
    is bitwise the one of calling `fn` on the tape when each input feeds
    one op in `fn` or no op after the call (as a solver step's state
    does). With the tape off, a plain call.
    """
    if not _grad_enabled.get():
        return fn(*inputs)
    rngs = rng if isinstance(rng, tuple) else () if rng is None else (rng,)
    states = [r.bit_generator.state for r in rngs]
    with no_grad():
        result = fn(*inputs)
    single = isinstance(result, Tensor)
    # fresh Tensors: fn may return one of its inputs
    outs = [Tensor(r.data) for r in ((result,) if single else result)]
    grads = [None] * len(outs)
    arrays = [(x.data, x.requires_grad) for x in inputs]

    def _bwd(g):
        now = [r.bit_generator.state for r in rngs]
        for r, state in zip(rngs, states):
            r.bit_generator.state = state
        try:
            with _recording(True):
                leaves = [Tensor(data, requires_grad=rg) for data, rg in arrays]
                sub = fn(*leaves)
        finally:
            for r, state in zip(rngs, now):
                r.bit_generator.state = state
        _backward([(s._node, gs) for s, gs in zip((sub,) if single else sub, grads)
                   if s._node is not None and gs is not None])
        return tuple(leaf.grad for leaf in leaves)

    recompute = _Node(_bwd, tuple(x._node for x in inputs))
    for i, out in enumerate(outs):
        # newer than the recompute node, each output's node runs first: it
        # stores its whole gradient for the recompute and passes on none
        out._node = _Node(lambda g, i=i: (grads.__setitem__(i, g),), (recompute,))
    return outs[0] if single else tuple(outs)


# ---------------------------------------------------------- sparse matrix

class SparseMatrix:
    """Constant (never trained) sparse matrix in CSR form.

    ``_csr`` holds the (indptr, indices, data) arrays of the matrix in
    scipy's canonical order (rows ascending, columns ascending within a
    row, int32 indices when they fit), so that scipy's kernels sum every
    product in scipy's order. The same arrays are the CSC arrays of the
    transpose, so no transpose is stored. Duplicate (row, col) entries are
    rejected because a silent sum would hide loader bugs.
    """

    def __init__(self, rows, cols, vals, shape):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols, vals must have identical lengths")
        if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                          or cols.min() < 0 or cols.max() >= shape[1]):
            raise ValueError("sparse index out of range")
        self.shape = (int(shape[0]), int(shape[1]))
        self._csr = _csr_arrays(rows, cols, vals, self.shape)

    @property
    def nnz(self):
        return int(self._csr[2].size)

    def matmul(self, h):
        """A @ h for a Tensor h; see ``spmm``. The model calls ``spmm``
        itself: this method stays only because the benchmark's tracer
        looks it up by name."""
        return spmm(self, h)


def _csr_arrays(rows, cols, vals, shape):
    """(indptr, indices, data) of the m x n matrix with the given entries,
    as ``scipy.sparse.csr_matrix((vals, (rows, cols)))`` lays them out.
    Sorting puts equal (row, col) pairs next to each other, so a duplicate
    is found in the sorted order."""
    index = np.int32 if max(*shape, rows.size) <= np.iinfo(np.int32).max else np.int64
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if np.any((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])):
        raise ValueError("duplicate (row, col) entries in sparse matrix")
    indptr = np.zeros(shape[0] + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return indptr, cols.astype(index), vals[order]


_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_extension(name, folder):
    """Import the compiled module `name` from its file in `folder` without
    importing the package that holds it. It is entered in sys.modules, so
    a later import of that package reuses it."""
    finder = importlib.machinery.FileFinder(folder, (
        importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled {name} extension in {folder}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


@functools.cache
def _sparsetools():
    """scipy's compiled sparse loops: ``csr_matvecs``, the one that
    ``csr_matrix @ array`` calls, and ``csc_matvecs``, the one that
    ``csc_matrix @ array`` calls. The module is loaded from its extension
    file: scipy/sparse/__init__.py would import scipy._lib._array_api and
    with it numpy.f2py, numpy.testing and unittest, about 20 MB of every
    process."""
    module = sys.modules.get(_SPARSETOOLS)
    if module is None:
        scipy = importlib.util.find_spec("scipy").submodule_search_locations[0]
        module = _load_extension(_SPARSETOOLS, os.path.join(scipy, "sparse"))
    return module


def _sparse_matmul(kernel, arrays, shape, x):
    """The sparse (m, n) matrix times x, an (n*B, d) array read row-major
    as (n, B*d): the product as an (m*B, d) array, summed by `kernel` (a
    ``_sparsetools`` loop that reads `arrays` in its own layout) as scipy
    sums it."""
    m, n = shape
    out = np.zeros((m * x.shape[0] // n, x.shape[1]))
    kernel(m, n, x.size // n, *arrays, x.ravel(), out.ravel())
    return out


def spmm(adj, h):
    """Sparse-dense product A @ H; gradient flows through H only.

    H may also be a batch of B states stacked node-major, shape (n*B, d):
    row i*B + b is node i of state b. Its (n, B*d) view carries the batch
    in the columns, so one sparse product serves every state. The drift's
    other ops act row by row and need no batch handling of their own.

    The forward runs ``csr_matvecs`` on A's CSR arrays and the backward
    ``csc_matvecs`` on the same arrays, which are A^T's CSC arrays. Both
    loops add into each output row in ascending column order, so the
    product and the gradient are bitwise those of ``csr_matrix @``.
    """
    n = adj.shape[1]
    if h.data.ndim != 2 or h.data.shape[0] == 0 or h.data.shape[0] % n:
        raise ValueError(f"spmm shape mismatch: {adj.shape} x {h.data.shape}")
    tools = _sparsetools()
    out_data = _sparse_matmul(tools.csr_matvecs, adj._csr, adj.shape, h.data)
    return _make(out_data, (h,), lambda g: (
        _sparse_matmul(tools.csc_matvecs, adj._csr, adj.shape[::-1], g),))


# ------------------------------------------------------------------- adam

class Adam:
    """Adam with bias correction over a fixed list of parameter tensors."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params, lr=0.01):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update. The moments and the new values are checked before any
        parameter is written: a non-finite gradient makes a non-finite
        moment, and then FloatingPointError is raised."""
        for p in self.params:
            if p.grad is None:
                raise RuntimeError("adam step with a missing gradient")
        self.t += 1
        b1t = 1.0 - self.BETA1 ** self.t
        b2t = 1.0 - self.BETA2 ** self.t
        new = []
        for p, m, v in zip(self.params, self.m, self.v):
            m *= self.BETA1
            m += (1.0 - self.BETA1) * p.grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * p.grad * p.grad
            new.append(p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.EPS))
        if not all(np.isfinite(a).all() for a in self.m + self.v + new):
            raise FloatingPointError(f"non-finite Adam moment or update at step {self.t}")
        for p, data in zip(self.params, new):
            p.data = data

    def zero_grad(self):
        for p in self.params:
            p.grad = None
