"""Span recorder for the traced benchmark run.

The recorder wraps public functions of every lgnsde module at the places
their callers look them up (modules import names with ``from .x import``,
so one function can sit in several module namespaces), records one span
per call in memory, and reduces the spans to per-layer metrics. Nothing in
``src/`` changes: ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, flops, in_ops, error]``. ``parent``
is the index of the span that was open when this one started, so a
span's self time is its duration minus the durations of its children
(single thread, so children never overlap).
"""

import functools
import json
import time
from collections import defaultdict

_clock = time.perf_counter

# Tape ops reported one by one; the rest are summed into other_ops.
AUTODIFF_OPS = ("spmm", "matmul", "add", "tanh", "concat_cols", "dropout",
                "sub", "mul", "scale", "relu", "slice_rows", "softmax_rows",
                "log_softmax_rows", "masked_cross_entropy", "tensor_sum")
_NAMED_OPS = ("spmm", "matmul", "add", "tanh", "concat_cols", "dropout")

# (name, unit). The traced run emits exactly these, on every workload.
# Suffix ".s": mean seconds per call over the whole traced run.
# Everything else: per op (one epoch, one predict, one verify).
LAYER_METRICS = (
    ("graphdata.sbm_generate.s", "s"),
    ("graphdata.make_splits.s", "s"),
    ("autodiff.spmm.calls", "count"),
    ("autodiff.spmm.self_s", "s"),
    ("autodiff.spmm.flops", "computed_flop"),
    ("autodiff.matmul.calls", "count"),
    ("autodiff.matmul.self_s", "s"),
    ("autodiff.matmul.flops", "computed_flop"),
    ("autodiff.tanh.self_s", "s"),
    ("autodiff.add.calls", "count"),
    ("autodiff.add.self_s", "s"),
    ("autodiff.concat_cols.self_s", "s"),
    ("autodiff.other_ops.self_s", "s"),
    ("autodiff.sparse_batched.calls", "count"),
    ("autodiff.sparse_batched.self_s", "s"),
    ("autodiff.dropout.self_s", "s"),
    ("autodiff.backward.calls", "count"),
    ("autodiff.backward.self_s", "s"),
    ("autodiff.adam.self_s", "s"),
    ("autodiff.op_calls_per_step", "count"),
    ("train.forward_s", "s"),
    ("train.backward_s", "s"),
    ("train.adam_s", "s"),
    ("train.validate_s", "s"),
    ("train.step_peak_mb", "MB"),
    ("train.val_nll", "nat"),
    ("sde.brownian.calls", "count"),
    ("sde.brownian.self_s", "s"),
    ("sde.integrate.calls", "count"),
    ("sde.integrate.self_s", "s"),
    ("sde.diverged", "count"),
    ("model.drift.calls", "count"),
    ("model.drift.self_s", "s"),
    ("model.drift.mean_s", "s"),
    ("model.encode.self_s", "s"),
    ("model.decode.self_s", "s"),
    ("verify.lipschitz_s", "s"),
    ("verify.lemma1_s", "s"),
    ("verify.lemma2_s", "s"),
    ("verify.resnet_s", "s"),
    ("metrics.evaluate.s", "s"),
    ("cli.load_dataset.s", "s"),
    ("cli.reports.s", "s"),
    ("ops_failed_frac", "ratio"),
    ("trace.op_s", "s"),
    ("trace.overhead_s", "s"),
)


def _spmm_flops(adj, h):
    return 2 * adj.nnz * h.data.shape[1]


def _matmul_flops(a, b):
    m, k = a.data.shape
    return 2 * m * k * b.data.shape[1]


class Recorder:
    """Installs tracing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans = []
        self.in_ops = False
        self._stack = []
        self._undo = []

    # ---------------------------------------------------------- recording

    def wrap(self, name, fn, flops=None):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    flops(*args) if flops else 0, self.in_ops, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = _clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                span[6] = type(e).__name__
                raise
            finally:
                span[2] = _clock()
                stack.pop()

        return traced

    # ---------------------------------------------------------- patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_function(self, modules, fn, name, flops=None):
        traced = self.wrap(name, fn, flops)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, traced)

    def _wrap_method(self, cls, attr, name):
        self._set(cls, attr, self.wrap(name, vars(cls)[attr]))

    def install(self):
        import lgnsde
        from lgnsde import (autodiff, cli, graphdata, metrics, model, sde,
                            train, verify)

        modules = (lgnsde, autodiff, cli, graphdata, metrics, model, sde,
                   train, verify)
        flops = {"spmm": _spmm_flops, "matmul": _matmul_flops}
        for op in AUTODIFF_OPS:
            self._wrap_function(modules, getattr(autodiff, op),
                                f"autodiff.{op}", flops.get(op))
        self._wrap_function(modules, autodiff.backward, "autodiff.backward")
        self._wrap_method(autodiff.Adam, "step", "autodiff.adam")

        sparse_matmul = vars(autodiff.SparseMatrix)["matmul"]
        batched = self.wrap("autodiff.sparse_batched", sparse_matmul)

        def matmul(adj, h):
            # Tensor inputs go to spmm, which is traced on its own.
            if isinstance(h, autodiff.Tensor):
                return sparse_matmul(adj, h)
            return batched(adj, h)

        self._set(autodiff.SparseMatrix, "matmul", matmul)

        for fn in (graphdata.sbm_generate, graphdata.make_splits):
            self._wrap_function(modules, fn, f"graphdata.{fn.__name__}")
        self._wrap_method(sde.BrownianPath, "__init__", "sde.brownian")
        self._wrap_function(modules, sde.integrate, "sde.integrate")

        self._wrap_method(model.LGNSDEModel, "encode", "model.encode")
        self._wrap_method(model.LGNSDEModel, "decode", "model.decode")
        self._wrap_method(model.LGNSDEModel, "training_loss", "train.forward")
        drift_fn = vars(model.LGNSDEModel)["posterior_drift_fn"]

        def posterior_drift_fn(*args, **kwargs):
            return self.wrap("model.drift", drift_fn(*args, **kwargs))

        self._set(model.LGNSDEModel, "posterior_drift_fn", posterior_drift_fn)
        self._wrap_function(modules, train._val_metrics, "train.validate")

        for fn, name in ((verify.estimate_lipschitz, "verify.lipschitz"),
                         (verify.lemma1_check, "verify.lemma1"),
                         (verify.lemma2_check, "verify.lemma2"),
                         (verify.resnet_equivalence, "verify.resnet"),
                         (metrics.evaluate, "metrics.evaluate"),
                         (cli.load_dataset, "cli.load_dataset"),
                         (verify.write_report, "cli.reports"),
                         (cli._write_json, "cli.reports")):
            self._wrap_function(modules, fn, name)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------- output

    def write(self, path):
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def layer_metrics(self, n_ops):
        """Reduce the spans to the per-layer values of LAYER_METRICS.

        Per-op values are sums over the spans recorded while ``in_ops``
        was set, divided by ``n_ops``.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        in_step = [False] * len(spans)
        for i, (_, start, end, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_step[i] = in_step[parent] or spans[parent][0] == "train.forward"
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        flops = defaultdict(int)
        all_calls = defaultdict(int)
        all_total = defaultdict(float)
        step_ops = 0
        diverged = 0
        for i, (name, start, end, _, fl, in_ops, error) in enumerate(spans):
            all_calls[name] += 1
            all_total[name] += end - start
            if not in_ops:
                continue
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            flops[name] += fl
            if in_step[i] and name.startswith("autodiff.") and name[9:] in AUTODIFF_OPS:
                step_ops += 1
            if name == "sde.integrate" and error == "DivergedError":
                diverged += 1
        steps = calls["train.forward"]

        def per_op(d, name):
            return d[name] / n_ops

        def per_call(name):
            return all_total[name] / all_calls[name] if all_calls[name] else 0.0

        out = {
            "graphdata.sbm_generate.s": per_call("graphdata.sbm_generate"),
            "graphdata.make_splits.s": per_call("graphdata.make_splits"),
            "autodiff.other_ops.self_s": sum(
                self_s[f"autodiff.{op}"] for op in AUTODIFF_OPS
                if op not in _NAMED_OPS) / n_ops,
            "autodiff.op_calls_per_step": step_ops / steps if steps else 0,
            "train.forward_s": per_op(total, "train.forward"),
            "train.backward_s": per_op(total, "autodiff.backward"),
            "train.adam_s": per_op(total, "autodiff.adam"),
            "train.validate_s": per_op(total, "train.validate"),
            "sde.diverged": diverged / n_ops,
            "model.drift.mean_s": (total["model.drift"] / calls["model.drift"]
                                   if calls["model.drift"] else 0.0),
            "verify.lipschitz_s": per_op(total, "verify.lipschitz"),
            "verify.lemma1_s": per_op(total, "verify.lemma1"),
            "verify.lemma2_s": per_op(total, "verify.lemma2"),
            "verify.resnet_s": per_op(total, "verify.resnet"),
            "metrics.evaluate.s": per_call("metrics.evaluate"),
            "cli.load_dataset.s": per_call("cli.load_dataset"),
            "cli.reports.s": per_call("cli.reports"),
        }
        for metric, _ in LAYER_METRICS:
            if metric in out:
                continue
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = per_op(calls, layer)
            elif kind == "self_s":
                out[metric] = per_op(self_s, layer)
            elif kind == "flops":
                out[metric] = per_op(flops, layer)
        return out
