"""The benchmark's tracer (perfbench/tracing.py) wraps lgnsde functions by
name. Deleting or renaming one of them must fail this suite, not only the
benchmark run. The tracer keeps one span stack and assumes one thread, so
the helper thread on which ``sde.integrate`` draws a Brownian path ahead
(for predict and lemma 1) must call nothing it wraps: it calls only
``BrownianPath.draw``, which the tracer leaves alone."""

import importlib.util
import json
import sys
from pathlib import Path

import lgnsde
from lgnsde import autodiff, cli, graphdata, metrics, model, sde, train, verify

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (lgnsde, autodiff, cli, graphdata, metrics, model, sde, train, verify,
          autodiff.Adam, autodiff.SparseMatrix, sde.BrownianPath, model.LGNSDEModel)

TINY = """
sbm_classes = 3
sbm_nodes_per_class = 5
sbm_feature_dim = 4
train_frac = 0.4
val_frac = 0.3
hidden = 4
steps = 2
mc_samples = 2
val_mc = 1
epochs = 3
patience = 3
"""


def _recorder():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.Recorder()


def assert_nested(spans):
    """Siblings do not overlap and every span lies inside its parent."""
    last_end = {}  # parent index -> end of its latest child
    for name, start, end, parent, *_ in spans:
        assert start <= end
        assert start >= last_end.get(parent, start), name
        last_end[parent] = end
        if parent >= 0:
            _, p_start, p_end, *_ = spans[parent]
            assert p_start <= start and end <= p_end, (name, spans[parent][0])


def ancestors(spans, span):
    """The names of the spans that enclose `span`, innermost first."""
    while span[3] >= 0:
        span = spans[span[3]]
        yield span[0]


def test_tracer_installs_records_and_restores(tmp_path):
    before = [dict(vars(owner)) for owner in OWNERS]
    recorder = _recorder()
    try:
        recorder.install()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    finally:
        recorder.uninstall()
    names = {span[0] for span in recorder.spans}
    for name in ("cli.load_dataset", "cli.reports", "graphdata.sbm_generate",
                 "train.forward", "train.validate", "model.drift", "sde.integrate",
                 "autodiff.backward", "autodiff.adam", "autodiff.spmm"):
        assert name in names
    for owner, attrs in zip(OWNERS, before):
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, (owner, attr)
    # the recompute of every checkpoint node runs inside the one backward
    # span of its epoch, so train.backward_s counts each pass once
    epochs = json.loads((tmp_path / "out" / "runlog.json").read_text())["epochs"]
    backward = [s for s in recorder.spans if s[0] == "autodiff.backward"]
    assert len(backward) == len(epochs) == 3
    # a recomputed spmm runs inside the drift call that integrate
    # checkpointed, so the recompute is counted as model.drift spans
    spans = recorder.spans
    recomputed = [list(ancestors(spans, s))[:2] for s in spans
                  if s[0] == "autodiff.spmm" and "autodiff.backward" in ancestors(spans, s)]
    assert recomputed and all(chain == ["model.drift", "autodiff.backward"]
                              for chain in recomputed)
    assert_nested(recorder.spans)


def test_spans_nest_while_noise_is_drawn_ahead():
    # a span recorded from a second thread would overlap a sibling or stick
    # out of its parent; a short switch interval makes threads interleave.
    # integrate draws the paths of predict and lemma 1 ahead; lemma 2 draws
    # its steps on its own thread. Both lemmas run the same solver and drift
    # on one batch, so their spans must nest under verify.lemma1 and
    # verify.lemma2
    graph = graphdata.make_splits(graphdata.sbm_generate(3, 4, 0.3, 0.03, 4, 2.0, seed=0),
                                  graphdata.SplitSpec(seed=0, train_frac=0.4, val_frac=0.3))
    m = model.LGNSDEModel(graph.d_in, graph.num_classes, hidden=4, steps=3, seed=0)
    recorder = _recorder()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        recorder.install()
        m.predict(graph, mc_samples=4)
        verify.lemma1_check(m, graph, mc=1000, grid_points=2)
        verify.lemma2_check(m, graph, trials=20, grid_points=2)
    finally:
        recorder.uninstall()
        sys.setswitchinterval(interval)
    spans = recorder.spans
    assert {"sde.integrate", "model.drift", "verify.lemma1",
            "verify.lemma2"} <= {s[0] for s in spans}

    for lemma in ("verify.lemma1", "verify.lemma2"):
        inside = {s[0] for s in spans if lemma in ancestors(spans, s)}
        assert {"sde.integrate", "model.drift"} <= inside, lemma
    assert_nested(spans)
