"""Fuzz the bundle loader through `lgnsde generate`: a 3x6 bundle with one
mutated line of nodes.tsv, edges.tsv or splits.json either loads (exit 0)
or is one `config error:` line with exit 2 and no output directory, never
a traceback."""

import contextlib
import io
import os
import tempfile

import numpy as np
import pytest

from lgnsde.cli import main
from lgnsde.graphdata import SplitSpec, make_splits, sbm_generate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

GRAPH = make_splits(sbm_generate(3, 6, 0.3, 0.03, 4, 2.0, seed=0),
                    SplitSpec(seed=0, train_frac=0.34, val_frac=0.33))
SPLIT_KEYS = ("train", "val", "test")
# each file as rows of string fields; a splits.json row is one list
ROWS = {
    "nodes.tsv": [[str(i), str(GRAPH.labels[i]), *map(repr, GRAPH.features[i].tolist())]
                  for i in range(GRAPH.n)],
    "edges.tsv": [[str(s), str(d)] for s, d in GRAPH.edges.tolist()],
    "splits.json": [[str(i) for i in np.flatnonzero(getattr(GRAPH, f"{key}_mask"))]
                    for key in SPLIT_KEYS],
}
MUTATIONS = ("drop field", "extra field", "non-numeric", "negative", "out of range",
             "blank line", "whitespace line", "trailing tab", "repeat")


def mutated(name, mutation, i, j, k):
    """The text of file `name` with `mutation` at row i, field j; k is a
    small positive number."""
    rows = [list(row) for row in ROWS[name]]
    i %= len(rows)
    row = rows[i]
    j %= len(row)
    if mutation == "drop field":
        del row[j]
    elif mutation == "extra field":
        row.insert(j, str(k))
    elif mutation == "non-numeric":
        row[j] = "x"
    elif mutation == "negative":
        row[j] = str(-k)
    elif mutation == "out of range":
        row[j] = str(GRAPH.n - 1 + k)
    elif mutation == "repeat" and name == "splits.json":  # a node in two lists
        other = rows[(i + 1) % len(rows)]
        row.append(other[j % len(other)])
    elif mutation == "repeat":
        rows.insert(i, list(row))
    if name == "splits.json":
        lines = ["{"] + [f'"{key}": [{", ".join(row)}]' + ("," if key != "test" else "")
                         for key, row in zip(SPLIT_KEYS, rows)] + ["}"]
        i += 1
    else:
        lines = ["\t".join(row) for row in rows]
    if mutation == "blank line":
        lines.insert(i, "")
    elif mutation == "whitespace line":
        lines.insert(i, " \t ")
    elif mutation == "trailing tab":
        lines[i] += "\t"
    return "\n".join(lines) + "\n"


@hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=150)
@hypothesis.given(name=st.sampled_from(sorted(ROWS)), mutation=st.sampled_from(MUTATIONS),
                  i=st.integers(0, 40), j=st.integers(0, 8), k=st.integers(1, 3))
def test_one_mutated_line_loads_or_is_one_config_error(name, mutation, i, j, k):
    with tempfile.TemporaryDirectory() as d:
        bundle = os.path.join(d, "bundle")
        os.mkdir(bundle)
        for file in ROWS:
            text = mutated(file, mutation, i, j, k) if file == name else mutated(file, "", 0, 0, 0)
            with open(os.path.join(bundle, file), "w") as f:
                f.write(text)
        cfg = os.path.join(d, "run.cfg")
        with open(cfg, "w") as f:
            f.write(f"dataset = bundle\nbundle_path = {bundle}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["generate", "--config", cfg, "--out", os.path.join(d, "out")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == [] and os.path.exists(os.path.join(d, "out", "bundle", "nodes.tsv"))
        else:
            assert code == 2, err.getvalue()
            assert len(lines) == 1 and lines[0].startswith("config error:"), err.getvalue()
            assert not os.path.exists(os.path.join(d, "out"))
