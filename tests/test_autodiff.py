import threading
import weakref

import numpy as np
import pytest
from scipy import sparse

import lgnsde.autodiff as ad
from lgnsde.autodiff import Adam, SparseMatrix, Tensor, backward
from lgnsde.graphdata import normalized_adjacency


def scipy_csr(adj):
    """The scipy.sparse matrix on a SparseMatrix's own CSR arrays: the one
    reader of those arrays in the tests (scipy.sparse is a test oracle
    only)."""
    indptr, indices, data = adj._csr
    return sparse.csr_matrix((data, indices, indptr), shape=adj.shape)


def float_mask_dropout(a, p, rng=None):
    """Dropout that keeps the scaled float mask on the tape: the reference
    the boolean-mask op must equal bit for bit."""
    if rng is None or p == 0.0:
        return a
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)
    return ad._make(a.data * mask, (a,), lambda g: (g * mask,))


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f w.r.t. array x."""
    g = np.empty_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        dn = f()
        flat[i] = orig
        gf[i] = (up - dn) / (2 * h)
    return g


def rel_err(a, b, floor=1e-4):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ad.matmul(a, b).data, b.data)

    def test_zero(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[0.0], [0.0]]))
        assert np.array_equal(out.data, [[0.0]])

    def test_shape_error_mentions_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
        loss = ad.tensor_sum(ad.matmul(a, b))
        backward(loss)

        def f():
            return float((a.data @ b.data).sum())

        assert rel_err(a.grad, fd_grad(f, a.data)).max() < 1e-6
        assert rel_err(b.grad, fd_grad(f, b.data)).max() < 1e-6


class TestSpmm:
    def test_empty_matrix_gives_zeros(self):
        sp = SparseMatrix([], [], [], (3, 3))
        h = Tensor(np.ones((3, 2)))
        assert np.array_equal(ad.spmm(sp, h).data, np.zeros((3, 2)))

    def test_identity(self):
        sp = SparseMatrix(range(4), range(4), np.ones(4), (4, 4))
        h = Tensor(np.arange(8.0).reshape(4, 2))
        assert np.array_equal(ad.spmm(sp, h).data, h.data)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_matmul(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        mask = rng.random((5, 5)) < 0.3
        r, c = np.nonzero(mask)
        sp = SparseMatrix(r, c, rng.standard_normal(r.size), (5, 5))
        h = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        out = ad.spmm(sp, h)
        assert np.abs(out.data - scipy_csr(sp).toarray() @ h.data).max() < 1e-12
        backward(ad.tensor_sum(out))
        dense = Tensor(scipy_csr(sp).toarray())
        h2 = Tensor(h.data, requires_grad=True)
        backward(ad.tensor_sum(ad.matmul(dense, h2)))
        assert np.abs(h.grad - h2.grad).max() < 1e-12

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix([0, 0], [1, 1], [1.0, 2.0], (2, 2))

    def test_batched_stack(self):
        # seven 4-node states stacked node-major: row 7*i + k is node i of k
        rng = np.random.Generator(np.random.PCG64(0))
        mask = rng.random((4, 4)) < 0.5
        r, c = np.nonzero(mask)
        sp = SparseMatrix(r, c, rng.standard_normal(r.size), (4, 4))
        h = rng.standard_normal((7, 4, 3))
        out = sp.matmul(Tensor(np.swapaxes(h, 0, 1).reshape(28, 3))).data
        out = np.swapaxes(out.reshape(4, 7, 3), 0, 1)
        for k in range(7):
            assert np.abs(out[k] - scipy_csr(sp).toarray() @ h[k]).max() < 1e-12

    @pytest.mark.parametrize("rows", [3, 6, 0])
    def test_rows_not_a_multiple_of_n_rejected(self, rows):
        sp = SparseMatrix(range(4), range(4), np.ones(4), (4, 4))
        with pytest.raises(ValueError, match="spmm shape mismatch"):
            ad.spmm(sp, Tensor(np.ones((rows, 2))))


class TestSpmmEqualsScipy:
    """spmm calls scipy's compiled CSR loop itself; its products and
    gradients must be bitwise those of ``scipy.sparse.csr_matrix @``."""

    @staticmethod
    def random_matrix(rng, m, n):
        # entries in shuffled order, so the layout is sorted, not copied;
        # at this density some rows and columns are empty
        r, c = np.nonzero(rng.random((m, n)) < 0.25)
        order = rng.permutation(r.size)
        return r[order], c[order], rng.standard_normal(r.size)

    @staticmethod
    def check(adj, h, w):
        """spmm(adj, h) against the oracle, and h's gradient of
        sum([w, w] * concat_cols(spmm(adj, h), w)), which is A^T w, against
        the oracle's transpose: concat_cols hands spmm's backward a column
        slice, a non-contiguous array."""
        d = h.shape[1]
        oracle = scipy_csr(adj)
        x = Tensor(h, requires_grad=True)
        out = ad.spmm(adj, x)
        want = (oracle @ h.reshape(adj.shape[1], -1)).reshape(-1, d)
        assert out.data.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        wide = np.hstack([w, w])
        backward(ad.tensor_sum(ad.mul(ad.concat_cols(out, Tensor(w)), Tensor(wide))))
        want = (oracle.T.tocsr() @ w.reshape(adj.shape[0], -1)).reshape(-1, d)
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_layout_equals_scipys(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        r, c, v = self.random_matrix(rng, *rng.integers(1, 12, 2))
        shape = (int(r.max(initial=0)) + 2, int(c.max(initial=0)) + 3)
        adj = SparseMatrix(r, c, v, shape)
        want = sparse.csr_matrix((v, (r, c)), shape=shape)
        for got, ref in ((adj._csr, want), (adj._csr_t, want.T.tocsr())):
            for a, name in zip(got, ("indptr", "indices", "data")):
                b = getattr(ref, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert adj.nnz == want.nnz

    @pytest.mark.parametrize("seed", range(10))
    def test_rectangular(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        m, n = (int(k) for k in rng.integers(1, 12, 2))
        adj = SparseMatrix(*self.random_matrix(rng, m, n), (m, n))
        d = int(rng.integers(1, 4))
        self.check(adj, rng.standard_normal((n, d)), rng.standard_normal((m, d)))

    @pytest.mark.parametrize("seed", range(5))
    def test_node_major_batch_of_three(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        adj = SparseMatrix(*self.random_matrix(rng, 6, 6), (6, 6))
        self.check(adj, rng.standard_normal((18, 4)), rng.standard_normal((18, 4)))

    @pytest.mark.parametrize("adj", [normalized_adjacency([], 4),
                                     SparseMatrix([], [], [], (3, 5))],
                             ids=["no-edges", "no-entries"])
    def test_graph_without_edges(self, adj):
        rng = np.random.Generator(np.random.PCG64(0))
        m, n = adj.shape
        self.check(adj, rng.standard_normal((2 * n, 3)), rng.standard_normal((2 * m, 3)))

    def test_missing_kernel_names_the_folder(self, tmp_path):
        with pytest.raises(ImportError, match=str(tmp_path)):
            ad._load_extension("scipy.sparse._sparsetools", str(tmp_path))


class TestElementwise:
    def test_softmax_uniform_on_zero_row(self):
        out = ad.softmax_rows(Tensor(np.zeros((1, 4))))
        assert np.allclose(out.data, 0.25, atol=1e-15)

    def test_masked_ce_huge_true_logit(self):
        logits = Tensor([[1e6, 0.0], [0.0, 1e6]])
        loss = ad.masked_cross_entropy(logits, [0, 1], [True, True])
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_masked_ce_empty_mask(self):
        with pytest.raises(ValueError, match="mask"):
            ad.masked_cross_entropy(Tensor(np.zeros((2, 2))), [0, 1], [False, False])

    @pytest.mark.parametrize("seed", range(20))
    def test_masked_ce_gradient(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        logits = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 5)
        mask = np.array([True, True, False, True, False])
        backward(ad.masked_cross_entropy(logits, labels, mask))

        def f():
            z = logits.data - logits.data.max(axis=1, keepdims=True)
            lp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            return float(-lp[mask, labels[mask]].mean())

        assert rel_err(logits.grad, fd_grad(f, logits.data)).max() < 1e-4

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.5) is x

    def test_dropout_train_scaling(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = Tensor(np.ones((200, 50)))
        out = ad.dropout(x, 0.25, rng).data
        assert set(np.unique(out.round(10))) == {0.0, round(1 / 0.75, 10)}
        assert abs(out.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_dropout_keeps_bool_mask_and_float_mask_values(self, p):
        rng = np.random.Generator(np.random.PCG64(3))
        data, weights = rng.standard_normal((2, 40, 7))
        outs, grads = [], []
        for op in (ad.dropout, float_mask_dropout):
            x = Tensor(data, requires_grad=True)
            out = op(x, p, np.random.Generator(np.random.PCG64(4)))
            if op is ad.dropout:
                kept = [c.cell_contents for c in out._node.backward.__closure__
                        if isinstance(c.cell_contents, np.ndarray)]
                assert [a.dtype for a in kept] == [np.dtype(bool)]
            backward(ad.tensor_sum(ad.mul(out, Tensor(weights))))
            outs.append(out.data)
            grads.append(x.grad)
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(grads[0], grads[1])

    def test_dropout_bad_p(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(2)), 1.0)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("op", ["tanh", "relu", "softmax", "log_softmax",
                                    "concat", "slice", "batched"])
    def test_op_gradients(self, seed, op):
        rng = np.random.Generator(np.random.PCG64(seed))
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        w = rng.standard_normal((4, 3))  # random cotangent via weighted sum
        params = [x]
        if op == "tanh":
            make = lambda t: ad.tanh(t)
            fval = lambda: np.tanh(x.data)
        elif op == "relu":
            make = lambda t: ad.relu(t)
            fval = lambda: np.maximum(x.data, 0)
        elif op == "softmax":
            make = lambda t: ad.softmax_rows(t)
            fval = lambda: ad._softmax(x.data)
        elif op == "log_softmax":
            make = lambda t: ad.log_softmax_rows(t)
            fval = lambda: np.log(ad._softmax(x.data))
        elif op == "concat":
            make = lambda t: ad.concat_cols(t, t)
            fval = lambda: np.hstack([x.data, x.data])
            w = np.hstack([w, w[:, ::-1]])
        elif op == "slice":
            make = lambda t: ad.slice_rows(t, [0, 2, 2])
            fval = lambda: x.data[[0, 2, 2]]
            w = w[:3]
        else:
            # x is a batch of two 2-node states, stacked node-major, pushed
            # through concat_cols, spmm, matmul and a bias add
            r, c = np.nonzero(rng.random((2, 2)) < 0.7)
            adj = SparseMatrix(r, c, rng.standard_normal(r.size), (2, 2))
            col = rng.standard_normal((4, 1))
            wt = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
            bias = Tensor(rng.standard_normal(3), requires_grad=True)
            params += [wt, bias]
            make = lambda t: ad.add(ad.matmul(
                ad.spmm(adj, ad.concat_cols(t, Tensor(col))), wt), bias)

            def fval():
                states = np.hstack([x.data, col]).reshape(2, 2, 4)
                mixed = np.einsum("ij,jbc->ibc", scipy_csr(adj).toarray(), states)
                return mixed.reshape(4, 4) @ wt.data + bias.data
        if op == "relu" and np.abs(x.data).min() < 1e-3:
            return  # FD is invalid at the kink
        backward(ad.tensor_sum(ad.mul(make(x), Tensor(w))))
        for p in params:
            g = fd_grad(lambda: float((fval() * w).sum()), p.data)
            assert rel_err(p.grad, g).max() < 1e-4


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(ad.tensor_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_half_square_gives_x(self):
        x = Tensor(np.arange(-3.0, 3.0), requires_grad=True)
        backward(ad.scale(ad.tensor_sum(ad.mul(x, x)), 0.5))
        assert np.abs(x.grad - x.data).max() < 1e-14

    def test_accumulation_without_reset(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward(ad.tensor_sum(x))
        backward(ad.tensor_sum(x))
        assert np.array_equal(x.grad, 2 * np.ones(3))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tensor(np.zeros(2), requires_grad=True))

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.Generator(np.random.PCG64(7))
            x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
            loss = ad.tensor_sum(ad.tanh(ad.matmul(x, x)))
            backward(loss)
            return float(loss.data), x.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2 and np.array_equal(g1, g2)

    def test_no_grad_suppresses_tape(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ad.no_grad():
            out = ad.tanh(x)
        assert not out.requires_grad and out._node is None

    @pytest.mark.parametrize("a_shape, b_shape", [((3, 3), (3, 1)), ((3, 3), (9,)),
                                                   ((3,), (1, 3)), ((3, 3), (1, 1, 3))])
    def test_add_takes_only_a_row_bias(self, a_shape, b_shape):
        # a (3, 1) column broadcasts along the rows, but the bias backward
        # sums over them: under weights 0..8 its gradient would read
        # [9, 12, 15], not [3, 12, 21]
        a = Tensor(np.zeros(a_shape))
        b = Tensor(np.ones(b_shape), requires_grad=True)
        with pytest.raises(ValueError, match="add shape mismatch"):
            ad.add(a, b)

    @pytest.mark.parametrize("b_shape", [(3,), (1, 3)])
    def test_row_bias_gradient_sums_the_rows(self, b_shape):
        a = Tensor(np.zeros((3, 3)))
        b = Tensor(np.zeros(b_shape), requires_grad=True)
        weights = Tensor(np.arange(9.0).reshape(3, 3))
        backward(ad.tensor_sum(ad.mul(ad.add(a, b), weights)))
        assert np.array_equal(b.grad, np.array([9.0, 12.0, 15.0]).reshape(b_shape))

    def test_no_grad_in_another_thread_leaves_this_tape_on(self):
        entered, release = threading.Event(), threading.Event()

        def hold():
            with ad.no_grad():
                entered.set()
                release.wait(30)

        helper = threading.Thread(target=hold)
        helper.start()
        try:
            assert entered.wait(30)
            x = Tensor(np.ones(2), requires_grad=True)
            out = ad.tanh(x)
            assert x._node is not None and out._node is not None
        finally:
            release.set()
            helper.join(30)
        assert not helper.is_alive()

    @pytest.mark.parametrize("nested", ["left", "right"])
    def test_consumers_are_summed_newest_first(self, nested):
        # x feeds c1, c2, c3, made in that order, which hand it g1 = 1,
        # g2 = 1e16 and g3 = -1e16: (g3 + g2) + g1 is 1, and every order
        # that does not add g1 last rounds the 1 away
        x = Tensor(np.ones(1), requires_grad=True)
        c1, c2, c3 = ad.scale(x, 1.0), ad.scale(x, 1e16), ad.scale(x, -1e16)
        total = ad.add(ad.add(c1, c2), c3) if nested == "left" else ad.add(c1, ad.add(c2, c3))
        backward(ad.tensor_sum(total))
        assert x.grad[0] == 1.0



class TestTape:
    def test_second_backward_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = ad.tensor_sum(ad.tanh(x))
        backward(loss)
        first = x.grad.copy()
        with pytest.raises(RuntimeError, match="tape already released"):
            backward(loss)
        assert np.array_equal(x.grad, first)

    def test_unread_intermediate_is_freed(self):
        # tanh's backward reads its output, never its input
        rng = np.random.Generator(np.random.PCG64(3))
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        pre = ad.add(ad.matmul(x, w), b)
        ref = weakref.ref(pre.data)
        out = ad.tanh(pre)
        del pre
        assert ref() is None
        backward(ad.tensor_sum(out))
        t = np.tanh(x.data @ w.data + b.data)
        d = 1.0 - t * t
        assert np.array_equal(x.grad, d @ w.data.T)
        assert np.array_equal(w.grad, x.data.T @ d)
        assert np.array_equal(b.grad, d.sum(axis=0))

class TestCheckpoint:
    @staticmethod
    def layer(w):
        # a closure over a parameter, with dropout drawn from the rng
        def fn(x, rng):
            z = ad.dropout(ad.tanh(ad.matmul(x, w)), 0.5, rng)
            return ad.add(ad.mul(z, x), x)
        return fn

    def run(self, through_checkpoint):
        data = np.random.Generator(np.random.PCG64(5))
        x = Tensor(data.standard_normal((4, 4)), requires_grad=True)
        w = Tensor(data.standard_normal((4, 4)), requires_grad=True)
        rng = np.random.Generator(np.random.PCG64(6))
        fn = self.layer(w)
        h = x
        for _ in range(3):
            h = (ad.checkpoint(lambda a: fn(a, rng), (h,), rng) if through_checkpoint
                 else fn(h, rng))
        loss = ad.tensor_sum(ad.mul(h, h))
        forward_state = rng.bit_generator.state
        backward(loss)
        return loss, x.grad, w.grad, forward_state, rng.bit_generator.state

    def test_gradients_bitwise_equal_the_full_tape(self):
        loss, gx, gw, _, _ = self.run(True)
        ref_loss, ref_gx, ref_gw, _, _ = self.run(False)
        assert float(loss.data) == float(ref_loss.data)
        assert np.array_equal(gx, ref_gx) and np.array_equal(gw, ref_gw)

    @pytest.mark.parametrize("use", ["both", "first", "second", "first-twice"])
    def test_tuple_outputs_bitwise_equal_the_full_tape(self, use):
        # fn returns (y, s) with s reading y, as a solver step returns its
        # next state and a KL term computed from its drift; the loss reads
        # both outputs, one of them, or the first twice. Its input feeds one
        # op in fn
        def run(through_checkpoint):
            data = np.random.Generator(np.random.PCG64(5))
            x = Tensor(data.standard_normal((4, 4)), requires_grad=True)
            w = Tensor(data.standard_normal((4, 4)), requires_grad=True)
            rng = np.random.Generator(np.random.PCG64(6))
            layer = self.layer(w)

            def fn(a):
                y = layer(ad.scale(a, 1.0), rng)
                return y, ad.tensor_sum(ad.mul(y, y))

            h, total = x, Tensor(0.0)
            for _ in range(3):
                y, s = ad.checkpoint(fn, (h,), rng) if through_checkpoint else fn(h)
                if use in ("both", "second"):
                    total = ad.add(total, s)
                if use == "first-twice":
                    h = ad.add(y, ad.scale(y, 0.5))
                elif use != "second":
                    h = y
            loss = ad.add(ad.tensor_sum(ad.mul(h, h)), total)
            forward_state = rng.bit_generator.state
            backward(loss)
            return float(loss.data), x.grad, w.grad, forward_state, rng.bit_generator.state

        loss, gx, gw, forward_state, after = run(True)
        ref_loss, ref_gx, ref_gw, ref_state, _ = run(False)
        assert loss == ref_loss and forward_state == ref_state == after
        assert np.array_equal(gx, ref_gx) and np.array_equal(gw, ref_gw)

    def test_every_generator_of_a_tuple_is_put_back(self):
        # fn draws dropout from one generator and a factor from another, as
        # a solver step draws its mask and its Brownian increment: the
        # recompute draws both again, and both end where the forward left
        # them
        def run(through_checkpoint):
            data = np.random.Generator(np.random.PCG64(5))
            x = Tensor(data.standard_normal((4, 4)), requires_grad=True)
            w = Tensor(data.standard_normal((4, 4)), requires_grad=True)
            rngs = tuple(np.random.Generator(np.random.PCG64(s)) for s in (6, 7))
            layer = self.layer(w)

            def fn(a):
                return ad.mul(layer(a, rngs[0]), Tensor(rngs[1].standard_normal((4, 4))))

            h = x
            for _ in range(3):
                h = ad.checkpoint(fn, (h,), rngs) if through_checkpoint else fn(h)
            loss = ad.tensor_sum(ad.mul(h, h))
            forward = [r.bit_generator.state for r in rngs]
            backward(loss)
            return float(loss.data), x.grad, w.grad, forward, [r.bit_generator.state for r in rngs]

        loss, gx, gw, forward, after = run(True)
        ref_loss, ref_gx, ref_gw, ref_forward, _ = run(False)
        assert loss == ref_loss and forward == ref_forward == after
        assert np.array_equal(gx, ref_gx) and np.array_equal(gw, ref_gw)

    def test_generator_ends_where_the_forward_left_it(self):
        _, _, _, forward_state, after = self.run(True)
        assert after == forward_state
        assert forward_state == self.run(False)[3]

    def test_keeps_only_its_inputs(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        refs = []

        def fn(a):
            z = ad.tanh(a)
            refs.append(weakref.ref(z.data))
            return ad.tanh(z)

        out = ad.checkpoint(fn, (x,))
        assert refs[0]() is None
        assert out.requires_grad
        backward(ad.tensor_sum(out))
        t = np.tanh(np.tanh(1.0))
        assert np.allclose(x.grad, (1 - t * t) * (1 - np.tanh(1.0) ** 2))

    def test_closure_without_inputs_gets_its_gradients(self):
        w = Tensor(np.arange(3.0), requires_grad=True)
        out = ad.checkpoint(lambda: ad.scale(w, 2.0), ())
        backward(ad.tensor_sum(out))
        assert np.array_equal(w.grad, 2.0 * np.ones(3))

    def test_returned_input_keeps_its_node(self):
        x = Tensor(np.ones(2), requires_grad=True)
        node = x._node
        out = ad.checkpoint(lambda a: a, (x,))
        assert x._node is node and out._node is not node
        backward(ad.tensor_sum(out))
        assert np.array_equal(x.grad, np.ones(2))

    def test_second_backward_raises(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = ad.tensor_sum(ad.checkpoint(ad.tanh, (x,)))
        backward(loss)
        with pytest.raises(RuntimeError, match="tape already released"):
            backward(loss)

    def test_no_grad_is_a_plain_call(self):
        x = Tensor(np.ones(2), requires_grad=True)
        calls = []

        def fn(a):
            calls.append(a)
            return ad.tanh(a)

        with ad.no_grad():
            out = ad.checkpoint(fn, (x,))
        assert calls == [x] and out._node is None

    def test_backward_under_no_grad_still_recomputes_on_a_tape(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        loss = ad.tensor_sum(ad.checkpoint(ad.tanh, (x,)))
        with ad.no_grad():
            backward(loss)
        assert np.array_equal(x.grad, 1.0 - np.tanh(x.data) ** 2)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        Adam([p], lr=0.1).step()
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_magnitude(self):
        # constant unit gradient: bias-corrected m/sqrt(v) = 1, step = -lr
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([1.0])
        Adam([p], lr=0.1).step()
        assert float(p.data[0]) == pytest.approx(-0.1, rel=1e-6)

    def test_quadratic_convergence(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.01)
        for _ in range(5000):
            p.grad = 2 * (p.data - 3.0)
            opt.step()
        assert abs(float(p.data[0]) - 3.0) < 1e-2

    def test_missing_grad_raises(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(RuntimeError, match="missing grad"):
            Adam([p]).step()
