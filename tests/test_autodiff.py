"""Finite-difference checks for every autodiff primitive."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from gimirec import autodiff as ad
from gimirec.interests import select_training_interest

from helpers import fd_check
from oracles import matmul_stacked, scatter_add_reference, select_rows_add_at


def leaf(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a, b = leaf(rng, 3, 4), leaf(rng, 1, 4)
    fd_check(lambda x, y: ad.mul(ad.add(x, y), x), [a, b])


def test_scale_neg_sub():
    rng = np.random.default_rng(1)
    a, b = leaf(rng, 5), leaf(rng, 5)
    fd_check(lambda x, y: ad.add(ad.scale(x, 2.5), ad.scale(ad.scale(y, -1.0), -1.0)),
             [a, b])


def test_matmul_batched():
    rng = np.random.default_rng(2)
    # batched x weight, weight x batched (flat weight gradients), both
    # batched with a broadcast batch axis (stacked gradients)
    for a_shape, b_shape in (((2, 3, 4), (4, 5)), ((4, 3), (2, 3, 5)),
                             ((2, 1, 3, 4), (3, 4, 2))):
        fd_check(ad.matmul, [leaf(rng, *a_shape), leaf(rng, *b_shape)])


@pytest.mark.parametrize("a_shape, b_shape", [
    ((2560, 4, 32), (32, 32)), ((3, 5, 7, 4), (4, 6)), ((6, 1, 3), (3, 2))])
@pytest.mark.parametrize("needs", [(True, True), (True, False), (False, True)])
def test_matmul_flat_weight_product_matches_stacked_form(a_shape, b_shape, needs):
    """Batched input times a 2-D weight: forward and both gradients as one
    flattened product agree with the per-example stack to 1e-12, and an
    operand that needs no gradient gets none."""
    rng = np.random.default_rng(11)
    a_data, b_data = rng.normal(size=a_shape), rng.normal(size=b_shape)
    # a non-contiguous batched operand, as swapaxes outputs are
    a_data = np.swapaxes(np.swapaxes(a_data, 0, -2).copy(), 0, -2)
    seed = rng.normal(size=a_shape[:-1] + b_shape[-1:])
    results = []
    for op in (ad.matmul, matmul_stacked):
        a = ad.Tensor(a_data, requires_grad=needs[0])
        b = ad.Tensor(b_data, requires_grad=needs[1])
        out = op(a, b)
        ad.sumt(ad.mul(out, ad.Tensor(seed))).backward()
        results.append((out.data, a.grad, b.grad))
    (out, ga, gb), (want_out, want_ga, want_gb) = results
    assert out.shape == want_out.shape
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    for got, want, need in ((ga, want_ga, needs[0]), (gb, want_gb, needs[1])):
        if not need:
            assert got is None
            continue
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(12)
    x = leaf(rng, 3, 4)
    mask = ad.Tensor(rng.normal(size=(3, 4)))
    ad.sumt(ad.add(ad.mul(x, mask), mask)).backward()
    assert mask.grad is None
    np.testing.assert_array_equal(x.grad, mask.data)


def test_tanh_sum_axis():
    rng = np.random.default_rng(3)
    a = leaf(rng, 3, 4)
    fd_check(lambda x: ad.sumt(ad.tanh(x), axis=1, keepdims=True), [a])


def test_reshape_swapaxes_concat():
    rng = np.random.default_rng(4)
    a, b = leaf(rng, 2, 6), leaf(rng, 2, 3)

    def build(x, y):
        x2 = ad.swapaxes(ad.reshape(x, (2, 3, 2)), 1, 2)   # (2, 2, 3)
        return ad.concat([x2, ad.reshape(y, (2, 1, 3))], axis=1)

    fd_check(build, [a, b])


def test_gather_accumulates_duplicates():
    rng = np.random.default_rng(5)
    table = leaf(rng, 4, 3)
    idx = np.array([[0, 2], [2, 2]])
    fd_check(lambda t: ad.gather(t, idx), [table])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gather_and_select_rows_backward_match_add_at_bit_for_bit(dtype):
    rng = np.random.default_rng(13)
    table = ad.Tensor(rng.normal(size=(6, 3)).astype(dtype), requires_grad=True)
    idx = rng.integers(0, 6, size=(40, 7))
    idx[0] = 2  # one row gathered many times in a row
    g = rng.normal(size=(40, 7, 3)).astype(dtype)
    ad.sumt(ad.mul(ad.gather(table, idx), ad.Tensor(g))).backward()
    assert table.grad.dtype == dtype
    np.testing.assert_array_equal(table.grad, scatter_add_reference((6, 3), idx, g))

    # the training interest pick: a gather on the (B*K, d) view of (B, K, d)
    x = ad.Tensor(rng.normal(size=(9, 4, 3)).astype(dtype), requires_grad=True)
    pick, picked = select_training_interest(
        x, ad.Tensor(rng.normal(size=(9, 3)).astype(dtype)))
    assert len(set(pick.tolist())) > 1
    gx = rng.normal(size=(9, 3)).astype(dtype)
    ad.sumt(ad.mul(picked, ad.Tensor(gx))).backward()
    expect = ad.Tensor(x.data, requires_grad=True)
    ad.sumt(ad.mul(select_rows_add_at(expect, pick), ad.Tensor(gx))).backward()
    np.testing.assert_array_equal(picked.data, x.data[np.arange(9), pick])
    np.testing.assert_array_equal(x.grad, expect.grad)


def test_bucket_sum():
    rng = np.random.default_rng(14)
    x = leaf(rng, 2, 3, 5)
    idx = rng.integers(0, 4, size=(2, 3, 5))
    idx[1, 2] = 3  # every slot of a row in one bucket
    weight = ad.Tensor(rng.normal(size=(2, 3, 4)))
    fd_check(lambda t: ad.mul(ad.bucket_sum(t, idx, 4), weight), [x])
    expect = np.zeros((2, 3, 4))
    for r in np.ndindex(2, 3):
        for j in range(5):
            expect[r][idx[r][j]] += x.data[r][j]
    np.testing.assert_allclose(ad.bucket_sum(x, idx, 4).data, expect, atol=1e-15)


def test_masked_softmax_gradient_and_rows():
    rng = np.random.default_rng(7)
    x = leaf(rng, 4, 5)
    mask = rng.random((4, 5)) > 0.3
    mask[0] = [True, True, False, False, False]
    fd_check(lambda t: ad.mul(ad.masked_softmax(t, mask), t), [x])
    p = ad.masked_softmax(x, mask).data
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(p[~mask] == 0.0)


def test_masked_softmax_fully_masked_row_is_zero():
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    mask = np.array([[True, True, True], [False, False, False]])
    p = ad.masked_softmax(x, mask)
    assert np.all(p.data[1] == 0.0)
    ad.sumt(p).backward()
    assert np.all(np.isfinite(x.grad))


def test_logsumexp_matches_and_is_stable():
    rng = np.random.default_rng(8)
    x = leaf(rng, 3, 6)
    fd_check(lambda t: ad.logsumexp(t), [x])
    big = ad.Tensor(np.array([[1e4, 1e4 + 1.0]]))
    assert np.isfinite(ad.logsumexp(big).data).all()


def test_spmm_matches_dense():
    rng = np.random.default_rng(9)
    dense = rng.random((5, 5))
    dense[dense < 0.5] = 0.0
    a = sp.csr_matrix(dense)
    a_t = sp.csr_matrix(dense.T)
    x = leaf(rng, 5, 3)
    fd_check(lambda t: ad.spmm(a, a_t, t), [x])
    np.testing.assert_array_equal(ad.spmm(a, a_t, x).data, a @ x.data)


def test_spmm_rows_is_exact_on_its_rows_and_zero_elsewhere():
    rng = np.random.default_rng(15)
    dense = rng.random((7, 7))
    dense[dense < 0.5] = 0.0  # not symmetric: the backward must transpose
    a = sp.csr_matrix(dense)
    rows = np.array([0, 2, 3, 6])
    x = leaf(rng, 7, 3)
    fd_check(lambda t: ad.spmm_rows(a, t, rows), [x])
    out = ad.spmm_rows(a, x, rows).data
    np.testing.assert_array_equal(out[rows], (a @ x.data)[rows])
    np.testing.assert_array_equal(np.delete(out, rows, axis=0), 0.0)
    x.grad = None
    g = rng.normal(size=(7, 3))
    ad.sumt(ad.mul(ad.spmm_rows(a, x, rows), ad.Tensor(g))).backward()
    kept = np.zeros_like(g)
    kept[rows] = g[rows]
    np.testing.assert_allclose(x.grad, dense.T @ kept, rtol=1e-14, atol=1e-15)


def test_no_grad_builds_no_graph():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.tanh(x)
    assert y._backward is None and not y.requires_grad


def test_no_grad_is_per_thread():
    # events force the order: enter A, enter B, exit A, exit B
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()

    def first():
        with ad.no_grad():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def second():
        a_in.wait(10)
        with ad.no_grad():
            b_in.set()
            a_out.wait(10)

    workers = [threading.Thread(target=f) for f in (first, second)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(10)
    assert not any(w.is_alive() for w in workers)
    assert a_out.is_set()
    x = ad.Tensor(np.ones(3), requires_grad=True)
    assert ad.tanh(x).requires_grad


def test_grad_accumulates_across_uses():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_dropout_scales_kept_entries():
    rng = np.random.default_rng(11)
    x = ad.Tensor(np.ones((100, 100)), requires_grad=True)
    y = ad.dropout(x, 0.25, rng)
    kept = y.data[y.data != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.75)
    assert abs(y.data.mean() - 1.0) < 0.02


def test_float32_dtype_preserved():
    rng = np.random.default_rng(12)
    x = ad.Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(3, 3)).astype(np.float32), requires_grad=True)
    out = ad.masked_softmax(ad.scale(ad.matmul(ad.tanh(x), w), 0.5),
                            np.ones((3, 3), bool))
    assert out.dtype == np.float32
    ad.sumt(out).backward()
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32
