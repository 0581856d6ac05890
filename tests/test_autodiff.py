"""Finite-difference checks for every autodiff primitive."""

import threading

import numpy as np
import pytest
import scipy.sparse as sp

from gimirec import autodiff as ad

from oracles import scatter_add_reference


def fd_check(build, tensors, h=1e-6, tol=1e-6):
    """Compare analytic gradients of sum(build(*tensors)) with central FD."""
    out = ad.sumt(build(*tensors))
    out.backward()
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    for t, ga in zip(tensors, analytic):
        flat = t.data.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with ad.no_grad():
                up = float(ad.sumt(build(*tensors)).data)
            flat[i] = orig - h
            with ad.no_grad():
                down = float(ad.sumt(build(*tensors)).data)
            flat[i] = orig
            num = (up - down) / (2 * h)
            assert abs(ga.ravel()[i] - num) <= tol * max(1.0, abs(num)), \
                f"element {i}: analytic {ga.ravel()[i]} vs numeric {num}"


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


def test_tanh_sum_axis():
    rng = np.random.default_rng(3)
    a = leaf(rng, 3, 4)
    fd_check(lambda x: ad.sumt(ad.tanh(x), axis=1, keepdims=True), [a])


def test_reshape_swapaxes_concat_take():
    rng = np.random.default_rng(4)
    a, b = leaf(rng, 2, 6), leaf(rng, 2, 3)

    def build(x, y):
        x2 = ad.swapaxes(ad.reshape(x, (2, 3, 2)), 1, 2)   # (2, 2, 3)
        cat = ad.concat([x2, ad.reshape(y, (2, 1, 3))], axis=1)
        return ad.take(cat, np.s_[:, 1:, :])

    fd_check(build, [a, b])


def test_gather_accumulates_duplicates():
    rng = np.random.default_rng(5)
    table = leaf(rng, 4, 3)
    idx = np.array([[0, 2], [2, 2]])
    fd_check(lambda t: ad.gather(t, idx), [table])


def test_select_rows():
    rng = np.random.default_rng(6)
    x = leaf(rng, 3, 4, 2)
    idx = np.array([1, 0, 3])
    fd_check(lambda t: ad.select_rows(t, idx), [x])


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

    x = ad.Tensor(rng.normal(size=(9, 4, 3)).astype(dtype), requires_grad=True)
    pick = np.array([0, 3, 3, 1, 3, 0, 2, 3, 3])
    gx = rng.normal(size=(9, 3)).astype(dtype)
    ad.sumt(ad.mul(ad.select_rows(x, pick), ad.Tensor(gx))).backward()
    np.testing.assert_array_equal(
        x.grad, scatter_add_reference(x.shape, (np.arange(9), pick), gx))


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


def test_broadcast_to():
    rng = np.random.default_rng(10)
    x = leaf(rng, 2, 1, 3)
    fd_check(lambda t: ad.broadcast_to(t, (2, 4, 3)), [x])


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
