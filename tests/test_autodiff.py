"""Finite-difference checks for every autodiff primitive."""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gimirec import autodiff as ad
from gimirec.interests import select_training_interest

from helpers import fd_check
from oracles import (gather_add_at, masked_softmax_reductions, scatter_add_reference,
                     select_rows_add_at)


def leaf(rng, *shape):
    return ad.Tensor(rng.normal(size=shape), requires_grad=True)


def test_add_mul():
    rng = np.random.default_rng(0)
    a, b = leaf(rng, 3, 4), leaf(rng, 3, 4)
    fd_check(lambda x, y: ad.mul(ad.add(x, y), x), [a, b])


def test_scale_neg_sub():
    rng = np.random.default_rng(1)
    a, b = leaf(rng, 5), leaf(rng, 5)
    fd_check(lambda x, y: ad.add(ad.scale(x, 2.5), ad.scale(ad.scale(y, -1.0), -1.0)),
             [a, b])


def test_matmul_batched():
    rng = np.random.default_rng(2)
    # two matrices, then stacks with equal batch shapes
    for a_shape, b_shape in (((3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5)),
                             ((2, 3, 3, 4), (2, 3, 4, 2))):
        fd_check(ad.matmul, [leaf(rng, *a_shape), leaf(rng, *b_shape)])


@pytest.mark.parametrize("op, a_shape, b_shape, grad, bad", [
    (ad.add, (3, 4), (1, 4), (3, 4), (1, 4)),
    (ad.add, (4,), (3, 4), (3, 4), (4,)),
    (ad.mul, (3, 4), (3, 1), (3, 4), (3, 1)),
    (ad.mul, (1, 4), (3, 4), (3, 4), (1, 4)),
    (ad.matmul, (2, 3, 4), (4, 5), (2, 4, 5), (4, 5)),
    (ad.matmul, (3, 4), (2, 4, 5), (2, 3, 4), (3, 4)),
    (ad.matmul, (1, 3, 4), (2, 4, 5), (2, 3, 4), (1, 3, 4)),
], ids=lambda v: getattr(v, "__name__", None) or "x".join(map(str, v)))
def test_broadcast_operand_that_needs_a_gradient_raises(op, a_shape, b_shape, grad, bad):
    """The forward pass broadcasts, but backward will not sum a gradient
    down to a broadcast operand: it names both shapes."""
    rng = np.random.default_rng(13)
    out = op(leaf(rng, *a_shape), leaf(rng, *b_shape))
    with pytest.raises(ValueError, match=re.escape(
            f"gradient of shape {grad} for a tensor of shape {bad}")):
        ad.sumt(out).backward()


@pytest.mark.parametrize("also_read_directly", [False, True])
def test_node_returning_a_wrongly_shaped_gradient_raises(also_read_directly):
    """A hand-written node whose backward slips a shape fails at once,
    whether or not its input already holds a gradient it would broadcast
    into."""
    x = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    row_sums = ad._node(x.data.sum(axis=1, keepdims=True), (x,),
                        lambda g: ad._accum(x, g))
    out = ad.sumt(row_sums)
    if also_read_directly:
        out = ad.add(out, ad.sumt(x))
    with pytest.raises(ValueError, match=re.escape(
            "gradient of shape (3, 1) for a tensor of shape (3, 4)")):
        out.backward()


def test_constant_operand_gets_no_gradient():
    """A constant operand may broadcast, in ``add``, ``mul`` and ``matmul``."""
    rng = np.random.default_rng(12)
    x = leaf(rng, 2, 3, 4)
    mask = ad.Tensor(rng.normal(size=(3, 1)))
    w = ad.Tensor(rng.normal(size=(4, 5)))
    ad.sumt(ad.matmul(ad.add(ad.mul(x, mask), mask), w)).backward()
    assert mask.grad is None and w.grad is None
    want = np.broadcast_to(mask.data * w.data.sum(axis=1), x.shape)
    np.testing.assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12)


def test_sum_axis():
    rng = np.random.default_rng(3)
    a = leaf(rng, 3, 4)
    fd_check(lambda x: ad.sumt(ad.mul(x, x), axis=1), [a])


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
        y = ad.scale(x, 2.0)
    assert y._backward is None and not y.requires_grad


def test_no_grad_restores_mode_on_exception_and_when_nested():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_grad():
            raise RuntimeError("inside")
    assert ad.scale(x, 2.0).requires_grad
    with ad.no_grad():
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("nested")
        assert not ad.scale(x, 2.0).requires_grad
        with ad.no_grad():
            pass
        assert not ad.scale(x, 2.0).requires_grad
    assert ad.scale(x, 2.0).requires_grad


def test_grad_accumulates_across_uses():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1 = 5
    y.backward()
    np.testing.assert_allclose(x.grad, [5.0])


def test_second_backward_adds_first_pass_again():
    # no interior gradient carries over from the first pass
    x = ad.Tensor(np.array([0.3, -1.2, 0.7]), requires_grad=True)
    t = ad.mul(ad.mul(x, x), x)
    y = ad.sumt(ad.mul(t, t))
    y.backward()
    assert y.grad is None and t.grad is None
    first = x.grad.copy()
    y.backward()
    np.testing.assert_array_equal(x.grad, first + first)


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
    out = ad.masked_softmax(ad.scale(ad.matmul(ad.mul(x, x), w), 0.5),
                            np.ones((3, 3), bool))
    assert out.dtype == np.float32
    ad.sumt(out).backward()
    assert x.grad.dtype == np.float32 and w.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# the rewritten primitives against the formulations they replaced, bit for bit

SEEDS = st.integers(0, 2**32 - 1)
DTYPES = st.sampled_from([np.float32, np.float64])
# leading (row) shapes: one row, and many
LEADS = st.sampled_from([(1,), (1, 1), (37,), (5, 3), (3, 4, 2)])


def bit_equal(got: np.ndarray, want: np.ndarray) -> bool:
    """Same dtype, shape and NaN positions, and the same bits elsewhere, so
    -0.0 and 0.0 differ."""
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.uint8), want[~nan].view(np.uint8)))


def value_and_grad(op, data, g, *args):
    """``op(x, *args)`` and the gradient of sum(op(x) · g) by x."""
    x = ad.Tensor(data.copy(), requires_grad=True)
    out = op(x, *args)
    ad.sumt(ad.mul(out, ad.Tensor(g))).backward()
    return out.data, x.grad


def scores(rng, shape, dtype, special=0.1):
    """Scores of mixed scale, a share of them +inf, -inf or NaN."""
    x = rng.normal(size=shape) * rng.choice([0.1, 3.0, 30.0, 300.0], size=shape[:-1] + (1,))
    odd = rng.random(shape) < special
    x[odd] = rng.choice([np.inf, -np.inf, np.nan], size=np.count_nonzero(odd))
    return x.astype(dtype)


@given(SEEDS, st.integers(1, 12), LEADS, DTYPES, st.sampled_from(["none", "full", "keys"]))
@settings(max_examples=400, deadline=None)
def test_masked_softmax_equals_numpy_reductions(seed, length, lead, dtype, masking):
    """Last axes of 1-12 slots, on both sides of the 8-slot cutoff, with
    all-masked rows and ±inf and NaN scores."""
    rng = np.random.default_rng(seed)
    shape = lead + (length,)
    x = scores(rng, shape, dtype, special=rng.choice([0.0, 0.1]))
    mask = None
    if masking == "full":
        mask = rng.random(shape) < 0.7
        mask[rng.random(lead) < 0.2] = False
    elif masking == "keys":   # one key row per leading index, as attention passes it
        mask = rng.random(lead[:1] + (1,) * (len(lead) - 1) + (length,)) < 0.7
    g = rng.normal(size=shape).astype(dtype)
    g[rng.random(shape) < 0.1] = -0.0
    with np.errstate(all="ignore"):
        got = value_and_grad(ad.masked_softmax, x, g, mask)
        want = value_and_grad(masked_softmax_reductions, x, g, mask)
    assert bit_equal(got[0], want[0]) and bit_equal(got[1], want[1])


@given(SEEDS, st.sampled_from([(1,), (1, 1), (9,), (4, 5), (2, 3, 4)]), DTYPES,
       st.sampled_from(["rows", "negative", "above", "below"]))
@settings(max_examples=200, deadline=None)
def test_gather_equals_fancy_indexing(seed, shape, dtype, kind):
    """In-range indices, negative ones among them, gather the same values
    and gradients; an index past either end raises the same IndexError."""
    rng = np.random.default_rng(seed)
    v, d = (int(x) for x in rng.integers(1, [30, 6]))
    table = rng.normal(size=(v, d)).astype(dtype)
    idx = rng.integers(0 if kind == "rows" else -v, v, size=shape)
    if kind in ("above", "below"):
        bad = rng.random(shape) < 0.3
        bad.flat[rng.integers(bad.size)] = True
        reach = rng.integers(0, 3, size=np.count_nonzero(bad))
        idx[bad] = v + reach if kind == "above" else -v - 1 - reach
        with pytest.raises(IndexError) as want:
            gather_add_at(ad.Tensor(table), idx)
        with pytest.raises(IndexError) as got:
            ad.gather(ad.Tensor(table), idx)
        assert str(got.value) == str(want.value)
        return
    g = rng.normal(size=shape + (d,)).astype(dtype)
    got = value_and_grad(ad.gather, table, g, idx)
    want = value_and_grad(gather_add_at, table, g, idx)
    assert bit_equal(got[0], want[0]) and bit_equal(got[1], want[1])


@pytest.mark.parametrize("length", range(1, ad._PAIRWISE_BLOCK))
def test_numpy_sums_short_axes_left_to_right(length):
    """``ad.masked_softmax`` sums fewer than 8 slots as elementwise passes,
    assuming NumPy's ``sum(axis=-1)`` adds them left to right from +0.0. A
    NumPy that orders them otherwise fails here, not in a training loss."""
    rng = np.random.default_rng(length)
    # signed magnitudes 2^-30..2^30 cancel, so the order shows in the sums
    x = (rng.choice([-1.0, 1.0], size=(4096, length)) * rng.uniform(1, 2, size=(4096, length))
         * 2.0 ** rng.integers(-30, 31, size=(4096, length))).astype(np.float32)
    x[0] = -0.0
    x[1, 0] = -0.0
    want = np.zeros((4096, 1), dtype=np.float32)
    for j in range(length):
        want = want + x[:, j:j + 1]
    for layout in (x, x.reshape(64, 64, length), np.asfortranarray(x)):
        assert bit_equal(layout.sum(axis=-1, keepdims=True).reshape(-1, 1), want)
    assert np.signbit(want[0, 0]) == np.False_
    if length > 2:   # right to left differs, so the data tell the orders apart
        backwards = np.zeros_like(want)
        for j in reversed(range(length)):
            backwards = backwards + x[:, j:j + 1]
        assert not np.array_equal(backwards, want)
