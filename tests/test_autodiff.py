"""Tests for the reverse-mode autodiff core.

Analytic gradients are checked against central finite differences
computed by forward-only evaluation, plus hand-derived closed forms
for the textbook cases.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tagparse import autodiff as ad

from tests.oracles import (affine, finite_diff_check, matmul, mul, sigmoid, transpose,
                           tsum)


def test_softmax_symmetry():
    out = ad.softmax(ad.tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_normalized_and_nonnegative():
    rng = np.random.default_rng(42)
    for _ in range(100):
        x = rng.normal(scale=5.0, size=(rng.integers(1, 6), rng.integers(2, 9)))
        out = ad.softmax(ad.tensor(x)).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    out = matmul(ad.tensor(np.eye(2)), ad.tensor(a))
    np.testing.assert_allclose(out.data, a)


def test_matmul_shape_mismatch_message():
    with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))


def test_add_shape_mismatch_message():
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(3, 2\)"):
        ad.add(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((3, 2))))


def test_cross_entropy_softmax_gradient_closed_form():
    # d/dlogits of CE(softmax(logits), onehot) is softmax(logits) - onehot.
    rng = np.random.default_rng(7)
    logits = ad.parameter(rng.normal(size=(1, 5)), "logits")
    onehot = np.zeros((1, 5))
    onehot[0, 2] = 1.0
    probs = ad.softmax(logits)
    loss = ad.cross_entropy(probs, onehot)
    g = ad.backward(loss, [logits])[logits]
    np.testing.assert_allclose(g, probs.data - onehot, atol=1e-12)
    err = finite_diff_check(
        lambda: ad.cross_entropy(ad.softmax(logits), onehot),
        [logits], num_coords=5, rng=np.random.default_rng(1))
    assert err <= 1e-6


def test_backward_square():
    x = ad.parameter(np.array(3.0), "x")
    y = mul(x, x)
    g = ad.backward(y, [x])[x]
    np.testing.assert_allclose(g, 6.0)


def test_backward_tanh_at_zero():
    x = ad.parameter(np.array(0.0), "x")
    g = ad.backward(ad.tanh(x), [x])[x]
    np.testing.assert_allclose(g, 1.0)


def test_random_three_layer_composition_matches_finite_differences():
    rng = np.random.default_rng(42)
    w1 = ad.parameter(rng.normal(size=(4, 3)), "w1")
    w2 = ad.parameter(rng.normal(size=(4, 4)), "w2")
    w3 = ad.parameter(rng.normal(size=(2, 4)), "w3")
    b = ad.parameter(rng.normal(size=(1, 4)), "b")
    x = ad.tensor(rng.normal(size=(1, 3)))
    target = np.array([[0.0, 1.0]])

    def loss():
        h1 = ad.tanh(matmul(x, transpose(w1)))
        h2 = sigmoid(ad.add(matmul(h1, transpose(w2)), b))
        return ad.cross_entropy(ad.softmax(matmul(h2, transpose(w3))), target)

    err = finite_diff_check(loss, [w1, w2, w3, b], num_coords=40,
                            rng=np.random.default_rng(3))
    assert err <= 1e-6


def test_every_op_gradient_against_finite_differences():
    """One composed graph exercising every differentiable op."""
    rng = np.random.default_rng(11)
    table = ad.parameter(rng.normal(size=(6, 3)), "table")
    w = ad.parameter(rng.normal(size=(4, 3)), "w")
    b = ad.parameter(rng.normal(size=4), "b")
    u = ad.parameter(rng.normal(size=(4, 4)), "u")
    v = ad.parameter(rng.normal(size=(3, 4)), "v")
    ids = np.array([0, 2, 2, 5])
    weights = rng.uniform(0.1, 1.0, size=(4, 3))

    def loss():
        e = ad.embedding(table, ids)                      # (4, 3)
        h = ad.tanh(ad.linear(e, w, b))                   # (4, 4)
        s = sigmoid(ad.add(h, mul(matmul(h, transpose(u)), -0.5)))
        top = ad.embedding(s, [0, 1])
        bottom = ad.embedding(s, [2, 3])
        merged = ad.concat([top, bottom], axis=0)
        wide = ad.concat([merged, mul(merged, merged)], axis=1)  # (4, 8)
        trimmed = ad.cols(wide, 1, 5)
        p = ad.softmax(ad.linear(trimmed, v))             # (4, 3)
        ce = ad.cross_entropy(p, weights)
        return ad.add(ce, mul(tsum(wide), 0.01))

    err = finite_diff_check(loss, [table, w, b, u, v], num_coords=50,
                            rng=np.random.default_rng(5))
    assert err <= 1e-5


@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5), ins=st.integers(1, 6),
       outs=st.integers(1, 6), bias=st.booleans())
def test_linear_matches_transpose_matmul_add_chain(seed, rows, ins, outs, bias):
    rng = np.random.default_rng(seed)
    x = ad.parameter(rng.normal(size=(rows, ins)), "x")
    w = ad.parameter(rng.normal(size=(outs, ins)), "w")
    b = ad.parameter(rng.normal(size=outs), "b") if bias else None
    weights = rng.normal(size=(rows, outs))
    got, want = ad.linear(x, w, b), affine(x, w, b)
    np.testing.assert_array_equal(got.data, want.data)
    params = [x, w] + ([b] if bias else [])
    grads = ad.backward(tsum(mul(got, weights)), params)
    oracle = ad.backward(tsum(mul(want, weights)), params)
    for p in params:
        scale = np.abs(oracle[p]).max()
        assert np.abs(grads[p] - oracle[p]).max() <= 1e-12 * scale, p.name


@pytest.mark.parametrize("x, w, b", [
    (np.ones(3), np.ones((2, 3)), None),            # 1-d input
    (np.ones((4, 3)), np.ones(3), None),            # 1-d weights
    (np.ones((4, 3)), np.ones((2, 4)), None),       # inner sizes differ
    (np.ones((4, 3)), np.ones((2, 3)), np.ones(3)),  # bias of the wrong length
    (np.ones((4, 3)), np.ones((2, 3)), np.ones((1, 2))),  # 2-d bias
])
def test_linear_rejects_mismatched_shapes(x, w, b):
    with pytest.raises(ad.ShapeError, match="linear: "):
        ad.linear(x, w, b)


def test_sum_of_two_graph_copies_doubles_gradient():
    rng = np.random.default_rng(2)
    w = ad.parameter(rng.normal(size=(3, 3)), "w")
    x = ad.tensor(rng.normal(size=(1, 3)))

    def one_copy():
        return tsum(ad.tanh(matmul(x, w)))

    g1 = ad.backward(one_copy(), [w])[w]
    g2 = ad.backward(ad.add(one_copy(), one_copy()), [w])[w]
    np.testing.assert_array_equal(g2, 2.0 * g1)


def test_unreachable_parameter_gets_zero_gradient():
    used = ad.parameter(np.ones((2, 2)), "used")
    unused = ad.parameter(np.ones((2, 2)), "unused")
    loss = tsum(used)
    grads = ad.backward(loss, [used, unused])
    np.testing.assert_array_equal(grads[unused], np.zeros((2, 2)))
    np.testing.assert_array_equal(grads[used], np.ones((2, 2)))


def test_non_scalar_root_rejected():
    w = ad.parameter(np.ones((2, 2)), "w")
    with pytest.raises(ad.ShapeError, match="scalar"):
        ad.backward(mul(w, 2.0), [w])


def test_embedding_repeated_ids_accumulate():
    table = ad.parameter(np.zeros((3, 2)), "table")
    out = ad.embedding(table, [1, 1, 1])
    g = ad.backward(tsum(out), [table])[table]
    np.testing.assert_array_equal(g, [[0, 0], [3, 3], [0, 0]])


def test_embedding_out_of_range():
    table = ad.parameter(np.zeros((3, 2)), "table")
    with pytest.raises(IndexError):
        ad.embedding(table, [0, 3])


def test_broadcast_bias_gradient_sums_over_rows():
    w = ad.parameter(np.zeros(4), "b")
    x = ad.tensor(np.ones((3, 4)))
    g = ad.backward(tsum(ad.add(x, w)), [w])[w]
    np.testing.assert_array_equal(g, [3.0, 3.0, 3.0, 3.0])


def test_no_grad_skips_graph_recording():
    w = ad.parameter(np.ones((2, 2)), "w")
    with ad.no_grad():
        out = matmul(w, w)
    assert out.parents == ()
    assert not out.needs_grad
    assert matmul(w, w).needs_grad          # recording resumes on exit


def test_cross_entropy_floor_blocks_log_underflow():
    probs = ad.tensor(np.array([[1.0, 0.0]]))
    loss = ad.cross_entropy(probs, np.array([[0.0, 1.0]]))
    assert np.isfinite(loss.data)
    np.testing.assert_allclose(loss.data, -np.log(1e-12))


def test_glorot_bounds_and_determinism():
    shape = (30, 20)
    limit = np.sqrt(6.0 / 50.0)
    a = ad.glorot(np.random.default_rng(9), shape)
    b = ad.glorot(np.random.default_rng(9), shape)
    assert np.abs(a).max() <= limit
    np.testing.assert_array_equal(a, b)
