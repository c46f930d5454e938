"""Adam optimizer and gradient clipping."""

import numpy as np
import pytest

from tagparse import autodiff as ad
from tagparse.optim import Adam, OptimizerError, clip_global_norm

from tests.oracles import matmul


def test_zero_gradient_leaves_parameters_unchanged():
    p = ad.parameter(np.array([1.0, -2.0]), "p")
    opt = Adam([p], lr=0.1)
    opt.step({p: np.zeros(2)})
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_single_step_hand_value():
    # m_hat = v_hat = 1 after one step with grad 1, so the update is
    # -lr / (1 + eps), about -0.001.
    p = ad.parameter(np.array(0.0), "p")
    opt = Adam([p], lr=0.001)
    opt.step({p: np.array(1.0)})
    np.testing.assert_allclose(p.data, -0.001, rtol=1e-7)
    assert opt.t == 1


def test_two_steps_decrease_convex_quadratic():
    p = ad.parameter(np.array(3.0), "p")
    opt = Adam([p], lr=0.05)

    def loss_and_grad():
        return float(p.data) ** 2, {p: 2.0 * p.data}

    l0, g = loss_and_grad()
    opt.step(g)
    l1, g = loss_and_grad()
    opt.step(g)
    l2, _ = loss_and_grad()
    assert l2 < l1 < l0


def test_nan_gradient_aborts_naming_parameter():
    p = ad.parameter(np.zeros(2), "emb.words")
    opt = Adam([p])
    with pytest.raises(OptimizerError, match="emb.words"):
        opt.step({p: np.array([np.nan, 0.0])})
    with pytest.raises(OptimizerError, match="emb.words"):
        opt.step({p: np.array([np.inf, 0.0])})


def test_clip_global_norm_joint_over_parameters():
    a = ad.parameter(np.zeros(3), "a")
    b = ad.parameter(np.zeros(4), "b")
    grads = {a: np.full(3, 10.0), b: np.full(4, 10.0)}
    pre = clip_global_norm(grads, 5.0)
    np.testing.assert_allclose(pre, np.sqrt(700.0))
    post = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    np.testing.assert_allclose(post, 5.0)
    # Direction is preserved.
    np.testing.assert_allclose(grads[a] / grads[b][0], np.ones(3))


@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_step_returns_the_norm_before_clipping(scale):
    a, b = ad.parameter(np.zeros(3), "a"), ad.parameter(np.zeros(4), "b")
    grads = {a: np.full(3, scale), b: np.full(4, scale)}
    assert Adam([a, b]).step(grads) == pytest.approx(scale * np.sqrt(7.0), rel=1e-15)


def test_clip_noop_when_under_threshold():
    a = ad.parameter(np.zeros(2), "a")
    grads = {a: np.array([0.3, 0.4])}
    clip_global_norm(grads, 5.0)
    np.testing.assert_array_equal(grads[a], [0.3, 0.4])


def test_adam_descends_through_backward_gradients():
    rng = np.random.default_rng(42)
    w = ad.parameter(rng.normal(size=(3, 3)), "w")
    x = ad.tensor(rng.normal(size=(1, 3)))
    target = np.array([[1.0, 0.0, 0.0]])
    opt = Adam([w], lr=0.01)

    def loss():
        return ad.cross_entropy(ad.softmax(matmul(x, w)), target)

    start = float(loss().data)
    for _ in range(25):
        l = loss()
        opt.step(ad.backward(l, [w]))
    assert float(loss().data) < start
