"""Adam optimizer and gradient clipping."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tagparse import autodiff as ad
from tagparse.optim import Adam, OptimizerError

from tests.oracles import TwoPassAdam, matmul


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
    # one step's first moment is (1 - b1) times the clipped gradient
    a = ad.parameter(np.zeros(3), "a")
    b = ad.parameter(np.zeros(4), "b")
    grads = {a: np.full(3, 10.0), b: np.full(4, 10.0)}
    opt = Adam([a, b])
    pre = opt.step(grads)
    np.testing.assert_allclose(pre, np.sqrt(700.0))
    clipped = [opt._m[id(p)] / (1.0 - opt.beta1) for p in (a, b)]
    post = np.sqrt(sum(float((g * g).sum()) for g in clipped))
    np.testing.assert_allclose(post, 5.0)
    # Direction is preserved, and the caller's gradients are left alone.
    np.testing.assert_allclose(clipped[0] / clipped[1][0], np.ones(3))
    np.testing.assert_array_equal(grads[a], np.full(3, 10.0))


@pytest.mark.parametrize("scale", [0.1, 10.0])
def test_step_returns_the_norm_before_clipping(scale):
    a, b = ad.parameter(np.zeros(3), "a"), ad.parameter(np.zeros(4), "b")
    grads = {a: np.full(3, scale), b: np.full(4, scale)}
    assert Adam([a, b]).step(grads) == pytest.approx(scale * np.sqrt(7.0), rel=1e-15)


def test_clip_noop_when_under_threshold():
    a = ad.parameter(np.zeros(2), "a")
    opt = Adam([a])
    opt.step({a: np.array([0.3, 0.4])})
    np.testing.assert_array_equal(opt._m[id(a)], (1.0 - opt.beta1) * np.array([0.3, 0.4]))


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


def moments(opt, p):
    return opt._m[id(p)], opt._v[id(p)]


def state(opt):
    return [(p.data.copy(), *(x.copy() for x in moments(opt, p))) for p in opt.params]


def assert_same_state(got, want):
    for got_arrays, want_arrays in zip(got, want):
        for g, w in zip(got_arrays, want_arrays):
            assert np.array_equal(g, w)


shapes = st.lists(st.sampled_from([(), (1,), (3,), (2, 3), (4, 1)]), min_size=1, max_size=4)


@given(seed=st.integers(0, 2 ** 32 - 1), shapes=shapes, steps=st.integers(1, 6),
       scale=st.sampled_from([1e-3, 0.5, 3.0, 1e2, 1e6, 1e200]),
       poison=st.sampled_from([None, np.nan, np.inf, -np.inf]))
@example(seed=0, shapes=[(3,), (2, 3)], steps=2, scale=1e200, poison=None)
@example(seed=1, shapes=[(3,), (2, 3)], steps=1, scale=0.5, poison=np.nan)
@example(seed=2, shapes=[(3,), (2, 3)], steps=1, scale=0.5, poison=np.inf)
def test_step_is_bit_identical_to_the_two_pass_oracle(seed, shapes, steps, scale, poison):
    # scales below and above the clip norm of 5 leave clipping idle and firing;
    # at 1e200 the squares overflow, so the norm is infinite and the clip scale 0,
    # and numpy warns of the overflow
    overflow = (pytest.warns(RuntimeWarning, match="overflow") if scale == 1e200
                else contextlib.nullcontext())
    with overflow:
        rng = np.random.default_rng(seed)
        initial = [rng.normal(size=shape) for shape in shapes]
        opt = Adam([ad.parameter(np.array(x), f"p{k}") for k, x in enumerate(initial)], lr=0.01)
        oracle = TwoPassAdam([ad.parameter(np.array(x), f"p{k}") for k, x in enumerate(initial)],
                             lr=0.01)

        def step(optimizer, grads):
            return optimizer.step({p: g.copy() for p, g in zip(optimizer.params, grads)})

        for _ in range(steps):
            grads = [np.array(scale * rng.normal(size=shape)) for shape in shapes]
            assert step(opt, grads) == step(oracle, grads)
            assert_same_state(state(opt), state(oracle))
        if poison is None:
            return
        # a NaN or infinite entry in some parameters' gradients names the first of them
        grads = [np.array(scale * rng.normal(size=shape)) for shape in shapes]
        bad = np.sort(rng.choice(len(shapes), size=rng.integers(1, len(shapes) + 1),
                                 replace=False))
        for k in bad:
            grads[k].reshape(-1)[rng.integers(grads[k].size)] = poison
        before = state(opt)
        for optimizer in (opt, oracle):
            with pytest.raises(OptimizerError,
                               match=f"parameter 'p{bad[0]}' at step {steps + 1}$"):
                step(optimizer, grads)
            assert optimizer.t == steps
        assert_same_state(state(opt), before)
        assert_same_state(state(oracle), before)

