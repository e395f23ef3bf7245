"""Dense-network, optimizer, and distribution tests."""

import numpy as np
import pytest

from maulab.config import ConfigError
from maulab.nn import (
    Categorical,
    OptimState,
    adam_step,
    backward,
    finite_diff_check,
    forward,
    mlp_init,
    softmax,
)


def test_init_deterministic_and_zero_biases():
    a = mlp_init((2, 64, 42), 123)
    b = mlp_init((2, 64, 42), 123)
    assert np.array_equal(a.flat(), b.flat())
    assert all(np.all(bias == 0.0) for bias in a.biases)
    c = mlp_init((2, 64, 42), 124)
    assert not np.array_equal(a.flat(), c.flat())


def test_init_variance_scaling():
    params = mlp_init((200, 500), 7)
    w = params.weights[0]
    # Var(U(-b, b)) = b^2/3 = 1/fan_in
    assert np.var(w) == pytest.approx(1.0 / 200, rel=0.1)
    assert np.abs(w).max() <= np.sqrt(3.0 / 200)


def test_init_validation():
    with pytest.raises(ConfigError):
        mlp_init((4,), 0)
    with pytest.raises(ConfigError):
        mlp_init((4, 0, 2), 0)


def test_forward_identity_linear_layer():
    params = mlp_init((3, 3), 0)
    params.weights[0][...] = np.eye(3)
    params.biases[0][...] = 0.0
    x = np.array([1.5, -2.0, 0.25])
    out, _ = forward(params, x)
    assert np.allclose(out, x)


def test_forward_hidden_tanh_bounded():
    params = mlp_init((1, 8, 1), 0)
    params.weights[0][...] = 1e6
    params.weights[1][...] = 1.0
    out, _ = forward(params, np.array([5.0]))
    # tanh saturates at 1, so the linear head sums at most 8 units
    assert abs(float(out[0])) <= 8.0 + 1e-9


def test_forward_batch_matches_single():
    params = mlp_init((2, 16, 4), 1)
    xs = np.random.default_rng(2).normal(size=(5, 2))
    batch_out, _ = forward(params, xs)
    for i in range(5):
        single, _ = forward(params, xs[i])
        assert np.allclose(batch_out[i], single)


def test_forward_pure():
    params = mlp_init((2, 8, 3), 3)
    before = params.flat().copy()
    forward(params, np.array([[0.3, 0.7], [0.1, 0.2]]))
    assert np.array_equal(params.flat(), before)


def test_forward_rejects_nonfinite():
    params = mlp_init((2, 3), 0)
    with pytest.raises(ValueError):
        forward(params, np.array([np.nan, 0.0]))


def test_forward_rejects_wrong_width():
    params = mlp_init((2, 3), 0)
    with pytest.raises(ConfigError):
        forward(params, np.array([1.0, 2.0, 3.0]))


def test_backward_linear_weight_gradient():
    # for a single linear layer, dL/dW = g^T x
    params = mlp_init((3, 2), 0)
    x = np.array([[1.0, 2.0, 3.0]])
    _, cache = forward(params, x)
    g = np.array([[0.5, -1.0]])
    wg, bg = backward(params, cache, g)
    assert np.allclose(wg[0], g.T @ x)
    assert np.allclose(bg[0], g[0])


def test_backward_sums_over_batch():
    params = mlp_init((2, 5, 3), 4)
    xs = np.random.default_rng(5).normal(size=(4, 2))
    gs = np.random.default_rng(6).normal(size=(4, 3))
    _, cache = forward(params, xs)
    wg, bg = backward(params, cache, gs)
    wg_sum = [np.zeros_like(w) for w in params.weights]
    bg_sum = [np.zeros_like(b) for b in params.biases]
    for i in range(4):
        _, c1 = forward(params, xs[i : i + 1])
        w1, b1 = backward(params, c1, gs[i : i + 1])
        for acc, g in zip(wg_sum, w1):
            acc += g
        for acc, g in zip(bg_sum, b1):
            acc += g
    for a, b in zip(wg, wg_sum):
        assert np.allclose(a, b)
    for a, b in zip(bg, bg_sum):
        assert np.allclose(a, b)


def test_finite_diff_regression_loss():
    rng = np.random.default_rng(11)
    params = mlp_init((3, 8, 2), rng)
    xs = rng.normal(size=(6, 3))
    ys = rng.normal(size=(6, 2))

    def loss_fn(p):
        out, _ = forward(p, xs)
        return float(0.5 * np.sum((out - ys) ** 2))

    out, cache = forward(params, xs)
    grads = backward(params, cache, out - ys)
    err = finite_diff_check(params, loss_fn, grads, rng, n_samples=40)
    assert err < 1e-6


def test_adam_zero_gradient_is_noop():
    x = np.array([1.0, 2.0, 3.0])
    opt = OptimState(lr=0.1)
    adam_step([x], [np.zeros(3)], opt)
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_adam_skips_nonfinite_gradients():
    x = np.array([1.0, 2.0])
    opt = OptimState(lr=0.1)
    with pytest.warns(RuntimeWarning):
        adam_step([x], [np.array([np.nan, 1.0])], opt)
    assert np.array_equal(x, [1.0, 2.0])
    assert opt.step == 0


def test_adam_first_step_size():
    # bias correction makes the first step approximately lr * sign(g)
    x = np.array([0.0])
    opt = OptimState(lr=0.05)
    adam_step([x], [np.array([3.0])], opt)
    assert x[0] == pytest.approx(-0.05, rel=1e-6)


def test_adam_minimizes_quadratic_bowl():
    target = np.array([2.0, -3.0, 0.5])
    x = np.zeros(3)
    opt = OptimState(lr=0.05)
    for _ in range(500):
        adam_step([x], [2.0 * (x - target)], opt)
    assert np.max(np.abs(x - target)) < 0.01


def test_softmax_shift_invariance_and_normalization():
    logits = np.random.default_rng(8).normal(size=(4, 7))
    p1 = softmax(logits)
    p2 = softmax(logits + 123.0)
    assert np.allclose(p1, p2, atol=1e-12)
    assert np.allclose(p1.sum(axis=-1), 1.0, atol=1e-12)


def test_categorical_entropy_uniform_and_degenerate():
    uni = Categorical(np.zeros(21))
    assert float(uni.entropy()) == pytest.approx(np.log(21), abs=1e-12)
    deg = Categorical(np.array([100.0, 0.0, 0.0]))
    assert float(deg.entropy()) == pytest.approx(0.0, abs=1e-12)


def test_categorical_log_prob_oracle():
    logits = np.array([0.3, -1.2, 2.0, 0.0])
    dist = Categorical(logits)
    z = np.exp(logits).sum()
    for a in range(4):
        assert float(dist.log_prob(a)) == pytest.approx(
            logits[a] - np.log(z), abs=1e-12
        )
    assert np.allclose(dist.probs.sum(), 1.0, atol=1e-12)


def test_categorical_rejects_nonfinite():
    with pytest.raises(ValueError):
        Categorical(np.array([np.inf, 0.0]))


def test_categorical_sampling_deterministic_and_distributed():
    logits = np.log(np.array([0.5, 0.3, 0.2]))
    dist = Categorical(logits)
    a = [dist.sample(np.random.default_rng(9)) for _ in range(20)]
    b = [dist.sample(np.random.default_rng(9)) for _ in range(20)]
    assert a == b
    rng = np.random.default_rng(10)
    draws = np.array([dist.sample(rng) for _ in range(6000)])
    freq = np.bincount(draws, minlength=3) / draws.size
    assert np.allclose(freq, [0.5, 0.3, 0.2], atol=0.03)


def test_categorical_batched_shapes():
    logits = np.random.default_rng(12).normal(size=(4, 2, 5))
    dist = Categorical(logits)
    actions = np.zeros((4, 2), dtype=int)
    assert dist.log_prob(actions).shape == (4, 2)
    assert dist.entropy().shape == (4, 2)
    samples = dist.sample(np.random.default_rng(0))
    assert np.asarray(samples).shape == (4, 2)


def test_params_flat_roundtrip():
    params = mlp_init((2, 4, 3), 13)
    vec = params.flat().copy()
    other = mlp_init((2, 4, 3), 14)
    other.set_flat(vec)
    assert np.array_equal(other.flat(), vec)


def test_params_copy_independent():
    params = mlp_init((2, 3), 15)
    clone = params.copy()
    clone.weights[0][...] = 0.0
    assert not np.array_equal(params.weights[0], clone.weights[0])
