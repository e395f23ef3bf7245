"""Dense-network, optimizer, and distribution tests."""

import numpy as np
import pytest

from maulab.config import ConfigError
from maulab.nn import (
    Categorical,
    MlpParams,
    OptimState,
    adam_step_params,
    backward,
    finite_diff_check,
    forward,
    mlp_init,
    softmax,
)


def test_init_deterministic_and_zero_biases():
    a = mlp_init((2, 64, 42), 123)
    b = mlp_init((2, 64, 42), 123)
    assert np.array_equal(a.vec, b.vec)
    assert all(np.all(bias == 0.0) for bias in a.biases)
    c = mlp_init((2, 64, 42), 124)
    assert not np.array_equal(a.vec, c.vec)


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
    before = params.vec.copy()
    forward(params, np.array([[0.3, 0.7], [0.1, 0.2]]))
    assert np.array_equal(params.vec, before)


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
    grads = backward(params, cache, g)
    assert np.allclose(grads.weights[0], g.T @ x)
    assert np.allclose(grads.biases[0], g[0])


def test_backward_sums_over_batch():
    params = mlp_init((2, 5, 3), 4)
    xs = np.random.default_rng(5).normal(size=(4, 2))
    gs = np.random.default_rng(6).normal(size=(4, 3))
    _, cache = forward(params, xs)
    grads = backward(params, cache, gs)
    wg_sum = [np.zeros_like(w) for w in params.weights]
    bg_sum = [np.zeros_like(b) for b in params.biases]
    for i in range(4):
        _, c1 = forward(params, xs[i : i + 1])
        one = backward(params, c1, gs[i : i + 1])
        for acc, g in zip(wg_sum, one.weights):
            acc += g
        for acc, g in zip(bg_sum, one.biases):
            acc += g
    for a, b in zip(grads.weights, wg_sum):
        assert np.allclose(a, b)
    for a, b in zip(grads.biases, bg_sum):
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


def _grads(params, g):
    return MlpParams(params.layout, np.asarray(g, dtype=float))


def test_adam_zero_gradient_is_noop():
    params = MlpParams((2, 1), np.array([1.0, 2.0, 3.0]))
    opt = OptimState(params, lr=0.1)
    adam_step_params(params, _grads(params, np.zeros(3)), opt)
    assert np.array_equal(params.vec, [1.0, 2.0, 3.0])


def test_adam_first_step_size():
    # bias correction makes the first step approximately lr * sign(g)
    params = MlpParams((1, 1), np.zeros(2))
    opt = OptimState(params, lr=0.05)
    adam_step_params(params, _grads(params, [3.0, -3.0]), opt)
    assert params.vec[0] == pytest.approx(-0.05, rel=1e-6)
    assert params.vec[1] == pytest.approx(0.05, rel=1e-6)


def test_adam_minimizes_quadratic_bowl():
    target = np.array([2.0, -3.0, 0.5])
    params = MlpParams((2, 1), np.zeros(3))
    opt = OptimState(params, lr=0.05)
    for _ in range(500):
        adam_step_params(params, _grads(params, 2.0 * (params.vec - target)), opt)
    assert np.max(np.abs(params.vec - target)) < 0.01


def _reference_adam(arrays, grads, ms, vs, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as one formula per array, as it was written before the networks
    became one vector."""
    b1c = 1.0 - beta1**step
    b2c = 1.0 - beta2**step
    for a, g, m, v in zip(arrays, grads, ms, vs):
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * g * g
        a -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)


@pytest.mark.parametrize("layout", [(2, 64, 64, 231), (2, 64, 64, 1)])
def test_adam_bit_equal_to_per_array_reference(layout):
    rng = np.random.default_rng(21)
    params = mlp_init(layout, rng)
    opt = OptimState(params, lr=1e-3)
    arrays = [a.copy() for a in params.weights + params.biases]
    ms = [np.zeros_like(a) for a in arrays]
    vs = [np.zeros_like(a) for a in arrays]
    for step in range(1, 301):
        # magnitudes spread log-uniformly over 1e-8 .. 1e2, random signs
        g = rng.choice([-1.0, 1.0], size=params.vec.size) * 10.0 ** rng.uniform(-8, 2, size=params.vec.size)
        grads = _grads(params, g)
        adam_step_params(params, grads, opt)
        _reference_adam(arrays, grads.weights + grads.biases, ms, vs, step, opt.lr)
    assert opt.step == 300
    flat = lambda xs: np.concatenate([x.ravel() for x in xs])
    assert np.array_equal(params.vec, flat(arrays))
    assert np.array_equal(opt.m, flat(ms))
    assert np.array_equal(opt.v, flat(vs))


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


def test_params_arrays_are_views_of_one_vector():
    params = mlp_init((2, 4, 3), 13)
    params.weights[1][2, 0] = 7.5
    params.biases[0][3] = -1.25
    # weights first, each (out, in) row-major, then biases
    assert params.vec[2 * 4 + 2 * 4 + 0] == 7.5
    assert params.vec[2 * 4 + 4 * 3 + 3] == -1.25
    clone = params.copy()
    clone.vec[...] = 0.0
    assert np.all(clone.weights[1] == 0.0)
    assert params.weights[1][2, 0] == 7.5
    # gradient views hold each layer's g^T h and g summed over the batch
    xs = np.random.default_rng(14).normal(size=(5, 2))
    gs = np.random.default_rng(15).normal(size=(5, 3))
    out, cache = forward(params, xs)
    grads = backward(params, cache, gs)
    assert grads.layout == params.layout and grads.vec.shape == params.vec.shape
    g = gs
    for li in (1, 0):
        h_in = cache[li]  # each layer's input
        if li == 0:
            z = xs @ params.weights[0].T + params.biases[0]
            g = (g @ params.weights[1]) * (1.0 - np.tanh(z) ** 2)
        assert np.array_equal(grads.weights[li], g.T @ h_in)
        assert np.array_equal(grads.biases[li], g.sum(axis=0))


def test_params_copy_independent():
    params = mlp_init((2, 3), 15)
    clone = params.copy()
    clone.weights[0][...] = 0.0
    assert not np.array_equal(params.weights[0], clone.weights[0])
