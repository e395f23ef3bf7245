"""Minimal dense-network machinery: MLP forward/backward, adaptive-moment
optimizer, categorical distributions, and a finite-difference gradient check.

Everything is double precision. Each network lives in one float64 vector, and
its per-layer arrays are views of it, so checkpointing and bit-exact replay
stay trivial and Adam updates the whole network in one pass.
"""

from __future__ import annotations

import math

import numpy as np

from maulab.config import ConfigError

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def layer_views(layout: tuple[int, ...], vec: np.ndarray) -> list[np.ndarray]:
    """The arrays of an MLP over `layout` as reshaped views of consecutive
    slices of one vector: every weight (out, in) first, then every bias (out,)."""
    pairs = list(zip(layout[:-1], layout[1:]))
    shapes = [(fan_out, fan_in) for fan_in, fan_out in pairs] + [(fan_out,) for _, fan_out in pairs]
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(vec[start:stop].reshape(shape))
        start = stop
    return views


class MlpParams:
    """A fixed-topology tanh MLP with a linear output head, held in one
    float64 vector `vec`; `weights` (each (out, in)) and `biases` (each (out,))
    are views of it. Gradients and Adam moments use vectors of the same layout."""

    def __init__(self, layout: tuple[int, ...], vec: np.ndarray):
        self.layout = layout
        self.vec = vec
        arrays = layer_views(layout, vec)
        self.weights, self.biases = arrays[: len(layout) - 1], arrays[len(layout) - 1 :]

    def copy(self) -> "MlpParams":
        return MlpParams(self.layout, self.vec.copy())

    def __deepcopy__(self, memo) -> "MlpParams":
        # numpy would deep-copy each view on its own, apart from the copied `vec`.
        return self.copy()


def mlp_init(layout, seed_or_rng) -> MlpParams:
    """Scaled-uniform fan-in init: W ~ U(-sqrt(3/fan_in), sqrt(3/fan_in)) so
    Var(W) = 1/fan_in; biases start at 0."""
    layout = tuple(int(w) for w in layout)
    if len(layout) < 2:
        raise ConfigError("MLP layout needs at least input and output widths")
    if any(w <= 0 for w in layout):
        raise ConfigError("MLP layer widths must be positive")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layout[:-1], layout[1:]))
    params = MlpParams(layout, np.zeros(size))
    for W in params.weights:
        bound = np.sqrt(3.0 / W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Batch forward pass. x is (batch, in) or (in,); returns (output, cache), where
    the cache holds each layer's input. A stack of rows (batch, 1, in) gives each row
    the bits of a call on it alone; (batch, in) may not."""
    squeeze = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=float))
    if h.shape[-1] != params.layout[0]:
        raise ConfigError(f"input width {h.shape[-1]} != layout input {params.layout[0]}")
    cache = []
    last = len(params.weights) - 1
    for li, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T
        z += b  # in place: one block-sized array fewer
        cache.append(h)
        h = np.tanh(z) if li < last else z
    out = h[0] if squeeze else h
    return out, cache


def backward(params: MlpParams, cache: list, grad_out: np.ndarray) -> MlpParams:
    """Exact reverse-mode gradients for the forward pass above, summed over
    the batch, written into a fresh vector of the network's layout."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    grads = MlpParams(params.layout, np.empty_like(params.vec))
    last = len(params.weights) - 1
    for li in range(last, -1, -1):
        h_in, out_shape = cache[li], (len(cache[li]), params.layout[li + 1])
        if li < last:
            g = g * (1.0 - cache[li + 1] ** 2)  # tanh'(z) from tanh(z), the next layer's input
        if g.shape != out_shape:
            raise ConfigError(f"gradient shape {g.shape} != layer output {out_shape}")
        np.matmul(g.T, h_in, out=grads.weights[li])
        g.sum(axis=0, out=grads.biases[li])
        if li:
            g = g @ params.weights[li]
    return grads


class OptimState:
    """Adam's learning rate, step count and moment vectors `m` and `v` for one
    network; the moments have the network's layout and start at zero."""

    def __init__(self, params: MlpParams, lr: float):
        self.lr = lr
        self.step = 0
        self.m = np.zeros_like(params.vec)
        self.v = np.zeros_like(params.vec)


def adam_step_params(params: MlpParams, grads: MlpParams, opt: OptimState) -> None:
    """One bias-corrected adaptive-moment descent step on the whole parameter
    vector, in place."""
    g = grads.vec
    opt.step += 1
    b1c = 1.0 - BETA1**opt.step
    b2c = 1.0 - BETA2**opt.step
    # m = BETA1*m + (1-BETA1)*g, v = BETA2*v + ((1-BETA2)*g)*g, and
    # vec -= lr*(m/b1c) / (sqrt(v/b2c) + EPS), one rounding at a time in that order.
    m, v = opt.m, opt.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    t = (1.0 - BETA2) * g
    t *= g
    v += t
    den = np.divide(v, b2c, out=t)
    np.sqrt(den, out=den)
    den += EPS
    delta = m / b1c
    delta *= opt.lr
    delta /= den
    params.vec -= delta


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis."""
    logits = np.asarray(logits, dtype=float)
    z = logits - logits.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def sample_categorical(log_probs: np.ndarray, u) -> np.ndarray:
    """One index per row of `log_probs` (over the last axis) by inverse CDF
    from `u`, one uniform per row: the count of the row's CDF values below
    its uniform. A row's CDF has the same bits whatever the other rows."""
    cdf = np.exp(log_probs)
    np.cumsum(cdf, axis=-1, out=cdf)
    return (np.asarray(u)[..., None] > cdf).sum(axis=-1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Categorical:
    """Categorical distribution over the last axis of a logits array."""

    def __init__(self, logits: np.ndarray):
        self.log_probs = log_softmax(logits)
        self.probs = np.exp(self.log_probs)

    def sample(self, rng: np.random.Generator):
        idx = sample_categorical(self.log_probs, rng.random(self.log_probs.shape[:-1]))
        return int(idx) if idx.ndim == 0 else idx

    def log_prob(self, actions):
        a = np.asarray(actions, dtype=int)
        return np.take_along_axis(self.log_probs, a[..., None], axis=-1)[..., 0]

    def entropy(self):
        return -(self.probs * self.log_probs).sum(axis=-1)


def finite_diff_check(
    params: MlpParams,
    loss_fn,
    analytic_grads: MlpParams,
    rng: np.random.Generator,
    n_samples: int = 30,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central differences
    on a random subset of parameter coordinates.

    loss_fn(params) must return the scalar loss; analytic_grads is the
    gradient produced by the implementation under test.
    """
    grad = analytic_grads.vec
    n = params.vec.size
    idxs = rng.choice(n, size=min(n_samples, n), replace=False)
    scale = max(np.abs(grad).max(), 1e-8)
    worst = 0.0
    work = params.copy()
    for i in idxs:
        work.vec[i] = params.vec[i] + h
        lp = loss_fn(work)
        work.vec[i] = params.vec[i] - h
        lm = loss_fn(work)
        work.vec[i] = params.vec[i]
        fd = (lp - lm) / (2.0 * h)
        err = abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), scale * 1e-3)
        worst = max(worst, err)
    return worst
