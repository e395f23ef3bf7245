"""Minimal dense-network machinery: MLP forward/backward, adaptive-moment
optimizer, softmax and its sampling, and a finite-difference gradient check.

Everything is double precision. Each network lives in one float64 vector, and
its per-layer arrays are views of it, so checkpointing and bit-exact replay
stay trivial and Adam updates the whole network in one pass.
"""

from __future__ import annotations

import math

import numpy as np

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
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layout[:-1], layout[1:]))
    params = MlpParams(layout, np.zeros(size))
    for W in params.weights:
        bound = np.sqrt(3.0 / W.shape[1])
        W[...] = rng.uniform(-bound, bound, size=W.shape)
    return params


def trunk_forward(params: MlpParams, x: np.ndarray) -> list:
    """The hidden layers' pass over x, (batch, in) or (in,): the input of every
    layer as a 2-D or stacked array, the head's (the last hidden state) last."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    cache = [h]
    for W, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ W.T
        z += b  # in place: one block-sized array fewer
        h = np.tanh(z)
        cache.append(h)
    return cache


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Batch forward pass. x is (batch, in) or (in,); returns (output, cache), where
    the cache holds each layer's input. A stack of rows (batch, 1, in) gives each row
    the bits of a call on it alone; (batch, in) may not."""
    cache = trunk_forward(params, x)
    out = cache[-1] @ params.weights[-1].T
    out += params.biases[-1]
    return (out[0] if x.ndim == 1 else out), cache


def trunk_backward(params: MlpParams, cache: list, g: np.ndarray, grads: MlpParams) -> MlpParams:
    """Backprop through the hidden layers from g, the batch's gradient at the
    last hidden state, writing their gradients into `grads`; returns `grads`."""
    for li in range(len(params.weights) - 2, -1, -1):
        g = g * (1.0 - cache[li + 1] ** 2)  # tanh'(z) from tanh(z), the next layer's input
        np.matmul(g.T, cache[li], out=grads.weights[li])
        g.sum(axis=0, out=grads.biases[li])
        if li:
            g = g @ params.weights[li]
    return grads


def backward(params: MlpParams, cache: list, grad_out: np.ndarray) -> MlpParams:
    """Exact reverse-mode gradients for the forward pass above, summed over
    the batch, written into a fresh vector of the network's layout."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    h = cache[-1]
    grads = MlpParams(params.layout, np.empty_like(params.vec))
    np.matmul(g.T, h, out=grads.weights[-1])
    g.sum(axis=0, out=grads.biases[-1])
    if len(params.weights) > 1:
        trunk_backward(params, cache, g @ params.weights[-1], grads)
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
    its uniform, the last left out, so that a float CDF ending below 1 still
    gives an index under the row length. A row's CDF has the same bits
    whatever the other rows."""
    cdf = np.exp(log_probs)
    np.cumsum(cdf, axis=-1, out=cdf)
    return (np.asarray(u)[..., None] > cdf[..., :-1]).sum(axis=-1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probabilities over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


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
