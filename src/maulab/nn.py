"""Minimal dense-network machinery: MLP forward/backward, adaptive-moment
optimizer, categorical distributions, and a finite-difference gradient check.

Everything is double precision. Parameters live in plain numpy arrays so
checkpointing and bit-exact replay stay trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from maulab.config import ConfigError


@dataclass
class MlpParams:
    """Weights/biases for a fixed-topology tanh MLP with linear output head."""

    layout: tuple[int, ...]
    weights: list[np.ndarray]  # each (out, in)
    biases: list[np.ndarray]  # each (out,)

    def copy(self) -> "MlpParams":
        return MlpParams(self.layout, [w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.weights + self.biases])

    def set_flat(self, vec: np.ndarray) -> None:
        i = 0
        for arr in self.weights + self.biases:
            arr[...] = vec[i : i + arr.size].reshape(arr.shape)
            i += arr.size


def mlp_init(layout, seed_or_rng) -> MlpParams:
    """Scaled-uniform fan-in init: W ~ U(-sqrt(3/fan_in), sqrt(3/fan_in)) so
    Var(W) = 1/fan_in; biases start at 0."""
    layout = tuple(int(w) for w in layout)
    if len(layout) < 2:
        raise ConfigError("MLP layout needs at least input and output widths")
    if any(w <= 0 for w in layout):
        raise ConfigError("MLP layer widths must be positive")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    weights, biases = [], []
    for fan_in, fan_out in zip(layout[:-1], layout[1:]):
        bound = np.sqrt(3.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpParams(layout, weights, biases)


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Batch forward pass. x is (batch, in) or (in,); returns (output, cache). A stack of
    rows (batch, 1, in) gives each row the bits of a call on it alone; (batch, in) may not."""
    squeeze = x.ndim == 1
    h = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite network input")
    if h.shape[-1] != params.layout[0]:
        raise ConfigError(f"input width {h.shape[-1]} != layout input {params.layout[0]}")
    cache = []
    last = len(params.weights) - 1
    for li, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ W.T
        z += b  # in place: one block-sized array fewer
        cache.append((h, z))
        h = np.tanh(z) if li < last else z
    out = h[0] if squeeze else h
    return out, cache


def backward(params: MlpParams, cache: list, grad_out: np.ndarray):
    """Exact reverse-mode gradients for the forward pass above.

    Returns (weight_grads, bias_grads) matching parameter shapes, summed over
    the batch."""
    g = np.atleast_2d(np.asarray(grad_out, dtype=float))
    last = len(params.weights) - 1
    wg = [None] * len(params.weights)
    bg = [None] * len(params.biases)
    for li in range(last, -1, -1):
        h_in, z = cache[li]
        if li < last:
            g = g * (1.0 - np.tanh(z) ** 2)
        if g.shape != z.shape:
            raise ConfigError(f"gradient shape {g.shape} != layer output {z.shape}")
        wg[li] = g.T @ h_in
        bg[li] = g.sum(axis=0)
        g = g @ params.weights[li]
    return wg, bg


@dataclass
class OptimState:
    """Adam accumulators mirroring one MlpParams (or any array list)."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)

    def _ensure(self, arrays) -> None:
        if not self.m:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]


def adam_step(arrays: list[np.ndarray], grads: list[np.ndarray], opt: OptimState) -> None:
    """One bias-corrected adaptive-moment descent step, in place.

    When any gradient is non-finite, emits a RuntimeWarning and skips the step."""
    if any(not np.all(np.isfinite(g)) for g in grads):
        import warnings

        warnings.warn("non-finite gradient: update skipped", RuntimeWarning, stacklevel=2)
        return
    opt._ensure(arrays)
    opt.step += 1
    b1c = 1.0 - opt.beta1 ** opt.step
    b2c = 1.0 - opt.beta2 ** opt.step
    for a, g, m, v in zip(arrays, grads, opt.m, opt.v):
        m[...] = opt.beta1 * m + (1.0 - opt.beta1) * g
        v[...] = opt.beta2 * v + (1.0 - opt.beta2) * g * g
        a -= opt.lr * (m / b1c) / (np.sqrt(v / b2c) + opt.eps)


def adam_step_params(params: MlpParams, wg, bg, opt: OptimState) -> None:
    adam_step(params.weights + params.biases, list(wg) + list(bg), opt)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis; raises ValueError on non-finite logits."""
    logits = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    z = logits - logits.max(axis=-1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def sample_categorical(log_probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One index per row of `log_probs` (over the last axis) by inverse CDF,
    from one uniform draw per row in row order."""
    cdf = np.exp(log_probs)
    np.cumsum(cdf, axis=-1, out=cdf)
    u = rng.random(cdf.shape[:-1] + (1,))
    return (u > cdf).sum(axis=-1)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    z = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


class Categorical:
    """Categorical distribution over the last axis of a logits array."""

    def __init__(self, logits: np.ndarray):
        self.log_probs = log_softmax(logits)
        self.probs = np.exp(self.log_probs)

    def sample(self, rng: np.random.Generator):
        idx = sample_categorical(self.log_probs, rng)
        return int(idx) if idx.ndim == 0 else idx

    def log_prob(self, actions):
        a = np.asarray(actions, dtype=int)
        return np.take_along_axis(self.log_probs, a[..., None], axis=-1)[..., 0]

    def entropy(self):
        return -(self.probs * self.log_probs).sum(axis=-1)


def finite_diff_check(
    params: MlpParams,
    loss_fn,
    analytic_grads: tuple[list, list],
    rng: np.random.Generator,
    n_samples: int = 30,
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic gradients and central differences
    on a random subset of parameter coordinates.

    loss_fn(params) must return the scalar loss; analytic_grads is the
    (weight_grads, bias_grads) pair produced by the implementation under test.
    """
    flat_grad = np.concatenate(
        [g.ravel() for g in list(analytic_grads[0]) + list(analytic_grads[1])]
    )
    base = params.flat()
    n = base.size
    idxs = rng.choice(n, size=min(n_samples, n), replace=False)
    scale = max(np.abs(flat_grad).max(), 1e-8)
    worst = 0.0
    work = params.copy()
    for i in idxs:
        vec = base.copy()
        vec[i] = base[i] + h
        work.set_flat(vec)
        lp = loss_fn(work)
        vec[i] = base[i] - h
        work.set_flat(vec)
        lm = loss_fn(work)
        fd = (lp - lm) / (2.0 * h)
        err = abs(fd - flat_grad[i]) / max(abs(fd), abs(flat_grad[i]), scale * 1e-3)
        worst = max(worst, err)
    return worst
