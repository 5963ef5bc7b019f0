"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray together with the tensors it was computed
from (its parents) and one adjoint, which maps the Tensor's gradient to
one gradient per parent.  backward() walks the recorded graph in reverse
topological order, zipping each node's parents with its adjoint's
gradients and accumulating them.  Recording can be switched off globally
with no_grad(), in which case the same op functions run as plain numpy
with no tape, so forward inference and training share one code path.
Every recorded value is float64; under no_grad() a Tensor keeps a float32
array as float32, so inference can run the same ops at that precision.

Convolutions, linear-interpolation upsampling and the GRU recurrence
(gru_sequence, over the cell gru_cell) are single primitives with
hand-written adjoints rather than compositions, which keeps the tape
small for long sequences: its size does not grow with their length.
Nor do they copy their inputs: a convolution tap is one matmul between
row-slice views, and the upsampling adjoint sums runs of sorted indices.
"""

from __future__ import annotations

import contextlib

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """An array, the tensors it was computed from, and the adjoint that
    maps its gradient to one gradient per parent."""

    __slots__ = ("value", "grad", "parents", "adjoint")

    def __init__(self, value, parents=(), adjoint=None):
        value = np.asarray(value)
        if _GRAD_ENABLED or value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.grad = None
        self.parents = tuple(parents) if _GRAD_ENABLED else ()
        self.adjoint = adjoint if _GRAD_ENABLED else None

    @property
    def shape(self):
        return self.value.shape


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(root: Tensor, seed=None) -> None:
    """Accumulate gradients of root into every reachable leaf's .grad; an
    inner node's gradient is dropped once its adjoint has passed it on."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node.parents if id(p) not in seen)
    if seed is None:
        seed = np.ones_like(root.value)
    root.grad = np.asarray(seed, dtype=np.float64).reshape(root.value.shape)
    for node in reversed(order):
        if node.grad is None or not node.parents:
            continue
        for parent, g in zip(node.parents, node.adjoint(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
        node.grad = None


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --- elementwise and linear ops -------------------------------------------


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(a.value + b.value, (a, b),
                  lambda g: (_unbroadcast(g, a.value.shape),
                             _unbroadcast(g, b.value.shape)))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError("matmul handles 2-D operands only")
    return Tensor(a.value @ b.value, (a, b),
                  lambda g: (g @ b.value.T, a.value.T @ g))


def tanh(a):
    a = as_tensor(a)
    y = np.tanh(a.value)
    return Tensor(y, (a,), lambda g: (g * (1.0 - y * y),))


def relu(a):
    a = as_tensor(a)
    mask = a.value > 0
    return Tensor(a.value * mask, (a,), lambda g: (g * mask,))


def hard_clip(a, lo: float, hi: float):
    """Clip values; gradient passes through inside [lo, hi] and is cut outside."""
    a = as_tensor(a)
    mask = (a.value >= lo) & (a.value <= hi)
    return Tensor(np.clip(a.value, lo, hi), (a,), lambda g: (g * mask,))


def square_error_mean(a, b):
    """Mean of (a - b)^2 as a scalar tensor."""
    a, b = as_tensor(a), as_tensor(b)
    diff = a.value - b.value
    n = max(diff.size, 1)
    return Tensor(np.array((diff * diff).sum() / n), (a, b),
                  lambda g: ((2.0 / n) * g * diff, (-2.0 / n) * g * diff))


# --- shape ops -------------------------------------------------------------


def concat_cols(tensors):
    """Concatenate 2-D tensors along axis 1."""
    tensors = [as_tensor(t) for t in tensors]
    edges = np.cumsum([0] + [t.value.shape[1] for t in tensors])
    return Tensor(np.concatenate([t.value for t in tensors], axis=1), tensors,
                  lambda g: [g[:, lo:hi] for lo, hi in zip(edges[:-1], edges[1:])])


def reshape(a, shape):
    a = as_tensor(a)
    return Tensor(a.value.reshape(shape), (a,),
                  lambda g: (g.reshape(a.value.shape),))


def astype(a, dtype):
    """a's value in dtype, or a itself if it has that dtype; the gradient
    passes through unchanged.  A recorded value is float64 whatever the
    cast, so only no_grad() code sees a float32 result."""
    a = as_tensor(a)
    if a.value.dtype == dtype:
        return a
    return Tensor(a.value.astype(dtype), (a,), lambda g: (g,))


def slice_rows(a, start: int, stop: int):
    a = as_tensor(a)
    n = a.value.shape[0]
    if not 0 <= start <= stop <= n:
        raise ValueError(f"slice [{start}:{stop}] outside {n} rows")

    def adjoint(g):
        out = np.zeros_like(a.value)
        out[start:stop] = g
        return (out,)

    return Tensor(a.value[start:stop], (a,), adjoint)


# --- sequence primitives ----------------------------------------------------


def conv1d(x, weight, bias, dilation: int = 1, causal: bool = True):
    """Dilated 1-D convolution over rows of x (time, channels).

    weight is (taps, in_channels, out_channels).  Causal mode reads only
    rows at t - j * dilation for tap j (tap 0 is the current row);
    non-causal mode centers the kernel, reading t - (j - taps//2) *
    dilation.  Out-of-range rows are zero.  Each tap is one matmul on row
    slices, starting from the center tap, which reads every row; the
    adjoint walks the same taps once for the input and weight gradients.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    xv, w, n = x.value, weight.value, x.value.shape[0]
    center = 0 if causal else w.shape[0] // 2
    offsets = [(j - center) * dilation for j in range(w.shape[0])]
    # tap j reads row t - off: output rows [off, n) from input rows [0, n - off)
    taps = [(j, slice(max(off, 0), n + min(off, 0)),
             slice(max(-off, 0), n - max(off, 0)))
            for j, off in enumerate(offsets) if 0 < abs(off) < n]
    out = xv @ w[center]
    out += bias.value
    for j, dst, src in taps:
        out[dst] += xv[src] @ w[j]

    def adjoint(g):
        gx = g @ w[center].T
        gw = np.zeros_like(w)
        gw[center] = xv.T @ g
        for j, dst, src in taps:
            gx[src] += g[dst] @ w[j].T
            gw[j] = xv[src].T @ g[dst]
        return gx, gw, g.sum(axis=0)

    return Tensor(out, (x, weight, bias), adjoint)


def upsample_linear(a, out_rows: int, start: int = 0, stop: int | None = None):
    """Stretch rows to out_rows by linear interpolation with held endpoints.

    Output row t samples input position t * (n_in - 1) / (out_rows - 1);
    a single input row or a single output row degenerates to repetition.
    Only rows [start, stop) of that grid are produced, each equal to the
    same row of the whole output.  The adjoint sums the runs of the two
    sorted read indices.
    """
    a = as_tensor(a)
    n_in = a.value.shape[0]
    stop = out_rows if stop is None else stop
    if n_in == 0 or not 0 <= start < stop <= out_rows:
        raise ValueError(f"upsample needs at least one input row and a window "
                         f"inside {out_rows} output rows, got [{start}, {stop})")
    if n_in == 1 or out_rows == 1:
        pos = np.zeros(stop - start)
    else:
        pos = np.arange(start, stop) * (n_in - 1) / (out_rows - 1)
    idx0 = np.minimum(pos.astype(np.int64), n_in - 1)
    idx1 = np.minimum(idx0 + 1, n_in - 1)
    frac = (pos - idx0)[:, None].astype(a.value.dtype, copy=False)
    value = a.value[idx0] * (1.0 - frac) + a.value[idx1] * frac

    def adjoint(g):
        out = np.zeros_like(a.value)
        for idx, weight in ((idx0, 1.0 - frac), (idx1, frac)):
            starts = np.flatnonzero(np.diff(idx, prepend=-1))
            out[idx[starts]] += np.add.reduceat(g * weight, starts, axis=0)
        return (out,)

    return Tensor(value, (a,), adjoint)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_cell(x, h, u, b):
    """One GRU step on arrays: returns the new state and (z, r, n, r * h).

    x, u and b are (z, r, n) triples of gate inputs (rows, s), recurrent
    weights (s, s) and biases (s,); h is the previous state (rows, s).
    The candidate's bias sits outside the reset gate:
    n = tanh(x_n + (r * h) @ u_n + b_n) and h' = (1 - z) * n + z * h.
    """
    z = _sigmoid(x[0] + h @ u[0] + b[0])
    r = _sigmoid(x[1] + h @ u[1] + b[1])
    rh = r * h
    n = np.tanh(x[2] + rh @ u[2] + b[2])
    return (1.0 - z) * n + z * h, (z, r, n, rh)


def gru_sequence(x, u, b):
    """Every state of a GRU run from a zero state over the rows of x.

    x, u and b are (z, r, n) triples of tensors as in gru_cell, with x
    holding the gate inputs of all m steps at once.  Returns the states
    (m, s), row t being the state after step t.  The adjoint is
    backpropagation through time in one reverse loop, which gives all nine
    gradients; those of u and b are whole-sequence sums taken after it.
    """
    x, u, b = ([as_tensor(t) for t in group] for group in (x, u, b))
    xv, uv, bv = ([t.value for t in group] for group in (x, u, b))
    m, s = xv[0].shape
    states = np.empty((m + 1, s))  # row 0 is the zero initial state
    states[0] = 0.0
    gates = np.empty((4, m, s))  # z, r, n and r * h of every step
    for t in range(m):
        h, gates[:, t : t + 1] = gru_cell([v[t : t + 1] for v in xv],
                                          states[t : t + 1], uv, bv)
        states[t + 1] = h
    z, r, n, rh = gates
    prev = states[:-1]

    def adjoint(g):
        ga = np.empty((3, m, s))  # gradients of the z, r and n pre-activations
        uz_t, ur_t, un_t = (w.T for w in uv)
        dh = np.zeros(s)
        for t in range(m - 1, -1, -1):
            dh = dh + g[t]
            da_n = dh * (1.0 - z[t]) * (1.0 - n[t] * n[t])
            d_rh = da_n @ un_t
            da_z = dh * (prev[t] - n[t]) * z[t] * (1.0 - z[t])
            da_r = d_rh * prev[t] * r[t] * (1.0 - r[t])
            ga[0, t], ga[1, t], ga[2, t] = da_z, da_r, da_n
            dh = dh * z[t] + d_rh * r[t] + da_z @ uz_t + da_r @ ur_t
        return (*ga, prev.T @ ga[0], prev.T @ ga[1], rh.T @ ga[2], *ga.sum(axis=1))

    return Tensor(states[1:], (*x, *u, *b), adjoint)
