"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray together with the tensors it was computed
from (its parents) and one adjoint, which maps the Tensor's gradient to
one gradient per parent.  backward() walks the recorded graph in reverse
topological order, zipping each node's parents with its adjoint's
gradients and accumulating them.  no_grad() switches recording off for
the calling thread; the same op functions then run as plain numpy with
no tape, so forward inference and training share one code path.
Every recorded value is float64; under no_grad() a Tensor keeps a float32
array as float32, so inference can run the same ops at that precision.

Convolutions, linear-interpolation upsampling, the GRU recurrence
(gru_sequence, over the cell gru_cell, one loop for a batch of sequences)
and the waveform model's residual block (residual_block) are single
primitives with hand-written adjoints rather than compositions, which
keeps the tape small for long sequences: its size does not grow with
their length, and a block is one node, not one per projection,
convolution, tanh and sum.  Nor do they copy their
inputs: a convolution tap is one matmul between row-slice views, and the
upsampling adjoint sums runs of sorted indices.  Inference adds parameters
broadcast to whole rows: numpy loops once per row over a channel broadcast.
For the same reason every adjoint takes a gradient's row sums (bias
gradients) through _row_sums, which uses einsum where that gives the bits
of numpy's sum.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools

import numpy as np

_RECORDING = contextvars.ContextVar("recording", default=True)  # each thread its own


@contextlib.contextmanager
def no_grad():
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    """An array, the tensors it was computed from, and the adjoint that
    maps its gradient to one gradient per parent."""

    __slots__ = ("value", "grad", "parents", "adjoint")

    def __init__(self, value, parents=(), adjoint=None):
        value = np.asarray(value)
        recording = _RECORDING.get()
        if recording or value.dtype != np.float32:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.grad = None
        self.parents = tuple(parents) if recording else ()
        self.adjoint = adjoint if recording else None

    @property
    def shape(self):
        return self.value.shape


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def backward(root: Tensor, seed=None) -> None:
    """Accumulate gradients of root into every reachable leaf's .grad.  Once
    an inner node's adjoint has passed its gradient on, the node drops its
    gradient, adjoint and parents, so the tape is freed as the walk goes
    and cannot be walked again."""
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
    while order:
        node = order.pop()
        if node.grad is None or not node.parents:
            continue
        for parent, g in zip(node.parents, node.adjoint(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
        node.grad, node.adjoint, node.parents = None, None, ()


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _row_sums(g):
    """g.sum(axis=0) of a 2-D gradient, by einsum where that gives its bits:
    with more than one column, and rows farther apart in memory than
    columns, both add whole rows in order, but einsum without numpy's
    per-row loop.  One column numpy sums pairwise; other layouts differ."""
    if g.shape[1] > 1 and g.strides[0] > g.strides[1]:
        return np.einsum("ij->j", g)
    return g.sum(axis=0)


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
    return Tensor(a.value @ b.value, (a, b), lambda g: (g @ b.value.T, a.value.T @ g))


def linear(x, w, b):
    """x @ w + b as one node: the bits of matmul then add, without keeping
    the product."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    return Tensor(x.value @ w.value + b.value, (x, w, b),
                  lambda g: (g @ w.value.T, x.value.T @ g, _row_sums(g)))


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


def concat(tensors, axis: int):
    """Concatenate 2-D tensors along axis 0 (rows) or 1 (columns)."""
    tensors = [as_tensor(t) for t in tensors]
    edges = np.cumsum([t.value.shape[axis] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.value for t in tensors], axis=axis), tensors,
                  lambda g: np.split(g, edges, axis=axis))


def reshape(a, shape):
    a = as_tensor(a)
    return Tensor(a.value.reshape(shape), (a,),
                  lambda g: (g.reshape(a.value.shape),))


# --- sequence primitives ----------------------------------------------------


@functools.lru_cache(maxsize=256)
def _conv_taps(n: int, taps: int, dilation: int, causal: bool):
    """The center tap, which reads every one of n rows, and (j, dst, src)
    for each other tap j that reads inside them: tap j reads row t - off,
    so output rows dst come from input rows src.  Cached, so all tuples."""
    center = 0 if causal else taps // 2
    offsets = [(j - center) * dilation for j in range(taps)]
    return center, tuple((j, slice(max(off, 0), n + min(off, 0)),
                          slice(max(-off, 0), n - max(off, 0)))
                         for j, off in enumerate(offsets) if 0 < abs(off) < n)


def _conv(xv, w, b, taps):
    """A convolution's value on arrays, in a fresh buffer: the center tap,
    the bias, then one matmul per other tap."""
    center, others = taps
    out = xv @ w[center]
    out += b
    for j, dst, src in others:
        out[dst] += xv[src] @ w[j]
    return out


def _conv_adjoint(g, xv, w, taps):
    """Gradients of a convolution's input, weight and bias, walking the
    taps of _conv once."""
    center, others = taps
    gx = g @ w[center].T
    gw = np.zeros_like(w)
    gw[center] = xv.T @ g
    for j, dst, src in others:
        gx[src] += g[dst] @ w[j].T
        gw[j] = xv[src].T @ g[dst]
    return gx, gw, _row_sums(g)


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
    xv, w = x.value, weight.value
    taps = _conv_taps(xv.shape[0], w.shape[0], dilation, causal)
    return Tensor(_conv(xv, w, bias.value, taps), (x, weight, bias),
                  lambda g: _conv_adjoint(g, xv, w, taps))


def residual_block(x, cond, w_in, b_in, convs, w_out, b_out):
    """One residual block of the waveform model: x (rows, 1) plus a
    projection of its refined channel state, as one tape node.

    The channel state h (rows, channels) starts as x * w_in + b_in + cond,
    with x cast to cond's dtype, and each causal convolution of convs, a
    list of (weight, bias, dilation), adds tanh(conv(h)) to it; the block
    returns x + (h @ w_out + b_out).  These are the numpy operations of the
    composed matmul, add, conv1d and tanh graph in the same order, so the
    value and every gradient equal its bits.  Under no_grad() h is updated
    in place, in a buffer of its own; while recording, each convolution
    keeps its input and its tanh output for the adjoint, which walks the
    convolutions in reverse and returns the 6 + 2 * len(convs) gradients
    in argument order.  Only under no_grad() may w_in, b_in and the
    convolution biases be (rows, channels) arrays.
    """
    x, cond, w_in, b_in, w_out, b_out = (
        as_tensor(t) for t in (x, cond, w_in, b_in, w_out, b_out))
    convs = [(as_tensor(w), as_tensor(b), dilation) for w, b, dilation in convs]
    if _RECORDING.get() and (w_in.shape[0] != 1 or b_in.value.ndim != 1
                             or any(b.value.ndim != 1 for _, b, _ in convs)):
        raise ValueError("while recording, w_in is (1, channels) and biases (channels,)")
    xv = x.value.astype(cond.value.dtype, copy=False)
    h = np.repeat(xv, cond.value.shape[1], axis=1)
    h *= w_in.value
    h += b_in.value
    h += cond.value
    layers = []  # weight, taps, input and tanh output of each convolution
    for w, b, dilation in convs:
        taps = _conv_taps(h.shape[0], w.value.shape[0], dilation, True)
        y = _conv(h, w.value, b.value, taps)
        np.tanh(y, out=y)
        if _RECORDING.get():
            layers.append((w.value, taps, h, y))
            h = h + y
        else:
            h += y

    def adjoint(g):
        gh = g * w_out.value.T  # the bits of the K=1 matmul g @ w_out.T
        conv_grads = []
        for w, taps, hj, y in reversed(layers):
            gy = y * y  # the tanh adjoint, g * (1 - y^2), in one buffer
            np.subtract(1.0, gy, out=gy)
            gy *= gh
            gx, gw, gb = _conv_adjoint(gy, hj, w, taps)
            gx += gh  # the residual's share
            gh = gx
            conv_grads[:0] = [gw, gb]
        return (g + gh @ w_in.value.T, gh, xv.T @ gh, _row_sums(gh), *conv_grads,
                h.T @ g, _row_sums(g))

    return Tensor(x.value + (h @ w_out.value + b_out.value),
                  (x, cond, w_in, b_in, *(t for w, b, _ in convs for t in (w, b)),
                   w_out, b_out), adjoint)


def upsample_linear(a, out_rows: int, start: int = 0, stop: int | None = None):
    """Stretch rows to out_rows by linear interpolation with held endpoints.

    Output row t samples input position t * (n_in - 1) / (out_rows - 1),
    or position 0 for a single output row; a single input row is repeated.
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
    pos = np.arange(start, stop) * (n_in - 1) / max(out_rows - 1, 1)
    idx0 = np.minimum(pos.astype(np.int64), n_in - 1)
    idx1 = np.minimum(idx0 + 1, n_in - 1)
    frac = (pos - idx0)[:, None].astype(a.value.dtype, copy=False)
    w0, w1 = (np.repeat(w, a.value.shape[1], axis=1) for w in (1.0 - frac, frac))
    value = np.take(a.value, idx0, axis=0) * w0 + np.take(a.value, idx1, axis=0) * w1

    def adjoint(g):
        out = np.zeros_like(a.value)
        for idx, weight in ((idx0, w0), (idx1, w1)):
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


def gru_sequence(x, u, b, batch: int = 1):
    """Every state of batch GRU runs, each from a zero state.

    x, u and b are (z, r, n) triples of tensors as in gru_cell.  x holds
    the gate inputs of batch sequences of m steps, one sequence after
    another, so row i * m + t is step t of sequence i; each step runs one
    row of every sequence at once.  Returns the states (batch * m, s) in
    the same order, row i * m + t being sequence i's state after step t.
    The adjoint is backpropagation through time in one reverse loop, which
    gives all nine gradients; those of u and b are sums over every row,
    taken after it.  A step whose state gets zero gradient, there and at
    every later step of its sequence, adds exactly zero to every gradient,
    so sequences of unequal length may be padded at the end.
    """
    x, u, b = ([as_tensor(t) for t in group] for group in (x, u, b))
    uv, bv = ([t.value for t in group] for group in (u, b))
    s = uv[0].shape[0]
    xv = [t.value.reshape(batch, -1, s).swapaxes(0, 1) for t in x]  # by step
    m = xv[0].shape[0]
    states = np.empty((m + 1, batch, s))  # row 0 is the zero initial state
    states[0] = 0.0
    gates = np.empty((4, m, batch, s))  # z, r, n and r * h of every step
    for t in range(m):
        states[t + 1], gates[:, t] = gru_cell([v[t] for v in xv], states[t], uv, bv)
    z, r, n, rh = gates
    prev = states[:-1]

    def adjoint(g):
        g = g.reshape(batch, m, s).swapaxes(0, 1)
        ga = np.empty((3, m, batch, s))  # gradients of the z, r and n pre-activations
        uz_t, ur_t, un_t = (w.T for w in uv)
        # the local derivatives of every step, which the gradient does not change
        dn = (1.0 - z) * (1.0 - n * n)  # of the new state by a_n
        dz = (prev - n) * z * (1.0 - z)  # of the new state by a_z
        dr = prev * r * (1.0 - r)  # of r * h by a_r
        dh = np.zeros((batch, s))
        for t in range(m - 1, -1, -1):
            dh = dh + g[t]
            ga[0, t] = da_z = dh * dz[t]
            ga[2, t] = da_n = dh * dn[t]
            d_rh = da_n @ un_t
            ga[1, t] = da_r = d_rh * dr[t]
            dh = dh * z[t] + d_rh * r[t] + da_z @ uz_t + da_r @ ur_t
        rows = ga.reshape(3, m * batch, s)
        hs, rhs = prev.reshape(m * batch, s), rh.reshape(m * batch, s)
        return (*ga.swapaxes(1, 2).reshape(3, batch * m, s),
                hs.T @ rows[0], hs.T @ rows[1], rhs.T @ rows[2], *map(_row_sums, rows))

    return Tensor(states[1:].swapaxes(0, 1).reshape(batch * m, s), (*x, *u, *b), adjoint)
