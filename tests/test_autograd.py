import numpy as np
import pytest

import helpers
from midisynth import acoustic
from midisynth import autograd as ag
from midisynth.dsp import FeatureMatrix
from midisynth.midi_io import PianoRoll


def fd_check(build, arrays, eps=1e-6, rel=5e-4, absolute=1e-7):
    """Compare backward() grads with central differences for every entry."""
    tensors = [ag.Tensor(a.copy()) for a in arrays]
    root = build(*tensors)
    ag.backward(root)
    for pos, base in enumerate(arrays):
        analytic = tensors[pos].grad
        assert analytic is not None, f"input {pos} missing grad"
        assert analytic.shape == base.shape
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            plus[pos][idx] += eps
            minus = [a.copy() for a in arrays]
            minus[pos][idx] -= eps
            up = build(*[ag.Tensor(a) for a in plus]).value
            down = build(*[ag.Tensor(a) for a in minus]).value
            fd = (float(up) - float(down)) / (2 * eps)
            assert analytic[idx] == pytest.approx(fd, rel=rel, abs=absolute), \
                f"input {pos} entry {idx}"
            it.iternext()


def scalarize(t):
    return ag.square_error_mean(t, ag.Tensor(np.zeros_like(t.value)))


# --- elementwise ops ----------------------------------------------------------


def test_add_grads(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    fd_check(lambda x, y: scalarize(ag.add(x, y)), [a, b])


def test_broadcast_bias_grad(rng):
    a = rng.standard_normal((3, 4))
    bias = rng.standard_normal(4)
    fd_check(lambda x, y: scalarize(ag.add(x, y)), [a, bias])


def test_matmul_grads(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    fd_check(lambda x, y: scalarize(ag.matmul(x, y)), [a, b])


def test_nonlinearity_grads(rng):
    a = rng.standard_normal((3, 4)) * 0.8 + 0.1  # keep away from the relu kink
    fd_check(lambda x: scalarize(ag.tanh(x)), [a])
    fd_check(lambda x: scalarize(ag.relu(x)), [a])


def test_hard_clip_grad_inside_and_outside(rng):
    x = ag.Tensor(np.array([[-2.0, -0.5, 0.5, 2.0]]))
    y = ag.hard_clip(x, -1.0, 1.0)
    ag.backward(scalarize(y))
    assert y.value.tolist() == [[-1.0, -0.5, 0.5, 1.0]]
    assert x.grad[0, 0] == 0.0 and x.grad[0, 3] == 0.0
    assert x.grad[0, 1] != 0.0 and x.grad[0, 2] != 0.0


def test_square_error_mean_grads(rng):
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 4))
    fd_check(lambda x, y: ag.square_error_mean(x, y), [a, b])


# --- shape ops ------------------------------------------------------------------


def test_concat_and_slice_grads(rng):
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 3))
    fd_check(lambda x, y: scalarize(ag.concat_cols([x, y])), [a, b])
    d = rng.standard_normal((3, 4))
    fd_check(lambda x: scalarize(ag.slice_rows(x, 1, 3)), [d])
    fd_check(lambda x: scalarize(ag.add(ag.reshape(x, (3, 1, 4)), a[:, :1, None])), [d])


# --- sequence primitives ----------------------------------------------------


def test_conv1d_grads_causal_and_centered(rng):
    x = rng.standard_normal((6, 2))
    w = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal(2)
    fd_check(lambda *t: scalarize(ag.conv1d(*t, dilation=1, causal=True)),
             [x, w, b])
    fd_check(lambda *t: scalarize(ag.conv1d(*t, dilation=2, causal=True)),
             [x, w, b])
    fd_check(lambda *t: scalarize(ag.conv1d(*t, dilation=1, causal=False)),
             [x, w, b])


def naive_conv1d(x, w, b, dilation, causal):
    """Zero-padded per-tap loop: tap j reads row t - (j - center) * dilation."""
    n, taps = x.shape[0], w.shape[0]
    center = 0 if causal else taps // 2
    padded = np.zeros((n + 2 * taps * dilation, x.shape[1]))
    pad = taps * dilation
    padded[pad : pad + n] = x
    out = np.tile(b, (n, 1))
    for j in range(taps):
        lo = pad - (j - center) * dilation
        out += padded[lo : lo + n] @ w[j]
    return out


@pytest.mark.parametrize("causal", [True, False], ids=["causal", "centered"])
@pytest.mark.parametrize("taps", [1, 3, 5])
@pytest.mark.parametrize("dilation", [1, 3, 16, 64])
@pytest.mark.parametrize("rows", [1, 2, 5, 40])
def test_conv1d_edge_cases_match_naive_loop(rng, rows, dilation, taps, causal):
    # dilations at or past the row count leave only the center tap reading
    x = rng.standard_normal((rows, 2))
    w = rng.standard_normal((taps, 2, 3))
    b = rng.standard_normal(3)
    got = ag.conv1d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(b), dilation=dilation,
                    causal=causal).value
    assert np.abs(got - naive_conv1d(x, w, b, dilation, causal)).max() <= 1e-13
    fd_check(lambda *t: scalarize(ag.conv1d(*t, dilation=dilation, causal=causal)),
             [x, w, b])


def test_conv1d_causal_ignores_future(rng):
    x = rng.standard_normal((8, 2))
    w = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal(2)
    out = ag.conv1d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(b), dilation=2).value
    bumped = x.copy()
    bumped[5:] += 3.0
    out2 = ag.conv1d(ag.Tensor(bumped), ag.Tensor(w), ag.Tensor(b),
                     dilation=2).value
    assert np.array_equal(out[:5], out2[:5])


def test_conv1d_centered_reads_both_sides(rng):
    x = np.zeros((5, 1))
    x[2, 0] = 1.0
    w = np.arange(3, dtype=np.float64).reshape(3, 1, 1) + 1.0
    out = ag.conv1d(ag.Tensor(x), ag.Tensor(w), ag.Tensor(np.zeros(1)),
                    causal=False).value
    # tap 0 reads the next row, tap 2 the previous (no kernel flip)
    assert out[:, 0].tolist() == [0.0, 1.0, 2.0, 3.0, 0.0]


def test_upsample_linear_values(rng):
    a = np.array([[0.0], [7.0]])
    out = ag.upsample_linear(ag.Tensor(a), 8).value
    assert out[:, 0] == pytest.approx(np.arange(8) / 7 * 7.0)
    const = ag.upsample_linear(ag.Tensor(np.full((3, 2), 1.5)), 10).value
    assert np.allclose(const, 1.5)
    single = ag.upsample_linear(ag.Tensor(np.array([[2.0, 3.0]])), 4).value
    assert np.allclose(single, [[2.0, 3.0]] * 4)


def test_upsample_linear_grads(rng):
    a = rng.standard_normal((3, 2))
    fd_check(lambda x: scalarize(ag.upsample_linear(x, 9)), [a])


@pytest.mark.parametrize("n_in, out_rows, start, stop", [
    (4, 30, 0, 30), (4, 30, 7, 19), (4, 30, 29, 30), (1, 5, 2, 4), (3, 1, 0, 1),
])
def test_upsample_linear_window_is_slice_of_whole(rng, n_in, out_rows, start, stop):
    a = ag.Tensor(rng.standard_normal((n_in, 3)))
    whole = ag.upsample_linear(a, out_rows).value
    window = ag.upsample_linear(a, out_rows, start=start, stop=stop).value
    assert np.array_equal(window, whole[start:stop])


@pytest.mark.parametrize("n_in, out_rows, start, stop", [
    (84, 24000, 0, 24000), (4, 30, 7, 19), (1, 5, 2, 4), (3, 1, 0, 1),
])
def test_upsample_linear_adjoint_is_transpose(rng, n_in, out_rows, start, stop):
    # upsampling the identity gives the interpolation matrix itself
    matrix = ag.upsample_linear(ag.Tensor(np.eye(n_in)), out_rows, start, stop).value
    a = ag.Tensor(rng.standard_normal((n_in, 3)))
    g = rng.standard_normal((stop - start, 3))
    ag.backward(ag.upsample_linear(a, out_rows, start, stop), seed=g)
    assert np.abs(a.grad - matrix.T @ g).max() <= 1e-12


def test_upsample_linear_window_grads(rng):
    a = rng.standard_normal((4, 2))
    fd_check(lambda x: scalarize(ag.upsample_linear(x, 30, start=11, stop=19)), [a])


@pytest.mark.parametrize("start, stop", [(-1, 3), (3, 3), (2, 11)])
def test_upsample_linear_window_outside_grid(start, stop):
    with pytest.raises(ValueError):
        ag.upsample_linear(ag.Tensor(np.ones((2, 1))), 10, start=start, stop=stop)


@pytest.mark.parametrize("m", [1, 7])
def test_gru_sequence_grads(rng, m):
    s = 3
    x = [0.8 * rng.standard_normal((m, s)) for _ in range(3)]
    u = [0.6 * rng.standard_normal((s, s)) for _ in range(3)]
    b = [0.3 * rng.standard_normal(s) for _ in range(3)]
    target = ag.Tensor(rng.standard_normal((m, s)))
    fd_check(lambda *t: ag.square_error_mean(
        ag.gru_sequence(t[0:3], t[3:6], t[6:9]), target), x + u + b)


def test_gru_sequence_rows_are_cell_steps(rng):
    s = 4
    x = [rng.standard_normal((5, s)) for _ in range(3)]
    u = [rng.standard_normal((s, s)) for _ in range(3)]
    b = [rng.standard_normal(s) for _ in range(3)]
    states = ag.gru_sequence(x, u, b).value
    h = np.zeros((1, s))
    for t in range(5):
        h, _ = ag.gru_cell([v[t : t + 1] for v in x], h, u, b)
        assert np.array_equal(states[t : t + 1], h)


def _tape_size(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("variant", acoustic.VARIANTS)
def test_teacher_forced_tape_does_not_grow_with_steps(rng, monkeypatch, variant):
    roots = []
    backward = ag.backward
    monkeypatch.setattr(ag, "backward", lambda root: (roots.append(root),
                                                      backward(root)))
    cfg = helpers.tiny_am_cfg(variant, output_dim=4, prenet_dropout=0.5)
    params = acoustic.am_init(cfg, seed=0)
    for steps in (8, 64):
        n = steps * cfg.downsample_factor
        roll = PianoRoll(rng.random((n, 128)), 0.012)
        target = FeatureMatrix(rng.standard_normal((n, 4)), "midi-fb", 0.012, 24000.0)
        acoustic.am_teacher_forced(params, roll, target, cfg)
    assert _tape_size(roots[0]) == _tape_size(roots[1])


# --- graph machinery ---------------------------------------------------------


def test_diamond_graph_accumulates(rng):
    x = ag.Tensor(np.array([[2.0]]))
    y = ag.add(ag.matmul(x, x), ag.matmul(x, x))
    ag.backward(y)
    assert x.grad[0, 0] == pytest.approx(8.0)  # d(2x^2)/dx at 2


def test_reused_node_single_visit(rng):
    x = ag.Tensor(np.array([[3.0]]))
    shared = ag.matmul(x, x)
    out = ag.add(shared, shared)
    ag.backward(out)
    assert x.grad[0, 0] == pytest.approx(12.0)  # d(2x^2)/dx at 3


def test_backward_keeps_leaf_grads_only(rng):
    x = ag.Tensor(rng.standard_normal((2, 3)))
    w = ag.Tensor(rng.standard_normal((3, 2)))
    hidden = ag.tanh(ag.matmul(x, w))
    out = ag.add(hidden, hidden)
    ag.backward(out)
    assert x.grad.shape == (2, 3) and w.grad.shape == (3, 2)
    assert hidden.grad is None and out.grad is None
    assert hidden.parents[0].grad is None


def test_no_grad_blocks_graph(rng):
    with ag.no_grad():
        x = ag.Tensor(np.ones((2, 2)))
        y = ag.tanh(ag.matmul(x, ag.Tensor(np.ones((2, 2)))))
        assert not y.parents
    # recording resumes once the block exits
    assert ag.tanh(x).parents


def test_deep_chain_iterative_backward():
    # long graphs must not hit the recursion limit
    x = ag.Tensor(np.ones((1, 1)))
    y = x
    for _ in range(5000):
        y = ag.add(y, x)
    ag.backward(scalarize(y))
    assert x.grad is not None


def test_float32_values_are_kept_under_no_grad_only(rng):
    x32 = rng.standard_normal((4, 3)).astype(np.float32)
    with ag.no_grad():
        assert ag.Tensor(x32).value.dtype == np.float32
        assert ag.tanh(ag.matmul(x32, x32.T)).value.dtype == np.float32
        assert ag.upsample_linear(x32, 9).value.dtype == np.float32
    assert ag.Tensor(x32).value.dtype == np.float64
    assert ag.astype(x32, np.float32).value.dtype == np.float64


def test_recorded_float32_inputs_give_the_float64_gradients(rng):
    arrays = [rng.standard_normal(shape).astype(np.float32)
              for shape in ((7, 3), (3, 3), (3, 3, 2), (2,))]
    seed = rng.standard_normal((7, 2))

    def grads(dtype):
        x, w, cw, cb = (ag.Tensor(a.astype(dtype)) for a in arrays)
        h = ag.add(ag.matmul(ag.astype(x, np.float32), w), x)
        ag.backward(ag.conv1d(h, cw, cb, dilation=2), seed)
        return [x.grad, w.grad, cw.grad, cb.grad]

    for got, want in zip(grads(np.float32), grads(np.float64)):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
