import threading

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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def test_outer_product_matmul(rng):
    """An (n, 1) @ (1, m) matmul equals the broadcast product to the bit,
    as residual_block computes its input projection, and the adjoint holds."""
    fd_check(lambda x, y: scalarize(ag.matmul(x, y)),
             [rng.standard_normal((5, 1)), rng.standard_normal((1, 3))])
    for dtype in (np.float32, np.float64):
        a, b = (rng.standard_normal(s).astype(dtype) for s in ((2428, 1), (1, 16)))
        with ag.no_grad():
            out = ag.matmul(a, b).value
        assert same_bits(out, a * b)


ROW_COUNTS = (1, 2, 3, 4, 7, 8, 9, 16, 17, 100, 127, 128, 129, 1000, 2303, 2304, 2428, 3000)
SCALES = (1e-300, 1e-150, 1.0, 1e150, 1e300)


def row_sum_layouts(base, rows, cols):
    """A (rows, cols) array from base in each layout, with whether its rows
    lie farther apart in memory than its columns."""
    yield "C", base[:rows, :cols].copy(), True
    yield "column-view", base[:rows, 3:3 + cols], True
    yield "row-step-view", base[:, :cols].copy()[::2], True
    yield "fortran", np.asfortranarray(base[:rows, :cols]), False
    yield "transpose", base.T[:cols, :rows].copy().T, False


def test_row_sums_are_the_bits_of_numpys_sum(rng):
    """_row_sums gives g.sum(axis=0) to the bit on every layout, and where
    the rows lie farther apart than the columns einsum does too: a numpy
    whose einsum adds the rows in another order fails here."""
    for rows in ROW_COUNTS:
        for cols in (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 80):
            base = rng.standard_normal((2 * rows, cols + 6))
            for scale in SCALES:
                for layout, g, rows_apart in row_sum_layouts(base * scale, rows, cols):
                    want = g.sum(axis=0)
                    where = (layout, rows, cols, scale)
                    assert g.shape == (rows, cols), where
                    assert same_bits(ag._row_sums(g), want), where
                    if rows_apart and cols > 1:
                        assert same_bits(np.einsum("ij->j", g), want), where


def test_row_sums_of_stacked_gates_are_the_bits_of_one_sum(rng):
    # gru_sequence's bias gradients, one gate at a time
    for s in (1, 2, 3, 16, 64):
        for rows in ROW_COUNTS:
            for scale in SCALES:
                gates = rng.standard_normal((3, rows, s)) * scale
                assert same_bits(np.stack(list(map(ag._row_sums, gates))),
                                 gates.sum(axis=1)), (s, rows, scale)


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


def test_linear_is_matmul_then_add(rng):
    x, w, b = (rng.standard_normal(shape) for shape in ((5, 3), (3, 4), (4,)))
    fd_check(lambda *t: scalarize(ag.linear(*t)), [x, w, b])
    fused = [ag.Tensor(a) for a in (x, w, b)]
    composed = [ag.Tensor(a) for a in (x, w, b)]
    g = rng.standard_normal((5, 4))
    out = ag.linear(*fused)
    ag.backward(out, g)
    want = ag.add(ag.matmul(composed[0], composed[1]), composed[2])
    assert same_bits(out.value, want.value)
    ag.backward(want, g)
    for f, c in zip(fused, composed):
        assert same_bits(f.grad, c.grad)


# --- shape ops ------------------------------------------------------------------


def test_concat_and_slice_grads(rng):
    a = rng.standard_normal((3, 2))
    b = rng.standard_normal((3, 3))
    fd_check(lambda x, y: scalarize(ag.concat([x, y], axis=1)), [a, b])
    fd_check(lambda x, y: scalarize(ag.concat([x, y], axis=0)), [a.T, b])
    d = rng.standard_normal((3, 4))
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


def test_upsample_linear_to_one_row_is_input_row_0(rng):
    rows = rng.standard_normal((3, 2))
    assert np.array_equal(ag.upsample_linear(ag.Tensor(rows), 1).value, rows[:1])


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


def gathered_upsample(a, g, out_rows, start, stop):
    """The value and adjoint of upsampling by a[idx] * weight, with the
    weights broadcast along the channels: the reference bits."""
    pos = np.arange(start, stop) * (len(a) - 1) / max(out_rows - 1, 1)
    idx0 = np.minimum(pos.astype(np.int64), len(a) - 1)
    idx1 = np.minimum(idx0 + 1, len(a) - 1)
    frac = (pos - idx0)[:, None].astype(a.dtype, copy=False)
    grad = np.zeros_like(a)
    for idx, weight in ((idx0, 1.0 - frac), (idx1, frac)):
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        grad[idx[starts]] += np.add.reduceat(g * weight, starts, axis=0)
    return a[idx0] * (1.0 - frac) + a[idx1] * frac, grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("start, stop", [(0, 2304), (2180, 4608), (6788, 7776)])
def test_upsample_linear_equals_gathered_rows(rng, dtype, start, stop):
    # an NSF clip's first, full and last windows: 27 frames to 288 rows each
    a = rng.standard_normal((27, 16)).astype(dtype)
    g = rng.standard_normal((stop - start, 16))
    want_value, _ = gathered_upsample(a, g, 7776, start, stop)
    with ag.no_grad():
        value = ag.upsample_linear(ag.Tensor(a), 7776, start, stop).value
    assert value.dtype == dtype and same_bits(value, want_value)
    # recording runs in float64, so the adjoint only ever meets float64
    a64 = a.astype(np.float64)
    leaf = ag.Tensor(a64)
    out = ag.upsample_linear(leaf, 7776, start, stop)
    ag.backward(out, seed=g)
    want_value, want_grad = gathered_upsample(a64, g, 7776, start, stop)
    assert same_bits(out.value, want_value) and same_bits(leaf.grad, want_grad)


def test_cached_conv_taps_cannot_be_changed():
    center, others = ag._conv_taps(50, 3, 4, True)
    assert ag._conv_taps(50, 3, 4, True)[1] is others  # the cached entry
    with pytest.raises(TypeError):
        others[0] = (1, slice(0, 50), slice(0, 50))
    with pytest.raises(TypeError):
        others[0][1:] = (slice(0, 50), slice(0, 50))
    with pytest.raises(AttributeError):
        others[0][1].start = 0
    assert ag._conv_taps(50, 3, 4, True) == (0, ((1, slice(4, 50), slice(0, 46)),
                                                 (2, slice(8, 50), slice(0, 42))))


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


def gru_case(rng, rows, s=3):
    """Gate inputs of rows stacked steps, and recurrent weights and biases."""
    x = [0.8 * rng.standard_normal((rows, s)) for _ in range(3)]
    u = [0.6 * rng.standard_normal((s, s)) for _ in range(3)]
    b = [0.3 * rng.standard_normal(s) for _ in range(3)]
    return x, u, b


def test_gru_sequence_grads_over_three_rows(rng):
    x, u, b = gru_case(rng, 12)
    target = ag.Tensor(rng.standard_normal((12, 3)))
    fd_check(lambda *t: ag.square_error_mean(
        ag.gru_sequence(t[0:3], t[3:6], t[6:9], batch=3), target), x + u + b)


def test_gru_sequence_stacked_rows_equal_one_row_runs(rng):
    x, u, b = gru_case(rng, 18, s=4)
    stacked = ag.gru_sequence(x, u, b, batch=3).value
    for i in range(3):
        rows = slice(6 * i, 6 * i + 6)
        one = ag.gru_sequence([v[rows] for v in x], u, b).value
        np.testing.assert_allclose(stacked[rows], one, rtol=1e-12, atol=1e-15)


def test_gru_sequence_padded_steps_leave_real_gradients_unchanged(rng):
    # sequences of 5, 3 and 2 steps, the last two padded with arbitrary
    # gate inputs that get zero upstream gradient
    steps, s = (5, 3, 2), 3
    x, u, b = gru_case(rng, 15)
    g = rng.standard_normal((15, s))
    real = np.concatenate([np.arange(5 * i, 5 * i + m) for i, m in enumerate(steps)])
    g[np.setdiff1d(np.arange(15), real)] = 0.0
    leaves = [ag.Tensor(a) for a in x + u + b]
    ag.backward(ag.gru_sequence(leaves[0:3], leaves[3:6], leaves[6:9], batch=3), g)
    want = [np.zeros_like(a) for a in x + u + b]
    for i, m in enumerate(steps):
        rows = slice(5 * i, 5 * i + m)
        one = [ag.Tensor(a) for a in [v[rows] for v in x] + u + b]
        ag.backward(ag.gru_sequence(one[0:3], one[3:6], one[6:9]), g[rows])
        for k, t in enumerate(one):
            if k < 3:
                want[k][rows] = t.grad
            else:
                want[k] += t.grad
    for k, t in enumerate(leaves):
        np.testing.assert_allclose(t.grad, want[k], rtol=1e-12, atol=1e-15)
    for t in leaves[:3]:  # padded steps' inputs get exactly zero
        assert not np.any(np.delete(t.grad, real, axis=0))


def composed_block(x, cond, w_in, b_in, convs, w_out, b_out):
    """The residual block as the graph of single ops that it fuses."""
    x, cond = ag.as_tensor(x), ag.as_tensor(cond)
    cast = x if x.value.dtype == cond.value.dtype else \
        ag.Tensor(x.value.astype(cond.value.dtype))
    h = ag.add(ag.add(ag.matmul(cast, w_in), b_in), cond)
    for w, b, dilation in convs:
        h = ag.add(h, ag.tanh(ag.conv1d(h, w, b, dilation=dilation)))
    return ag.add(x, ag.add(ag.matmul(h, w_out), b_out))


def block_arrays(rng, rows, channels, kernel, dilations):
    """x, cond, w_in and b_in, each convolution's weight and bias, then
    w_out and b_out."""
    c = channels
    convs = [a for _ in dilations for a in (0.4 * rng.standard_normal((kernel, c, c)),
                                            0.1 * rng.standard_normal(c))]
    return [0.5 * rng.standard_normal((rows, 1)), rng.standard_normal((rows, c)),
            rng.standard_normal((1, c)), 0.1 * rng.standard_normal(c), *convs,
            0.3 * rng.standard_normal((c, 1)), 0.1 * rng.standard_normal(1)]


def run_block(block, args, dilations):
    x, cond, w_in, b_in, *convs, w_out, b_out = args
    return block(x, cond, w_in, b_in, list(zip(convs[::2], convs[1::2], dilations)),
                 w_out, b_out)


@pytest.mark.parametrize("rows, kernel, dilations", [
    (40, 3, (1, 2, 4, 8, 16)),
    (12, 2, (1, 12, 3)),  # dilation 12 reaches past every row: its tap is skipped
    (9, 1, (1, 2)),
    (1, 3, (1, 2)),
], ids=["kernel-3", "kernel-2-tap-past-the-rows", "kernel-1", "one-row"])
def test_residual_block_equals_composed_graph(rng, rows, kernel, dilations):
    arrays = block_arrays(rng, rows, 4, kernel, dilations)
    seed = rng.standard_normal((rows, 1))
    # nsf_backward seeds a window's receptive-field rows with exactly 0.0;
    # with a negative entry in w_out, g * w_out.T makes -0.0 on those rows,
    # where the composed graph's matmul makes +0.0
    quiet = seed.copy()
    quiet[:(rows + 1) // 2] = 0.0
    assert (arrays[-2] < 0).any()
    for g in (seed, quiet):
        results = []
        for block in (ag.residual_block, composed_block):
            tensors = [ag.Tensor(a) for a in arrays]
            out = run_block(block, tensors, dilations)
            ag.backward(out, g)
            results.append([out.value] + [t.grad for t in tensors])
        got, want = results
        assert len(got) == 1 + 6 + 2 * len(dilations)
        for i, (a, b) in enumerate(zip(got, want)):
            assert same_bits(a, b), i


def test_residual_block_grads(rng):
    dilations = (1, 2)
    fd_check(lambda *t: scalarize(run_block(ag.residual_block, t, dilations)),
             block_arrays(rng, 6, 2, 2, dilations))


def test_residual_block_float32_stack_under_no_grad(rng):
    # the channel stack in float32; x, w_out and b_out stay float64
    dilations = (1, 2, 4)
    arrays = block_arrays(rng, 30, 4, 3, dilations)
    arrays[1:-2] = [a.astype(np.float32) for a in arrays[1:-2]]
    before = [a.copy() for a in arrays]
    with ag.no_grad():
        got = run_block(ag.residual_block, arrays, dilations).value
        want = run_block(composed_block, arrays, dilations).value
    assert got.dtype == np.float64 and same_bits(got, want)
    for after, kept in zip(arrays, before):
        assert same_bits(after, kept)


@pytest.mark.parametrize("which", [2, 3, 5], ids=["w_in", "b_in", "conv-bias"])
def test_residual_block_takes_whole_row_parameters_only_under_no_grad(rng, which):
    dilations = (1, 2)
    arrays = block_arrays(rng, 6, 2, 2, dilations)
    wide = list(arrays)
    wide[which] = np.repeat(arrays[which].reshape(1, -1), 6, axis=0)
    with ag.no_grad():
        got = run_block(ag.residual_block, wide, dilations).value
        want = run_block(ag.residual_block, arrays, dilations).value
    assert same_bits(got, want)
    with pytest.raises(ValueError, match="while recording"):
        run_block(ag.residual_block, wide, dilations)


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
    sizes = []  # taken before backward, which frees the tape
    backward = ag.backward
    monkeypatch.setattr(ag, "backward", lambda root, seed=None: (
        sizes.append(_tape_size(root)), backward(root, seed)))
    cfg = helpers.tiny_am_cfg(variant, output_dim=4, prenet_dropout=0.5)
    params = acoustic.am_init(cfg, seed=0)
    for steps in (8, 64):
        n = steps * cfg.downsample_factor
        roll = PianoRoll(rng.random((n, 128)), 0.012)
        target = FeatureMatrix(rng.standard_normal((n, 4)), "midi-fb", 0.012, 24000.0)
        acoustic.am_teacher_forced(params, roll, target, cfg)
    # one pass backpropagates the item's head and loss, then the recurrence
    assert len(sizes) == 4 and sizes[:2] == sizes[2:]


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
    product = ag.matmul(x, w)
    hidden = ag.tanh(product)
    out = ag.add(hidden, hidden)
    ag.backward(out)
    assert x.grad.shape == (2, 3) and w.grad.shape == (3, 2)
    assert hidden.grad is None and out.grad is None
    assert product.grad is None
    # the walk frees the tape: inner nodes keep their values only
    assert out.parents == hidden.parents == () and hidden.adjoint is None


def test_no_grad_blocks_graph(rng):
    with ag.no_grad():
        x = ag.Tensor(np.ones((2, 2)))
        y = ag.tanh(ag.matmul(x, ag.Tensor(np.ones((2, 2)))))
        assert not y.parents
    # recording resumes once the block exits
    assert ag.tanh(x).parents


def test_no_grad_blocks_on_two_threads_leave_the_others_recording(rng):
    # the first thread's block opens first and closes first
    x = ag.Tensor(rng.standard_normal((2, 2)))
    first_in, second_in, checked, first_out = (threading.Event() for _ in range(4))
    recorded = {}

    def first():
        with ag.no_grad():
            first_in.set()
            checked.wait(10)
        first_out.set()
        recorded["first"] = bool(ag.tanh(x).parents)

    def second():
        first_in.wait(10)
        with ag.no_grad():
            second_in.set()
            first_out.wait(10)
        recorded["second"] = bool(ag.tanh(x).parents)

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    assert second_in.wait(10)
    recorded["main, inside both"] = bool(ag.tanh(x).parents)
    checked.set()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    recorded["main, after both"] = bool(ag.tanh(x).parents)
    assert recorded == dict.fromkeys(
        ("first", "second", "main, inside both", "main, after both"), True)


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
    block = [a.astype(np.float32) for a in block_arrays(rng, 4, 3, 2, (1,))]
    with ag.no_grad():
        assert ag.Tensor(x32).value.dtype == np.float32
        assert ag.tanh(ag.matmul(x32, x32.T)).value.dtype == np.float32
        assert ag.upsample_linear(x32, 9).value.dtype == np.float32
        assert run_block(ag.residual_block, block, (1,)).value.dtype == np.float32
    assert ag.Tensor(x32).value.dtype == np.float64
    assert run_block(ag.residual_block, block, (1,)).value.dtype == np.float64


def test_recorded_float32_inputs_give_the_float64_gradients(rng):
    dilations = (1, 2)
    arrays = [a.astype(np.float32) for a in block_arrays(rng, 7, 3, 2, dilations)]
    seed = rng.standard_normal((7, 1))

    def grads(dtype):
        tensors = [ag.Tensor(a.astype(dtype)) for a in arrays]
        ag.backward(run_block(ag.residual_block, tensors, dilations), seed)
        return [t.grad for t in tensors]

    for got, want in zip(grads(np.float32), grads(np.float64)):
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
