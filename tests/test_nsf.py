import dataclasses
import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import helpers
from midisynth import autograd as ag
from midisynth import formats, nsf
from midisynth.dsp import FeatureMatrix, StftConfig, WaveSignal, mr_stft_loss
from midisynth.errors import FileFormatError, TooLarge, TrainingDiverged
from midisynth.midi_io import PianoRoll
from midisynth.params import MAX_EPOCHS, MAX_PARAMETERS, MAX_TENSORS, ModelParams, \
    adam_update, check_layer_table, fit


def make_inputs(cfg, n_frames, rng, kind="mel-fb"):
    feats = FeatureMatrix(rng.standard_normal((n_frames, cfg.feature_dim)),
                          kind, cfg.upsample_factor / 24000.0, 24000.0)
    t = n_frames * cfg.upsample_factor
    source = WaveSignal(rng.standard_normal(t) * 0.1, 24000.0)
    return feats, source


def small_resolutions():
    make = lambda n, s: StftConfig(sample_rate=24000, frame_length=n,
                                   frame_shift=s, fft_size=n)
    return (make(32, 8), make(64, 16))


# --- parameters ---------------------------------------------------------------


def test_param_shapes_cover_all_blocks():
    cfg = helpers.tiny_nsf_cfg(feature_dim=3, channels=4, blocks=2, convs=3)
    shapes = nsf.nsf_param_shapes(cfg)
    assert shapes["cond.weight"] == (3, 4)
    assert shapes["cond.bias"] == (4,)
    for b in range(2):
        assert shapes[f"block{b}.in.weight"] == (1, 4)
        assert shapes[f"block{b}.out.weight"] == (4, 1)
        for j in range(3):
            assert shapes[f"block{b}.conv{j}.weight"] == (3, 4, 4)
    assert len(shapes) == 2 + 2 * (4 + 2 * 3)


def test_parameter_bound():
    assert sum(math.prod(s) for s in nsf.nsf_param_shapes(
        nsf.NsfConfig(128, channels=512)).values()) == 7938562
    table = lambda *sizes: ((f"t{i}", ((n,), None)) for i, n in enumerate(sizes))
    check_layer_table(table(MAX_PARAMETERS))
    check_layer_table(table(*[1] * MAX_TENSORS))
    with pytest.raises(TooLarge, match=f"limit is {MAX_PARAMETERS}"):
        check_layer_table(table(MAX_PARAMETERS, 1))
    with pytest.raises(TooLarge, match=f"limit is {MAX_TENSORS}"):
        check_layer_table(table(*[1] * (MAX_TENSORS + 1)))
    with pytest.raises(TooLarge, match=f"limit is {MAX_PARAMETERS}"):
        nsf.NsfConfig(128, channels=10 ** 9)
    # many small layers pass the tensor bound long before the parameter bound
    for fields in ({"n_blocks": 10 ** 9}, {"convs_per_block": 10 ** 9},
                   {"n_blocks": 2796181, "convs_per_block": 1, "channels": 1,
                    "kernel": 1}):
        with pytest.raises(TooLarge, match=f"limit is {MAX_TENSORS}"):
            nsf.NsfConfig(128, **fields)


def test_layer_table_walk_stops_at_the_first_entry_past_a_limit():
    read = []

    def table():
        for i in range(10 ** 9):
            read.append(i)
            yield f"t{i}", ((1,), None)

    with pytest.raises(TooLarge, match="4097 tensors up to 't4096'"):
        check_layer_table(table())
    assert len(read) == MAX_TENSORS + 1


def test_receptive_field_bound():
    # a paper-sized stack: 5 blocks of 10 convolutions at kernel 3
    assert nsf._receptive_field(
        nsf.NsfConfig(128, n_blocks=5, convs_per_block=10)) == 10230
    # one convolution of kernel 65537 reads exactly 2^16 samples back
    nsf.NsfConfig(128, n_blocks=1, convs_per_block=1, channels=1,
                  kernel=nsf.MAX_RECEPTIVE_FIELD + 1)
    for fields in ({"n_blocks": 1, "convs_per_block": 1, "channels": 1,
                    "kernel": nsf.MAX_RECEPTIVE_FIELD + 2},
                   {"convs_per_block": 30, "channels": 4},
                   {"convs_per_block": 2000, "channels": 1, "kernel": 2,
                    "n_blocks": 1}):
        with pytest.raises(TooLarge, match=f"receptive field .* limit is "
                                           f"{nsf.MAX_RECEPTIVE_FIELD}"):
            nsf.NsfConfig(128, **fields)


def test_init_zeroes_output_projections():
    cfg = helpers.tiny_nsf_cfg()
    params = nsf.nsf_init(cfg, seed=3)
    for b in range(cfg.n_blocks):
        assert not params.tensors[f"block{b}.out.weight"].any()
        assert not params.tensors[f"block{b}.out.bias"].any()
    assert params.tensors["cond.weight"].any()
    assert params.step == 0


def test_init_seed_reproducible():
    cfg = helpers.tiny_nsf_cfg()
    a = nsf.nsf_init(cfg, seed=5)
    b = nsf.nsf_init(cfg, seed=5)
    c = nsf.nsf_init(cfg, seed=6)
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert any(not np.array_equal(a.tensors[n], c.tensors[n])
               for n in a.tensors)


# --- forward ------------------------------------------------------------------


def test_zero_params_forward_is_identity(rng):
    cfg = helpers.tiny_nsf_cfg()
    feats, source = make_inputs(cfg, 5, rng)
    out = nsf.nsf_forward(nsf.nsf_zero(cfg), feats, source, cfg)
    assert np.array_equal(out.samples, source.samples)


def test_zero_params_float32_forward_is_identity(rng):
    # the running signal stays float64, so the float32 stack adds exact zeros
    cfg = helpers.tiny_nsf_cfg()
    feats, source = make_inputs(cfg, 5, rng)
    out = nsf.nsf_forward(nsf.nsf_zero(cfg), feats, source, cfg, np.float32)
    assert np.array_equal(out.samples, source.samples)


def test_random_init_forward_is_identity(rng):
    # output projections start at zero, so every block is a no-op
    cfg = helpers.tiny_nsf_cfg()
    feats, source = make_inputs(cfg, 5, rng)
    out = nsf.nsf_forward(nsf.nsf_init(cfg, seed=11), feats, source, cfg)
    assert np.array_equal(out.samples, source.samples)


def test_forward_output_clipped(rng):
    cfg = helpers.tiny_nsf_cfg()
    params = nsf.nsf_init(cfg, seed=2)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = 5.0
        params.tensors[f"block{b}.out.bias"][:] = 5.0
    feats, source = make_inputs(cfg, 4, rng)
    out = nsf.nsf_forward(params, feats, source, cfg)
    assert len(out) == len(source)
    assert np.abs(out.samples).max() <= 1.0


def test_forward_takes_a_piano_roll(rng):
    # a roll is the piano-roll FeatureMatrix, so it conditions the model as is
    cfg = helpers.tiny_nsf_cfg(feature_dim=128)
    params = nsf.nsf_init(cfg, seed=2)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = 0.5
    roll = PianoRoll(rng.random((4, 128)), cfg.upsample_factor / 24000.0)
    _, source = make_inputs(cfg, 4, rng)
    plain = FeatureMatrix(roll.values, "piano-roll", roll.frame_shift, roll.sample_rate)
    outs = [nsf.nsf_forward(params, feats, source, cfg).samples
            for feats in (roll, formats.feature_from_roll(roll), plain)]
    assert not np.array_equal(outs[0], source.samples)
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])


def test_forward_input_checks(rng):
    cfg = helpers.tiny_nsf_cfg()
    params = nsf.nsf_zero(cfg)
    feats, source = make_inputs(cfg, 4, rng)
    bad_dim = FeatureMatrix(np.zeros((4, cfg.feature_dim + 1)), "mel-fb",
                            feats.frame_shift, 24000.0)
    with pytest.raises(ValueError, match="features have 4 dims"):
        nsf.nsf_forward(params, bad_dim, source, cfg)
    with pytest.raises(ValueError, match="excitation has 31 samples"):
        nsf.nsf_forward(params, feats,
                        WaveSignal(source.samples[:-1], 24000.0), cfg)
    with pytest.raises(ValueError, match="excitation at 16000.0 Hz"):
        nsf.nsf_forward(params, feats,
                        WaveSignal(source.samples, 16000.0), cfg)
    linear = FeatureMatrix(np.zeros((4, cfg.feature_dim)), "linear-spec",
                           feats.frame_shift, 24000.0)
    with pytest.raises(ValueError):
        nsf.nsf_forward(params, linear, source, cfg)


def test_forward_causal(rng):
    cfg = helpers.tiny_nsf_cfg(channels=4, convs=3)
    params = nsf.nsf_init(cfg, seed=1)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = 0.3
    feats, source = make_inputs(cfg, 6, rng)
    out1 = nsf.nsf_forward(params, feats, source, cfg)
    bumped = source.samples.copy()
    bumped[24:] += 0.5
    out2 = nsf.nsf_forward(params, feats, WaveSignal(bumped, 24000.0), cfg)
    assert np.array_equal(out1.samples[:24], out2.samples[:24])
    assert not np.array_equal(out1.samples[24:], out2.samples[24:])


def test_forward_empty_features():
    cfg = helpers.tiny_nsf_cfg()
    feats = FeatureMatrix(np.zeros((0, cfg.feature_dim)), "mel-fb",
                          cfg.upsample_factor / 24000.0, 24000.0)
    out = nsf.nsf_forward(nsf.nsf_zero(cfg), feats,
                          WaveSignal(np.zeros(0), 24000.0), cfg)
    assert len(out) == 0


# --- chunked inference ------------------------------------------------------


def whole_clip_forward(params, feats, source, cfg, dtype=np.float64):
    """The model over the whole clip in one graph, the reference for the windows."""
    with ag.no_grad():
        tensors = nsf._stack_tensors(params, dtype)
        out = nsf._build_graph(tensors, nsf._frame_condition(tensors, feats.values),
                               source.samples, cfg, 0, len(source))
    return out.value[:, 0]


def test_receptive_field_default_config():
    # two blocks of kernel-3 convolutions with dilations 1..16
    assert nsf._receptive_field(nsf.NsfConfig(feature_dim=1)) == 2 * 2 * 31


# Models by their receptive field R, as tiny_nsf_cfg arguments.  Windows
# that start R rows back, not rounded down to a 4-row boundary, leave the
# whole-clip bits on the first four; 124 is the default model's stack.
SHAPES = {90: dict(blocks=3, convs=4, channels=8),
          6: dict(blocks=1, convs=2, channels=16),
          1: dict(blocks=1, convs=1, channels=16, kernel=2),
          62: dict(blocks=2, convs=5, channels=16, kernel=2),
          124: dict(blocks=2, convs=5, channels=16)}
TINY = dict(blocks=2, convs=3, channels=4)  # R = 28


def on_shapes(cases):
    """(n_frames, chunk, shape): cases on TINY, then 41 frames in one-frame
    windows, 328 rows, on each of SHAPES."""
    return [pytest.param(n, chunk, TINY, id=f"{n}-{chunk}") for n, chunk in cases] \
        + [pytest.param(41, 1, shape, id=f"R{r}") for r, shape in SHAPES.items()]


@pytest.mark.parametrize("n_frames, chunk, shape", on_shapes([
    (9, 1),    # one-frame windows; the overlap spans several windows
    (9, 4),    # windows that do not divide the clip
    (9, 20),   # one window longer than the clip
    (1, 4),
    (2, 1),
    (2, 4),
]))
def test_chunked_forward_equals_whole_clip(rng, monkeypatch, n_frames, chunk, shape):
    cfg = helpers.tiny_nsf_cfg(**shape)
    params = nsf.nsf_init(cfg, seed=5)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = \
            rng.standard_normal((cfg.channels, 1)) * 0.2 / cfg.channels
    feats, source = make_inputs(cfg, n_frames, rng)
    monkeypatch.setattr(nsf, "_CHUNK_FRAMES", chunk)
    out = nsf.nsf_forward(params, feats, source, cfg)
    want = whole_clip_forward(params, feats, source, cfg)
    assert np.abs(want).max() < 1.0  # nothing hidden by the output clip
    assert np.array_equal(out.samples, want)


@pytest.mark.parametrize("n_frames, chunk, shape",
                         on_shapes([(9, 1), (9, 4), (9, 20), (2, 1)]))
def test_chunked_float32_forward_equals_whole_clip(rng, monkeypatch, n_frames, chunk,
                                                   shape):
    cfg = helpers.tiny_nsf_cfg(**shape)
    params = nsf.nsf_init(cfg, seed=5)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = \
            rng.standard_normal((cfg.channels, 1)) * 0.2 / cfg.channels
    feats, source = make_inputs(cfg, n_frames, rng)
    monkeypatch.setattr(nsf, "_CHUNK_FRAMES", chunk)
    stack_dtypes = set()
    real_block = ag.residual_block

    def residual_block(x, cond, *args):
        stack_dtypes.add(cond.value.dtype)  # the dtype of the channel state
        return real_block(x, cond, *args)

    monkeypatch.setattr(ag, "residual_block", residual_block)
    out = nsf.nsf_forward(params, feats, source, cfg, np.float32)
    want = whole_clip_forward(params, feats, source, cfg, np.float32)
    assert np.array_equal(out.samples, want)
    # a float32 stack, within float32's rounding of the float64 one
    assert stack_dtypes == {np.dtype(np.float32)}
    exact = whole_clip_forward(params, feats, source, cfg)
    assert 0 < np.abs(want - exact).max() < 1e-5


@pytest.mark.parametrize("widened", [14, 5, 0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_default_config_forward_equals_whole_clip(rng, monkeypatch, dtype, widened):
    """27 frames of 288 samples: a first window of 2304 rows, two full
    ones of 2428 and a last one of 988, each adding all, some or none of
    its 14 parameters as whole rows, against one graph of the (channels,)
    tensors."""
    monkeypatch.setattr(nsf, "_WIDE_BYTES", widened * 2428 * 16 * np.dtype(dtype).itemsize)
    cfg = nsf.NsfConfig(feature_dim=8)
    params = nsf.nsf_init(cfg, seed=5)
    for name, value in params.tensors.items():
        value[...] = rng.uniform(-0.1, 0.1, value.shape)
    feats, source = make_inputs(cfg, 27, rng)
    assert nsf._stack_dtype(params, feats, source, cfg) is np.float32
    assert [stop - lo for lo, _, stop in nsf._windows(len(source), cfg)] == \
        [2304, 2428, 2428, 988]
    out = nsf.nsf_forward(params, feats, source, cfg, dtype)
    want = whole_clip_forward(params, feats, source, cfg, dtype)
    assert np.abs(want).max() < 1.0  # nothing hidden by the output clip
    assert np.array_equal(out.samples, want)


def whole_clip_backward(params, feats, source, target, cfg):
    """Loss and gradients through one graph over the whole clip."""
    tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
    out = nsf._build_graph(tensors, nsf._frame_condition(tensors, feats.values),
                           source.samples, cfg, 0, len(source))
    loss, grad_pred = mr_stft_loss(WaveSignal(out.value[:, 0], 24000.0), target,
                                   small_resolutions())
    ag.backward(out, seed=grad_pred[:, None])
    return loss, {name: t.grad for name, t in tensors.items()}


@pytest.mark.parametrize("n_frames, chunk, shape",
                         on_shapes([(n, chunk) for chunk in (1, 4, 20) for n in (1, 2, 9)]))
def test_windowed_backward_equals_whole_clip(rng, monkeypatch, n_frames, chunk, shape):
    cfg = helpers.tiny_nsf_cfg(**shape)
    params = nsf.nsf_init(cfg, seed=5)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = \
            rng.standard_normal((cfg.channels, 1)) * 0.2 / cfg.channels
    feats, source = make_inputs(cfg, n_frames, rng)
    target = WaveSignal(rng.standard_normal(len(source)) * 0.1, 24000.0)
    monkeypatch.setattr(nsf, "_CHUNK_FRAMES", chunk)
    loss, grads = nsf.nsf_backward(params, feats, source, target, cfg,
                                   small_resolutions())
    want_loss, want = whole_clip_backward(params, feats, source, target, cfg)
    assert np.abs(whole_clip_forward(params, feats, source, cfg)).max() < 1.0
    assert loss == want_loss
    assert set(grads) == set(want)
    for name, g in want.items():
        assert np.abs(g).max() > 0.0, name
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


def test_forward_and_backward_on_two_threads_equal_serial_runs(rng):
    # autograd's recording switch is per thread: the forward's no_grad
    # leaves the other thread's graphs recorded
    cfg = helpers.tiny_nsf_cfg(channels=4, blocks=2)
    params = nsf.nsf_init(cfg, seed=5)
    for b in range(cfg.n_blocks):
        params.tensors[f"block{b}.out.weight"][:] = rng.standard_normal((cfg.channels, 1)) * 0.1
    feats, source = make_inputs(cfg, 24, rng)
    target = WaveSignal(rng.standard_normal(len(source)) * 0.1, 24000.0)
    want_out = nsf.nsf_forward(params, feats, source, cfg).samples
    want_loss, want_grads = nsf.nsf_backward(params, feats, source, target, cfg,
                                             small_resolutions())
    failures = []

    def forward():
        for _ in range(100):
            if not np.array_equal(nsf.nsf_forward(params, feats, source, cfg).samples,
                                  want_out):
                failures.append("forward")

    def backward():
        for _ in range(100):
            loss, grads = nsf.nsf_backward(params, feats, source, target, cfg,
                                           small_resolutions())
            if loss != want_loss or any(not np.array_equal(grads[k], g)
                                        for k, g in want_grads.items()):
                failures.append("backward")

    def run(work):
        try:
            work()
        except Exception as error:  # reported by the assert below
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in (forward, backward)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_backward_refuses_an_empty_segment():
    cfg = helpers.tiny_nsf_cfg()
    feats = FeatureMatrix(np.zeros((0, cfg.feature_dim)), "mel-fb",
                          cfg.upsample_factor / 24000.0, 24000.0)
    empty = WaveSignal(np.zeros(0), 24000.0)
    with pytest.raises(ValueError, match="empty segment"):
        nsf.nsf_backward(nsf.nsf_zero(cfg), feats, empty, empty, cfg)


def test_forward_working_memory_does_not_grow_with_clip(rng):
    # tracemalloc sees numpy buffers; the output array and the per-frame
    # condition (n_frames x channels) must grow with the clip, so both are
    # left out of the figure
    cfg = nsf.NsfConfig(feature_dim=2)
    params = nsf.nsf_init(cfg, seed=0)

    def working_bytes(seconds):
        n_frames = round(seconds * 24000 / cfg.upsample_factor)
        feats = FeatureMatrix(rng.random((n_frames, cfg.feature_dim)), "midi-fb",
                              cfg.upsample_factor / 24000.0, 24000.0)
        source = WaveSignal(np.zeros(n_frames * cfg.upsample_factor), 24000.0)
        tracemalloc.start()
        try:
            out = nsf.nsf_forward(params, feats, source, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.samples.nbytes - n_frames * cfg.channels * 8

    assert working_bytes(40.0) <= 1.05 * working_bytes(5.0)


def test_forward_whole_row_parameters_stay_within_bound(rng):
    # 20 blocks of 4 convolutions at 64 channels have 120 parameters to add
    # as whole rows: 2904 x 64 float32 each, 85 MiB in all, past the bound
    cfg = nsf.NsfConfig(feature_dim=2, n_blocks=20, convs_per_block=4, channels=64)
    params = nsf.nsf_zero(cfg)
    feats, source = make_inputs(cfg, 11, rng)
    tracemalloc.start()
    try:
        nsf.nsf_forward(params, feats, source, cfg, np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 120 * 2904 * 64 * 4 > 10 * nsf._WIDE_BYTES
    assert peak < nsf._WIDE_BYTES + 16 * 2 ** 20  # the float32 weights take 3.8 MiB


def default_segment(cfg, seconds, rng):
    """Features, source and target of a segment for the default model."""
    n_frames = round(seconds * 24000 / cfg.upsample_factor)
    feats = FeatureMatrix(rng.random((n_frames, cfg.feature_dim)), "mel-fb",
                          cfg.upsample_factor / 24000.0, 24000.0)
    source = WaveSignal(0.1 * rng.standard_normal(n_frames * cfg.upsample_factor),
                        24000.0)
    target = WaveSignal(0.1 * rng.standard_normal(len(source)), 24000.0)
    return feats, source, target


def test_backward_memory_of_one_second_segment(rng):
    # one second measures about 9.5 MB, most of it one window's graph; the
    # whole-segment graph measured 88 MB, and a (samples x taps * channels)
    # copy held on the tape by each of the ten convolutions would add 9 MB
    cfg = nsf.NsfConfig(feature_dim=80)
    feats, source, target = default_segment(cfg, 1.0, rng)
    params = nsf.nsf_init(cfg, seed=0)
    tracemalloc.start()
    try:
        nsf.nsf_backward(params, feats, source, target, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_backward_graph_memory_does_not_grow_with_segment(rng, monkeypatch):
    # The spectral loss holds O(samples) arrays of its own (33 MiB at 6 s),
    # more than one window's graph, so under tracing it is replayed from a
    # result computed beforehand; the prediction's 8 bytes a sample are left
    # out too, which leaves the recorded graph.
    cfg = nsf.NsfConfig(feature_dim=80)
    params = nsf.nsf_init(cfg, seed=0)

    def graph_bytes(seconds):
        feats, source, target = default_segment(cfg, seconds, rng)
        result = mr_stft_loss(nsf.nsf_forward(params, feats, source, cfg), target)
        monkeypatch.setattr(nsf, "mr_stft_loss", lambda *_: result)
        tracemalloc.start()
        try:
            nsf.nsf_backward(params, feats, source, target, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - source.samples.nbytes

    assert graph_bytes(6.0) <= 1.2 * graph_bytes(1.0)


# --- condition upsampling ---------------------------------------------------


def test_condition_upsample_linear_ramp():
    # with every other tensor zero, the output is the sum of the condition
    # channels: the block adds h @ out.weight and h is the condition
    cfg = helpers.tiny_nsf_cfg(feature_dim=2, channels=2, upsample=4)
    params = nsf.nsf_zero(cfg)
    params.tensors["cond.weight"][:] = np.eye(2)
    params.tensors["block0.out.weight"][:] = 1.0
    feats = FeatureMatrix(np.array([[0.0, 0.2], [0.7, 0.2]]), "mel-fb",
                          4 / 24000.0, 24000.0)
    out = nsf.nsf_forward(params, feats, WaveSignal(np.zeros(8), 24000.0), cfg)
    assert out.samples == pytest.approx(np.arange(8) / 7 * 0.7 + 0.2)


def test_condition_upsample_constant_features(rng):
    cfg = helpers.tiny_nsf_cfg(feature_dim=3, channels=2, upsample=8)
    params = nsf.nsf_init(cfg, seed=0)
    for name in params.tensors:
        if ".conv" in name and name.endswith("weight"):
            params.tensors[name][:] = 0.0
    params.tensors["block0.out.weight"][:] = 0.3
    row = rng.standard_normal(3)
    feats = FeatureMatrix(np.tile(row, (5, 1)), "mel-fb", 8 / 24000.0, 24000.0)
    out = nsf.nsf_forward(params, feats, WaveSignal(np.zeros(40), 24000.0), cfg)
    assert out.samples[0] != 0.0
    assert np.allclose(out.samples, out.samples[0])


# --- gradients ---------------------------------------------------------------


def test_backward_zero_loss_at_target(rng):
    cfg = helpers.tiny_nsf_cfg(upsample=8)
    params = nsf.nsf_zero(cfg)
    feats, source = make_inputs(cfg, 8, rng)
    loss, grads = nsf.nsf_backward(params, feats, source, source, cfg,
                                   small_resolutions())
    assert loss == 0.0
    assert set(grads) == set(params.tensors)
    for g in grads.values():
        assert np.allclose(g, 0.0)


def test_backward_gradient_spot_check(rng):
    cfg = helpers.tiny_nsf_cfg(feature_dim=2, upsample=8, channels=2,
                               blocks=1, convs=2)
    params = nsf.nsf_init(cfg, seed=4)
    feats, source = make_inputs(cfg, 4, rng)
    target = WaveSignal(rng.standard_normal(len(source)) * 0.1, 24000.0)
    res = small_resolutions()
    _, grads = nsf.nsf_backward(params, feats, source, target, cfg, res)
    eps = 1e-5  # the log-magnitude terms have sharp curvature at this scale
    for name in ("cond.weight", "block0.conv0.weight", "block0.out.weight",
                 "block0.in.bias"):
        tensor = params.tensors[name]
        idx = tuple(rng.integers(0, s) for s in tensor.shape)
        saved = tensor[idx]
        tensor[idx] = saved + eps
        up, _ = nsf.nsf_backward(params, feats, source, target, cfg, res)
        tensor[idx] = saved - eps
        down, _ = nsf.nsf_backward(params, feats, source, target, cfg, res)
        tensor[idx] = saved
        fd = (up - down) / (2 * eps)
        assert helpers.rel_err(grads[name][idx], fd) < 1e-4, name


# --- training ----------------------------------------------------------------


def test_train_same_seed_same_history(rng):
    cfg = helpers.tiny_nsf_cfg(feature_dim=2, upsample=8, channels=2)
    params = nsf.nsf_init(cfg, seed=0)
    data = []
    for _ in range(3):
        feats, source = make_inputs(cfg, 4, rng)
        target = WaveSignal(0.5 * source.samples, 24000.0)
        data.append((feats, source, target))
    tc = nsf.TrainConfig(learning_rate=1e-3, batch_size=2, epochs=3, seed=9)
    out1, hist1 = nsf.nsf_train(params, data, tc, cfg, small_resolutions())
    out2, hist2 = nsf.nsf_train(params, data, tc, cfg, small_resolutions())
    assert hist1 == hist2
    for name in out1.tensors:
        assert np.array_equal(out1.tensors[name], out2.tensors[name])
    assert out1.step == len(hist1)
    assert hist1[0][0] == 1  # steps count from the first update
    # the input params must not be touched
    assert params.step == 0


def test_train_loss_decreases_on_toy_clip(rng):
    cfg = helpers.tiny_nsf_cfg(feature_dim=2, upsample=8, channels=4, convs=3)
    params = nsf.nsf_init(cfg, seed=0)
    feats, source = make_inputs(cfg, 8, rng)
    target = WaveSignal(0.6 * source.samples, 24000.0)
    tc = nsf.TrainConfig(learning_rate=2e-3, batch_size=1, epochs=40, seed=0)
    _, hist = nsf.nsf_train(params, [(feats, source, target)], tc, cfg,
                            small_resolutions())
    assert hist[-1][1] < hist[0][1]


def test_train_non_finite_target_raises(rng):
    cfg = helpers.tiny_nsf_cfg(feature_dim=2, upsample=8, channels=2)
    params = nsf.nsf_init(cfg, seed=0)
    feats, source = make_inputs(cfg, 4, rng)
    target = source.samples.copy()
    target[5] = np.nan
    tc = nsf.TrainConfig(learning_rate=1e-3, batch_size=1, epochs=1)
    saved = []
    with pytest.raises(TrainingDiverged):
        nsf.nsf_train(params, [(feats, source, WaveSignal(target, 24000.0))],
                      tc, cfg, small_resolutions(),
                      on_epoch_end=lambda epoch, p, history: saved.append(epoch))
    assert saved == []


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", float("inf")), ("learning_rate", True),
    ("beta1", 5), ("beta1", -0.1), ("beta2", 1.0), ("batch_size", 1.5),
    ("batch_size", 0), ("epochs", 1.5), ("epochs", True), ("seed", 0.5),
    ("seed", -1), ("segment_seconds", 0.0)])
def test_train_config_names_bad_field(field, value):
    with pytest.raises(ValueError, match=field):
        nsf.TrainConfig(**{field: value})


def test_train_rejects_empty_dataset():
    cfg = helpers.tiny_nsf_cfg()
    with pytest.raises(ValueError):
        nsf.nsf_train(nsf.nsf_zero(cfg), [], nsf.TrainConfig(), cfg)


def test_fit_bounds_the_epochs_of_a_run():
    # a resumed run replays one shuffle per finished epoch, so a forged
    # step count is refused before any of them, as is an endless run
    calls = []

    def loss_and_grads(params, items, indices):
        calls.extend(indices)
        return 0.0, {"w": np.zeros(2)}

    one_epoch = nsf.TrainConfig(batch_size=1, epochs=1)
    with pytest.raises(TooLarge, match=f"step {2 ** 40} .*limit of {MAX_EPOCHS}"):
        fit(ModelParams({"w": np.zeros(2)}, step=2 ** 40), [0], loss_and_grads,
            one_epoch)
    with pytest.raises(TooLarge, match=f"{MAX_EPOCHS + 1} more pass the limit"):
        fit(ModelParams({"w": np.zeros(2)}), [0], loss_and_grads,
            nsf.TrainConfig(batch_size=1, epochs=MAX_EPOCHS + 1))
    assert calls == []
    # the last epoch the bound allows still runs
    trained, _ = fit(ModelParams({"w": np.zeros(2)}, step=MAX_EPOCHS - 1), [0],
                     loss_and_grads, one_epoch)
    assert calls == [0] and trained.step == MAX_EPOCHS


def test_adam_zero_lr_keeps_values():
    cfg = helpers.tiny_nsf_cfg()
    params = nsf.nsf_init(cfg, seed=0)
    before = {k: v.copy() for k, v in params.tensors.items()}
    grads = {k: np.ones_like(v) for k, v in params.tensors.items()}
    adam_update(params, grads, lr=0.0, beta1=0.9, beta2=0.999)
    assert params.step == 1
    for name, v in params.tensors.items():
        assert np.array_equal(v, before[name])


# --- frozen values ------------------------------------------------------------
# Recorded from the per-tap shifted-copy convolution.  Any rewrite of the
# sequence primitives must reproduce them to 1e-12 relative.

FROZEN_NSF = dict(
    history=[6.027318829392087, 2.826369894197107, 2.445288267451874,
             2.0432718372694074],
    entries=[0.522436338004206, 0.017859697469462497, 0.1557623404821715,
             -0.037749641259278606],
    loss=5.1758290324502205,
    grad_sq=[12.971933130247605, 180.3964455219003, 14.184387392570514,
             183.44137401231217, 3.6543209804608265, 49.20484812878096,
             6.1368592315219015, 133.81687727105702, 2.971844756962993,
             48.77106649228025, 30.268596469237956, 0.026328956436896603,
             181.38784582830044, 1048.2675781628568, 2.0340087570446945,
             18.42665772579138, 0.9413002161135204, 10.529725381070795,
             3.4979790577310452, 11.740584552539435, 2.8931373515915197,
             17.765271469424164, 1.8615863886836719, 7.603212518834736,
             3.891879093417102, 0.3588537957769006, 170.254641408449,
             371.24593505733424, 16.847430949664634, 22.59352042946472],
    fwd_sq=18.741702055134994,
    fwd=[-0.3712437839116052, 0.033710665612565804, 0.2980532925599782,
         0.14617177918534935, 0.006733903444577527],
)
FROZEN_NSF_ENTRIES = ("cond.weight", "block0.conv4.weight", "block1.conv0.bias",
                      "block1.out.weight")


def frozen_nsf_case(frames=(4, 7, 10)):
    """Two blocks of dilations 1..16 with non-zero output projections, over
    items of 8 samples a frame, by default 32, 56 and 80 samples, so
    dilation 16 reaches past every row of the shortest item."""
    cfg = helpers.tiny_nsf_cfg(feature_dim=3, upsample=8, channels=4, blocks=2,
                               convs=5)
    params = nsf.nsf_init(cfg, seed=1)
    rng = np.random.default_rng(2025)
    for name in params.tensors:
        if ".out." in name:
            params.tensors[name] = 0.1 * rng.standard_normal(params.tensors[name].shape)
    data = []
    for n in frames:
        feats = FeatureMatrix(rng.standard_normal((n, 3)), "mel-fb", 8 / 24000.0,
                              24000.0)
        source = WaveSignal(0.1 * rng.standard_normal(n * 8), 24000.0)
        target = WaveSignal(0.5 * source.samples + 0.02 * rng.standard_normal(n * 8),
                            24000.0)
        data.append((feats, source, target))
    return cfg, params, data


def test_frozen_nsf_train_history_and_tensors():
    cfg, params, data = frozen_nsf_case()
    tc = nsf.TrainConfig(learning_rate=1e-2, batch_size=2, epochs=2, seed=5)
    out, hist = nsf.nsf_train(params, data, tc, cfg, small_resolutions())
    assert [step for step, _ in hist] == [1, 2, 3, 4]
    assert [loss for _, loss in hist] == pytest.approx(FROZEN_NSF["history"],
                                                       rel=1e-12)
    got = [out.tensors[name].flat[0] for name in FROZEN_NSF_ENTRIES]
    assert got == pytest.approx(FROZEN_NSF["entries"], rel=1e-12)


# Recorded before params.fit took whole batches: the NSF still sums its
# items one by one in batch order, so these are the same bits.
FROZEN_NSF_BATCHES = dict(
    history=[3.5524732711147404, 7.968100955343836, 1.9376081684080715,
             5.283780589957804, 8.74090498675973, 4.535232548131322],
    sha256="e860c08462f2e776cc1475b25b723e6a1fcbab60f117032882ac6f4805c13d07",
)


def test_frozen_nsf_train_bytes_over_a_partial_batch():
    # five items in batches of two: the last batch of each epoch holds one
    cfg, params, data = frozen_nsf_case((4, 7, 10, 5, 6))
    tc = nsf.TrainConfig(learning_rate=1e-2, batch_size=2, epochs=2, seed=5)
    out, hist = nsf.nsf_train(params, data, tc, cfg, small_resolutions())
    assert hist == list(enumerate(FROZEN_NSF_BATCHES["history"], 1))
    digest = hashlib.sha256()
    for state in (out.tensors, out.adam_m, out.adam_v):
        for name in sorted(state):
            digest.update(state[name].tobytes())
    assert digest.hexdigest() == FROZEN_NSF_BATCHES["sha256"]


def test_frozen_nsf_backward_loss_and_grads():
    cfg, params, data = frozen_nsf_case()
    loss, grads = nsf.nsf_backward(params, *data[2], cfg, small_resolutions())
    assert loss == pytest.approx(FROZEN_NSF["loss"], rel=1e-12)
    got = [float((grads[name] ** 2).sum()) for name in sorted(grads)]
    assert got == pytest.approx(FROZEN_NSF["grad_sq"], rel=1e-12)


def test_frozen_nsf_forward_over_several_windows():
    # 320 samples in windows of _CHUNK_FRAMES * 8 = 64 samples, each reading
    # 124 samples of receptive field before it
    cfg, params, _ = frozen_nsf_case()
    feats = FeatureMatrix(np.random.default_rng(7).standard_normal((40, 3)),
                          "mel-fb", 8 / 24000.0, 24000.0)
    source = WaveSignal(0.1 * np.random.default_rng(8).standard_normal(320), 24000.0)
    out = nsf.nsf_forward(params, feats, source, cfg).samples
    assert float((out ** 2).sum()) == pytest.approx(FROZEN_NSF["fwd_sq"], rel=1e-12)
    assert out[[0, 63, 64, 200, 319]].tolist() == pytest.approx(FROZEN_NSF["fwd"],
                                                                rel=1e-12)


# --- checkpoints -----------------------------------------------------------


def test_checkpoint_round_trip(tmp_path, rng):
    cfg = helpers.tiny_nsf_cfg(feature_dim=2, upsample=8, channels=2)
    params = nsf.nsf_init(cfg, seed=0)
    feats, source = make_inputs(cfg, 4, rng)
    target = WaveSignal(0.5 * source.samples, 24000.0)
    tc = nsf.TrainConfig(learning_rate=1e-3, batch_size=1, epochs=2, seed=0)
    trained, _ = nsf.nsf_train(params, [(feats, source, target)], tc, cfg,
                               small_resolutions())
    path = tmp_path / "model.ckpt"
    nsf.save_checkpoint(path, trained, cfg)
    loaded, loaded_cfg = nsf.load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded.step == trained.step
    for name in trained.tensors:
        assert np.array_equal(loaded.tensors[name], trained.tensors[name])
        assert np.array_equal(loaded.adam_m[name], trained.adam_m[name])
        assert np.array_equal(loaded.adam_v[name], trained.adam_v[name])


def test_checkpoint_keeps_step_past_float32_integers(tmp_path):
    cfg = helpers.tiny_nsf_cfg()
    params = nsf.nsf_zero(cfg)
    params.step = 2 ** 24 + 1
    path = tmp_path / "model.ckpt"
    nsf.save_checkpoint(path, params, cfg)
    assert nsf.load_checkpoint(path)[0].step == 2 ** 24 + 1


def test_checkpoint_round_trip_every_field(tmp_path):
    cfg = nsf.NsfConfig(feature_dim=5, upsample_factor=7, n_blocks=3,
                        convs_per_block=2, channels=3, kernel=4)
    path = tmp_path / "model.ckpt"
    nsf.save_checkpoint(path, nsf.nsf_init(cfg, seed=1), cfg)
    _, loaded_cfg = nsf.load_checkpoint(path, expected_cfg=cfg)
    assert loaded_cfg == cfg


def test_checkpoint_expected_cfg_mismatch(tmp_path):
    cfg = helpers.tiny_nsf_cfg(channels=2)
    path = tmp_path / "model.ckpt"
    nsf.save_checkpoint(path, nsf.nsf_zero(cfg), cfg)
    other = helpers.tiny_nsf_cfg(channels=4)
    with pytest.raises(FileFormatError, match="does not match expected"):
        nsf.load_checkpoint(path, expected_cfg=other)


def test_checkpoint_corrupt_file(tmp_path):
    cfg = helpers.tiny_nsf_cfg()
    path = tmp_path / "model.ckpt"
    nsf.save_checkpoint(path, nsf.nsf_zero(cfg), cfg)
    blob = bytearray(path.read_bytes())
    blob[10] ^= 0x55
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match="CRC mismatch"):
        nsf.load_checkpoint(path)


@pytest.mark.parametrize("step", [np.zeros(0), np.array([np.nan]),
                                  np.array([np.inf]), np.array([-1.0]),
                                  np.array([1.0, 2.0])],
                         ids=["empty", "nan", "inf", "negative", "two"])
def test_checkpoint_bad_step_is_corrupt(tmp_path, step):
    cfg = helpers.tiny_nsf_cfg()
    tensors = {**nsf.nsf_zero(cfg).tensors, "adam.step": step}
    path = tmp_path / "model.ckpt"
    formats.write_container(path, nsf.NSF_MAGIC, dataclasses.asdict(cfg), tensors)
    with pytest.raises(FileFormatError, match="adam.step"):
        nsf.load_checkpoint(path)
