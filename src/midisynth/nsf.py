"""Source-filter waveform model conditioned on frame-rate features.

The excitation signal (sine mixture or noise) passes through a stack of
residual blocks.  Each block projects the running signal to the working
channel width, adds the upsampled condition, refines it with dilated
causal convolutions (dilation 2^j, tanh residuals), and projects back to
one channel which is added to the running signal.  Output is clipped to
[-1, 1].  With all parameters zero the model is the identity on its
excitation, which anchors several tests.

All shapes are (time, channels) with time = n_frames * upsample_factor.

Inference runs in windows of _CHUNK_FRAMES frames.  Each window is
computed from the receptive field's worth of samples before it (R =
n_blocks * (kernel - 1) * (2^convs_per_block - 1), 124 at the defaults)
and those first R rows are dropped, so the output equals the whole-clip
graph of the same dtype bit for bit (up to the last bit that a
multi-threaded BLAS may round differently in a large matrix-vector
product, depending on how it splits the rows among threads).  The only
per-clip arrays are the inputs, the output and the per-frame condition;
working memory does not otherwise grow with clip length.  Training runs
the same windows: the loss gradient on the whole prediction goes back
through each window's graph, recorded again from its receptive field
(gradient checkpointing with one recompute), so its memory does not grow
with the segment either.

Training runs in float64.  Synthesis asks for a float32 channel stack:
the condition, each block's input projection, convolutions and tanh
residuals are float32, while the running signal, the output projections
and the output stay float64, so zero output projections still pass the
excitation through exactly.  A model whose stack could overflow float32
runs in float64 instead (_stack_dtype).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dsp import FeatureMatrix, WaveSignal, mr_stft_loss
from .params import ModelParams, affine, check_parameter_count, check_train_config, \
    fit, init_params, is_number, load_model, save_model, zero_params

NSF_MAGIC = b"NSF1"
# Frames per window (96 ms at the defaults), in inference and in the
# training backward alike.  Timing a 10 s float64 nsf_forward on two cores,
# 8 frames (median 346 ms) beat 4, 6, 12, 16 and 32 (361-508 ms).  A
# default-config 1 s nsf_backward took 327, 316, 285, 300 and 371 ms at 4,
# 6, 8, 12 and 16 frames (medians of 15, interleaved), with tracemalloc
# peaks of 7, 10, 13, 19 and 25 MiB; at 3 s, 4, 8 and 12 frames were within
# each other's spread (649-713 ms) and 16 frames again the slowest (755 ms).
# With the float32 stack, a 10 s nsf_forward took 297, 255 and 314 ms at 4,
# 8 and 16 frames (medians of 9, interleaved with a 1 s nsf_backward at
# 303, 261 and 345 ms), so 8 still wins in both.
_CHUNK_FRAMES = 8
# Most magnitude a value of a float32 channel stack may reach (see
# _stack_dtype): far inside float32's range of 3.4e38, so none overflows.
_FLOAT32_BOUND = 2.0 ** 64
CONDITION_KINDS = ("mel-fb", "midi-fb", "piano-roll")


@dataclass(frozen=True)
class NsfConfig:
    feature_dim: int
    upsample_factor: int = 288
    n_blocks: int = 2
    convs_per_block: int = 5
    channels: int = 16
    kernel: int = 3

    def __post_init__(self):
        fields = (self.feature_dim, self.upsample_factor, self.n_blocks,
                  self.convs_per_block, self.channels, self.kernel)
        if any(type(f) is not int or f <= 0 for f in fields):
            raise ValueError("all config fields must be positive integers")
        check_parameter_count(_parameter_count(self))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 5
    segment_seconds: float = 3.0
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        check_train_config(self, ("batch_size", "epochs"))
        if not (is_number(self.segment_seconds) and 0 < self.segment_seconds < math.inf):
            raise ValueError("segment_seconds must be positive and finite")


def _layers(cfg: NsfConfig) -> dict:
    """Every tensor as name -> (shape, fan_in).  The output projections
    start at zero, so the initial model passes its excitation through
    unchanged."""
    c, k = cfg.channels, cfg.kernel
    layers = affine("cond", (cfg.feature_dim, c), cfg.feature_dim)
    for b in range(cfg.n_blocks):
        layers.update(affine(f"block{b}.in", (1, c), 1))
        for j in range(cfg.convs_per_block):
            layers.update(affine(f"block{b}.conv{j}", (k, c, c), k * c))
        layers.update(affine(f"block{b}.out", (c, 1), None))
    return layers


def _parameter_count(cfg: NsfConfig) -> int:
    """The number of values in _layers(cfg), counted without building a
    table whose length grows with n_blocks and convs_per_block."""
    c, k = cfg.channels, cfg.kernel
    per_block = 3 * c + 1 + cfg.convs_per_block * (k * c + 1) * c
    return (cfg.feature_dim + 1) * c + cfg.n_blocks * per_block


def nsf_param_shapes(cfg: NsfConfig) -> dict:
    return {name: shape for name, (shape, _) in _layers(cfg).items()}


def nsf_init(cfg: NsfConfig, seed: int = 0) -> ModelParams:
    return init_params(_layers(cfg), seed)


def nsf_zero(cfg: NsfConfig) -> ModelParams:
    return zero_params(nsf_param_shapes(cfg))


# --- forward graph -----------------------------------------------------------


def _check_inputs(params, features, excitation, cfg):
    if features.dim != cfg.feature_dim:
        raise ValueError(
            f"features have {features.dim} dims, model wants {cfg.feature_dim}")
    if features.kind not in CONDITION_KINDS:
        raise ValueError(f"cannot condition on features of kind {features.kind!r}")
    expected = features.n_frames * cfg.upsample_factor
    if len(excitation) != expected:
        raise ValueError(
            f"excitation has {len(excitation)} samples, need n_frames * "
            f"upsample_factor = {expected}")
    if excitation.sample_rate != features.sample_rate:
        raise ValueError(
            f"excitation at {excitation.sample_rate} Hz, features at "
            f"{features.sample_rate} Hz")
    missing = set(nsf_param_shapes(cfg)) - set(params.tensors)
    if missing:
        raise ValueError(f"params missing tensors: {sorted(missing)}")


def _receptive_field(cfg: NsfConfig) -> int:
    """How many samples back one output sample reads: each block's causal
    convolutions reach (kernel - 1) * (1 + 2 + ... + 2^(convs - 1))."""
    return cfg.n_blocks * (cfg.kernel - 1) * (2 ** cfg.convs_per_block - 1)


def _stack_tensors(params, dtype):
    """Leaf tensors of the graph: the channel stack in dtype, the output
    projections in float64, as the running signal they add to."""
    return {name: ag.Tensor(v if ".out." in name else v.astype(dtype, copy=False))
            for name, v in params.tensors.items()}


def _stack_dtype(params, features, excitation, cfg):
    """float32, unless a value of a float32 stack could pass _FLOAT32_BOUND.

    The bound follows each layer from the largest magnitude of its inputs
    and tensors: an affine of fan-in n gives at most n * |w| * |x| + |b|,
    a tanh residual adds at most 1, and the float64 running signal enters
    the next block's input projection.  Trained weights stay far below it;
    a hostile checkpoint or feature matrix gets the float64 stack.
    """
    top = {name: float(np.abs(v).max(initial=0.0)) for name, v in params.tensors.items()}
    c, k = cfg.channels, cfg.kernel
    cond = cfg.feature_dim * top["cond.weight"] * float(
        np.abs(features.values).max(initial=0.0)) + top["cond.bias"]
    x = float(np.abs(excitation.samples).max(initial=0.0))
    peak = cond
    for b in range(cfg.n_blocks):
        h = x * top[f"block{b}.in.weight"] + top[f"block{b}.in.bias"] + cond
        peak = max(peak, x, h)
        for j in range(cfg.convs_per_block):
            conv = k * c * top[f"block{b}.conv{j}.weight"] * h \
                + top[f"block{b}.conv{j}.bias"]
            h += 1.0
            peak = max(peak, conv, h)
        x += c * top[f"block{b}.out.weight"] * h + top[f"block{b}.out.bias"]
    return np.float32 if peak <= _FLOAT32_BOUND else np.float64


def _frame_condition(tensors, feat_values):
    """The per-frame condition affine, before upsampling, in the dtype of
    its weight."""
    weight = tensors["cond.weight"]
    feats = ag.Tensor(feat_values.astype(weight.value.dtype, copy=False))
    return ag.add(ag.matmul(feats, weight), tensors["cond.bias"])


def _build_graph(tensors, frame_cond, exc_values, cfg, start, stop):
    """Model output for samples [start, stop) of the clip, shaped (rows, 1).

    The causal convolutions read zeros before start, so a window that does
    not begin at sample 0 is exact only from _receptive_field(cfg) rows in.
    """
    t_total = frame_cond.shape[0] * cfg.upsample_factor
    cond = ag.upsample_linear(frame_cond, t_total, start=start, stop=stop)
    x = ag.Tensor(exc_values[start:stop, None])
    for b in range(cfg.n_blocks):
        h = ag.add(ag.add(ag.matmul(ag.astype(x, cond.value.dtype),
                                    tensors[f"block{b}.in.weight"]),
                          tensors[f"block{b}.in.bias"]), cond)
        for j in range(cfg.convs_per_block):
            conv = ag.conv1d(h, tensors[f"block{b}.conv{j}.weight"],
                             tensors[f"block{b}.conv{j}.bias"],
                             dilation=2 ** j, causal=True)
            h = ag.add(h, ag.tanh(conv))
        x = ag.add(x, ag.add(ag.matmul(h, tensors[f"block{b}.out.weight"]),
                             tensors[f"block{b}.out.bias"]))
    return ag.hard_clip(x, -1.0, 1.0)


def _windows(total: int, cfg: NsfConfig):
    """(lo, start, stop) for each window of _CHUNK_FRAMES frames: the
    window owns rows [start, stop) and computes them from rows [lo, stop),
    which reach _receptive_field(cfg) rows back."""
    reach = _receptive_field(cfg)
    step = _CHUNK_FRAMES * cfg.upsample_factor
    for start in range(0, total, step):
        yield max(0, start - reach), start, min(start + step, total)


def nsf_forward(params: ModelParams, features: FeatureMatrix,
                excitation: WaveSignal, cfg: NsfConfig,
                dtype=np.float64) -> WaveSignal:
    """Synthesize a waveform; length is exactly n_frames * upsample_factor.

    dtype is that of the channel stack: float64, or float32, which is
    taken only where _stack_dtype finds that nothing in the stack can
    overflow it.  The output is float64 either way.  The clip is rendered
    in windows of _CHUNK_FRAMES frames, each computed from
    _receptive_field(cfg) extra samples before it, and written into one
    output array.  The result equals the whole-clip graph of the same
    dtype bit for bit.  Apart from the output and the per-frame condition
    (n_frames x channels), working memory does not grow with the clip.
    """
    _check_inputs(params, features, excitation, cfg)
    if dtype == np.float32:
        dtype = _stack_dtype(params, features, excitation, cfg)
    out = np.empty(len(excitation))
    with ag.no_grad():
        tensors = _stack_tensors(params, dtype)
        frame_cond = _frame_condition(tensors, features.values)
        for lo, start, stop in _windows(len(out), cfg):
            window = _build_graph(tensors, frame_cond, excitation.samples, cfg,
                                  lo, stop)
            out[start:stop] = window.value[start - lo:, 0]
    return WaveSignal(out, excitation.sample_rate)


def nsf_backward(params: ModelParams, features: FeatureMatrix,
                 excitation: WaveSignal, target: WaveSignal,
                 cfg: NsfConfig, resolutions=None):
    """Loss and parameter gradients for one aligned example.

    The spectral loss and its closed-form gradient are computed on the
    whole nsf_forward prediction; mr_stft_loss refuses a target whose
    length or sample rate differs.  The gradient then goes back through
    the forward's windows, each graph recorded again, seeded with zero on
    its receptive-field rows and freed before the next; the parameters and
    the per-frame condition add up their gradients, and the frame affine
    is backpropagated once, at the end.  Beyond the O(samples) loss
    arrays, working memory does not grow with the segment.  Returns
    (loss, dict of gradients matching params.tensors).
    """
    pred = nsf_forward(params, features, excitation, cfg)
    if len(pred) == 0:
        raise ValueError("cannot compute a loss on an empty segment")
    loss, grad_pred = mr_stft_loss(pred, target, resolutions)
    tensors = _stack_tensors(params, np.float64)
    frame_cond = _frame_condition(tensors, features.values)
    cond = ag.Tensor(frame_cond.value)
    for lo, start, stop in _windows(len(pred), cfg):
        seed = np.zeros((stop - lo, 1))
        seed[start - lo:, 0] = grad_pred[start:stop]
        ag.backward(_build_graph(tensors, cond, excitation.samples, cfg, lo, stop),
                    seed)
    ag.backward(frame_cond, seed=cond.grad)
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for name, t in tensors.items()}
    return loss, grads


def nsf_train(params: ModelParams, dataset, train_cfg: TrainConfig,
              cfg: NsfConfig, resolutions=None, on_epoch_end=None):
    """Train with params.fit over (features, excitation, target) triples.

    Returns (updated params copy, [(step, batch loss), ...]).
    """
    def loss_and_grads(p, item, _idx):
        features, excitation, target = item
        return nsf_backward(p, features, excitation, target, cfg, resolutions)

    return fit(params, dataset, loss_and_grads, train_cfg, on_epoch_end)


# --- checkpoints -------------------------------------------------------------


def _v1_config(fields):
    """The six u32 fields of a version-1 checkpoint as NsfConfig arguments."""
    return dict(zip(("feature_dim", "upsample_factor", "n_blocks",
                     "convs_per_block", "channels", "kernel"), fields))


def save_checkpoint(path, params: ModelParams, cfg: NsfConfig) -> None:
    save_model(path, NSF_MAGIC, params, cfg)


def load_checkpoint(path, expected_cfg: NsfConfig | None = None):
    """Read a checkpoint, returning (params, config).

    The tensor table must match the config's shapes exactly; a checkpoint
    whose stored config disagrees with expected_cfg is rejected.
    """
    return load_model(path, NSF_MAGIC, NsfConfig, nsf_param_shapes, 6,
                      _v1_config, expected_cfg)
