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
graph bit for bit (up to the last bit that a multi-threaded BLAS may
round differently in a large matrix-vector product, depending on how it
splits the rows among threads).  The only per-clip arrays are the
inputs, the output and the per-frame condition; working memory does not
otherwise grow with clip length.  Training builds the same graph over
the whole segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dsp import FeatureMatrix, WaveSignal, mr_stft_loss
from .errors import DimensionMismatch, LengthMismatch, SampleRateMismatch
from .params import ModelParams, affine, check_parameter_count, check_train_config, \
    fit, init_params, is_number, load_model, save_model, zero_params

NSF_MAGIC = b"NSF1"
# Frames per inference window (96 ms at the defaults).  Timing a 10 s
# nsf_forward on two cores, 8 frames (median 346 ms) beat 4, 6, 12, 16 and
# 32 (361-508 ms).
_CHUNK_FRAMES = 8
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
        check_parameter_count(_layers(self))


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


def nsf_param_shapes(cfg: NsfConfig) -> dict:
    return {name: shape for name, (shape, _) in _layers(cfg).items()}


def nsf_init(cfg: NsfConfig, seed: int = 0) -> ModelParams:
    return init_params(_layers(cfg), seed)


def nsf_zero(cfg: NsfConfig) -> ModelParams:
    return zero_params(nsf_param_shapes(cfg))


# --- forward graph -----------------------------------------------------------


def _check_inputs(params, features, excitation, cfg):
    if features.dim != cfg.feature_dim:
        raise DimensionMismatch(
            f"features have {features.dim} dims, model wants {cfg.feature_dim}")
    if features.kind not in CONDITION_KINDS:
        raise ValueError(f"cannot condition on features of kind {features.kind!r}")
    expected = features.n_frames * cfg.upsample_factor
    if len(excitation) != expected:
        raise LengthMismatch(
            f"excitation has {len(excitation)} samples, need n_frames * "
            f"upsample_factor = {expected}")
    if excitation.sample_rate != features.sample_rate:
        raise SampleRateMismatch(
            f"excitation at {excitation.sample_rate} Hz, features at "
            f"{features.sample_rate} Hz")
    missing = set(nsf_param_shapes(cfg)) - set(params.tensors)
    if missing:
        raise ValueError(f"params missing tensors: {sorted(missing)}")


def _receptive_field(cfg: NsfConfig) -> int:
    """How many samples back one output sample reads: each block's causal
    convolutions reach (kernel - 1) * (1 + 2 + ... + 2^(convs - 1))."""
    return cfg.n_blocks * (cfg.kernel - 1) * (2 ** cfg.convs_per_block - 1)


def _frame_condition(tensors, feat_values):
    """The per-frame condition affine, before upsampling."""
    return ag.add(ag.matmul(ag.Tensor(feat_values), tensors["cond.weight"]),
                  tensors["cond.bias"])


def _build_graph(tensors, frame_cond, exc_values, cfg, start=0, stop=None):
    """Model output for samples [start, stop) of the clip, shaped (rows, 1).

    The causal convolutions read zeros before start, so a window that does
    not begin at sample 0 is exact only from _receptive_field(cfg) rows in.
    """
    t_total = frame_cond.shape[0] * cfg.upsample_factor
    cond = ag.upsample_linear(frame_cond, t_total, start=start, stop=stop)
    x = ag.Tensor(exc_values[start:stop, None])
    for b in range(cfg.n_blocks):
        h = ag.add(ag.add(ag.matmul(x, tensors[f"block{b}.in.weight"]),
                          tensors[f"block{b}.in.bias"]), cond)
        for j in range(cfg.convs_per_block):
            conv = ag.conv1d(h, tensors[f"block{b}.conv{j}.weight"],
                             tensors[f"block{b}.conv{j}.bias"],
                             dilation=2 ** j, causal=True)
            h = ag.add(h, ag.tanh(conv))
        x = ag.add(x, ag.add(ag.matmul(h, tensors[f"block{b}.out.weight"]),
                             tensors[f"block{b}.out.bias"]))
    return ag.hard_clip(x, -1.0, 1.0)


def nsf_forward(params: ModelParams, features: FeatureMatrix,
                excitation: WaveSignal, cfg: NsfConfig) -> WaveSignal:
    """Synthesize a waveform; length is exactly n_frames * upsample_factor.

    The clip is rendered in windows of _CHUNK_FRAMES frames, each computed
    from _receptive_field(cfg) extra samples before it, and written into
    one output array.  The result equals the whole-clip graph bit for bit.
    Apart from the output and the per-frame condition (n_frames x
    channels), working memory does not grow with the clip.
    """
    _check_inputs(params, features, excitation, cfg)
    total = len(excitation)
    out = np.empty(total)
    reach = _receptive_field(cfg)
    step = _CHUNK_FRAMES * cfg.upsample_factor
    with ag.no_grad():
        tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
        frame_cond = _frame_condition(tensors, features.values)
        for start in range(0, total, step):
            lo = max(0, start - reach)
            stop = min(start + step, total)
            window = _build_graph(tensors, frame_cond, excitation.samples, cfg,
                                  lo, stop)
            out[start:stop] = window.value[start - lo:, 0]
    return WaveSignal(out, excitation.sample_rate)


def nsf_backward(params: ModelParams, features: FeatureMatrix,
                 excitation: WaveSignal, target: WaveSignal,
                 cfg: NsfConfig, resolutions=None):
    """Loss and parameter gradients for one aligned example.

    The spectral loss gradient with respect to the predicted samples is
    computed in closed form and pushed through the recorded graph;
    mr_stft_loss refuses a target whose length or sample rate differs.
    Returns (loss, dict of gradients matching params.tensors).
    """
    _check_inputs(params, features, excitation, cfg)
    tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
    out = _build_graph(tensors, _frame_condition(tensors, features.values),
                       excitation.samples, cfg)
    pred = WaveSignal(out.value[:, 0], excitation.sample_rate)
    loss, grad_pred = mr_stft_loss(pred, target, resolutions)
    ag.backward(out, seed=grad_pred[:, None])
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
