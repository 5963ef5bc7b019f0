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
n_blocks * (kernel - 1) * (2^convs_per_block - 1), 124 at the defaults),
from a 4-row boundary since BLAS rounds a row by its offset modulo 4, and
those first rows are dropped.  So the output equals the whole-clip graph
of the same dtype bit for bit, up to the last bit that a multi-threaded
BLAS may round by how it splits a large product among threads.  The only
per-clip arrays are the inputs, the output and the per-frame condition;
working memory does not otherwise grow with clip length.  Training runs
the same windows: the loss gradient on the whole prediction goes back
through each window's graph, recorded again from its receptive field
(gradient checkpointing with one recompute), so its memory does not grow
with the segment either.  A window's graph is the upsampled condition,
one ag.residual_block node per block and the output clip; a recorded
block holds two (rows x channels) arrays per convolution, its input and
its tanh output.

Training runs in float64.  Synthesis asks for a float32 channel stack:
the condition, each block's input projection, convolutions and tanh
residuals are float32, and each block updates its channel state in place,
while the running signal, the output projections and the output stay
float64, so zero output projections still pass the excitation through
exactly.  A model whose stack could overflow float32 runs in float64
instead (_stack_dtype).  Inference adds parameters broadcast to whole
rows, up to _WIDE_BYTES, with the same bits; training keeps (channels,) leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dsp import FeatureMatrix, StftConfig, WaveSignal, mr_stft_loss
from .errors import TooLarge
from .params import POSITIVE_INT, POSITIVE_NUMBER, FitConfig, ModelParams, affine, \
    check_fields, check_layer_table, declared, fit, init_params, load_model, save_model, \
    zero_params

NSF_MAGIC = b"NSF1"
# Frames per window (96 ms at the defaults), in inference and in the
# training backward alike.  On two cores (medians of 15, sizes interleaved,
# mean of two runs), a 10 s float32 nsf_forward took 227, 176, 167 and 239
# ms at 4, 8, 12 and 16 frames, and a default-config 1 s nsf_backward 162,
# 169, 177 and 206 ms, with tracemalloc peaks of 5.7, 9.0, 13.0 and 17.0
# MiB.  No size beats 8 in both, and another size sums the windows'
# gradients in another order, which changes the checkpoint bytes.
_CHUNK_FRAMES = 8
# Most magnitude a value of a float32 channel stack may reach (see
# _stack_dtype): far inside float32's range of 3.4e38, so none overflows.
_FLOAT32_BOUND = 2.0 ** 64
# Most samples one output sample may read back (5 blocks of 10 convolutions
# at kernel 3 read 10,230): each window is computed from as many before it.
MAX_RECEPTIVE_FIELD = 2 ** 16
# Most samples of one training segment (87 s at 24 kHz): the spectral loss
# holds about 112 bytes a sample, 225 MiB at the limit.
MAX_SEGMENT_SAMPLES = 2 ** 21
# Most bytes of the (rows, channels) copies of (channels,) parameters that
# nsf_forward adds: the defaults take 14 of 2428 x 16 float32, 2.1 MiB.
_WIDE_BYTES = 2 ** 23
CONDITION_KINDS = ("mel-fb", "midi-fb", "piano-roll")


@dataclass(frozen=True)
class NsfConfig:
    feature_dim: int = declared(POSITIVE_INT)
    upsample_factor: int = declared(POSITIVE_INT, StftConfig.frame_shift)
    n_blocks: int = declared(POSITIVE_INT, 2)
    convs_per_block: int = declared(POSITIVE_INT, 5)
    channels: int = declared(POSITIVE_INT, 16)
    kernel: int = declared(POSITIVE_INT, 3)

    def __post_init__(self):
        check_fields(self)
        check_layer_table(_layers(self))
        # after the walk, which bounds convs_per_block in 2 ** convs_per_block
        if _receptive_field(self) > MAX_RECEPTIVE_FIELD:
            raise TooLarge(f"the receptive field is {self.n_blocks} x {self.kernel - 1} "
                           f"x (2^{self.convs_per_block} - 1) samples, "
                           f"the limit is {MAX_RECEPTIVE_FIELD}")


@dataclass(frozen=True)
class TrainConfig(FitConfig):
    batch_size: int = declared(POSITIVE_INT, 5)
    segment_seconds: float = declared(POSITIVE_NUMBER, 3.0)


def _layers(cfg: NsfConfig):
    """Every tensor as (name, (shape, fan_in)) pairs, yielded lazily, so
    that check_layer_table refuses a huge table before it is built.  The
    output projections start at zero, so the initial model passes its
    excitation through unchanged."""
    c, k = cfg.channels, cfg.kernel
    yield from affine("cond", (cfg.feature_dim, c), cfg.feature_dim)
    for b in range(cfg.n_blocks):
        yield from affine(f"block{b}.in", (1, c), 1)
        for j in range(cfg.convs_per_block):
            yield from affine(f"block{b}.conv{j}", (k, c, c), k * c)
        yield from affine(f"block{b}.out", (c, 1), None)


def nsf_param_shapes(cfg: NsfConfig) -> dict:
    return {name: shape for name, (shape, _) in _layers(cfg)}


def nsf_init(cfg: NsfConfig, seed: int = 0) -> ModelParams:
    return init_params(_layers(cfg), seed)


def nsf_zero(cfg: NsfConfig) -> ModelParams:
    return zero_params(nsf_param_shapes(cfg))


# --- forward graph -----------------------------------------------------------


def check_features(kind, dim, cfg: NsfConfig):
    """Refuse features of a kind or width that the model cannot take."""
    if dim != cfg.feature_dim:
        raise ValueError(f"{kind} features have {dim} dims, model wants {cfg.feature_dim}")
    if kind not in CONDITION_KINDS:
        raise ValueError(f"cannot condition on features of kind {kind!r}")


def _check_inputs(params, features, excitation, cfg):
    check_features(features.kind, features.dim, cfg)
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
    return ag.linear(feats, weight, tensors["cond.bias"])


def _build_graph(tensors, frame_cond, exc_values, cfg, start, stop):
    """Model output for samples [start, stop) of the clip, shaped (rows, 1).

    The graph is the upsampled condition, one ag.residual_block node per
    block, whose running signal feeds the next, and the output clip.  The
    causal convolutions read zeros before start, so a window that does
    not begin at sample 0 is exact only from _receptive_field(cfg) rows in.
    """
    t_total = frame_cond.shape[0] * cfg.upsample_factor
    cond = ag.upsample_linear(frame_cond, t_total, start=start, stop=stop)
    x = ag.Tensor(exc_values[start:stop, None])
    for b in range(cfg.n_blocks):
        x = ag.residual_block(
            x, cond, tensors[f"block{b}.in.weight"], tensors[f"block{b}.in.bias"],
            [(tensors[f"block{b}.conv{j}.weight"], tensors[f"block{b}.conv{j}.bias"],
              2 ** j) for j in range(cfg.convs_per_block)],
            tensors[f"block{b}.out.weight"], tensors[f"block{b}.out.bias"])
    return ag.hard_clip(x, -1.0, 1.0)


def _windows(total: int, cfg: NsfConfig):
    """(lo, start, stop) for each window of _CHUNK_FRAMES frames: the
    window owns rows [start, stop) and computes them from rows [lo, stop),
    at least _receptive_field(cfg) rows back, with lo a multiple of 4."""
    reach = _receptive_field(cfg)
    step = _CHUNK_FRAMES * cfg.upsample_factor
    for start in range(0, total, step):
        # a row keeps its whole-clip offset modulo 4, by which BLAS rounds it
        yield max(0, start - reach) // 4 * 4, start, min(start + step, total)


def nsf_forward(params: ModelParams, features: FeatureMatrix,
                excitation: WaveSignal, cfg: NsfConfig,
                dtype=np.float64) -> WaveSignal:
    """Synthesize a waveform; length is exactly n_frames * upsample_factor.

    dtype is that of the channel stack: float64, or float32, which is
    taken only where _stack_dtype finds that nothing in the stack can
    overflow it.  The output is float64 either way.  Each window of
    _CHUNK_FRAMES frames is computed from the 4-row boundary at or before
    _receptive_field(cfg) samples back, where BLAS rounds rows as the
    whole-clip graph of the same dtype does, so the result equals it bit
    for bit.  Apart from the output and the per-frame condition
    (n_frames x channels), working memory does not grow with the clip.
    """
    _check_inputs(params, features, excitation, cfg)
    if dtype == np.float32:
        dtype = _stack_dtype(params, features, excitation, cfg)
    out = np.empty(len(excitation))
    rows = max((stop - lo for lo, _, stop in _windows(len(out), cfg)), default=1)
    with ag.no_grad():
        tensors = _stack_tensors(params, dtype)
        frame_cond = _frame_condition(tensors, features.values)
        names = [n for n in tensors if ".in." in n or ".conv" in n and n.endswith(".bias")]
        fit = _WIDE_BYTES // (rows * cfg.channels * np.dtype(dtype).itemsize)
        wide = {n: np.repeat(tensors[n].value.reshape(1, -1), rows, axis=0) for n in names[:fit]}
        for lo, start, stop in _windows(len(out), cfg):
            leaves = {**tensors, **{name: v[:stop - lo] for name, v in wide.items()}}
            window = _build_graph(leaves, frame_cond, excitation.samples, cfg, lo, stop)
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
    return loss, {name: t.grad for name, t in tensors.items()}


def nsf_train(params: ModelParams, dataset, train_cfg: TrainConfig,
              cfg: NsfConfig, resolutions=None, on_epoch_end=None):
    """Train with params.fit over (features, excitation, target) triples.

    Returns (updated params copy, [(step, batch loss), ...]).
    """
    def loss_and_grads(p, items, _indices):
        total = {name: np.zeros_like(v) for name, v in p.tensors.items()}
        loss_sum = 0.0
        for features, excitation, target in items:
            loss, grads = nsf_backward(p, features, excitation, target, cfg, resolutions)
            loss_sum += loss
            for name in total:
                total[name] += grads[name]
        return loss_sum / len(items), {k: v / len(items) for k, v in total.items()}

    return fit(params, dataset, loss_and_grads, train_cfg, on_epoch_end)


# --- checkpoints -------------------------------------------------------------


def save_checkpoint(path, params: ModelParams, cfg: NsfConfig) -> None:
    save_model(path, NSF_MAGIC, params, cfg)


def load_checkpoint(path, expected_cfg: NsfConfig | None = None):
    """Read a checkpoint as params.load_model does: (params, config)."""
    return load_model(path, NSF_MAGIC, NsfConfig, nsf_param_shapes, expected_cfg)
