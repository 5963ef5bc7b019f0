"""Acoustic models mapping piano rolls to filter-bank features.

Three closely related sequence models, all alignment-free by design (the
roll and the features share a time base, so no attention is needed):

- taco2: the roll is max-pooled down in time, encoded, and decoded by a
  GRU whose prenet eats the previous output frame under heavy dropout.
  The decoder emits reduction_factor frames per step.
- taco3: identical, but the current downsampled roll frame is
  concatenated to the prenet input after dropout, so the decoder sees
  the score even when dropout erases the previous frame.
- taco4: no downsampling (factor 1), moderate dropout, otherwise taco2.

reduction_factor always equals the downsample factor, so decoder steps
line up one-to-one with encoder frames.  The output head is one shared
frame projection plus a per-position offset table with a fixed four
rows, which keeps every parameter shape independent of the reduction
factor; checkpoints therefore move between variants without reshaping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .dsp import FeatureMatrix
from .errors import DimensionMismatch, LengthMismatch, TrainingDiverged
from .midi_io import PianoRoll
from .params import ModelParams, check_train_config, fit, init_params, \
    load_model, save_model, zero_params

AM_MAGIC = b"ACM1"
VARIANTS = ("taco2", "taco3", "taco4")
MAX_REDUCTION = 4
_VARIANT_DEFAULTS = {  # (downsample_factor, prenet_dropout)
    "taco2": (4, 0.99),
    "taco3": (4, 0.99),
    "taco4": (1, 0.5),
}


@dataclass(frozen=True)
class AmConfig:
    variant: str = "taco2"
    input_dim: int = 128
    output_dim: int = 128
    downsample_factor: int | None = None
    prenet_dropout: float | None = None
    encoder_channels: int = 64
    decoder_state_dim: int = 64
    prenet_widths: tuple = (256, 128)
    postnet_channels: int = 64
    output_kind: str = "midi-fb"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        factor, dropout = _VARIANT_DEFAULTS[self.variant]
        if self.downsample_factor is None:
            object.__setattr__(self, "downsample_factor", factor)
        if self.prenet_dropout is None:
            object.__setattr__(self, "prenet_dropout", dropout)
        if self.variant == "taco4" and self.downsample_factor != 1:
            raise ValueError("taco4 runs at the full frame rate (factor 1)")
        if type(self.downsample_factor) is not int \
                or self.downsample_factor not in (1, 2, 4):
            raise ValueError("downsample_factor must be 1, 2, or 4")
        if not 0.0 <= self.prenet_dropout < 1.0:
            raise ValueError("prenet_dropout must lie in [0, 1)")
        widths = (self.input_dim, self.output_dim, self.encoder_channels,
                  self.decoder_state_dim, self.postnet_channels)
        if any(type(w) is not int or w < 1 for w in widths):
            raise ValueError("all widths must be positive integers")
        if len(self.prenet_widths) != 2 \
                or any(type(w) is not int or w < 1 for w in self.prenet_widths):
            raise ValueError("prenet_widths must be two positive integers")
        object.__setattr__(self, "prenet_widths", tuple(self.prenet_widths))
        if self.output_kind not in ("mel-fb", "midi-fb"):
            raise ValueError("output_kind must be mel-fb or midi-fb")

    @property
    def reduction_factor(self):
        return self.downsample_factor

    @property
    def prenet_input_dim(self):
        extra = self.input_dim if self.variant == "taco3" else 0
        return self.output_dim + extra


@dataclass(frozen=True)
class AmTrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 4
    segment_frames: int = 800
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        check_train_config(self, ("batch_size", "epochs", "segment_frames"))


def am_param_shapes(cfg: AmConfig) -> dict:
    e = cfg.encoder_channels
    s = cfg.decoder_state_dim
    d = cfg.output_dim
    w1, w2 = cfg.prenet_widths
    gru_in = w2 + e
    shapes = {
        "enc.in.weight": (cfg.input_dim, e), "enc.in.bias": (e,),
        "enc.conv0.weight": (3, e, e), "enc.conv0.bias": (e,),
        "enc.conv1.weight": (3, e, e), "enc.conv1.bias": (e,),
        "prenet.fc1.weight": (cfg.prenet_input_dim, w1), "prenet.fc1.bias": (w1,),
        "prenet.fc2.weight": (w1, w2), "prenet.fc2.bias": (w2,),
        "dec.gru.wz": (gru_in, s), "dec.gru.uz": (s, s), "dec.gru.bz": (s,),
        "dec.gru.wr": (gru_in, s), "dec.gru.ur": (s, s), "dec.gru.br": (s,),
        "dec.gru.wn": (gru_in, s), "dec.gru.un": (s, s), "dec.gru.bn": (s,),
        "dec.out.weight": (s, d), "dec.out.bias": (d,),
        "dec.pos.weight": (MAX_REDUCTION, d),
        "post.conv0.weight": (5, d, cfg.postnet_channels),
        "post.conv0.bias": (cfg.postnet_channels,),
        "post.conv1.weight": (5, cfg.postnet_channels, d),
        "post.conv1.bias": (d,),
    }
    return shapes


def _am_fan_ins(cfg: AmConfig) -> dict:
    e = cfg.encoder_channels
    s = cfg.decoder_state_dim
    gru_in = cfg.prenet_widths[1] + e
    fans = {
        "enc.in.weight": cfg.input_dim, "enc.in.bias": cfg.input_dim,
        "enc.conv0.weight": 3 * e, "enc.conv0.bias": 3 * e,
        "enc.conv1.weight": 3 * e, "enc.conv1.bias": 3 * e,
        "prenet.fc1.weight": cfg.prenet_input_dim,
        "prenet.fc1.bias": cfg.prenet_input_dim,
        "prenet.fc2.weight": cfg.prenet_widths[0],
        "prenet.fc2.bias": cfg.prenet_widths[0],
        "dec.out.weight": s, "dec.out.bias": s,
        "dec.pos.weight": 1,
        "post.conv0.weight": 5 * cfg.output_dim, "post.conv0.bias": 5 * cfg.output_dim,
        "post.conv1.weight": 5 * cfg.postnet_channels,
        "post.conv1.bias": 5 * cfg.postnet_channels,
    }
    for gate in "zrn":
        fans[f"dec.gru.w{gate}"] = gru_in
        fans[f"dec.gru.u{gate}"] = s
        fans[f"dec.gru.b{gate}"] = gru_in
    return fans


AM_ZERO_INIT = ("dec.pos.weight", "post.conv1.weight", "post.conv1.bias")


def am_init(cfg: AmConfig, seed: int = 0) -> ModelParams:
    """Random init; the postnet residual and position offsets start at zero."""
    return init_params(am_param_shapes(cfg), _am_fan_ins(cfg), seed,
                       zero_names=AM_ZERO_INIT)


def am_zero(cfg: AmConfig) -> ModelParams:
    return zero_params(am_param_shapes(cfg))


# --- data plumbing -----------------------------------------------------------


def downsample_roll(roll: PianoRoll, factor: int) -> PianoRoll:
    """Max-pool the roll over non-overlapping groups of factor frames.

    A trailing partial group is zero-padded before pooling.  The result
    has ceil(N / factor) frames at factor times the frame shift.
    """
    if factor not in (1, 2, 4):
        raise ValueError("factor must be 1, 2, or 4")
    if factor == 1:
        return roll
    n = roll.n_frames
    m = math.ceil(n / factor)
    padded = np.zeros((m * factor, 128))
    padded[:n] = roll.values
    pooled = padded.reshape(m, factor, 128).max(axis=1)
    return PianoRoll(pooled, roll.frame_shift * factor, roll.sample_rate_hint)


def _pad_rows_edge(values: np.ndarray, rows: int) -> np.ndarray:
    """Extend to `rows` rows by repeating the last row."""
    if values.shape[0] == rows:
        return values
    pad = np.repeat(values[-1:], rows - values.shape[0], axis=0)
    return np.concatenate([values, pad], axis=0)


# --- forward -----------------------------------------------------------------


def _encode(tensors, roll_ds_values):
    e = ag.add(ag.matmul(ag.Tensor(roll_ds_values), tensors["enc.in.weight"]),
               tensors["enc.in.bias"])
    for layer in ("enc.conv0", "enc.conv1"):
        e = ag.tanh(ag.conv1d(e, tensors[f"{layer}.weight"],
                              tensors[f"{layer}.bias"], dilation=1, causal=False))
    return e


def dropout_mask(rng, keep_rate: float, dim: int) -> np.ndarray:
    """Inverted-dropout row mask: kept entries are scaled by 1/keep_rate."""
    return (rng.random((1, dim)) < keep_rate) / keep_rate


def _decode(tensors, cfg, enc_out, roll_ds_values, prev_provider, dropout_rng):
    """Run the decoder for every group step.

    prev_provider(s, last_frame_tensor) returns the previous-frame tensor
    fed to step s: teacher forcing passes target frames, generation passes
    the model's own last pre-postnet frame.
    """
    m = roll_ds_values.shape[0]
    r = cfg.reduction_factor
    d = cfg.output_dim
    keep = 1.0 - cfg.prenet_dropout
    state = ag.Tensor(np.zeros((1, cfg.decoder_state_dim)))
    one = ag.Tensor(np.ones(1))
    frames = []
    last_frame = ag.Tensor(np.zeros((1, d)))
    for s in range(m):
        prev = prev_provider(s, last_frame)
        if dropout_rng is not None and cfg.prenet_dropout > 0.0:
            prev = ag.mul(prev, ag.Tensor(dropout_mask(dropout_rng, keep, d)))
        if cfg.variant == "taco3":
            prev = ag.concat_cols([prev, ag.Tensor(roll_ds_values[s : s + 1])])
        q = ag.relu(ag.add(ag.matmul(prev, tensors["prenet.fc1.weight"]),
                           tensors["prenet.fc1.bias"]))
        q = ag.relu(ag.add(ag.matmul(q, tensors["prenet.fc2.weight"]),
                           tensors["prenet.fc2.bias"]))
        u = ag.concat_cols([q, ag.slice_rows(enc_out, s, s + 1)])
        z = ag.sigmoid(ag.add(ag.add(ag.matmul(u, tensors["dec.gru.wz"]),
                                     ag.matmul(state, tensors["dec.gru.uz"])),
                              tensors["dec.gru.bz"]))
        rr = ag.sigmoid(ag.add(ag.add(ag.matmul(u, tensors["dec.gru.wr"]),
                                      ag.matmul(state, tensors["dec.gru.ur"])),
                               tensors["dec.gru.br"]))
        cand = ag.tanh(ag.add(ag.add(ag.matmul(u, tensors["dec.gru.wn"]),
                                     ag.matmul(ag.mul(rr, state),
                                               tensors["dec.gru.un"])),
                              tensors["dec.gru.bn"]))
        state = ag.add(ag.mul(ag.sub(one, z), cand), ag.mul(z, state))
        base = ag.add(ag.matmul(state, tensors["dec.out.weight"]),
                      tensors["dec.out.bias"])
        for k in range(r):
            frames.append(ag.add(base, ag.slice_rows(tensors["dec.pos.weight"],
                                                     k, k + 1)))
        last_frame = frames[-1]
    return ag.concat_rows(frames)


def _postnet(tensors, y1):
    c = ag.tanh(ag.conv1d(y1, tensors["post.conv0.weight"],
                          tensors["post.conv0.bias"], dilation=1, causal=False))
    res = ag.conv1d(c, tensors["post.conv1.weight"], tensors["post.conv1.bias"],
                    dilation=1, causal=False)
    return ag.add(y1, res)


def _check_roll(roll, cfg):
    if roll.values.shape[1] != cfg.input_dim:
        raise DimensionMismatch(
            f"roll has {roll.values.shape[1]} pitches, model wants {cfg.input_dim}")
    if roll.n_frames == 0:
        raise ValueError("piano roll has no frames")


def am_teacher_forced(params: ModelParams, roll: PianoRoll, target: FeatureMatrix,
                      cfg: AmConfig, train_mode: bool = False, seed: int = 0):
    """One teacher-forced pass: returns (loss, grads, predicted features).

    The decoder is fed the true previous frame (the last target frame of
    the preceding group).  Loss is the mean squared error before plus
    after the postnet, against the target padded to a whole number of
    groups by edge replication.  Prenet dropout applies only when
    train_mode is set; the seed makes the masks reproducible.  A
    non-finite loss raises TrainingDiverged.
    """
    _check_roll(roll, cfg)
    if target.dim != cfg.output_dim:
        raise DimensionMismatch(
            f"target has {target.dim} dims, model wants {cfg.output_dim}")
    if target.n_frames != roll.n_frames:
        raise LengthMismatch(
            f"target has {target.n_frames} frames, roll has {roll.n_frames}")
    roll_ds = downsample_roll(roll, cfg.downsample_factor)
    m = roll_ds.n_frames
    r = cfg.reduction_factor
    padded = _pad_rows_edge(target.values, m * r)
    rng = np.random.default_rng(seed) if train_mode else None

    def prev_provider(s, _last):
        if s == 0:
            return ag.Tensor(np.zeros((1, cfg.output_dim)))
        return ag.Tensor(padded[s * r - 1 : s * r])

    tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
    enc_out = _encode(tensors, roll_ds.values)
    y1 = _decode(tensors, cfg, enc_out, roll_ds.values, prev_provider, rng)
    y2 = _postnet(tensors, y1)
    target_t = ag.Tensor(padded)
    loss = ag.add(ag.square_error_mean(y1, target_t),
                  ag.square_error_mean(y2, target_t))
    if not math.isfinite(loss.value):
        raise TrainingDiverged("non-finite loss in the teacher-forced pass")
    ag.backward(loss)
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for name, t in tensors.items()}
    pred = FeatureMatrix(y2.value[: roll.n_frames], target.kind,
                         target.frame_shift, target.sample_rate)
    return float(loss.value), grads, pred


def am_generate(params: ModelParams, roll: PianoRoll, cfg: AmConfig,
                seed: int = 0, use_dropout: bool = True) -> FeatureMatrix:
    """Free-running synthesis of features from a piano roll.

    The decoder feeds back its own last pre-postnet frame.  Prenet
    dropout stays on by default (it is part of how these models were
    trained to rely on the score); the seed makes it reproducible.
    """
    _check_roll(roll, cfg)
    roll_ds = downsample_roll(roll, cfg.downsample_factor)
    rng = np.random.default_rng(seed) if use_dropout else None

    def prev_provider(s, last_frame):
        return ag.Tensor(np.zeros_like(last_frame.value)) if s == 0 else last_frame

    with ag.no_grad():
        tensors = {k: ag.Tensor(v) for k, v in params.tensors.items()}
        enc_out = _encode(tensors, roll_ds.values)
        y1 = _decode(tensors, cfg, enc_out, roll_ds.values, prev_provider, rng)
        y2 = _postnet(tensors, y1)
    values = y2.value[: roll.n_frames]
    shift = roll.frame_shift
    return FeatureMatrix(values, cfg.output_kind, shift, roll.sample_rate_hint)


def am_train(params: ModelParams, dataset, train_cfg: AmTrainConfig,
             cfg: AmConfig, on_epoch_end=None):
    """Train with params.fit over (roll, target features) pairs.

    Dropout masks derive from the train seed, the step index, and the
    item index, so runs are reproducible.  Returns (updated params copy,
    [(step, batch loss), ...]).
    """
    def loss_and_grads(p, item, idx):
        roll, target = item
        item_seed = np.random.SeedSequence(
            (train_cfg.seed, p.step, int(idx))).generate_state(1)[0]
        loss, grads, _ = am_teacher_forced(p, roll, target, cfg,
                                           train_mode=True, seed=int(item_seed))
        return loss, grads

    return fit(params, dataset, loss_and_grads, train_cfg, on_epoch_end)


# --- warm starting and checkpoints -------------------------------------------


def warm_start_from(base: ModelParams, base_cfg: AmConfig,
                    new_cfg: AmConfig) -> ModelParams:
    """Adapt trained parameters to a sibling variant.

    Every tensor whose shape already matches is copied as-is; thanks to
    the fixed-size output head that covers all of them except the first
    prenet layer when the new variant concatenates the roll frame, whose
    weight gains zero rows for the new inputs (the adapted model starts
    out computing exactly the base function).  Optimizer state resets.
    """
    new_shapes = am_param_shapes(new_cfg)
    base_shapes = am_param_shapes(base_cfg)
    if set(new_shapes) != set(base_shapes):
        raise ValueError("variants expose different tensor names")
    tensors = {}
    for name, shape in new_shapes.items():
        src = base.tensors[name]
        if src.shape == tuple(shape):
            tensors[name] = src.copy()
        elif name == "prenet.fc1.weight" and shape[1] == src.shape[1] \
                and shape[0] > src.shape[0]:
            grown = np.zeros(shape)
            grown[: src.shape[0]] = src
            tensors[name] = grown
        else:
            raise ValueError(
                f"cannot adapt tensor {name!r} from {src.shape} to {tuple(shape)}")
    return ModelParams(tensors=tensors)


def _v1_config(fields):
    """The nine u32 fields of a version-1 checkpoint as AmConfig arguments."""
    code, input_dim, output_dim, factor, enc, dec, w1, w2, post = fields
    return dict(variant=f"taco{code}", input_dim=input_dim,
                output_dim=output_dim, downsample_factor=factor,
                encoder_channels=enc, decoder_state_dim=dec,
                prenet_widths=(w1, w2), postnet_channels=post)


def am_save_checkpoint(path, params: ModelParams, cfg: AmConfig) -> None:
    save_model(path, AM_MAGIC, params, cfg)


def am_load_checkpoint(path, expected_cfg: AmConfig | None = None):
    """Read an acoustic checkpoint, returning (params, config).

    Every config field is stored.  A version-1 file lacks prenet_dropout
    and output_kind; they come from expected_cfg when given, else from
    the defaults.
    """
    return load_model(path, AM_MAGIC, AmConfig, am_param_shapes, 9,
                      _v1_config, expected_cfg)
