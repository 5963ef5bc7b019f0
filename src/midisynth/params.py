"""Named parameter collections, initialization, the Adam update, the
training loop, and the checkpoints both models share."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptCheckpoint, ModelTooLarge, TrainingDiverged
from .formats import read_container, write_container

ADAM_PREFIX_M = "adam.m."
ADAM_PREFIX_V = "adam.v."
STEP_TENSOR = "adam.step"
MAX_PARAMETERS = 2 ** 24  # 128 MiB of float64 per copy; Adam keeps three


@dataclass
class ModelParams:
    """Named float64 tensors plus optional Adam moments and step count."""

    tensors: dict
    step: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        return ModelParams(
            tensors={k: v.copy() for k, v in self.tensors.items()},
            step=self.step,
            adam_m={k: v.copy() for k, v in self.adam_m.items()},
            adam_v={k: v.copy() for k, v in self.adam_v.items()},
        )


def affine(name: str, shape, fan_in) -> dict:
    """Layer-table entries of a weight and its bias over the last axis."""
    return {f"{name}.weight": (shape, fan_in), f"{name}.bias": (shape[-1:], fan_in)}


def check_parameter_count(layers: dict) -> None:
    """Refuse a layer table, name -> (shape, fan_in), of more than
    MAX_PARAMETERS values before any of it is allocated."""
    count = sum(math.prod(shape) for shape, _ in layers.values())
    if count > MAX_PARAMETERS:
        raise ModelTooLarge(f"the model has {count} parameters, "
                            f"the limit is {MAX_PARAMETERS}")


def init_params(layers: dict, seed: int) -> ModelParams:
    """Initialize a layer table, name -> (shape, fan_in), in sorted name
    order for seed-stable layouts: uniform on [-sqrt(1/fan_in),
    sqrt(1/fan_in)], or zero where fan_in is None."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name in sorted(layers):
        shape, fan_in = layers[name]
        if fan_in is None:
            tensors[name] = np.zeros(shape)
        else:
            bound = (1.0 / max(fan_in, 1)) ** 0.5
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(tensors=tensors)


def zero_params(shapes: dict) -> ModelParams:
    return ModelParams(tensors={k: np.zeros(v) for k, v in sorted(shapes.items())})


def adam_update(params: ModelParams, grads: dict, lr: float,
                beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> None:
    """One Adam step in place, with bias correction, over params.tensors."""
    params.step += 1
    t = params.step
    for name, tensor in params.tensors.items():
        g = grads[name]
        m = params.adam_m.get(name)
        v = params.adam_v.get(name)
        if m is None:
            m = np.zeros_like(tensor)
            v = np.zeros_like(tensor)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        params.adam_m[name] = m
        params.adam_v[name] = v
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        tensor -= lr * m_hat / (np.sqrt(v_hat) + eps)


def is_number(value) -> bool:
    """An int or a float; a bool is not taken as a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_train_config(cfg, counts) -> None:
    """Check the fields both training configs share, and their counts.

    learning_rate must be positive and finite, beta1 and beta2 lie in
    [0, 1), seed be a non-negative int, and every field named in counts
    a positive int.
    """
    def number(name):
        value = getattr(cfg, name)
        if not is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
        return value

    if not 0 < number("learning_rate") < math.inf:
        raise ValueError("learning_rate must be positive and finite")
    for name in ("beta1", "beta2"):
        if not 0 <= number(name) < 1:
            raise ValueError(f"{name} must lie in [0, 1)")
    for name in ("seed", *counts):
        value = getattr(cfg, name)
        low = 0 if name == "seed" else 1
        if type(value) is not int or value < low:
            raise ValueError(f"{name} must be an integer of at least {low}, "
                             f"got {value!r}")


def fit(params: ModelParams, dataset, loss_and_grads, train_cfg,
        on_epoch_end=None):
    """Adam training, visiting the items in a seeded shuffle each epoch.

    loss_and_grads(params, item, index) gives one item's (loss, grads);
    their batch means drive one Adam step, unless either is non-finite,
    which raises TrainingDiverged (numpy's overflow warnings are off in a
    batch, as this check reports it).  on_epoch_end(epoch, params) runs
    after every epoch.  Returns (updated params copy, [(step, loss), ...]).
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset is empty")
    params = params.copy()
    rng = np.random.default_rng(train_cfg.seed)
    for _ in range(params.step // math.ceil(len(dataset) / train_cfg.batch_size)):
        rng.permutation(len(dataset))  # a resumed run skips the epochs it has done
    history = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(order), train_cfg.batch_size):
            batch = order[lo : lo + train_cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                total = {name: np.zeros_like(v) for name, v in params.tensors.items()}
                loss_sum = 0.0
                for idx in batch:
                    loss, grads = loss_and_grads(params, dataset[idx], idx)
                    loss_sum += loss
                    for name in total:
                        total[name] += grads[name]
                n = len(batch)
                mean_loss = loss_sum / n
                mean_grads = {k: v / n for k, v in total.items()}
                if not (math.isfinite(mean_loss)
                        and all(np.isfinite(g).all() for g in mean_grads.values())):
                    raise TrainingDiverged(f"non-finite loss or gradient at "
                                           f"step {params.step + 1}")
                adam_update(params, mean_grads, train_cfg.learning_rate,
                            train_cfg.beta1, train_cfg.beta2)
            history.append((params.step, mean_loss))
        if on_epoch_end is not None:
            on_epoch_end(epoch, params)
    return params, history


def pack_state_tensors(params: ModelParams) -> dict:
    """Flatten parameters and optimizer state into one name->tensor dict."""
    out = dict(params.tensors)
    for name, m in params.adam_m.items():
        out[ADAM_PREFIX_M + name] = m
    for name, v in params.adam_v.items():
        out[ADAM_PREFIX_V + name] = v
    out[STEP_TENSOR] = np.array([float(params.step)])
    return out


def _validate_state_shapes(path, params: ModelParams, shapes: dict) -> None:
    """Check a loaded parameter set against the shapes a config implies."""
    missing = set(shapes) - set(params.tensors)
    extra = set(params.tensors) - set(shapes)
    if missing or extra:
        raise CorruptCheckpoint(
            f"{path}: tensor names disagree with config "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    for name, shape in shapes.items():
        if params.tensors[name].shape != tuple(shape):
            raise CorruptCheckpoint(
                f"{path}: tensor {name!r} has shape {params.tensors[name].shape}, "
                f"config implies {tuple(shape)}")
    for state in (params.adam_m, params.adam_v):
        for name, value in state.items():
            if name not in shapes:
                raise CorruptCheckpoint(f"{path}: optimizer state for unknown "
                                        f"tensor {name!r}")
            if value.shape != tuple(shapes[name]):
                raise CorruptCheckpoint(f"{path}: optimizer state shape "
                                        f"mismatch for {name!r}")


def unpack_state_tensors(path, tensors: dict) -> ModelParams:
    """Inverse of pack_state_tensors for the file at path; unknown names
    stay in tensors.  A step count that is not one finite, non-negative
    number raises CorruptCheckpoint.
    """
    params = ModelParams(tensors={})
    for name, value in tensors.items():
        if name == STEP_TENSOR:
            if value.size != 1 or not 0 <= value.item() < math.inf:
                raise CorruptCheckpoint(f"{path}: {STEP_TENSOR} is not one finite, "
                                        f"non-negative count")
            params.step = int(round(value.item()))
        elif name.startswith(ADAM_PREFIX_M):
            params.adam_m[name[len(ADAM_PREFIX_M):]] = value
        elif name.startswith(ADAM_PREFIX_V):
            params.adam_v[name[len(ADAM_PREFIX_V):]] = value
        else:
            params.tensors[name] = value
    return params


def save_model(path, magic: bytes, params: ModelParams, cfg) -> None:
    """Checkpoint params, optimizer state and every field of cfg."""
    write_container(path, magic, dataclasses.asdict(cfg), pack_state_tensors(params))


def load_model(path, magic: bytes, config_cls, param_shapes, n_v1_fields: int,
               v1_config, expected_cfg=None):
    """Read a checkpoint written by save_model, returning (params, config).

    v1_config maps the n_v1_fields u32 values of a version-1 file to
    config_cls arguments; fields it lacks come from expected_cfg if given,
    so such a file is compared only on what it stored.  An invalid or
    unexpected config, or tensors that do not fit param_shapes(config),
    raise CorruptCheckpoint.
    """
    config, tensors = read_container(path, magic, n_v1_fields)
    try:
        if isinstance(config, dict):
            if set(config) != {f.name for f in dataclasses.fields(config_cls)}:
                raise CorruptCheckpoint(f"{path}: stored config keys {sorted(config)} "
                                        f"are not the {config_cls.__name__} fields")
            cfg = config_cls(**config)
        elif expected_cfg is not None:
            cfg = dataclasses.replace(expected_cfg, **v1_config(config))
        else:
            cfg = config_cls(**v1_config(config))
    except (TypeError, ValueError, ModelTooLarge) as exc:
        raise CorruptCheckpoint(f"{path}: invalid stored config ({exc})") from exc
    if expected_cfg is not None and cfg != expected_cfg:
        raise CorruptCheckpoint(
            f"{path}: checkpoint config {cfg} does not match expected {expected_cfg}")
    params = unpack_state_tensors(path, tensors)
    _validate_state_shapes(path, params, param_shapes(cfg))
    return params, cfg
