"""Named parameter collections, initialization, the Adam update, the
training loop, and the checkpoints both models share."""

from __future__ import annotations

import copy
import dataclasses
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import FileFormatError, TooLarge, TrainingDiverged
from .formats import read_container, write_container

ADAM_PREFIXES = ("adam.m.", "adam.v.")  # the first and second moments
STEP_TENSOR = "adam.step"
MAX_PARAMETERS = 2 ** 24  # 128 MiB of float64 per copy; Adam keeps three
# Each tensor costs a name, a dict entry and an array header in every copy,
# whatever its size, and a graph node per use; the models hold 30 or so.
MAX_TENSORS = 2 ** 12
# Most epochs a run may span, resumes included: a resumed run replays one
# shuffle per finished epoch, so a forged step count could stall it.
MAX_EPOCHS = 2 ** 16
ADAM_EPS = 1e-8  # keeps an Adam step finite where a second moment is 0


@dataclass
class ModelParams:
    """Named float64 tensors plus optional Adam moments and step count."""

    tensors: dict
    step: int = 0
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)

    def copy(self) -> "ModelParams":
        return copy.deepcopy(self)


def affine(name: str, shape, fan_in) -> tuple:
    """Layer-table entries of a weight and its bias over the last axis."""
    return ((f"{name}.weight", (shape, fan_in)), (f"{name}.bias", (shape[-1:], fan_in)))


def check_layer_table(layers) -> None:
    """Refuse a layer table, an iterable of (name, (shape, fan_in)), of
    more than MAX_TENSORS tensors or MAX_PARAMETERS values with TooLarge.
    The walk stops at the first entry past either limit, so a table that
    is yielded lazily is never built in full."""
    values = 0
    for tensors, (name, (shape, _)) in enumerate(layers, 1):
        values += math.prod(shape)
        for count, what, limit in ((tensors, "tensors", MAX_TENSORS),
                                   (values, "parameters", MAX_PARAMETERS)):
            if count > limit:
                raise TooLarge(f"the model has {count} {what} up to {name!r}, "
                               f"the limit is {limit}")


def init_params(layers, seed: int) -> ModelParams:
    """Initialize a layer table, (name, (shape, fan_in)) pairs, in sorted
    name order for seed-stable layouts: uniform on [-sqrt(1/fan_in),
    sqrt(1/fan_in)], or zero where fan_in is None."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, (shape, fan_in) in sorted(layers):
        if fan_in is None:
            tensors[name] = np.zeros(shape)
        else:
            bound = (1.0 / max(fan_in, 1)) ** 0.5
            tensors[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(tensors=tensors)


def zero_params(shapes: dict) -> ModelParams:
    return ModelParams(tensors={k: np.zeros(v) for k, v in sorted(shapes.items())})


def adam_update(params: ModelParams, grads: dict, lr: float, beta1: float,
                beta2: float) -> None:
    """One Adam step in place, with bias correction, over params.tensors."""
    params.step += 1
    t = params.step
    for name, tensor in params.tensors.items():
        g = grads[name]
        m = beta1 * params.adam_m.get(name, 0.0) + (1.0 - beta1) * g
        v = beta2 * params.adam_v.get(name, 0.0) + (1.0 - beta2) * g * g
        params.adam_m[name] = m
        params.adam_v[name] = v
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        tensor -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass(frozen=True)
class Domain:
    """The values a config field accepts (see declared), and their text."""

    text: str
    accepts: Callable[[object], bool]


POSITIVE_INT = Domain("a positive integer", lambda v: type(v) is int and v > 0)
NON_NEGATIVE_INT = Domain("a non-negative integer", lambda v: type(v) is int and v >= 0)
# a number is an int or a float, as JSON gives them: not a bool
UNIT_INTERVAL = Domain("a number in [0, 1)",
                       lambda v: type(v) in (int, float) and 0 <= v < 1)
POSITIVE_NUMBER = Domain("a positive finite number",
                         lambda v: type(v) in (int, float) and 0 < v < math.inf)
POSITIVE_INT_PAIR = Domain("a list of two positive integers",
                           lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                           and all(map(POSITIVE_INT.accepts, v)))


def one_of(*choices) -> Domain:
    """One of choices, of the same type: a bool is not the int 1."""
    return Domain("one of " + ", ".join(map(str, choices)),
                  lambda v: any(type(v) is type(c) and v == c for c in choices))


def declared(domain: Domain, default=dataclasses.MISSING):
    """A config dataclass field of the given domain and default."""
    return field(default=default, metadata={"domain": domain})


def check_fields(cfg) -> None:
    """Raise ValueError naming the first field of cfg whose value is
    outside its declared domain."""
    for f in dataclasses.fields(cfg):
        value, domain = getattr(cfg, f.name), f.metadata["domain"]
        if not domain.accepts(value):
            raise ValueError(f"{f.name} must be {domain.text}, got {value!r}")


@dataclass(frozen=True)
class FitConfig:
    """The train fields fit reads; each model's train config adds a segment length."""

    learning_rate: float = declared(POSITIVE_NUMBER, 1e-4)
    beta1: float = declared(UNIT_INTERVAL, 0.9)
    beta2: float = declared(UNIT_INTERVAL, 0.999)
    batch_size: int = declared(POSITIVE_INT, 4)
    epochs: int = declared(POSITIVE_INT, 10)
    seed: int = declared(NON_NEGATIVE_INT, 0)
    __post_init__ = check_fields


def fit(params: ModelParams, dataset, loss_and_grads, train_cfg: FitConfig,
        on_epoch_end=None):
    """Adam training, visiting the items in a seeded shuffle each epoch.

    loss_and_grads(params, items, indices) gives a batch's mean loss and
    mean gradients, a dict with an array for every tensor of params.tensors;
    items are the batch's dataset items, and indices their positions in the
    dataset.  The means drive one Adam step, unless either is non-finite,
    which raises TrainingDiverged (numpy's overflow warnings are off in a
    batch, as this check reports it).  on_epoch_end(epoch, params, history)
    runs after every epoch, with the history so far.  A run whose finished
    epochs (params.step over the batches per epoch) plus train_cfg.epochs
    exceed MAX_EPOCHS raises TooLarge.  Returns (updated params copy,
    [(step, loss), ...]).
    """
    dataset = list(dataset)
    if not dataset:
        raise ValueError("training dataset is empty")
    params = params.copy()
    done = params.step // math.ceil(len(dataset) / train_cfg.batch_size)
    if done + train_cfg.epochs > MAX_EPOCHS:
        raise TooLarge(f"step {params.step} is {done} finished epochs; "
                       f"{train_cfg.epochs} more pass the limit of {MAX_EPOCHS}")
    rng = np.random.default_rng(train_cfg.seed)
    for _ in range(done):
        rng.permutation(len(dataset))  # a resumed run skips the epochs it has done
    history = []
    for epoch in range(train_cfg.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(order), train_cfg.batch_size):
            batch = order[lo : lo + train_cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grads(params, [dataset[i] for i in batch], batch)
                if not (math.isfinite(loss)
                        and all(np.isfinite(g).all() for g in grads.values())):
                    raise TrainingDiverged(f"non-finite loss or gradient at "
                                           f"step {params.step + 1}")
                adam_update(params, grads, train_cfg.learning_rate,
                            train_cfg.beta1, train_cfg.beta2)
            history.append((params.step, loss))
        if on_epoch_end is not None:
            on_epoch_end(epoch, params, history)
    return params, history


def save_model(path, magic: bytes, params: ModelParams, cfg) -> None:
    """Checkpoint params, optimizer state and every field of cfg."""
    tensors = {**params.tensors, STEP_TENSOR: np.array([float(params.step)])}
    for prefix, state in zip(ADAM_PREFIXES, (params.adam_m, params.adam_v)):
        tensors.update((prefix + name, value) for name, value in state.items())
    write_container(path, magic, dataclasses.asdict(cfg), tensors)


def load_model(path, magic: bytes, config_cls, param_shapes, expected_cfg=None):
    """Read a checkpoint written by save_model, returning (params, config).

    The stored config must hold each config_cls field, and equal
    expected_cfg if given.  The table must hold each tensor of
    param_shapes(config) at its shape, both Adam moments of every tensor
    or none, and one finite, non-negative step count, each name once.
    Any other config or table raises FileFormatError.
    """
    # each tensor, its two Adam moments, and the step
    config, tensors = read_container(path, magic, 3 * MAX_TENSORS + 1)
    if set(config) != {f.name for f in dataclasses.fields(config_cls)}:
        raise FileFormatError(f"{path}: stored config keys {sorted(config)} "
                              f"are not the {config_cls.__name__} fields")
    try:
        cfg = config_cls(**config)
    except (TypeError, ValueError, TooLarge) as exc:
        raise FileFormatError(f"{path}: invalid stored config ({exc})") from exc
    if expected_cfg is not None and cfg != expected_cfg:
        raise FileFormatError(
            f"{path}: checkpoint config {cfg} does not match expected {expected_cfg}")
    step = tensors.pop(STEP_TENSOR, np.zeros(0))
    if step.size != 1 or not 0 <= step.item() < math.inf:
        raise FileFormatError(f"{path}: {STEP_TENSOR} is not one finite, "
                              f"non-negative count")
    shapes = {name: tuple(shape) for name, shape in param_shapes(cfg).items()}
    stored = ADAM_PREFIXES if any(n.startswith(ADAM_PREFIXES) for n in tensors) else ()
    expected = {prefix + name: shape for prefix in ("", *stored)
                for name, shape in shapes.items()}
    for what, names in (("missing", expected.keys() - tensors.keys()),
                        ("unexpected", tensors.keys() - expected.keys())):
        if names:
            raise FileFormatError(f"{path}: {what} tensor {min(names)!r}")
    for name, value in tensors.items():
        if value.shape != expected[name]:
            raise FileFormatError(f"{path}: tensor {name!r} has shape {value.shape}, "
                                  f"config implies {expected[name]}")
    table = lambda prefix: {name: tensors[prefix + name] for name in sorted(shapes)
                            if prefix + name in tensors}
    return ModelParams(table(""), int(round(step.item())), *map(table, ADAM_PREFIXES)), cfg
