"""Pipeline configuration: one JSON document with four sections.

The ``hfdq``, ``gadg`` and ``data`` sections are built from the stage
dataclasses they feed, so each field's type and default is declared once,
on the stage class; a section only chooses which stage fields are settable.
Every key is validated against its section; unknown keys are rejected by
name so a typo cannot silently fall back to a default. Nothing is stated
twice: the generator's codebook size is derived from the codec level list,
and ``gadg.num_genres`` is also the genre count ``synth-data`` cycles over.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields, make_dataclass

from . import textfile as TF
from .codec import CodecTrainConfig, FsqConfig, LossConfig
from .errors import ConfigError, FormatError
from .generator import GadgConfig, GeneratorTrainConfig
from .metrics import BAS_SIGMA
from .music import SyntheticPairConfig

CONFIG_ENV_VAR = "DANCEGEN_CONFIG"


def _section(class_name: str, *sources):
    """A dataclass of the named fields of each (stage class, field names)
    source, in the stage class's order and with its type and default."""
    return make_dataclass(class_name, [
        (f.name, f.type, field(default=f.default))
        for cls, names in sources for f in fields(cls) if f.name in names
    ])


HfdqSection = _section(
    "HfdqSection",
    (FsqConfig, ("levels", "feature_dim")),
    (LossConfig, ("velocity_weight", "accel_weight")),
    (CodecTrainConfig, ("steps", "batch_size", "lr", "noise_clips")),
)
GadgSection = _section(
    "GadgSection",
    (GadgConfig, ("model_dim", "num_genres", "num_layers", "num_heads", "ff_dim",
                  "dropout", "state_dim", "conv_kernel", "expand",
                  "autoregressive_step", "window_step", "max_positions")),
    (GeneratorTrainConfig, ("steps", "batch_size", "lr")),
)
DataSection = _section("DataSection", (SyntheticPairConfig, ("seed", "clip_frames")))


@dataclass
class MetricsSection:
    bas_sigma: float = BAS_SIGMA


@dataclass
class PipelineConfig:
    hfdq: HfdqSection = field(default_factory=HfdqSection)
    gadg: GadgSection = field(default_factory=GadgSection)
    data: DataSection = field(default_factory=DataSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)

    def __post_init__(self):
        # The stage checks run at load, GadgConfig's window-step rule among
        # them; the levels go first, as the codebook size is their product.
        self.fsq_config()
        self.gadg_config()

    @property
    def codebook_size(self) -> int:
        return math.prod(self.hfdq.levels)

    def fsq_config(self) -> FsqConfig:
        return _stage_config(FsqConfig, self.hfdq)

    def loss_config(self) -> LossConfig:
        return _stage_config(LossConfig, self.hfdq)

    def codec_train_config(self) -> CodecTrainConfig:
        return _stage_config(CodecTrainConfig, self.hfdq, seed=self.data.seed)

    def gadg_config(self) -> GadgConfig:
        return _stage_config(GadgConfig, self.gadg, codebook_size=self.codebook_size)

    def generator_train_config(self) -> GeneratorTrainConfig:
        return _stage_config(GeneratorTrainConfig, self.gadg, seed=self.data.seed)

    def to_dict(self) -> dict:
        return asdict(self)


# The JSON values each declared field type accepts. ``type(v) is int``
# keeps out booleans, which Python counts as ints and JSON does not.
_VALUE_CHECKS = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in (int, float)),
    "tuple": ("a list of integers", lambda v: type(v) is list and all(type(i) is int for i in v)),
}


def _section_from_dict(name: str, cls, raw):
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {type(raw).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r} in section {name!r}")
        expected, ok = _VALUE_CHECKS[types[key]]
        if not ok(value):
            raise ConfigError(f"config value {name}.{key} must be {expected}, got {value!r}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in raw.items()})


def _stage_config(cls, section, **derived):
    """``cls`` built from the section's fields of the same name plus the
    ``derived`` values; stage fields in neither keep their class default."""
    names = {f.name for f in fields(cls)}
    values = {f.name: getattr(section, f.name) for f in fields(section) if f.name in names}
    return cls(**values, **derived)


def config_from_dict(raw: dict) -> PipelineConfig:
    sections = {f.name: f.default_factory for f in fields(PipelineConfig)}
    unknown = set(raw) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config section {sorted(unknown)[0]!r}")
    return PipelineConfig(**{
        name: _section_from_dict(name, cls, raw.get(name, {})) for name, cls in sections.items()
    })


def load_config(path=None) -> PipelineConfig:
    """Read a JSON pipeline config; fall back to $DANCEGEN_CONFIG, then to
    built-in desk-scale defaults when neither is given."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return PipelineConfig()
    try:
        raw = TF.read_json_object(path, "config")
    except OSError as e:
        raise FormatError(f"cannot read config {path}: {e}") from None
    return config_from_dict(raw)
