"""Pipeline configuration: one JSON document with four sections.

The ``hfdq``, ``gadg`` and ``data`` sections are built from the stage
dataclasses they feed, so each field's type and default is declared once,
on the stage class; a section only chooses which stage fields are settable.
``textfile.dataclass_from_json``, which reads checkpoint headers too, reads
each section and refuses an unknown key or a mistyped value by name, so a
typo cannot silently fall back to a default. Nothing is stated twice: the
generator's codebook size is derived from the codec level list, and
``gadg.num_genres`` is also the genre count ``synth-data`` cycles over.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields, make_dataclass

from . import textfile as TF
from .codec import DOWNSAMPLE, CodecTrainConfig, FsqConfig, LossConfig
from .errors import ConfigError, FormatError
from .generator import GadgConfig, GeneratorTrainConfig
from .metrics import BAS_SIGMA
from .music import MIN_CLIP_FRAMES, SyntheticPairConfig

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

    def __post_init__(self):
        if not (math.isfinite(self.bas_sigma) and self.bas_sigma > 0):
            raise ConfigError(f"metrics.bas_sigma must be finite and > 0, got {self.bas_sigma}")


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
        if self.data.clip_frames < MIN_CLIP_FRAMES:
            raise ConfigError(f"data.clip_frames {self.data.clip_frames} is below {MIN_CLIP_FRAMES}")
        if self.data.clip_frames % DOWNSAMPLE:  # synth-data's clips feed the codec
            raise ConfigError(f"data.clip_frames {self.data.clip_frames} is not a multiple of {DOWNSAMPLE}")

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
        name: TF.dataclass_from_json(cls, raw.get(name, {}), f"config section {name!r}", False)
        for name, cls in sections.items()
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
