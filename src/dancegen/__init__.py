"""Music-conditioned dance generation in two trainable stages: a finite
scalar quantization motion codec and a genre-routed mixture-of-experts
code generator, built on a numpy-only reverse-mode autodiff core."""

__version__ = "0.1.0"

from .codec import (
    CodecModel,
    CodecTrainConfig,
    FsqConfig,
    LatentCodeSequence,
    LossConfig,
    load_codec,
    save_codec,
    train_codec,
)
from .config import CONFIG_ENV_VAR, PipelineConfig, load_config
from .generator import (
    GadgConfig,
    GadgModel,
    GenerationState,
    GeneratorTrainConfig,
    generate,
    load_generator,
    save_generator,
    train_generator,
)
from .metrics import (
    GaussianStats,
    beat_align_score,
    diversity,
    extract_features,
    frechet_distance,
)
from .motion import MotionSequence, forward_kinematics, read_motion_file, write_motion_file
from .music import (
    MusicFeatureSequence,
    SyntheticPairConfig,
    read_music_file,
    synthesize_pair,
    write_music_file,
)

__all__ = [
    "CodecModel", "CodecTrainConfig", "FsqConfig", "LatentCodeSequence",
    "LossConfig", "load_codec", "save_codec", "train_codec",
    "CONFIG_ENV_VAR", "PipelineConfig", "load_config",
    "GadgConfig", "GadgModel", "GenerationState", "GeneratorTrainConfig", "generate",
    "load_generator", "save_generator", "train_generator",
    "GaussianStats", "beat_align_score", "diversity", "extract_features",
    "frechet_distance",
    "MotionSequence", "forward_kinematics", "read_motion_file", "write_motion_file",
    "MusicFeatureSequence", "SyntheticPairConfig", "read_music_file",
    "synthesize_pair", "write_music_file",
]
