"""Egocentric hand pipeline: pseudo-depth range segmentation, pinhole
lifting, pose metrics, sequence encoding, and a from-scratch transformer
action classifier with synthetic-scene experiment harnesses."""

from . import errors
from .geometry import (
    CameraIntrinsics,
    HandPose,
    lift_to_camera,
    mpjpe,
    mpjpe_report,
    project_to_image,
)
from .rangeseg import (
    DepthMap,
    SegMask,
    apply_mask,
    desharpen_mask,
    mask_stats,
    normalize_depth,
    range_mask,
    range_mask_metric,
)
from .sequence import (
    ObjectObs,
    assemble_frame_vector,
    augment_sequence,
    load_dataset,
    save_dataset,
    subsample_or_pad,
)
from .model import ActionModel, ActionModelConfig, evaluate, train
from .synth import SynthParams, gen_hand_sequence, gen_scene_depth, noisy_pose_oracle

__version__ = "0.1.0"
kernel_backend = "numpy"
