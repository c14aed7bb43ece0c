"""Pseudo point clouds from monocular relative depth.

The pipeline: a relative depth prediction is min-max normalized and
flipped (1 - d), back-projected through a pinhole camera into an
(H, W, 3) point grid that keeps pixel adjacency, optionally encoded by a
small convolutional network, and fused with 2-D image features.  A
behavior-cloning loss scores predicted gripper actions against
demonstrations.
"""

from .camera import (
    CameraIntrinsics,
    backproject,
    estimate_intrinsics_from_fov,
    load_intrinsics,
    parse_intrinsics_config,
    project,
)
from .cloud import (
    ContinuityStats,
    cloud_from_depth,
    local_continuity,
    synth_random,
    synth_wedge,
    to_coordinate_map,
)
from .depth import (
    DepthKind,
    disparity_from_metric,
    invert,
    normalize,
    pipeline_relative_to_dr,
    reciprocal_depth,
)
from .depth_io import load_depth_map, read_csv, read_pfm, read_pgm, write_csv, write_pfm, write_pgm
from .encoder import (
    EncoderGradients,
    EncoderParams,
    encode,
    encode_backward,
    init_params,
    load_params,
    normalize_coordinate_map,
    output_shape,
    save_params,
)
from .errors import Pseudo3dError
from .fusion import FusionParams, Strategy, fuse, init_fusion_params
from .ply import export_ply, read_ply
from .policy_loss import Action, dataset_loss, read_actions_csv, trajectory_from_rows

__version__ = "0.1.0"

__all__ = [
    "Action",
    "CameraIntrinsics",
    "ContinuityStats",
    "DepthKind",
    "EncoderGradients",
    "EncoderParams",
    "FusionParams",
    "Pseudo3dError",
    "Strategy",
    "backproject",
    "cloud_from_depth",
    "dataset_loss",
    "disparity_from_metric",
    "encode",
    "encode_backward",
    "estimate_intrinsics_from_fov",
    "export_ply",
    "fuse",
    "init_fusion_params",
    "init_params",
    "invert",
    "load_depth_map",
    "load_intrinsics",
    "load_params",
    "local_continuity",
    "normalize",
    "normalize_coordinate_map",
    "output_shape",
    "parse_intrinsics_config",
    "pipeline_relative_to_dr",
    "project",
    "read_actions_csv",
    "read_csv",
    "read_pfm",
    "read_pgm",
    "read_ply",
    "reciprocal_depth",
    "save_params",
    "synth_random",
    "synth_wedge",
    "to_coordinate_map",
    "trajectory_from_rows",
    "write_csv",
    "write_pfm",
    "write_pgm",
]
