"""Behavior-cloning loss over predicted and demonstrated gripper actions.

An action is an (8,) row: a 3-D position, a rotation quaternion and a
gripper open/close scalar.  A trajectory is an (N, 2, 8) array of
(prediction, target) pairs.  A step's loss is

    mean squared error over the 3 position components
  + mean squared error over the 4 quaternion components
  + binary cross-entropy on the gripper scalar

and a dataset's loss is the sum of step losses divided by the total
number of steps across all trajectories.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (FileError, InvalidInputError, NonFiniteInputError, bad_row,
                     check_finite, check_real, data_line, float_array, number_rows, reading)

BCE_EPS = 1e-7
_UNIT_TOL = 1e-6


def Action(xyz, quat, open_prob: float) -> np.ndarray:  # noqa: N802 (the name callers build actions with)
    """One gripper action as an (8,) float64 row: x, y, z, qw, qx, qy, qz, open.

    ``open`` is the probability of the gripper being open; in
    demonstrations it is exactly 0.0 or 1.0.  Prediction quaternions are
    unconstrained (the network output goes into the loss as-is); target
    quaternions must be unit norm.
    """
    xyz, quat = float_array("xyz", xyz, (3,)), float_array("quat", quat, (4,))
    check_finite("xyz", xyz)
    check_finite("quat", quat)
    check_real("open_prob", open_prob)
    if not math.isfinite(open_prob):  # not check_finite: numpy costs 1 us a scalar
        raise NonFiniteInputError("open_prob contains NaN or infinite values")
    return np.concatenate([xyz, quat, [open_prob]])


def _step_losses(traj: np.ndarray, i: int = 0) -> tuple[np.ndarray, ...]:
    """Position MSE, quaternion MSE, gripper BCE and their total, per step of
    the (N, 2, 8) trajectory ``traj``, the ``i``-th of its dataset.

    The prediction's gripper probability is clamped to
    [BCE_EPS, 1 - BCE_EPS] before the cross-entropy so a saturated
    prediction never produces an infinite loss.  The first step that breaks
    a condition raises :class:`InvalidInputError` naming the trajectory and step.
    """
    if np.iterable(traj) and len(traj) == 0:
        raise InvalidInputError(f"trajectory {i} must contain at least one step")
    traj = float_array(f"trajectory {i}", traj, (None, 2, 8))
    check_finite(f"trajectory {i}", traj)
    pred, target = traj[:, 0], traj[:, 1]
    p, y = pred[:, 7], target[:, 7]
    bad = np.stack([(p < 0.0) | (p > 1.0), (y != 0.0) & (y != 1.0),
                    np.abs(np.linalg.norm(target[:, 3:7], axis=1) - 1.0) > _UNIT_TOL])
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        problem = (f"predicted open_prob must lie in [0, 1], got {float(p[j])}",
                   f"target gripper label must be exactly 0 or 1, got {float(y[j])}",
                   f"target quaternion must be unit norm, "
                   f"|q| = {float(np.linalg.norm(target[j, 3:7]))}")[int(bad[:, j].argmax())]
        raise InvalidInputError(f"trajectory {i}, step {j}: {problem}")
    sq = pred - target
    sq *= sq
    mse_xyz = sq[:, :3].sum(axis=1) / 3.0
    mse_quat = sq[:, 3:7].sum(axis=1) / 4.0
    p = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    bce = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return mse_xyz, mse_quat, bce, mse_xyz + mse_quat + bce


def dataset_loss(trajectories: Sequence[np.ndarray]) -> float:
    """Sum of step totals over every (N, 2, 8) trajectory, divided by the total
    number of steps (equal to 1/(N*T) when all N trajectories have T steps).

    A step that breaks a condition raises :class:`InvalidInputError`
    whose message starts with ``trajectory i, step j: ``.
    """
    if len(trajectories) == 0:
        raise InvalidInputError("dataset must contain at least one trajectory")
    totals = np.concatenate([_step_losses(traj, i)[3] for i, traj in enumerate(trajectories)])
    # added in step order, as a loop does; np.sum adds pairwise and moves the last bits
    return float(np.cumsum(totals)[-1]) / totals.size


def read_actions_csv(path: str) -> np.ndarray:
    """Read one action per row as an (N, 8) array: columns x, y, z, qw, qx, qy, qz, open.

    A byte order mark, blank lines and lines that start with ``#`` are
    skipped, and so is a first row of 8 cells none of which is a number (a
    header).  Prediction and target files are row-aligned by convention.
    """
    with reading(path, text=True) as text:
        lines = [line for line in text.split("\n") if data_line(line)]
        first = lines[0].split(",") if lines else []
        header = int(len(first) == 8 and all(number_rows([cell]) is None for cell in first))
        if len(lines) == header:
            raise FileError("no action rows found")
        actions = number_rows(lines[header:])
        if actions is None or actions.shape[1] != 8 or not np.isfinite(actions).all():
            raise FileError(bad_row(lines[header:], 8, start=1 + header, finite=True))
        return actions


def trajectory_from_rows(preds, targets) -> np.ndarray:
    """Pair row-aligned (N, 8) prediction and target actions as an (N, 2, 8) trajectory."""
    preds = float_array("prediction rows", preds, (None, 8))
    return np.stack([preds, float_array("target rows", targets, preds.shape)], axis=1)
