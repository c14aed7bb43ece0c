"""Behavior-cloning loss over predicted and demonstrated gripper actions.

Each action is a 3-D position, a rotation quaternion, and a gripper
open/close scalar.  A step's loss is

    mean squared error over the 3 position components
  + mean squared error over the 4 quaternion components
  + binary cross-entropy on the gripper scalar

and a dataset's loss is the sum of step losses divided by the total
number of steps across all trajectories.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ActionsFileError, EmptyDatasetError, NonFiniteInputError, ShapeMismatchError

BCE_EPS = 1e-7
_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class Action:
    """One gripper action.

    ``open_prob`` is the probability of the gripper being open; in
    demonstrations it is exactly 0.0 or 1.0.  Prediction quaternions are
    unconstrained (the network output goes into the loss as-is); target
    quaternions must be unit norm.
    """

    xyz: np.ndarray
    quat: np.ndarray  # (qw, qx, qy, qz)
    open_prob: float

    def __post_init__(self) -> None:
        xyz = np.asarray(self.xyz, dtype=np.float64)
        quat = np.asarray(self.quat, dtype=np.float64)
        if xyz.shape != (3,):
            raise ShapeMismatchError(f"xyz must be a 3-vector, got {xyz.shape}")
        if quat.shape != (4,):
            raise ShapeMismatchError(f"quat must be a 4-vector, got {quat.shape}")
        if not (np.all(np.isfinite(xyz)) and np.all(np.isfinite(quat))
                and math.isfinite(self.open_prob)):
            raise NonFiniteInputError("action contains non-finite values")
        xyz = xyz.copy()
        xyz.setflags(write=False)
        quat = quat.copy()
        quat.setflags(write=False)
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "quat", quat)
        object.__setattr__(self, "open_prob", float(self.open_prob))


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of (predicted, target) action pairs."""

    steps: tuple[tuple[Action, Action], ...]

    def __post_init__(self) -> None:
        steps = tuple((p, t) for p, t in self.steps)
        if len(steps) < 1:
            raise EmptyDatasetError("trajectory must contain at least one step")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


class StepLoss(NamedTuple):
    mse_xyz: float
    mse_quat: float
    bce_open: float
    total: float


def _validate_pair(pred: Action, target: Action) -> None:
    if not 0.0 <= pred.open_prob <= 1.0:
        raise ValueError(
            f"predicted open_prob must lie in [0, 1], got {pred.open_prob}"
        )
    if target.open_prob not in (0.0, 1.0):
        raise ValueError(
            f"target gripper label must be exactly 0 or 1, got {target.open_prob}"
        )
    norm = float(np.linalg.norm(target.quat))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"target quaternion must be unit norm, |q| = {norm}")


def step_loss(pred: Action, target: Action) -> StepLoss:
    """Loss for one step: position MSE + quaternion MSE + gripper BCE.

    The prediction's gripper probability is clamped to
    [BCE_EPS, 1 - BCE_EPS] before the cross-entropy so a saturated
    prediction never produces an infinite loss.
    """
    _validate_pair(pred, target)
    mse_xyz = float(np.mean((pred.xyz - target.xyz) ** 2))
    mse_quat = float(np.mean((pred.quat - target.quat) ** 2))
    p = min(max(pred.open_prob, BCE_EPS), 1.0 - BCE_EPS)
    y = target.open_prob
    bce = -(y * math.log(p) + (1.0 - y) * math.log(1.0 - p))
    return StepLoss(mse_xyz, mse_quat, bce, mse_xyz + mse_quat + bce)


def dataset_loss(trajectories: Sequence[Trajectory]) -> float:
    """Sum of step totals over every trajectory, divided by the total
    number of steps (equal to 1/(N*T) when all N trajectories have T steps).
    """
    if len(trajectories) == 0:
        raise EmptyDatasetError("dataset must contain at least one trajectory")
    total = 0.0
    n_steps = 0
    for traj in trajectories:
        for pred, target in traj.steps:
            total += step_loss(pred, target).total
            n_steps += 1
    return total / n_steps


def read_actions_csv(path: str) -> list[Action]:
    """Read one action per row: columns x, y, z, qw, qx, qy, qz, open.

    A single leading header row is tolerated and skipped.  Prediction and
    target files are row-aligned by convention.
    """
    actions: list[Action] = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row and any(cell.strip() for cell in row)]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ActionsFileError(f"{path}: cannot read: {exc}") from exc
    for i, row in enumerate(rows):
        if len(row) != 8:
            raise ActionsFileError(f"{path}: row {i + 1} has {len(row)} columns, expected 8")
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            if i == 0:
                continue  # header row
            raise ActionsFileError(f"{path}: row {i + 1} is not numeric: {row}") from None
        if not all(math.isfinite(v) for v in values):
            raise ActionsFileError(f"{path}: row {i + 1} is not finite: {row}")
        actions.append(Action(xyz=np.array(values[0:3]),
                              quat=np.array(values[3:7]),
                              open_prob=values[7]))
    if not actions:
        raise ActionsFileError(f"{path}: no action rows found")
    return actions


def trajectory_from_rows(
    preds: Iterable[Action], targets: Iterable[Action]
) -> Trajectory:
    """Zip row-aligned prediction and target actions into a trajectory."""
    preds = list(preds)
    targets = list(targets)
    if len(preds) != len(targets):
        raise ShapeMismatchError(
            f"prediction rows ({len(preds)}) and target rows ({len(targets)}) differ"
        )
    return Trajectory(steps=tuple(zip(preds, targets)))
