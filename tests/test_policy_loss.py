import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pseudo3d.errors import (
    ActionsFileError,
    EmptyDatasetError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from pseudo3d.policy_loss import (
    Action,
    BCE_EPS,
    Trajectory,
    dataset_loss,
    read_actions_csv,
    step_loss,
    trajectory_from_rows,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def action(xyz=(0.0, 0.0, 0.0), quat=IDENTITY_Q, open_prob=1.0):
    return Action(xyz=np.asarray(xyz, dtype=float), quat=quat, open_prob=open_prob)


def random_target(rng):
    q = rng.standard_normal(4)
    return Action(xyz=rng.standard_normal(3), quat=q / np.linalg.norm(q),
                  open_prob=float(rng.integers(0, 2)))


def random_pred(rng):
    return Action(xyz=rng.standard_normal(3), quat=rng.standard_normal(4),
                  open_prob=float(rng.uniform(0.01, 0.99)))


class TestAction:
    def test_validates_shapes(self):
        with pytest.raises(ShapeMismatchError):
            Action(xyz=np.zeros(2), quat=IDENTITY_Q, open_prob=1.0)
        with pytest.raises(ShapeMismatchError):
            Action(xyz=np.zeros(3), quat=np.zeros(3), open_prob=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            action(xyz=(np.nan, 0, 0))
        with pytest.raises(NonFiniteInputError):
            action(open_prob=math.inf)

    def test_fields_read_only(self):
        a = action()
        with pytest.raises(ValueError):
            a.xyz[0] = 5.0


class TestStepLoss:
    def test_perfect_prediction_nearly_zero(self):
        target = action(xyz=(0.3, -0.1, 2.0), open_prob=1.0)
        loss = step_loss(target, target)
        assert loss.mse_xyz == 0.0
        assert loss.mse_quat == 0.0
        assert loss.total <= 1e-5  # clamped BCE residue only

    def test_single_axis_delta_squared_over_three(self):
        delta = 0.7
        target = action(xyz=(0.0, 1.0, -1.0))
        pred = action(xyz=(delta, 1.0, -1.0))
        assert step_loss(pred, target).mse_xyz == (delta * delta) / 3.0

    def test_quat_mse_over_four_components(self):
        target = action()
        pred = action(quat=np.array([1.0, 0.5, 0.0, 0.0]))
        assert step_loss(pred, target).mse_quat == 0.25 / 4.0

    def test_half_probability_gives_ln_two(self):
        target_open = action(open_prob=1.0)
        target_closed = action(open_prob=0.0)
        pred = action(open_prob=0.5)
        assert_allclose(step_loss(pred, target_open).bce_open, math.log(2.0), rtol=1e-15)
        assert_allclose(step_loss(pred, target_closed).bce_open, math.log(2.0), rtol=1e-15)

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(1)
        pred, target = random_pred(rng), random_target(rng)
        loss = step_loss(pred, target)
        assert loss.total == loss.mse_xyz + loss.mse_quat + loss.bce_open

    def test_clamp_keeps_saturated_predictions_finite(self):
        target = action(open_prob=0.0)
        pred = action(open_prob=1.0)  # maximally wrong
        loss = step_loss(pred, target)
        assert math.isfinite(loss.bce_open)
        assert_allclose(loss.bce_open, -math.log(BCE_EPS), rtol=1e-6)

    def test_bce_monotone_in_probability(self):
        grid = np.linspace(0.01, 0.99, 25)
        open_losses = [step_loss(action(open_prob=float(p)), action(open_prob=1.0)).bce_open
                       for p in grid]
        closed_losses = [step_loss(action(open_prob=float(p)), action(open_prob=0.0)).bce_open
                         for p in grid]
        assert all(a > b for a, b in zip(open_losses, open_losses[1:]))
        assert all(a < b for a, b in zip(closed_losses, closed_losses[1:]))

    def test_quaternion_double_cover_not_identified(self):
        # q and -q encode the same rotation but score a positive MSE;
        # the metric is literal component MSE by design
        target = action()
        pred = action(quat=-IDENTITY_Q)
        assert step_loss(pred, target).mse_quat == 1.0  # mean of (2,0,0,0)^2

    def test_validation(self):
        with pytest.raises(ValueError, match="open_prob"):
            step_loss(action(open_prob=1.5), action())
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            step_loss(action(open_prob=0.5), action(open_prob=0.25))
        with pytest.raises(ValueError, match="unit norm"):
            step_loss(action(), action(quat=np.array([2.0, 0.0, 0.0, 0.0])))

    def test_loss_never_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert step_loss(random_pred(rng), random_target(rng)).total >= 0.0


def flat_loop_oracle(trajectories):
    total, count = 0.0, 0
    for traj in trajectories:
        for pred, target in traj.steps:
            se3 = sum((pred.xyz[i] - target.xyz[i]) ** 2 for i in range(3)) / 3
            se4 = sum((pred.quat[i] - target.quat[i]) ** 2 for i in range(4)) / 4
            p = min(max(pred.open_prob, BCE_EPS), 1 - BCE_EPS)
            y = target.open_prob
            total += se3 + se4 - (y * math.log(p) + (1 - y) * math.log(1 - p))
            count += 1
    return total / count


def random_dataset(rng, max_traj=4, max_steps=5):
    return [
        Trajectory(steps=tuple(
            (random_pred(rng), random_target(rng))
            for _ in range(int(rng.integers(1, max_steps + 1)))
        ))
        for _ in range(int(rng.integers(1, max_traj + 1)))
    ]


class TestDatasetLoss:
    def test_single_step_dataset_equals_step_total(self):
        rng = np.random.default_rng(3)
        pred, target = random_pred(rng), random_target(rng)
        traj = Trajectory(steps=((pred, target),))
        assert dataset_loss([traj]) == step_loss(pred, target).total

    def test_matches_flat_loop_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            data = random_dataset(rng)
            assert_allclose(dataset_loss(data), flat_loop_oracle(data), atol=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng)
        assert dataset_loss(data + data) == dataset_loss(data)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, max_traj=6)
        shuffled = list(data)
        rng.shuffle(shuffled)
        assert_allclose(dataset_loss(shuffled), dataset_loss(data), rtol=1e-12)

    def test_ragged_lengths_average_by_total_steps(self):
        rng = np.random.default_rng(7)
        t2 = Trajectory(steps=tuple((random_pred(rng), random_target(rng))
                                    for _ in range(2)))
        t3 = Trajectory(steps=tuple((random_pred(rng), random_target(rng))
                                    for _ in range(3)))
        step_sum = sum(step_loss(p, t).total for traj in (t2, t3) for p, t in traj.steps)
        assert_allclose(dataset_loss([t2, t3]), step_sum / 5, rtol=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            dataset_loss([])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(EmptyDatasetError):
            Trajectory(steps=())


class TestCsvActions:
    CSV = ("x,y,z,qw,qx,qy,qz,open\n"
           "0.1,0.2,0.3,1,0,0,0,1\n"
           "0.4,0.5,0.6,0,1,0,0,0\n")

    def test_reads_rows_skipping_header(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text(self.CSV)
        actions = read_actions_csv(str(path))
        assert len(actions) == 2
        assert_allclose(actions[0].xyz, [0.1, 0.2, 0.3])
        assert actions[1].open_prob == 0.0

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3,1,0,0,0,1\n")
        assert len(read_actions_csv(str(path))) == 1

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ActionsFileError, match="columns"):
            read_actions_csv(str(path))

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3,1,0,0,0,1\nx,y,z,qw,qx,qy,qz,open\n")
        with pytest.raises(ActionsFileError, match="not numeric"):
            read_actions_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("x,y,z,qw,qx,qy,qz,open\n")
        with pytest.raises(ActionsFileError, match="no action rows"):
            read_actions_csv(str(path))

    def test_missing_file_names_path(self, tmp_path):
        path = str(tmp_path / "absent.csv")
        with pytest.raises(ActionsFileError, match="cannot read") as exc_info:
            read_actions_csv(path)
        assert path in str(exc_info.value)

    def test_row_aligned_files_zip_into_trajectory(self, tmp_path):
        pred_path = tmp_path / "pred.csv"
        target_path = tmp_path / "target.csv"
        pred_path.write_text("0.1,0,0,0.9,0.1,0,0,0.8\n0.2,0,0,1,0,0,0,0.6\n")
        target_path.write_text("0,0,0,1,0,0,0,1\n0.2,0,0,1,0,0,0,1\n")
        traj = trajectory_from_rows(read_actions_csv(str(pred_path)),
                                    read_actions_csv(str(target_path)))
        assert len(traj) == 2
        assert dataset_loss([traj]) > 0.0

    def test_misaligned_files_rejected(self):
        a = [action()]
        b = [action(), action()]
        with pytest.raises(ShapeMismatchError):
            trajectory_from_rows(a, b)
