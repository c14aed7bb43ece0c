import math
import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d.errors import FileError, InvalidInputError, NonFiniteInputError
from pseudo3d.policy_loss import (
    Action,
    BCE_EPS,
    _step_losses,
    dataset_loss,
    read_actions_csv,
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


class Terms(NamedTuple):
    mse_xyz: float
    mse_quat: float
    bce_open: float
    total: float


def one_step(pred, target):
    """The loss terms of the one-step trajectory (pred, target)."""
    return Terms(*(float(t[0]) for t in _step_losses(trajectory_from_rows([pred], [target]))))


class TestAction:
    def test_validates_shapes(self):
        with pytest.raises(InvalidInputError, match=re.escape("xyz must have shape (3,)")):
            Action(xyz=np.zeros(2), quat=IDENTITY_Q, open_prob=1.0)
        with pytest.raises(InvalidInputError, match=re.escape("quat must have shape (4,)")):
            Action(xyz=np.zeros(3), quat=np.zeros(3), open_prob=1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInputError):
            action(xyz=(np.nan, 0, 0))
        with pytest.raises(NonFiniteInputError):
            action(open_prob=math.inf)

    # None and "0.5" raised math's bare TypeError; True built a row with open = 1.0
    @pytest.mark.parametrize("value", ["0.5", None, True], ids=["str", "none", "bool"])
    def test_open_prob_must_be_a_real_number(self, value):
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(f'open_prob must be a real number, got {value!r}')}$"):
            action(open_prob=value)

    def test_numpy_open_prob_is_accepted(self):
        assert_array_equal(action(open_prob=np.float64(0.5)), action(open_prob=0.5))
        assert_array_equal(action(open_prob=np.float32(1.0)), action(open_prob=1.0))

    def test_is_one_row_of_eight(self):
        row = action(xyz=(0.1, 0.2, 0.3), open_prob=0.0)
        assert row.shape == (8,) and row.dtype == np.float64
        assert_array_equal(row, [0.1, 0.2, 0.3, 1.0, 0.0, 0.0, 0.0, 0.0])


class TestStepLoss:
    def test_perfect_prediction_nearly_zero(self):
        target = action(xyz=(0.3, -0.1, 2.0), open_prob=1.0)
        loss = one_step(target, target)
        assert loss.mse_xyz == 0.0
        assert loss.mse_quat == 0.0
        assert loss.total <= 1e-5  # clamped BCE residue only

    def test_single_axis_delta_squared_over_three(self):
        delta = 0.7
        target = action(xyz=(0.0, 1.0, -1.0))
        pred = action(xyz=(delta, 1.0, -1.0))
        assert one_step(pred, target).mse_xyz == (delta * delta) / 3.0

    def test_quat_mse_over_four_components(self):
        target = action()
        pred = action(quat=np.array([1.0, 0.5, 0.0, 0.0]))
        assert one_step(pred, target).mse_quat == 0.25 / 4.0

    def test_half_probability_gives_ln_two(self):
        target_open = action(open_prob=1.0)
        target_closed = action(open_prob=0.0)
        pred = action(open_prob=0.5)
        assert_allclose(one_step(pred, target_open).bce_open, math.log(2.0), rtol=1e-15)
        assert_allclose(one_step(pred, target_closed).bce_open, math.log(2.0), rtol=1e-15)

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(1)
        pred, target = random_pred(rng), random_target(rng)
        loss = one_step(pred, target)
        assert loss.total == loss.mse_xyz + loss.mse_quat + loss.bce_open

    def test_clamp_keeps_saturated_predictions_finite(self):
        target = action(open_prob=0.0)
        pred = action(open_prob=1.0)  # maximally wrong
        loss = one_step(pred, target)
        assert math.isfinite(loss.bce_open)
        assert_allclose(loss.bce_open, -math.log(BCE_EPS), rtol=1e-6)

    def test_bce_monotone_in_probability(self):
        grid = np.linspace(0.01, 0.99, 25)
        open_losses = [one_step(action(open_prob=float(p)), action(open_prob=1.0)).bce_open
                       for p in grid]
        closed_losses = [one_step(action(open_prob=float(p)), action(open_prob=0.0)).bce_open
                         for p in grid]
        assert all(a > b for a, b in zip(open_losses, open_losses[1:]))
        assert all(a < b for a, b in zip(closed_losses, closed_losses[1:]))

    def test_quaternion_double_cover_not_identified(self):
        # q and -q encode the same rotation but score a positive MSE;
        # the metric is literal component MSE by design
        target = action()
        pred = action(quat=-IDENTITY_Q)
        assert one_step(pred, target).mse_quat == 1.0  # mean of (2,0,0,0)^2

    def test_validation(self):
        with pytest.raises(InvalidInputError, match=r"^trajectory 0, step 0: predicted open_prob"):
            one_step(action(open_prob=1.5), action())
        with pytest.raises(InvalidInputError, match="^trajectory 0, step 0: target gripper label "
                                                    "must be exactly 0 or 1"):
            one_step(action(open_prob=0.5), action(open_prob=0.25))
        with pytest.raises(InvalidInputError, match="^trajectory 0, step 0: target quaternion "
                                                    "must be unit norm"):
            one_step(action(), action(quat=np.array([2.0, 0.0, 0.0, 0.0])))

    def test_loss_never_negative(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            assert one_step(random_pred(rng), random_target(rng)).total >= 0.0


def flat_loop_oracle(trajectories):
    total, count = 0.0, 0
    for traj in trajectories:
        for pred, target in traj.tolist():
            se3 = sum((pred[i] - target[i]) ** 2 for i in range(3)) / 3
            se4 = sum((pred[i] - target[i]) ** 2 for i in range(3, 7)) / 4
            p = min(max(pred[7], BCE_EPS), 1 - BCE_EPS)
            y = target[7]
            total += se3 + se4 - (y * math.log(p) + (1 - y) * math.log(1 - p))
            count += 1
    return total / count


def random_trajectory(rng, n_steps):
    return np.array([(random_pred(rng), random_target(rng)) for _ in range(n_steps)])


def random_dataset(rng, max_traj=4, max_steps=5):
    return [random_trajectory(rng, int(rng.integers(1, max_steps + 1)))
            for _ in range(int(rng.integers(1, max_traj + 1)))]


class TestDatasetLoss:
    def test_single_step_dataset_equals_step_total(self):
        rng = np.random.default_rng(3)
        pred, target = random_pred(rng), random_target(rng)
        assert dataset_loss([trajectory_from_rows([pred], [target])]) == one_step(pred, target).total

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
        t2, t3 = random_trajectory(rng, 2), random_trajectory(rng, 3)
        step_sum = sum(one_step(p, t).total for traj in (t2, t3) for p, t in traj)
        assert_allclose(dataset_loss([t2, t3]), step_sum / 5, rtol=1e-15)

    def test_adds_step_totals_in_step_order(self):
        # np.sum adds pairwise, which moves the loss's last bits and with them
        # verify's prop=loss max_oracle_dev
        rng = np.random.default_rng(9)
        data = [random_trajectory(rng, 300) for _ in range(3)]
        total = 0.0
        for traj in data:
            for step_total in _step_losses(traj)[3].tolist():
                total += step_total
        assert dataset_loss(data) == total / 900

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            dataset_loss([])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(InvalidInputError, match="trajectory 1 must contain at least one step"):
            dataset_loss([random_trajectory(np.random.default_rng(8), 1), np.empty((0, 2, 8))])

    def test_bad_step_names_trajectory_and_step(self):
        good = trajectory_from_rows([action()], [action()])
        bad = trajectory_from_rows([action(), action(), action(), action(open_prob=2.0)],
                                   [action(), action(), action(open_prob=0.5),
                                    action(quat=np.array([2.0, 0.0, 0.0, 0.0]))])
        with pytest.raises(InvalidInputError, match=re.escape(
                "trajectory 1, step 2: target gripper label must be exactly 0 or 1, got 0.5")):
            dataset_loss([good, bad])

    def test_first_broken_condition_of_a_step_is_named(self):
        # a step that breaks all three conditions reports the prediction's first
        bad = trajectory_from_rows([action(), action(open_prob=-0.5)],
                                   [action(), action(quat=np.zeros(4), open_prob=0.5)])
        with pytest.raises(InvalidInputError, match=re.escape(
                "trajectory 0, step 1: predicted open_prob must lie in [0, 1], got -0.5")):
            dataset_loss([bad])

    @pytest.mark.parametrize("shape", [(3, 8), (3, 2, 7), (3, 3, 8)])
    def test_wrong_trajectory_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=re.escape("(*, 2, 8)")):
            dataset_loss([np.zeros(shape)])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_trajectory_rejected(self, value):
        traj = trajectory_from_rows([action()], [action()])
        traj[0, 0, 1] = value
        with pytest.raises(NonFiniteInputError, match="trajectory 0 contains NaN"):
            dataset_loss([traj])


class TestCsvActions:
    CSV = ("x,y,z,qw,qx,qy,qz,open\n"
           "0.1,0.2,0.3,1,0,0,0,1\n"
           "0.4,0.5,0.6,0,1,0,0,0\n")

    def test_reads_rows_skipping_header(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text(self.CSV)
        actions = read_actions_csv(str(path))
        assert actions.shape == (2, 8)
        assert_allclose(actions[0, :3], [0.1, 0.2, 0.3])
        assert actions[1, 7] == 0.0

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3,1,0,0,0,1\n")
        assert len(read_actions_csv(str(path))) == 1

    # with a BOM the first data row failed float() and was dropped as a header
    @pytest.mark.parametrize("header", ["", "x,y,z,qw,qx,qy,qz,open\n"], ids=["rows", "header"])
    def test_utf8_byte_order_mark_keeps_every_row(self, tmp_path, header):
        path = tmp_path / "acts.csv"
        path.write_bytes(("\ufeff" + header + self.CSV.partition("\n")[2]).encode("utf-8"))
        actions = read_actions_csv(str(path))
        assert len(actions) == 2
        assert_allclose(actions[0, :3], [0.1, 0.2, 0.3])

    # a typo in the first data row used to drop it as a header, and the
    # prediction and target rows then fell out of step
    def test_first_row_with_a_number_is_not_a_header(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("0.1,0.2,O.3,1,0,0,0,1\n0.4,0.5,0.6,0,1,0,0,0\n")
        with pytest.raises(FileError, match="row 1 is not numeric") as exc_info:
            read_actions_csv(str(path))
        assert str(path) in str(exc_info.value)

    # float() reads both as numbers (10.0 and 1.0); the depth CSV reader rejects them
    @pytest.mark.parametrize("cell", ["1_0", "\uff11"], ids=["underscore", "full-width"])
    def test_only_ascii_numbers_without_separators(self, tmp_path, cell):
        path = tmp_path / "acts.csv"
        path.write_text(f"{cell},2,3,1,0,0,0,1\n", encoding="utf-8")
        with pytest.raises(FileError, match="row 1 is not numeric"):
            read_actions_csv(str(path))

    # csv.reader unquoted the first and dropped the second as blank
    @pytest.mark.parametrize("row", ['"1",2,3,1,0,0,0,1', ",,,,,,,"], ids=["quoted", "only-commas"])
    def test_every_cell_is_a_bare_number(self, tmp_path, row):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3,1,0,0,0,1\n" + row + "\n")
        with pytest.raises(FileError, match="row 2 is not numeric"):
            read_actions_csv(str(path))

    # as in the depth CSV, a line that starts with "#" is skipped and not
    # counted; a "#" anywhere else is part of its cell
    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("# demo 3\n" + self.CSV + "  # end\n")
        assert read_actions_csv(str(path)).tolist() == [[0.1, 0.2, 0.3, 1, 0, 0, 0, 1],
                                                        [0.4, 0.5, 0.6, 0, 1, 0, 0, 0]]
        path.write_text("# demo 3\n" + self.CSV + "1,2,3,1,0,0,0,1#\n")
        with pytest.raises(FileError, match="row 4 is not numeric"):
            read_actions_csv(str(path))

    def test_reads_in_bounded_memory(self, tmp_path):
        # 4.5 MiB traced for 10k rows (0.6 MiB of values); building a float
        # per cell through csv.reader peaked at 18.3 MiB
        path = tmp_path / "acts.csv"
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, (10_000, 8))
        np.savetxt(path, rows, delimiter=",", fmt="%.17g")
        tracemalloc.start()
        try:
            actions = read_actions_csv(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_array_equal(actions, rows)
        assert peak < 8 * 2**20, peak

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(FileError, match="columns"):
            read_actions_csv(str(path))

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("1,2,3,1,0,0,0,1\nx,y,z,qw,qx,qy,qz,open\n")
        with pytest.raises(FileError, match="not numeric"):
            read_actions_csv(str(path))

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "acts.csv"
        path.write_text("x,y,z,qw,qx,qy,qz,open\n")
        with pytest.raises(FileError, match="no action rows"):
            read_actions_csv(str(path))

    @pytest.mark.parametrize("row", ["1,2,3,1,0,0,0,nan", "1,inf,3,1,0,0,0,1"])
    def test_non_finite_row_names_path_and_row(self, tmp_path, row):
        path = tmp_path / "acts.csv"
        path.write_text("x,y,z,qw,qx,qy,qz,open\n1,2,3,1,0,0,0,1\n" + row + "\n")
        with pytest.raises(FileError, match="row 3 is not finite") as exc_info:
            read_actions_csv(str(path))
        assert str(path) in str(exc_info.value)

    def test_missing_file_names_path(self, tmp_path):
        path = str(tmp_path / "absent.csv")
        with pytest.raises(FileError, match="cannot read") as exc_info:
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

    @pytest.mark.parametrize("pred_row, target_row, message", [
        ("0,0,0,1,0,0,0,1", "0,0,0,1,0,0,0,0.5",
         "target gripper label must be exactly 0 or 1, got 0.5"),
        ("0,0,0,1,0,0,0,1.5", "0,0,0,1,0,0,0,1", "predicted open_prob must lie in [0, 1], got 1.5"),
        ("0,0,0,1,0,0,0,1", "0,0,0,2,0,0,0,1", "target quaternion must be unit norm, |q| = 2.0"),
    ], ids=["target-label", "predicted-open-prob", "target-quaternion"])
    def test_bad_step_from_files_names_the_step(self, tmp_path, pred_row, target_row, message):
        pred_path = tmp_path / "pred.csv"
        target_path = tmp_path / "target.csv"
        pred_path.write_text(pred_row + "\n")
        target_path.write_text(target_row + "\n")
        traj = trajectory_from_rows(read_actions_csv(str(pred_path)),
                                    read_actions_csv(str(target_path)))
        with pytest.raises(InvalidInputError) as exc_info:
            dataset_loss([traj])
        assert str(exc_info.value) == f"trajectory 0, step 0: {message}"

    def test_misaligned_files_rejected(self):
        a = [action()]
        b = [action(), action()]
        with pytest.raises(InvalidInputError,
                           match=re.escape("target rows must have shape (1, 8)")):
            trajectory_from_rows(a, b)
