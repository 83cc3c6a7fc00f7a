import numpy as np
import pytest

from egohand.errors import (
    DataConsistencyError,
    DegenerateDepthError,
    EmptyDatasetError,
    StructuralError,
)
from egohand.geometry import (
    JOINT_COUNT,
    CameraIntrinsics,
    HandPose,
    absent_pose,
    lift_to_camera,
    mpjpe,
    mpjpe_report,
    project_points,
    project_to_image,
    rotate_points_2d,
)

K = CameraIntrinsics(fx=500.0, fy=480.0, cx=256.0, cy=250.0)


def _pose25(joints):
    return HandPose(np.asarray(joints, dtype=float))


def _random_pose3(rng):
    j = np.empty((JOINT_COUNT, 3))
    j[:, :2] = rng.uniform(-200, 200, (JOINT_COUNT, 2))
    j[:, 2] = rng.uniform(200, 900, JOINT_COUNT)
    return HandPose(j)


class TestIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(StructuralError):
            CameraIntrinsics(0.0, 500.0, 10.0, 10.0)
        with pytest.raises(StructuralError):
            CameraIntrinsics(500.0, -1.0, 10.0, 10.0)

    @pytest.mark.parametrize("fx, fy", [(np.inf, 500.0), (500.0, np.inf), (np.nan, 500.0)])
    def test_rejects_nonfinite_focal(self, fx, fy):
        with pytest.raises(StructuralError, match="finite and positive"):
            CameraIntrinsics(fx, fy, 256.0, 256.0)

    def test_rejects_nonfinite_principal_point(self):
        with pytest.raises(StructuralError):
            CameraIntrinsics(500.0, 500.0, np.nan, 10.0)


class TestLiftProject:
    def test_principal_point_ray(self):
        p = _pose25(np.tile([K.cx, K.cy, 500.0], (JOINT_COUNT, 1)))
        out = lift_to_camera(p, K)
        assert np.allclose(out.joints, np.tile([0.0, 0.0, 500.0], (JOINT_COUNT, 1)))

    def test_hand_evaluated_pinhole(self):
        # X = (u - cx) * z / fx = 100 * 400 / 500 = 80
        k = CameraIntrinsics(500.0, 500.0, 256.0, 256.0)
        p = _pose25(np.tile([k.cx + 100.0, k.cy, 400.0], (JOINT_COUNT, 1)))
        out = lift_to_camera(p, k)
        assert np.allclose(out.joints[0], [80.0, 0.0, 400.0])

    def test_project_on_axis(self):
        p = HandPose(np.tile([0.0, 0.0, 500.0], (JOINT_COUNT, 1)))
        out = project_to_image(p, K)
        assert np.allclose(out.joints[0], [K.cx, K.cy, 500.0])

    def test_project_hand_evaluated(self):
        k = CameraIntrinsics(500.0, 500.0, 256.0, 256.0)
        p = HandPose(np.tile([80.0, 0.0, 400.0], (JOINT_COUNT, 1)))
        out = project_to_image(p, k)
        assert np.allclose(out.joints[0], [k.cx + 100.0, k.cy, 400.0])

    def test_round_trip_100_random_joints(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p25 = _pose25(
                np.column_stack(
                    [
                        rng.uniform(0, 512, JOINT_COUNT),
                        rng.uniform(0, 512, JOINT_COUNT),
                        rng.uniform(100, 2000, JOINT_COUNT),
                    ]
                )
            )
            back = project_to_image(lift_to_camera(p25, K), K)
            assert np.max(np.abs(back.joints - p25.joints)) < 1e-9

    def test_degenerate_depth_names_joint(self):
        j = np.tile([100.0, 100.0, 500.0], (JOINT_COUNT, 1))
        j[5, 2] = -3.0
        with pytest.raises(DegenerateDepthError) as ei:
            lift_to_camera(_pose25(j), K)
        assert ei.value.joint_index == 5
        j[5, 2] = 0.0
        with pytest.raises(DegenerateDepthError):
            project_to_image(HandPose(j), K)

    def test_present_flag_preserved(self):
        p = _pose25(np.tile([10.0, 10.0, 500.0], (JOINT_COUNT, 1)))
        p.present = False
        assert lift_to_camera(p, K).present is False


class TestProjectPoints:
    def test_equals_project_to_image(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            pose = _random_pose3(rng)
            assert project_points(pose.joints, K).tobytes() == project_to_image(pose, K).joints.tobytes()

    def test_any_row_count_by_the_pinhole_formula(self):
        rng = np.random.default_rng(9)
        for n in (1, 22, 300):
            pts = np.column_stack([rng.uniform(-300, 300, (n, 2)), rng.uniform(1e-3, 3000, n)])
            expect = np.column_stack([
                K.fx * pts[:, 0] / pts[:, 2] + K.cx, K.fy * pts[:, 1] / pts[:, 2] + K.cy, pts[:, 2],
            ])
            assert project_points(pts, K).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("bad_rows, z", [((0,), 0.0), ((7, 3), -2.5), ((21, 22), -0.0), ((4,), -1e-300)])
    def test_degenerate_depth_names_first_bad_row(self, bad_rows, z):
        pts = np.tile([40.0, -25.0, 600.0], (23, 1))
        pts[list(bad_rows), 2] = z
        with pytest.raises(DegenerateDepthError) as ei:
            project_points(pts, K)
        assert ei.value.joint_index == min(bad_rows)
        assert ei.value.z == z


class TestMpjpe:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        a = _random_pose3(rng)
        assert mpjpe(a, a) == 0.0

    def test_constant_offset_345(self):
        a = _random_pose3(np.random.default_rng(1))
        b = HandPose(a.joints + np.array([3.0, 0.0, 4.0]))
        assert mpjpe(a, b) == 5.0
        assert mpjpe(b, a) == 5.0

    def test_against_per_joint_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = _random_pose3(rng), _random_pose3(rng)
            total = 0.0
            for j in range(JOINT_COUNT):
                d = a.joints[j] - b.joints[j]
                total += (d[0] ** 2 + d[1] ** 2 + d[2] ** 2) ** 0.5
            assert abs(mpjpe(a, b) - total / JOINT_COUNT) < 1e-12

    def test_translation_gives_norm(self):
        rng = np.random.default_rng(3)
        a = _random_pose3(rng)
        d = rng.uniform(-50, 50, 3)
        assert abs(mpjpe(a, HandPose(a.joints + d)) - np.linalg.norm(d)) < 1e-9

    def test_invariant_under_common_rotation(self):
        rng = np.random.default_rng(4)
        a, b = _random_pose3(rng), _random_pose3(rng)
        theta = 0.83
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        before = mpjpe(a, b)
        after = mpjpe(HandPose(a.joints @ rot.T), HandPose(b.joints @ rot.T))
        assert abs(before - after) < 1e-9


class TestMpjpeReport:
    def test_zero_error(self):
        rng = np.random.default_rng(5)
        a, b = _random_pose3(rng), _random_pose3(rng)
        assert mpjpe_report([(a, b)], [(a, b)]) == (0.0, 0.0, 0.0)

    def test_hand_computed_means(self):
        rng = np.random.default_rng(6)
        gl, gr = _random_pose3(rng), _random_pose3(rng)
        pl = HandPose(gl.joints + np.array([10.0, 0.0, 0.0]))
        pr = HandPose(gr.joints + np.array([0.0, 20.0, 0.0]))
        left, right, both = mpjpe_report([(pl, pr)], [(gl, gr)])
        assert abs(left - 10.0) < 1e-12
        assert abs(right - 20.0) < 1e-12
        assert abs(both - 15.0) < 1e-12

    def test_reference_hand_weighted_mean(self):
        # reported column structure: both is the mean of the two hand columns
        assert abs((30.31 + 27.02) / 2 - 28.66) < 0.01

    def test_absent_hands_excluded(self):
        rng = np.random.default_rng(7)
        gl, gr = _random_pose3(rng), _random_pose3(rng)
        pl = HandPose(gl.joints + np.array([10.0, 0.0, 0.0]))
        pairs_pred = [(pl, absent_pose()), (pl, HandPose(gr.joints + np.array([0.0, 0.0, 5.0])))]
        pairs_gt = [(gl, absent_pose()), (gl, gr)]
        left, right, both = mpjpe_report(pairs_pred, pairs_gt)
        assert abs(left - 10.0) < 1e-12
        assert abs(right - 5.0) < 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            mpjpe_report([], [])

    def test_presence_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        a = _random_pose3(rng)
        with pytest.raises(DataConsistencyError):
            mpjpe_report([(a, absent_pose())], [(a, a)])

    def test_no_present_column_rejected(self):
        rng = np.random.default_rng(9)
        a = _random_pose3(rng)
        with pytest.raises(EmptyDatasetError):
            mpjpe_report([(a, absent_pose())], [(a, absent_pose())])


class TestRotatePose2D:
    def test_angle_zero_is_identity(self):
        pts = np.random.default_rng(0).uniform(-10, 10, (JOINT_COUNT, 2))
        assert np.allclose(rotate_points_2d(pts, 0.0), pts)

    def test_pi_symmetry(self):
        out = rotate_points_2d(np.array([[1.0, 0.0]]), np.pi, center=(0.0, 0.0))
        assert np.max(np.abs(out - [[-1.0, 0.0]])) < 1e-12

    def test_pairwise_distances_preserved(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            pts = rng.uniform(-100, 100, (8, 2))
            angle = rng.uniform(-np.pi, np.pi)
            center = rng.uniform(-50, 50, 2)
            out = rotate_points_2d(pts, angle, center)
            d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            d_out = np.linalg.norm(out[:, None] - out[None, :], axis=2)
            assert np.max(np.abs(d_in - d_out)) < 1e-9

    def test_composition(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-5, 5, (6, 2))
        a, b = 0.7, -1.2
        center = (3.0, -2.0)
        once = rotate_points_2d(rotate_points_2d(pts, a, center), b, center)
        both = rotate_points_2d(pts, a + b, center)
        assert np.max(np.abs(once - both)) < 1e-9
