import json
from dataclasses import asdict

import numpy as np
import pytest

from egohand import _kernels, experiments, model
from egohand.errors import DatasetFormatError, DegenerateDepthError, RangeError, StructuralError
from egohand.geometry import JOINT_COUNT, JOINT_PARENTS, HandPose, absent_pose, project_to_image
from egohand.model import ActionModelConfig
from egohand.rangeseg import SegMask, desharpen_mask, normalize_depth, range_mask, range_mask_metric
from egohand.sequence import FRAME_DIM, ObjectObs, load_dataset
from egohand.synth import (
    DEFAULT_BONES,
    SynthParams,
    _draw_jitter,
    _hand_capsules,
    _hand_local,
    arm_depth_buffer,
    class_template,
    gen_frame,
    gen_hand_sequence,
    gen_scene_depth,
    gen_scene_depth_metric,
    generate_dataset,
    keyed_rng,
    mask_quality,
    noisy_pose_oracle,
    render_schematic_frame,
    sequence_seed,
    write_fixture_tree,
)

P = SynthParams()


def _bone_lengths(joints):
    out = np.empty(JOINT_COUNT - 1)
    for j in range(1, JOINT_COUNT):
        out[j - 1] = np.linalg.norm(joints[j] - joints[JOINT_PARENTS[j]])
    return out


class TestHandSequences:
    def test_same_seed_identical(self):
        a, _ = gen_hand_sequence(4, np.random.default_rng(11), P)
        b, _ = gen_hand_sequence(4, np.random.default_rng(11), P)
        for (la, ra, oa), (lb, rb, ob) in zip(a, b):
            assert np.array_equal(la.joints, lb.joints)
            assert np.array_equal(ra.joints, rb.joints)
            assert np.array_equal(oa.box, ob.box)

    def test_bone_lengths_constant_across_frames(self):
        for c in (0, 9, 22):
            frames, _ = gen_hand_sequence(c, np.random.default_rng(c), P)
            for side in (0, 1):
                poses = [f[side] for f in frames if f[side].present]
                if not poses:
                    continue
                ref = _bone_lengths(poses[0].joints)
                for pose in poses[1:]:
                    assert np.max(np.abs(_bone_lengths(pose.joints) - ref)) < 1e-9

    def test_projections_inside_image(self):
        for c in range(36):
            frames, _ = gen_hand_sequence(c, np.random.default_rng(100 + c), P)
            for left, right, _ in frames:
                for pose in (left, right):
                    if pose.present:
                        uv = project_to_image(pose, P.intrinsics).joints[:, :2]
                        assert uv.min() >= 0.0 and uv.max() < P.image_size

    def test_length_distribution_spans_padding_and_subsampling(self):
        lengths = [gen_hand_sequence(c % 36, np.random.default_rng(c), P)[1] for c in range(40)]
        assert min(lengths) < 20 < max(lengths)
        assert all(P.frames_range[0] <= n <= P.frames_range[1] for n in lengths)

    def test_single_hand_classes_exist(self):
        presence = [(class_template(c).left_present, class_template(c).right_present) for c in range(36)]
        assert any(not l for l, _ in presence)
        assert any(not r for _, r in presence)
        assert sum(l and r for l, r in presence) > 24

    def test_object_labels_cycle_eight(self):
        labels = {class_template(c).object_label for c in range(36)}
        assert labels == set(range(8))


class TestSceneDepth:
    def _scene(self, c=0, seed=0):
        left, right, _ = gen_frame(c, np.random.default_rng(seed), P)
        return left, right

    def test_band_midpoint_threshold_reproduces_gt(self):
        for seed in range(5):
            left, right = self._scene(seed % 36, seed)
            pseudo, gt = gen_scene_depth(left, right, P)
            mask = range_mask(normalize_depth(pseudo), P.band_midpoint)
            assert np.array_equal(mask.values, gt.values)

    def test_no_hands_is_pure_background(self):
        from egohand.geometry import absent_pose

        pseudo, gt = gen_scene_depth(absent_pose(), absent_pose(), P)
        assert np.all(gt.values == 0.0)
        b_lo, b_hi = P.background_band
        assert pseudo.values.min() >= b_lo and pseudo.values.max() <= b_hi

    def test_max_is_band_top_then_one_after_normalize(self):
        left, right = self._scene(3, 3)
        pseudo, _ = gen_scene_depth(left, right, P)
        assert pseudo.values.max() == P.arm_band[1] < 1.0
        assert normalize_depth(pseudo).values.max() == 1.0

    def test_arm_values_inside_band(self):
        left, right = self._scene(5, 5)
        pseudo, gt = gen_scene_depth(left, right, P)
        arm = gt.values == 1.0
        assert pseudo.values[arm].min() >= P.arm_band[0]
        assert pseudo.values[arm].max() <= P.arm_band[1]
        assert pseudo.values[~arm].max() <= P.background_band[1]

    def test_metric_map_700mm_matches_gt_and_normalized_path(self):
        for seed in range(3):
            left, right = self._scene(seed, seed + 50)
            metric, gt = gen_scene_depth_metric(left, right, P)
            mask_mm = range_mask_metric(metric, 700.0)
            assert np.array_equal(mask_mm.values, gt.values)
            # zero-free map: metric path == normalize-then-threshold path
            via_norm = range_mask(normalize_depth(metric), 700.0 / metric.values.max())
            assert np.array_equal(mask_mm.values, via_norm.values)


def _hand_local_loop(bones, scale, curl, mirror):
    """_hand_local as a joint-by-joint walk, as it was built before the (5, 4) segment table."""
    splay = (-1.05, -0.30, 0.0, 0.28, 0.60)
    joints = np.zeros((JOINT_COUNT, 3))
    for f, finger in enumerate(("thumb", "index", "middle", "ring", "pinky")):
        lengths = bones[finger]
        dx, dy = np.sin(splay[f]), -np.cos(splay[f])
        pos = joints[0].copy()
        for k in range(4):
            pitch = curl * k * (0.35 if finger == "thumb" else 1.0)
            direction = np.array([dx * np.cos(pitch), dy * np.cos(pitch), np.sin(pitch)])
            pos = pos + direction * (lengths[k] * scale)
            joints[1 + 4 * f + k] = pos
    if mirror:
        joints[:, 0] *= -1.0
    return joints


def _hand_capsules_loop(pose, k):
    """_hand_capsules as a per-segment loop with its own pinhole formula, as before the capsule table."""
    j = pose.joints
    uvz = np.empty_like(j)
    uvz[:, 0] = k.fx * j[:, 0] / j[:, 2] + k.cx
    uvz[:, 1] = k.fy * j[:, 1] / j[:, 2] + k.cy
    uvz[:, 2] = j[:, 2]
    segs = []
    for i in range(1, JOINT_COUNT):
        parent = JOINT_PARENTS[i]
        r_mm = (15.0, 10.0, 8.0, 7.0)[(i - 1) % 4]
        z_mid = 0.5 * (uvz[parent, 2] + uvz[i, 2])
        segs.append((*uvz[parent], *uvz[i], r_mm * k.fx / z_mid))
    end = j[0] + (j[0] - j[9]) * 2.2
    eu = k.fx * end[0] / end[2] + k.cx
    ev = k.fy * end[1] / end[2] + k.cy
    z_mid = 0.5 * (uvz[0, 2] + end[2])
    segs.append((*uvz[0], eu, ev, end[2], 26.0 * k.fx / z_mid))
    return np.asarray(segs, dtype=np.float64)


def _arm_depth_buffer_loop(left, right, p):
    segs = [_hand_capsules_loop(pose, p.intrinsics) for pose in (left, right) if pose.present]
    if not segs:
        return np.full((p.image_size, p.image_size), np.inf)
    return _kernels.capsule_zfield(p.image_size, p.image_size, np.ascontiguousarray(np.concatenate(segs)))


_LONG_BONES = {finger: [1.3 * b + 1.0 for b in lengths] for finger, lengths in DEFAULT_BONES.items()}
_INT_BONES = {finger: [int(b) + 3 for b in lengths] for finger, lengths in DEFAULT_BONES.items()}
_SMALL = SynthParams(image_size=96, fx=90.0, fy=110.0, cx=48.0, cy=45.0, bone_scale=0.45, bones=_LONG_BONES)


class TestSkeletonBytes:
    """The table-built skeleton and capsules give the loop builders' bytes."""

    # -0.0 and a negative curl make a first step of -0.0, which the walk from the wrist turns into +0.0
    CURLS = [0.0, -0.0, -0.2, *np.linspace(0.05, 1.1, 43), 0.37, 0.71]

    @pytest.mark.parametrize("bones, scale", [
        (P.bones, P.bone_scale), (_LONG_BONES, 1.25), (_INT_BONES, 1), (P.bones, 0.6000000000000001),
    ])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_hand_local(self, bones, scale, mirror):
        for curl in self.CURLS:
            got = _hand_local(bones, scale, curl, mirror)
            assert got.tobytes() == _hand_local_loop(bones, scale, curl, mirror).tobytes(), curl

    @pytest.mark.parametrize("p", [P, _SMALL], ids=["default", "small"])
    def test_capsules_and_depth_buffer_over_generated_frames(self, p):
        rng = np.random.default_rng(41)
        hands = 0
        for i in range(72):
            left, right, _ = gen_frame(i % 36, rng, p)
            for pose in (left, right):
                if pose.present:
                    assert _hand_capsules(pose, p.intrinsics).tobytes() == _hand_capsules_loop(
                        pose, p.intrinsics).tobytes()
                    hands += 1
            if p is _SMALL or i % 9 == 0:
                assert arm_depth_buffer(left, right, p).tobytes() == _arm_depth_buffer_loop(left, right, p).tobytes()
        assert hands == 2 * 72 - 16  # the 8 single-hand classes come up twice each

    @pytest.mark.parametrize("bones, scale", [(P.bones, P.bone_scale), (_LONG_BONES, 1.25)])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_hand_local_over_a_curl_vector(self, bones, scale, mirror):
        got = _hand_local(bones, scale, np.array(self.CURLS), mirror)
        want = np.stack([_hand_local(bones, scale, curl, mirror) for curl in self.CURLS])
        assert got.shape == (len(self.CURLS), JOINT_COUNT, 3)
        assert got.tobytes() == want.tobytes()

    def test_depth_buffer_with_absent_hands(self):
        left, right, _ = gen_frame(0, np.random.default_rng(2), _SMALL)
        for pair in ((left, absent_pose()), (absent_pose(), right), (absent_pose(), absent_pose())):
            assert arm_depth_buffer(*pair, _SMALL).tobytes() == _arm_depth_buffer_loop(*pair, _SMALL).tobytes()
        assert np.all(np.isinf(arm_depth_buffer(absent_pose(), absent_pose(), _SMALL)))


def _place_hand_loop(local, yaw, center):
    """_place_hand for one hand at one yaw, as it was before the frame axis."""
    c, s = np.cos(yaw), np.sin(yaw)
    out = local.copy()
    out[:, 0] = c * local[:, 0] - s * local[:, 1]
    out[:, 1] = s * local[:, 0] + c * local[:, 1]
    return out + center


def _frame_at_loop(tpl, jit, tau, p):
    """One ground-truth frame evaluated on its own, as before the per-sequence evaluator."""
    f = tpl.freqs
    ph = tpl.phases + jit.phase_offset

    def osc(i):
        return np.sin(2.0 * np.pi * f[i] * tau + ph[i])

    offset = jit.amp_scale * np.array([tpl.amp_xy * osc(0), tpl.amp_xy * osc(1), tpl.amp_z * osc(2)])
    yaw = tpl.yaw0 + 0.30 * osc(3)
    curl = np.clip(tpl.curl0 + jit.curl_offset + 0.15 * osc(4), 0.05, 1.1)
    hands = []
    for present, base, mirror, sgn in (
        (tpl.left_present, tpl.base_left, True, 1.0),
        (tpl.right_present, tpl.base_right, False, -1.0),
    ):
        if not present:
            hands.append(absent_pose())
            continue
        center = base + jit.center_offset + offset * np.array([sgn, 1.0, sgn])
        local = _hand_local(p.bones, p.bone_scale, curl, mirror)
        hands.append(HandPose(_place_hand_loop(local, sgn * yaw, center)))
    left, right = hands
    k = p.intrinsics
    wrists_uv = [project_to_image(pose, k).joints[0, :2] for pose in (left, right) if pose.present]
    bc = np.mean(np.asarray(wrists_uv), axis=0) if wrists_uv else np.array([p.cx, p.cy])
    bc = bc + 18.0 * np.array([osc(3), osc(4)])
    bw, bh = tpl.box_size
    margin = 2.0
    bc[0] = np.clip(bc[0], bw / 2 + margin, p.image_size - bw / 2 - margin)
    bc[1] = np.clip(bc[1], bh / 2 + margin, p.image_size - bh / 2 - margin)
    corners = np.array([
        [bc[0] - bw / 2, bc[1] - bh / 2],
        [bc[0] + bw / 2, bc[1] - bh / 2],
        [bc[0] + bw / 2, bc[1] + bh / 2],
        [bc[0] - bw / 2, bc[1] + bh / 2],
    ])
    return left, right, ObjectObs(corners, tpl.object_label)


def _gen_hand_sequence_loop(class_id, rng, p):
    tpl, jit = class_template(class_id), _draw_jitter(rng)
    length = int(rng.integers(p.frames_range[0], p.frames_range[1] + 1))
    tau0 = rng.uniform(0.0, 0.3)
    return [_frame_at_loop(tpl, jit, tau0 + i / max(length - 1, 1), p) for i in range(length)], length


def _gen_frame_loop(class_id, rng, p):
    tpl, jit = class_template(class_id), _draw_jitter(rng)
    return _frame_at_loop(tpl, jit, rng.uniform(0.0, 1.0), p)


def _frame_bytes(frame):
    left, right, obj = frame
    return (left.present, left.joints.tobytes(), right.present, right.joints.tobytes(), obj.label, obj.box.tobytes())


# lengths 1 to 6: a one-frame sequence puts its only frame at tau0
_LONG = SynthParams(bones=_LONG_BONES, bone_scale=0.8, frames_range=(1, 6))


class TestMotionBytes:
    """Motion evaluated once per sequence gives the per-frame evaluator's bytes."""

    PARAMS = pytest.mark.parametrize("p", [P, _SMALL, _LONG], ids=["default", "small", "long-bones"])

    @PARAMS
    def test_gen_hand_sequence(self, p):
        lengths = set()
        for seed in (0, 1, 29):
            for c in range(36):
                got, n = gen_hand_sequence(c, np.random.default_rng([seed, c]), p)
                want, m = _gen_hand_sequence_loop(c, np.random.default_rng([seed, c]), p)
                assert n == m == len(got)
                assert list(map(_frame_bytes, got)) == list(map(_frame_bytes, want)), (seed, c)
                lengths.add(n)
        if p is _LONG:
            assert lengths == set(range(1, 7))

    @PARAMS
    def test_gen_frame(self, p):
        for seed in range(4):
            for c in range(36):
                got = gen_frame(c, np.random.default_rng([seed, c]), p)
                want = _gen_frame_loop(c, np.random.default_rng([seed, c]), p)
                assert _frame_bytes(got) == _frame_bytes(want), (seed, c)

    @pytest.mark.parametrize("p, seed", [(P, 5), (_LONG, 12)], ids=["default", "long-bones"])
    def test_generate_dataset(self, p, seed):
        ds = generate_dataset(p, classes=36, per_class=2, master_seed=seed)
        assert [s.sequence_id for s in ds.sequences] == list(range(72))
        for seq in ds.sequences:
            rng = np.random.default_rng(sequence_seed(seed, seq.sequence_id))
            want, _ = _gen_hand_sequence_loop(seq.action_label, rng, p)
            got = [(fr.left, fr.right, fr.obj) for fr in seq.frames]
            assert list(map(_frame_bytes, got)) == list(map(_frame_bytes, want)), seq.sequence_id

    @pytest.mark.parametrize("c", [0, 4, 7])  # both hands, no left hand, no right hand
    def test_frames_share_no_memory(self, c):
        frames, _ = gen_hand_sequence(c, np.random.default_rng(3), P)
        arrays = [a for left, right, obj in frames for a in (left.joints, right.joints, obj.box)]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_non_positive_depth_keeps_the_frame_error(self):
        # a negative bone scale flips the fingers through the camera plane;
        # SynthParams rejects one, so it is set past the constructor's check
        p = SynthParams()
        p.bone_scale = -40.0
        with pytest.raises(DegenerateDepthError) as want:
            _gen_frame_loop(0, np.random.default_rng(1), p)
        with pytest.raises(DegenerateDepthError) as got:
            gen_frame(0, np.random.default_rng(1), p)
        assert str(got.value) == str(want.value)
        with pytest.raises(DegenerateDepthError):
            gen_hand_sequence(0, np.random.default_rng(1), p)


def _schematic_loop(gt_mask):
    """render_schematic_frame as it painted before the palette lookup."""
    h, w = gt_mask.values.shape
    frame = np.empty((h, w, 3), dtype=np.uint8)
    frame[...] = (38, 44, 54)
    frame[gt_mask.values] = (201, 178, 153)
    return frame


def test_schematic_frame_bytes():
    rng = np.random.default_rng(8)
    masks = [gen_scene_depth(*gen_frame(c, rng, _SMALL)[:2], _SMALL)[1] for c in (0, 4, 7)]
    masks += [SegMask(rng.random((5, 9)) < 0.5), SegMask(np.zeros((3, 4), bool)), SegMask(np.ones((4, 3), bool))]
    for mask in masks:
        got = render_schematic_frame(mask)
        assert got.dtype == np.uint8 and got.flags.c_contiguous
        assert got.tobytes() == _schematic_loop(mask).tobytes()


class TestNoisyOracle:
    def test_zero_sigma_exact(self):
        params = SynthParams(noise_sigma0=0.0)
        left, _, _ = gen_frame(0, np.random.default_rng(0), params)
        out = noisy_pose_oracle(left, 0.0, params, np.random.default_rng(1))
        assert np.array_equal(out.joints, left.joints)

    def test_chi_mean_within_two_percent(self):
        # E||N(0, s^2 I_3)|| = s*sqrt(8/pi); 10k joints
        params = SynthParams(noise_sigma0=10.0, noise_clutter_gain=0.0)
        left, _, _ = gen_frame(1, np.random.default_rng(2), params)
        rng = np.random.default_rng(3)
        dists = []
        for _ in range(10000 // JOINT_COUNT + 1):
            noisy = noisy_pose_oracle(left, 0.5, params, rng)
            dists.extend(np.linalg.norm(noisy.joints - left.joints, axis=1))
        expect = 10.0 * np.sqrt(8.0 / np.pi)
        assert abs(np.mean(dists) - expect) / expect < 0.02

    def test_monotone_in_clutter_fraction(self):
        params = SynthParams(noise_sigma0=5.0, noise_clutter_gain=40.0)
        left, _, _ = gen_frame(2, np.random.default_rng(4), params)
        means, ses = [], []
        for i, frac in enumerate((0.0, 0.3, 0.8)):
            rng = np.random.default_rng(5)  # paired draws isolate sigma
            d = []
            for _ in range(500):
                noisy = noisy_pose_oracle(left, frac, params, rng)
                d.extend(np.linalg.norm(noisy.joints - left.joints, axis=1))
            means.append(np.mean(d))
            ses.append(np.std(d) / np.sqrt(len(d)))
        assert means[0] + 3 * ses[0] < means[1]
        assert means[1] + 3 * ses[1] < means[2]

    def test_absent_stays_absent(self):
        from egohand.geometry import absent_pose

        out = noisy_pose_oracle(absent_pose(), 0.5, P, np.random.default_rng(6))
        assert not out.present and np.all(out.joints == 0.0)

    def test_fraction_range_checked(self):
        left, _, _ = gen_frame(0, np.random.default_rng(7), P)
        with pytest.raises(RangeError):
            noisy_pose_oracle(left, 1.5, P, np.random.default_rng(8))


class TestMaskQuality:
    def test_perfect_mask(self):
        gt = SegMask(np.pad(np.ones((4, 4), bool), 2))
        assert mask_quality(gt, gt) == (0.0, 0.0)

    def test_no_mask_keeps_all_background(self):
        gt = SegMask(np.pad(np.ones((4, 4), bool), 2))
        full = SegMask(np.ones_like(gt.values))
        assert mask_quality(full, gt) == (1.0, 0.0)

    def test_empty_mask_loses_all_arm(self):
        gt = SegMask(np.pad(np.ones((4, 4), bool), 2))
        none = SegMask(np.zeros_like(gt.values))
        assert mask_quality(none, gt) == (0.0, 1.0)

    def test_soft_weights(self):
        gt = SegMask(np.array([[True, False]]))
        soft = SegMask(np.array([[0.75, 0.25]]))
        bg_kept, arm_lost = mask_quality(soft, gt)
        assert abs(bg_kept - 0.25) < 1e-12
        assert abs(arm_lost - 0.25) < 1e-12

    def test_soft_ground_truth_rejected(self):
        gt = SegMask(np.array([[1.0, 0.0]]))
        with pytest.raises(StructuralError, match="must be binary"):
            mask_quality(SegMask(np.array([[1.0, 1.0]])), gt)

    def test_equals_float64_formula(self):
        rng = np.random.default_rng(18)
        shape = (40, 56)
        gts = [rng.uniform(size=shape) < 0.2, np.ones(shape, bool), np.zeros(shape, bool)]
        for gt_map in gts:
            gt = SegMask(gt_map)
            for _ in range(4):
                mask = SegMask(rng.uniform(size=shape) < rng.uniform())
                for m in (mask, desharpen_mask(mask, 3)):
                    assert mask_quality(m, gt) == _mask_quality_float64(m.values, gt_map)

    def test_bytes_on_a_scene_at_the_sweep_thresholds(self):
        """Counted binary qualities and summed blurred ones keep the float64 formula's bytes."""
        params = SynthParams(arm_band=(0.485, 0.99), background_band=(0.05, 0.455))
        left, right, _ = gen_frame(5, np.random.default_rng(2), params)
        pseudo, gt = gen_scene_depth(left, right, params)
        norm = normalize_depth(pseudo)
        shape = gt.values.shape
        assert shape == (512, 512) and 0 < np.count_nonzero(gt.values) < gt.values.size
        masks = [range_mask(norm, t) for t in (0.35, 0.39, 0.43, 0.47, 0.51)]
        masks += [SegMask(np.ones(shape, bool)), SegMask(np.zeros(shape, bool))]
        gts = [gt.values, np.ones(shape, bool), np.zeros(shape, bool)]  # n_bg = 0, n_arm = 0
        as_bytes = lambda pair: tuple(np.float64(v).tobytes() for v in pair)
        for gt_map in gts:
            for mask in masks:
                for m in (mask, desharpen_mask(mask, 2)):
                    got = mask_quality(m, SegMask(gt_map))
                    assert all(type(v) is float for v in got)
                    assert as_bytes(got) == as_bytes(_mask_quality_float64(m.values, gt_map))


def _mask_quality_float64(weights, gt_map):
    """mask_quality over float64 maps, as it was computed before masks were bool."""
    weights, gt_values = np.asarray(weights, np.float64), gt_map.astype(np.float64)
    bg = gt_values == 0.0
    arm = ~bg
    n_bg = int(bg.sum())
    n_arm = int(arm.sum())
    bg_kept = float(weights[bg].sum() / n_bg) if n_bg else 0.0
    arm_lost = float((1.0 - weights[arm]).sum() / n_arm) if n_arm else 0.0
    return bg_kept, arm_lost


class TestParams:
    def test_band_separation_enforced(self):
        with pytest.raises(StructuralError):
            SynthParams(arm_band=(0.3, 0.9), background_band=(0.05, 0.35))

    @pytest.mark.parametrize("field, value", [
        ("image_size", 0), ("image_size", -5), ("fx", 0.0), ("fy", -1.0), ("fx", np.inf), ("fy", np.nan),
        ("noise_sigma0", -1.0), ("noise_clutter_gain", -1e-9), ("noise_loss_gain", -120.0),
        ("bone_scale", np.nan), ("bone_scale", 0.0), ("bone_scale", -0.5), ("bone_scale", np.inf),
        ("infer_damping", np.nan), ("infer_damping", -0.5), ("infer_damping", 1.0000001),
        ("frames_range", (0, -3)), ("frames_range", (0, 0)), ("frames_range", (5, 4)),
    ])
    def test_impossible_values_rejected(self, field, value):
        with pytest.raises(RangeError, match=field):
            SynthParams(**{field: value})

    @pytest.mark.parametrize("length", [np.nan, 0.0, -1.0])
    def test_impossible_bone_length_rejected(self, length):
        bones = {k: list(v) for k, v in DEFAULT_BONES.items()}
        bones["ring"][2] = length
        with pytest.raises(StructuralError, match=r"bones\['ring'\]"):
            SynthParams(bones=bones)

    def test_boundary_values_accepted(self):
        SynthParams(infer_damping=0.0, frames_range=(1, 1), bone_scale=1e-9)
        SynthParams(infer_damping=1.0)

    def test_zero_noise_allowed(self):
        SynthParams(noise_sigma0=0.0, noise_clutter_gain=0.0, noise_loss_gain=0.0)

    def test_json_round_trip(self):
        for p in (
            P,
            SynthParams(arm_band=(0.485, 0.99), background_band=(0.05, 0.455), noise_sigma0=4.0),
            SynthParams(background_mm_band=(700.0, 3000.0), frames_range=(1, 6), bones=_LONG_BONES),
        ):
            assert SynthParams.from_dict(json.loads(json.dumps(asdict(p)))) == p

    @pytest.mark.parametrize("value", [{"0": 0.55, "1": 0.95}, "0.55,0.95"], ids=["object", "string"])
    @pytest.mark.parametrize("key", ["arm_band", "frames_range"])
    def test_tuple_field_not_a_list_is_malformed(self, key, value):
        d = json.loads(json.dumps(asdict(P)))
        d[key] = value
        with pytest.raises(DatasetFormatError, match=f"malformed params field '{key}'"):
            SynthParams.from_dict(d)

    def test_default_midpoint(self):
        assert abs(P.band_midpoint - 0.475) < 1e-12

    @pytest.mark.parametrize("field", ["cx", "cy"])
    def test_non_finite_principal_point_rejected(self, field):
        with pytest.raises(StructuralError, match="principal point must be finite"):
            SynthParams(**{field: np.nan})


def _reference_stream(seed, *key):
    """Reference: a seeded stream built without keyed_rng."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


class TestKeyedRng:
    @pytest.mark.parametrize("key", [(0,), (1, 0), (1, 37), (2, 5), (3, 11), (3, 2, 11)])
    def test_same_draws_as_the_in_place_construction(self, key):
        for seed in (0, 3, 2**40):
            assert keyed_rng(seed, *key).random(64).tobytes() == _reference_stream(seed, *key).random(64).tobytes()

    def test_negative_seed_is_named(self):
        with pytest.raises(RangeError, match=r"^seed must be >= 0, got -1$"):
            keyed_rng(-1, 0)
        with pytest.raises(RangeError, match=r"^seed must be >= 0, got -2$"):
            sequence_seed(-2, 0)

    @staticmethod
    def _spy(monkeypatch, module):
        keys = []
        real = module.keyed_rng
        monkeypatch.setattr(module, "keyed_rng", lambda seed, *key: keys.append((seed, key)) or real(seed, *key))
        return keys

    def test_model_init_and_epochs_use_domains_0_and_1(self, monkeypatch):
        cfg = ActionModelConfig(d_model=8, heads=2, ff_width=16, n_classes=2, seed=6, batch_size=4)
        keys = self._spy(monkeypatch, model)
        net = model.ActionModel(cfg)
        rng = _reference_stream(6, 0)
        for name, shape in net._param_shapes().items():
            leaf = name.rsplit(".", 1)[-1]
            want = np.ones(shape) if leaf == "g" else np.zeros(shape) if leaf.startswith("b") else rng.normal(
                0.0, 0.02, size=shape)
            assert net.params.values[name].tobytes() == want.tobytes(), name
        data = [(np.full((5, FRAME_DIM), float(i % 2)), i % 2) for i in range(6)]
        model.train(data, data, cfg, model=net, start_epoch=1, epochs=3)
        assert keys == [(6, (0,)), (6, (1, 1)), (6, (1, 2))]

    def test_scenes_and_noise_use_domains_2_and_3(self, monkeypatch):
        keys = self._spy(monkeypatch, experiments)
        scenes = experiments.make_eval_scenes(P, 4, 3)
        assert keys == [(4, (2, i)) for i in range(3)]
        for i, scene in enumerate(scenes):
            left, right, _ = gen_frame(i, _reference_stream(4, 2, i), P)
            assert scene.left.joints.tobytes() == left.joints.tobytes()
            assert scene.right.joints.tobytes() == right.joints.tobytes()
        keys.clear()
        experiments.sweep_threshold(P, [0.4, 0.5], "train", 9, scenes)
        assert keys == [(9, (3, ti, si)) for ti in range(2) for si in range(3)]
        keys.clear()
        experiments.sweep_threshold(P, [0.4, 0.5], "infer", 9, scenes)
        experiments.ablation_masking(P, [1], scenes)
        assert keys == [(9, (3, si)) for si in range(3)] * 2 + [(1, (3, si)) for si in range(3)] * 2


class TestDatasetGeneration:
    def test_split_counts_70_15_15(self):
        ds = generate_dataset(P, classes=3, per_class=20, master_seed=5)
        by_split = {"train": 0, "val": 0, "test": 0}
        for seq in ds.sequences:
            by_split[seq.split] += 1
        assert by_split == {"train": 3 * 14, "val": 3 * 3, "test": 3 * 3}

    def test_sequence_seed_derivation(self):
        assert sequence_seed(12, 5) == 12 ^ 5

    def test_nearest_centroid_baseline_above_80(self):
        # classifiability oracle: mean frame vector + nearest class centroid
        from egohand.sequence import encode_frames

        ds = generate_dataset(P, classes=36, per_class=6, master_seed=9)
        feats, labels, splits = [], [], []
        for seq in ds.sequences:
            raw = encode_frames(seq)
            feats.append(raw.mean(axis=0))
            labels.append(seq.action_label)
            splits.append(seq.split)
        feats = np.asarray(feats)
        labels = np.asarray(labels)
        splits = np.asarray(splits)
        centroids = np.stack(
            [feats[(labels == c) & (splits == "train")].mean(axis=0) for c in range(36)]
        )
        held = splits != "train"
        d = np.linalg.norm(feats[held][:, None] - centroids[None], axis=2)
        acc = float((d.argmin(axis=1) == labels[held]).mean())
        assert acc > 0.80, f"nearest-centroid accuracy {acc}"

    def test_fixture_tree_loadable(self, tmp_path):
        out = tmp_path / "tree"
        write_fixture_tree(out, P, classes=4, per_class=3, master_seed=1, scene_frames=2)
        ds = load_dataset(out)
        assert len(ds.sequences) == 12
        assert ds.space == "3d"
        assert (out / "params.json").is_file()
        scenes = sorted((out / "scenes").iterdir())
        names = {p.name for p in scenes}
        assert "000000.dmap" in names and "000000.gtmask.dmap" in names
        assert "000000.mm.dmap" in names and "000000.ppm" in names
