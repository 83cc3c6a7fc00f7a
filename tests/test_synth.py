import json

import numpy as np
import pytest

from egohand.errors import RangeError, StructuralError
from egohand.geometry import JOINT_COUNT, JOINT_PARENTS, project_to_image
from egohand.rangeseg import SegMask, normalize_depth, range_mask, range_mask_metric
from egohand.sequence import load_dataset
from egohand.synth import (
    SynthParams,
    class_template,
    gen_frame,
    gen_hand_sequence,
    gen_scene_depth,
    gen_scene_depth_metric,
    generate_dataset,
    mask_quality,
    noisy_pose_oracle,
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
        from egohand.geometry import absent_pose3d

        pseudo, gt = gen_scene_depth(absent_pose3d(), absent_pose3d(), P)
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
        from egohand.geometry import absent_pose3d

        out = noisy_pose_oracle(absent_pose3d(), 0.5, P, np.random.default_rng(6))
        assert not out.present and np.all(out.joints == 0.0)

    def test_fraction_range_checked(self):
        left, _, _ = gen_frame(0, np.random.default_rng(7), P)
        with pytest.raises(RangeError):
            noisy_pose_oracle(left, 1.5, P, np.random.default_rng(8))


class TestMaskQuality:
    def test_perfect_mask(self):
        gt = SegMask(np.pad(np.ones((4, 4)), 2).astype(float))
        assert mask_quality(gt, gt) == (0.0, 0.0)

    def test_no_mask_keeps_all_background(self):
        gt = SegMask(np.pad(np.ones((4, 4)), 2).astype(float))
        full = SegMask(np.ones_like(gt.values))
        assert mask_quality(full, gt) == (1.0, 0.0)

    def test_empty_mask_loses_all_arm(self):
        gt = SegMask(np.pad(np.ones((4, 4)), 2).astype(float))
        none = SegMask(np.zeros_like(gt.values))
        assert mask_quality(none, gt) == (0.0, 1.0)

    def test_soft_weights(self):
        gt = SegMask(np.array([[1.0, 0.0]]))
        soft = SegMask(np.array([[0.75, 0.25]]), binary=False)
        bg_kept, arm_lost = mask_quality(soft, gt)
        assert abs(bg_kept - 0.25) < 1e-12
        assert abs(arm_lost - 0.25) < 1e-12


class TestParams:
    def test_band_separation_enforced(self):
        with pytest.raises(StructuralError):
            SynthParams(arm_band=(0.3, 0.9), background_band=(0.05, 0.35))

    @pytest.mark.parametrize("field, value", [
        ("image_size", 0), ("image_size", -5), ("fx", 0.0), ("fy", -1.0), ("fx", np.inf), ("fy", np.nan),
        ("noise_sigma0", -1.0), ("noise_clutter_gain", -1e-9), ("noise_loss_gain", -120.0),
    ])
    def test_impossible_values_rejected(self, field, value):
        with pytest.raises(RangeError, match=field):
            SynthParams(**{field: value})

    def test_zero_noise_allowed(self):
        SynthParams(noise_sigma0=0.0, noise_clutter_gain=0.0, noise_loss_gain=0.0)

    def test_json_round_trip(self):
        p = SynthParams(arm_band=(0.485, 0.99), background_band=(0.05, 0.455), noise_sigma0=4.0)
        assert SynthParams.from_dict(json.loads(json.dumps(p.to_dict()))) == p

    def test_default_midpoint(self):
        assert abs(P.band_midpoint - 0.475) < 1e-12


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
