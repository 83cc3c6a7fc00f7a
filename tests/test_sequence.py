import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egohand.sequence
from egohand.errors import DatasetFormatError, EmptyActionError, StructuralError
from egohand.geometry import (
    JOINT_COUNT,
    CameraIntrinsics,
    HandPose3D,
    absent_pose3d,
    rotate_points_2d,
)
from egohand.sequence import (
    BOX_SLICE,
    FRAME_DIM,
    LABEL_INDEX,
    LEFT_SLICE,
    MASK_GROUPS,
    RIGHT_SLICE,
    SEQ_LEN,
    ActionSequence,
    Dataset,
    FrameRecord,
    ObjectObs,
    SequenceRecord,
    assemble_frame_vector,
    augment_sequence,
    encode_frames,
    export_csv_matrices,
    load_dataset,
    load_encoded,
    load_pose_file,
    save_dataset,
    save_encoded,
    save_pose_file,
    subsample_or_pad,
)

K = CameraIntrinsics(500.0, 500.0, 256.0, 256.0)


def _pose(rng):
    j = np.empty((JOINT_COUNT, 3))
    j[:, :2] = rng.uniform(-150, 150, (JOINT_COUNT, 2))
    j[:, 2] = rng.uniform(300, 700, JOINT_COUNT)
    return HandPose3D(j)


def _obj(rng, label=3):
    c = rng.uniform(100, 400, 2)
    box = np.array([c + [-20, -15], c + [20, -15], c + [20, 15], c + [-20, 15]])
    return ObjectObs(box, label)


class TestAssemble:
    def test_all_zero(self):
        v = assemble_frame_vector(
            absent_pose3d(), absent_pose3d(), ObjectObs(np.zeros((4, 2)), 0), (False, False)
        )
        assert v.shape == (FRAME_DIM,)
        assert np.all(v == 0.0)

    def test_layout_by_index_arithmetic(self):
        rng = np.random.default_rng(0)
        left, right = _pose(rng), _pose(rng)
        left.joints[0] = [1.0, 2.0, 3.0]
        right.joints[0] = [4.0, 5.0, 6.0]
        obj = _obj(rng, label=17)
        v = assemble_frame_vector(left, right, obj, (True, True))
        assert np.array_equal(v[0:3], [1.0, 2.0, 3.0])
        assert np.array_equal(v[63:66], [4.0, 5.0, 6.0])
        assert np.array_equal(v[BOX_SLICE], obj.box.reshape(-1))
        assert v[LABEL_INDEX] == 17.0
        # joint j of the left hand occupies slots 3j..3j+2
        assert np.array_equal(v[LEFT_SLICE].reshape(21, 3), left.joints)
        assert np.array_equal(v[RIGHT_SLICE].reshape(21, 3), right.joints)

    def test_absent_hand_zeroed(self):
        rng = np.random.default_rng(1)
        left, right = _pose(rng), _pose(rng)
        v = assemble_frame_vector(left, right, _obj(rng), (False, True))
        assert np.all(v[LEFT_SLICE] == 0.0)
        assert np.array_equal(v[RIGHT_SLICE].reshape(21, 3), right.joints)


class TestSubsampleOrPad:
    def _frames(self, k, rng=None):
        rng = rng or np.random.default_rng(2)
        return rng.uniform(-1, 1, (k, FRAME_DIM))

    def test_padding(self):
        raw = self._frames(5)
        out, valid = subsample_or_pad(raw, 20)
        assert valid == 5
        assert np.array_equal(out[:5], raw)
        assert np.all(out[5:] == 0.0)

    def test_uniform_indices_formula(self):
        raw = self._frames(40)
        out, valid = subsample_or_pad(raw, 20)
        assert valid == 20
        assert np.array_equal(out, raw[np.arange(0, 40, 2)])

    def test_exact_fit_identity_both_modes(self):
        raw = self._frames(20)
        u, _ = subsample_or_pad(raw, 20)
        r, _ = subsample_or_pad(raw, 20, rng=np.random.default_rng(0))
        assert np.array_equal(u, raw)
        assert np.array_equal(r, raw)

    def test_random_sorted_distinct_and_seed_pure(self):
        raw = self._frames(37)
        out1, _ = subsample_or_pad(raw, 20, rng=np.random.default_rng(5))
        out2, _ = subsample_or_pad(raw, 20, rng=np.random.default_rng(5))
        assert np.array_equal(out1, out2)
        # selected rows must appear in strictly increasing source order
        src = [np.flatnonzero((raw == row).all(axis=1))[0] for row in out1]
        assert all(b > a for a, b in zip(src, src[1:]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyActionError):
            subsample_or_pad(np.zeros((0, FRAME_DIM)), 20)

    def test_uniform_pure_function_of_len_n(self):
        raw = self._frames(33)
        a, _ = subsample_or_pad(raw, 20)
        b, _ = subsample_or_pad(raw, 20)
        assert np.array_equal(a, b)


class _Draws:
    """Stands in for the generator: every uniform draw is 0, so the angle is
    zero and a mask is applied, and the group drawn is ``group``."""

    def __init__(self, group):
        self.group = group

    def uniform(self, *bounds):
        return 0.0

    def integers(self, n):
        return MASK_GROUPS.index(self.group)


class TestAugment:
    def _seq(self, rng, k=20):
        frames = np.zeros((k, FRAME_DIM))
        for i in range(k):
            frames[i] = assemble_frame_vector(_pose(rng), _pose(rng), _obj(rng), (True, True))
        return frames

    def test_identity_config(self):
        rng = np.random.default_rng(3)
        frames = self._seq(rng)
        out = augment_sequence(frames, 0.0, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, frames)

    def test_forced_label_masking(self):
        rng = np.random.default_rng(4)
        frames = self._seq(rng)
        out = augment_sequence(frames, 0.0, 1.0, _Draws("label"))
        assert np.all(out[:, LABEL_INDEX] == 0.0)
        keep = np.ones(FRAME_DIM, dtype=bool)
        keep[LABEL_INDEX] = False
        assert np.array_equal(out[:, keep], frames[:, keep])

    def test_masking_changes_only_chosen_group(self):
        rng = np.random.default_rng(5)
        frames = self._seq(rng)
        for group, sl in (("left", LEFT_SLICE), ("right", RIGHT_SLICE), ("box", BOX_SLICE)):
            out = augment_sequence(frames, 0.0, 1.0, _Draws(group))
            assert np.all(out[:, sl] == 0.0)
            outside = np.ones(FRAME_DIM, dtype=bool)
            outside[sl] = False
            assert np.array_equal(out[:, outside], frames[:, outside])

    def test_rotation_preserves_hand_rigidity(self):
        rng = np.random.default_rng(6)
        frames = self._seq(rng)
        out = augment_sequence(frames, 1.0, 0.0, np.random.default_rng(2))
        assert not np.array_equal(out, frames)
        for i in range(len(frames)):
            for sl in (LEFT_SLICE, RIGHT_SLICE):
                before = frames[i, sl].reshape(21, 3)[:, :2]
                after = out[i, sl].reshape(21, 3)[:, :2]
                d0 = np.linalg.norm(before[:, None] - before[None], axis=2)
                d1 = np.linalg.norm(after[:, None] - after[None], axis=2)
                assert np.max(np.abs(d0 - d1)) < 1e-9

    def test_rotation_leaves_z_and_label(self):
        rng = np.random.default_rng(7)
        frames = self._seq(rng)
        out = augment_sequence(frames, 1.0, 0.0, np.random.default_rng(3))
        z_before = frames[:, LEFT_SLICE].reshape(len(frames), 21, 3)[:, :, 2]
        z_after = out[:, LEFT_SLICE].reshape(len(frames), 21, 3)[:, :, 2]
        assert np.array_equal(z_before, z_after)
        assert np.array_equal(frames[:, LABEL_INDEX], out[:, LABEL_INDEX])

    def test_padding_frames_stay_zero(self):
        rng = np.random.default_rng(8)
        frames = self._seq(rng)
        frames[12:] = 0.0
        out = augment_sequence(frames, 1.0, 0.0, np.random.default_rng(4), valid_count=12)
        assert np.all(out[12:] == 0.0)

    def test_absent_hand_stays_zero_under_rotation(self):
        rng = np.random.default_rng(9)
        frames = self._seq(rng)
        frames[:, LEFT_SLICE] = 0.0
        out = augment_sequence(frames, 1.0, 0.0, np.random.default_rng(5))
        assert np.all(out[:, LEFT_SLICE] == 0.0)


_REF_SLICES = {
    "left": LEFT_SLICE,
    "right": RIGHT_SLICE,
    "box": BOX_SLICE,
    "label": slice(LABEL_INDEX, LABEL_INDEX + 1),
}


def _augment_reference(frames, rotation_range, mask_prob, rng, valid_count=None):
    """augment_sequence written as a walk over (frame, group) pairs, one
    rotate_points_2d call per non-zero group, for comparison."""
    frames = np.asarray(frames, dtype=np.float64).copy()
    nv = frames.shape[0] if valid_count is None else valid_count
    angle = rng.uniform(-rotation_range, rotation_range)
    mask_draw = rng.uniform()
    if angle != 0.0 and nv > 0:
        participating = []
        xs_all, ys_all = [], []
        for i in range(nv):
            for group in ("left", "right", "box"):
                sl = _REF_SLICES[group]
                if not np.any(frames[i, sl]):
                    continue
                step, count = (3, JOINT_COUNT) if group != "box" else (2, 4)
                xi = sl.start + step * np.arange(count)
                participating.append((i, xi, xi + 1))
                xs_all.append(frames[i, xi])
                ys_all.append(frames[i, xi + 1])
        if participating:
            center = (float(np.concatenate(xs_all).mean()), float(np.concatenate(ys_all).mean()))
            for i, xi, yi in participating:
                pts = np.stack([frames[i, xi], frames[i, yi]], axis=1)
                rot = rotate_points_2d(pts, angle, center)
                frames[i, xi] = rot[:, 0]
                frames[i, yi] = rot[:, 1]
    if mask_draw < mask_prob:
        group = MASK_GROUPS[int(rng.integers(len(MASK_GROUPS)))]
        frames[:, _REF_SLICES[group]] = 0.0
    return frames


class TestAugmentMatchesReference:
    # (rotation_range, mask_prob) pairs
    CONFIGS = ((0.5, 0.3), (1.0, 0.5), (0.0, 0.3))

    def _frames(self, rng, k):
        frames = rng.normal(0.0, 100.0, (k, FRAME_DIM))
        for sl in (LEFT_SLICE, RIGHT_SLICE, BOX_SLICE):
            frames[rng.uniform(size=k) < 0.3, sl] = 0.0
        return frames

    def test_byte_identical_with_zeroed_groups_and_every_valid_count(self):
        rng = np.random.default_rng(30)
        for trial in range(24):
            k = int(rng.integers(1, SEQ_LEN + 1))
            frames = self._frames(rng, k)
            for valid in (*range(k + 1), None):
                for cfg in self.CONFIGS:
                    want = _augment_reference(frames, *cfg, np.random.default_rng(trial), valid)
                    got = augment_sequence(frames, *cfg, np.random.default_rng(trial), valid)
                    assert got.tobytes() == want.tobytes(), (trial, valid, cfg)

    def test_byte_identical_when_every_group_is_zero(self):
        frames = np.zeros((SEQ_LEN, FRAME_DIM))
        frames[:, LABEL_INDEX] = 4.0
        for cfg in self.CONFIGS:
            want = _augment_reference(frames, *cfg, np.random.default_rng(1))
            got = augment_sequence(frames, *cfg, np.random.default_rng(1))
            assert got.tobytes() == want.tobytes()

    def test_one_rotate_call_per_rotated_sequence(self, monkeypatch):
        calls = []
        original = egohand.sequence.rotate_points_2d
        monkeypatch.setattr(
            egohand.sequence, "rotate_points_2d", lambda *a: calls.append(1) or original(*a)
        )
        frames = self._frames(np.random.default_rng(31), SEQ_LEN)
        augment_sequence(frames, 1.0, 0.0, np.random.default_rng(0))
        assert len(calls) == 1
        augment_sequence(frames, 0.0, 0.0, np.random.default_rng(0))
        assert len(calls) == 1

    @pytest.mark.parametrize("valid", [-1, 21])
    def test_valid_count_outside_frames_rejected(self, valid):
        frames = np.ones((SEQ_LEN, FRAME_DIM))
        with pytest.raises(StructuralError):
            augment_sequence(frames, 0.5, 0.3, np.random.default_rng(0), valid_count=valid)


def _make_dataset(rng, n_seq=3, space="3d"):
    sequences = []
    fid = 0
    for sid in range(n_seq):
        frames = []
        for _ in range(int(rng.integers(2, 6))):
            frames.append(
                FrameRecord(fid, _pose(rng), _pose(rng), _obj(rng, label=sid % 8), "train")
            )
            fid += 1
        sequences.append(SequenceRecord(sid, frames, sid % 36, "train"))
    return Dataset(intrinsics=K, space=space, sequences=sequences)


class TestDatasetIO:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = _make_dataset(np.random.default_rng(10))
        d1, d2 = tmp_path / "a", tmp_path / "b"
        save_dataset(d1, ds)
        loaded = load_dataset(d1)
        assert loaded.space == "3d"
        assert loaded.intrinsics == K
        save_dataset(d2, loaded)
        assert (d1 / "poses.ndjson").read_bytes() == (d2 / "poses.ndjson").read_bytes()
        assert (d1 / "manifest.csv").read_bytes() == (d2 / "manifest.csv").read_bytes()

    def test_empty_file_empty_dataset(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "poses.ndjson").write_text("")
        loaded = load_dataset(d)
        assert loaded.sequences == []

    def test_wrong_joint_count_is_parse_error_with_line(self, tmp_path):
        ds = _make_dataset(np.random.default_rng(11))
        d = tmp_path / "ds"
        save_dataset(d, ds)
        lines = (d / "poses.ndjson").read_text().splitlines()
        import json

        rec = json.loads(lines[2])
        rec["left"]["joints"] = rec["left"]["joints"][:-1]  # 20 joints
        lines[2] = json.dumps(rec, separators=(",", ":"))
        (d / "poses.ndjson").write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as ei:
            load_dataset(d)
        assert ei.value.line == 3

    def test_unknown_split_rejected(self, tmp_path):
        ds = _make_dataset(np.random.default_rng(12))
        ds.sequences[0].frames[0].split = "holdout"
        d = tmp_path / "ds"
        save_dataset(d, ds)
        with pytest.raises(DatasetFormatError):
            load_dataset(d)

    def test_encode_frames_shape(self):
        ds = _make_dataset(np.random.default_rng(13))
        raw = encode_frames(ds.sequences[0])
        assert raw.shape == (len(ds.sequences[0].frames), FRAME_DIM)


class TestEncodedIO:
    def _encoded(self, rng, n=4):
        seqs = []
        for i in range(n):
            frames, valid = subsample_or_pad(rng.uniform(-1, 1, (int(rng.integers(3, 30)), FRAME_DIM)))
            seqs.append(ActionSequence(frames, valid, i % 36))
        return seqs

    def test_round_trip_bit_identical(self, tmp_path):
        seqs = self._encoded(np.random.default_rng(14))
        p1, p2 = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        save_encoded(p1, seqs)
        loaded = load_encoded(p1)
        assert len(loaded) == len(seqs)
        save_encoded(p2, [s for _, _, s in loaded])
        assert p1.read_bytes() == p2.read_bytes()

    def test_frame_length_check(self, tmp_path):
        seqs = self._encoded(np.random.default_rng(15), n=1)
        p = tmp_path / "bad.ndjson"
        save_encoded(p, seqs)
        import json

        rec = json.loads(p.read_text().splitlines()[0])
        rec["frames"][0] = rec["frames"][0][:-1]  # 134 values
        p.write_text(json.dumps(rec, separators=(",", ":")) + "\n")
        with pytest.raises(DatasetFormatError) as ei:
            load_encoded(p)
        assert ei.value.line == 1
        assert "134" in str(ei.value)

    def test_every_prepared_sequence_is_20x135(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            k = int(rng.integers(1, 60))
            frames, valid = subsample_or_pad(rng.uniform(size=(k, FRAME_DIM)))
            seq = ActionSequence(frames, valid, 0)
            assert seq.frames.shape == (SEQ_LEN, FRAME_DIM)

    def test_csv_export(self, tmp_path):
        seqs = self._encoded(np.random.default_rng(17), n=2)
        export_csv_matrices(tmp_path / "csv", seqs)
        txt = (tmp_path / "csv" / "seq00000.csv").read_text().splitlines()
        assert len(txt) == SEQ_LEN
        assert len(txt[0].split(",")) == FRAME_DIM


def test_action_sequence_validation():
    with pytest.raises(StructuralError):
        ActionSequence(np.zeros((19, FRAME_DIM)), 19, 0)
    with pytest.raises(StructuralError):
        ActionSequence(np.zeros((SEQ_LEN, FRAME_DIM)), 5, 40)


# --- malformed NDJSON: every bad value ends in DatasetFormatError ----------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
_NDJSON_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def _replaced(record, path, value):
    """``record`` with the item at key/index ``path`` replaced by ``value``;
    the empty path replaces the whole record."""
    if not path:
        return value
    record = json.loads(json.dumps(record))
    *parents, last = path
    node = record
    for key in parents:
        node = node[key]
    node[last] = value
    return record


def _load_or_format_error(load, path, line):
    try:
        load(path)
    except DatasetFormatError as e:
        assert e.line == line, str(e)


_POSE_PATHS = [
    (), ("frame_id",), ("left",), ("left", "present"), ("left", "joints"), ("left", "joints", 0),
    ("left", "joints", 0, 1), ("right",), ("obj_box",), ("obj_box", 2), ("obj_box", 2, 0),
    ("obj_label",), ("split",),
]
_HEADER_PATHS = [(), ("intrinsics",), ("intrinsics", "fx"), ("space",)]


@pytest.fixture(scope="module")
def pose_records(tmp_path_factory):
    """(header, frame record, scratch file) of a one-frame 3d pose file."""
    rng = np.random.default_rng(40)
    path = tmp_path_factory.mktemp("ndjson") / "poses.ndjson"
    save_pose_file(path, K, "3d", [FrameRecord(7, _pose(rng), _pose(rng), _obj(rng), "val")])
    header, frame = (json.loads(line) for line in path.read_text().splitlines())
    return header, frame, path


@_NDJSON_SETTINGS
@given(field=st.sampled_from(_POSE_PATHS), value=_JSON_VALUES)
@example(field=(), value=5)
@example(field=(), value=None)
@example(field=("left", "joints", 0), value={})
@example(field=("left", "joints", 0, 1), value={})
@example(field=("obj_box", 2, 0), value=None)
def test_pose_file_frame_values_raise_only_format_error(pose_records, field, value):
    header, frame, path = pose_records
    path.write_text(json.dumps(header) + "\n" + json.dumps(_replaced(frame, field, value)) + "\n")
    _load_or_format_error(load_pose_file, path, 2)


@_NDJSON_SETTINGS
@given(field=st.sampled_from(_HEADER_PATHS), value=_JSON_VALUES)
@example(field=("intrinsics", "fx"), value="fx")
def test_pose_file_header_values_raise_only_format_error(pose_records, field, value):
    header, frame, path = pose_records
    path.write_text(json.dumps(_replaced(header, field, value)) + "\n" + json.dumps(frame) + "\n")
    _load_or_format_error(load_pose_file, path, 1)


_ENCODED_PATHS = [
    (), ("sequence_id",), ("action_label",), ("split",), ("valid_count",), ("frames",),
    ("frames", 3), ("frames", 3, 100),
]


@pytest.fixture(scope="module")
def encoded_record(tmp_path_factory):
    """(record, scratch file) of a one-sequence encoded file."""
    path = tmp_path_factory.mktemp("encoded") / "encoded.ndjson"
    frames, valid = subsample_or_pad(np.random.default_rng(41).uniform(-1, 1, (12, FRAME_DIM)))
    save_encoded(path, [ActionSequence(frames, valid, 5)], ids=[9], splits=["test"])
    return json.loads(path.read_text()), path


@_NDJSON_SETTINGS
@given(field=st.sampled_from(_ENCODED_PATHS), value=_JSON_VALUES)
@example(field=(), value=5)
@example(field=("valid_count",), value=1.5)
@example(field=("action_label",), value="3")
@example(field=("frames", 3, 100), value={})
def test_encoded_values_raise_only_format_error(encoded_record, field, value):
    record, path = encoded_record
    path.write_text(json.dumps(_replaced(record, field, value)) + "\n")
    _load_or_format_error(load_encoded, path, 1)


# values the readers once coerced: a truthy non-boolean "present", numeric
# strings and a null or NaN frame value
@pytest.mark.parametrize(
    "part, field, value",
    [
        ("frame", ("left", "present"), "no"),
        ("frame", ("right", "present"), [0]),
        ("frame", ("left", "joints", 0, 1), "1.5"),
        ("frame", ("obj_box", 2, 0), "1.5"),
        ("header", ("intrinsics", "fx"), "500"),
        ("encoded", ("frames", 3, 100), None),
        ("encoded", ("frames", 3, 100), float("nan")),
    ],
    ids=["present-string", "present-list", "joint-string", "box-string", "intrinsic-string",
         "frame-null", "frame-nan"],
)
def test_coerced_value_rejected_with_line(pose_records, encoded_record, part, field, value):
    header, frame, path = pose_records
    if part == "encoded":
        record, path = encoded_record
        load, line, lines = load_encoded, 1, [_replaced(record, field, value)]
    elif part == "header":
        load, line, lines = load_pose_file, 1, [_replaced(header, field, value), frame]
    else:
        load, line, lines = load_pose_file, 2, [header, _replaced(frame, field, value)]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with pytest.raises(DatasetFormatError) as ei:
        load(path)
    assert ei.value.line == line
