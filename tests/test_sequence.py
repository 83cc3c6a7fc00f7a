import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import egohand.sequence
from egohand.errors import DataConsistencyError, DatasetFormatError, EmptyActionError, StructuralError
from egohand.geometry import (
    JOINT_COUNT,
    CameraIntrinsics,
    HandPose,
    absent_pose,
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
    Dataset,
    FrameRecord,
    ObjectObs,
    SequenceRecord,
    assemble_frame_vector,
    augment_sequence,
    encode_frames,
    export_csv_matrices,
    load_dataset,
    load_pose_file,
    save_dataset,
    save_pose_file,
    subsample_or_pad,
)

K = CameraIntrinsics(500.0, 500.0, 256.0, 256.0)


def _pose(rng):
    j = np.empty((JOINT_COUNT, 3))
    j[:, :2] = rng.uniform(-150, 150, (JOINT_COUNT, 2))
    j[:, 2] = rng.uniform(300, 700, JOINT_COUNT)
    return HandPose(j)


def _obj(rng, label=3):
    c = rng.uniform(100, 400, 2)
    box = np.array([c + [-20, -15], c + [20, -15], c + [20, 15], c + [-20, 15]])
    return ObjectObs(box, label)


class TestAssemble:
    def test_all_zero(self):
        v = assemble_frame_vector(absent_pose(), absent_pose(), ObjectObs(np.zeros((4, 2)), 0))
        assert v.shape == (FRAME_DIM,)
        assert np.all(v == 0.0)

    def test_layout_by_index_arithmetic(self):
        rng = np.random.default_rng(0)
        left, right = _pose(rng), _pose(rng)
        left.joints[0] = [1.0, 2.0, 3.0]
        right.joints[0] = [4.0, 5.0, 6.0]
        obj = _obj(rng, label=17)
        v = assemble_frame_vector(left, right, obj)
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
        left.present = False  # flagged absent, its joints non-zero
        v = assemble_frame_vector(left, right, _obj(rng))
        assert np.all(v[LEFT_SLICE] == 0.0)
        assert np.array_equal(v[RIGHT_SLICE].reshape(21, 3), right.joints)


class TestSubsampleOrPad:
    def _frames(self, k, rng=None):
        rng = rng or np.random.default_rng(2)
        return rng.uniform(-1, 1, (k, FRAME_DIM))

    def test_padding(self):
        raw = self._frames(5)
        out = subsample_or_pad(raw, 20)
        assert np.array_equal(out[:5], raw)
        assert np.all(out[5:] == 0.0)

    def test_uniform_indices_formula(self):
        raw = self._frames(40)
        out = subsample_or_pad(raw, 20)
        assert np.array_equal(out, raw[np.arange(0, 40, 2)])

    def test_exact_fit_identity_both_modes(self):
        raw = self._frames(20)
        u = subsample_or_pad(raw, 20)
        r = subsample_or_pad(raw, 20, rng=np.random.default_rng(0))
        assert np.array_equal(u, raw)
        assert np.array_equal(r, raw)

    def test_random_sorted_distinct_and_seed_pure(self):
        raw = self._frames(37)
        out1 = subsample_or_pad(raw, 20, rng=np.random.default_rng(5))
        out2 = subsample_or_pad(raw, 20, rng=np.random.default_rng(5))
        assert np.array_equal(out1, out2)
        # selected rows must appear in strictly increasing source order
        src = [np.flatnonzero((raw == row).all(axis=1))[0] for row in out1]
        assert all(b > a for a, b in zip(src, src[1:]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyActionError):
            subsample_or_pad(np.zeros((0, FRAME_DIM)), 20)

    def test_uniform_pure_function_of_len_n(self):
        raw = self._frames(33)
        a = subsample_or_pad(raw, 20)
        b = subsample_or_pad(raw, 20)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [5, 20, 37])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_result_owns_its_memory(self, k, seeded):
        raw = self._frames(k)
        before = raw.copy()
        out = subsample_or_pad(raw, 20, rng=np.random.default_rng(1) if seeded else None)
        assert not np.shares_memory(out, raw)
        out[:] = 7.0
        assert np.array_equal(raw, before)


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
            frames[i] = assemble_frame_vector(_pose(rng), _pose(rng), _obj(rng))
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
        out = augment_sequence(frames, 1.0, 0.0, np.random.default_rng(4))
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
        # padding rows are all zero, so the zero-group rule alone keeps them out
        rng = np.random.default_rng(30)
        for trial in range(24):
            k = int(rng.integers(1, SEQ_LEN + 1))
            frames = self._frames(rng, k)
            for valid in range(k + 1):
                padded = frames.copy()
                padded[valid:] = 0.0
                for cfg in self.CONFIGS:
                    want = _augment_reference(padded, *cfg, np.random.default_rng(trial), valid)
                    got = augment_sequence(padded, *cfg, np.random.default_rng(trial))
                    assert got.tobytes() == want.tobytes(), (trial, valid, cfg)

    def test_byte_identical_on_prepared_sequences(self):
        # the training loop's input: subsample_or_pad with the epoch's generator
        rng = np.random.default_rng(32)
        for k in range(1, 2 * SEQ_LEN + 1):
            raw = self._frames(rng, k)
            for cfg in self.CONFIGS:
                want_rng, got_rng = np.random.default_rng(k), np.random.default_rng(k)
                prepared = subsample_or_pad(raw, rng=want_rng)
                want = _augment_reference(prepared, *cfg, want_rng, min(k, SEQ_LEN))
                got = augment_sequence(subsample_or_pad(raw, rng=got_rng), *cfg, got_rng)
                assert got.tobytes() == want.tobytes(), (k, cfg)

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

    @pytest.mark.parametrize("n_seq", [0, 1, 3, 12])
    def test_manifest_bytes_match_hand_built_lines(self, tmp_path, n_seq):
        # reference: the manifest built line by line
        ds = _make_dataset(np.random.default_rng(14), n_seq=n_seq)
        lines = ["sequence_id,frame_start,frame_end,action_label,split"]
        for seq in ds.sequences:
            start, end = seq.frames[0].frame_id, seq.frames[-1].frame_id + 1
            lines.append(f"{seq.sequence_id},{start},{end},{seq.action_label},{seq.split}")
        save_dataset(tmp_path, ds)
        assert (tmp_path / "manifest.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("before_header, line", [(0, 5), (1, 1)], ids=["blank-rows", "blank-first-line"])
    def test_manifest_error_names_the_line_of_the_file(self, tmp_path, before_header, line):
        # two blank lines ahead of a row with an empty range; a blank first line is a missing header
        ds = _make_dataset(np.random.default_rng(15), n_seq=2)
        save_dataset(tmp_path, ds)
        header, first, second = (tmp_path / "manifest.csv").read_text().splitlines()
        empty = ",".join([*second.split(",")[:2], second.split(",")[1], *second.split(",")[3:]])
        text = "\n" * before_header + "\n".join([header, first, "", " ", empty]) + "\n"
        (tmp_path / "manifest.csv").write_text(text)
        with pytest.raises(DatasetFormatError) as ei:
            load_dataset(tmp_path)
        assert ei.value.line == line

    def test_empty_pose_file_is_missing_header_at_line_1(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "poses.ndjson").write_text("")
        path = re.escape(str(d / "poses.ndjson"))
        with pytest.raises(DatasetFormatError, match=f"^{path}: line 1: missing header line$") as ei:
            load_pose_file(d / "poses.ndjson")
        assert ei.value.line == 1
        with pytest.raises(DatasetFormatError, match="missing header line"):
            load_dataset(d)  # before the manifest, which is absent

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
    def test_every_prepared_sequence_is_20x135(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            k = int(rng.integers(1, 60))
            raw = rng.uniform(0.5, 1.0, size=(k, FRAME_DIM))
            frames = subsample_or_pad(raw)
            assert frames.shape == (SEQ_LEN, FRAME_DIM)
            # every source row is non-zero, so the rows past min(k, 20) are the padding
            assert np.all(frames[: min(k, SEQ_LEN)] > 0.0)
            assert np.all(frames[min(k, SEQ_LEN) :] == 0.0)

    def test_csv_export(self, tmp_path):
        frames = subsample_or_pad(np.random.default_rng(17).uniform(-1, 1, (12, FRAME_DIM)))
        export_csv_matrices(tmp_path / "csv", [(3, "train", 0, 12, frames)])
        txt = (tmp_path / "csv" / "seq00003.csv").read_text().splitlines()
        assert len(txt) == SEQ_LEN
        assert len(txt[0].split(",")) == FRAME_DIM


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


def _load_or_format_error(path, line):
    try:
        load_pose_file(path)
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
    _load_or_format_error(path, 2)


@_NDJSON_SETTINGS
@given(field=st.sampled_from(_HEADER_PATHS), value=_JSON_VALUES)
@example(field=("intrinsics", "fx"), value="fx")
def test_pose_file_header_values_raise_only_format_error(pose_records, field, value):
    header, frame, path = pose_records
    path.write_text(json.dumps(_replaced(header, field, value)) + "\n" + json.dumps(frame) + "\n")
    _load_or_format_error(path, 1)


# values the pose reader once coerced or accepted: a truthy non-boolean
# "present", numeric strings, an infinite focal length and the "2d" pose space
@pytest.mark.parametrize(
    "part, field, value",
    [
        ("frame", ("left", "present"), "no"),
        ("frame", ("right", "present"), [0]),
        ("frame", ("left", "joints", 0, 1), "1.5"),
        ("frame", ("obj_box", 2, 0), "1.5"),
        ("header", ("intrinsics", "fx"), "500"),
        ("header", ("intrinsics", "fx"), float("inf")),
        ("header", ("space",), "2d"),
    ],
    ids=["present-string", "present-list", "joint-string", "box-string", "intrinsic-string", "intrinsic-infinity",
         "space-2d"],
)
def test_coerced_value_rejected_with_line(pose_records, part, field, value):
    header, frame, path = pose_records
    if part == "header":
        line, lines = 1, [_replaced(header, field, value), frame]
    else:
        line, lines = 2, [header, _replaced(frame, field, value)]
    path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    with pytest.raises(DatasetFormatError) as ei:
        load_pose_file(path)
    assert ei.value.line == line


@pytest.mark.parametrize("line", [1, 3], ids=["header", "frame"])
def test_integer_past_the_digit_limit_is_format_error_with_line(tmp_path, line):
    path = tmp_path / "poses.ndjson"
    rng = np.random.default_rng(43)
    save_pose_file(path, K, "3d", [FrameRecord(i, _pose(rng), _pose(rng), _obj(rng), "val") for i in (7, 8)])
    lines = path.read_text().splitlines()
    key = '"fx":' if line == 1 else '"frame_id":'
    lines[line - 1] = re.sub(key + "[0-9.]+", key + "1" * 5000, lines[line - 1], count=1)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match="Exceeds the limit") as ei:
        load_pose_file(path)
    assert ei.value.line == line


# --- the pose reader against a reference with every frame check spelled out -


def _ref_numbers(rows):
    return set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}


def _ref_pose_from_json(obj, line):
    if not isinstance(obj, dict) or "present" not in obj or "joints" not in obj:
        raise DatasetFormatError("hand", line)
    joints = obj["joints"]
    if not isinstance(joints, list) or len(joints) != JOINT_COUNT:
        raise DatasetFormatError("joint count", line)
    for row in joints:
        if not isinstance(row, list) or len(row) != 3:
            raise DatasetFormatError("joint width", line)
    if not _ref_numbers(joints) or type(obj["present"]) is not bool:
        raise DatasetFormatError("joint values", line)
    try:
        return HandPose(np.asarray(joints, dtype=np.float64), present=obj["present"])
    except _REF_BAD_VALUE as e:
        raise DatasetFormatError("joints", line) from e


_REF_BAD_VALUE = (TypeError, ValueError, OverflowError, StructuralError)


def _ref_load_pose_file(path):
    """Reference reader: load_pose_file with every shape, sign and type
    check written out in the frame loop (messages shortened)."""
    header, *lines = path.read_text().splitlines()
    k, space = egohand.sequence._parse_header(header)
    frames, last_id = [], None
    for ln, raw in enumerate(lines, start=2):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as e:
            raise DatasetFormatError("json", ln) from e
        if not isinstance(obj, dict):
            raise DatasetFormatError("object", ln)
        for key in ("frame_id", "left", "right", "obj_box", "obj_label", "split"):
            if key not in obj:
                raise DatasetFormatError("missing", ln)
        if obj["split"] not in ("train", "val", "test"):
            raise DatasetFormatError("split", ln)
        if type(obj["frame_id"]) is not int or type(obj["obj_label"]) is not int:
            raise DatasetFormatError("int", ln)
        box = obj["obj_box"]
        if not isinstance(box, list) or len(box) != 4 or any(not isinstance(c, list) or len(c) != 2 for c in box):
            raise DatasetFormatError("box shape", ln)
        if not _ref_numbers(box) or obj["obj_label"] < 0:
            raise DatasetFormatError("box values", ln)
        fid = obj["frame_id"]
        if last_id is not None and fid <= last_id:
            raise DatasetFormatError("order", ln)
        last_id = fid
        try:
            obs = ObjectObs(np.asarray(box, dtype=np.float64), obj["obj_label"])
        except _REF_BAD_VALUE as e:
            raise DatasetFormatError("box", ln) from e
        left, right = _ref_pose_from_json(obj["left"], ln), _ref_pose_from_json(obj["right"], ln)
        frames.append(FrameRecord(fid, left, right, obs, obj["split"]))
    return k, space, frames


def _reader_outcome(load, path):
    """What ``load`` makes of ``path``: the error class and line, or every
    parsed value as bytes."""
    try:
        k, space, frames = load(path)
    except Exception as e:  # the class is what is compared
        return type(e), getattr(e, "line", None)
    return k, space, [
        (fr.frame_id, fr.split, fr.obj.label, fr.obj.box.tobytes(),
         *((pose.present, pose.joints.tobytes()) for pose in (fr.left, fr.right)))
        for fr in frames
    ]


_CORPUS_VALUES = (
    None, True, False, 0, -1, 2.5, 10**400, float("nan"), float("inf"), "x", "1.5", "", [], [1.0], [[]], {},
    {"a": 1}, [None], [True], ["1"],
)


def _items(record):
    """(path, value) of every item nested in ``record``, the record itself
    first; of a hand's 21 joints, only the first and the last."""
    found = [((), record)]
    if isinstance(record, (dict, list)):
        pairs = record.items() if isinstance(record, dict) else enumerate(record)
        if len(record) == JOINT_COUNT:
            pairs = [(0, record[0]), (JOINT_COUNT - 1, record[-1])]
        for key, value in pairs:
            found += [((key, *path), inner) for path, inner in _items(value)]
    return found


def _reader_corpus(header, first, second):
    """(name, file text) of a two-frame pose file with one header or
    second-frame item replaced, or one list cut short or lengthened."""
    cases = []
    for part, record in (("header", header), ("frame", second)):
        for path, value in _items(record):
            cases += [((part, path, repr(v)), _replaced(record, path, v)) for v in _CORPUS_VALUES]
            if isinstance(value, list):
                cases += [((part, path, "short"), _replaced(record, path, value[:-1])),
                          ((part, path, "long"), _replaced(record, path, value + value[-1:]))]
    cases += [(("frame", "frame_id", v), _replaced(second, ("frame_id",), v)) for v in (first["frame_id"], 0)]
    texts = []
    for name, record in cases:
        lines = (record, first, second) if name[0] == "header" else (header, first, record)
        texts.append((name, "".join(json.dumps(obj) + "\n" for obj in lines)))
    return texts


def test_pose_reader_matches_reference_checks_on_mutation_corpus(tmp_path):
    rng = np.random.default_rng(41)
    path = tmp_path / "poses.ndjson"
    frames = [FrameRecord(7, _pose(rng), _pose(rng), _obj(rng), "val"),
              FrameRecord(8, _pose(rng), absent_pose(), _obj(rng, label=0), "test")]
    save_pose_file(path, K, "3d", frames)
    header, first, second = (json.loads(line) for line in path.read_text().splitlines())
    corpus = _reader_corpus(header, first, second)
    assert len(corpus) > 900
    accepted = 0
    for name, text in corpus:
        path.write_text(text)
        want = _reader_outcome(_ref_load_pose_file, path)
        assert _reader_outcome(load_pose_file, path) == want, name
        accepted += isinstance(want[0], CameraIntrinsics)
    assert 0 < accepted < len(corpus)


# --- malformed manifest: only the documented errors escape -----------------

# random text, or text drawn from the characters a manifest is made of
_TEXT_SPLICES = {
    "at": st.floats(0.0, 1.0),
    "drop": st.integers(0, 8) | st.integers(0, 200),
    "junk": st.text(max_size=12) | st.text(alphabet="0123456789+-_, \n\rtrainvlesd", max_size=12),
}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """(directory, manifest text) of a valid three-sequence dataset."""
    d = tmp_path_factory.mktemp("manifest") / "ds"
    save_dataset(d, _make_dataset(np.random.default_rng(42)))
    return d, (d / "manifest.csv").read_text()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(**_TEXT_SPLICES)
def test_manifest_splices_raise_only_format_or_consistency_error(dataset_dir, at, drop, junk):
    """A malformed manifest is a format error; a well-formed one naming frames
    the pose file lacks, or under another split, is a consistency error."""
    d, valid = dataset_dir
    i = int(at * len(valid))
    (d / "manifest.csv").write_text(valid[:i] + junk + valid[i + drop:])
    try:
        load_dataset(d)
    except (DatasetFormatError, DataConsistencyError):
        pass
