import dataclasses
import json
import os

import numpy as np
import pytest

from memvo.geometry import (Pose6DoF, integrate_relative, matrix_to_euler, pose_compose,
                            pose_inverse)
from memvo.synthetic import (KINDS, SyntheticSpec, _motion, _texture,
                             generate_dataset, generate_sequence)


def relative_poses(seq):
    """Pose6DoF of each frame in the previous frame's coordinates."""
    rels = [pose_compose(pose_inverse(a), b) for a, b in zip(seq.poses[:-1], seq.poses[1:])]
    return [Pose6DoF(m[:3, 3], matrix_to_euler(m[:3, :3])) for m in rels]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(frames=1)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="zoom")
        with pytest.raises(ValueError):
            SyntheticSpec(noise=-0.1)

    @pytest.mark.parametrize("name", ["noise", "max_shift", "max_yaw"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_knob_rejected(self, name, value):
        # noise=nan once gave the frames of noise=0, and inf gave non-finite frames
        with pytest.raises(ValueError, match="^%s must be finite" % name):
            SyntheticSpec(**{name: value})

    def test_json_round_trip(self, tmp_path):
        spec = SyntheticSpec(frames=5, height=32, width=48, kind="rotate",
                             max_yaw=0.1, seed=4)
        path = str(tmp_path / "spec.json")
        spec.to_json(path)
        assert SyntheticSpec.from_json(path) == spec

    def test_unknown_field_rejected(self, tmp_path):
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            fh.write('{"frames": 5, "lens_flare": 1}')
        with pytest.raises(ValueError, match="lens_flare"):
            SyntheticSpec.from_json(path)

    @pytest.mark.parametrize("raw, why", [
        ({"frames": "11"}, "frames must be int"),
        ({"seed": "x"}, "seed must be int"),
        ({"noise": True}, "noise must be float"),
        ({"kind": 1}, "kind must be str"),
        ({"frames": 1}, "need at least 2 frames"),
        ({"kind": "zoom"}, "kind must be one of"),
        ("spec", "must be a JSON object"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_bad_values_name_the_file(self, tmp_path, raw, why):
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(ValueError) as err:
            SyntheticSpec.from_json(path)
        assert str(err.value).startswith(path + ": ") and why in str(err.value)

    @pytest.mark.parametrize("raw", [{"height": 0}, {"width": -3}])
    def test_bad_size_names_the_file(self, tmp_path, raw):
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(ValueError) as err:
            SyntheticSpec.from_json(path)
        assert str(err.value) == path + ": height and width must be at least 1"

    def test_fields_cannot_be_assigned(self):
        spec = SyntheticSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 3
        assert spec.seed == 0

    def test_non_finite_value_is_not_written(self, tmp_path):
        path = str(tmp_path / "spec.json")
        spec = SyntheticSpec()
        object.__setattr__(spec, "max_shift", float("nan"))  # the constructor refuses it
        with pytest.raises(ValueError, match="not JSON compliant"):
            spec.to_json(path)
        assert not os.path.exists(path)

    def test_int_accepted_for_float(self, tmp_path):
        path = str(tmp_path / "spec.json")
        with open(path, "w") as fh:
            json.dump({"max_shift": 2, "max_yaw": 0}, fh)
        spec = SyntheticSpec.from_json(path)
        assert spec.max_shift == 2.0 and spec.max_yaw == 0.0


class TestGenerate:
    def test_shapes_and_range(self):
        seq = generate_sequence(SyntheticSpec(frames=4, height=24, width=40, seed=0))
        assert seq.frames.shape == (4, 3, 24, 40)
        assert len(seq.poses) == 4
        assert np.all(np.isfinite(seq.frames))
        assert np.all(seq.frames >= 0.0) and np.all(seq.frames <= 1.0)

    def test_deterministic(self):
        spec = SyntheticSpec(frames=3, height=16, width=16, seed=9)
        a, b = generate_sequence(spec), generate_sequence(spec)
        assert np.array_equal(a.frames, b.frames)
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa, pb)

    def test_seed_changes_content(self):
        base = dict(frames=3, height=16, width=16)
        a = generate_sequence(SyntheticSpec(seed=1, **base))
        b = generate_sequence(SyntheticSpec(seed=2, **base))
        assert not np.array_equal(a.frames, b.frames)

    def test_first_pose_identity_motion_planar(self):
        seq = generate_sequence(SyntheticSpec(frames=6, height=16, width=16, seed=5))
        assert np.array_equal(seq.poses[0], np.eye(4))
        for pose in seq.poses:
            assert pose[2, 3] == 0.0  # no z motion
            phi = matrix_to_euler(pose[:3, :3])
            assert phi[0] == 0.0 and phi[1] == 0.0  # yaw only

    def test_translate_kind_keeps_rotation_identity(self):
        seq = generate_sequence(SyntheticSpec(frames=5, height=16, width=16,
                                              kind="translate", seed=6))
        for pose in seq.poses:
            assert np.array_equal(pose[:3, :3], np.eye(3))
        rels = relative_poses(seq)
        mags = [np.linalg.norm(r.p) for r in rels]
        # constant per-frame step, bounded by the spec
        assert max(mags) - min(mags) < 1e-12
        assert 0.3 * 1.5 - 1e-9 <= mags[0] <= 1.5 + 1e-9

    def test_rotate_kind_keeps_position_fixed(self):
        spec = SyntheticSpec(frames=5, height=16, width=16, kind="rotate",
                             max_yaw=0.1, seed=7)
        seq = generate_sequence(spec)
        for pose in seq.poses:
            assert np.all(pose[:3, 3] == 0.0)
        yaws = [r.phi[2] for r in relative_poses(seq)]
        assert max(yaws) - min(yaws) < 1e-12
        assert 0.03 - 1e-9 <= abs(yaws[0]) <= 0.1 + 1e-9

    def test_relatives_integrate_back(self):
        seq = generate_sequence(SyntheticSpec(frames=8, height=16, width=16, seed=8))
        chain = integrate_relative(relative_poses(seq))
        for got, want in zip(chain, seq.poses):
            assert np.max(np.abs(got - want)) < 1e-9

    def test_noise_perturbs_frames_not_poses(self):
        base = dict(frames=3, height=16, width=16, seed=10)
        clean = generate_sequence(SyntheticSpec(**base))
        noisy = generate_sequence(SyntheticSpec(noise=0.01, **base))
        assert not np.array_equal(clean.frames, noisy.frames)
        for pa, pb in zip(clean.poses, noisy.poses):
            assert np.array_equal(pa, pb)

    def test_frames_sampled_exactly_under_pose_warp(self):
        # image formation must agree with the reported pose: pixel grid pushed
        # through the camera-to-world matrix, envelope and texture evaluated
        # there, no interpolation anywhere
        spec = SyntheticSpec(frames=3, height=16, width=16, kind="mixed", seed=11)
        seq = generate_sequence(spec)
        rng = np.random.default_rng(11)
        textures = [_texture(rng) for _ in range(3)]
        _motion(rng, spec)  # consume the same rng draws
        rows = np.arange(16) - 7.5
        cols = np.arange(16) - 7.5
        py, px = np.meshgrid(rows, cols, indexing="ij")
        grid = np.stack([px.ravel(), py.ravel(), np.zeros(px.size)])
        pose = seq.poses[2]
        world = pose[:3, :3] @ grid + pose[:3, 3:4]
        wx, wy = world[0].reshape(16, 16), world[1].reshape(16, 16)
        envelope = np.exp(-(wx * wx + wy * wy) / (2.0 * 8.0 * 8.0))
        for ch in range(3):
            expect = envelope * textures[ch](wx, wy)
            assert np.max(np.abs(expect - seq.frames[2, ch])) < 1e-12


class TestDataset:
    def test_count_and_distinct_seeds(self):
        base = SyntheticSpec(frames=3, height=16, width=16, seed=0)
        data = generate_dataset(4, base, seed=2)
        assert len(data) == 4
        seeds = [seq.spec.seed for seq in data]
        assert len(set(seeds)) == 4
        assert not np.array_equal(data[0].frames, data[1].frames)

    @pytest.mark.parametrize("n, seed, name", [
        (-1, 0, "n_sequences"), (0, 0, "n_sequences"), (2.5, 0, "n_sequences"),
        (True, 0, "n_sequences"), (1, -1, "seed"), (1, 0.5, "seed"), (1, "1", "seed"),
    ])
    def test_bad_count_or_seed_named(self, n, seed, name):
        with pytest.raises(ValueError, match="^%s must be an int" % name):
            generate_dataset(n, SyntheticSpec(frames=2, height=8, width=8), seed=seed)

    def test_deterministic(self):
        base = SyntheticSpec(frames=3, height=16, width=16)
        a = generate_dataset(2, base, seed=5)
        b = generate_dataset(2, base, seed=5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.frames, sb.frames)

    def test_kinds_all_generate(self):
        for kind in KINDS:
            seq = generate_sequence(SyntheticSpec(frames=2, height=16, width=16,
                                                  kind=kind, seed=1))
            assert seq.frames.shape == (2, 3, 16, 16)
