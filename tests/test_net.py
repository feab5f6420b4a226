import json
import os
import re
from collections import OrderedDict

import numpy as np
import pytest

import memvo.tensor as T
from memvo.net import PRESETS, VONet, glorot, load_checkpoint, save_checkpoint
from memvo.votb import write_votb


def gate_rows(gate, h):
    """Rows of a gate's block in a (4h, h, 3, 3) kernel half or (4h,) bias."""
    k = "ifog".index(gate)
    return slice(k * h, (k + 1) * h)


def lstm_step_per_gate(gates, x, h, c):
    """The ConvLSTM step before gate fusion, 8 convs per step: the oracle.

    gates maps "i", "f", "o", "g" to (wx, wh, bias) tensors.
    """
    def gate(name, f):
        wx, wh, bias = gates[name]
        return f(T.add(T.conv2d(x, wx, bias, padding=1),
                       T.conv2d(h, wh, np.zeros(wh.shape[0]), padding=1)))

    i = gate("i", T.sigmoid)
    f = gate("f", T.sigmoid)
    o = gate("o", T.sigmoid)
    g = gate("g", T.tanh)
    c_new = T.add(T.mul(f, c), T.mul(i, g))
    return T.mul(o, T.tanh(c_new)), c_new


def fused_kernel(model, stage):
    """stage's kernel_x and kernel_h side by side on the input-channel axis:
    the one (4h, 2h, 3, 3) kernel of the fused cell, as a graph node that
    hands each half its part of the gradient."""
    kx, kh = model.params[stage + ".kernel_x"], model.params[stage + ".kernel_h"]
    n = kx.shape[1]
    return T._make(np.concatenate([kx.data, kh.data], axis=1), (kx, kh),
                   lambda g: (g[:, :n], g[:, n:]))


def lstm_step_fused(model, stage, x, state):
    """The ConvLSTM step before its split into halves, one conv over [x; h]
    with the fused kernel and the bias: the oracle. state None is the zero
    state, computed here over zeros shaped like x."""
    if state is None:
        state = (T.Tensor(np.zeros(x.shape)), T.Tensor(np.zeros(x.shape)))
    h, c = state
    z = T.conv2d(T.concat_channels([x, h]), fused_kernel(model, stage),
                 model.params[stage + ".bias"], padding=1)
    n = model.hidden
    i, f, o, g = (T.slice1d(z, k * n, (k + 1) * n) for k in range(4))
    c_new = T.add(T.mul(T.sigmoid(f), c), T.mul(T.sigmoid(i), T.tanh(g)))
    return T.mul(T.sigmoid(o), T.tanh(c_new)), c_new


def use_fused_cell(monkeypatch):
    """Make every VONet run the fused oracle: cell_input passes x through
    and the step convolves [x; h]."""
    monkeypatch.setattr(VONet, "cell_input", lambda self, stage, x: x)
    monkeypatch.setattr(VONet, "_lstm_step", lstm_step_fused)


def split_step(model, stage, x, state=None):
    """One step of stage's ConvLSTM from the raw input x, through the class."""
    step = VONet.track_step if stage == "track" else VONet.refine_step
    return step(model, model.cell_input(stage, x), state)


def track_frames(model, frames):
    """Encode a window's frame pairs and track it alone (B = 1)."""
    feats = [model.encode_pair(a, b) for a, b in zip(frames, frames[1:])]
    return model.track_sequence([feats])[0]


def per_gate_params(preset, seed):
    """The 50 per-gate parameters the unfused model drew, in its draw order."""
    cfg = PRESETS[preset]
    rng = np.random.default_rng(seed)
    out = OrderedDict()
    c_in = 6  # the stacked RGB pair
    for i, (o, k, _) in enumerate(cfg.layers, start=1):
        out["encoder.l%d.kernel" % i] = glorot(rng, (o, c_in, k, k), c_in * k * k, o * k * k)
        out["encoder.l%d.bias" % i] = np.zeros(o)
        c_in = o
    h = cfg.out_channels
    for stage in ("track", "refine"):
        for gate in "ifog":
            out["%s.%s.wx" % (stage, gate)] = glorot(rng, (h, h, 3, 3), h * 9, h * 9)
            out["%s.%s.wh" % (stage, gate)] = glorot(rng, (h, h, 3, 3), h * 9, h * 9)
            out["%s.%s.bias" % (stage, gate)] = np.zeros(h)
    out["fuse.conv1.kernel"] = glorot(rng, (h, 2 * h, 3, 3), 2 * h * 9, h * 9)
    out["fuse.conv1.bias"] = np.zeros(h)
    out["fuse.conv2.kernel"] = glorot(rng, (h, h, 3, 3), h * 9, h * 9)
    out["fuse.conv2.bias"] = np.zeros(h)
    for head in ("track", "refine"):
        out["head.%s.weight" % head] = glorot(rng, (6, h), h, 6)
        out["head.%s.bias" % head] = np.zeros(6)
    return out


def per_gate_view(model, name):
    """The part of the gate-stacked model's parameters that per-gate parameter `name` is."""
    if name in model.params:
        return model.params[name].data
    stage, gate, kind = name.split(".")
    param = {"bias": ".bias", "wx": ".kernel_x", "wh": ".kernel_h"}[kind]
    return model.params[stage + param].data[gate_rows(gate, model.hidden)]


class TestEncoderConfig:
    def test_preset_output_shapes(self):
        # shape arithmetic only; the full-size preset is never run here
        assert PRESETS["desk"].out_channels == 64
        assert PRESETS["desk"].out_extents == (4, 4)
        assert PRESETS["kitti-shape"].out_channels == 1024
        assert PRESETS["kitti-shape"].out_extents == (6, 20)
        assert PRESETS["tiny"].out_extents == (2, 2)

    def test_every_preset_is_nine_layers_that_tile_its_frame(self):
        # the program builds no config but these rows, so their invariants are checked here
        for cfg in PRESETS.values():
            assert len(cfg.layers) == 9
            down = int(np.prod([s for _, _, s in cfg.layers]))
            assert cfg.height % down == 0 and cfg.width % down == 0
            assert cfg.out_extents == (cfg.height // down, cfg.width // down)
            assert cfg.kernel_shapes[0][1] == 6  # the stacked RGB pair
            # a ConvLSTM kernel (4C rows) outsizes its output pixels, so conv2d
            # queues both halves' gradients for one flush GEMM per backward
            assert 4 * cfg.out_channels > np.prod(cfg.out_extents)

    def test_in_channels_fixed_by_the_frame_layout(self):
        assert PRESETS["tiny"].kernel_shapes[0] == (2, 6, 3, 3)


class TestInit:
    @pytest.mark.parametrize("seed", [1.5, True, "3", -1, None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match="^seed must be an int >= 0"):
            VONet(preset="tiny", seed=seed)

    def test_seed_determinism(self):
        a = VONet(preset="tiny", seed=5)
        b = VONet(preset="tiny", seed=5)
        c = VONet(preset="tiny", seed=6)
        assert type(VONet(preset="tiny", seed=np.int64(5)).seed) is int  # JSON-serialisable
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data) for n in a.params)

    def test_glorot_bounds_and_zero_biases(self):
        m = VONet(preset="tiny", seed=0)
        k = m.params["encoder.l1.kernel"].data  # (2, 6, 3, 3)
        bound = np.sqrt(6.0 / (6 * 9 + 2 * 9))
        assert np.max(np.abs(k)) <= bound
        assert np.all(m.params["encoder.l1.bias"].data == 0.0)
        assert np.all(m.params["head.track.bias"].data == 0.0)

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_same_seed_weights_as_per_gate_init(self, preset):
        m = VONet(preset=preset, seed=13)
        ref = per_gate_params(preset, 13)
        assert len(ref) == 50 and len(m.params) == 32
        for name, data in ref.items():
            assert per_gate_view(m, name).tobytes() == data.tobytes(), name

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            VONet(preset="jumbo")

    def test_preset_must_be_a_string(self):
        # a list would not even hash for the PRESETS lookup
        for preset in (3, ["tiny"], None):
            with pytest.raises(ValueError, match="^preset must be a string, got "):
                VONet(preset=preset)


class TestEncoder:
    def test_zero_frames_zero_biases_give_zero_features(self):
        m = VONet(preset="tiny", seed=1)
        z = np.zeros((3, 32, 32))
        out = m.encode_pair(z, z)
        assert out.data.shape == (4, 2, 2)
        assert np.all(out.data == 0.0)

    def test_feature_shape_and_range(self):
        m = VONet(preset="tiny", seed=2)
        rng = np.random.default_rng(0)
        out = m.encode_pair(rng.normal(size=(3, 32, 32)), rng.normal(size=(3, 32, 32)))
        assert out.data.shape == (4, 2, 2)
        assert np.all(np.abs(out.data) <= 1.0)  # tanh output

    def test_frame_shape_rejected(self):
        m = VONet(preset="tiny", seed=0)
        with pytest.raises(ValueError):
            m.encode_pair(np.zeros((3, 16, 16)), np.zeros((3, 16, 16)))
        with pytest.raises(ValueError):
            m.encode_pair(np.zeros((1, 32, 32)), np.zeros((1, 32, 32)))

    def test_hidden_extents_match_encoder_output(self):
        for preset in ("tiny", "desk"):
            m = VONet(preset=preset, seed=0)
            side = PRESETS[preset].height
            x = m.encode_pair(np.zeros((3, side, side)), np.zeros((3, side, side)))
            h, c = split_step(m, "track", x)
            assert x.shape == h.shape == c.shape == (m.hidden,) + m.extents


class TestConvLSTM:
    def test_saturated_forget_gate_preserves_cell(self):
        m = VONet(preset="tiny", seed=3)
        # silence every gate input, then push the forget gate to saturation
        n = m.hidden
        for gate in ("i", "f", "o", "g"):
            m.params["track.kernel_x"].data[gate_rows(gate, n)] = 0.0
            m.params["track.kernel_h"].data[gate_rows(gate, n)] = 0.0
            m.params["track.bias"].data[gate_rows(gate, n)] = 0.0
        m.params["track.bias"].data[gate_rows("f", n)] = 30.0
        rng = np.random.default_rng(1)
        c0 = rng.uniform(-1, 1, size=(4, 2, 2))
        x = T.Tensor(np.zeros((4, 2, 2)))
        h = T.Tensor(np.zeros((4, 2, 2)))
        _, c1 = split_step(m, "track", x, (h, T.Tensor(c0)))
        assert np.max(np.abs(c1.data - c0)) < 1e-9

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_fused_step_matches_per_gate_cell(self, preset):
        m = VONet(preset=preset, seed=12)
        n = m.hidden
        rng = np.random.default_rng(14)
        m.params["track.bias"].data[:] = rng.normal(size=4 * n) * 0.5
        shape = (n,) + m.extents
        arrays = [rng.normal(size=shape) for _ in range(3)]
        weights = [T.Tensor(rng.normal(size=shape)) for _ in range(2)]
        kx, kh, bias = (m.params["track." + name] for name in ("kernel_x", "kernel_h", "bias"))
        gates = {g: tuple(T.Tensor(p.data[gate_rows(g, n)].copy(), requires_grad=True)
                          for p in (kx, kh, bias)) for g in "ifog"}

        def run(step):
            x, h, c = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
            h_new, c_new = step(x, h, c)
            T.add(T.tsum(T.mul(h_new, weights[0])), T.tsum(T.mul(c_new, weights[1]))).backward()
            return [h_new.data, c_new.data, x.grad, h.grad, c.grad]

        m.zero_grads()
        split = run(lambda x, h, c: split_step(m, "track", x, (h, c)))
        oracle = run(lambda x, h, c: lstm_step_per_gate(gates, x, h, c))
        for got, want in zip(split, oracle):
            assert np.max(np.abs(got - want)) < 1e-12
        for g, (wx, wh, b) in gates.items():
            assert np.max(np.abs(kx.grad[gate_rows(g, n)] - wx.grad)) < 1e-12
            assert np.max(np.abs(kh.grad[gate_rows(g, n)] - wh.grad)) < 1e-12
            assert np.max(np.abs(bias.grad[gate_rows(g, n)] - b.grad)) < 1e-12

    def test_cell_state_bounded(self):
        # |c_t| <= |c_{t-1}| + 1 elementwise, because f<=1 and |i*g|<=1
        m = VONet(preset="tiny", seed=4)
        rng = np.random.default_rng(2)
        c = T.Tensor(rng.normal(size=(4, 2, 2)))
        h = T.Tensor(rng.normal(size=(4, 2, 2)))
        for _ in range(20):
            x = T.Tensor(rng.normal(size=(4, 2, 2)) * 3)
            prev = np.abs(c.data)
            h, c = split_step(m, "track", x, (h, c))
            assert np.all(np.abs(c.data) <= prev + 1.0 + 1e-12)

    def test_step_gradcheck(self):
        m = VONet(preset="tiny", seed=5)
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.normal(size=(4, 2, 2)))
        h0 = T.Tensor(rng.normal(size=(4, 2, 2)))
        c0 = T.Tensor(rng.normal(size=(4, 2, 2)))
        n = m.hidden
        for stage in ("track", "refine"):
            def f(_):
                # a step from the zero state, then one from (h0, c0): both
                # kernel halves, and the first step's skipped hidden half
                h1, c1 = split_step(m, stage, x)
                out, _ = split_step(m, stage, h1, (h0, T.add(c0, c1)))
                return T.tsum(T.mul(out, out))

            for half in ("kernel_x", "kernel_h"):
                w = m.params[stage + "." + half]
                # the same four offsets inside each gate's block of the half
                coords = []
                for gate in ("i", "f", "o", "g"):
                    block = np.arange(w.data.size).reshape(w.data.shape)[gate_rows(gate, n)]
                    coords += [int(block.flat[i]) for i in (0, 7, 19, 35)]
                assert T.finite_diff_check(f, w, coords=coords) < 1e-6, (stage, half)
            assert T.finite_diff_check(f, m.params[stage + ".bias"]) < 1e-6, stage


class TestSplitCell:
    """The cell as an input half conv(x, W_x) + b plus a hidden half
    conv(h, W_h), against the fused conv over [x; h] it replaced."""

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    @pytest.mark.parametrize("stage", ["track", "refine"])
    def test_every_step_matches_the_fused_oracle(self, preset, stage):
        m = VONet(preset=preset, seed=21)
        rng = np.random.default_rng(22)
        m.params[stage + ".bias"].data[:] = rng.normal(size=4 * m.hidden) * 0.5
        xs = [T.Tensor(rng.normal(size=(m.hidden,) + m.extents)) for _ in range(10)]
        got = want = None
        for x in xs:
            got = split_step(m, stage, x, got)
            want = lstm_step_fused(m, stage, x, want)
            for a, b in zip(got, want):
                assert np.max(np.abs(a.data - b.data)) < 1e-12

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_zero_state_skip_is_bit_identical(self, preset, batch):
        # skipping the hidden half and the forget term of the zero state
        # against computing both over zeros
        m = VONet(preset=preset, seed=23)
        rng = np.random.default_rng(24)
        shape = (m.hidden,) + ((batch,) if batch else ()) + m.extents
        for stage in ("track", "refine"):
            m.params[stage + ".bias"].data[:] = rng.normal(size=4 * m.hidden) * 0.5
            zx = m.cell_input(stage, T.Tensor(rng.normal(size=shape)))
            step = VONet.track_step if stage == "track" else VONet.refine_step
            zeros = (T.Tensor(np.zeros(shape)), T.Tensor(np.zeros(shape)))
            for a, b in zip(step(m, zx), step(m, zx, zeros)):
                assert a.data.tobytes() == b.data.tobytes(), stage

    def test_zero_state_runs_no_hidden_half(self, monkeypatch):
        m = VONet(preset="tiny", seed=0)
        real, kernels = T.conv2d, []
        names = {id(p): name for name, p in m.params.items()}

        def spy(x, kernel, bias, stride=1, padding=0):
            kernels.append(names[id(kernel)])
            return real(x, kernel, bias, stride, padding)

        monkeypatch.setattr(T, "conv2d", spy)
        x = T.Tensor(np.ones((4, 2, 2)))
        state = split_step(m, "track", x)
        assert kernels == ["track.kernel_x"]
        split_step(m, "track", x, state)
        assert kernels == ["track.kernel_x", "track.kernel_x", "track.kernel_h"]

    def test_batched_input_halves_match_lone_calls(self):
        # at the desk shape, one call over N pairs gives each pair the bits
        # of a lone call, whatever N is
        m = VONet(preset="desk", seed=25)
        rng = np.random.default_rng(26)
        feats = [T.Tensor(rng.normal(size=(m.hidden,) + m.extents)) for _ in range(12)]
        batch = m.track_inputs(feats)
        assert len(batch) == len(feats)
        for f, got in zip(feats, batch):
            assert got.shape == (4 * m.hidden,) + m.extents
            assert got.data.tobytes() == m.track_inputs([f])[0].data.tobytes()
            assert got.data.tobytes() == m.cell_input("track", f).data.tobytes()
        for got, want in zip(batch[3:8], m.track_inputs(feats[3:8])):
            assert got.data.tobytes() == want.data.tobytes()


class TestPoseHead:
    def test_constant_features_give_bias_plus_row_sums(self):
        m = VONet(preset="tiny", seed=6)
        rng = np.random.default_rng(4)
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        m.params["head.track.weight"].data = w.copy()
        m.params["head.track.bias"].data = b.copy()
        ones = T.Tensor(np.ones((4, 2, 2)))
        out = m.pose_head("track", ones)
        assert np.max(np.abs(out.data - (w.sum(axis=1) + b))) < 1e-12

    def test_pose_vector_shape(self):
        m = VONet(preset="tiny", seed=0)
        out = m.pose_head("refine", T.Tensor(np.zeros((4, 2, 2))))
        assert out.data.shape == (6,)
        assert np.all(out.data == 0.0)  # zero bias at init


class TestTrackSequence:
    def test_lengths_and_shapes(self):
        m = VONet(preset="tiny", seed=7)
        rng = np.random.default_rng(5)
        frames = [rng.normal(size=(3, 32, 32)) for _ in range(5)]
        res = track_frames(m, frames)
        assert len(res.feats) == len(res.outs) == len(res.rels) == 4
        assert res.outs[0].data.shape == (4, 2, 2)
        assert all(r.data.shape == (6,) for r in res.rels)

    def test_too_few_frames(self):
        # no window, an empty window, or windows of unequal length
        m = VONet(preset="tiny", seed=0)
        x = T.Tensor(np.zeros((4, 2, 2)))
        for windows in ([], [[]], [[x, x], [x]]):
            with pytest.raises(ValueError, match="equal-length, non-empty windows"):
                m.track_sequence(windows)
        zx = m.cell_input("track", x)
        for inputs in ([[zx]], [[zx, zx], [zx]], [[zx, zx]]):
            with pytest.raises(ValueError, match="one input half per pair feature"):
                m.track_sequence([[x, x], [x, x]], inputs)

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_outputs_match_the_fused_oracle(self, preset, monkeypatch):
        m = VONet(preset=preset, seed=28)
        rng = np.random.default_rng(29)
        feats = [T.Tensor(rng.normal(size=(m.hidden,) + m.extents)) for _ in range(7)]
        windows = [feats[s:s + 5] for s in (0, 1, 2)]
        got = m.track_sequence(windows)
        use_fused_cell(monkeypatch)
        want = m.track_sequence(windows)
        for a, b in zip(got, want):
            for name in ("outs", "rels"):
                for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
                    assert np.max(np.abs(x.data - y.data)) < 1e-12, name

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        frames = [rng.normal(size=(3, 32, 32)) for _ in range(3)]
        a = track_frames(VONet(preset="tiny", seed=8), frames)
        b = track_frames(VONet(preset="tiny", seed=8), frames)
        for ra, rb in zip(a.rels, b.rels):
            assert np.array_equal(ra.data, rb.data)

    def test_state_carries_over(self):
        # same pair twice: step outputs differ because h, c evolve
        m = VONet(preset="tiny", seed=9)
        rng = np.random.default_rng(7)
        f = rng.normal(size=(3, 32, 32))
        res = track_frames(m, [f, f, f])
        assert not np.allclose(res.rels[0].data, res.rels[1].data)

    @pytest.mark.parametrize("preset", ["tiny", "desk"])
    def test_batch_matches_lone_windows(self, preset):
        # B windows tracked at once give each window the bits of a lone call;
        # the windows share features, as overlapping sliding windows do
        m = VONet(preset=preset, seed=13)
        rng = np.random.default_rng(15)
        feats = [T.Tensor(rng.normal(size=(m.hidden,) + m.extents)) for _ in range(8)]
        windows = [feats[s:s + 4] for s in (0, 1, 2, 4)]
        batch = m.track_sequence(windows)
        assert len(batch) == len(windows)
        for window, got in zip(windows, batch):
            want = m.track_sequence([window])[0]
            assert got.feats == window
            for name in ("outs", "rels"):
                for a, b in zip(getattr(got, name), getattr(want, name), strict=True):
                    assert np.array_equal(a.data, b.data), name


class TestCheckpoint:
    def _roundtrip(self, tmp_path, model):
        path = os.path.join(tmp_path, "ckpt")
        save_checkpoint(model, path)
        return path, load_checkpoint(path)

    def test_bit_exact_round_trip(self, tmp_path):
        model = VONet(preset="tiny", seed=10)
        rng = np.random.default_rng(8)
        for p in model.params.values():  # make values non-trivial
            p.data += rng.normal(size=p.data.shape) * 0.01
        path, back = self._roundtrip(tmp_path, model)
        assert list(back.params) == list(model.params)
        for name in model.params:
            a, b = model.params[name].data, back.params[name].data
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_loaded_model_forward_identical(self, tmp_path):
        model = VONet(preset="tiny", seed=11)
        _, back = self._roundtrip(tmp_path, model)
        rng = np.random.default_rng(9)
        frames = [rng.normal(size=(3, 32, 32)) for _ in range(3)]
        ra = track_frames(model, frames)
        rb = track_frames(back, frames)
        for x, y in zip(ra.rels, rb.rels):
            assert np.array_equal(x.data, y.data)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameter_refused_before_any_file(self, tmp_path, bad):
        # load_checkpoint would refuse the blob, so the writer does
        model = VONet(preset="tiny", seed=0)
        model.params["encoder.l8.bias"].data[1] = bad
        with pytest.raises(ValueError, match="^parameter encoder.l8.bias has non-finite values$"):
            save_checkpoint(model, str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_missing_blob_entry_rejected(self, tmp_path):
        # an encoder kernel is missed by the check before allocation, any other blob by the fill
        model = VONet(preset="tiny", seed=0)
        for name in ("head.track.bias", "encoder.l3.kernel"):
            path, _ = self._roundtrip(tmp_path, model)
            os.remove(os.path.join(path, name + ".votb"))
            with pytest.raises(ValueError, match="^%s: parameter %s names '%s.votb', not a file"
                               % (re.escape(os.path.join(path, "manifest.json")),
                                  re.escape(name), re.escape(name))):
                load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        from memvo.votb import write_votb
        model = VONet(preset="tiny", seed=0)
        path, _ = self._roundtrip(tmp_path, model)
        write_votb(os.path.join(path, "head.track.bias.votb"), np.zeros(7))
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)

    def test_bad_version_rejected(self, tmp_path):
        model = VONet(preset="tiny", seed=0)
        path, _ = self._roundtrip(tmp_path, model)
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as fh:
            manifest = json.load(fh)
        # 2.0 == 2 and True == 1, so only a type check refuses those two
        for version in (1, 99, 2.0, True):
            manifest["version"] = version
            with open(mpath, "w") as fh:
                json.dump(manifest, fh)
            with pytest.raises(ValueError, match="^%s: unsupported memvo-checkpoint version %s$"
                               % (re.escape(mpath), re.escape(repr(version)))):
                load_checkpoint(path)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            load_checkpoint(str(tmp_path))

    def test_one_blob_per_parameter_at_version_4(self, tmp_path):
        model = VONet(preset="tiny", seed=4)
        path, _ = self._roundtrip(tmp_path, model)
        assert len(model.params) == 32
        assert "track.kernel_x.votb" in os.listdir(path)
        assert sorted(os.listdir(path)) == sorted([n + ".votb" for n in model.params]
                                                  + ["manifest.json"])
        with open(os.path.join(path, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert manifest == {"format": "memvo-checkpoint", "version": 4,
                            "model": {"preset": "tiny", "seed": 4}}

    def test_version_2_manifest_refused(self, tmp_path):
        # version 2 restated the preset's layer table and listed every blob
        path, mpath, manifest = self._saved_manifest(tmp_path)
        manifest["version"] = 2
        manifest["params"] = {name: name + ".votb" for name in VONet(preset="tiny").params}
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="^%s: unsupported memvo-checkpoint version 2$"
                           % re.escape(mpath)):
            load_checkpoint(path)

    def test_version_3_manifest_refused(self, tmp_path):
        # version 3 held each ConvLSTM stage as one fused (4h, 2h, 3, 3) kernel
        path, mpath, manifest = self._saved_manifest(tmp_path)
        manifest["version"] = 3
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        for stage in ("track", "refine"):
            write_votb(os.path.join(path, stage + ".kernel.votb"), np.zeros((16, 8, 3, 3)))
        with pytest.raises(ValueError, match="^%s: unsupported memvo-checkpoint version 3$"
                           % re.escape(mpath)):
            load_checkpoint(path)

    def _saved_manifest(self, tmp_path):
        path, _ = self._roundtrip(tmp_path, VONet(preset="tiny", seed=0))
        mpath = os.path.join(path, "manifest.json")
        with open(mpath) as fh:
            return path, mpath, json.load(fh)

    def test_truncated_manifest_names_the_file(self, tmp_path):
        path, mpath, _ = self._saved_manifest(tmp_path)
        with open(mpath) as fh:
            text = fh.read()
        with open(mpath, "w") as fh:
            fh.write(text[:len(text) // 2])
        with pytest.raises(ValueError, match=re.escape(mpath) + ": malformed JSON"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["model"])
    def test_missing_section_names_the_file(self, tmp_path, key):
        path, mpath, manifest = self._saved_manifest(tmp_path)
        del manifest[key]
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match=re.escape(mpath)):
            load_checkpoint(path)

    def test_list_manifest_names_the_file(self, tmp_path):
        path, mpath, manifest = self._saved_manifest(tmp_path)
        with open(mpath, "w") as fh:
            json.dump([manifest], fh)
        with pytest.raises(ValueError, match=re.escape(mpath)):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, why", [
        ("seed", "3", "seed must be an int >= 0"),
        ("seed", -1, "seed must be an int >= 0"),
        ("preset", 3, "preset must be a string"),
        ("preset", ["tiny"], "preset must be a string"),
        ("preset", "jumbo", "unknown preset 'jumbo'"),
    ])
    def test_bad_model_value_names_the_manifest(self, tmp_path, key, value, why):
        path, mpath, manifest = self._saved_manifest(tmp_path)
        manifest["model"][key] = value
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="^" + re.escape(mpath + ": bad model config: " + why)):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["preset", "seed"])
    def test_missing_model_key_names_the_manifest(self, tmp_path, key):
        # save_checkpoint always writes both, so a manifest without one is refused
        path, mpath, manifest = self._saved_manifest(tmp_path)
        del manifest["model"][key]
        with open(mpath, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match="^" + re.escape(mpath + ": bad model config: " + key)):
            load_checkpoint(path)

    def test_non_finite_blob_rejected(self, tmp_path):
        path, _, _ = self._saved_manifest(tmp_path)
        blob = os.path.join(path, "head.track.bias.votb")
        write_votb(blob, np.array([0.0, np.nan, 0.0, 0.0, np.inf, 0.0]))
        with pytest.raises(ValueError, match=re.escape(blob) + ".*non-finite"):
            load_checkpoint(path)
