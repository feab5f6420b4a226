import numpy as np
import pytest

import memvo.tensor as T
from memvo.memory import MemorySlot
from memvo.net import VONet
from memvo.refining import (guided_memory, guided_observation, recalibrate,
                            refine_sequence, spatial_weights, temporal_weights)


def _cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a.ravel(), b.ravel()) / (na * nb))


def _softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def guided_memory_reference(guidance, states):
    """Definitional aggregate: alpha_i * (beta_i per channel) * m_i, summed."""
    c = states[0].shape[0]
    alpha = _softmax(np.array([_cos(guidance, m) for m in states]))
    total = np.zeros_like(states[0])
    for a, m in zip(alpha, states):
        cc = np.array([_cos(guidance[ch], m[ch]) for ch in range(c)])
        beta = c * _softmax(cc)
        total += a * (beta[:, None, None] * m)
    return total


def _cosine_graph(a, b):
    # the composed scalar cosine the fused op replaced; 0 for a zero norm
    if float(np.sum(a.data * a.data)) == 0.0 or float(np.sum(b.data * b.data)) == 0.0:
        return T.Tensor(0.0)
    dot = T.tsum(T.mul(a, b))
    return T.div(dot, T.mul(T.sqrt(T.tsum(T.mul(a, a))), T.sqrt(T.tsum(T.mul(b, b)))))


def guided_memory_per_slot(guidance, slots):
    """The per-slot graph the batched guided_memory replaced: its oracle.

    One composed cosine per slot, alpha[i] sliced out, and one channel
    recalibration and one add per slot.
    """
    alpha = T.softmax(T.stack([_cosine_graph(guidance, s.state) for s in slots]))
    total = None
    for i, slot in enumerate(slots):
        c = slot.state.data.shape[0]
        beta = T.mul(T.softmax(T.channel_cosine(guidance, slot.state)), float(c))
        term = T.mul(T.scale_channels(slot.state, beta), T.slice1d(alpha, i, i + 1))
        total = term if total is None else T.add(total, term)
    return total


def make_slots(rng, n, shape=(4, 3, 3)):
    return [MemorySlot(frame=i, state=T.Tensor(rng.normal(size=shape)), anchor_inv=np.eye(4))
            for i in range(n)]


def stacked(slots):
    """The (S,C,H,W) memory the attention functions take, as refine_sequence builds it."""
    return T.stack([s.state for s in slots])


class TestTemporalWeights:
    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            slots = make_slots(rng, n)
            g = T.Tensor(rng.normal(size=(4, 3, 3)))
            alpha = temporal_weights(g, stacked(slots))
            assert alpha.data.shape == (n,)
            assert abs(alpha.data.sum() - 1.0) < 1e-12
            assert np.all(alpha.data > 0)

    def test_zero_guidance_uniform_exactly(self):
        rng = np.random.default_rng(1)
        slots = make_slots(rng, 5)
        alpha = temporal_weights(T.Tensor(np.zeros((4, 3, 3))), stacked(slots))
        assert np.all(alpha.data == 0.2)

    def test_single_slot_is_one(self):
        rng = np.random.default_rng(2)
        alpha = temporal_weights(T.Tensor(rng.normal(size=(4, 3, 3))), stacked(make_slots(rng, 1)))
        assert alpha.data.shape == (1,) and alpha.data[0] == 1.0

    def test_power_of_two_guidance_scaling_bit_exact(self):
        # cosines are scale invariant; powers of two keep the float math exact
        rng = np.random.default_rng(3)
        slots = make_slots(rng, 6)
        g = rng.normal(size=(4, 3, 3))
        base = temporal_weights(T.Tensor(g), stacked(slots)).data
        for c in (0.5, 2.0, 4.0, 8.0, 0.25):
            scaled = temporal_weights(T.Tensor(g * c), stacked(slots)).data
            assert np.array_equal(scaled, base)

    def test_arbitrary_positive_scaling(self):
        rng = np.random.default_rng(4)
        slots = make_slots(rng, 6)
        g = rng.normal(size=(4, 3, 3))
        base = temporal_weights(T.Tensor(g), stacked(slots)).data
        for c in (0.3, 1.7, 9.9):
            scaled = temporal_weights(T.Tensor(g * c), stacked(slots)).data
            assert np.max(np.abs(scaled - base)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        slots = make_slots(rng, 7)
        g = T.Tensor(rng.normal(size=(4, 3, 3)))
        base = temporal_weights(g, stacked(slots)).data
        perm = [3, 0, 6, 1, 5, 2, 4]
        shuffled = temporal_weights(g, stacked([slots[i] for i in perm])).data
        assert np.max(np.abs(shuffled - base[perm])) < 1e-12

    def test_aligned_slot_dominates(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=(4, 3, 3))
        slots = [MemorySlot(0, T.Tensor(g.copy()), np.eye(4)),
                 MemorySlot(1, T.Tensor(-g), np.eye(4))]
        alpha = temporal_weights(T.Tensor(g), stacked(slots))
        assert alpha.data[0] > alpha.data[1]

    def test_empty_slots_rejected(self):
        with pytest.raises(ValueError):
            temporal_weights(T.Tensor(np.zeros((4, 3, 3))), stacked([]))

    def test_unstacked_memory_rejected(self):
        # a single (C,H,W) state is no memory stack
        with pytest.raises(ValueError, match="stacked"):
            temporal_weights(T.Tensor(np.zeros((4, 3, 3))), T.Tensor(np.ones((4, 3, 3))))


class TestSpatialWeights:
    def test_mean_is_one(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = T.Tensor(rng.normal(size=(8, 3, 3)))
            m = T.Tensor(rng.normal(size=(8, 3, 3)))
            beta = spatial_weights(g, m)
            assert beta.data.shape == (8,)
            assert abs(beta.data.mean() - 1.0) < 1e-12
            assert np.all(beta.data > 0)

    def test_zero_guidance_all_ones_exactly(self):
        # C=4 is a power of two so C * (1/C) is exact
        rng = np.random.default_rng(8)
        beta = spatial_weights(T.Tensor(np.zeros((4, 3, 3))),
                               T.Tensor(rng.normal(size=(4, 3, 3))))
        assert np.all(beta.data == 1.0)

    def test_aligned_channel_weighted_up(self):
        rng = np.random.default_rng(9)
        g = np.zeros((3, 4, 4))
        m = rng.normal(size=(3, 4, 4))
        g[0] = m[0]       # channel 0 agrees with guidance
        g[1] = -m[1]      # channel 1 opposes
        beta = spatial_weights(T.Tensor(g), T.Tensor(m)).data
        assert beta[0] > beta[2] > beta[1]

    def test_recalibrate_matches_manual_scale(self):
        rng = np.random.default_rng(10)
        g = T.Tensor(rng.normal(size=(4, 3, 3)))
        m = T.Tensor(rng.normal(size=(4, 3, 3)))
        beta = spatial_weights(g, m).data
        out = recalibrate(g, m).data
        assert np.max(np.abs(out - beta[:, None, None] * m.data)) < 1e-15


class TestGuidedMemory:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            slots = make_slots(rng, n)
            g = rng.normal(size=(4, 3, 3))
            mine = guided_memory(T.Tensor(g), stacked(slots)).data
            ref = guided_memory_reference(g, [s.state.data for s in slots])
            assert np.max(np.abs(mine - ref)) < 1e-12

    def test_zero_guidance_is_slot_mean(self):
        # uniform alpha and unit beta reduce the aggregate to a plain mean
        rng = np.random.default_rng(12)
        slots = make_slots(rng, 5)
        out = guided_memory(T.Tensor(np.zeros((4, 3, 3))), stacked(slots)).data
        mean = np.mean([s.state.data for s in slots], axis=0)
        assert np.max(np.abs(out - mean)) < 1e-12

    def test_single_slot_zero_guidance_identity(self):
        rng = np.random.default_rng(13)
        slots = make_slots(rng, 1)
        out = guided_memory(T.Tensor(np.zeros((4, 3, 3))), stacked(slots)).data
        assert np.max(np.abs(out - slots[0].state.data)) < 1e-15

    def test_gradient_reaches_live_slot_state(self):
        rng = np.random.default_rng(14)
        x = T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        live = T.tanh(x)
        slots = [MemorySlot(0, live, np.eye(4))]
        g = T.Tensor(rng.normal(size=(4, 3, 3)))
        T.tsum(guided_memory(g, stacked(slots))).backward()
        assert x.grad is not None and np.any(x.grad != 0)

    def test_gradient_blocked_by_detached_slot(self):
        rng = np.random.default_rng(15)
        x = T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        live = T.tanh(x)
        slots = [MemorySlot(0, live.detach(), np.eye(4))]
        g = T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        T.tsum(guided_memory(g, stacked(slots))).backward()
        assert x.grad is None
        assert g.grad is not None

    def test_guided_memory_gradcheck(self):
        rng = np.random.default_rng(16)
        memory = stacked(make_slots(rng, 3))
        g = T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)

        def f(gv):
            return T.tsum(T.mul(guided_memory(gv, memory), guided_memory(gv, memory)))

        assert T.finite_diff_check(lambda _: f(g), g, coords=[0, 5, 17, 30]) < 1e-6

    @pytest.mark.parametrize("n", [1, 3, 10])
    @pytest.mark.parametrize("case", ["random", "zero_guidance", "zero_slot", "dead_channel"])
    def test_matches_per_slot_graph(self, n, case):
        # values and gradients, into the guidance and into live slot states
        rng = np.random.default_rng(17 + n)
        g = rng.normal(size=(4, 3, 3))
        states = rng.normal(size=(n, 4, 3, 3))
        if case == "zero_guidance":
            g[:] = 0.0
        elif case == "zero_slot":
            states[n // 2] = 0.0
        elif case == "dead_channel":
            g[1] = 0.0
            states[0, 2] = 0.0
        w = T.Tensor(rng.normal(size=(4, 3, 3)))
        grads, outs = [], []

        def batched(guidance, slots):
            return guided_memory(guidance, stacked(slots))

        for fn in (batched, guided_memory_per_slot):
            gt = T.Tensor(g, requires_grad=True)
            xs = [T.Tensor(st, requires_grad=True) for st in states]
            slots = [MemorySlot(i, T.mul(x, 1.0), np.eye(4)) for i, x in enumerate(xs)]
            out = fn(gt, slots)
            T.tsum(T.mul(out, w)).backward()
            outs.append(out.data)
            grads.append([np.zeros_like(t.data) if t.grad is None else t.grad for t in [gt] + xs])
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-12
        for mine, ref in zip(*grads):
            assert np.max(np.abs(mine - ref)) < 1e-12
        assert np.any(grads[0][-1] != 0.0)

    def test_taped_nodes_independent_of_slot_count(self):
        rng = np.random.default_rng(18)
        g = T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        counts = set()
        for n in (1, 10):
            slots = [MemorySlot(i, T.Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True),
                                np.eye(4)) for i in range(n)]
            out = guided_memory(g, stacked(slots))
            counts.add(sum(node._backward_fn is not None for node in T._topo_order(out)))
        assert len(counts) == 1


class TestRefineSequence:
    def _setup(self, seed=0, frames=4):
        m = VONet(preset="tiny", seed=seed)
        rng = np.random.default_rng(seed + 100)
        fr = [rng.normal(size=(3, 32, 32)) for _ in range(frames)]
        track = m.track_sequence([[m.encode_pair(a, b) for a, b in zip(fr, fr[1:])]])[0]
        return m, track

    def test_shapes_and_lengths(self):
        m, track = self._setup()
        slots = [MemorySlot(0, track.feats[0].detach(), np.eye(4))]
        abs_poses = refine_sequence(m, track.feats, slots)
        assert len(abs_poses) == len(track.feats)
        assert all(p.data.shape == (6,) for p in abs_poses)

    def test_empty_memory_rejected(self):
        m, track = self._setup(seed=1)
        with pytest.raises(ValueError):
            refine_sequence(m, track.feats, [])

    def test_memory_stacked_once(self, monkeypatch):
        m, track = self._setup(seed=5, frames=6)
        slots = [MemorySlot(i, f.detach(), np.eye(4)) for i, f in enumerate(track.feats)]
        real, calls = T.stack, []

        def spy(parts):
            calls.append(len(parts))
            return real(parts)

        monkeypatch.setattr(T, "stack", spy)
        refine_sequence(m, track.feats, slots)
        assert calls == [len(slots)]

    def test_deterministic(self):
        m, track = self._setup(seed=2)
        slots = [MemorySlot(0, track.feats[0].detach(), np.eye(4))]
        a = refine_sequence(m, track.feats, slots)
        b = refine_sequence(m, track.feats, slots)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.data, pb.data)

    def test_guidance_chain_changes_later_steps(self):
        # disturbing the first feature must ripple into step 2 through the
        # refined-output guidance even when memory and frame 2 are unchanged
        m, track = self._setup(seed=3)
        slots = [MemorySlot(0, track.feats[0].detach(), np.eye(4))]
        poses = refine_sequence(m, track.feats, slots)
        bumped = [T.Tensor(track.feats[0].data + 0.1)] + track.feats[1:]
        poses2 = refine_sequence(m, bumped, slots)
        assert not np.allclose(poses2[1].data, poses[1].data)

    def test_gradients_reach_model_params(self):
        m, track = self._setup(seed=4)
        slots = [MemorySlot(0, track.feats[0].detach(), np.eye(4))]
        abs_poses = refine_sequence(m, track.feats, slots)
        loss = T.tsum(T.mul(abs_poses[-1], abs_poses[-1]))
        loss.backward()
        h = m.hidden
        # refine.kernel_x[:h] and refine.kernel_h[:h] are the input gate's blocks
        for name, block in (("refine.kernel_x", np.s_[:h]), ("refine.kernel_h", np.s_[:h]),
                            ("fuse.conv1.kernel", np.s_[:]),
                            ("head.refine.weight", np.s_[:]), ("encoder.l1.kernel", np.s_[:])):
            g = m.params[name].grad
            assert g is not None and np.any(g[block] != 0), name
