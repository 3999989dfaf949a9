from __future__ import annotations

import numpy as np
import pytest

from evkit.errors import ParseError, ShapeMismatch, TruncatedFile
from evkit.temporal import (
    _conv2d_same,
    ConvLSTMParams,
    ConvLSTMState,
    FeatureMap,
    convlstm_step,
    init_state,
    load_params,
    load_state,
    residual_update,
    save_params,
    save_state,
)

from oracles import direct_conv2d_same, scalar_lstm_step

GEN1_SCALE_SIZES = {3: (32, 40), 4: (16, 20), 5: (8, 10)}


def random_params(d, m, k, seed=0, f32=False):
    p = ConvLSTMParams.random(d, m, k, rng=seed)
    if not f32:
        return p
    cast = lambda a: None if a is None else a.astype(np.float32).astype(np.float64)
    return ConvLSTMParams(k, d, m, cast(p.w_x), cast(p.w_h), cast(p.bias), cast(p.proj))


class TestCellStep:
    def test_zero_params_analytic(self, rng):
        params = ConvLSTMParams.zeros(6, 6, 3)
        c0 = rng.normal(size=(6, 9, 11))
        state = ConvLSTMState(rng.normal(size=(6, 9, 11)), c0)
        x = FeatureMap(rng.normal(size=(6, 9, 11)), 3)
        out, nxt = convlstm_step(x, state, params)
        # sigmoid(0) = 0.5 and tanh(0) = 0: c' = 0.5 c, h' = 0.5 tanh(0.5 c)
        assert np.allclose(nxt.c, 0.5 * c0, atol=1e-12)
        assert np.allclose(out.values, 0.5 * np.tanh(0.5 * c0), atol=1e-12)
        assert np.array_equal(out.values, nxt.h)

    def test_zero_state_zero_input_zero_bias(self, rng):
        params = random_params(4, 4, 3, seed=5)
        params = ConvLSTMParams(3, 4, 4, params.w_x, params.w_h, np.zeros(16))
        state = init_state((7, 7), params)
        x = FeatureMap(np.zeros((4, 7, 7)), 4)
        out, _ = convlstm_step(x, state, params)
        assert not out.values.any()

    def test_matches_scalar_lstm_oracle(self, rng):
        wx = rng.normal(size=4)
        wh = rng.normal(size=4)
        b = rng.normal(size=4)
        params = ConvLSTMParams(
            1, 1, 1,
            wx.reshape(4, 1, 1, 1), wh.reshape(4, 1, 1, 1), b,
        )
        h = c = 0.0
        state = init_state((1, 1), params)
        for step in range(10):
            xv = float(rng.normal())
            out, state = convlstm_step(FeatureMap(np.full((1, 1, 1), xv), 3),
                                       state, params)
            h, c = scalar_lstm_step(xv, h, c, wx, wh, b)
            assert out.values[0, 0, 0] == pytest.approx(h, abs=1e-6)
            assert state.c[0, 0, 0] == pytest.approx(c, abs=1e-6)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_convolution_matches_direct_sum(self, rng, k):
        x = rng.normal(size=(3, 6, 7))
        w = rng.normal(size=(4, 3, k, k))
        assert np.allclose(_conv2d_same(x, w), direct_conv2d_same(x, w), rtol=0, atol=1e-12)

    def test_gate_ranges_and_cell_bound(self, rng):
        params = random_params(3, 5, 3, seed=2)
        state = ConvLSTMState(rng.normal(size=(5, 6, 6)), rng.normal(size=(5, 6, 6)) * 3)
        x = FeatureMap(rng.normal(size=(3, 6, 6)) * 5, 3)
        _, nxt = convlstm_step(x, state, params)
        assert np.all(np.abs(nxt.c) <= np.abs(state.c) + 1.0 + 1e-12)
        assert np.all(np.abs(nxt.h) < 1.0)

    def test_projection_applied_when_dims_differ(self, rng):
        params = ConvLSTMParams.random(4, 8, 1, rng=1)
        proj = rng.normal(size=(4, 8))
        params = ConvLSTMParams(1, 4, 8, params.w_x, params.w_h, params.bias, proj)
        state = init_state((3, 3), params)
        x = FeatureMap(rng.normal(size=(4, 3, 3)), 5)
        out, nxt = convlstm_step(x, state, params)
        assert out.values.shape == (4, 3, 3)
        assert nxt.h.shape == (8, 3, 3)
        assert np.allclose(out.values, np.tensordot(proj, nxt.h, axes=1))

    def test_shape_mismatch_rejected(self, rng):
        params = ConvLSTMParams.zeros(4, 4, 3)
        state = init_state((5, 5), params)
        with pytest.raises(ShapeMismatch):
            convlstm_step(FeatureMap(np.zeros((3, 5, 5)), 3), state, params)
        with pytest.raises(ShapeMismatch):
            convlstm_step(FeatureMap(np.zeros((4, 6, 5)), 3), state, params)

    def test_kernel_must_be_odd(self):
        with pytest.raises(ValueError):
            ConvLSTMParams.zeros(2, 2, 2)

    def test_projection_presence_enforced(self):
        with pytest.raises(ValueError):
            ConvLSTMParams(1, 2, 4, np.zeros((16, 2, 1, 1)), np.zeros((16, 4, 1, 1)),
                           np.zeros(16), None)
        with pytest.raises(ValueError):
            ConvLSTMParams(1, 2, 2, np.zeros((8, 2, 1, 1)), np.zeros((8, 2, 1, 1)),
                           np.zeros(8), np.zeros((2, 2)))


class TestResidualUpdate:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.features = {
            i: FeatureMap(rng.normal(size=(8, *GEN1_SCALE_SIZES[i])), i)
            for i in (3, 4, 5)
        }
        self.modules = {i: ConvLSTMParams.random(8, 8, 3, rng=i) for i in (3, 4, 5)}
        self.states = {
            i: init_state(GEN1_SCALE_SIZES[i], self.modules[i]) for i in (3, 4, 5)
        }

    def test_empty_mask_is_identity(self):
        feats, states = residual_update(self.features, self.states, self.modules, ())
        for i in (3, 4, 5):
            assert feats[i] is self.features[i]
            assert states[i] is self.states[i]

    def test_zero_projection_identity_features_states_advance(self, rng):
        modules = {
            i: ConvLSTMParams.random(8, 16, 3, rng=i)  # proj defaults to zeros
            for i in (3, 4, 5)
        }
        states = {i: init_state(GEN1_SCALE_SIZES[i], modules[i]) for i in (3, 4, 5)}
        # advance once so states are nonzero, then check the residual is exact
        _, states = residual_update(self.features, states, modules)
        feats, states2 = residual_update(self.features, states, modules)
        for i in (3, 4, 5):
            assert np.array_equal(feats[i].values, self.features[i].values)
            assert not np.array_equal(states2[i].h, states[i].h)

    def test_partial_mask(self):
        feats, states = residual_update(self.features, self.states, self.modules,
                                        mask=(4, 5))
        assert feats[3] is self.features[3]
        assert states[3] is self.states[3]
        for i in (4, 5):
            assert not np.array_equal(feats[i].values, self.features[i].values)

    def test_rollout_matches_stepwise_composition(self, rng):
        frames = [
            {i: FeatureMap(rng.normal(size=(8, *GEN1_SCALE_SIZES[i])), i)
             for i in (3, 4, 5)}
            for _ in range(21)
        ]
        states_a = dict(self.states)
        states_b = dict(self.states)
        for t, frame in enumerate(frames):
            feats_a, states_a = residual_update(frame, states_a, self.modules)
            # manual per-scale composition of single steps
            feats_b = {}
            for i in (3, 4, 5):
                out, states_b[i] = convlstm_step(frame[i], states_b[i], self.modules[i])
                feats_b[i] = FeatureMap(frame[i].values + out.values, i)
            for i in (3, 4, 5):
                assert np.array_equal(feats_a[i].values, feats_b[i].values)
                assert np.array_equal(states_a[i].c, states_b[i].c)
                assert feats_a[i].values.shape == (8, *GEN1_SCALE_SIZES[i])

    def test_missing_module_rejected(self):
        with pytest.raises(ValueError):
            residual_update(self.features, self.states, {3: self.modules[3]},
                            mask=(3, 4))

    def test_reset_reproduces_fresh_rollout(self, rng):
        params = self.modules[5]
        frames = [FeatureMap(rng.normal(size=(8, 8, 10)), 5) for _ in range(10)]
        state = init_state((8, 10), params)
        for f in frames[:6]:
            _, state = convlstm_step(f, state, params)
        state = init_state((8, 10), params)  # reset mid-rollout
        outs_after_reset = []
        for f in frames[6:]:
            out, state = convlstm_step(f, state, params)
            outs_after_reset.append(out.values)
        fresh = init_state((8, 10), params)
        for k, f in enumerate(frames[6:]):
            out, fresh = convlstm_step(f, fresh, params)
            assert np.array_equal(out.values, outs_after_reset[k])


class TestParamsIO:
    def test_params_roundtrip_bit_exact(self):
        params = random_params(4, 8, 3, seed=11, f32=True)
        blob, manifest = save_params(params)
        again = load_params(blob, manifest)
        assert save_params(again)[0] == blob
        assert again.kernel_size == 3
        assert again.input_dim == 4 and again.hidden_dim == 8
        assert np.array_equal(again.w_x, params.w_x)
        assert np.array_equal(again.proj, params.proj)

    def test_params_without_projection(self):
        params = random_params(4, 4, 1, seed=2, f32=True)
        blob, manifest = save_params(params)
        again = load_params(blob, manifest)
        assert again.proj is None
        assert np.array_equal(again.w_h, params.w_h)

    def test_state_roundtrip(self, rng):
        state = ConvLSTMState(
            rng.normal(size=(4, 5, 6)).astype(np.float32).astype(np.float64),
            rng.normal(size=(4, 5, 6)).astype(np.float32).astype(np.float64),
        )
        blob, manifest = save_state(state)
        again = load_state(blob, manifest)
        assert np.array_equal(again.h, state.h)
        assert np.array_equal(again.c, state.c)

    def test_bad_shapes_are_shape_mismatch(self):
        blob, manifest = save_params(ConvLSTMParams.zeros(2, 2, 1))
        for bad in (manifest.replace("w_x 8 2 1 1", "w_x 8 2"),
                    manifest.replace("w_h 8 2 1 1", "w_h 4 4 1 1")):
            with pytest.raises(ShapeMismatch):
                load_params(blob, bad)
        blob, manifest = save_state(ConvLSTMState(np.zeros((2, 3, 4)), np.zeros((2, 3, 4))))
        with pytest.raises(ShapeMismatch):
            load_state(blob, manifest.replace("c 2 3 4", "c 2 4 3"))

    @pytest.mark.parametrize("line, lineno", [
        ("h -2 -1", 1),  # negative dimensions with a positive product
        ("h -1", 1),
        ("c 2 3 4", 2),  # the second "c" is the repeat
        ("h 0 99999999999999999999", 1),  # empty, but too large for numpy
    ])
    def test_bad_manifest_line_is_parse_error(self, line, lineno):
        blob, manifest = save_state(ConvLSTMState(np.zeros((2, 3, 4)), np.zeros((2, 3, 4))))
        with pytest.raises(ParseError) as exc:
            load_state(blob, manifest.replace("h 2 3 4", line))
        assert exc.value.index == lineno

    def test_truncated_blob_rejected(self):
        params = ConvLSTMParams.zeros(2, 2, 1)
        blob, manifest = save_params(params)
        with pytest.raises(TruncatedFile):
            load_params(blob[:-4], manifest)
        with pytest.raises(TruncatedFile):
            load_params(blob + b"\x00" * 4, manifest)
        with pytest.raises(TruncatedFile):  # a count past int64 is still just too long
            load_params(blob, "w_x 99999999999999999999\n" + manifest)
