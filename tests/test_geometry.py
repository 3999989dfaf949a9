from __future__ import annotations

import numpy as np
import pytest

from evkit.codec import AnnotatedBox
from evkit.errors import NotDivisible, SingularTransform
from evkit.geometry import AffineTransform, downscale, map_boxes, pad_to_multiple
from evkit.representation import FrameTensor

from oracles import naive_downscale

METHODS = ("nearest", "bilinear", "bicubic")


class TestAffine:
    def test_identity_apply(self):
        pts = np.array([[1.0, 2.0], [3.5, -4.0]])
        assert np.array_equal(AffineTransform.identity().apply(pts), pts)

    def test_compose_order(self):
        # scale-then-translate differs from translate-then-scale
        s = AffineTransform.scaling(2.0)
        t = AffineTransform.translation(1.0, 0.0)
        p = np.array([[1.0, 1.0]])
        assert np.allclose(t.compose(s).apply(p), [[3.0, 2.0]])
        assert np.allclose(s.compose(t).apply(p), [[4.0, 2.0]])

    def test_inverse_roundtrip(self, rng):
        m = AffineTransform(rng.normal(size=(2, 3)) + np.array([[2, 0, 0], [0, 2, 0]]))
        pts = rng.normal(size=(17, 2))
        assert np.allclose(m.inverse().apply(m.apply(pts)), pts, atol=1e-9)

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            AffineTransform(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            AffineTransform.translation(bad, 0.0)

    def test_about_center_fixes_center(self):
        rot = AffineTransform.rotation_deg(37.0).about(5.0, 7.0)
        assert np.allclose(rot.apply(np.array([[5.0, 7.0]])), [[5.0, 7.0]])


class TestDownscale:
    def test_gen4_downscale_shape(self):
        frame = FrameTensor(np.zeros((20, 720, 1280), dtype=np.uint16))
        out = downscale(frame, 2, "bilinear")
        assert out.shape == (20, 360, 640)
        assert out.values.dtype == np.float32

    @pytest.mark.parametrize("method", METHODS)
    def test_constant_frame_preserved(self, method):
        frame = FrameTensor(np.full((3, 8, 12), 7, dtype=np.uint16))
        out = downscale(frame, 2, method)
        assert np.array_equal(out.values, np.full((3, 4, 6), 7.0, dtype=np.float32))

    @pytest.mark.parametrize("method", METHODS)
    def test_matches_naive_oracle(self, rng, method):
        values = rng.uniform(0, 255, (1, 8, 8)).astype(np.float32)
        out = downscale(FrameTensor(values), 2, method)
        expected = np.array(naive_downscale(values.astype(np.float64), 2, method))
        assert np.allclose(out.values, expected, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("factor", (1, 2, 3, 4))
    def test_matches_naive_many_sizes(self, rng, method, factor):
        for _ in range(10):
            h = int(rng.integers(1, 9)) * factor
            w = int(rng.integers(1, 9)) * factor
            c = int(rng.integers(1, 4))
            values = rng.uniform(0, 1000, (c, h, w))
            out = downscale(FrameTensor(values.astype(np.float32)), factor, method)
            expected = np.array(
                naive_downscale(values.astype(np.float32).astype(np.float64),
                                factor, method)
            )
            assert np.allclose(out.values, expected, rtol=1e-6, atol=1e-6)
        # Dyadic weights on integer counts leave no rounding: exact equality.
        for _ in range(10):
            h = int(rng.integers(1, 9)) * factor
            w = int(rng.integers(1, 9)) * factor
            c = int(rng.integers(1, 4))
            counts = rng.integers(0, 65536, (c, h, w)).astype(np.uint16)
            out = downscale(FrameTensor(counts), factor, method)
            expected = np.array(naive_downscale(counts, factor, method), dtype=np.float32)
            assert np.array_equal(out.values, expected)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            downscale(FrameTensor(np.zeros((1, 7, 8), dtype=np.uint16)), 2)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            downscale(FrameTensor(np.zeros((1, 4, 4), dtype=np.uint16)), 2, "area")

    def test_bilinear_mean_preserved_even_factor(self, rng):
        # factor-2 bilinear at half-pixel centers averages 2x2 blocks
        values = rng.uniform(0, 10, (2, 6, 8))
        out = downscale(FrameTensor(values.astype(np.float32)), 2, "bilinear")
        blocks = values.astype(np.float64).reshape(2, 3, 2, 4, 2).mean(axis=(2, 4))
        assert np.allclose(out.values, blocks, rtol=1e-6)


class TestPad:
    def test_gen1_pad_example(self):
        frame = FrameTensor(np.ones((20, 240, 304), dtype=np.uint16))
        out, pads = pad_to_multiple(frame, 32)
        assert out.shape == (20, 256, 320)
        assert pads == (16, 16)
        assert np.array_equal(out.values[:, :240, :304], frame.values)
        assert not out.values[:, 240:, :].any()
        assert not out.values[:, :, 304:].any()

    def test_gen4_pad_example(self):
        frame = FrameTensor(np.ones((20, 360, 640), dtype=np.float32))
        out, pads = pad_to_multiple(frame, 32)
        assert out.shape == (20, 384, 640)
        assert pads == (24, 0)

    def test_already_multiple_is_identity(self):
        frame = FrameTensor(np.ones((4, 64, 32), dtype=np.uint16))
        out, pads = pad_to_multiple(frame, 32)
        assert pads == (0, 0)
        assert out is frame

    def test_crop_back_is_identity(self, rng):
        values = rng.integers(0, 99, (3, 17, 23)).astype(np.uint16)
        out, (ph, pw) = pad_to_multiple(FrameTensor(values), 16)
        assert np.array_equal(out.values[:, : 17, : 23], values)
        assert out.shape == (3, 32, 32)


class TestMapBoxes:
    BOX = AnnotatedBox(t=0, x=10, y=20, w=30, h=40, class_id=1, score=0.5, track_id=9)

    def test_halving(self):
        out = map_boxes([self.BOX], 0.5)[0]
        assert (out.x, out.y, out.w, out.h) == (5, 10, 15, 20)
        assert (out.class_id, out.score, out.track_id) == (1, 0.5, 9)

    def test_identity(self):
        assert map_boxes([self.BOX], 1.0) == [self.BOX]

    def test_inverse_composition(self, rng):
        boxes = [
            AnnotatedBox(
                t=0,
                x=float(rng.uniform(0, 100)),
                y=float(rng.uniform(0, 100)),
                w=float(rng.uniform(1, 50)),
                h=float(rng.uniform(1, 50)),
                class_id=0,
            )
            for _ in range(100)
        ]
        roundtrip = map_boxes(map_boxes(boxes, 0.5), 2.0)
        for a, b in zip(roundtrip, boxes):
            assert a.x == pytest.approx(b.x, abs=1e-6)
            assert a.y == pytest.approx(b.y, abs=1e-6)
            assert a.w == pytest.approx(b.w, abs=1e-6)
            assert a.h == pytest.approx(b.h, abs=1e-6)

    def test_composition_commutes(self, rng):
        once = map_boxes(map_boxes([self.BOX], 0.5), 3.0)
        direct = map_boxes([self.BOX], 1.5)
        assert once[0].x == pytest.approx(direct[0].x)
        assert once[0].w == pytest.approx(direct[0].w)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            map_boxes([self.BOX], 0.0)

    def test_infinite_scale_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            map_boxes([self.BOX], float("inf"))
