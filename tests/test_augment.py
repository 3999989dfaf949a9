from __future__ import annotations

import warnings

import numpy as np
import pytest

from evkit import augment as augmod
from evkit.augment import (
    AugmentConfig,
    SampledAugmentation,
    apply_to_boxes,
    apply_to_frame,
    augment_clip,
    sample_augmentation,
)
from evkit.codec import AnnotatedBox
from evkit.errors import NonFiniteValue, ShapeMismatch
from evkit.geometry import AffineTransform
from evkit.representation import FrameTensor

from conftest import traced_peak
from oracles import apply_to_boxes_loop, box_iou_ref, dense_point_hull, naive_warp


def geometric_only(**kwargs) -> AugmentConfig:
    return AugmentConfig(erase_p=0.0, **kwargs)


def manual_aug(height, width, transform, erasure=None, hflip=False) -> SampledAugmentation:
    return SampledAugmentation(
        height=height, width=width, hflip=hflip, angle_deg=None, translate_px=None,
        scale=None, shear_deg=None, transform=transform, erasure=erasure,
    )


class TestSampling:
    def test_all_probabilities_zero_is_identity(self):
        aug = sample_augmentation(AugmentConfig.disabled(), 24, 32, 0)
        assert aug.is_geometric_identity
        assert aug.erasure is None
        assert aug.transform == AffineTransform.identity()

    def test_fixed_seed_reproducible(self):
        cfg = AugmentConfig(hflip_p=1, rotate_p=1, translate_p=1, scale_p=1,
                            shear_p=1, erase_p=1)
        a = sample_augmentation(cfg, 24, 32, 7)
        b = sample_augmentation(cfg, 24, 32, 7)
        assert a == b
        assert a.hflip and a.angle_deg is not None and a.erasure is not None

    def test_magnitudes_within_ranges(self, rng):
        cfg = AugmentConfig(hflip_p=1, rotate_p=1, translate_p=1, scale_p=1,
                            shear_p=1, erase_p=1)
        for seed in range(50):
            a = sample_augmentation(cfg, 48, 64, seed)
            assert abs(a.angle_deg) <= cfg.rotate_deg
            assert abs(a.translate_px[0]) <= cfg.translate_frac * 64
            assert abs(a.translate_px[1]) <= cfg.translate_frac * 48
            assert cfg.scale_range[0] <= a.scale <= cfg.scale_range[1]
            assert abs(a.shear_deg[0]) <= cfg.shear_deg
            top, left, eh, ew = a.erasure
            assert 0 <= top and top + eh <= 48 and 0 <= left and left + ew <= 64

    def test_monte_carlo_applied_rates(self):
        cfg = AugmentConfig()
        n = 10_000
        master = np.random.default_rng(99)
        counts = {"hflip": 0, "rotate": 0, "translate": 0, "scale": 0,
                  "shear": 0, "erase": 0}
        for child in master.spawn(n):
            a = sample_augmentation(cfg, 24, 32, child)
            counts["hflip"] += a.hflip
            counts["rotate"] += a.angle_deg is not None
            counts["translate"] += a.translate_px is not None
            counts["scale"] += a.scale is not None
            counts["shear"] += a.shear_deg is not None
            counts["erase"] += a.erasure is not None
        assert counts["hflip"] / n == pytest.approx(0.5, abs=0.02)
        for key in ("rotate", "translate", "scale", "shear"):
            assert counts[key] / n == pytest.approx(0.6, abs=0.02)
        # erase can fall back to no-op when size draws don't fit; 24x32 fits easily
        assert counts["erase"] / n == pytest.approx(0.4, abs=0.02)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            AugmentConfig(hflip_p=1.5)
        with pytest.raises(ValueError):
            AugmentConfig(scale_range=(1.5, 0.5))


class TestApplyToFrame:
    def test_identity_returns_frame_unchanged(self, rng):
        frame = FrameTensor(rng.integers(0, 9, (2, 6, 8)).astype(np.uint16))
        aug = sample_augmentation(AugmentConfig.disabled(), 6, 8, 0)
        out = apply_to_frame(frame, aug)
        assert out is frame

    def test_double_hflip_is_identity(self, rng):
        values = rng.integers(0, 4_000, (4, 24, 32)).astype(np.uint16)
        frame = FrameTensor(values)
        aug = manual_aug(24, 32, AffineTransform.hflip(32), hflip=True)
        twice = apply_to_frame(apply_to_frame(frame, aug), aug)
        assert np.array_equal(twice.values, values)

    def test_integer_translation_shifts_exactly(self, rng):
        values = rng.integers(0, 99, (3, 10, 12)).astype(np.uint16)
        aug = manual_aug(10, 12, AffineTransform.translation(4.0, 3.0))
        out = apply_to_frame(FrameTensor(values), aug)
        assert np.array_equal(out.values[:, 3:, 4:], values[:, :-3, :-4])
        assert not out.values[:, :3, :].any()
        assert not out.values[:, :, :4].any()

    def test_erasure_zeroes_all_channels(self, rng):
        values = rng.integers(1, 9, (3, 10, 12)).astype(np.uint16)
        aug = manual_aug(10, 12, AffineTransform.identity(), erasure=(2, 3, 4, 5))
        out = apply_to_frame(FrameTensor(values), aug)
        assert not out.values[:, 2:6, 3:8].any()
        mask = np.ones((10, 12), dtype=bool)
        mask[2:6, 3:8] = False
        assert np.array_equal(out.values[:, mask], values[:, mask])
        assert out.values.dtype == np.uint16

    def test_shape_preserved_under_warp(self, rng):
        frame = FrameTensor(rng.uniform(size=(5, 20, 30)).astype(np.float32))
        cfg = AugmentConfig(hflip_p=1, rotate_p=1, translate_p=1, scale_p=1,
                            shear_p=1, erase_p=1)
        out = apply_to_frame(frame, sample_augmentation(cfg, 20, 30, 3))
        assert out.shape == frame.shape

    def test_size_mismatch_rejected(self, rng):
        frame = FrameTensor(np.zeros((1, 4, 4), dtype=np.uint16))
        aug = sample_augmentation(AugmentConfig(), 8, 8, 0)
        with pytest.raises(ShapeMismatch):
            apply_to_frame(frame, aug)

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    def test_warp_matches_per_pixel_oracle(self, rng, dtype):
        cfg = AugmentConfig(hflip_p=1, rotate_p=1, translate_p=1, scale_p=1,
                            shear_p=1, erase_p=1)
        for seed in range(6):
            values = rng.normal(size=(2, 11, 14)) * 300 + 200
            values = (values.clip(0) if dtype == np.uint16 else values).astype(dtype)
            aug = sample_augmentation(cfg, 11, 14, seed)
            expected = naive_warp(values, aug.transform)
            if aug.erasure is not None:
                top, left, eh, ew = aug.erasure
                expected[:, top : top + eh, left : left + ew] = 0
            out = apply_to_frame(FrameTensor(values), aug).values
            assert out.dtype == np.float32
            assert out.tobytes() == expected.tobytes()

    # (transform, C, H, W, kept pixels against a BLOCK of 7)
    BLOCK_EDGES = {
        "ragged last block": (AffineTransform.rotation_deg(30).about(4.5, 3.0), 2, 6, 9, "ragged"),
        "less than one block": (AffineTransform.translation(0.25, 3.5), 2, 4, 5, 5),
        "exactly one block": (AffineTransform.translation(0.25, 3.5), 3, 4, 7, 7),
        "all outside": (AffineTransform.translation(100.0, 0.0), 2, 4, 5, 0),
    }

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    @pytest.mark.parametrize("case", BLOCK_EDGES)
    def test_block_edges_match_per_pixel_oracle(self, rng, monkeypatch, case, dtype):
        monkeypatch.setattr(augmod, "BLOCK", 7)
        transform, c, h, w, kept = self.BLOCK_EDGES[case]
        aug = manual_aug(h, w, transform)
        n = augmod._warp_taps(aug).kept.size
        assert (n % 7 and n > 7) if kept == "ragged" else n == kept
        values = rng.normal(size=(c, h, w)) * 300
        if dtype == np.uint16:
            values = values.clip(0)
        else:
            values[np.abs(values) < 100] = -0.0
        values = values.astype(dtype)
        out = apply_to_frame(FrameTensor(values), aug).values
        assert out.tobytes() == naive_warp(values, transform).tobytes()
        assert out.any() == (n > 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("transform", [AffineTransform.translation(2.5, 0.0),
                                           AffineTransform.identity()])
    def test_non_finite_frame_rejected_at_first_index(self, bad, transform):
        # A warp would carry inf in column 0 into columns 2 and 3 of its output.
        values = np.ones((2, 8, 8), dtype=np.float32)
        values[1, 3:, 0] = bad
        with pytest.raises(NonFiniteValue) as exc:
            apply_to_frame(FrameTensor(values), manual_aug(8, 8, transform, erasure=(0, 0, 1, 1)))
        assert exc.value.index == 64 + 3 * 8

    def test_warp_memory_is_frame_source_and_fixed_buffers(self):
        # One gen1 frame through a prebuilt table holds its float32 output, one
        # pixel-major copy of the input (its zero border adds 46 KB) and the
        # BLOCK buffers, not (kept, C) float64 sums.
        c, h, w = 20, 256, 320
        frame = FrameTensor(np.ones((c, h, w), dtype=np.uint16))
        aug = manual_aug(h, w, AffineTransform.rotation_deg(20).about(w / 2, h / 2))
        taps = augmod._warp_taps(aug)
        peak = traced_peak(apply_to_frame, frame, aug, taps)
        assert peak < c * h * w * 4 + frame.values.nbytes + 4 * 2**20

    def test_tap_table_build_memory_is_its_table(self):
        # Row slabs: the build holds the kept taps of each slab and their
        # concatenation, never (4, H*W) arrays over pixels it drops.
        h, w = 256, 320
        aug = manual_aug(h, w, AffineTransform.rotation_deg(20).about(w / 2, h / 2)
                         .compose(AffineTransform.scaling(0.7).about(w / 2, h / 2)))
        table = sum(a.nbytes for a in augmod._warp_taps(aug))
        assert table < 0.7 * h * w * 32  # kept, base, fx and fy: 8 bytes each per pixel
        assert traced_peak(augmod._warp_taps, aug) < 2 * table + 4 * 2**20

    def test_far_off_translation_reads_nothing(self, rng):
        # Every sampling position is about -1e306: finite, but far past int64.
        aug = manual_aug(6, 8, AffineTransform.translation(1e306, 0.0))
        values = rng.uniform(1, 2, size=(2, 6, 8)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert augmod._warp_taps(aug).kept.size == 0
            out = apply_to_frame(FrameTensor(values), aug).values
        assert out.dtype == np.float32 and not out.any()

    def test_nan_sampling_positions_read_nothing(self, rng, monkeypatch):
        # Whether a finite affine can map a pixel center to NaN depends on how
        # the platform sums a dot product (with a fused multiply-add it cannot),
        # so the inverse map is replaced: every x is NaN, every y in the frame.
        def nan_x(transform, points):
            return np.column_stack([np.full(len(points), np.nan), points[:, 1]])

        monkeypatch.setattr(AffineTransform, "apply", nan_x)
        aug = manual_aug(6, 8, AffineTransform.translation(0.5, 0.0))
        values = rng.uniform(1, 2, size=(2, 6, 8)).astype(np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert augmod._warp_taps(aug).kept.size == 0
            out = apply_to_frame(FrameTensor(values), aug).values
        assert out.dtype == np.float32 and not out.any()

    def test_determinism_bit_for_bit(self, rng):
        frame = FrameTensor(rng.uniform(size=(2, 16, 16)).astype(np.float32))
        cfg = AugmentConfig()
        a = apply_to_frame(frame, sample_augmentation(cfg, 16, 16, 5))
        b = apply_to_frame(frame, sample_augmentation(cfg, 16, 16, 5))
        assert np.array_equal(a.values, b.values)


class TestApplyToBoxes:
    BOX = AnnotatedBox(t=0, x=10, y=20, w=30, h=40, class_id=0, score=0.9, track_id=4)

    def test_identity(self):
        aug = sample_augmentation(AugmentConfig.disabled(), 240, 304, 0)
        assert apply_to_boxes([self.BOX], aug) == [self.BOX]

    def test_hflip_box_in_304_image(self):
        aug = manual_aug(240, 304, AffineTransform.hflip(304), hflip=True)
        out = apply_to_boxes([self.BOX], aug)[0]
        assert (out.x, out.y, out.w, out.h) == (264, 20, 30, 40)
        assert (out.class_id, out.score, out.track_id) == (0, 0.9, 4)

    def test_rotation_matches_dense_point_hull(self, rng):
        for seed in range(30):
            r = np.random.default_rng(seed)
            box = AnnotatedBox(
                t=0,
                x=float(r.uniform(60, 120)), y=float(r.uniform(60, 100)),
                w=float(r.uniform(10, 40)), h=float(r.uniform(10, 40)),
                class_id=0,
            )
            angle = float(r.uniform(-30, 30))
            m = AffineTransform.rotation_deg(angle).about(152.0, 120.0)
            aug = SampledAugmentation(240, 304, False, angle, None, None, None, m, None)
            out = apply_to_boxes([box], aug)
            assert len(out) == 1
            x0, y0, x1, y1 = dense_point_hull((box.x, box.y, box.w, box.h),
                                              m.matrix.tolist())
            assert out[0].x == pytest.approx(x0, abs=1.0)
            assert out[0].y == pytest.approx(y0, abs=1.0)
            assert out[0].x + out[0].w == pytest.approx(x1, abs=1.0)
            assert out[0].y + out[0].h == pytest.approx(y1, abs=1.0)

    def test_erasure_never_touches_boxes(self):
        aug = manual_aug(240, 304, AffineTransform.identity(), erasure=(15, 5, 60, 60))
        assert apply_to_boxes([self.BOX], aug) == [self.BOX]

    def test_boxes_clipped_to_image(self):
        aug = manual_aug(240, 304, AffineTransform.translation(-20.0, 0.0))
        out = apply_to_boxes([self.BOX], aug)[0]
        assert out.x == 0.0
        assert out.w == pytest.approx(20.0)

    def test_out_of_frame_box_dropped(self):
        aug = manual_aug(240, 304, AffineTransform.translation(-500.0, 0.0))
        assert apply_to_boxes([self.BOX], aug) == []

    def test_low_visibility_dropped(self):
        # keep 5% of the box inside: below the 10% visibility default
        aug = manual_aug(240, 304, AffineTransform.translation(-38.5, 0.0))
        box = AnnotatedBox(t=0, x=10, y=20, w=30, h=40, class_id=0)
        assert apply_to_boxes([box], aug) == []

    def test_tiny_clipped_area_dropped(self):
        box = AnnotatedBox(t=0, x=0, y=0, w=4, h=4, class_id=0)
        aug = manual_aug(240, 304, AffineTransform.translation(-3.5, -3.5))
        # clipped area 0.25 px^2 < 4 px^2
        assert apply_to_boxes([box], aug) == []


class TestApplyToBoxesMatchesLoop:
    H, W = 240, 304

    def random_boxes(self, r, n):
        """Boxes inside, across and fully outside the frame, and boxes whose
        edges lie on the frame's edges (including -0.0 corners)."""
        boxes = []
        for k in range(n):
            w, h = float(r.uniform(0.5, 120)), float(r.uniform(0.5, 90))
            x, y = float(r.uniform(-150, self.W + 50)), float(r.uniform(-120, self.H + 40))
            kind = k % 4
            if kind == 1:
                x, y = float(r.choice([0.0, -0.0, self.W - w])), float(r.choice([0.0, self.H - h]))
            elif kind == 2:
                x, y = float(r.choice([-w - 5, self.W + 5])), float(r.uniform(0, self.H))
            boxes.append(AnnotatedBox(t=k, x=x, y=y, w=w, h=h, class_id=k % 3,
                                      score=float(r.uniform(0, 1)), track_id=k or None))
        return boxes

    def draws(self, r):
        every = AugmentConfig(hflip_p=1, rotate_p=1, translate_p=1, scale_p=1, shear_p=1,
                              erase_p=1)
        yield manual_aug(self.H, self.W, AffineTransform.hflip(self.W), hflip=True)
        yield manual_aug(self.H, self.W, AffineTransform.translation(-20.0, 7.5))
        for _ in range(3):
            yield sample_augmentation(every, self.H, self.W, r)
            yield sample_augmentation(AugmentConfig(), self.H, self.W, r)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 17, 100])
    def test_bit_for_bit(self, n):
        # Varied counts: a BLAS kernel may round differently by row count.
        r = np.random.default_rng(1000 + n)
        for aug in self.draws(r):
            boxes = self.random_boxes(r, n)
            for min_area, min_visibility in ((4.0, 0.1), (0.0, 0.0), (50.0, 0.6)):
                rows = [[(b.t, repr(b.x), repr(b.y), repr(b.w), repr(b.h), b.class_id,
                          b.score, b.track_id)
                         for b in fn(boxes, aug, min_area, min_visibility)]
                        for fn in (apply_to_boxes, apply_to_boxes_loop)]
                assert rows[0] == rows[1]


class TestFrameBoxConsistency:
    def test_warped_mask_iou(self):
        cfg = geometric_only(
            hflip_p=0.5, rotate_p=1.0, translate_p=1.0, translate_frac=0.1,
            scale_p=1.0, scale_range=(0.8, 1.25), shear_p=1.0, shear_deg=15.0,
        )
        checked = 0
        for seed in range(200):
            r = np.random.default_rng(seed)
            h = w = 200
            bw, bh = float(r.uniform(50, 90)), float(r.uniform(50, 90))
            bx = float(r.uniform(10, w - bw - 10))
            by = float(r.uniform(10, h - bh - 10))
            values = np.zeros((1, h, w), dtype=np.float32)
            values[0, int(by) : int(by + bh), int(bx) : int(bx + bw)] = 1.0
            box = AnnotatedBox(t=0, x=bx, y=by, w=bw, h=bh, class_id=0)
            aug = sample_augmentation(cfg, h, w, r)
            corners = aug.transform.apply(
                np.array([[bx, by], [bx + bw, by], [bx, by + bh], [bx + bw, by + bh]])
            )
            if corners.min() < 1 or corners[:, 0].max() > w - 1 or corners[:, 1].max() > h - 1:
                continue  # only in-bounds results are comparable
            out_frame = apply_to_frame(FrameTensor(values), aug)
            out_box = apply_to_boxes([box], aug)
            assert len(out_box) == 1
            ys, xs = np.nonzero(out_frame.values[0] > 1e-3)
            mask_box = (xs.min(), ys.min(), xs.max() + 1 - xs.min(), ys.max() + 1 - ys.min())
            b = out_box[0]
            iou = box_iou_ref(mask_box, (b.x, b.y, b.w, b.h))
            assert iou >= 0.9, f"seed {seed}: IoU {iou:.3f}"
            checked += 1
        assert checked >= 100


class TestClipMode:
    def test_identical_frames_stay_identical(self, rng):
        frame = FrameTensor(rng.uniform(size=(2, 20, 24)).astype(np.float32))
        frames = [frame] * 5
        cfg = geometric_only(rotate_p=1.0, scale_p=1.0)
        out, _, log = zip(*augment_clip(frames, [[]] * 5, cfg, 11))
        for f in out[1:]:
            assert np.array_equal(f.values, out[0].values)
        assert all(l.transform == log[0].transform for l in log)

    def test_per_frame_erasure_varies(self, rng):
        frame = FrameTensor(np.ones((1, 40, 40), dtype=np.float32))
        cfg = AugmentConfig(hflip_p=0, rotate_p=0, translate_p=0, scale_p=0,
                            shear_p=0, erase_p=1.0)
        _, _, log = zip(*augment_clip([frame] * 21, [[]] * 21, cfg, 3))
        rects = {l.erasure for l in log}
        assert len(rects) >= 2

    def test_single_frame_clip_equals_frame_mode(self, rng):
        frame = FrameTensor(rng.uniform(size=(2, 12, 12)).astype(np.float32))
        cfg = AugmentConfig()
        direct = sample_augmentation(cfg, 12, 12, np.random.default_rng(21))
        _, _, log = zip(*augment_clip([frame], [[]], cfg, np.random.default_rng(21)))
        assert log[0] == direct

    def test_frame_count_does_not_perturb_geometry(self):
        cfg = AugmentConfig()
        frame = FrameTensor(np.zeros((1, 16, 16), dtype=np.float32))
        logs = []
        for n in (1, 4, 21):
            _, _, log = zip(*augment_clip([frame] * n, [[]] * n, cfg,
                                          np.random.default_rng(5)))
            logs.append(log[0])
        assert logs[0].transform == logs[1].transform == logs[2].transform
        assert logs[0].hflip == logs[1].hflip == logs[2].hflip

    def test_mixed_shapes_rejected(self):
        a = FrameTensor(np.zeros((1, 8, 8), dtype=np.float32))
        b = FrameTensor(np.zeros((1, 8, 10), dtype=np.float32))
        c = FrameTensor(np.zeros((2, 8, 8), dtype=np.float32))
        for clip in ([a, b], [a, c]):
            with pytest.raises(ShapeMismatch):
                list(augment_clip(clip, [[], []], AugmentConfig(), 0))

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    def test_shared_tap_table_matches_frame_draw(self, rng, dtype):
        # The clip warps every frame through one tap table; each frame must be
        # byte-equal to warping it alone, and to the per-pixel oracle, including
        # output pixels whose taps all fall outside the frame and -0.0 inputs.
        cfg = AugmentConfig(hflip_p=1, rotate_p=1, translate_p=1, scale_p=1, shear_p=1,
                            erase_p=0.5)
        centers = np.array([[x + 0.5, y + 0.5] for y in range(13) for x in range(17)])
        outside = 0
        for seed in range(4):
            values = rng.normal(size=(3, 2, 13, 17)) * 300
            if dtype == np.uint16:
                values = values.clip(0)
            else:
                values[np.abs(values) < 100] = -0.0
            frames = [FrameTensor(v.astype(dtype)) for v in values]
            clip = augment_clip(frames, [[]] * 3, cfg, seed)
            for frame, (out, _, aug) in zip(frames, clip, strict=True):
                assert out.values.dtype == np.float32
                assert out.values.tobytes() == apply_to_frame(frame, aug).values.tobytes()
                expected = naive_warp(frame.values, aug.transform)
                if aug.erasure is not None:
                    top, left, eh, ew = aug.erasure
                    expected[:, top : top + eh, left : left + ew] = 0
                assert out.values.tobytes() == expected.tobytes()
            sx, sy = (aug.transform.inverse().apply(centers) - 0.5).T
            outside += np.count_nonzero((sx < -1) | (sx >= 17) | (sy < -1) | (sy >= 13))
        assert outside > 0

    def test_empty_clip_rejected(self):
        with pytest.raises(ValueError):
            list(augment_clip([], [], AugmentConfig(), 0))

    def test_pulls_each_frame_when_it_is_augmented(self):
        pulled = []

        def frames():
            for k in range(5):
                pulled.append(k)
                yield FrameTensor(np.full((1, 8, 8), k, dtype=np.float32))

        clip = augment_clip(frames(), [[]] * 5, AugmentConfig(), 4)
        assert pulled == []
        for k, _ in enumerate(clip):
            assert pulled == list(range(k + 1))
        assert pulled == list(range(5))

    @pytest.mark.parametrize("n_boxes", [2, 4])
    def test_misaligned_boxes_rejected(self, n_boxes):
        frame = FrameTensor(np.zeros((1, 8, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            list(augment_clip(iter([frame] * 3), iter([[]] * n_boxes), AugmentConfig(), 0))
