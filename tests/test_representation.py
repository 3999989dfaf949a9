from __future__ import annotations

import numpy as np
import pytest

from evkit import representation as rep
from evkit.errors import BadHeader, BadMagic, EventOutsideWindow, FutureEvent, TruncatedFile
from evkit.event_core import Event, EventStream, SensorGeometry, TimeWindow, validate_stream

from conftest import make_stream
from oracles import last_event_times, stacked_counts

GEOM = SensorGeometry(32, 24)


class TestStackedHistogram:
    def test_channel_count_is_2b(self):
        cfg = rep.StackedHistogramConfig(t_frame=50_000, n_bins=10)
        s = validate_stream([], SensorGeometry(304, 240))
        f = rep.stacked_histogram(s, TimeWindow(0, 50_000), cfg)
        assert f.shape == (20, 240, 304)
        assert f.values.dtype == np.uint16

    def test_empty_window_all_zero(self):
        cfg = rep.StackedHistogramConfig()
        f = rep.stacked_histogram(validate_stream([], GEOM), TimeWindow(0, 50_000), cfg)
        assert not f.values.any()

    def test_matches_brute_force_counts(self, rng):
        cfg = rep.StackedHistogramConfig(t_frame=10_000, n_bins=10)
        s = make_stream(rng, 2_000, GEOM, 10_000)
        f = rep.stacked_histogram(s, TimeWindow(0, 10_000), cfg)
        assert int(f.values.sum(dtype=np.int64)) == 2_000
        expected = stacked_counts(
            [(e.t, e.x, e.y, e.p) for e in s], 0, cfg.t_bin, cfg.n_bins,
            GEOM.height, GEOM.width,
        )
        stacked = f.values.reshape(2, cfg.n_bins, GEOM.height, GEOM.width)
        nz = np.argwhere(stacked)
        assert len(nz) == len(expected)
        for p, i, y, x in nz:
            assert stacked[p, i, y, x] == expected[(p, i, y, x)]

    def test_channel_order_polarity_major(self, rng):
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=4)
        s = make_stream(rng, 500, GEOM, 1_000)
        f = rep.stacked_histogram(s, TimeWindow(0, 1_000), cfg)
        stacked = f.values.reshape(2, cfg.n_bins, GEOM.height, GEOM.width)
        for p in range(2):
            for i in range(cfg.n_bins):
                assert np.array_equal(f.values[p * cfg.n_bins + i], stacked[p, i])

    def test_event_outside_window_rejected(self):
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=2)
        s = validate_stream([Event(5_000, 0, 0, 1)], GEOM)
        with pytest.raises(EventOutsideWindow):
            rep.stacked_histogram(s, TimeWindow(0, 1_000), cfg)

    def test_window_length_must_match_config(self):
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=2)
        with pytest.raises(ValueError):
            rep.stacked_histogram(validate_stream([], GEOM), TimeWindow(0, 500), cfg)

    def test_clip_limit_saturates(self):
        # n events on one cell, on the sparse and the dense path (dense from a
        # 16th of the cell count on), capped by clip_limit or at 65535.
        cases = [  # geometry, events, clip_limit, dense path
            (GEOM, 7, 3, False),
            (GEOM, 200, 3, True),
            (GEOM, 70_000, None, True),
            (SensorGeometry(1280, 720), 70_000, None, False),
        ]
        for geometry, n, clip_limit, dense in cases:
            assert (n >= 2 * geometry.width * geometry.height // 16) == dense
            cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=1, clip_limit=clip_limit)
            s = EventStream(geometry, np.full(n, 10), np.full(n, 4), np.full(n, 5),
                            np.ones(n))
            f = rep.stacked_histogram(s, TimeWindow(0, 1_000), cfg)
            cap = rep.COUNT_MAX if clip_limit is None else clip_limit
            assert f.values[1, 5, 4] == cap
            assert int(f.values.sum(dtype=np.int64)) == cap

    def test_t_frame_divisibility_enforced(self):
        with pytest.raises(ValueError):
            rep.StackedHistogramConfig(t_frame=1_001, n_bins=10)

    def test_nonzero_window_origin(self):
        cfg = rep.StackedHistogramConfig(t_frame=100, n_bins=2)
        s = validate_stream([Event(149, 1, 1, 0), Event(150, 1, 1, 0)], GEOM)
        f = rep.stacked_histogram(s, TimeWindow(100, 200), cfg)
        assert f.values[0, 1, 1] == 1  # bin 0: [100, 150)
        assert f.values[1, 1, 1] == 1  # bin 1: [150, 200)


class TestHistogram2d:
    def test_equals_stacked_with_one_bin(self, rng):
        s = make_stream(rng, 800, GEOM, 5_000)
        window = TimeWindow(0, 5_000)
        direct = rep.histogram2d(s, window)
        cfg = rep.StackedHistogramConfig(t_frame=5_000, n_bins=1)
        assert np.array_equal(direct.values, rep.stacked_histogram(s, window, cfg).values)

    def test_single_event_placement(self):
        s = validate_stream([Event(7, 3, 4, 1)], GEOM)
        f = rep.histogram2d(s, TimeWindow(0, 100))
        assert f.values[1, 4, 3] == 1
        assert int(f.values.sum(dtype=np.int64)) == 1

    def test_channel_sums_match_polarity_counts(self, rng):
        s = make_stream(rng, 1_234, GEOM, 9_000)
        f = rep.histogram2d(s, TimeWindow(0, 9_000))
        assert int(f.values[0].sum(dtype=np.int64)) == int(np.count_nonzero(s.p == 0))
        assert int(f.values[1].sum(dtype=np.int64)) == int(np.count_nonzero(s.p == 1))

    def test_bin_refinement_property(self, rng):
        cfg = rep.StackedHistogramConfig(t_frame=8_000, n_bins=8)
        s = make_stream(rng, 3_000, GEOM, 8_000)
        window = TimeWindow(0, 8_000)
        stacked = rep.stacked_histogram(s, window, cfg)
        assert np.array_equal(
            rep.sum_over_bins(stacked, cfg.n_bins).values,
            rep.histogram2d(s, window).values,
        )


class TestTimeSurface:
    def test_event_at_t_ref_is_one(self):
        s = validate_stream([Event(1_000, 2, 3, 1)], GEOM)
        for mode in ("linear", "exponential"):
            f = rep.time_surface(s, t_ref=1_000, tau=500, mode=mode)
            assert f.values[1, 3, 2] == pytest.approx(1.0)

    def test_linear_reaches_zero_at_tau(self):
        s = validate_stream([Event(0, 2, 3, 0)], GEOM)
        f = rep.time_surface(s, t_ref=500, tau=500, mode="linear")
        assert f.values[0, 3, 2] == 0.0

    def test_future_event_rejected(self):
        s = validate_stream([Event(100, 0, 0, 1)], GEOM)
        with pytest.raises(FutureEvent):
            rep.time_surface(s, t_ref=99, tau=10)

    def test_matches_per_pixel_scan(self, rng):
        small = SensorGeometry(10, 8)
        s = make_stream(rng, 400, small, 2_000)
        t_ref, tau = 2_500, 700
        table = last_event_times([(e.t, e.x, e.y, e.p) for e in s], 8, 10)
        for mode in ("linear", "exponential"):
            f = rep.time_surface(s, t_ref, tau, mode)
            for p in range(2):
                for y in range(8):
                    for x in range(10):
                        last = table.get((p, y, x))
                        if last is None:
                            expected = 0.0
                        elif mode == "linear":
                            expected = max(0.0, 1.0 - (t_ref - last) / tau)
                        else:
                            expected = np.exp(-(t_ref - last) / tau)
                        assert f.values[p, y, x] == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_new_events(self, rng):
        small = SensorGeometry(6, 6)
        s = make_stream(rng, 100, small, 1_000)
        f1 = rep.time_surface(s, 2_000, 1_500)
        newer = validate_stream(
            [(e.t, e.x, e.y, e.p) for e in s] + [Event(1_800, 3, 3, 1)], small
        )
        f2 = rep.time_surface(newer, 2_000, 1_500)
        assert np.all(f2.values >= f1.values)

    def test_values_in_unit_interval(self, rng):
        s = make_stream(rng, 300, GEOM, 4_000)
        for mode in ("linear", "exponential"):
            f = rep.time_surface(s, 1_000_000, 100, mode)
            assert f.values.min() >= 0.0 and f.values.max() <= 1.0


class TestEvfContainer:
    def test_u16_roundtrip(self, rng):
        values = rng.integers(0, 2**16, (20, 16, 12)).astype(np.uint16)
        frame = rep.FrameTensor(values)
        out = rep.read_evf(rep.write_evf(frame))
        assert out.values.dtype == np.uint16
        assert np.array_equal(out.values, values)

    def test_f32_roundtrip_bit_exact(self, rng):
        values = rng.normal(size=(3, 5, 7)).astype(np.float32)
        blob = rep.write_evf(rep.FrameTensor(values))
        again = rep.write_evf(rep.read_evf(blob))
        assert blob == again

    def test_header_layout(self):
        frame = rep.FrameTensor(np.zeros((20, 384, 640), dtype=np.uint16))
        blob = rep.write_evf(frame)
        assert blob[:4] == b"EVF1"
        assert blob[4] == 1
        assert int.from_bytes(blob[6:8], "little") == 20
        assert int.from_bytes(blob[8:12], "little") == 384
        assert int.from_bytes(blob[12:16], "little") == 640
        assert len(blob) == 16 + 20 * 384 * 640 * 2

    def test_bad_magic_and_truncation(self):
        with pytest.raises(BadMagic):
            rep.read_evf(b"NOPE" + bytes(16))
        frame = rep.FrameTensor(np.zeros((1, 2, 2), dtype=np.float32))
        blob = rep.write_evf(frame)
        with pytest.raises(TruncatedFile):
            rep.read_evf(blob[:-2])
        with pytest.raises(BadHeader):
            rep.read_evf(blob[:4] + b"\x09" + blob[5:])

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            rep.write_evf(rep.FrameTensor(np.zeros((1, 2, 2), dtype=np.float64)))


class TestStats:
    def test_empty(self):
        stats = rep.event_rate_stats(validate_stream([], GEOM))
        assert stats["events"] == 0 and stats["rate_eps"] == 0.0

    def test_known_stream(self):
        s = validate_stream(
            [Event(0, 1, 1, 1), Event(500_000, 1, 1, 0), Event(999_999, 1, 1, 1)], GEOM
        )
        stats = rep.event_rate_stats(s)
        assert stats["events"] == 3
        assert stats["duration_us"] == 1_000_000
        assert stats["rate_eps"] == pytest.approx(3.0)
        assert stats["pos"] == 2 and stats["neg"] == 1
        assert stats["max_per_pixel"] == 3
