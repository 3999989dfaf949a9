from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

from evkit import representation as rep
from evkit.errors import (BadHeader, BadMagic, EventOutsideWindow, NonFiniteValue,
                          NotDivisible, TruncatedFile)
from evkit.event_core import Event, EventStream, SensorGeometry, TimeWindow, validate_stream
from evkit.geometry import EVEN_FACTOR_TAPS, downscale, pad_to_multiple

from conftest import make_stream
from oracles import stacked_counts

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

    # 40,000 events on 15,360 cells: more events than cells, most cells hit.
    @pytest.mark.parametrize("n", [2_000, 40_000])
    def test_matches_brute_force_counts(self, rng, n):
        cfg = rep.StackedHistogramConfig(t_frame=10_000, n_bins=10)
        s = make_stream(rng, n, GEOM, 10_000)
        f = rep.stacked_histogram(s, TimeWindow(0, 10_000), cfg)
        assert int(f.values.sum(dtype=np.int64)) == n
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
        # n events on one cell, fewer or more than the frame has cells,
        # capped by clip_limit or at 65535.
        cases = [  # geometry, events, clip_limit
            (GEOM, 7, 3),
            (GEOM, 200, 3),
            (GEOM, 70_000, None),
            (SensorGeometry(1280, 720), 70_000, None),
        ]
        for geometry, n, clip_limit in cases:
            cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=1, clip_limit=clip_limit)
            s = EventStream(geometry, np.full(n, 10), np.full(n, 4), np.full(n, 5),
                            np.ones(n, dtype=np.uint8))
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


class TestDownscaledPaddedLayout:
    """The saver writes what downscale and pad_to_multiple make of the frame."""

    GEOMETRY = SensorGeometry(36, 24)  # divisible by 1-4; no pad of 7 divides it

    def _windows(self, rng):
        g = self.GEOMETRY
        n_cells = 2 * 4 * g.width * g.height
        # 70,000 events on one right-edge cell saturate it; 300 more go anywhere.
        background = make_stream(rng, 300, g, 1_000)
        order = np.argsort(np.concatenate([background.t, np.full(70_000, 500)]), kind="stable")
        hot = [np.concatenate([column, np.full(70_000, value)])[order] for column, value in
               ((background.t, 500), (background.x, 35), (background.y, 0), (background.p, 1))]
        gaps = make_stream(rng, 60, g, 500, t_min=250)  # bins 0, 2 and 3 are empty
        return {"dense": make_stream(rng, n_cells // 4, g, 1_000),
                "sparse": make_stream(rng, 40, g, 1_000),
                "gaps": gaps,
                "empty": validate_stream([], g),
                "saturated": EventStream(g, *hot)}

    @staticmethod
    def _expected(stream, window, cfg, factor, method, multiple) -> bytes:
        frame = rep.stacked_histogram(stream, window, cfg)
        if factor > 1:
            frame = downscale(frame, factor, method)
        return rep.write_evf(pad_to_multiple(frame, multiple)[0])

    @pytest.mark.parametrize("clip_limit", [None, 3])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    @pytest.mark.parametrize("method", sorted(EVEN_FACTOR_TAPS))
    def test_matches_downscale_then_pad(self, rng, tmp_path, method, factor, clip_limit):
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=4, clip_limit=clip_limit)
        window = TimeWindow(0, 1_000)
        path = tmp_path / "f.evf"
        for name, stream in self._windows(rng).items():
            for multiple in (1, 7):
                rep.save_stacked_histogram(path, stream, window, cfg, factor=factor,
                                           method=method, pad_multiple=multiple)
                assert path.read_bytes() == self._expected(
                    stream, window, cfg, factor, method, multiple), (name, multiple)

    @pytest.mark.parametrize("clip_limit", [None, 3])
    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("method", sorted(EVEN_FACTOR_TAPS))
    def test_saver_writes_the_frame_bytes(self, rng, tmp_path, method, factor, clip_limit):
        # A pad wider than the frame's rows: the file equals save_evf of the oracle frame.
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=4, clip_limit=clip_limit)
        window = TimeWindow(0, 1_000)
        for name, stream in self._windows(rng).items():
            frame = rep.stacked_histogram(stream, window, cfg)
            if factor > 1:
                frame = downscale(frame, factor, method)
            rep.save_evf(tmp_path / "frame.evf", pad_to_multiple(frame, 32)[0])
            rep.save_stacked_histogram(tmp_path / "bins.evf", stream, window, cfg,
                                       factor=factor, method=method, pad_multiple=32)
            assert ((tmp_path / "bins.evf").read_bytes()
                    == (tmp_path / "frame.evf").read_bytes()), name

    def _clip_runs(self, tmp_path, monkeypatch, cells, method, clip_limit) -> int:
        """Save a one-bin window at factor 2 with `count` events (p = 1) at each
        (x, y, count) of `cells`, check its bytes against the oracle and return
        how often source cells were clipped in the term counts."""
        x, y = np.repeat(np.array([c[:2] for c in cells]).T, [c[2] for c in cells], axis=1)
        stream = EventStream(self.GEOMETRY, np.arange(x.size) * 1_000 // x.size, x, y,
                             np.ones(x.size, dtype=np.uint8))
        calls = []
        clip_cells = rep._clip_cells
        monkeypatch.setattr(rep, "_clip_cells", lambda *args: calls.append(args)
                            or clip_cells(*args))
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=1, clip_limit=clip_limit)
        window = TimeWindow(0, 1_000)
        rep.save_stacked_histogram(tmp_path / "f.evf", stream, window, cfg, factor=2,
                                   method=method, pad_multiple=1)
        assert (tmp_path / "f.evf").read_bytes() == self._expected(stream, window, cfg, 2,
                                                                   method, 1)
        return len(calls)

    def test_output_over_the_cap_with_no_source_cell_over_it(self, tmp_path, monkeypatch):
        # Output (2, 3) reads four cells of 2 events each: 8 events, cap 3.
        cells = [(4, 6, 2), (5, 6, 2), (4, 7, 2), (5, 7, 2)]
        assert self._clip_runs(tmp_path, monkeypatch, cells, "bilinear", 3) == 1
        assert rep.read_evf((tmp_path / "f.evf").read_bytes()).values[1, 3, 2] == 2.0

    def test_capped_cell_feeding_two_outputs_per_axis(self, tmp_path, monkeypatch):
        # Bicubic /2: cell (5, 7) feeds outputs 2 and 3 of each axis.  Its
        # neighbour (4, 7) shares its terms and stays under the cap.
        cells = [(5, 7, 10), (4, 7, 2), (20, 11, 1)]
        assert self._clip_runs(tmp_path, monkeypatch, cells, "bicubic", 3) == 1

    def test_zero_weight_column_adds_nothing(self, tmp_path, monkeypatch):
        # Nearest /2 reads even columns only: 70,000 events on column 1 are
        # over the default cap, but feed no output.
        cells = [(1, 5, 70_000), (2, 4, 1)]
        assert self._clip_runs(tmp_path, monkeypatch, cells, "nearest", None) == 0
        assert rep.read_evf((tmp_path / "f.evf").read_bytes()).values.sum() == 1.0

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_events_on_bin_edges_of_a_later_window(self, tmp_path, factor):
        # Frames are built one time bin at a time; each event on either side
        # of an edge must land in its own bin.
        g = self.GEOMETRY
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=4)
        window = TimeWindow(7_000, 8_000)
        t = np.repeat(7_000 + np.array([0, 249, 250, 499, 500, 749, 750, 999]), 3)
        k = np.arange(t.size)
        stream = EventStream(g, t, (5 * k) % g.width, (7 * k) % g.height, k % 2)
        rep.save_stacked_histogram(tmp_path / "f.evf", stream, window, cfg, factor=factor,
                                   method="bilinear", pad_multiple=5)
        assert (tmp_path / "f.evf").read_bytes() == self._expected(
            stream, window, cfg, factor, "bilinear", 5)

    @pytest.mark.parametrize("window, kwargs, error", [
        (TimeWindow(0, 1_000), {}, EventOutsideWindow),  # the event is at t=1_500
        (TimeWindow(1_000, 3_000), {}, ValueError),  # not t_frame long
        (TimeWindow(1_000, 2_000), {"pad_multiple": 0}, ValueError),
        (TimeWindow(1_000, 2_000), {"factor": 5}, NotDivisible),
        (TimeWindow(1_000, 2_000), {"method": "area"}, ValueError),
    ])
    def test_saver_checks_before_creating_the_file(self, tmp_path, window, kwargs, error):
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=4)
        stream = validate_stream([Event(1_500, 3, 4, 1)], self.GEOMETRY)
        path = tmp_path / "f.evf"
        with pytest.raises(error):
            rep.save_stacked_histogram(path, stream, window, cfg, **{
                "factor": 1, "method": "bilinear", "pad_multiple": 1, **kwargs})
        assert not path.exists()

    def test_bad_arguments(self, tmp_path):
        cfg = rep.StackedHistogramConfig(t_frame=1_000, n_bins=1)
        s = validate_stream([], GEOM)  # 32x24
        window = TimeWindow(0, 1_000)
        path = tmp_path / "f.evf"
        for kwargs, error in [({"factor": 5}, NotDivisible),
                              ({"factor": 0}, ValueError),
                              ({"factor": 2, "method": "area"}, ValueError),
                              ({"method": "area"}, ValueError),
                              ({"pad_multiple": 0}, ValueError)]:
            with pytest.raises(error):
                rep.save_stacked_histogram(path, s, window, cfg, **{
                    "factor": 1, "method": "bilinear", "pad_multiple": 1, **kwargs})
            assert not path.exists(), kwargs
        with pytest.raises(TypeError):  # resampled frames are built only by the saver
            rep.stacked_histogram(s, window, cfg, factor=2)


class TestFrameTensor:
    def test_equality_compares_values_and_dtype(self):
        values = np.arange(24, dtype=np.uint16).reshape(2, 3, 4)
        frame = rep.FrameTensor(values)
        assert frame == copy.deepcopy(frame)
        assert frame == rep.FrameTensor(values.copy())
        assert frame != rep.FrameTensor(values + 1)
        assert frame != rep.FrameTensor(values.reshape(2, 4, 3))
        assert frame != rep.FrameTensor(values.astype(np.float32))  # same numbers
        assert frame != "frame"


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


class TestEvfContainer:
    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    def test_rows_written_and_read_in_bands(self, tmp_path, rng, dtype):
        # Bands of 3 rows over 7: the last band is short, and rows 3-5 are
        # never written, so they stay a hole that reads as 0.
        values = (rng.uniform(1, 9, (4, 7, 5)) * 1000).astype(dtype)
        values[:, 3:6] = 0
        path = tmp_path / "f.evf"
        path.write_bytes(b"x" * 999)  # replaced, not written into
        fd = rep.create_evf(path, np.dtype(dtype), values.shape)
        try:
            for top in (0, 6):
                rep.write_evf_rows(fd, values[:, top : top + 3].copy(), top, 7)
        finally:
            os.close(fd)
        assert path.read_bytes() == rep.write_evf(rep.FrameTensor(values))
        with open(path, "rb") as f:
            dtype_, shape = rep.read_evf_header(f)
            assert shape == values.shape
            bands = [(top, band.copy()) for top, band in rep.read_evf_bands(f, dtype_, shape, 3)]
        assert [top for top, _ in bands] == [0, 3, 6]
        assert np.array_equal(np.concatenate([b for _, b in bands], axis=1), values)

    def test_bands_name_the_first_non_finite_value(self, tmp_path):
        values = np.zeros((2, 6, 4), dtype=np.float32)
        values[1, 0, 2] = np.nan  # in the first band
        values[0, 4, 1] = np.inf  # in the second, at a lower flat index
        path = tmp_path / "f.evf"
        rep.save_evf(path, rep.FrameTensor(values))
        with open(path, "rb") as f, pytest.raises(NonFiniteValue) as exc:
            for _ in rep.read_evf_bands(f, *rep.read_evf_header(f), 3):
                pass
        with pytest.raises(NonFiniteValue) as whole:
            rep.read_evf(path.read_bytes())
        assert str(exc.value) == str(whole.value) == "at index 17 (value inf is not finite)"

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
        assert rep.EVF_HEADER_SIZE == 16
        assert blob[:4] == b"EVF1"
        assert blob[4] == 1
        assert blob[5] == 0
        assert int.from_bytes(blob[6:8], "little") == 20
        assert int.from_bytes(blob[8:12], "little") == 384
        assert int.from_bytes(blob[12:16], "little") == 640
        assert len(blob) == 16 + 20 * 384 * 640 * 2

    def test_set_pad_byte_rejected(self, rng):
        blob = rep.write_evf(rep.FrameTensor(
            rng.integers(0, 2**16, (2, 3, 4)).astype(np.uint16)))
        with pytest.raises(BadHeader, match="pad byte is 7"):
            rep.read_evf(blob[:5] + b"\x07" + blob[6:])
        assert rep.write_evf(rep.read_evf(blob)) == blob

    def test_channel_count_beyond_u16_rejected_before_the_file(self, tmp_path):
        path = tmp_path / "wide.evf"
        with pytest.raises(ValueError, match="65535 channels"):
            rep.save_evf(path, rep.FrameTensor(np.zeros((65536, 1, 1), dtype=np.uint16)))
        assert not path.exists()
        rep.save_evf(path, rep.FrameTensor(np.zeros((65535, 1, 1), dtype=np.uint16)))
        assert rep.read_evf(path.read_bytes()).shape == (65535, 1, 1)

    def test_bad_magic_and_truncation(self):
        with pytest.raises(BadMagic):
            rep.read_evf(b"NOPE" + bytes(16))
        frame = rep.FrameTensor(np.zeros((1, 2, 2), dtype=np.float32))
        blob = rep.write_evf(frame)
        with pytest.raises(TruncatedFile):
            rep.read_evf(blob[:-2])
        with pytest.raises(BadHeader):
            rep.read_evf(blob[:4] + b"\x09" + blob[5:])
        for shape in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
            with pytest.raises(BadHeader, match="zero dimension"):
                rep.read_evf(rep.write_evf(rep.FrameTensor(np.zeros(shape, np.float32))))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_f32_non_finite_rejected_at_first_index(self, rng, bad):
        values = rng.normal(size=(2, 3, 4)).astype(np.float32)
        values[1, 2, 0] = values[1, 2, 3] = bad
        with pytest.raises(NonFiniteValue) as exc:
            rep.read_evf(rep.write_evf(rep.FrameTensor(values)))
        assert exc.value.index == 1 * 12 + 2 * 4 + 0

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    def test_read_views_the_buffer(self, dtype):
        blob = rep.write_evf(rep.FrameTensor(np.arange(24, dtype=dtype).reshape(2, 3, 4)))
        out = rep.read_evf(blob)
        assert np.array_equal(out.values, np.arange(24).reshape(2, 3, 4))
        assert not out.values.flags.writeable
        shared = np.shares_memory(out.values, np.frombuffer(blob, np.uint8))
        assert shared == (sys.byteorder == "little")

    def test_rejects_other_dtypes(self):
        with pytest.raises(ValueError):
            rep.write_evf(rep.FrameTensor(np.zeros((1, 2, 2), dtype=np.float64)))

    def test_save_writes_the_same_bytes(self, rng, tmp_path):
        values = rng.normal(size=(3, 5, 14)).astype(np.float32)
        frames = [values, values[:, :, ::2], np.asfortranarray(values),
                  rng.integers(0, 2**16, (2, 4, 6)).astype(np.uint16)]
        for k, v in enumerate(frames):
            frame = rep.FrameTensor(v)
            rep.save_evf(tmp_path / f"{k}.evf", frame)
            assert (tmp_path / f"{k}.evf").read_bytes() == rep.write_evf(frame)
        with pytest.raises(ValueError):
            rep.save_evf(tmp_path / "bad.evf",
                         rep.FrameTensor(np.zeros((1, 2, 2), dtype=np.float64)))
