from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import weakref

import numpy as np
import pytest

from evkit.errors import BadPolarity, NonMonotoneTimestamp, OutOfBounds, ZeroWindow
from evkit.event_core import (
    Event,
    EventStream,
    SensorGeometry,
    TimeWindow,
    partition_windows,
    slice_window,
    stream_windows,
    validate_stream,
)

from evkit.geometry import AffineTransform
from evkit.representation import FrameTensor

from conftest import make_stream
from oracles import bucket_counts

GEN1 = SensorGeometry(304, 240)

ROUNDTRIPS = pytest.mark.parametrize(
    "roundtrip", [copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["deepcopy", "pickle"])


class TestValidation:
    def test_empty_stream_is_valid(self):
        s = validate_stream([], GEN1)
        assert len(s) == 0
        assert s.geometry == GEN1

    def test_boundary_pixel_is_valid(self):
        s = validate_stream([Event(t=5, x=303, y=239, p=1)], GEN1)
        assert s[0] == Event(5, 303, 239, 1)

    def test_non_monotone_reports_index(self):
        with pytest.raises(NonMonotoneTimestamp) as exc:
            validate_stream([Event(5, 0, 0, 1), Event(4, 0, 0, 1)], GEN1)
        assert exc.value.index == 1

    def test_out_of_bounds_reports_index(self):
        with pytest.raises(OutOfBounds) as exc:
            validate_stream([Event(1, 0, 0, 1), Event(2, 304, 0, 1)], GEN1)
        assert exc.value.index == 1

    def test_bad_polarity_reports_index(self):
        with pytest.raises(BadPolarity) as exc:
            validate_stream([Event(1, 0, 0, 2)], GEN1)
        assert exc.value.index == 0

    def test_first_violation_wins_across_kinds(self):
        events = [Event(1, 0, 0, 1), Event(2, 0, 0, 7), Event(1, 0, 0, 1)]
        with pytest.raises(BadPolarity) as exc:
            validate_stream(events, GEN1)
        assert exc.value.index == 1

    @pytest.mark.parametrize("event, error", [
        (Event(2, -1, 0, 1), OutOfBounds),
        (Event(2, 0, -1, 1), OutOfBounds),
        (Event(2, 0, 0, -1), BadPolarity),
    ])
    def test_negative_value_reports_index(self, event, error):
        with pytest.raises(error) as exc:
            validate_stream([Event(1, 0, 0, 1), event], GEN1)
        assert exc.value.index == 1

    @pytest.mark.parametrize("geometry, column, value, dtype, error", [
        (GEN1, "x", 65541, np.int64, OutOfBounds),  # 5 as uint16
        (GEN1, "y", 65539, np.int64, OutOfBounds),  # 3 as uint16
        (GEN1, "p", 256, np.int64, BadPolarity),  # 0 as uint8
        (GEN1, "x", -1, np.int16, OutOfBounds),
        (SensorGeometry(65536, 1), "x", -1, np.int32, OutOfBounds),  # 65535 as uint16
    ], ids=["x-65541", "y-65539", "p-256", "int16-x-negative", "int32-x-negative-65536-wide"])
    def test_columns_are_checked_before_the_storage_cast(self, geometry, column, value,
                                                         dtype, error):
        columns = {f: np.zeros(1, dtype) for f in "txyp"}
        columns[column][0] = value
        with pytest.raises(error) as exc:
            EventStream(geometry, *columns.values())
        assert exc.value.index == 0

    @pytest.mark.parametrize("column", list("txyp"))
    def test_non_integer_column_rejected(self, column):
        columns = {f: np.zeros(2, np.int64) for f in "txyp"}
        columns[column] = np.array([0.0, 0.5])
        with pytest.raises(ValueError, match="must be integer"):
            EventStream(GEN1, *columns.values())
        # Unvalidated streams (decoder output, slices, window joins) are cast as before.
        assert EventStream(GEN1, *columns.values(), validate=False) == \
            EventStream(GEN1, *np.zeros((4, 2), np.int64))

    def test_negative_first_timestamp_rejected(self):
        with pytest.raises(NonMonotoneTimestamp):
            validate_stream([Event(-1, 0, 0, 1)], GEN1)

    def test_equal_timestamps_allowed(self):
        s = validate_stream([Event(3, 0, 0, 1), Event(3, 1, 1, 0)], GEN1)
        assert len(s) == 2

    def test_arrays_are_read_only(self):
        s = validate_stream([Event(1, 2, 3, 1)], GEN1)
        for f in "txyp":
            with pytest.raises(ValueError):
                getattr(s, f)[0] = 0

    def test_fields_cannot_be_reassigned(self, rng):
        geometry = SensorGeometry(4, 4)
        s = make_stream(rng, 10, geometry, 100)
        t = s.t
        # A smaller geometry would leave the events outside it.
        with pytest.raises(AttributeError):
            s.geometry = SensorGeometry(1, 1)
        with pytest.raises(AttributeError):
            s.t = np.zeros(10, np.int64)
        assert s.geometry == geometry and s.t is t

    def test_replace_revalidates(self, rng):
        s = make_stream(rng, 10, GEN1, 100)
        x = s.x.copy()
        x[3] = GEN1.width
        with pytest.raises(OutOfBounds) as exc:
            dataclasses.replace(s, x=x)
        assert exc.value.index == 3

    # Each frozen array-holding type, built from a seeded rng, and its array fields.
    ARRAY_TYPES = {
        "EventStream": (lambda rng: make_stream(rng, 10, SensorGeometry(4, 4), 100), "txyp"),
        "FrameTensor": (lambda rng: FrameTensor(rng.uniform(size=(2, 3, 4)).astype(np.float32)),
                        ["values"]),
        "AffineTransform": (lambda rng: AffineTransform.rotation_deg(rng.uniform(-30, 30))
                            .compose(AffineTransform.translation(2.5, -1.0)), ["matrix"]),
    }

    @ROUNDTRIPS
    @pytest.mark.parametrize("kind", ARRAY_TYPES)
    def test_copies_keep_arrays_read_only(self, rng, kind, roundtrip):
        # A copy's arrays are new ones, which numpy makes writeable; only a
        # rebuild through __init__ marks them read-only again.
        build, fields = self.ARRAY_TYPES[kind]
        value = build(rng)
        copied = roundtrip(value)
        assert type(copied) is type(value)
        for f in fields:
            original, array = getattr(value, f), getattr(copied, f)
            assert array is not original and not array.flags.writeable
            assert array.dtype == original.dtype and np.array_equal(array, original)

    @ROUNDTRIPS
    def test_copies_revalidate(self, roundtrip):
        # x = 4 is off a 4-wide sensor; validate=False let the stream hold it.
        s = EventStream(SensorGeometry(4, 4), [0, 1, 2], [0, 4, 1], [0, 0, 0], [0, 1, 0],
                        validate=False)
        with pytest.raises(OutOfBounds) as exc:
            roundtrip(s)
        assert exc.value.index == 1


class TestPartition:
    def test_default_window_assignment(self):
        # 50 ms windows: t=50_000 belongs to the second window (half-open)
        s = validate_stream(
            [Event(0, 0, 0, 1), Event(49_999, 1, 1, 0), Event(50_000, 2, 2, 1)], GEN1
        )
        parts = partition_windows(s, 50_000)
        assert len(parts) == 2
        assert parts[0].stop - parts[0].start == 2
        assert parts[1].stop - parts[1].start == 1
        assert parts[0].window == TimeWindow(0, 50_000)
        assert parts[1].window == TimeWindow(50_000, 100_000)

    def test_empty_stream(self):
        assert partition_windows(validate_stream([], GEN1), 50_000) == []

    def test_zero_window_rejected(self):
        s = validate_stream([Event(0, 0, 0, 1)], GEN1)
        with pytest.raises(ZeroWindow):
            partition_windows(s, 0)

    def test_t_start_after_first_event_rejected(self):
        s = validate_stream([Event(5, 0, 0, 1)], GEN1)
        with pytest.raises(ValueError):
            partition_windows(s, 100, t_start=6)

    def test_window_edges_beyond_int64_rejected(self):
        # Two windows of 2**62 from 0 end at 2**63, one past the int64 maximum.
        s = validate_stream([Event(0, 0, 0, 1), Event(2**62 + 5, 1, 1, 0)], GEN1)
        with pytest.raises(ValueError, match="int64"):
            partition_windows(s, 2**62)
        with pytest.raises(ValueError, match="int64"):
            partition_windows(s, 10**20)
        # Each edge fits, but t_frame does not (or t_start is below int64).
        with pytest.raises(ValueError, match="int64"):
            partition_windows(s, 2**64 - 1, t_start=-2**63)
        with pytest.raises(ValueError, match="int64"):
            partition_windows(s, 2**62, t_start=-2**63 - 1)

    def test_last_edge_at_int64_max_accepted(self):
        # 2**63 - 1 = 7 * t_frame, so the seventh window ends on the maximum.
        t_frame = (2**63 - 1) // 7
        s = validate_stream([Event(0, 0, 0, 1), Event(2**63 - 2, 1, 1, 0)], GEN1)
        parts = partition_windows(s, t_frame)
        assert len(parts) == 7
        assert parts[-1].window == TimeWindow(6 * t_frame, 2**63 - 1)
        assert [w.stop - w.start for w in parts] == [1, 0, 0, 0, 0, 0, 1]

    def test_counts_match_brute_force(self, rng):
        s = make_stream(rng, 1000, GEN1, 200_000)
        parts = partition_windows(s, 50_000)
        expected = bucket_counts(s.t, 50_000, 0, len(parts))
        assert [w.stop - w.start for w in parts] == expected

    def test_windows_consecutive_and_complete(self, rng):
        s = make_stream(rng, 777, GEN1, 123_457)
        t_frame = 9_001
        parts = partition_windows(s, t_frame)
        for k, w in enumerate(parts):
            assert w.window.t0 == k * t_frame
            assert w.window.length == t_frame
        assert parts[0].start == 0
        assert parts[-1].stop == len(s)
        for a, b in zip(parts, parts[1:]):
            assert a.stop == b.start

    def test_trailing_partial_flag(self):
        s = validate_stream([Event(0, 0, 0, 1), Event(99_999, 0, 0, 1)], GEN1)
        parts = partition_windows(s, 50_000)
        assert [w.partial for w in parts] == [False, False]
        s2 = validate_stream([Event(0, 0, 0, 1), Event(60_000, 0, 0, 1)], GEN1)
        parts2 = partition_windows(s2, 50_000)
        assert [w.partial for w in parts2] == [False, True]

    def test_nonzero_origin(self):
        s = validate_stream([Event(100, 0, 0, 1), Event(150, 0, 0, 0)], GEN1)
        parts = partition_windows(s, 30, t_start=100)
        assert parts[0].window == TimeWindow(100, 130)
        assert parts[1].window == TimeWindow(130, 160)
        assert parts[1].stop - parts[1].start == 1


class TestStreamWindows:
    def test_chunked_windows_match_whole_stream(self, rng):
        s = make_stream(rng, 3_000, GEN1, 1_000_000)
        splits = [[s[lo:lo + size] for lo in range(0, len(s), size)]
                  for size in (1, 7, 1_000, 3_000)]
        # Empty chunks first, in the middle and last.
        empty = s[:0]
        splits.append([empty, s[:1_234], empty, empty, s[1_234:2_000], s[2_000:], empty])
        for chunks, n_bins in itertools.product(splits, (1, 4)):
            t_bin = 50_000 // n_bins
            out = list(stream_windows(chunks, 50_000, n_bins=n_bins))
            assert [b.closed for b in out if b.closed] == partition_windows(s, 50_000)
            # Every bin from the first through the one holding the last event,
            # each with the whole stream's events between its edges.
            assert [(b.k, b.i) for b in out] == [divmod(j, n_bins) for j in range(len(out))]
            edges = np.searchsorted(s.t, t_bin * np.arange(len(out) + 1))
            assert edges[-2] < edges[-1] == len(s)
            for b, lo, hi in zip(out, edges[:-1], edges[1:]):
                for f in "pyx":
                    assert np.array_equal(getattr(b, f), getattr(s, f)[lo:hi])
                    assert not getattr(b, f).flags.writeable

    @pytest.mark.parametrize("last_t, partial", [(99_999, False), (70_000, True)])
    def test_last_window_across_chunks_partial_flag(self, last_t, partial):
        # The last window [50000, 100000) starts in chunk a and ends in chunk b.
        a = validate_stream([(0, 0, 0, 1), (60_000, 1, 1, 0)], GEN1)
        b = validate_stream([(last_t, 2, 2, 1)], GEN1)
        out = list(stream_windows([a, b], 50_000))
        assert [(b.closed.window, b.closed.partial) for b in out] == [
            (TimeWindow(0, 50_000), False), (TimeWindow(50_000, 100_000), partial)]
        assert out[-1].x.tolist() == [1, 2]

    def test_trailing_bins_of_the_last_window_are_not_streamed(self):
        # 10 ms bins: the stream ends in bin 2 of window 1, which closes it.
        s = validate_stream([(5, 0, 0, 1), (61_000, 1, 1, 0), (72_000, 2, 2, 1)], GEN1)
        out = list(stream_windows([s[:2], s[2:]], 50_000, n_bins=5))
        assert [(b.k, b.i, len(b.p)) for b in out] == [
            (0, 0, 1), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0), (1, 0, 0), (1, 1, 1),
            (1, 2, 1)]
        assert [b.closed for b in out if b.closed] == partition_windows(s, 50_000)
        assert out[-1].closed.partial and out[-1].closed.stop == 3

    def test_no_chunk_is_held_while_the_next_is_read(self, rng):
        # Bins of 2,500 us over chunks of 500 events: most bins straddle a chunk
        # edge.  A consumer that drops each bin leaves no earlier chunk alive
        # when the next is made, and each bin arrives before a later chunk is read.
        s = make_stream(rng, 3_000, GEN1, 300_000)
        columns, bins = [], []

        def chunks():
            for lo in range(0, len(s), 500):
                assert all(ref() is None for ref in columns)
                chunk = EventStream(GEN1, *(getattr(s, f)[lo:lo + 500].copy() for f in "txyp"))
                columns.extend(weakref.ref(getattr(chunk, f)) for f in "txyp")
                yield chunk
                del chunk

        for b in stream_windows(chunks(), 50_000, n_bins=20):
            bins.append((len(columns) // 4, b.p.copy(), b.y.copy(), b.x.copy()))
            del b
        edges = np.searchsorted(s.t, 2_500 * np.arange(len(bins) + 1))
        for (read, *got), lo, hi in zip(bins, edges[:-1], edges[1:]):
            assert read <= hi // 500 + 1  # the chunk after the bin's last event, at most
            assert all(np.array_equal(g, getattr(s, f)[lo:hi]) for g, f in zip(got, "pyx"))

    def test_bins_must_divide_the_window(self):
        s = validate_stream([(0, 0, 0, 1)], GEN1)
        for n_bins in (0, 3):
            with pytest.raises(ValueError):
                list(stream_windows([s], 100, n_bins=n_bins))

    def test_later_chunk_past_int64_raises_after_earlier_windows(self):
        # Chunk a's windows end at 2 * t_frame; chunk b's third window would
        # end at 9 * 2**60, past the int64 maximum.
        t_frame = 3 * 2**60
        a = validate_stream([(0, 0, 0, 1), (t_frame + 1, 1, 1, 0)], GEN1)
        b = validate_stream([(2 * t_frame + 5, 2, 2, 1)], GEN1)
        windows = stream_windows([a, b], t_frame)
        assert next(windows).closed.window == TimeWindow(0, t_frame)
        with pytest.raises(ValueError, match="int64"):
            next(windows)

    def test_chunk_starting_before_previous_end_rejected(self):
        a = validate_stream([(10, 0, 0, 1), (20, 1, 1, 0)], GEN1)
        b = validate_stream([(15, 2, 2, 1), (30, 3, 3, 0)], GEN1)
        with pytest.raises(NonMonotoneTimestamp) as exc:
            list(stream_windows([a, b], 100))
        assert exc.value.index == 2

    def test_chunks_of_two_geometries_rejected(self):
        a = validate_stream([(10, 0, 0, 1)], GEN1)
        b = validate_stream([(20, 0, 0, 1)], SensorGeometry(32, 24))
        with pytest.raises(ValueError):
            list(stream_windows([a, b], 100))


class TestSliceWindow:
    def test_whole_stream_identity(self, rng):
        s = make_stream(rng, 100, GEN1, 1_000)
        out = slice_window(s, TimeWindow(0, 1_000))
        assert out == s

    def test_half_open_boundary(self):
        s = validate_stream(
            [Event(9, 0, 0, 1), Event(10, 1, 1, 1), Event(11, 2, 2, 1)], GEN1
        )
        out = slice_window(s, TimeWindow(10, 11))
        assert len(out) == 1
        assert out[0].t == 10

    def test_partition_reassembly(self, rng):
        s = make_stream(rng, 10_000, GEN1, 700_001)
        parts = partition_windows(s, 100_000)
        slices = [slice_window(s, w.window) for w in parts]
        assert sum(len(p) for p in slices) == len(s)
        for f in "txyp":
            assert np.array_equal(np.concatenate([getattr(p, f) for p in slices]),
                                  getattr(s, f))

    def test_stream_slice_matches_window_slice(self, rng):
        s = make_stream(rng, 2_000, GEN1, 300_000)
        for w in partition_windows(s, 50_000):
            assert s[w.start : w.stop] == slice_window(s, w.window)
        assert s[::3] == validate_stream([(e.t, e.x, e.y, e.p) for e in s][::3], GEN1)
        with pytest.raises(NonMonotoneTimestamp):
            s[::-1]

    def test_forward_slice_shares_memory(self, rng):
        s = make_stream(rng, 100, GEN1, 1_000)
        part = s[10:60]
        for f in "txyp":
            assert np.shares_memory(getattr(part, f), getattr(s, f))

    def test_order_preserved_with_ties(self):
        s = validate_stream(
            [Event(5, 1, 0, 1), Event(5, 2, 0, 0), Event(5, 3, 0, 1)], GEN1
        )
        out = slice_window(s, TimeWindow(5, 6))
        assert [e.x for e in out] == [1, 2, 3]
