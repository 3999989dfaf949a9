from __future__ import annotations

import hashlib
import os
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evkit import augment as augmod
from evkit import cli, codec
from evkit.augment import AugmentConfig, SampledAugmentation, apply_to_boxes
from evkit.detmetrics import EvalConfig
from evkit.errors import (BadPolarity, NonMonotoneTimestamp, OutOfBounds, ParseError,
                          ReservedByteSet)
from evkit.event_core import (Event, EventStream, SensorGeometry, TimeWindow,
                              partition_windows, slice_window, validate_stream)
from evkit.geometry import AffineTransform, downscale, pad_to_multiple
from evkit.representation import (EVF_HEADER_SIZE, BinCounter, FrameTensor,
                                  StackedHistogramConfig, evf_frame_size, read_evf, save_evf,
                                  save_stacked_histogram, stacked_histogram, write_evf)
from evkit.sampler import parse_plan

from conftest import make_stream, traced_peak


def synth_recording(path: Path, seed=0, n=20_000, duration_us=1_000_000,
                    geometry=SensorGeometry(32, 24)) -> None:
    stream = make_stream(np.random.default_rng(seed), n, geometry, duration_us)
    path.write_bytes(codec.encode_evs(stream))


def synth_annotations(path: Path, seed=1, n=40, duration_us=1_000_000,
                      geometry=SensorGeometry(32, 24), scored=False) -> None:
    rng = np.random.default_rng(seed)
    boxes = [
        codec.AnnotatedBox(
            t=int(rng.integers(0, duration_us)),
            x=float(rng.uniform(0, geometry.width * 0.6)),
            y=float(rng.uniform(0, geometry.height * 0.6)),
            w=float(rng.uniform(2, geometry.width * 0.3)),
            h=float(rng.uniform(2, geometry.height * 0.3)),
            class_id=int(rng.integers(0, 2)),
            score=float(rng.uniform(0.1, 1.0)) if scored else 1.0,
        )
        for _ in range(n)
    ]
    codec.write_annotations(path, boxes)


def tiny_config(path: Path, extra: str = "") -> Path:
    path.write_text(
        "[pipeline]\n"
        "preset = gen1-like\n"
        "geometry = 32x24\n"
        "clip_len = 4\n"
        "seed = 7\n"
        + extra
    )
    return path


def tree_hash(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConvert:
    def test_window_count_matches_duration(self, tmp_path, rng):
        # 60 s at 50 ms windows is 1200 frames (checked at the planning level)
        geometry = SensorGeometry(32, 24)
        stream = make_stream(rng, 5_000, geometry, 60_000_000)
        assert len(partition_windows(stream, 50_000)) == 1200

    def test_convert_produces_frames_and_index(self, tmp_path):
        rec = tmp_path / "rec.evs"
        synth_recording(rec)
        cfgf = tiny_config(tmp_path / "cfg.ini")
        out = tmp_path / "out"
        rc = cli.main(["convert", str(rec), "--output", str(out), "--config", str(cfgf)])
        assert rc == 0
        frames = sorted(out.glob("frame_*.evf"))
        assert len(frames) == 20  # 1 s / 50 ms
        frame = read_evf(frames[0].read_bytes())
        assert frame.shape == (20, 32, 32)  # 24 padded to 32
        assert frame.values.dtype == np.uint16
        index = (out / "index.txt").read_text().splitlines()
        assert len(index) == 20
        assert index[0].startswith("window=0 t0=0 t1=50000 file=frame_000000.evf")

    def test_total_counts_preserved_through_conversion(self, tmp_path):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=5_000)
        cfgf = tiny_config(tmp_path / "cfg.ini")
        out = tmp_path / "out"
        cli.main(["convert", str(rec), "--output", str(out), "--config", str(cfgf)])
        total = sum(
            int(read_evf(p.read_bytes()).values.sum(dtype=np.int64))
            for p in out.glob("frame_*.evf")
        )
        assert total == 5_000  # no downscale for this config: counts conserved

    def test_gen4_preset_header(self, tmp_path, rng):
        geometry = SensorGeometry(1280, 720)
        stream = make_stream(rng, 3_000, geometry, 140_000)
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(stream))
        out = tmp_path / "out"
        rc = cli.main(["convert", str(rec), "--output", str(out),
                       "--preset", "gen4-like"])
        assert rc == 0
        for p in out.glob("frame_*.evf"):
            frame = read_evf(p.read_bytes())
            assert frame.shape == (20, 384, 640)
            assert frame.values.dtype == np.float32

    def test_indivisible_recording_fails_before_output(self, tmp_path, capsys):
        # gen4-like downscales by 2; the recording's own 303x240 is what must divide.
        geometry = SensorGeometry(303, 240)
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(
            make_stream(np.random.default_rng(4), 1_000, geometry, 100_000)))
        ann = tmp_path / "b.txt"
        synth_annotations(ann, duration_us=100_000, geometry=geometry)
        out = tmp_path / "out"
        rc, err = run_cli(["convert", str(rec), "--output", str(out), "--preset", "gen4-like",
                           "--annotations", str(ann)], capsys)
        assert rc == 1
        assert re.fullmatch(r'error code=NotDivisible msg="[^\n]*"\n', err)
        assert not out.exists()

    # Events of the flag tests: windows [0, 50000), [50000, 100000), [100000, 150000).
    FLAG_EVENTS = (7_000, 20_000, 60_000, 130_000)

    def convert_with(self, tmp_path, capsys, *flags):
        """Convert FLAG_EVENTS with tiny_config and `flags`: the exit code, stderr,
        the output directory and its index entries (None without an index)."""
        n = len(self.FLAG_EVENTS)
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(EventStream(
            SensorGeometry(32, 24), self.FLAG_EVENTS, np.arange(n), np.arange(n),
            np.arange(n) % 2)))
        out = tmp_path / "out"
        rc, err = run_cli(["convert", str(rec), "--output", str(out),
                           "--config", str(tiny_config(tmp_path / "cfg.ini")), *flags], capsys)
        index = out / "index.txt"
        entries = ([codec.parse_fields(line, lineno, ()) for lineno, line
                    in codec.read_lines(index)] if index.exists() else None)
        return rc, err, out, entries

    def test_only_the_last_window_is_partial(self, tmp_path, capsys):
        rc, _, _, entries = self.convert_with(tmp_path, capsys)
        assert rc == 0
        assert [(e["t0"], e["partial"]) for e in entries] == [
            ("0", "0"), ("50000", "0"), ("100000", "1")]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_drop_partial_drops_the_last_window(self, tmp_path, capsys, threads):
        rc, _, out, entries = self.convert_with(tmp_path, capsys, "--drop-partial",
                                                "--threads", threads)
        assert rc == 0
        assert [(e["window"], e["partial"]) for e in entries] == [("0", "0"), ("1", "0")]
        assert sorted(p.name for p in out.glob("frame_*.evf")) == [
            "frame_000000.evf", "frame_000001.evf"]

    def test_t_start_moves_the_window_origin(self, tmp_path, capsys):
        rc, _, _, entries = self.convert_with(tmp_path, capsys, "--t-start", "7000")
        assert rc == 0
        assert [e["t0"] for e in entries] == ["7000", "57000", "107000"]

    def test_t_start_after_the_first_event_fails_before_output(self, tmp_path, capsys):
        rc, err, out, _ = self.convert_with(tmp_path, capsys, "--t-start", "7001")
        assert rc == 1
        assert re.fullmatch(r'error code=ValueError msg="[^\n]*"\n', err)
        assert not out.exists()

    def test_annotations_rescaled_and_indexed(self, tmp_path):
        geometry = SensorGeometry(1280, 720)
        stream = make_stream(np.random.default_rng(3), 2_000, geometry, 100_000)
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(stream))
        ann = tmp_path / "ann.txt"
        synth_annotations(ann, duration_us=100_000, geometry=geometry)
        # a box at window 0's t1 belongs to window 1
        edge = replace(codec.read_annotations(ann)[0], t=50_000)
        codec.write_annotations(ann, codec.read_annotations(ann) + [edge])
        out = tmp_path / "out"
        cli.main(["convert", str(rec), "--output", str(out), "--preset", "gen4-like",
                  "--annotations", str(ann)])
        original = codec.read_annotations(ann)
        scaled = codec.read_annotations(out / "annotations.txt")
        assert len(scaled) == len(original)
        for a, b in zip(scaled, original):
            assert a.x == pytest.approx(b.x / 2) and a.w == pytest.approx(b.w / 2)
        index = (out / "index.txt").read_text().splitlines()
        referenced = set()
        ann_ids = []
        for lineno, line in enumerate(index, start=1):
            fields = codec.parse_fields(line, lineno, ("t0", "t1", "ann"))
            ids = [] if fields["ann"] == "-" else [int(i) for i in fields["ann"].split(",")]
            assert all(int(fields["t0"]) <= original[i].t < int(fields["t1"]) for i in ids)
            referenced.update(ids)
            ann_ids.append(ids)
        assert referenced == set(range(len(original)))
        assert original.index(edge) in ann_ids[1]

    def test_reports_rate(self, tmp_path, capsys):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=1_000)
        cli.main(["convert", str(rec), "--output", str(tmp_path / "o"),
                  "--config", str(tiny_config(tmp_path / "cfg.ini"))])
        out = capsys.readouterr().out
        assert "rate_eps=" in out and "events=1000" in out

    @pytest.mark.parametrize("threads", [1, 3])
    def test_empty_recording_converts_to_no_windows(self, tmp_path, capsys, threads):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=0)
        out = tmp_path / "out"
        assert cli.main(["convert", str(rec), "--output", str(out), "--threads", str(threads),
                         "--config", str(tiny_config(tmp_path / "cfg.ini"))]) == 0
        assert "converted windows=0 events=0 " in capsys.readouterr().out
        assert (out / "index.txt").read_text() == ""
        assert not list(out.glob("frame_*.evf"))

    def test_threads_give_identical_output(self, tmp_path):
        rec = tmp_path / "rec.evs"
        synth_recording(rec)
        cfgf = tiny_config(tmp_path / "cfg.ini")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["convert", str(rec), "--output", str(out1), "--config", str(cfgf)])
        cli.main(["convert", str(rec), "--output", str(out2), "--config", str(cfgf),
                  "--threads", "4"])
        assert tree_hash(out1) == tree_hash(out2)

    def test_existing_frames_are_replaced(self, tmp_path):
        # Sparse windows leave most planes unwritten (holes in a new file), so
        # a frame written over a longer or a shorter old file must not keep
        # any of its bytes.
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=40, duration_us=100_000)
        cfgf = str(tiny_config(tmp_path / "cfg.ini"))
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        used.mkdir()
        frame_size = evf_frame_size(SensorGeometry(32, 24), StackedHistogramConfig(),
                                    pad_multiple=32)
        (used / "frame_000000.evf").write_bytes(b"\xff" * (frame_size + 1_000))
        (used / "frame_000001.evf").write_bytes(b"\xab" * 100)
        for out in (fresh, used):
            assert cli.main(["convert", str(rec), "--output", str(out), "--config", cfgf]) == 0
        assert len(tree_hash(fresh)) == 3
        assert tree_hash(used) == tree_hash(fresh)

    def test_workers_start_at_most_one_per_window(self, tmp_path, monkeypatch):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=200, duration_us=100_000)  # two 50 ms windows
        cfgf = str(tiny_config(tmp_path / "cfg.ini"))
        pools = []

        class CountingPool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                self.max_workers, self.submits = max_workers, 0
                pools.append(self)

            def submit(self, *args, **kwargs):
                self.submits += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
        for threads in (1, 8):
            assert cli.main(["convert", str(rec), "--output", str(tmp_path / f"o{threads}"),
                             "--config", cfgf, "--threads", str(threads)]) == 0
        # This thread and one helper: one per window.
        assert [(pool.max_workers, pool.submits) for pool in pools] == [(1, 0), (1, 1)]
        assert len(list((tmp_path / "o8").glob("frame_*.evf"))) == 2
        assert tree_hash(tmp_path / "o1") == tree_hash(tmp_path / "o8")

    def test_workers_share_the_window_stream(self, tmp_path):
        # Four workers (more than the cores) pull 1,200 windows spanning three
        # chunks from one stream while threads switch every microsecond: every
        # frame and index line must match the one-thread output.
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=3 * codec.CHUNK, duration_us=60_000_000)
        cfgf = str(tiny_config(tmp_path / "cfg.ini"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 4):
                assert cli.main(["convert", str(rec), "--output", str(tmp_path / f"o{threads}"),
                                 "--config", cfgf, "--threads", str(threads)]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert len((tmp_path / "o4" / "index.txt").read_text().splitlines()) == 1200
        assert tree_hash(tmp_path / "o1") == tree_hash(tmp_path / "o4")

    def test_memory_bounded_by_a_window(self, tmp_path):
        # A 32-window and a 2-window gen1 recording of the same event density:
        # convert may hold more for the longer one only by less than one padded frame.
        peaks = []
        for n_windows in (2, 32):
            rec = tmp_path / f"rec{n_windows}.evs"
            stream = make_stream(np.random.default_rng(n_windows), 1_000 * n_windows,
                                 SensorGeometry(304, 240), 50_000 * n_windows)
            rec.write_bytes(codec.encode_evs(stream))
            out = tmp_path / f"out{n_windows}"
            peaks.append(traced_peak(
                run_ok, ["convert", str(rec), "--output", str(out), "--threads", "1"]))
            assert len(list(out.glob("frame_*.evf"))) == n_windows
        assert peaks[1] - peaks[0] < 20 * 256 * 320 * 2

    def test_gen4_window_is_written_without_a_whole_frame(self, tmp_path):
        # Frames are written one time bin at a time, so converting one window
        # holds its events and one bin's temporaries, not the 19.7 MB frame.
        cfg = cli.PRESETS["gen4-like"]
        base = make_stream(np.random.default_rng(4), 600_000, cfg.geometry, cfg.hist.t_frame)
        window = TimeWindow(0, cfg.hist.t_frame)

        def convert_window():
            events = EventStream(base.geometry, *(getattr(base, f).copy() for f in "txyp"))
            save_stacked_histogram(tmp_path / "f.evf", events, window, cfg.hist,
                                   factor=cfg.downscale_factor, method=cfg.downscale_method,
                                   pad_multiple=cfg.pad_multiple)

        frame = evf_frame_size(cfg.geometry, cfg.hist, factor=cfg.downscale_factor,
                               pad_multiple=cfg.pad_multiple) - EVF_HEADER_SIZE
        events = sum(getattr(base, f).nbytes for f in "txyp")
        assert traced_peak(convert_window) < events + frame // 2
        assert (tmp_path / "f.evf").stat().st_size == frame + EVF_HEADER_SIZE

    def test_dat_input(self, tmp_path):
        import struct

        records = b"".join(
            struct.pack("<II", t, (x | (y << 14) | (1 << 28)))
            for t, x, y in [(10, 1, 2), (60_000, 3, 4)]
        )
        rec = tmp_path / "rec.dat"
        rec.write_bytes(b"% Width 32\n% Height 24\n" + bytes([0, 8]) + records)
        out = tmp_path / "out"
        rc = cli.main(["convert", str(rec), "--output", str(out),
                       "--config", str(tiny_config(tmp_path / "cfg.ini"))])
        assert rc == 0
        assert len(list(out.glob("frame_*.evf"))) == 2

    def test_60s_recording_yields_1200_frames(self, tmp_path):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=60_000, duration_us=60_000_000)
        out = tmp_path / "out"
        rc = cli.main(["convert", str(rec), "--output", str(out),
                       "--config", str(tiny_config(tmp_path / "cfg.ini"))])
        assert rc == 0
        assert len(list(out.glob("frame_*.evf"))) == 1200
        assert len((out / "index.txt").read_text().splitlines()) == 1200

    def test_flag_overrides_config_seed(self, tmp_path):
        index = tmp_path / "seqs.txt"
        index.write_text("".join(f"seq=s{k} frames=60 annotated=-\n" for k in range(6)))
        cfg7 = tiny_config(tmp_path / "cfg7.ini")  # config seed = 7
        cfg99 = tmp_path / "cfg99.ini"
        cfg99.write_text(cfg7.read_text().replace("seed = 7", "seed = 99"))
        out_cfg7 = tmp_path / "p7.txt"
        out_flag = tmp_path / "pflag.txt"
        out_cfg99 = tmp_path / "p99.txt"
        cli.main(["plan", str(index), "--output", str(out_cfg7), "--config", str(cfg7)])
        cli.main(["plan", str(index), "--output", str(out_flag), "--config", str(cfg7),
                  "--seed", "99"])
        cli.main(["plan", str(index), "--output", str(out_cfg99), "--config", str(cfg99)])
        assert out_flag.read_bytes() == out_cfg99.read_bytes()  # flag wins
        assert out_flag.read_bytes() != out_cfg7.read_bytes()


class TestStats:
    @staticmethod
    def stats(rec: Path, capsys) -> dict[str, str]:
        assert cli.main(["stats", str(rec)]) == 0
        return dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())

    def test_empty(self, tmp_path, capsys):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=0)
        stats = self.stats(rec, capsys)
        assert stats["events"] == "0" and stats["rate_eps"] == "0.000"
        assert stats["duration_us"] == "0" and stats["max_per_pixel"] == "0"

    def test_known_stream(self, tmp_path, capsys):
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(validate_stream(
            [Event(0, 1, 1, 1), Event(500_000, 1, 1, 0), Event(999_999, 1, 1, 1)],
            SensorGeometry(32, 24))))
        stats = self.stats(rec, capsys)
        assert stats["events"] == "3"
        assert stats["duration_us"] == "1000000"
        assert stats["rate_eps"] == "3.000"
        assert stats["pos"] == "2" and stats["neg"] == "1"
        assert stats["max_per_pixel"] == "3"

    def test_chunks_sum_to_the_whole_stream(self, tmp_path, capsys, monkeypatch, rng):
        s = make_stream(rng, 3_001, SensorGeometry(4, 3), 90_000)
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(s))
        whole = self.stats(rec, capsys)
        # Read as four chunks, the last of one event.
        monkeypatch.setattr(codec, "CHUNK", 1_000)
        assert self.stats(rec, capsys) == whole
        assert whole["duration_us"] == str(int(s.t[-1]) - int(s.t[0]) + 1)
        # The hottest pixel's count is only right if the table carries across chunks.
        assert int(whole["max_per_pixel"]) > max(
            np.bincount(s.y[lo:lo + 1_000].astype(np.int64) * 4 + s.x[lo:lo + 1_000]).max()
            for lo in range(0, len(s), 1_000))

    def test_stats_output(self, tmp_path, capsys):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=500)
        rc = cli.main(["stats", str(rec)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events=500" in out
        assert "geometry=32x24" in out
        pos = int(out.split("pos=")[1].splitlines()[0])
        neg = int(out.split("neg=")[1].splitlines()[0])
        assert pos + neg == 500

    def test_empty_recording(self, tmp_path, capsys):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=0)
        assert cli.main(["stats", str(rec)]) == 0
        assert "events=0" in capsys.readouterr().out

    def test_memory_is_one_per_pixel_table(self, tmp_path, capsys):
        # One event on a sensor declared 2048x2048: the int64 count table is
        # the only sensor-sized array, with no whole-sensor temporary beside it.
        import struct

        rec = tmp_path / "rec.dat"
        rec.write_bytes(b"% Width 2048\n% Height 2048\n" + bytes([0, 8])
                        + struct.pack("<II", 10, 2047 | (2047 << 14) | (1 << 28)))
        table = 2048 * 2048 * 8
        assert traced_peak(run_ok, ["stats", str(rec)]) < 1.25 * table
        out = capsys.readouterr().out
        assert "events=1\n" in out and "max_per_pixel=1\n" in out and "geometry=2048x2048" in out


def dat_bytes(stream) -> bytes:
    """A DAT 2.0 file of the stream, its geometry in the header."""
    geometry = stream.geometry
    words = (stream.x.astype(np.uint32) | (stream.y.astype(np.uint32) << 14)
             | (stream.p.astype(np.uint32) << 28))
    header = f"% Width {geometry.width}\n% Height {geometry.height}\n".encode()
    return header + bytes([0, 8]) + np.column_stack([stream.t.astype("<u4"), words]).tobytes()


def run_cli(argv: list[str], capsys) -> tuple[int, str]:
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


def tiled(stream, copies: int, span: int):
    """The stream repeated `copies` times, copy k shifted by k * span in time."""
    return EventStream(stream.geometry,
                       np.concatenate([stream.t + k * span for k in range(copies)]),
                       np.tile(stream.x, copies), np.tile(stream.y, copies),
                       np.tile(stream.p, copies))


def run_ok(argv: list[str]) -> None:
    assert cli.main(argv) == 0


class TestChunkedInput:
    """convert and stats read codec.CHUNK records at a time."""

    GEOMETRY = SensorGeometry(32, 24)
    TINY_FRAME = 20 * 32 * 32 * 2  # one padded frame of tiny_config

    # record field -> (value written at the first record of chunk 2, error)
    FAULTS = {
        "t": (lambda t: t - 1, NonMonotoneTimestamp),
        "x": (lambda _: 32, OutOfBounds),
        "y": (lambda _: 24, OutOfBounds),
        "p": (lambda _: 2, BadPolarity),
        "reserved": (lambda _: 1, ReservedByteSet),
    }

    @pytest.mark.parametrize("container, field", [
        *(("evs", field) for field in FAULTS), ("dat", "t"), ("dat", "x"), ("dat", "y"),
    ])
    def test_fault_at_chunk_two_matches_decoder(self, tmp_path, capsys, container, field):
        n = codec.CHUNK + 100
        stream = make_stream(np.random.default_rng(5), n, self.GEOMETRY, 1_000_000, t_min=10)
        value, error = self.FAULTS[field]
        if container == "evs":
            records = np.frombuffer(codec.encode_evs(stream), codec.EVS_RECORD_DTYPE,
                                    offset=codec.EVS_HEADER_SIZE).copy()
            records[field][codec.CHUNK] = value(int(records["t"][codec.CHUNK - 1]))
            data = codec.encode_evs(stream)[:codec.EVS_HEADER_SIZE] + records.tobytes()
            decode = codec.decode_evs
        else:
            columns = {f: getattr(stream, f).copy() for f in "txyp"}
            columns[field][codec.CHUNK] = value(int(columns["t"][codec.CHUNK - 1]))
            data = dat_bytes(EventStream(self.GEOMETRY, *columns.values(), validate=False))
            decode = codec.decode_dat
        with pytest.raises(error) as exc:
            decode(data)
        assert exc.value.index == codec.CHUNK
        rec = tmp_path / f"rec.{container}"
        rec.write_bytes(data)
        out = tmp_path / "out"
        for argv in (["stats", str(rec)],
                     ["convert", str(rec), "--output", str(out),
                      "--config", str(tiny_config(tmp_path / "cfg.ini"))]):
            rc, err = run_cli(argv, capsys)
            assert rc == 1
            assert re.fullmatch(rf'error code={error.__name__} msg="at index {codec.CHUNK}\b.*\n',
                                err)
        # The windows the first chunk closed are written; the index, written
        # last and needed by augment, is not.
        assert list(out.glob("frame_*.evf"))
        assert not (out / "index.txt").exists()

    def test_dat_wrap_is_not_unwrapped(self, tmp_path, capsys):
        # DAT time wraps after 2**32 us; the first record of chunk 2 wraps to 0.
        n = codec.CHUNK + 10
        t = (2**32 - codec.CHUNK + np.arange(n)) % 2**32
        rng = np.random.default_rng(6)
        stream = EventStream(self.GEOMETRY, t, rng.integers(0, 32, n), rng.integers(0, 24, n),
                             rng.integers(0, 2, n), validate=False)
        rec = tmp_path / "rec.dat"
        rec.write_bytes(dat_bytes(stream))
        with pytest.raises(NonMonotoneTimestamp) as exc:
            codec.decode_dat(rec.read_bytes())
        assert exc.value.index == codec.CHUNK
        for argv in (["stats", str(rec)],
                     ["convert", str(rec), "--output", str(tmp_path / "out"),
                      "--config", str(tiny_config(tmp_path / "cfg.ini"))]):
            rc, err = run_cli(argv, capsys)
            assert rc == 1
            assert re.fullmatch(rf'error code=NonMonotoneTimestamp msg="at index {codec.CHUNK}'
                                rf'\b.*\n', err)
        # The last record wraps to t=9, so the space check counted one window;
        # the ~86,000 windows before the first event at 2**32 - CHUNK are not written.
        assert len(list((tmp_path / "out").glob("frame_*.evf"))) <= 1

    def test_header_and_first_chunk_faults_leave_nothing(self, tmp_path, capsys):
        stream = make_stream(np.random.default_rng(7), 1_000, self.GEOMETRY, 1_000_000)
        data = bytearray(codec.encode_evs(stream))
        data[codec.EVS_HEADER_SIZE + 500 * codec.EVS_RECORD_SIZE + 13] = 1
        rec = tmp_path / "rec.evs"
        for blob in (bytes(data), bytes(data[:-1])):
            rec.write_bytes(blob)
            out = tmp_path / "out"
            rc, err = run_cli(["convert", str(rec), "--output", str(out)], capsys)
            assert rc == 1 and err.startswith("error code=")
            assert not out.exists()

    def test_time_span_beyond_free_space_fails_before_output(self, tmp_path, capsys):
        # A valid recording whose frames (9.2e13 windows) cannot fit on any disk.
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(
            validate_stream([(0, 1, 1, 1), (2**62, 2, 2, 0)], self.GEOMETRY)))
        out = tmp_path / "out"
        rc, err = run_cli(["convert", str(rec), "--output", str(out),
                           "--config", str(tiny_config(tmp_path / "cfg.ini"))], capsys)
        assert rc == 1
        assert err.count("\n") == 1
        assert err.startswith("error code=InsufficientSpace")
        assert not out.exists()
        rc, _ = run_cli(["stats", str(rec)], capsys)
        assert rc == 0

    @pytest.mark.parametrize("t_frame, n_bins, times", [
        (10**20, 10, (0, 1, 2, 3)),
        # The last edge, 2**63, would wrap to -2**63 and drop two events.
        (2**62, 2, (0, 1, 2**62 + 1, 2**62 + 5)),
    ], ids=["t_frame-beyond-int64", "last-edge-beyond-int64"])
    def test_window_edges_beyond_int64_fail_before_output(self, tmp_path, capsys, t_frame,
                                                          n_bins, times):
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(
            validate_stream([(t, 1, 1, 1) for t in times], self.GEOMETRY)))
        cfgf = tiny_config(tmp_path / "cfg.ini",
                           f"[histogram]\nt_frame_us = {t_frame}\nn_bins = {n_bins}\n")
        out = tmp_path / "out"
        rc, err = run_cli(["convert", str(rec), "--output", str(out), "--config", str(cfgf)],
                          capsys)
        assert rc == 1
        assert err.count("\n") == 1
        assert err.startswith("error code=ValueError")
        assert not out.exists()

    def _recordings(self, tmp_path) -> dict[int, Path]:
        # Three chunks over four 50 ms windows, and the same tiled 4x in time:
        # windows span chunk edges, and the longer file repeats the shorter one
        # chunk for chunk.
        base = make_stream(np.random.default_rng(8), 3 * codec.CHUNK, self.GEOMETRY, 200_000)
        paths = {}
        for copies in (1, 4):
            paths[copies] = tmp_path / f"rec{copies}.evs"
            paths[copies].write_bytes(codec.encode_evs(tiled(base, copies, 200_000)))
        return paths

    def test_memory_does_not_grow_with_the_recording(self, tmp_path, capsys):
        recs = self._recordings(tmp_path)
        cfgf = str(tiny_config(tmp_path / "cfg.ini"))
        convert = {copies: traced_peak(run_ok, ["convert", str(path), "--output",
                                                str(tmp_path / f"out{copies}"), "--config", cfgf])
                   for copies, path in recs.items()}
        stats = {copies: traced_peak(run_ok, ["stats", str(path), "--config", cfgf])
                 for copies, path in recs.items()}
        assert "events=3145728" in capsys.readouterr().out
        assert abs(convert[4] - convert[1]) < self.TINY_FRAME
        assert abs(stats[4] - stats[1]) < self.TINY_FRAME

    def test_memory_at_two_threads_holds_two_windows(self, tmp_path):
        recs = self._recordings(tmp_path)
        cfgf = tiny_config(tmp_path / "cfg.ini")
        peaks = {copies: traced_peak(
            run_ok, ["convert", str(path), "--output", str(tmp_path / f"out{copies}"),
                     "--config", str(cfgf), "--threads", "2"])
            for copies, path in recs.items()}
        # One window's memory: a copy of the largest window's events and the
        # peak of building its frame.
        stream = codec.decode_evs(recs[1].read_bytes())
        largest = max(partition_windows(stream, 50_000), key=lambda w: w.stop - w.start)
        cfg = cli.load_config(str(cfgf))

        def build_window():
            events = EventStream(self.GEOMETRY, *(getattr(stream, f)[largest.start:largest.stop]
                                                  .copy() for f in "txyp"))
            save_stacked_histogram(tmp_path / "window.evf", events, largest.window, cfg.hist,
                                   factor=cfg.downscale_factor, method=cfg.downscale_method,
                                   pad_multiple=cfg.pad_multiple)

        window = traced_peak(build_window)
        # Above what reading a chunk takes (the stats peak), two threads hold
        # at most two windows, at either recording length.
        reading = traced_peak(run_ok, ["stats", str(recs[4])])
        for copies in recs:
            assert peaks[copies] - reading < 2 * window


    BIN_CONFIG = "[histogram]\nn_bins = 50\n"  # 1 ms bins: at most CHUNK // 4 events here

    def _bounds(self, tmp_path, rec: Path) -> tuple[int, int]:
        """One chunk's decode, and one bin: a bin of CHUNK // 4 events viewing
        a whole chunk's columns, counted and written."""
        def decode():
            with codec.Recording(rec) as recording:
                for chunk in recording.chunks():
                    del chunk

        cfg = cli.load_config(str(tiny_config(tmp_path / "bin.ini", self.BIN_CONFIG)))
        counter = BinCounter(self.GEOMETRY, cfg.hist, pad_multiple=cfg.pad_multiple)
        chunk = make_stream(np.random.default_rng(9), codec.CHUNK, self.GEOMETRY, 1_000)
        fd = counter.create(tmp_path / "bin.evf")

        def one_bin():
            p, y, x = (getattr(chunk, f).copy() for f in "pyx")
            counter.write(fd, 0, *(c[:codec.CHUNK // 4] for c in (p, y, x)), counter.buffer())

        try:
            return traced_peak(decode), traced_peak(one_bin)
        finally:
            os.close(fd)

    @pytest.mark.parametrize("chunks", [2, 8.5])
    def test_memory_is_a_chunk_and_a_bin_whatever_the_window(self, tmp_path, chunks):
        # One 50 ms window of 2 or 8.5 chunks: convert holds one chunk's decode
        # and one bin, not the window.
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(make_stream(
            np.random.default_rng(10), int(chunks * codec.CHUNK), self.GEOMETRY, 50_000)))
        cfgf = str(tiny_config(tmp_path / "cfg.ini", self.BIN_CONFIG))
        out = tmp_path / "out"
        peak = traced_peak(run_ok, ["convert", str(rec), "--output", str(out),
                                    "--config", cfgf])
        assert len(list(out.glob("frame_*.evf"))) == 1
        decode, one_bin = self._bounds(tmp_path, rec)
        assert peak < decode + one_bin

    def test_memory_at_two_threads_is_a_chunk_and_two_bins(self, tmp_path):
        # Two 50 ms windows of 4.25 chunks each, so both workers run.
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(make_stream(
            np.random.default_rng(11), int(8.5 * codec.CHUNK), self.GEOMETRY, 100_000)))
        cfgf = str(tiny_config(tmp_path / "cfg.ini", self.BIN_CONFIG))
        peak = traced_peak(run_ok, ["convert", str(rec), "--output", str(tmp_path / "out"),
                                    "--config", cfgf, "--threads", "2"])
        decode, one_bin = self._bounds(tmp_path, rec)
        assert peak < decode + 2 * one_bin

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("extra", ["", "downscale_factor = 2\n"])
    def test_bins_across_chunk_edges_match_the_staged_frames(self, tmp_path, capsys, extra,
                                                              threads):
        # 2.3 chunks over 3.5 windows of 10 bins: bins straddle both chunk
        # edges, and the last window ends mid-window, so its last five bins
        # are never streamed.  Each frame is the staged build of its window.
        stream = make_stream(np.random.default_rng(12), int(2.3 * codec.CHUNK),
                             self.GEOMETRY, 175_000)
        rec = tmp_path / "rec.evs"
        rec.write_bytes(codec.encode_evs(stream))
        cfgf = tiny_config(tmp_path / "cfg.ini", extra)
        cfg = cli.load_config(str(cfgf))
        out = tmp_path / "out"
        rc, err = run_cli(["convert", str(rec), "--output", str(out), "--config", str(cfgf),
                           "--threads", threads], capsys)
        assert (rc, err) == (0, "")
        lines = (out / "index.txt").read_text().splitlines()
        assert [line.split()[4] for line in lines] == ["partial=0"] * 3 + ["partial=1"]
        for line in lines:
            fields = codec.parse_fields(line, 0, ())
            window = TimeWindow(int(fields["t0"]), int(fields["t1"]))
            frame = stacked_histogram(slice_window(stream, window), window, cfg.hist)
            if cfg.downscale_factor > 1:
                frame = downscale(frame, cfg.downscale_factor, cfg.downscale_method)
            save_evf(tmp_path / "staged.evf", pad_to_multiple(frame, cfg.pad_multiple)[0])
            assert ((out / fields["file"]).read_bytes()
                    == (tmp_path / "staged.evf").read_bytes()), fields["file"]
        # A fault in the last chunk: the windows before it are written, the index is not.
        records = np.frombuffer(rec.read_bytes(), codec.EVS_RECORD_DTYPE,
                                offset=codec.EVS_HEADER_SIZE).copy()
        records["x"][2 * codec.CHUNK + 5] = 32
        rec.write_bytes(rec.read_bytes()[:codec.EVS_HEADER_SIZE] + records.tobytes())
        bad = tmp_path / "bad"
        rc, err = run_cli(["convert", str(rec), "--output", str(bad), "--config", str(cfgf),
                           "--threads", threads], capsys)
        assert rc == 1 and err.startswith("error code=OutOfBounds")
        assert list(bad.glob("frame_*.evf"))
        assert not (bad / "index.txt").exists()


class TestAugmentCommand:
    def _converted(self, tmp_path) -> tuple[Path, Path, Path]:
        rec = tmp_path / "rec.evs"
        synth_recording(rec)
        ann = tmp_path / "ann.txt"
        synth_annotations(ann)
        cfgf = tiny_config(tmp_path / "cfg.ini")
        frames = tmp_path / "frames"
        cli.main(["convert", str(rec), "--output", str(frames), "--config", str(cfgf)])
        return frames, ann, cfgf

    def test_identity_config_copies_frames(self, tmp_path):
        frames, ann, _ = self._converted(tmp_path)
        cfgf = tiny_config(
            tmp_path / "id.ini",
            "[augment]\nhflip_p = 0\nrotate_p = 0\ntranslate_p = 0\n"
            "scale_p = 0\nshear_p = 0\nerase_p = 0\n",
        )
        out = tmp_path / "aug"
        rc = cli.main(["augment", str(frames), "--output", str(out),
                       "--annotations", str(ann), "--config", str(cfgf)])
        assert rc == 0
        for k, src in enumerate(sorted(frames.glob("frame_*.evf"))):
            assert (out / f"aug_{k:06d}.evf").read_bytes() == src.read_bytes()
        assert codec.read_annotations(out / "annotations.txt") == \
            codec.read_annotations(ann)

    @pytest.mark.parametrize("key, value, ok", [
        ("rotate_deg", "1e308", False),  # uniform(-m, m) needs a finite 2 * m
        ("shear_deg", "1e308", False),
        ("translate_frac", "1e308", False),
        ("translate_frac", "8e307", False),  # drawable, but the shift in pixels is not finite
        ("scale_range_max", "1e308", False),  # drawable, but the scale about the center is not
        ("erase_area_max", "1e308", True),  # no erasure size fits, so none is drawn
    ])
    def test_extreme_magnitude_is_one_error_line_or_success(self, tmp_path, capsys,
                                                            key, value, ok):
        frames, ann, _ = self._converted(tmp_path)
        every_stage = "".join(f"{stage}_p = 1\n" for stage in
                              ("hflip", "rotate", "translate", "scale", "shear", "erase"))
        cfgf = tiny_config(tmp_path / "extreme.ini", f"[augment]\n{every_stage}{key} = {value}\n")
        capsys.readouterr()
        rc = cli.main(["augment", str(frames), "--output", str(tmp_path / "aug"),
                       "--annotations", str(ann), "--config", str(cfgf)])
        err = capsys.readouterr().err
        if ok:
            assert (rc, err) == (0, "")
        else:
            assert rc == 1 and re.fullmatch('error code=ValueError msg="[^\n]*"\n', err), err

    def test_overflowing_scale_is_one_singular_transform_line(self, tmp_path, capsys):
        # A scale of about 1e200 is finite, but its determinant is not, so the
        # warp's inverse is singular: one error line, and no numpy warning first.
        frames, ann, _ = self._converted(tmp_path)
        cfgf = tiny_config(tmp_path / "huge.ini", "[augment]\ntranslate_p = 1\nscale_p = 1\n"
                                                  "scale_range_max = 1e200\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["augment", str(frames), "--output", str(tmp_path / "aug"),
                           "--annotations", str(ann), "--config", str(cfgf)])
        err = capsys.readouterr().err
        assert rc == 1 and re.fullmatch('error code=SingularTransform msg="[^\n]*"\n', err), err

    def test_far_off_translation_writes_zero_frames_and_no_boxes(self, tmp_path, capsys):
        # Shifts of about 1e306 frame widths are finite, so the draw is valid,
        # but no output pixel samples the frame and no box stays in it.
        frames, ann, _ = self._converted(tmp_path)
        cfgf = tiny_config(tmp_path / "far.ini",
                           "[augment]\ntranslate_p = 1\ntranslate_frac = 1e306\n")
        out = tmp_path / "aug"
        capsys.readouterr()
        rc = cli.main(["augment", str(frames), "--output", str(out), "--annotations", str(ann),
                       "--config", str(cfgf), "--mode", "video"])
        assert (rc, capsys.readouterr().err) == (0, "")
        written = sorted(out.glob("aug_*.evf"))
        assert len(written) == 20
        for path in written:
            values = read_evf(path.read_bytes()).values
            assert values.dtype == np.float32 and not values.any()
        assert codec.read_annotations(ann) and codec.read_annotations(out / "annotations.txt") == []

    def test_seeded_rerun_identical(self, tmp_path):
        frames, ann, cfgf = self._converted(tmp_path)
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        for out in (out1, out2):
            cli.main(["augment", str(frames), "--output", str(out),
                      "--annotations", str(ann), "--config", str(cfgf),
                      "--mode", "video"])
        assert tree_hash(out1) == tree_hash(out2)

    def test_video_mode_one_geometric_record_per_clip(self, tmp_path):
        frames, ann, cfgf = self._converted(tmp_path)
        # a box at frame 3's t1 belongs to frame 4, the first of the second clip
        edge = replace(codec.read_annotations(ann)[0], t=200_000)
        codec.write_annotations(ann, codec.read_annotations(ann) + [edge])
        out = tmp_path / "aug"
        cli.main(["augment", str(frames), "--output", str(out),
                  "--annotations", str(ann), "--config", str(cfgf),
                  "--mode", "video"])
        log = (out / "aug_log.txt").read_text().splitlines()
        geo_lines = [l for l in log if " frames=" in l]
        frame_lines = [l for l in log if " erase=" in l]
        assert len(geo_lines) == 5  # 20 frames in clips of 4
        assert len(frame_lines) == 20
        # each frame's boxes are those with t0 <= t < t1, mapped by its clip's affine
        boxes = codec.read_annotations(ann)
        expected = []
        for k, line in enumerate(cli._read_index(frames)):
            matrix = np.array(geo_lines[k // 4].rsplit("affine=", 1)[1].split(","), float)
            aug = SampledAugmentation(32, 32, False, None, None, None, None,
                                      AffineTransform(matrix.reshape(2, 3)), None)
            expected += apply_to_boxes([b for b in boxes if line["t0"] <= b.t < line["t1"]],
                                       aug)
        assert any(b.t == edge.t for b in expected)
        assert codec.read_annotations(out / "annotations.txt") == \
            sorted(expected, key=lambda b: b.t)

    def test_frame_mode_one_geometric_record_per_frame(self, tmp_path):
        frames, ann, cfgf = self._converted(tmp_path)
        out = tmp_path / "aug"
        cli.main(["augment", str(frames), "--output", str(out), "--config", str(cfgf),
                  "--mode", "frame"])
        log = (out / "aug_log.txt").read_text().splitlines()
        assert len([l for l in log if " frames=" in l]) == 20

    def test_memory_bounded_by_a_frame(self, tmp_path):
        # 16 gen1 frames augmented in clips of 2 and in one clip of 16: video mode
        # may hold more for the longer clip only by less than one float32 output frame.
        rec = tmp_path / "rec.evs"
        stream = make_stream(np.random.default_rng(16), 16_000, SensorGeometry(304, 240),
                             800_000)
        rec.write_bytes(codec.encode_evs(stream))
        frames = tmp_path / "frames"
        assert cli.main(["convert", str(rec), "--output", str(frames)]) == 0
        assert len(list(frames.glob("frame_*.evf"))) == 16
        peaks = []
        for clip_len in (2, 16):
            cfgf = tmp_path / f"clip{clip_len}.ini"
            cfgf.write_text(f"[pipeline]\nclip_len = {clip_len}\n[augment]\nrotate_p = 1\n")
            out = tmp_path / f"aug{clip_len}"
            peaks.append(traced_peak(run_ok, ["augment", str(frames), "--output", str(out),
                                              "--config", str(cfgf), "--mode", "video"]))
            assert len(list(out.glob("aug_*.evf"))) == 16
            assert read_evf((out / "aug_000000.evf").read_bytes()).values.dtype == np.float32
        assert peaks[1] - peaks[0] < 20 * 256 * 320 * 4


class TestStreamedAugment:
    """`augment` reads a clip's frames into one bordered source and warps and
    writes each output a slab of rows at a time."""

    ROTATE = "[pipeline]\nclip_len = 3\n[augment]\nrotate_p = 1\n"

    @staticmethod
    def _float_frames(frames: Path, shape: tuple[int, int, int], n: int) -> None:
        rng = np.random.default_rng(7)
        frames.mkdir()
        for k in range(n):
            save_evf(frames / f"frame_{k:06d}.evf",
                     FrameTensor(rng.uniform(0, 4, shape).astype(np.float32)))
        (frames / "index.txt").write_text("".join(
            f"window={k} t0={k * 50_000} t1={(k + 1) * 50_000} file=frame_{k:06d}.evf\n"
            for k in range(n)))

    @staticmethod
    def _gen1_frames(tmp_path: Path, n: int) -> Path:
        rec = tmp_path / "rec.evs"
        stream = make_stream(np.random.default_rng(n), 2_000 * n, SensorGeometry(304, 240),
                             50_000 * n)
        rec.write_bytes(codec.encode_evs(stream))
        frames = tmp_path / "frames"
        run_ok(["convert", str(rec), "--output", str(frames)])
        return frames

    def _augment_peak(self, tmp_path: Path, frames: Path, seed: int) -> tuple[int, int]:
        """The traced peak of a rotation-draw video augment of `frames`, and
        the bytes of that draw's tap table."""
        cfgf = tmp_path / "rotate.ini"
        cfgf.write_text(self.ROTATE)
        peak = traced_peak(run_ok, ["augment", str(frames), "--output", str(tmp_path / "aug"),
                                    "--mode", "video", "--config", str(cfgf),
                                    "--seed", str(seed)])
        _, height, width = read_evf((frames / "frame_000000.evf").read_bytes()).shape
        aug = augmod.sample_augmentation(cli.load_config(str(cfgf)).augment, height, width,
                                         np.random.default_rng(seed).spawn(1)[0])
        return peak, sum(a.nbytes for a in augmod._warp_taps(aug))

    def test_gen1_memory_is_source_table_and_a_slab(self, tmp_path):
        # uint16 gen1 frames: the bordered source, the tap table, and a margin
        # for one SLAB of output rows, the warp's BLOCK buffers (0.7 MB at 20
        # channels) and the command's own state; not the frame three times over.
        frames = self._gen1_frames(tmp_path, 3)
        peak, table = self._augment_peak(tmp_path, frames, 5)
        source = 20 * 258 * 322 * 2
        assert peak < source + table + augmod.SLAB + 1.5 * 2**20

    def test_gen4_like_memory_is_about_one_bordered_frame(self, tmp_path):
        shape = (20, 384, 640)
        frames = tmp_path / "frames"
        self._float_frames(frames, shape, 2)
        peak, table = self._augment_peak(tmp_path, frames, 6)
        bordered = 20 * 386 * 642 * 4
        assert peak < 1.1 * bordered + table + 2 * 2**20

    def test_existing_outputs_are_replaced(self, tmp_path):
        # Scaled by 0.5 about the center, the top and bottom slabs sample
        # nothing and stay holes, so a file written into in place would keep
        # its old bytes there.  One old file is longer than a frame, one shorter.
        frames = self._gen1_frames(tmp_path, 3)
        cfgf = tmp_path / "half.ini"
        cfgf.write_text("[augment]\nscale_p = 1\nscale_range_min = 0.5\n"
                        "scale_range_max = 0.5\nerase_p = 1\n")
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        reused.mkdir()
        (reused / "aug_000000.evf").write_bytes(b"\xff" * (8 << 20))
        (reused / "aug_000001.evf").write_bytes(b"\xff" * 100)
        for out in (fresh, reused):
            run_ok(["augment", str(frames), "--output", str(out), "--mode", "video",
                    "--config", str(cfgf)])
        assert tree_hash(reused) == tree_hash(fresh)
        rows = augmod.SLAB // (20 * 320 * 4)
        assert rows < 64  # the first slab lies above the scaled frame
        assert not read_evf((fresh / "aug_000000.evf").read_bytes()).values[:, :rows].any()

    @pytest.mark.parametrize("fault", ["truncated", "magic", "non-finite"])
    def test_bad_frame_stops_after_the_frames_before_it(self, tmp_path, capsys, fault):
        # Float frames of more than one band: the third frame is bad.
        c, width = 2, 512
        height = augmod.SLAB // (c * width * 4) + 16
        frames = tmp_path / "frames"
        self._float_frames(frames, (c, height, width), 3)
        bad = frames / "frame_000002.evf"
        data = bad.read_bytes()
        body = c * height * width * 4
        if fault == "truncated":
            bad.write_bytes(data[:-2])
            expected = f'TruncatedFile msg="body is {body - 2} bytes, expected {body}"'
        elif fault == "magic":
            bad.write_bytes(b"EVF2" + data[4:])
            expected = "BadMagic msg=\"expected b'EVF1'\""
        else:
            values = read_evf(data).values.copy()
            values[1, 0, 3] = np.nan  # in the first band
            values[0, height - 2, 5] = -np.inf  # in the second band, at a lower flat index
            save_evf(bad, FrameTensor(values))
            expected = (f'NonFiniteValue msg="at index {(height - 2) * width + 5} '
                        '(value -inf is not finite)"')
        cfgf = tmp_path / "rotate.ini"
        cfgf.write_text(self.ROTATE)
        out = tmp_path / "aug"
        capsys.readouterr()
        rc = cli.main(["augment", str(frames), "--output", str(out), "--mode", "video",
                       "--config", str(cfgf), "--seed", "4"])
        assert (rc, capsys.readouterr().err) == (1, f"error code={expected}\n")
        assert not (out / "aug_000002.evf").exists()
        # The frames before it are those of the in-memory augmentation.
        good = [read_evf((frames / f"frame_{k:06d}.evf").read_bytes()) for k in range(2)]
        clip = augmod.augment_clip(good, [[], []], cli.load_config(str(cfgf)).augment,
                                   np.random.default_rng(4).spawn(1)[0])
        for k, (frame, _, _) in enumerate(clip):
            assert (out / f"aug_{k:06d}.evf").read_bytes() == write_evf(frame)


class TestPlanCommand:
    def test_plan_roundtrip(self, tmp_path, capsys):
        index = tmp_path / "seqs.txt"
        index.write_text(
            "".join(f"seq=s{k} frames=100 annotated=-\n" for k in range(10))
        )
        rc = cli.main(["plan", str(index), "--seed", "3"])
        assert rc == 0
        batches = parse_plan(capsys.readouterr().out)
        assert all(len(b) == 8 for b in batches)

    def test_plan_to_file_deterministic(self, tmp_path):
        index = tmp_path / "seqs.txt"
        index.write_text("seq=a frames=50 annotated=-\nseq=b frames=50 annotated=-\n")
        p1, p2 = tmp_path / "p1.txt", tmp_path / "p2.txt"
        cli.main(["plan", str(index), "--output", str(p1), "--seed", "5"])
        cli.main(["plan", str(index), "--output", str(p2), "--seed", "5"])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("second", [
        "seq=a frames=6",  # the plan would mix two sequences under one id
        "seq=b frames=99999999999999999999",  # beyond int64
    ])
    def test_bad_index_line_is_one_parse_error_line(self, tmp_path, capsys, second):
        index = tmp_path / "seqs.txt"
        index.write_text(f"seq=a frames=5\n{second}\n")
        rc = cli.main(["plan", str(index), "--output", str(tmp_path / "plan.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith('error code=ParseError msg="at index 2 (')
        assert not (tmp_path / "plan.txt").exists()


class TestEvaluateCommand:
    def test_perfect_predictions(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        synth_annotations(gt, seed=9)
        rc = cli.main(["evaluate", str(gt), str(gt)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "map=1.0"

    def test_report_written_to_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        synth_annotations(gt, seed=9)
        report = tmp_path / "report.txt"
        cli.main(["evaluate", str(gt), str(gt), "--output", str(report)])
        assert report.read_text() == capsys.readouterr().out


class TestErrors:
    def test_missing_file_single_line_error(self, tmp_path, capsys):
        rc = cli.main(["stats", str(tmp_path / "nope.evs")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=")

    def test_codec_error_is_machine_parsable(self, tmp_path, capsys):
        bad = tmp_path / "bad.evs"
        bad.write_bytes(b"EVS1" + b"\x00" * 10)  # truncated header
        rc = cli.main(["stats", str(bad)])
        assert rc == 1
        assert "error code=TruncatedFile" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "window=0 t0=0 t1=50000 partial=0",  # no file=
        "window=0 t0=0 t1=50000 file=frame_000000.evf stray",
        "window=0 t0=zero t1=50000 file=frame_000000.evf",
        "window=0 t0=50000 t1=0 file=frame_000000.evf",  # ends before it starts
        "window=0 t0=50000 t1=50000 file=frame_000000.evf",
    ])
    def test_malformed_index_is_parse_error(self, tmp_path, capsys, line):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "index.txt").write_text(line + "\n")
        rc = cli.main(["augment", str(frames), "--output", str(tmp_path / "aug")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=ParseError")

    def test_index_windows_ordered_and_disjoint(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        ok = ["window=0 t0=0 t1=50000 file=a.evf", "window=1 t0=50000 t1=100000 file=b.evf",
              "window=2 t0=150000 t1=200000 file=c.evf"]  # adjacent, then a gap
        (frames / "index.txt").write_text("\n".join(ok) + "\n")
        assert [e["t0"] for e in cli._read_index(frames)] == [0, 50_000, 150_000]
        for bad in ("window=3 t0=199999 t1=250000 file=d.evf",  # overlaps window 2
                    "window=3 t0=0 t1=50000 file=d.evf"):  # out of order
            (frames / "index.txt").write_text("\n".join(ok + [bad]) + "\n")
            with pytest.raises(ParseError) as exc:
                cli._read_index(frames)
            assert exc.value.index == 4

    def test_frame_outside_the_directory_is_parse_error(self, tmp_path, capsys):
        # A valid frame in a sibling directory, named through the frames' index.
        frames, other = tmp_path / "frames", tmp_path / "o"
        frames.mkdir()
        other.mkdir()
        for d in (frames, other):
            save_evf(d / "frame_000000.evf", FrameTensor(np.ones((2, 4, 6), dtype=np.uint16)))
        for name in ("../o/frame_000000.evf", str(other / "frame_000000.evf")):
            (frames / "index.txt").write_text(
                "window=0 t0=0 t1=50000 file=frame_000000.evf\n"
                f"window=1 t0=50000 t1=100000 file={name}\n")
            rc = cli.main(["augment", str(frames), "--output", str(tmp_path / "aug")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith('error code=ParseError msg="at index 2 (')
            assert "is not a plain file name" in err
            assert not (tmp_path / "aug").exists()

    def test_missing_index_is_bad_header(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "frame_000000.evf").write_bytes(b"")
        rc = cli.main(["augment", str(frames), "--output", str(tmp_path / "aug")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=BadHeader") and "index.txt" in err
        assert not (tmp_path / "aug").exists()

    def test_non_finite_frame_is_one_error_line(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        values = np.zeros((2, 4, 6), dtype=np.float32)
        values[1, 3, 5] = np.nan
        save_evf(frames / "frame_000000.evf", FrameTensor(values))
        (frames / "index.txt").write_text("window=0 t0=0 t1=50000 file=frame_000000.evf\n")
        rc = cli.main(["augment", str(frames), "--output", str(tmp_path / "aug")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=NonFiniteValue") and "at index 47" in err

    def test_missing_recording_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["convert", str(tmp_path / "nope.evs"), "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=FileNotFoundError")
        assert not out.exists()

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32])
    def test_frame_shape_sweep_is_one_error_line_or_success(self, tmp_path, capsys, dtype):
        # Every stage is drawn, so each frame is warped, flipped and erased.
        cfgf = tiny_config(tmp_path / "cfg.ini", "[augment]\n" + "".join(
            f"{stage}_p = 1\n" for stage in ("hflip", "rotate", "translate", "scale",
                                             "shear", "erase")))
        for c, h, w in np.ndindex(3, 3, 3):
            frames = tmp_path / f"frames_{c}{h}{w}"
            frames.mkdir()
            save_evf(frames / "f.evf", FrameTensor(np.ones((c, h, w), dtype=dtype)))
            (frames / "index.txt").write_text("window=0 t0=0 t1=50000 file=f.evf\n")
            rc = cli.main(["augment", str(frames), "--output", str(tmp_path / f"aug_{c}{h}{w}"),
                           "--config", str(cfgf)])
            err = capsys.readouterr().err
            assert rc == 0 and err == "" or rc == 1 and re.fullmatch("error code=.*\n", err), \
                (c, h, w, rc, err)
            if 0 in (c, h, w):
                assert err.startswith("error code=BadHeader"), (c, h, w, err)

    @pytest.mark.parametrize("command", ["convert", "augment"])
    def test_annotation_t_beyond_int64_is_parse_error(self, tmp_path, capsys, command):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=200)
        cfgf = str(tiny_config(tmp_path / "cfg.ini"))
        frames = tmp_path / "frames"
        assert cli.main(["convert", str(rec), "--output", str(frames), "--config", cfgf]) == 0
        ann = tmp_path / "ann.txt"
        synth_annotations(ann, n=3)
        ann.write_text(ann.read_text() + "t=99999999999999999999999 x=1.0 y=1.0 w=2.0 h=2.0 "
                                          "class=0 score=1.0 track=-\n")
        source = str(rec) if command == "convert" else str(frames)
        rc = cli.main([command, source, "--output", str(tmp_path / "out"),
                       "--annotations", str(ann), "--config", cfgf])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith('error code=ParseError msg="at index 4 (t=99999999999999999999999')
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, callee", [("convert", "BinCounter"),
                                                 ("stats", "read_recording")])
    def test_memory_error_is_one_line(self, tmp_path, capsys, monkeypatch, command, callee):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array with\n"
                              "shape (4294967296,) and data type int64")

        monkeypatch.setattr(cli, callee, exhausted)
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=500)
        argv = [command, str(rec), "--config", str(tiny_config(tmp_path / "cfg.ini"))]
        if command == "convert":
            argv += ["--output", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert re.fullmatch(r'error code=MemoryError msg="Unable to allocate 32\.0 GiB for an '
                            r'array with shape \(4294967296,\) and data type int64"\n',
                            capsys.readouterr().err)

    def test_env_threads_fallback(self, tmp_path, monkeypatch):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=200)
        monkeypatch.setenv("EVKIT_THREADS", "2")
        out = tmp_path / "out"
        rc = cli.main(["convert", str(rec), "--output", str(out),
                       "--config", str(tiny_config(tmp_path / "cfg.ini"))])
        assert rc == 0


FULL_CONFIG = """\
[pipeline]
preset = gen4-like
geometry = 640x480
downscale_factor = 4
downscale_method = bicubic
pad_multiple = 16
clip_len = 7
n_random = 3
n_sequential = 5
seed = 11
threads = 2

[histogram]
t_frame_us = 20000
n_bins = 5
clip_limit = 255

[augment]
hflip_p = 0.1
rotate_p = 0.2
rotate_deg = 10.0
translate_p = 0.3
translate_frac = 0.25
scale_p = 0.4
scale_range_min = 0.75
scale_range_max = 1.25
shear_p = 0.5
shear_deg = 5.0
erase_p = 0.7
erase_area_min = 0.05
erase_area_max = 0.2
erase_ratio_min = 0.5
erase_ratio_max = 2.0
min_box_area = 9.0
min_box_visibility = 0.3

[eval]
class_ids = 0,2
min_diagonal = 30.0
skip_initial_us = 500000
time_tolerance_us = 1000
"""


class TestConfig:
    def test_every_key_reaches_the_config(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(FULL_CONFIG)
        expected = cli.PipelineConfig(
            preset="gen4-like",
            geometry=SensorGeometry(640, 480),
            downscale_factor=4,
            downscale_method="bicubic",
            pad_multiple=16,
            clip_len=7,
            n_random=3,
            n_sequential=5,
            hist=StackedHistogramConfig(t_frame=20_000, n_bins=5, clip_limit=255),
            augment=AugmentConfig(
                hflip_p=0.1, rotate_p=0.2, rotate_deg=10.0, translate_p=0.3,
                translate_frac=0.25, scale_p=0.4, scale_range=(0.75, 1.25),
                shear_p=0.5, shear_deg=5.0, erase_p=0.7, erase_area=(0.05, 0.2),
                erase_ratio=(0.5, 2.0), min_box_area=9.0, min_box_visibility=0.3,
            ),
            eval=EvalConfig(class_ids=(0, 2), min_diagonal=30.0,
                            skip_initial_us=500_000, time_tolerance_us=1000),
            seed=11,
            threads=2,
        )
        assert cli.load_config(str(path)) == expected

    def test_empty_value_means_unset(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("[pipeline]\nseed =\n[eval]\nskip_initial_us =\nmin_diagonal =\n")
        cfg = cli.load_config(str(path))
        assert cfg.seed == 0
        assert cfg.eval == EvalConfig()
        assert cfg == cli.load_config(None)

    @pytest.mark.parametrize("extra", [
        "[histogramm]\nn_bins = 5\n",                 # unknown section
        "[DEFAULT]\nseed = 3\n",                      # no section is special
        "[histogram]\nt_frame = 20000\n",             # misspelt key
        "[histogram]\nt_frame_us = 0\n",
        "[histogram]\nn_bins = 0\n",
        "[histogram]\nt_frame_us = 32768\nn_bins = 32768\n",  # 65536 EVF channels
        "downscale_method = area\n",
        "downscale_factor = 0\n",
        "pad_multiple = 0\n",
        "[augment]\nmin_box_area = nan\n",
        "[eval]\nmin_diagonal = inf\n",
        "[eval]\ntime_tolerance_us = -5\n",
        "[eval]\nmin_diagonal = -3\n",
        "[eval]\nskip_initial_us = -7\n",
        "[augment]\nmin_box_visibility = 2.0\n",
        "[augment]\nmin_box_visibility = -0.1\n",
        "[augment]\nmin_box_area = -1\n",
        "[augment]\nrotate_deg = -30\n",
        "[augment]\nshear_deg = -5\n",
        "[augment]\ntranslate_frac = -0.1\n",
    ])
    def test_bad_config_fails_before_output(self, tmp_path, capsys, extra):
        rec = tmp_path / "rec.evs"
        synth_recording(rec, n=200)
        out = tmp_path / "out"
        rc = cli.main(["convert", str(rec), "--output", str(out),
                       "--config", str(tiny_config(tmp_path / "cfg.ini", extra))])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=")
        assert not out.exists()

    def test_n_bins_up_to_the_evf_channel_limit_loads(self, tmp_path):
        path = tiny_config(tmp_path / "cfg.ini",
                           "[histogram]\nt_frame_us = 32767\nn_bins = 32767\n")
        assert cli.load_config(str(path)).hist.n_bins == 32767

    @pytest.mark.parametrize("text, lineno", [
        ("preset = gen1-like\n", 1),                   # no section header
        ("[pipeline]\nseed = 1\nclip_len = 4\nseed = 2\n", 4),  # repeated key
        ("[pipeline]\nseed = 1\nnot a key value line\n", 3),
        ("[pipeline]\nseed = 1\npreset = caf\xe9\n", 3),  # a non-ASCII byte
    ])
    def test_config_syntax_error_is_parse_error(self, tmp_path, capsys, text, lineno):
        path = tmp_path / "cfg.ini"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(ParseError) as exc:
            cli.load_config(str(path))
        assert exc.value.index == lineno
        rc = cli.main(["plan", str(tmp_path / "none.txt"), "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=ParseError")
