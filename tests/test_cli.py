from __future__ import annotations

import hashlib
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evkit import cli, codec
from evkit.augment import AugmentConfig, SampledAugmentation, apply_to_boxes
from evkit.detmetrics import EvalConfig
from evkit.errors import ParseError
from evkit.event_core import SensorGeometry, partition_windows
from evkit.geometry import AffineTransform
from evkit.representation import StackedHistogramConfig, read_evf
from evkit.sampler import parse_plan

from conftest import make_stream


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

    def test_threads_give_identical_output(self, tmp_path):
        rec = tmp_path / "rec.evs"
        synth_recording(rec)
        cfgf = tiny_config(tmp_path / "cfg.ini")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cli.main(["convert", str(rec), "--output", str(out1), "--config", str(cfgf)])
        cli.main(["convert", str(rec), "--output", str(out2), "--config", str(cfgf),
                  "--threads", "4"])
        assert tree_hash(out1) == tree_hash(out2)

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
            tracemalloc.start()
            try:
                rc = cli.main(["convert", str(rec), "--output", str(out), "--threads", "1"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rc == 0
            assert len(list(out.glob("frame_*.evf"))) == n_windows
        assert peaks[1] - peaks[0] < 20 * 256 * 320 * 2

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

    def test_missing_recording_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["convert", str(tmp_path / "nope.evs"), "--output", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=FileNotFoundError")
        assert not out.exists()

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

    @pytest.mark.parametrize("text, lineno", [
        ("preset = gen1-like\n", 1),                   # no section header
        ("[pipeline]\nseed = 1\nclip_len = 4\nseed = 2\n", 4),  # repeated key
        ("[pipeline]\nseed = 1\nnot a key value line\n", 3),
    ])
    def test_config_syntax_error_is_parse_error(self, tmp_path, capsys, text, lineno):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            cli.load_config(str(path))
        assert exc.value.index == lineno
        rc = cli.main(["plan", str(tmp_path / "none.txt"), "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error code=ParseError")
