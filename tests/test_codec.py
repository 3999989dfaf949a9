from __future__ import annotations

import struct

import numpy as np
import pytest

from evkit import codec
from evkit.errors import (
    BadHeader,
    BadMagic,
    EvkitError,
    ParseError,
    TruncatedFile,
    VersionUnsupported,
)
from evkit.event_core import Event, SensorGeometry, validate_stream

from conftest import make_stream

GEN1 = SensorGeometry(304, 240)


class TestEvs:
    def test_empty_roundtrip(self):
        s = validate_stream([], GEN1)
        assert codec.decode_evs(codec.encode_evs(s)) == s

    def test_random_roundtrip(self, rng):
        s = make_stream(rng, 10_000, GEN1, 60_000_000)
        assert codec.decode_evs(codec.encode_evs(s)) == s

    def test_large_timestamp_preserved(self):
        s = validate_stream([Event(2**40, 0, 0, 1)], GEN1)
        out = codec.decode_evs(codec.encode_evs(s))
        assert out[0].t == 2**40

    def test_header_fields(self, rng):
        s = make_stream(rng, 5, GEN1, 100)
        h = codec.evs_header(codec.encode_evs(s))
        assert h.geometry == GEN1
        assert h.event_count == 5
        assert h.format_version == 1

    def test_record_layout_is_14_bytes(self):
        s = validate_stream([Event(1, 2, 3, 1)], GEN1)
        blob = codec.encode_evs(s)
        assert len(blob) == codec.EVS_HEADER_SIZE + 14
        # little-endian fields at fixed offsets
        assert blob[20:28] == (1).to_bytes(8, "little")
        assert blob[28:30] == (2).to_bytes(2, "little")
        assert blob[30:32] == (3).to_bytes(2, "little")
        assert blob[32] == 1
        assert blob[33] == 0

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            codec.decode_evs(b"XXXX" + bytes(16))

    def test_version_unsupported(self):
        with pytest.raises(VersionUnsupported):
            codec.decode_evs(b"EVS9" + bytes(16))

    def test_out_of_range_geometry_is_bad_header(self):
        header = codec.EVS_MAGIC + (70_000).to_bytes(4, "little") \
            + (240).to_bytes(4, "little") + (0).to_bytes(8, "little")
        with pytest.raises(BadHeader):
            codec.decode_evs(header)

    def test_truncated_body(self, rng):
        blob = codec.encode_evs(make_stream(rng, 3, GEN1, 100))
        with pytest.raises(TruncatedFile):
            codec.decode_evs(blob[:-1])
        with pytest.raises(TruncatedFile):
            codec.decode_evs(blob + b"\x00")


def dat_blob(events, header=b"% Width 304\n% Height 240\n", event_size=8):
    body = b""
    for t, x, y, p in events:
        body += struct.pack("<II", t, (x & 0x3FFF) | ((y & 0x3FFF) << 14) | (p << 28))
    return header + bytes([0x00, event_size]) + body


class TestDat:
    GOLDEN_EVENTS = [(10, 5, 7, 1), (20, 303, 239, 0), (30, 0, 0, 0xF)]

    def test_golden_blob(self):
        s = codec.decode_dat(dat_blob(self.GOLDEN_EVENTS))
        assert [(e.t, e.x, e.y, e.p) for e in s] == [
            (10, 5, 7, 1),
            (20, 303, 239, 0),
            (30, 0, 0, 1),  # any nonzero polarity nibble decodes to 1
        ]
        assert s.geometry == GEN1

    def test_zero_event_body(self):
        s = codec.decode_dat(dat_blob([]))
        assert len(s) == 0

    def test_caller_geometry_when_header_lacks_it(self):
        s = codec.decode_dat(dat_blob([(1, 2, 3, 1)], header=b"% comment\n"), GEN1)
        assert s.geometry == GEN1

    def test_geometry_required(self):
        with pytest.raises(BadHeader):
            codec.decode_dat(dat_blob([], header=b""))

    def test_geometry_line_variant(self):
        s = codec.decode_dat(dat_blob([], header=b"% geometry 640x480\n"))
        assert s.geometry == SensorGeometry(640, 480)

    @pytest.mark.parametrize("header", [
        b"% geometry 0x0\n",
        b"% Width 70000\n% Height 240\n",
        b"% Width 304\n",  # one dimension only, not the caller's geometry
    ])
    def test_bad_header_geometry(self, header):
        with pytest.raises(BadHeader):
            codec.decode_dat(dat_blob([], header=header), GEN1)

    def test_truncated_record(self):
        blob = dat_blob([(1, 2, 3, 1)]) + b"\x00" * 7
        with pytest.raises(TruncatedFile):
            codec.decode_dat(blob)

    def test_bad_event_size(self):
        with pytest.raises(BadHeader):
            codec.decode_dat(dat_blob([], event_size=4))

    def test_unterminated_header(self):
        with pytest.raises(TruncatedFile):
            codec.decode_dat(b"% never ends")

    def test_out_of_bounds_coordinates(self):
        from evkit.errors import OutOfBounds

        with pytest.raises(OutOfBounds):
            codec.decode_dat(dat_blob([(1, 400, 0, 1)]))

    def test_fuzz_never_crashes(self, rng):
        for _ in range(2_000):
            n = int(rng.integers(0, 64))
            data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
            try:
                codec.decode_dat(data, GEN1)
            except EvkitError:
                pass


class TestAnnotations:
    def test_single_record(self, tmp_path):
        box = codec.AnnotatedBox(t=50_000, x=10, y=20, w=30, h=40, class_id=0)
        path = tmp_path / "ann.txt"
        codec.write_annotations(path, [box])
        assert codec.read_annotations(path) == [box]

    def test_zero_width_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("t=1 x=0.0 y=0.0 w=0.0 h=4.0 class=0 score=1.0 track=-\n")
        with pytest.raises(ParseError) as exc:
            codec.read_annotations(path)
        assert exc.value.index == 1

    @pytest.mark.parametrize("line", [
        "t=1 x=nan y=0 w=inf h=2 class=0 score=1.0 track=-",
        "t=1 x=0 y=-inf w=2 h=2 class=0 score=1.0 track=-",
        "t=1 x=0 y=0 w=2 h=nan class=0 score=1.0 track=-",
        "t=1 x=0 y=0 w=2 h=2 class=0 score=nan track=-",
        "t=1 x=0 y=0 w=1e-170 h=1e-170 class=0 score=1.0 track=-",
        "t=1 x=0 y=0 w=1e200 h=1e200 class=0 score=1.0 track=-",
    ])
    def test_non_finite_is_parse_error(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text("t=0 x=0 y=0 w=2 h=2 class=0 score=1.0 track=-\n" + line + "\n")
        with pytest.raises(ParseError) as exc:
            codec.read_annotations(path)
        assert exc.value.index == 2

    @pytest.mark.parametrize(("value", "fields"), [
        *((value, field) for field in "xywh"
          for value in (float("nan"), float("inf"), float("-inf"))),
        (1e-170, "wh"),  # w * h underflows to 0
        (1e200, "wh"),  # w * h overflows to inf
    ])
    def test_non_finite_box_rejected(self, value, fields):
        box = dict(t=0, x=1.0, y=1.0, w=2.0, h=2.0, class_id=0)
        box.update(dict.fromkeys(fields, value))
        with pytest.raises(ValueError, match="finite"):
            codec.AnnotatedBox(**box)

    def test_non_ascii_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"t=0 x=0 y=0 w=2 h=2 class=0 score=1.0 track=-\n"
                         b"t=1 x=0 y=0 w=2 h=2 class=0 score=1.0 track=\xc3\xa9\n")
        with pytest.raises(ParseError) as exc:
            codec.read_annotations(path)
        assert exc.value.index == 2

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("t=1 x=0.0\n")
        with pytest.raises(ParseError):
            codec.read_annotations(path)

    def test_roundtrip_many_random(self, tmp_path, rng):
        boxes = [
            codec.AnnotatedBox(
                t=int(rng.integers(0, 1_000_000)),
                x=float(rng.uniform(0, 300)),
                y=float(rng.uniform(0, 230)),
                w=float(rng.uniform(0.5, 60)),
                h=float(rng.uniform(0.5, 60)),
                class_id=int(rng.integers(0, 3)),
                score=float(rng.uniform(0, 1)),
                track_id=None if rng.random() < 0.5 else int(rng.integers(0, 99)),
            )
            for _ in range(500)
        ]
        path = tmp_path / "ann.txt"
        codec.write_annotations(path, boxes)
        assert codec.read_annotations(path) == sorted(boxes, key=lambda b: b.t)

    def test_track_id_preserved(self, tmp_path):
        box = codec.AnnotatedBox(t=1, x=1, y=1, w=2, h=2, class_id=1, score=0.5,
                                 track_id=-7)
        path = tmp_path / "ann.txt"
        codec.write_annotations(path, [box])
        assert codec.read_annotations(path)[0].track_id == -7

    def test_score_range_enforced(self):
        with pytest.raises(ValueError):
            codec.AnnotatedBox(t=1, x=0, y=0, w=1, h=1, class_id=0, score=1.5)
