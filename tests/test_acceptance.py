"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import hashlib
import os
import struct
import time
from pathlib import Path

import numpy as np
import pytest

from evkit import cli, codec
from evkit.augment import AugmentConfig, SampledAugmentation, apply_to_boxes, \
    apply_to_frame, augment_clip, sample_augmentation
from evkit.codec import AnnotatedBox
from evkit.detmetrics import DEFAULT_RECALL_GRID, DEFAULT_THRESHOLDS, evaluate_boxes
from evkit.errors import EvkitError
from evkit.event_core import EventStream, SensorGeometry, TimeWindow, \
    partition_windows, slice_window, stream_windows
from evkit.geometry import AffineTransform, downscale, pad_to_multiple
from evkit.representation import BinCounter, FrameTensor, StackedHistogramConfig, \
    histogram2d, stacked_histogram, sum_over_bins
from evkit.sampler import SequenceIndex, format_plan, parse_plan, plan_epoch, \
    read_sequence_index, write_sequence_index
from evkit.temporal import ConvLSTMParams, ConvLSTMState, FeatureMap, convlstm_step, \
    init_state, load_params, residual_update, save_params

from conftest import make_stream
from oracles import box_iou_ref, naive_downscale, scalar_lstm_step, slow_evaluate
from test_sampler import check_sequential_coverage


def _pass(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def test_criterion_01_conservation_and_bin_refinement():
    rng = np.random.default_rng(101)
    geom = SensorGeometry(64, 48)
    cfg = StackedHistogramConfig(t_frame=50_000, n_bins=10)
    window = TimeWindow(0, 50_000)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(0, 100_001))
        t = np.sort(rng.integers(0, 50_000, n))
        s = EventStream(
            geom, t,
            rng.integers(0, geom.width, n).astype(np.uint16),
            rng.integers(0, geom.height, n).astype(np.uint16),
            rng.integers(0, 2, n).astype(np.uint8),
            validate=False,
        )
        frame = stacked_histogram(s, window, cfg)
        assert int(frame.values.sum(dtype=np.int64)) == n
        assert np.array_equal(sum_over_bins(frame, cfg.n_bins).values,
                              histogram2d(s, window).values)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _pass(1, f"conservation + bin refinement exact on 1000 windows in {elapsed:.2f}s")


def test_criterion_02_shape_pipeline():
    rng = np.random.default_rng(102)
    cfg = StackedHistogramConfig()
    window = TimeWindow(0, 50_000)

    gen1 = make_stream(rng, 10_000, SensorGeometry(304, 240), 50_000)
    f1 = stacked_histogram(gen1, window, cfg)
    assert f1.shape == (20, 240, 304)
    f1, pads1 = pad_to_multiple(f1, 32)
    assert f1.shape == (20, 256, 320) and pads1 == (16, 16)

    gen4 = make_stream(rng, 10_000, SensorGeometry(1280, 720), 50_000)
    f4 = stacked_histogram(gen4, window, cfg)
    assert f4.shape == (20, 720, 1280)
    f4 = downscale(f4, 2, "bilinear")
    assert f4.shape == (20, 360, 640)
    f4, pads4 = pad_to_multiple(f4, 32)
    assert f4.shape == (20, 384, 640) and pads4 == (24, 0)
    _pass(2, "gen1-like (20,256,320) and gen4-like (20,384,640) shapes exact")


def test_criterion_03_codec(tmp_path):
    rng = np.random.default_rng(103)
    geom = SensorGeometry(1280, 720)
    stream = make_stream(rng, 1_000_000, geom, 60_000_000)
    blob = codec.encode_evs(stream)
    decoded = codec.decode_evs(blob)
    assert decoded == stream
    assert codec.encode_evs(decoded) == blob

    golden = (
        b"% Width 304\n% Height 240\n"
        + bytes([0x00, 0x08])
        + struct.pack("<II", 10, 5 | (7 << 14) | (1 << 28))
        + struct.pack("<II", 20, 303 | (239 << 14))
        + struct.pack("<II", 30, 0 | (0xF << 28))
    )
    events = [(e.t, e.x, e.y, e.p) for e in codec.decode_dat(golden)]
    assert events == [(10, 5, 7, 1), (20, 303, 239, 0), (30, 0, 0, 1)]

    fuzz_rng = np.random.default_rng(1033)
    for _ in range(10_000):
        n = int(fuzz_rng.integers(0, 80))
        data = fuzz_rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        try:
            codec.decode_dat(data, SensorGeometry(304, 240))
        except EvkitError:
            pass  # named errors only; anything else fails the test

    # The text readers get the same contract: seeded token and byte mutations
    # of a valid file.  Every input is a few hundred bytes, and no reader may
    # allocate more than its input describes.
    frames = tmp_path / "frames"
    frames.mkdir()
    seq_path = tmp_path / "sequences.txt"
    write_sequence_index(seq_path, [SequenceIndex("a", 5, (True, False) * 2 + (True,)),
                                    SequenceIndex("b", 3)])
    plan = plan_epoch([SequenceIndex("a", 5), SequenceIndex("b", 3)], 2, 1, 1, rng=0)
    blob, manifest = save_params(ConvLSTMParams.random(2, 3, kernel_size=1, rng=0))

    def from_file(path, read):
        def run(data):
            path.write_bytes(data)
            return read(path)
        return run

    readers = {
        "window index": (
            "".join(f"window={k} t0={k * 50_000} t1={(k + 1) * 50_000} file=f{k}.evf "
                    f"partial=0 events=9 ann={k}\n" for k in range(4)).encode(),
            from_file(frames / "index.txt", lambda _: cli._read_index(frames)),
        ),
        "plan": (format_plan(plan).encode(), lambda data: parse_plan(data.decode("latin-1"))),
        "sequence index": (seq_path.read_bytes(), from_file(seq_path, read_sequence_index)),
        "params manifest": (manifest.encode(),
                            lambda data: load_params(blob, data.decode("latin-1"))),
    }
    values = [b"0", b"1", b"2", b"3", b"8", b"-1", b"-", b"", b"a", b"101", b"0x1", b"1e3",
              b"nan", b"50000", b"99999999999999999999", b"\xff"]

    def pick(options):
        return options[int(fuzz_rng.integers(0, len(options)))]

    def mutate_tokens(valid):
        """Drop lines and tokens of a valid file and swap values for odd ones."""
        lines = []
        for line in valid.splitlines():
            if fuzz_rng.random() < 0.1:
                continue
            tokens = []
            for token in line.split(b" "):
                key, sep, _ = token.rpartition(b"=")
                r = fuzz_rng.random()
                if r >= 0.05:
                    tokens.append(key + sep + pick(values) if r < 0.2 else token)
            if fuzz_rng.random() < 0.1:
                tokens.insert(int(fuzz_rng.integers(0, len(tokens) + 1)), pick(values))
            lines.append(b" ".join(tokens))
        return b"".join(line + b"\n" for line in lines)

    for name, (valid, read) in readers.items():
        outcomes = {"parsed": 0, "rejected": 0}
        for trial in range(400):
            if trial % 2:
                data = bytearray(valid)
                for _ in range(int(fuzz_rng.integers(1, 5))):
                    at = int(fuzz_rng.integers(0, len(data) + 1))
                    op = int(fuzz_rng.integers(0, 4))
                    if op == 0 and at < len(data):
                        data[at] = int(fuzz_rng.integers(0, 256))
                    elif op == 1:
                        data.insert(at, pick(b"0123456789-= \nx"))
                    elif op == 2:
                        del data[at:at + int(fuzz_rng.integers(1, 8))]
                    else:
                        data[at:at] = data[max(0, at - 12):at]
                data = bytes(data)
            else:
                data = mutate_tokens(valid)
            try:
                read(data)
                outcomes["parsed"] += 1
            except EvkitError:
                outcomes["rejected"] += 1  # named errors only, as above
        assert min(outcomes.values()) > 0, (name, outcomes)
    _pass(3, "EVS 1e6-event roundtrip bit-exact, DAT golden decode, 1e4 fuzz clean, "
             "text readers fuzz clean")


def test_criterion_04_resampling_oracle():
    rng = np.random.default_rng(104)
    for case in range(100):
        factor = 2 if case % 2 == 0 else 4
        h = int(rng.integers(1, 64 // factor + 1)) * factor
        w = int(rng.integers(1, 64 // factor + 1)) * factor
        c = int(rng.integers(1, 4))
        values = rng.uniform(0, 255, (c, h, w)).astype(np.float32)
        method = ("nearest", "bilinear", "bicubic")[case % 3]
        out = downscale(FrameTensor(values), factor, method)
        expected = np.array(naive_downscale(values.astype(np.float64), factor, method))
        assert np.allclose(out.values, expected, rtol=1e-6, atol=1e-6), \
            f"case {case}: {method} f={factor} {h}x{w}"
    _pass(4, "nearest/bilinear/bicubic match the naive oracle within 1e-6 on 100 frames")


def test_criterion_05_augmentation():
    rng = np.random.default_rng(105)
    # double-hflip identity, bit-exact
    values = rng.integers(0, 60_000, (20, 48, 64)).astype(np.uint16)
    flip = SampledAugmentation(48, 64, True, None, None, None, None,
                               AffineTransform.hflip(64), None)
    twice = apply_to_frame(apply_to_frame(FrameTensor(values), flip), flip)
    assert np.array_equal(twice.values, values)

    # box-vs-warped-mask IoU >= 0.9 on 200 random in-bounds rectangles
    cfg = AugmentConfig(
        hflip_p=0.5, rotate_p=1.0, translate_p=1.0, translate_frac=0.1,
        scale_p=1.0, scale_range=(0.8, 1.25), shear_p=1.0, shear_deg=15.0,
        erase_p=0.0,
    )
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        r = np.random.default_rng(seed)
        h = w = 200
        bw, bh = float(r.uniform(50, 90)), float(r.uniform(50, 90))
        bx, by = float(r.uniform(10, w - bw - 10)), float(r.uniform(10, h - bh - 10))
        frame = np.zeros((1, h, w), dtype=np.float32)
        frame[0, int(by) : int(by + bh), int(bx) : int(bx + bw)] = 1.0
        aug = sample_augmentation(cfg, h, w, r)
        corners = aug.transform.apply(np.array(
            [[bx, by], [bx + bw, by], [bx, by + bh], [bx + bw, by + bh]]
        ))
        if corners.min() < 1 or corners[:, 0].max() > w - 1 or corners[:, 1].max() > h - 1:
            continue
        warped = apply_to_frame(FrameTensor(frame), aug)
        boxes = apply_to_boxes(
            [AnnotatedBox(t=0, x=bx, y=by, w=bw, h=bh, class_id=0)], aug
        )
        assert len(boxes) == 1
        ys, xs = np.nonzero(warped.values[0] > 1e-3)
        mask_box = (xs.min(), ys.min(), xs.max() + 1 - xs.min(), ys.max() + 1 - ys.min())
        b = boxes[0]
        assert box_iou_ref(mask_box, (b.x, b.y, b.w, b.h)) >= 0.9
        checked += 1

    # video mode: one affine per clip, erasure varies per frame
    frame = FrameTensor(rng.uniform(size=(2, 40, 40)).astype(np.float32))
    video_cfg = AugmentConfig(erase_p=1.0)
    _, _, log = zip(*augment_clip([frame] * 21, [[]] * 21, video_cfg, 1055))
    assert all(l.transform == log[0].transform for l in log)
    assert len({l.erasure for l in log}) >= 2

    # Monte-Carlo applied rates within +-0.02 at n = 1e4
    n = 10_000
    counts = {"hflip": 0, "rotate": 0, "translate": 0, "scale": 0, "shear": 0,
              "erase": 0}
    for child in np.random.default_rng(1050).spawn(n):
        a = sample_augmentation(AugmentConfig(), 48, 64, child)
        counts["hflip"] += a.hflip
        counts["rotate"] += a.angle_deg is not None
        counts["translate"] += a.translate_px is not None
        counts["scale"] += a.scale is not None
        counts["shear"] += a.shear_deg is not None
        counts["erase"] += a.erasure is not None
    expected = {"hflip": 0.5, "rotate": 0.6, "translate": 0.6, "scale": 0.6,
                "shear": 0.6, "erase": 0.4}
    for key, p in expected.items():
        assert abs(counts[key] / n - p) <= 0.02, f"{key}: {counts[key] / n}"
    _pass(5, "double-hflip exact, 200 box/mask IoU >= 0.9, clip affine shared, "
             "rates within 0.02")


def test_criterion_06_sampler():
    indices = [SequenceIndex(f"seq{k:02d}", 100) for k in range(10)]
    batches = plan_epoch(indices, clip_len=10, n_random=4, n_sequential=4, rng=106)
    for batch in batches:
        assert len(batch) == 8
        assert all(e.reset_memory for e in batch[:4])
        assert sorted(e.slot for e in batch) == list(range(8))
    check_sequential_coverage(batches, indices, 10, 4, 4)
    covered = sum(e.length - e.pad for b in batches for e in b[4:]
                  if e.seq_id is not None)
    assert covered == 1000
    _pass(6, "4 random + 4 sequential per batch; coverage matches cursor simulation")


def test_criterion_07_temporal():
    rng = np.random.default_rng(107)
    # analytic zero-parameter case
    params = ConvLSTMParams.zeros(8, 8, 3)
    c0 = rng.normal(size=(8, 16, 20))
    state = ConvLSTMState(rng.normal(size=(8, 16, 20)), c0)
    x = FeatureMap(rng.normal(size=(8, 16, 20)), 4)
    out, nxt = convlstm_step(x, state, params)
    assert np.allclose(nxt.c, 0.5 * c0, atol=1e-7)
    assert np.allclose(out.values, 0.5 * np.tanh(0.5 * c0), atol=1e-7)

    # residual identity with a zero projection (hidden width differs)
    sizes = {3: (32, 40), 4: (16, 20), 5: (8, 10)}
    features = {i: FeatureMap(rng.normal(size=(8, *sizes[i])), i) for i in sizes}
    modules = {i: ConvLSTMParams.random(8, 16, 3, rng=i) for i in sizes}
    states = {i: init_state(sizes[i], modules[i]) for i in sizes}
    feats, states = residual_update(features, states, modules)
    for i in sizes:
        assert np.array_equal(feats[i].values, features[i].values)
        assert states[i].h.any()  # state advanced

    # 21-step rollout shape stability at the gen1-scale spatial sizes
    for _ in range(21):
        frame = {i: FeatureMap(rng.normal(size=(8, *sizes[i])), i) for i in sizes}
        feats, states = residual_update(frame, states, modules)
        for i in sizes:
            assert feats[i].values.shape == (8, *sizes[i])
            assert states[i].c.shape == (16, *sizes[i])

    # 1x1-kernel cell against the scalar oracle
    wx, wh, b = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    cell = ConvLSTMParams(1, 1, 1, wx.reshape(4, 1, 1, 1), wh.reshape(4, 1, 1, 1), b)
    st = init_state((1, 1), cell)
    h = c = 0.0
    for _ in range(21):
        xv = float(rng.normal())
        out, st = convlstm_step(FeatureMap(np.full((1, 1, 1), xv), 3), st, cell)
        h, c = scalar_lstm_step(xv, h, c, wx, wh, b)
        assert abs(out.values[0, 0, 0] - h) < 1e-6
        assert abs(st.c[0, 0, 0] - c) < 1e-6
    _pass(7, "analytic gates, residual identity, 21-step shapes, scalar-LSTM match")


def test_criterion_08_map_oracle():
    def random_boxes(r, n, times, scored):
        return [
            AnnotatedBox(
                t=int(r.choice(times)),
                x=float(r.uniform(0, 280)), y=float(r.uniform(0, 200)),
                w=float(r.uniform(4, 60)), h=float(r.uniform(4, 60)),
                class_id=int(r.integers(0, 2)),
                score=float(r.uniform(0.05, 1.0)) if scored else 1.0,
            )
            for _ in range(n)
        ]

    gts = random_boxes(np.random.default_rng(0), 25, [0, 50_000], scored=False)
    perfect = [AnnotatedBox(t=g.t, x=g.x, y=g.y, w=g.w, h=g.h,
                            class_id=g.class_id, score=1.0) for g in gts]
    r = evaluate_boxes(perfect, gts)
    assert r.map == 1.0 and r.map50 == 1.0 and r.map75 == 1.0
    shifted = [AnnotatedBox(t=g.t, x=g.x + 2_000, y=g.y, w=g.w, h=g.h,
                            class_id=g.class_id, score=0.9) for g in gts]
    assert evaluate_boxes(shifted, gts).map == 0.0

    for seed in range(50):
        r = np.random.default_rng(seed + 800)
        times = [k * 50_000 for k in range(4)]
        gts = random_boxes(r, 100, times, scored=False)
        preds = random_boxes(r, 100, times, scored=True)
        for i in range(0, 70, 2):
            g = gts[i]
            preds[i] = AnnotatedBox(
                t=g.t, x=g.x + float(r.uniform(-6, 6)), y=g.y + float(r.uniform(-6, 6)),
                w=g.w * float(r.uniform(0.8, 1.2)), h=g.h * float(r.uniform(0.8, 1.2)),
                class_id=g.class_id, score=float(r.uniform(0.3, 1.0)),
            )
        fast = evaluate_boxes(preds, gts)
        slow_map, slow_by_t, _ = slow_evaluate(preds, gts, DEFAULT_THRESHOLDS,
                                               DEFAULT_RECALL_GRID)
        assert abs(fast.map - slow_map) < 1e-9, f"seed {seed}"
        assert abs(fast.map50 - slow_by_t[0.5]) < 1e-9
        assert abs(fast.map75 - slow_by_t[0.75]) < 1e-9
        assert fast.map50 >= fast.map - 1e-12
    _pass(8, "perfect=1.0, empty=0.0, 50 seeds match slow reference to 1e-9, "
             "mAP50 >= mAP")


def test_criterion_09_throughput(tmp_path, capsys):
    rng = np.random.default_rng(109)
    n = 10_000_000
    geom = SensorGeometry(304, 240)
    stream = make_stream(rng, n, geom, 10_000_000)  # dense 1 Mev/s recording
    blob = codec.encode_evs(stream)
    del stream

    cfg = StackedHistogramConfig()
    start = time.perf_counter()
    decoded = codec.decode_evs(blob)
    windows = partition_windows(decoded, cfg.t_frame)
    accumulated = 0
    for w in windows:
        part = slice_window(decoded, w.window)
        frame = stacked_histogram(part, w.window, cfg)
        accumulated += int(frame.values[0, 0, 0])
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    assert rate >= 5e6, f"{rate / 1e6:.2f} Mev/s"
    del decoded, part  # the second timing needs neither

    # The same recording through the path convert runs: chunked reads, the
    # time-bin stream, and each bin counted and written at its offsets (to the
    # null device).
    path = tmp_path / "throughput.evs"
    path.write_bytes(blob)
    del blob
    preset = cli.PRESETS["gen1-like"]
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        start = time.perf_counter()
        with codec.Recording(path) as recording:
            counter = BinCounter(recording.geometry, cfg, factor=preset.downscale_factor,
                                 method=preset.downscale_method,
                                 pad_multiple=preset.pad_multiple)
            out = counter.buffer()
            for b in stream_windows(recording.chunks(), cfg.t_frame, n_bins=cfg.n_bins):
                counter.write(null, b.i, b.p, b.y, b.x, out)
        convert_rate = n / (time.perf_counter() - start)
    finally:
        os.close(null)
    assert convert_rate >= 5e6, f"{convert_rate / 1e6:.2f} Mev/s"

    # cmd_convert reports its own measured rate
    rec = tmp_path / "perf.evs"
    small = make_stream(np.random.default_rng(9), 50_000, SensorGeometry(32, 24),
                        500_000)
    rec.write_bytes(codec.encode_evs(small))
    cfgf = tmp_path / "cfg.ini"
    cfgf.write_text("[pipeline]\ngeometry = 32x24\n")
    assert cli.main(["convert", str(rec), "--output", str(tmp_path / "out"),
                     "--config", str(cfgf)]) == 0
    assert "rate_eps=" in capsys.readouterr().out
    _pass(9, f"decode + accumulate at {rate / 1e6:.1f} Mev/s, chunked read + bin stream "
             f"+ frame write at {convert_rate / 1e6:.1f} Mev/s (each >= 5 Mev/s) on one core")


def test_criterion_10_end_to_end_determinism(tmp_path):
    geom = SensorGeometry(32, 24)
    rec = tmp_path / "fixture.evs"
    rec.write_bytes(codec.encode_evs(
        make_stream(np.random.default_rng(110), 30_000, geom, 1_000_000)
    ))
    ann = tmp_path / "fixture_ann.txt"
    rng = np.random.default_rng(111)
    codec.write_annotations(ann, [
        AnnotatedBox(
            t=int(rng.integers(0, 1_000_000)),
            x=float(rng.uniform(0, 20)), y=float(rng.uniform(0, 14)),
            w=float(rng.uniform(2, 10)), h=float(rng.uniform(2, 8)),
            class_id=int(rng.integers(0, 2)),
        )
        for _ in range(60)
    ])
    cfgf = tmp_path / "cfg.ini"
    cfgf.write_text("[pipeline]\ngeometry = 32x24\nclip_len = 5\nseed = 13\n")

    def run(tag: str) -> dict[str, str]:
        base = tmp_path / tag
        frames = base / "frames"
        aug = base / "aug"
        assert cli.main(["convert", str(rec), "--output", str(frames),
                         "--config", str(cfgf), "--annotations", str(ann)]) == 0
        assert cli.main(["augment", str(frames), "--output", str(aug),
                         "--annotations", str(frames / "annotations.txt"),
                         "--config", str(cfgf), "--mode", "video"]) == 0
        report = base / "report.txt"
        assert cli.main(["evaluate", str(aug / "annotations.txt"),
                         str(aug / "annotations.txt"), "--output", str(report),
                         "--config", str(cfgf)]) == 0
        return {
            str(p.relative_to(base)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(base.rglob("*")) if p.is_file()
        }

    hashes_a = run("run_a")
    hashes_b = run("run_b")
    assert hashes_a == hashes_b
    assert any(name.endswith(".evf") for name in hashes_a)
    _pass(10, f"convert+augment+evaluate byte-identical across runs "
              f"({len(hashes_a)} files hashed)")
