"""Augment output bytes, pinned by sha256.

Each case converts one seeded recording, augments the frames and hashes the
whole augment output tree (frames, `annotations.txt`, `aug_log.txt`).  The
digests were recorded with the warp that rebuilt its tap table for every
frame and summed all four taps over every output pixel, so any later warp
must reproduce those bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from evkit import cli, codec
from evkit.event_core import SensorGeometry

from test_convert_bytes import _recording, _tree_digest

ALL_STAGES = ("[augment]\nhflip_p = 1\nrotate_p = 1\ntranslate_p = 1\nscale_p = 1\n"
              "shear_p = 1\nerase_p = 0.5\n")

# name -> (convert config, augment config, geometry, events per window, seed, mode,
# sha256 of the augment output tree).
CASES = {
    # uint16 frames, two clips (3 + 2 frames); one draw applies every geometric stage.
    "gen1-video": (
        "[pipeline]\npreset = gen1-like\ngeometry = 120x90\n",
        "[pipeline]\nclip_len = 3\n" + ALL_STAGES,
        (120, 90), [2_000, 9_000, 30_000, 500, 12_000], 81, "video",
        "862f6ed2d58219d17f1db68fee688b5eb9cc7b27f8994620c69f459ecd815b59",
    ),
    # float32 frames (bilinear /2), one default draw per frame.
    "gen4-frame": (
        "[pipeline]\npreset = gen4-like\ngeometry = 192x108\n",
        "",
        (192, 108), [3_000, 60_000, 500, 20_000], 82, "frame",
        "aac9054cee4da91a2c7a5ea8332d3b271c2f8dfaa312e171a341601c3b8c71a9",
    ),
    # identity geometry with erasure on every frame.
    "erase-only": (
        "[pipeline]\npreset = gen1-like\ngeometry = 120x90\n",
        "[augment]\nhflip_p = 0\nrotate_p = 0\ntranslate_p = 0\nscale_p = 0\n"
        "shear_p = 0\nerase_p = 1\n",
        (120, 90), [2_000, 9_000, 30_000], 83, "video",
        "1396b992ea7f78f69de867b8265e17c1e77b3621796441f8b8bef0587d1bbe4e",
    ),
}


def _annotations(path: Path, width: int, height: int, n_windows: int, seed: int) -> None:
    """Two boxes every 25 ms across the recording, some crossing the border."""
    rng = np.random.default_rng(seed)
    boxes = []
    for t in range(0, n_windows * 50_000, 25_000):
        for _ in range(2):
            w, h = rng.uniform(4, width / 2), rng.uniform(4, height / 2)
            x, y = rng.uniform(-w / 2, width - w / 2), rng.uniform(-h / 2, height - h / 2)
            boxes.append(codec.AnnotatedBox(t=t, x=float(x), y=float(y), w=float(w),
                                            h=float(h), class_id=int(rng.integers(0, 2))))
    codec.write_annotations(path, boxes)


@pytest.mark.parametrize("name", sorted(CASES))
def test_augment_bytes_pinned(tmp_path, name):
    convert_cfg, augment_cfg, (width, height), counts, seed, mode, expected = CASES[name]
    rec, ann = tmp_path / "rec.evs", tmp_path / "ann.txt"
    _recording(rec, SensorGeometry(width, height), counts, seed)
    _annotations(ann, width, height, len(counts), seed)
    (tmp_path / "convert.ini").write_text(convert_cfg)
    (tmp_path / "augment.ini").write_text(augment_cfg)
    frames, out = tmp_path / "frames", tmp_path / "out"
    assert cli.main(["convert", str(rec), "--output", str(frames), "--annotations", str(ann),
                     "--config", str(tmp_path / "convert.ini")]) == 0
    assert cli.main(["augment", str(frames), "--output", str(out), "--mode", mode,
                     "--annotations", str(frames / "annotations.txt"),
                     "--config", str(tmp_path / "augment.ini"), "--seed", str(seed)]) == 0
    if name == "gen1-video":
        clip_lines = [l for l in (out / "aug_log.txt").read_text().splitlines()
                      if " frames=" in l]
        assert len(clip_lines) == 2 and not any("=- " in l for l in clip_lines)
    assert _tree_digest(out) == expected

