"""Convert output bytes, pinned by sha256 across the histogram/resample paths.

Each case converts one seeded recording and hashes the whole output tree.
The digests were recorded with the staged build (full-resolution histogram,
then `downscale`, then `pad_to_multiple`), so any later build of the frames
must reproduce those bytes, at every thread count.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from evkit import cli, codec
from evkit.event_core import EventStream, SensorGeometry


def _recording(path: Path, geometry: SensorGeometry, counts: list[int], seed: int) -> None:
    """One 50 ms window per entry of `counts`, plus a saturated cell in window 0."""
    rng = np.random.default_rng(seed)
    t = np.concatenate([rng.integers(k * 50_000, (k + 1) * 50_000, n)
                        for k, n in enumerate(counts)])
    x = rng.integers(0, geometry.width, t.size)
    y = rng.integers(0, geometry.height, t.size)
    p = rng.integers(0, 2, t.size)
    hot = 70_000  # one (polarity, bin, y, x) cell past the uint16 count range
    t = np.concatenate([t, np.full(hot, 12_345)])
    x = np.concatenate([x, np.full(hot, geometry.width - 1)])
    y = np.concatenate([y, np.full(hot, 1)])
    p = np.concatenate([p, np.ones(hot, dtype=np.int64)])
    order = np.argsort(t, kind="stable")
    stream = EventStream(geometry, t[order], x[order], y[order], p[order])
    path.write_bytes(codec.encode_evs(stream))


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


# name -> (config, geometry, events per window, seed, sha256 of the output tree).
# gen1 windows span 4,000 to 130,000 events, all counted by the one factor-1 sort.
CASES = {
    "gen1-like": (
        "[pipeline]\npreset = gen1-like\n",
        SensorGeometry(304, 240), [4_000, 95_000, 130_000], 71,
        "7494c8362bc09aed649a9d5f5bbbea06521dba46073b47b1b054584227d4b09e",
    ),
    "gen4-like": (
        "[pipeline]\npreset = gen4-like\ngeometry = 192x108\n",
        SensorGeometry(192, 108), [3_000, 60_000, 500], 72,
        "6cd16920d10a9ea0b7ac88e191b9e3117b3bd9781cb088d3a3222d4a608963ee",
    ),
    "bicubic-2": (
        "[pipeline]\npreset = gen4-like\ngeometry = 192x108\ndownscale_method = bicubic\n",
        SensorGeometry(192, 108), [3_000, 60_000, 500], 73,
        "9f0f2d4fb8bd86547621f947b1cb1a96c3623efa2ece2a91f3f6e3bb4cd7e31e",
    ),
    "nearest-2": (
        "[pipeline]\npreset = gen4-like\ngeometry = 192x108\ndownscale_method = nearest\n",
        SensorGeometry(192, 108), [3_000, 60_000, 500], 74,
        "3906cac82d6d4dd8b94bbc53f8d85c18965c11754669c0f249926608dffaa9fa",
    ),
    "factor-3": (
        "[pipeline]\npreset = gen4-like\ngeometry = 192x108\ndownscale_factor = 3\n",
        SensorGeometry(192, 108), [3_000, 60_000, 500], 75,
        "69681faec9b9fe717b50d66b93be13f4ab2c0a29c59ea6f00055bbb635029809",
    ),
}


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_convert_bytes_pinned(tmp_path, name, threads):
    config, geometry, counts, seed, expected = CASES[name]
    rec = tmp_path / "rec.evs"
    _recording(rec, geometry, counts, seed)
    cfgf = tmp_path / "cfg.ini"
    cfgf.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["convert", str(rec), "--output", str(out), "--config", str(cfgf),
                     "--threads", str(threads)]) == 0
    assert _tree_digest(out) == expected
