"""Plan output bytes, pinned by sha256.

Each case plans one epoch with `evkit plan --output` over one index of
uneven sequence lengths and hashes the plan file.  The digests were recorded
with the planner that kept a dict cursor per sequential slot and a separate
random-only branch, so any later scheduler must reproduce those bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from evkit import cli

# Lengths straddle both clip lengths, so sequences end on and off a clip
# edge, some are shorter than one clip, and sequential slots finish at
# different batches.
INDEX = "".join(f"seq=s{i} frames={n} annotated=-\n"
                for i, n in enumerate([1, 7, 8, 9, 20, 21, 22, 45, 3, 64, 17]))

# (clip_len, n_random, n_sequential, seed) -> sha256 of the plan file.
CASES = {
    (8, 4, 4, 11):
        "76c5bf22400f09b0f7f01bd4d80bbccc2ed4faf0c822b24d43fd2d9d26072408",
    (21, 4, 4, 12):
        "169d02f80a3d9c46085e77194499a4ce2e64984205088c4042fe69ffe0538314",
    (8, 2, 3, 13):
        "8cae5ea61d28bacb9933eb53044b8f82133d5ecd504c49324f9fe54da0ec6627",
    (21, 2, 3, 14):
        "857e21276827878f2546ccf8646a5e647fd332b6cbf369750f5e549b4f101f5e",
    # No random entries; one slot idles while the other runs.
    (8, 0, 2, 15):
        "18872ba941aeaaa92943bbc2d81b29f57f7d907f8b027ae83567a45fa1a6af1d",
    (21, 0, 2, 16):
        "f4dfde17b43374da569cfdbdeb454e4f22b6fab374a98a6d7d53fae75e282b1e",
    # Random entries only.
    (8, 4, 0, 17):
        "9057587b8fad6eb0816e2f2b8eae3c71ee56b00222e38e9f30fa707ccf695629",
    (21, 4, 0, 18):
        "dc113662458a352e87e5a6f992699af287fb7b61f8db4aa84806f955e4a35fcb",
}


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: "L{}-r{}-s{}-seed{}".format(*c))
def test_plan_bytes_pinned(tmp_path, case):
    clip_len, n_random, n_sequential, seed = case
    index = tmp_path / "index.txt"
    index.write_text(INDEX)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[pipeline]\nclip_len = {clip_len}\nn_random = {n_random}\n"
                   f"n_sequential = {n_sequential}\nseed = {seed}\n")
    out = tmp_path / "plan.txt"
    assert cli.main(["plan", str(index), "--output", str(out), "--config", str(cfg)]) == 0
    text = out.read_text()
    if n_sequential == 2:
        assert "seq=- " in text  # the case covers idle entries
    assert hashlib.sha256(text.encode()).hexdigest() == CASES[case]
