"""Recurrent-training batch schedule over indexed frame sequences.

Each batch mixes two kinds of clips: random clips (uniform sequence and
start, memory always reset) and sequential clips (each slot a generator
that pops sequences from one shared shuffled queue and yields their clips,
memory reset only at each sequence start).  Clips are a fixed length L;
sequences whose remainder is shorter than L are front-aligned and
right-padded, with the pad frame count recorded on the entry so consumers
can mask them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .codec import parse_fields, read_lines
from .errors import EmptyDataset, ParseError


@dataclass(frozen=True)
class SequenceIndex:
    """One recording: id, frame count, optional per-frame annotation flags."""

    seq_id: str
    n_frames: int
    annotated: tuple[bool, ...] | None = None

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("sequence must have at least one frame")
        if not self.seq_id or any(ch.isspace() for ch in self.seq_id):
            raise ValueError(f"sequence id {self.seq_id!r} must be non-empty, no whitespace")
        if self.annotated is not None and len(self.annotated) != self.n_frames:
            raise ValueError("annotation flags must match frame count")


@dataclass(frozen=True)
class ClipEntry:
    """One scheduled clip.  seq_id None marks an idle slot (all padding,
    emitted when a sequential slot has exhausted the epoch's sequences
    while others are still running)."""

    seq_id: str | None
    start: int
    length: int
    reset_memory: bool
    slot: int
    pad: int = 0

    def __post_init__(self):
        if self.length < 1 or not 0 <= self.pad <= self.length:
            raise ValueError("invalid clip length/pad")
        if self.seq_id is None and self.pad != self.length:
            raise ValueError("idle entries must be fully padded")


Batch = list[ClipEntry]


def plan_epoch(
    indices: list[SequenceIndex],
    clip_len: int,
    n_random: int,
    n_sequential: int,
    rng: np.random.Generator | int | None = None,
) -> Iterator[Batch]:
    """Schedule one epoch of batches of n_random + n_sequential clips.

    Random entries draw (sequence, start) uniformly with replacement and
    always reset memory.  Sequential slots consume a per-epoch random
    permutation of the sequences, resetting memory exactly at sequence
    starts; the epoch ends when every sequential slot is exhausted, or with
    no sequential slot after ceil(total clips / n_random) batches.

    The arguments are checked and the permutation drawn at the call; the
    batches are then planned one at a time as they are iterated.
    """
    if not indices:
        raise EmptyDataset("no sequences to plan over")
    if clip_len < 1:
        raise ValueError("clip_len must be >= 1")
    if n_random < 0 or n_sequential < 0 or n_random + n_sequential == 0:
        raise ValueError("need at least one clip per batch")
    rng = np.random.default_rng(rng)

    queue = [indices[i] for i in rng.permutation(len(indices))]
    queue.reverse()  # pop() from the tail
    slots = [_sequential_slot(queue, clip_len, n_random + i) for i in range(n_sequential)]
    n_clips = sum(-(-ix.n_frames // clip_len) for ix in indices)

    def batches() -> Iterator[Batch]:
        for n_batches in itertools.count():
            # Slots pop sequences in slot order and draw no random numbers.
            sequential = [next(slot, None) for slot in slots]
            if slots:
                done = all(e is None for e in sequential)
            else:  # a random-only epoch holds as many clips as the sequences cut into
                done = n_batches * n_random >= n_clips
            if done:
                return
            batch: Batch = [
                _random_entry(indices, clip_len, slot, rng) for slot in range(n_random)
            ]
            for slot, entry in enumerate(sequential, start=n_random):
                batch.append(entry or ClipEntry(None, 0, clip_len, True, slot, pad=clip_len))
            yield batch

    return batches()


def _sequential_slot(
    queue: list[SequenceIndex], clip_len: int, slot: int
) -> Iterator[ClipEntry]:
    """Clips of each sequence this slot pops from the shared queue, in order;
    memory resets at each sequence start."""
    while queue:
        seq = queue.pop()
        for pos in range(0, seq.n_frames, clip_len):
            pad = max(0, clip_len - (seq.n_frames - pos))
            yield ClipEntry(seq.seq_id, pos, clip_len, reset_memory=pos == 0,
                            slot=slot, pad=pad)


def _random_entry(
    indices: list[SequenceIndex], clip_len: int, slot: int, rng: np.random.Generator
) -> ClipEntry:
    seq = indices[int(rng.integers(0, len(indices)))]
    max_start = max(0, seq.n_frames - clip_len)
    start = int(rng.integers(0, max_start + 1))
    pad = max(0, clip_len - (seq.n_frames - start))
    return ClipEntry(seq.seq_id, start, clip_len, reset_memory=True, slot=slot, pad=pad)


# --- line-format serialization -------------------------------------------------


def format_batch(b: int, batch: Batch) -> str:
    """The plan lines of batch number `b`."""
    return "".join(
        f"batch={b} slot={e.slot} seq={'-' if e.seq_id is None else e.seq_id} "
        f"start={e.start} len={e.length} reset={int(e.reset_memory)} pad={e.pad}\n"
        for e in batch
    )


def format_plan(batches: Iterable[Batch]) -> str:
    return "".join(format_batch(b, batch) for b, batch in enumerate(batches))


def parse_plan(text: str) -> list[Batch]:
    batches: list[Batch] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        fields = parse_fields(line, lineno, ("batch", "slot", "seq", "start",
                                              "len", "reset", "pad"))
        try:
            b = int(fields["batch"])
            if not 0 <= b <= len(batches):  # format_plan numbers batches without gaps
                raise ValueError(f"batch must be in 0..{len(batches)}, got {b}")
            entry = ClipEntry(
                seq_id=None if fields["seq"] == "-" else fields["seq"],
                start=int(fields["start"]),
                length=int(fields["len"]),
                reset_memory=bool(int(fields["reset"])),
                slot=int(fields["slot"]),
                pad=int(fields["pad"]),
            )
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if b == len(batches):
            batches.append([])
        batches[b].append(entry)
    return batches


def read_sequence_index(path) -> list[SequenceIndex]:
    """Read `seq=<id> frames=<n> annotated=<01 bits|->` lines; ids are unique."""
    out = []
    seen = set()
    for lineno, line in read_lines(path):
        fields = parse_fields(line, lineno, ("seq", "frames"))
        flags = fields.get("annotated", "-")
        if flags != "-" and not set(flags) <= {"0", "1"}:
            raise ParseError(lineno, f"annotated must be '-' or 0/1 bits, got {flags!r}")
        if fields["seq"] in seen:
            raise ParseError(lineno, f"sequence id {fields['seq']!r} is repeated")
        seen.add(fields["seq"])
        try:
            frames = int(fields["frames"])
            if frames >= 2**63:  # plan_epoch draws clip starts as int64
                raise ValueError(f"frames={frames} does not fit in 64 bits")
            annotated = None if flags == "-" else tuple(ch == "1" for ch in flags)
            out.append(SequenceIndex(fields["seq"], frames, annotated))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
    return out


def write_sequence_index(path, indices: list[SequenceIndex]) -> None:
    lines = []
    for ix in indices:
        flags = "-" if ix.annotated is None else "".join("01"[f] for f in ix.annotated)
        lines.append(f"seq={ix.seq_id} frames={ix.n_frames} annotated={flags}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in lines))
