from __future__ import annotations

import pytest

from evkit.errors import EmptyDataset, ParseError
from evkit.sampler import (
    ClipEntry,
    SequenceIndex,
    format_plan,
    parse_plan,
    plan_epoch,
    read_sequence_index,
    write_sequence_index,
)


def synthetic_index(n_seq=10, frames=100):
    return [SequenceIndex(f"seq{k:02d}", frames) for k in range(n_seq)]


def check_sequential_coverage(batches, indices, clip_len, n_random, n_sequential):
    """Cursor-simulation oracle: per-slot entries must advance by clip_len
    within a sequence with reset exactly at starts; each sequence is consumed
    by exactly one slot, fully, in order."""
    frames = {ix.seq_id: ix.n_frames for ix in indices}
    per_slot = {s: [] for s in range(n_random, n_random + n_sequential)}
    for batch in batches:
        assert len(batch) == n_random + n_sequential
        for e in batch[:n_random]:
            assert e.reset_memory and 0 <= e.slot < n_random
        for e in batch[n_random:]:
            assert n_random <= e.slot < n_random + n_sequential
            per_slot[e.slot].append(e)
    seen = {}
    for slot, entries in per_slot.items():
        pos, current = 0, None
        for e in entries:
            if e.seq_id is None:
                assert e.pad == e.length  # idle slot at epoch tail
                current = None
                continue
            if e.start == 0 and (current != e.seq_id or pos >= frames[e.seq_id]):
                assert e.seq_id not in seen, "sequence visited twice"
                seen[e.seq_id] = slot
                current, pos = e.seq_id, 0
                assert e.reset_memory
            else:
                assert e.seq_id == current and not e.reset_memory
            assert e.start == pos
            expected_pad = max(0, e.length - (frames[e.seq_id] - e.start))
            assert e.pad == expected_pad
            pos += e.length
        if current is not None:
            assert pos >= frames[current], "sequence left unfinished"
    assert set(seen) == set(frames), "every sequence consumed exactly once"


class TestPlanEpoch:
    def test_batch_composition_4_plus_4(self):
        batches = list(plan_epoch(synthetic_index(), clip_len=21, n_random=4,
                                  n_sequential=4, rng=0))
        assert batches
        for batch in batches:
            assert len(batch) == 8
            random_part = batch[:4]
            assert all(e.reset_memory for e in random_part)
            assert sorted(e.slot for e in batch) == list(range(8))

    def test_single_sequence_single_clip(self):
        batches = list(plan_epoch([SequenceIndex("only", 21)], clip_len=21,
                                  n_random=0, n_sequential=1, rng=0))
        assert len(batches) == 1
        (entry,) = batches[0]
        assert entry == ClipEntry("only", 0, 21, True, 0, 0)

    def test_cursor_simulation_oracle(self):
        indices = synthetic_index(10, 100)
        batches = list(plan_epoch(indices, clip_len=10, n_random=4, n_sequential=4, rng=3))
        check_sequential_coverage(batches, indices, 10, 4, 4)
        covered = sum(
            e.length - e.pad for b in batches for e in b[4:] if e.seq_id is not None
        )
        assert covered == 10 * 100

    def test_uneven_lengths_still_cover_once(self):
        indices = [SequenceIndex(f"s{k}", 10 + 17 * k) for k in range(7)]
        batches = list(plan_epoch(indices, clip_len=8, n_random=2, n_sequential=3, rng=5))
        check_sequential_coverage(batches, indices, 8, 2, 3)

    def test_short_sequences_padded(self):
        indices = [SequenceIndex("short", 5)]
        batches = list(plan_epoch(indices, clip_len=21, n_random=0, n_sequential=1, rng=0))
        (entry,) = batches[0]
        assert entry.start == 0 and entry.pad == 16 and entry.reset_memory

    def test_reset_exactly_at_sequence_starts(self):
        indices = synthetic_index(3, 30)
        batches = list(plan_epoch(indices, clip_len=10, n_random=0, n_sequential=1, rng=1))
        seq_entries = [e for b in batches for e in b if e.seq_id is not None]
        resets = [e.reset_memory for e in seq_entries]
        assert resets == [True, False, False] * 3

    def test_deterministic_under_seed(self):
        a = list(plan_epoch(synthetic_index(), 21, 4, 4, rng=42))
        b = list(plan_epoch(synthetic_index(), 21, 4, 4, rng=42))
        assert a == b
        c = list(plan_epoch(synthetic_index(), 21, 4, 4, rng=43))
        assert a != c

    def test_random_starts_within_bounds(self):
        indices = synthetic_index(4, 50)
        batches = list(plan_epoch(indices, clip_len=21, n_random=6, n_sequential=1, rng=9))
        frames = {ix.seq_id: ix.n_frames for ix in indices}
        for batch in batches:
            for e in batch[:6]:
                assert 0 <= e.start <= frames[e.seq_id] - 21
                assert e.pad == 0

    def test_random_only_epoch(self):
        indices = synthetic_index(2, 40)
        batches = list(plan_epoch(indices, clip_len=10, n_random=4, n_sequential=0, rng=0))
        # one epoch's worth: ceil(total_clips / n_random) batches
        assert len(batches) == 2
        assert all(len(b) == 4 for b in batches)

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDataset):
            plan_epoch([], 21, 4, 4, rng=0)


class TestSerialization:
    def test_roundtrip(self):
        batches = list(plan_epoch(synthetic_index(5, 37), clip_len=10, n_random=2,
                                  n_sequential=2, rng=8))
        assert parse_plan(format_plan(batches)) == batches

    def test_idle_entries_roundtrip(self):
        indices = [SequenceIndex("a", 40), SequenceIndex("b", 10)]
        batches = list(plan_epoch(indices, clip_len=10, n_random=0, n_sequential=2, rng=0))
        assert any(e.seq_id is None for b in batches for e in b)
        assert parse_plan(format_plan(batches)) == batches

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_plan("batch=0 slot=zero seq=a start=0 len=1 reset=1 pad=0")
        with pytest.raises(ParseError):
            parse_plan("not key value")

    def test_negative_batch_is_parse_error(self):
        text = "batch=0 slot=0 seq=a start=0 len=1 reset=1 pad=0\n" \
               "batch=-1 slot=0 seq=a start=0 len=1 reset=1 pad=0\n"
        with pytest.raises(ParseError) as exc:
            parse_plan(text)
        assert exc.value.index == 2

    @pytest.mark.parametrize("text, lineno", [
        ("batch=5 slot=0 seq=a start=0 len=2 reset=1 pad=0\n", 1),
        ("batch=0 slot=0 seq=a start=0 len=1 reset=1 pad=0\n"
         "batch=2 slot=0 seq=a start=0 len=1 reset=1 pad=0\n", 2),
    ])
    def test_batch_gap_is_parse_error(self, text, lineno):
        # A gap in the numbering is rejected before any batch is allocated
        # for it, so a huge batch number cannot exhaust memory.
        with pytest.raises(ParseError) as exc:
            parse_plan(text)
        assert exc.value.index == lineno

    @pytest.mark.parametrize("content", [
        b"seq=a frames=3 annotated=101\nseq=b frames=3 annotated=0x1\n",
        b"seq=a frames=3 annotated=101\nseq=\xff frames=3 annotated=-\n",
        b"seq=a frames=5\nseq=a frames=6\n",  # a repeated id
        b"seq=a frames=5\nseq=b frames=9223372036854775808\n",  # 2**63
    ])
    def test_bad_sequence_index_line_is_parse_error(self, tmp_path, content):
        path = tmp_path / "index.txt"
        path.write_bytes(content)
        with pytest.raises(ParseError) as exc:
            read_sequence_index(path)
        assert exc.value.index == 2

    def test_sequence_index_file_roundtrip(self, tmp_path):
        indices = [
            SequenceIndex("a", 3, (True, False, True)),
            SequenceIndex("b", 2),
        ]
        path = tmp_path / "index.txt"
        write_sequence_index(path, indices)
        assert read_sequence_index(path) == indices


class TestValidation:
    def test_bad_sequence_rejected(self):
        with pytest.raises(ValueError):
            SequenceIndex("", 5)
        with pytest.raises(ValueError):
            SequenceIndex("has space", 5)
        with pytest.raises(ValueError):
            SequenceIndex("x", 0)

    def test_entry_invariants(self):
        with pytest.raises(ValueError):
            ClipEntry("a", 0, 5, True, 0, pad=6)
        with pytest.raises(ValueError):
            ClipEntry(None, 0, 5, True, 0, pad=3)
