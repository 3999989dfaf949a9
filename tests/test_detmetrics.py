from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from evkit.codec import AnnotatedBox
from evkit.detmetrics import (
    DEFAULT_RECALL_GRID,
    DEFAULT_THRESHOLDS,
    EvalConfig,
    average_precision,
    evaluate,
    evaluate_boxes,
    format_report,
    iou,
    match_frame,
)
from evkit.errors import NoGroundTruth

from oracles import box_iou_ref, greedy_match_by_enumeration, slow_evaluate


def box(t=0, x=0.0, y=0.0, w=10.0, h=10.0, cls=0, score=1.0):
    return AnnotatedBox(t=t, x=x, y=y, w=w, h=h, class_id=cls, score=score)


def random_boxes(rng, n, t_choices, n_classes=2, scored=False):
    out = []
    for _ in range(n):
        out.append(
            box(
                t=int(rng.choice(t_choices)),
                x=float(rng.uniform(0, 280)),
                y=float(rng.uniform(0, 200)),
                w=float(rng.uniform(4, 60)),
                h=float(rng.uniform(4, 60)),
                cls=int(rng.integers(0, n_classes)),
                score=float(rng.uniform(0.05, 1.0)) if scored else 1.0,
            )
        )
    return out


class TestIoU:
    def test_identical_boxes(self):
        assert iou([box()], [box()])[0, 0] == 1.0

    def test_disjoint_boxes(self):
        assert iou([box(x=0)], [box(x=100)])[0, 0] == 0.0

    def test_hand_geometry(self):
        a = box(x=0, y=0, w=2, h=2)
        b = box(x=1, y=1, w=2, h=2)
        assert iou([a], [b])[0, 0] == pytest.approx(1 / 7)

    def test_symmetry(self, rng):
        for _ in range(50):
            a = box(x=rng.uniform(0, 50), y=rng.uniform(0, 50),
                    w=rng.uniform(1, 30), h=rng.uniform(1, 30))
            b = box(x=rng.uniform(0, 50), y=rng.uniform(0, 50),
                    w=rng.uniform(1, 30), h=rng.uniform(1, 30))
            assert iou([a], [b])[0, 0] == pytest.approx(iou([b], [a])[0, 0])
            assert 0.0 <= iou([a], [b])[0, 0] <= 1.0

    def test_matrix_bit_equals_scalar_reference(self, rng):
        # Integer corners on a small grid make many pairs disjoint or
        # edge-touching; uniform ones give general overlaps.
        for trial in range(20):
            if trial % 2:
                a = random_boxes(rng, 7, [0])
                b = random_boxes(rng, 5, [0])
            else:
                a, b = ([box(x=float(rng.integers(0, 12)), y=float(rng.integers(0, 12)),
                             w=float(rng.integers(1, 6)), h=float(rng.integers(1, 6)))
                         for _ in range(n)] for n in (7, 5))
            expected = np.array([[box_iou_ref((p.x, p.y, p.w, p.h), (q.x, q.y, q.w, q.h))
                                  for q in b] for p in a])
            got = iou(a, b)
            assert got.shape == (7, 5) and got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()
        assert iou([], [box()]).shape == (0, 1)
        assert iou([box()], []).shape == (1, 0)


def ap(preds, gts, class_id, threshold=0.5):
    """average_precision for one class over one frame's matches at one threshold."""
    matched = match_frame(preds, gts, (threshold,))[0]
    sel = np.array([p.class_id == class_id for p in preds], dtype=bool)
    scores = np.array([p.score for p in preds])
    n_gt = sum(g.class_id == class_id for g in gts)
    return average_precision(scores[sel], matched[sel] >= 0, n_gt)


class TestMatchFrame:
    def test_exact_hit(self):
        m = match_frame([box(score=0.8)], [box()], (0.5,))
        assert m.dtype == np.int64
        assert m.tolist() == [[0]]

    def test_no_predictions_all_fn(self):
        m = match_frame([], [box(), box(x=50), box(x=100)], (0.5, 0.75))
        assert m.dtype == np.int64 and m.shape == (2, 0)

    def test_class_must_match(self):
        assert match_frame([box(cls=1, score=0.9)], [box(cls=0)], (0.5,)).tolist() == [[-1]]

    def test_duplicate_detections_single_tp(self):
        preds = [box(score=0.9), box(score=0.8), box(score=0.7)]
        # The highest score wins the gt; the other two are false positives.
        assert match_frame(preds, [box()], (0.5,)).tolist() == [[0, -1, -1]]

    def test_columns_in_input_order(self):
        # The second prediction ranks first, takes the gt and keeps its column.
        preds = [box(score=0.3), box(score=0.9)]
        assert match_frame(preds, [box()], (0.5,)).tolist() == [[-1, 0]]

    def test_ties_go_to_first_gt_and_first_prediction(self):
        assert match_frame([box(score=0.5)], [box(x=50), box(), box()], (0.5,)).tolist() == [[1]]
        # Equal scores keep input order: x=1 goes first and takes gt 0, so x=0
        # (IoU 0.43 with gt 1) stays unmatched; the other order gives [0, 1].
        preds = [box(x=1, score=0.5), box(x=0, score=0.5)]
        assert match_frame(preds, [box(x=0), box(x=4)], (0.5,)).tolist() == [[0, -1]]

    def test_iou_equal_to_threshold_matches(self):
        m = match_frame([box(w=2.0, h=1.0)], [box(w=1.0, h=1.0)], (0.5, 0.55))
        assert m.tolist() == [[0], [-1]]

    def test_matches_enumeration_oracle(self, rng):
        for seed in range(100):
            r = np.random.default_rng(seed)
            preds = random_boxes(r, 3, [0], scored=True)
            gts = random_boxes(r, 2, [0])
            # overlap some pairs on purpose
            if r.random() < 0.7:
                g = gts[0]
                preds[0] = box(x=g.x + r.uniform(-5, 5), y=g.y + r.uniform(-5, 5),
                               w=g.w, h=g.h, cls=g.class_id, score=preds[0].score)
            thresholds = (0.3,) + DEFAULT_THRESHOLDS
            matched = match_frame(preds, gts, thresholds)
            assert matched.shape == (len(thresholds), len(preds))
            for thr, row in zip(thresholds, matched.tolist()):
                expected = greedy_match_by_enumeration(preds, gts, thr)
                got = {i: j for i, j in enumerate(row) if j >= 0}
                assert got == expected, f"seed {seed} threshold {thr}"


class TestAveragePrecision:
    def test_perfect_detection(self):
        gts = [box(), box(x=100)]
        preds = [box(score=0.9), box(x=100, score=0.8)]
        assert ap(preds, gts, 0) == 1.0

    def test_zero_predictions(self):
        assert ap([], [box()], 0) == 0.0
        assert average_precision(np.empty(0), np.empty(0, dtype=bool), 1) == 0.0

    def test_class_without_gt_is_nan(self):
        assert math.isnan(ap([box(cls=1, score=0.5)], [box(cls=0)], 1))

    def test_handcrafted_pr_curve(self):
        # 4 preds, 2 gts: hits at ranks 1 and 3
        gts = [box(x=0), box(x=100)]
        preds = [
            box(x=0, score=0.9),          # TP  (recall 0.5, precision 1.0)
            box(x=200, score=0.8),        # FP
            box(x=100, score=0.7),        # TP  (recall 1.0, precision 2/3)
            box(x=300, score=0.6),        # FP
        ]
        grid = DEFAULT_RECALL_GRID
        expected = (sum(1.0 for r in grid if r <= 0.5)
                    + sum(2 / 3 for r in grid if 0.5 < r <= 1.0)) / len(grid)
        assert ap(preds, gts, 0) == pytest.approx(expected, abs=1e-12)
        # The same cell from unsorted columns.
        got = average_precision(np.array([0.6, 0.7, 0.9, 0.8]),
                                np.array([False, True, True, False]), 2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_score_monotone_transform_invariance(self, rng):
        gts = random_boxes(rng, 10, [0, 1000])
        preds = random_boxes(rng, 20, [0, 1000], scored=True)
        transformed = [
            AnnotatedBox(t=p.t, x=p.x, y=p.y, w=p.w, h=p.h, class_id=p.class_id,
                         score=p.score**3)
            for p in preds
        ]
        for c in (0, 1):
            a1, a2 = ap(preds, gts, c), ap(transformed, gts, c)
            assert (math.isnan(a1) and math.isnan(a2)) or a1 == pytest.approx(a2, abs=1e-12)

    def test_low_score_zero_iou_fp_never_increases_ap(self, rng):
        gts = random_boxes(rng, 6, [0])
        preds = random_boxes(rng, 10, [0], scored=True)
        base = ap(preds, gts, 0)
        junk = box(x=5000.0, score=0.01)  # off every gt, lowest score
        worse = ap(preds + [junk], gts, 0)
        assert worse <= base + 1e-12


class TestEvaluate:
    def test_predictions_equal_ground_truth(self, rng):
        gts = random_boxes(rng, 30, [0, 50_000, 100_000])
        preds = [AnnotatedBox(t=g.t, x=g.x, y=g.y, w=g.w, h=g.h,
                              class_id=g.class_id, score=1.0) for g in gts]
        r = evaluate_boxes(preds, gts)
        assert r.map == 1.0 and r.map50 == 1.0 and r.map75 == 1.0

    @pytest.mark.parametrize("gt", [
        box(x=1.79e308, w=1e300, h=2.0),  # right edge just below the float max
        box(y=1.79e308, w=2.0, h=1e300),
        box(w=7e153, h=7e153),  # twice the area is still finite
    ], ids=["x-edge", "y-edge", "area"])
    def test_largest_accepted_boxes_score_perfectly(self, gt):
        # AnnotatedBox rejects an edge or twice an area that overflows, so
        # every box it keeps has a finite IoU with itself (no RuntimeWarning).
        assert iou([gt], [gt])[0, 0] == pytest.approx(1.0)
        assert evaluate_boxes([gt], [gt]).map == 1.0

    def test_fully_shifted_predictions_zero(self, rng):
        gts = random_boxes(rng, 20, [0, 50_000])
        preds = [AnnotatedBox(t=g.t, x=g.x + 1000, y=g.y, w=g.w, h=g.h,
                              class_id=g.class_id, score=0.9) for g in gts]
        r = evaluate_boxes(preds, gts)
        assert r.map == 0.0 and r.map50 == 0.0

    def test_matches_slow_reference(self, rng):
        for seed in range(10):
            r = np.random.default_rng(seed)
            times = [k * 50_000 for k in range(5)]
            gts = random_boxes(r, 100, times)
            preds = random_boxes(r, 100, times, scored=True)
            # make some predictions near-hits
            for i in range(0, 60, 2):
                g = gts[i]
                preds[i] = AnnotatedBox(
                    t=g.t, x=g.x + float(r.uniform(-6, 6)), y=g.y + float(r.uniform(-6, 6)),
                    w=g.w * float(r.uniform(0.8, 1.2)), h=g.h * float(r.uniform(0.8, 1.2)),
                    class_id=g.class_id, score=float(r.uniform(0.3, 1.0)),
                )
            fast = evaluate_boxes(preds, gts)
            slow_map, slow_by_t, _ = slow_evaluate(preds, gts, DEFAULT_THRESHOLDS,
                                                   DEFAULT_RECALL_GRID)
            assert fast.map == pytest.approx(slow_map, abs=1e-9)
            assert fast.map50 == pytest.approx(slow_by_t[0.5], abs=1e-9)
            assert fast.map75 == pytest.approx(slow_by_t[0.75], abs=1e-9)
            assert fast.map50 >= fast.map - 1e-12

    def test_no_ground_truth_error(self):
        with pytest.raises(NoGroundTruth):
            evaluate_boxes([box(score=0.5)], [])

    def test_skip_initial_filter(self, rng):
        early = [box(t=100, x=0), box(t=200, x=50)]
        late = [box(t=600_000, x=100)]
        preds = [AnnotatedBox(t=b.t, x=b.x, y=b.y, w=b.w, h=b.h, class_id=0,
                              score=0.9) for b in early]
        cfg = EvalConfig(skip_initial_us=500_000)
        r = evaluate_boxes(preds, early + late, cfg)
        assert r.n_ground_truth == 1
        assert r.n_predictions == 0
        assert r.map == 0.0

    def test_min_diagonal_filter(self):
        small = box(w=2.0, h=2.0)           # diagonal ~2.83
        big = box(x=100, w=30.0, h=40.0)    # diagonal 50
        cfg = EvalConfig(min_diagonal=10.0)
        r = evaluate_boxes([], [small, big], cfg)
        assert r.n_ground_truth == 1

    def test_time_tolerance_pairs_frames(self):
        gt = [box(t=50_000)]
        pred = [AnnotatedBox(t=50_400, x=0, y=0, w=10, h=10, class_id=0, score=0.9)]
        strict = evaluate_boxes(pred, gt)
        assert strict.map == 0.0
        loose = evaluate_boxes(pred, gt, EvalConfig(time_tolerance_us=1_000))
        assert loose.map == 1.0

    def test_declared_classes_restrict_evaluation(self, rng):
        gts = [box(cls=0), box(x=100, cls=1)]
        preds = [box(cls=0, score=0.9), box(x=100, cls=1, score=0.9)]
        r = evaluate_boxes(preds, gts, EvalConfig(class_ids=(0,)))
        assert set(r.per_class) == {0}
        assert r.map == 1.0

    def test_file_based_evaluate(self, tmp_path, rng):
        from evkit.codec import write_annotations

        gts = random_boxes(rng, 12, [0, 50_000])
        preds = [AnnotatedBox(t=g.t, x=g.x, y=g.y, w=g.w, h=g.h,
                              class_id=g.class_id, score=0.7) for g in gts]
        write_annotations(tmp_path / "gt.txt", gts)
        write_annotations(tmp_path / "pred.txt", preds)
        r = evaluate(tmp_path / "pred.txt", tmp_path / "gt.txt")
        assert r.map == 1.0

    def test_report_format_fixed_key_order(self, rng):
        gts = [box(cls=1), box(x=40, cls=0)]
        preds = [box(cls=1, score=0.8), box(x=40, cls=0, score=0.6)]
        text = format_report(evaluate_boxes(preds, gts))
        lines = text.splitlines()
        assert lines[0].startswith("map=")
        assert lines[1].startswith("map50=")
        assert lines[2].startswith("map75=")
        assert lines[-2] == "ap class=0 value=1.0"
        assert lines[-1] == "ap class=1 value=1.0"


class TestReportBytes:
    CONFIGS = (
        EvalConfig(),
        EvalConfig(time_tolerance_us=500),
        EvalConfig(class_ids=(0, 1, 7)),  # class 7 has no ground truth
        EvalConfig(min_diagonal=30.0, skip_initial_us=100_000),
    )

    @staticmethod
    def seeded_case(seed):
        r = np.random.default_rng(seed + 4000)
        times = [k * 50_000 for k in range(1, 5)]
        gts = random_boxes(r, 60, times, n_classes=3)
        preds = random_boxes(r, 80, times, n_classes=3, scored=True)
        for i in range(0, 50, 2):
            # Every other near hit is off its frame by up to 300 us.
            g = gts[i]
            preds[i] = AnnotatedBox(
                t=g.t + (int(r.integers(-300, 301)) if i % 4 else 0),
                x=g.x + float(r.uniform(-6, 6)), y=g.y + float(r.uniform(-6, 6)),
                w=g.w * float(r.uniform(0.8, 1.2)), h=g.h * float(r.uniform(0.8, 1.2)),
                class_id=g.class_id, score=float(r.uniform(0.3, 1.0)),
            )
        return preds, gts

    def test_report_bytes_are_pinned(self):
        # Every repr in the report is hashed, so a one-ulp change in any AP
        # sum fails here even where the 1e-9 oracle bound would not notice.
        digest = hashlib.sha256()
        for cfg in self.CONFIGS:
            for seed in range(25):
                digest.update(format_report(evaluate_boxes(*self.seeded_case(seed), cfg)).encode())
        assert digest.hexdigest() == (
            "b67b23b5f3e280da64b422e7b0cbbee75d59daf293083df3b4b051a494f54b61")
