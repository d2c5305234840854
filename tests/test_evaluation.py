import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwscascade.evaluation import (
    CorpusError,
    DecoderScorer,
    accept_event_frames,
    cascade_table,
    power_proxy,
    sweep_operating_points,
)
from kwscascade.cascade import CascadeEvent, EventKind
from kwscascade.synthetic import (
    PlantedEvent,
    PositiveExample,
    SyntheticCorpus,
    SyntheticStream,
    generate_posterior_corpus,
    oracle_decoder_config,
)


class FixedScorer:
    """Detector stub exposing a precomputed per-frame score array."""

    def __init__(self, hop=10, view="scores"):
        self._hop = hop
        self.view = view

    def frame_scores(self, stream):
        return np.asarray(stream.views[self.view], dtype=np.float64)

    def hop_ms(self, stream):
        return self._hop

    def frame_timestamps_ms(self, stream, count):
        return (np.arange(count) + 1) * self._hop


def brute_force_event_count(scores, threshold, refractory_frames):
    """Independent recount of accept events by linear scan."""
    count = 0
    cooldown = 0
    for s in scores:
        if cooldown > 0:
            cooldown -= 1
        elif s >= threshold:
            count += 1
            cooldown = refractory_frames
    return count


def greedy_event_frames(scores, threshold, refractory_frames):
    """Reference dedup: walk every crossing, keep those past the refractory."""
    events = []
    next_allowed = -1
    for t in np.flatnonzero(np.asarray(scores) >= threshold):
        if t >= next_allowed:
            events.append(int(t))
            next_allowed = t + refractory_frames + 1
    return events


def far(detector, negatives, threshold, **kwargs):
    """FA/hr from a one-threshold sweep; one stub positive completes the corpus."""
    filler = PositiveExample(score_stream([1.0]), keyword_end_ms=10)
    corpus = SyntheticCorpus(negatives, [filler], 1)
    return sweep_operating_points(detector, corpus, [threshold], **kwargs)[0][1]


def frr(detector, positives, threshold, **kwargs):
    """FRR from a one-threshold sweep; one silent negative frame completes the corpus."""
    corpus = SyntheticCorpus([score_stream([0.0])], positives, 1)
    return sweep_operating_points(detector, corpus, [threshold], **kwargs)[0][2]


def score_stream(scores, hop=10):
    return SyntheticStream({"scores": np.asarray(scores, dtype=np.float64)}, hop)


def spike_stream(num_frames, spike_frames, height=0.9, hop=10):
    scores = np.zeros(num_frames)
    for f in spike_frames:
        scores[f] = height
    return score_stream(scores, hop)


class TestEventCounting:
    def test_greedy_dedup(self):
        scores = np.array([0.0, 0.9, 0.9, 0.9, 0.0, 0.0, 0.9, 0.0])
        assert accept_event_frames(scores, 0.5, refractory_frames=2) == [1, 6]
        assert accept_event_frames(scores, 0.5, refractory_frames=0) == [1, 2, 3, 6]

    def test_matches_brute_force_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            scores = rng.uniform(0, 1, size=int(rng.integers(1, 400)))
            theta = rng.uniform(0, 1)
            refr = int(rng.integers(0, 30))
            assert len(accept_event_frames(scores, theta, refr)) == brute_force_event_count(
                scores, theta, refr
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.lists(st.booleans(), max_size=400),
            st.integers(0, 400).map(lambda n: [True] * n),
            st.just([]),
            st.tuples(st.integers(0, 400), st.lists(st.tuples(st.integers(0, 399),
                                                              st.integers(1, 60)), max_size=8))
            .map(lambda case: [any(s <= t < s + n for s, n in case[1]) for t in range(case[0])]),
        ),
        st.integers(0, 40),
    )
    def test_mask_events_equal_per_hit_greedy_loop(self, mask, refractory):
        # random, all-true, empty and run-structured masks
        mask = np.array(mask, dtype=bool)
        assert accept_event_frames(mask, 0.5, refractory) == greedy_event_frames(
            mask, 0.5, refractory
        )

    def test_monotone_under_mask_inclusion(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            big = rng.uniform(0, 1, size=200)
            small = np.where(rng.uniform(size=200) < 0.5, big, -1.0)
            refr = int(rng.integers(0, 20))
            assert len(accept_event_frames(small, 0.5, refr)) <= len(
                accept_event_frames(big, 0.5, refr)
            )


class TestMeasureFar:
    def test_three_accepts_over_90_minutes(self):
        # 1.5 hours of frames at 10 ms, three well-separated spikes
        frames = int(1.5 * 3600 * 100)
        stream = spike_stream(frames, [1000, 200_000, 400_000])
        assert far(FixedScorer(), [stream], 0.5) == pytest.approx(2.0)

    def test_unreachable_threshold_is_zero(self):
        stream = spike_stream(36000, [5, 600])
        assert far(FixedScorer(), [stream], 1.01) == 0.0

    def test_planted_spikes_counted_exactly(self):
        frames = 3600 * 100  # one hour
        stream = spike_stream(frames, [100, 50_000, 110_000, 200_000, 300_000])
        assert far(FixedScorer(), [stream], 0.5) == pytest.approx(5.0)

    def test_sustained_spike_counts_once(self):
        scores = np.zeros(3600 * 100)
        scores[1000:1050] = 0.9  # 500 ms over threshold
        assert far(FixedScorer(), [score_stream(scores)], 0.5) == pytest.approx(1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(CorpusError):
            far(FixedScorer(), [score_stream([])], 0.5)


class TestMeasureFrr:
    def _positive(self, peak, end_frame=100, num_frames=200):
        scores = np.zeros(num_frames)
        scores[end_frame] = peak
        return PositiveExample(score_stream(scores), keyword_end_ms=(end_frame + 1) * 10)

    def test_threshold_zero_never_misses(self):
        positives = [self._positive(0.4) for _ in range(10)]
        assert frr(FixedScorer(), positives, 0.0) == 0.0

    def test_unreachable_threshold_misses_all(self):
        positives = [self._positive(0.99) for _ in range(10)]
        assert frr(FixedScorer(), positives, 1.01) == 1.0

    def test_fraction_below_threshold(self):
        peaks = [0.3] * 7 + [0.9] * 93
        positives = [self._positive(p) for p in peaks]
        assert frr(FixedScorer(), positives, 0.5) == pytest.approx(0.07)

    def test_hit_window_enforced(self):
        # accept exists but 2 s after the labelled end: still a miss
        scores = np.zeros(600)
        scores[400] = 0.9
        pos = PositiveExample(score_stream(scores), keyword_end_ms=2000)
        assert frr(FixedScorer(), [pos], 0.5) == 1.0
        assert frr(FixedScorer(), [pos], 0.5, hit_window_ms=2100) == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            frr(FixedScorer(), [], 0.5)


class TestSweep:
    def _corpus(self):
        rng = np.random.default_rng(2)
        neg = spike_stream(3600 * 100, list(range(1000, 341_000, 20_000)), height=0.6)
        positives = []
        for peak in rng.uniform(0.2, 1.0, size=40):
            scores = np.zeros(300)
            scores[150] = peak
            positives.append(PositiveExample(score_stream(scores), keyword_end_ms=1510))
        return SyntheticCorpus([neg], positives, 1)

    def test_endpoints(self):
        corpus = self._corpus()
        points = sweep_operating_points(FixedScorer(), corpus, [0.0, 1.01])
        _, fa_low, frr_low = points[0]
        _, fa_high, frr_high = points[1]
        assert frr_low == 0.0 and fa_high == 0.0 and frr_high == 1.0
        assert fa_low > 0.0

    def test_monotone_in_threshold(self):
        corpus = self._corpus()
        points = sweep_operating_points(FixedScorer(), corpus, list(np.linspace(0, 1.05, 50)))
        for (_, fa_a, frr_a), (_, fa_b, frr_b) in zip(points, points[1:]):
            assert fa_b <= fa_a
            assert frr_b >= frr_a

    def test_curve_matches_closed_form_counts(self):
        # planted spike heights are the scores themselves: counts are exact
        heights = [0.2, 0.4, 0.6, 0.8]
        neg_scores = np.zeros(3600 * 100)
        for i, h in enumerate(heights):
            neg_scores[10_000 + i * 30_000] = h
        corpus = SyntheticCorpus(
            [score_stream(neg_scores)],
            [PositiveExample(spike_stream(300, [150], height=h), keyword_end_ms=1510)
             for h in heights],
            1,
        )
        points = sweep_operating_points(FixedScorer(), corpus, [0.1, 0.3, 0.5, 0.7, 0.9])
        expected_fa = [4.0, 3.0, 2.0, 1.0, 0.0]
        expected_frr = [0.0, 0.25, 0.5, 0.75, 1.0]
        for (theta, fa, frr), e_fa, e_frr in zip(points, expected_fa, expected_frr):
            assert fa == pytest.approx(e_fa)
            assert frr == pytest.approx(e_frr)

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            sweep_operating_points(FixedScorer(), self._corpus(), [0.5, 0.1])


@pytest.fixture(scope="module")
def corpus():
    return generate_posterior_corpus(seed=7, negative_streams=2,
                                     negative_minutes_each=15.0, num_positives=60)


@pytest.fixture(scope="module")
def scorers():
    cfg = oracle_decoder_config()
    return DecoderScorer(cfg, "stage1"), DecoderScorer(cfg, "stage2")


class TestCascadeTable:
    def test_pass_through_row_equals_stage2_alone(self, corpus, scorers):
        s1, s2 = scorers
        table = cascade_table(s1, s2, corpus, [0.0, 0.5], stage2_threshold=0.5)
        disabled, zero_row = table.rows[0], table.rows[1]
        assert zero_row.cascade_fa_per_hr == disabled.cascade_fa_per_hr
        assert zero_row.cascade_frr == disabled.cascade_frr

    def test_composition_inequalities_every_row(self, corpus, scorers):
        s1, s2 = scorers
        table = cascade_table(s1, s2, corpus, [0.3, 0.45, 0.6, 0.75], stage2_threshold=0.5)
        for row in table.rows[1:]:
            assert row.cascade_fa_per_hr <= row.stage1_fa_per_hr
            assert row.cascade_frr >= row.stage1_frr

    def test_text_render_has_table_layout(self, corpus, scorers):
        s1, s2 = scorers
        table = cascade_table(s1, s2, corpus, [0.5], stage2_threshold=0.5)
        text = table.render_text()
        for col in ("Stage 1 FA/hr", "Stage 1 FRR", "Cascade FA/hr", "Cascade FRR"):
            assert col in text
        assert "None" in text  # stage-1-disabled first row
        assert "stage-2 threshold fixed" in text
        csv = table.render_csv()
        assert csv.splitlines()[0] == (
            "stage1_threshold,stage1_fa_per_hr,stage1_frr,cascade_fa_per_hr,cascade_frr"
        )
        assert len(csv.splitlines()) == len(table.rows) + 1

    def test_speaker_filter_never_hurts(self, corpus, scorers):
        s1, s2 = scorers
        thresholds = [0.3, 0.5, 0.7]
        off = cascade_table(s1, s2, corpus, thresholds, 0.5, speaker_verification=False)
        on = cascade_table(s1, s2, corpus, thresholds, 0.5, speaker_verification=True)
        for row_off, row_on in zip(off.rows, on.rows):
            assert row_on.cascade_fa_per_hr <= row_off.cascade_fa_per_hr
            assert row_on.cascade_frr >= row_off.cascade_frr


class OffsetScorer(FixedScorer):
    """Scores that start at frame ``first``, as a PipelineScorer's do at S-1."""

    def __init__(self, first, hop=10, view="scores"):
        super().__init__(hop, view)
        self.first = first

    def frame_scores(self, stream):
        return super().frame_scores(stream)[self.first:]

    def frame_timestamps_ms(self, stream, count):
        return (np.arange(count) + self.first + 1) * self._hop


class TestStagePairing:
    def test_stages_are_paired_by_frame_not_by_list_position(self):
        # one spike at frame 50 in both stages; stage 2's scores start a
        # frame later, so by position its spike sits at index 49
        negative = spike_stream(3000, [50])
        positive = PositiveExample(spike_stream(300, [150]), keyword_end_ms=1510)
        corpus = SyntheticCorpus([negative], [positive], 1)
        table = cascade_table(OffsetScorer(0), OffsetScorer(1), corpus, [0.5],
                              stage2_threshold=0.5)
        row = table.rows[1]
        assert row.stage1_fa_per_hr * negative.duration_hours == pytest.approx(1)
        assert row.cascade_fa_per_hr * negative.duration_hours == pytest.approx(1)
        assert row.cascade_frr == 0.0

    def test_last_shared_frame_is_compared(self):
        # both stages end on frame 2999; pairing by position dropped stage 1's
        negative = spike_stream(3000, [2999])
        corpus = SyntheticCorpus(
            [negative], [PositiveExample(spike_stream(300, [150]), keyword_end_ms=1510)], 1)
        table = cascade_table(OffsetScorer(0), OffsetScorer(1), corpus, [0.5], 0.5)
        assert table.rows[1].cascade_fa_per_hr * negative.duration_hours == pytest.approx(1)

    def test_stages_on_different_frame_clocks_rejected(self):
        corpus = SyntheticCorpus(
            [spike_stream(100, [])], [PositiveExample(spike_stream(100, [50]), 510)], 1)
        with pytest.raises(ValueError, match="frame clock"):
            cascade_table(FixedScorer(10), FixedScorer(20), corpus, [0.5], 0.5)


def mask_product_table(stage1, stage2, corpus, stage1_thresholds, stage2_threshold,
                       refractory_ms, hit_window_ms, speaker_verification):
    """Cascade table rows as tuples, from the product of per-frame accept masks.

    Per stage-1 threshold: m1 = s1 >= theta1 and mc = m1 & (s2 >= theta2) &
    gate, on the frames both stages score (matched by timestamp). The
    speaker gate is indexed by stage-1 score position, as cascade_table's is.
    """
    def paired(stream):
        s1, s2 = stage1.frame_scores(stream), stage2.frame_scores(stream)
        ts1 = stage1.frame_timestamps_ms(stream, len(s1))
        _, i1, i2 = np.intersect1d(ts1, stage2.frame_timestamps_ms(stream, len(s2)),
                                   return_indices=True)
        gate = np.full(len(s1), not speaker_verification)
        if speaker_verification:
            for event in stream.events:
                if event.signature is not None:
                    sig = event.signature / np.linalg.norm(event.signature)
                    cosine = float(np.dot(sig, corpus.profile_direction))
                    gate[event.start_frame : event.end_frame + 1] = (
                        cosine >= corpus.speaker_threshold)
        return s1[i1], s2[i2], gate[i1], ts1[i1]

    neg, pos = [], []
    for stream in corpus.negatives:
        s1, s2, gate, _ = paired(stream)
        neg.append((s1, s2, gate, int(round(refractory_ms / stage1.hop_ms(stream)))))
    for example in corpus.positives:
        s1, s2, gate, ts = paired(example.stream)
        pos.append((s1, s2, gate, np.abs(ts - example.keyword_end_ms) <= hit_window_ms))
    hours = sum(s.duration_hours for s in corpus.negatives)

    def stats(theta1):
        fa1 = fa_c = miss1 = miss_c = 0
        for s1, s2, gate, refr in neg:
            m1 = s1 >= theta1
            mc = m1 & (s2 >= stage2_threshold) & gate
            fa1 += len(greedy_event_frames(m1, 0.5, refr))
            fa_c += len(greedy_event_frames(mc, 0.5, refr))
        for s1, s2, gate, window in pos:
            m1 = s1 >= theta1
            mc = m1 & (s2 >= stage2_threshold) & gate
            miss1 += 0 if np.any(m1 & window) else 1
            miss_c += 0 if np.any(mc & window) else 1
        return fa1 / hours, miss1 / len(pos), fa_c / hours, miss_c / len(pos)

    rows = [(None, None, None, *stats(0.0)[2:])]
    return rows + [(theta1, *stats(theta1)) for theta1 in stage1_thresholds]


def table_tuples(table):
    return [(r.stage1_threshold, r.stage1_fa_per_hr, r.stage1_frr,
             r.cascade_fa_per_hr, r.cascade_frr) for r in table.rows]


SCORE_GRID = np.array([0.0, 1.01, -0.3] + [round(0.1 * k, 1) for k in range(1, 13)])
# thresholds on the score grid put scores exactly on a threshold
THRESHOLDS = st.one_of(st.sampled_from([-np.inf, 0.0, 1.01, np.inf]),
                       st.sampled_from(list(SCORE_GRID)), st.floats(-0.5, 1.5))
# cosines 1, 0, 0.71 and -1 against the profile direction (1, 0)
SIGNATURES = [None, np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0]),
              np.array([-2.0, 0.0])]
PLANTED = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 10),
                             st.sampled_from(SIGNATURES)), max_size=3)


@st.composite
def score_streams(draw, min_frames=0):
    # one byte string gives both stages' scores, as indices into SCORE_GRID
    raw = draw(st.binary(min_size=2 * min_frames, max_size=60))
    scores = SCORE_GRID[np.frombuffer(raw, dtype=np.uint8) % len(SCORE_GRID)]
    n = len(scores) // 2
    events = [PlantedEvent("impostor", start, start + length, 0.0, 0.0, signature=sig)
              for start, length, sig in draw(PLANTED)]
    return SyntheticStream({"scores": scores[:n], "scores2": scores[n : 2 * n]}, 10, events)


NEGATIVES = st.tuples(score_streams(min_frames=1), st.lists(score_streams(), max_size=2))
POSITIVES = st.lists(st.tuples(score_streams(), st.integers(0, 500)), min_size=1, max_size=4)
# offset 50 leaves the two stages no frame in common
OFFSETS = st.one_of(st.integers(0, 3), st.just(50))


@st.composite
def cascade_cases(draw):
    first, rest = draw(NEGATIVES)
    positives = [PositiveExample(stream, end_ms) for stream, end_ms in draw(POSITIVES)]
    corpus = SyntheticCorpus([first, *rest], positives, 1,
                             profile_direction=np.array([1.0, 0.0]), speaker_threshold=0.6)
    return dict(
        stage1=OffsetScorer(draw(OFFSETS)),
        stage2=OffsetScorer(draw(OFFSETS), view="scores2"),
        corpus=corpus,
        stage1_thresholds=draw(st.lists(THRESHOLDS, max_size=5)),
        stage2_threshold=draw(THRESHOLDS),
        refractory_ms=draw(st.integers(0, 60)),
        hit_window_ms=draw(st.integers(0, 200)),
        speaker_verification=draw(st.booleans()),
    )


class TestMaskProductOracle:
    @settings(max_examples=200, deadline=None)
    @given(cascade_cases())
    def test_rows_equal_the_mask_product(self, case):
        assert table_tuples(cascade_table(**case)) == mask_product_table(**case)

    @settings(max_examples=50, deadline=None)
    @given(cascade_cases())
    def test_stage1_columns_equal_the_sweep_with_one_scorer(self, case):
        case["stage2"] = case["stage1"]
        case["stage1_thresholds"] = sorted(case["stage1_thresholds"])
        rows = table_tuples(cascade_table(**case))[1:]
        sweep = sweep_operating_points(case["stage1"], case["corpus"],
                                       case["stage1_thresholds"], case["refractory_ms"],
                                       case["hit_window_ms"])
        assert [row[:3] for row in rows] == sweep


class TestNanThresholds:
    def _corpus(self):
        return SyntheticCorpus([spike_stream(100, [20])],
                               [PositiveExample(spike_stream(100, [50]), 510)], 1)

    @pytest.mark.parametrize("stage1_thresholds, stage2_threshold, name", [
        ([float("nan")], 0.5, "stage1_threshold"),
        ([float("nan"), 0.3], 0.5, "stage1_threshold"),
        ([0.3], float("nan"), "stage2_threshold"),
    ])
    def test_cascade_table_names_the_nan_threshold(self, stage1_thresholds,
                                                   stage2_threshold, name):
        with pytest.raises(ValueError, match=name):
            cascade_table(FixedScorer(), FixedScorer(), self._corpus(), stage1_thresholds,
                          stage2_threshold)

    def test_sweep_rejects_a_nan_threshold(self):
        with pytest.raises(ValueError, match="NaN"):
            sweep_operating_points(FixedScorer(), self._corpus(), [float("nan"), 0.3])

    def test_infinite_thresholds_mute_a_stage(self):
        table = cascade_table(FixedScorer(), FixedScorer(), self._corpus(),
                              [-np.inf, np.inf], np.inf)
        assert table_tuples(table)[1:] == [(-np.inf, 3600.0, 0.0, 0.0, 1.0),
                                           (np.inf, 0.0, 1.0, 0.0, 1.0)]


class TestWindowBounds:
    @pytest.mark.parametrize("name", ["refractory_ms", "hit_window_ms"])
    @pytest.mark.parametrize("value", [-1.0, float("inf"), float("nan")])
    def test_non_finite_or_negative_windows_rejected(self, name, value):
        corpus = SyntheticCorpus(
            [spike_stream(100, [])],
            [PositiveExample(spike_stream(100, [50]), keyword_end_ms=510)], 1)
        with pytest.raises(ValueError, match=name):
            cascade_table(FixedScorer(), FixedScorer(), corpus, [0.5], 0.5, **{name: value})
        with pytest.raises(ValueError, match=name):
            sweep_operating_points(FixedScorer(), corpus, [0.5], **{name: value})


class TestGroundTruthAgreement:
    def test_measured_far_equals_planted_counts(self):
        corpus = generate_posterior_corpus(seed=11, negative_streams=2,
                                           negative_minutes_each=15.0, num_positives=10)
        scorer = DecoderScorer(oracle_decoder_config(), "stage1")
        impostors = [e for s in corpus.negatives for e in s.events]
        for theta in (0.35, 0.5, 0.65, 0.8):
            _, measured, _ = sweep_operating_points(scorer, corpus, [theta])[0]
            planted = sum(1 for e in impostors if e.stage1_peak >= theta)
            assert measured == pytest.approx(planted / corpus.negative_hours)

    def test_measured_frr_equals_planted_counts(self):
        corpus = generate_posterior_corpus(seed=12, negative_streams=1,
                                           negative_minutes_each=5.0, num_positives=80)
        scorer = DecoderScorer(oracle_decoder_config(), "stage1")
        for theta in (0.4, 0.55, 0.7):
            _, _, measured = sweep_operating_points(scorer, corpus, [theta])[0]
            planted = sum(1 for p in corpus.positives
                          if p.stream.events[0].stage1_peak < theta)
            assert measured == pytest.approx(planted / len(corpus.positives))


class TestPowerProxy:
    def _log(self, decisions):
        events = []
        for trigger_ms, decision_ms, accept in decisions:
            events.append(CascadeEvent(EventKind.STAGE1_TRIGGER, trigger_ms))
            kind = EventKind.STAGE2_ACCEPT if accept else EventKind.STAGE2_REJECT
            events.append(CascadeEvent(kind, decision_ms))
        return events

    def test_zero_triggers_is_stage1_only(self):
        proxy = power_proxy([], 3600.0, multiplier=100.0)
        assert proxy.total_units == 3600.0
        assert proxy.wake_count == 0

    def test_two_three_second_runs(self):
        log = self._log([(10_000, 11_000, True), (50_000, 51_000, False)])
        proxy = power_proxy(log, 3600.0, multiplier=100.0, snapshot_sec=2.0)
        assert proxy.stage2_run_seconds == pytest.approx(6.0)
        assert proxy.total_units == pytest.approx(3600.0 + 600.0)
        assert proxy.wakes_per_hour == pytest.approx(2.0)

    def test_multiplier_linearity(self):
        log = self._log([(10_000, 11_500, True)])
        lo = power_proxy(log, 3600.0, multiplier=10.0)
        hi = power_proxy(log, 3600.0, multiplier=100.0)
        assert hi.total_units - lo.total_units == pytest.approx(90.0 * lo.stage2_run_seconds)

    def test_multiplier_must_exceed_one(self):
        with pytest.raises(ValueError):
            power_proxy([], 3600.0, multiplier=1.0)
