import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak_mb
from decoder_reference import reference_scores
from kwscascade.decoder import (
    _CHUNK_ROWS,
    DecoderConfig,
    InsufficientFramesError,
    StreamingDecoder,
    batch_frame_scores,
    keyword_score,
)
from kwscascade.encoder import PosteriorFrame


def brute_force_score(smoothed):
    """Exhaustive max over all non-decreasing firing tuples."""
    total, units = smoothed.shape
    best = 0.0
    for tup in combinations_with_replacement(range(total), units):
        prod = 1.0
        for unit, t in enumerate(tup):
            prod *= smoothed[t, unit]
        best = max(best, prod)
    return best ** (1.0 / units)


def trailing_mean(posteriors, window):
    """Frame t's mean of frames max(0, t - window + 1)..t, summed in row order."""
    return np.array([sum(posteriors[max(0, t - window + 1) : t + 1]) / min(t + 1, window)
                     for t in range(len(posteriors))])


def decoder_means(posteriors, window):
    """The decoder's smoothed means of a [T] or [T, M] stream, one unit at a
    time: at M = 1 and T_s = 1 a frame's score is its own mean."""
    cfg = DecoderConfig(1, smoothing_window_frames=window, score_window_frames=1)
    columns = np.asarray(posteriors, dtype=np.float64).reshape(len(posteriors), -1).T
    return np.stack([batch_frame_scores(col[:, None], cfg) for col in columns], axis=1)


class TestConfig:
    def test_window_must_fit_units(self):
        with pytest.raises(ValueError):
            DecoderConfig(num_units=5, score_window_frames=4)

    def test_mute_threshold_above_one_allowed(self):
        assert DecoderConfig(num_units=1, threshold=1.01).threshold == 1.01


class TestSmoothing:
    def test_window_one_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(30, 4))
        assert np.allclose(decoder_means(x, 1), x)

    def test_hand_example_with_warmup(self):
        out = decoder_means(np.array([0.2, 0.4, 0.6]), 2)
        assert np.allclose(out.ravel(), [0.2, 0.3, 0.5])

    def test_constant_stream_is_fixed_point(self):
        x = np.full((50, 3), 0.37)
        assert np.allclose(decoder_means(x, 7), x)

    def test_equals_explicit_mean(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(40, 2))
        out = decoder_means(x, 5)
        for t in range(40):
            lo = max(0, t - 4)
            assert np.allclose(out[t], x[lo : t + 1].mean(axis=0))


class TestKeywordScore:
    def test_all_ones_scores_one_with_earliest_alignment(self):
        hyp = keyword_score(np.ones((6, 3)))
        assert hyp.score == pytest.approx(1.0)
        assert hyp.alignment == (0, 0, 0)
        assert hyp.end_frame == 5

    def test_two_unit_example(self):
        # units fire in order at frames 0 and 1; best product 0.9 * 0.8
        smoothed = np.array([[0.9, 0.2], [0.1, 0.8], [0.1, 0.1]])
        hyp = keyword_score(smoothed)
        assert hyp.score == pytest.approx(np.sqrt(0.72))
        assert hyp.alignment == (0, 1)
        assert brute_force_score(smoothed) == pytest.approx(hyp.score)

    def test_single_unit_degenerates_to_max(self):
        rng = np.random.default_rng(2)
        col = rng.uniform(0, 1, size=(20, 1))
        hyp = keyword_score(col)
        assert hyp.score == pytest.approx(col.max())
        assert hyp.alignment == (int(np.argmax(col)),)

    def test_window_shorter_than_units_rejected(self):
        with pytest.raises(InsufficientFramesError):
            keyword_score(np.ones((2, 3)))

    def test_all_zero_scores_zero(self):
        hyp = keyword_score(np.zeros((10, 3)))
        assert hyp.score == 0.0

    def test_matches_brute_force_randomly(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            units = int(rng.integers(1, 5))
            total = int(rng.integers(units, 9))
            smoothed = rng.uniform(0, 1, size=(total, units))
            if rng.uniform() < 0.3:
                smoothed[rng.uniform(size=smoothed.shape) < 0.3] = 0.0
            hyp = keyword_score(smoothed)
            assert hyp.score == pytest.approx(brute_force_score(smoothed), abs=1e-9)

    def test_alignment_is_feasible_and_achieves_score(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            smoothed = rng.uniform(0, 1, size=(12, 3))
            hyp = keyword_score(smoothed)
            assert all(a <= b for a, b in zip(hyp.alignment, hyp.alignment[1:]))
            prod = np.prod([smoothed[t, i] for i, t in enumerate(hyp.alignment)])
            assert prod ** (1 / 3) == pytest.approx(hyp.score, abs=1e-9)

    def test_order_constraint_penalises_reversed_units(self):
        # unit 2 peaks strictly before unit 1: reversing time must win
        smoothed = np.zeros((10, 2)) + 1e-6
        smoothed[7, 0] = 0.9  # unit 1 late
        smoothed[2, 1] = 0.9  # unit 2 early
        forward = keyword_score(smoothed).score
        backward = keyword_score(smoothed[::-1]).score
        assert forward < backward

    def test_not_permutation_invariant(self):
        smoothed = np.zeros((6, 2)) + 1e-6
        smoothed[1, 0] = 0.9
        smoothed[4, 1] = 0.8
        swapped = smoothed[:, ::-1]
        assert keyword_score(smoothed).score != pytest.approx(
            keyword_score(swapped).score, abs=1e-6
        )

    def test_geometric_mean_bound(self):
        # h is at most the geometric mean of the per-unit maxima (the
        # per-unit minimum is NOT an upper bound: maxima 0.1 and 0.9 in
        # order give h = 0.3)
        rng = np.random.default_rng(5)
        for _ in range(100):
            smoothed = rng.uniform(0, 1, size=(15, 4))
            h = keyword_score(smoothed).score
            per_unit_max = smoothed.max(axis=0)
            assert 0.0 <= h <= np.prod(per_unit_max) ** 0.25 + 1e-12

    def test_min_max_not_a_bound_concrete(self):
        smoothed = np.array([[0.1, 0.0], [0.0, 0.9]])
        hyp = keyword_score(smoothed)
        assert hyp.score == pytest.approx(np.sqrt(0.09))
        assert hyp.score > smoothed.max(axis=0).min()


class TestStreaming:
    def test_matches_windowed_keyword_score(self):
        # the canonical equivalence: output at frame t equals keyword_score
        # over the trailing window of globally smoothed posteriors
        rng = np.random.default_rng(42)
        for units in (1, 2, 3, 4, 5):
            cfg = DecoderConfig(units, smoothing_window_frames=9, score_window_frames=30)
            posteriors = rng.uniform(0, 1, size=(500, units))
            smoothed_all = trailing_mean(posteriors, cfg.smoothing_window_frames)
            dec = StreamingDecoder(cfg)
            for t, row in enumerate(posteriors):
                _, hyp = dec.push(row)
                lo = max(0, t - cfg.score_window_frames + 1)
                if t - lo + 1 < units:
                    continue  # batch op requires >= M frames
                oracle = keyword_score(smoothed_all[lo : t + 1])
                assert hyp.score == pytest.approx(oracle.score, abs=1e-9)

    def test_matches_batch_everywhere(self):
        rng = np.random.default_rng(6)
        for units in (1, 2, 3, 5):
            cfg = DecoderConfig(units, smoothing_window_frames=7, score_window_frames=25)
            posteriors = rng.uniform(0, 1, size=(120, units))
            batch = batch_frame_scores(posteriors, cfg)
            dec = StreamingDecoder(cfg)
            for t, row in enumerate(posteriors):
                frame, hyp = dec.push(row)
                assert frame == t
                assert hyp.score == pytest.approx(batch[t], abs=1e-9)

    def test_zero_posteriors_score_zero(self):
        cfg = DecoderConfig(3, score_window_frames=10)
        dec = StreamingDecoder(cfg)
        for _ in range(30):
            _, hyp = dec.push(np.zeros(3))
            assert hyp.score == 0.0

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_constant_zero_and_one_score_exactly_their_value(self, value):
        # the kernel's exp(best / M) needs no clamp at either end
        cfg = DecoderConfig(3, smoothing_window_frames=4, score_window_frames=10)
        posteriors = np.full((45, 3), value)
        assert np.all(batch_frame_scores(posteriors, cfg) == value)
        pushed = StreamingDecoder(cfg).push(posteriors)
        assert [hyp.score for _, hyp in pushed] == [value] * 45

    def test_alignment_in_global_frame_numbers(self):
        cfg = DecoderConfig(2, smoothing_window_frames=1, score_window_frames=10)
        dec = StreamingDecoder(cfg)
        posteriors = np.zeros((40, 2)) + 1e-9
        posteriors[30, 0] = 0.9
        posteriors[33, 1] = 0.9
        for t, row in enumerate(posteriors):
            frame, hyp = dec.push(row)
        assert hyp.end_frame == 39
        assert hyp.alignment == (30, 33)
        lo = hyp.end_frame - cfg.score_window_frames + 1
        assert all(lo <= a <= hyp.end_frame for a in hyp.alignment)

    def test_threshold_sets_anti_monotone(self):
        rng = np.random.default_rng(7)
        cfg = DecoderConfig(2, smoothing_window_frames=3, score_window_frames=15)
        scores = batch_frame_scores(rng.uniform(0, 1, size=(300, 2)), cfg)
        previous = None
        for theta in (0.1, 0.3, 0.5, 0.7, 0.9):
            current = set(np.flatnonzero(scores >= theta))
            if previous is not None:
                assert current <= previous
            previous = current

    def test_scores_bounded(self):
        rng = np.random.default_rng(9)
        cfg = DecoderConfig(3, smoothing_window_frames=4, score_window_frames=12)
        scores = batch_frame_scores(rng.uniform(0, 1, size=(500, 3)), cfg)
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_first_frame_index_offset(self):
        cfg = DecoderConfig(1, score_window_frames=5)
        dec = StreamingDecoder(cfg, first_frame_index=10)
        frame, hyp = dec.push(np.array([0.5]))
        assert frame == 10
        assert hyp.alignment == (10,)


class TestPushForms:
    """``push`` takes one row (an [M] vector or a PosteriorFrame) and returns one
    pair, or an [n, M] stack and returns a list of pairs, with the same scores."""

    CFG = DecoderConfig(3, smoothing_window_frames=4, score_window_frames=10)
    ROWS = np.random.default_rng(8).uniform(0, 1, size=(25, 3))

    def expected(self):
        return list(enumerate(batch_frame_scores(self.ROWS, self.CFG).tolist()))

    def test_one_row_forms_give_one_pair(self):
        vectors, frames = StreamingDecoder(self.CFG), StreamingDecoder(self.CFG)
        by_vector = [vectors.push(row) for row in self.ROWS]
        by_frame = [frames.push(PosteriorFrame(row, 1.0 - row.sum(), t))
                    for t, row in enumerate(self.ROWS)]
        for hits in (by_vector, by_frame):
            assert [(frame, hyp.score) for frame, hyp in hits] == self.expected()

    def test_stacks_give_one_pair_per_row(self):
        dec = StreamingDecoder(self.CFG)
        empty, first = dec.push(self.ROWS[:0]), dec.push(self.ROWS[:1])
        rest = dec.push(self.ROWS[1:])
        assert len(empty) == 0 and len(first) == 1
        assert [(frame, hyp.score) for frame, hyp in [*first, *rest]] == self.expected()

    @pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2), (2,)])
    def test_other_shapes_are_named(self, shape):
        dec = StreamingDecoder(self.CFG)
        with pytest.raises(ValueError, match=rf"expected \[n, 3\] unit posteriors, "
                                             rf"got shape {re.escape(str(shape))}"):
            dec.push(np.zeros(shape))
        assert dec.push(self.ROWS[0])[0] == 0  # nothing was consumed

    @pytest.mark.parametrize("shape, message", [
        ((25,), r"posteriors must be \[T, units\]"),
        ((25, 2), "stream has 2 units, config expects 3"),
        ((25, 5), "stream has 5 units, config expects 3"),
    ])
    def test_batch_scorer_names_other_shapes(self, shape, message):
        with pytest.raises(ValueError, match=message):
            batch_frame_scores(np.zeros(shape), self.CFG)


@st.composite
def split_streams(draw):
    """A decoder config, a first frame index, a posterior stream with runs of
    zeros, and push sizes: one row each, random, or runs of one-row pushes
    among random ones.

    Score windows go down to T_s = M = 1; stream lengths include exact
    multiples of T_s and lengths shorter than T_s; zero runs may start just
    before a block boundary of the decoder's frame clock.
    """
    units = draw(st.integers(1, 4))
    window = draw(st.one_of(st.just(units), st.integers(units, 100)))
    cfg = DecoderConfig(units, smoothing_window_frames=draw(st.integers(1, 25)),
                        score_window_frames=window)
    total = draw(st.one_of(
        st.integers(1, 300),
        st.integers(1, 6).map(lambda blocks: blocks * window),
        st.integers(1, window),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    posteriors = rng.uniform(0, 1, size=(total, units))
    starts = st.one_of(
        st.integers(0, total - 1),
        st.tuples(st.integers(1, 6), st.integers(0, 3)).map(
            lambda bd: max(0, min(total - 1, bd[0] * window - bd[1]))),
    )
    for start, length in draw(st.lists(st.tuples(starts, st.integers(1, 80)), max_size=3)):
        posteriors[start : start + length] = 0.0
    kind = draw(st.sampled_from(["one_each", "random", "mixed"]))
    if kind == "one_each":
        cuts = range(1, total)
    else:
        cuts = set(draw(st.sets(st.integers(1, max(1, total - 1)), max_size=20)))
        if kind == "mixed":  # runs of one-row pushes between multi-row ones
            runs = st.tuples(st.integers(1, max(1, total - 1)), st.integers(1, 2 * window))
            for lo, length in draw(st.lists(runs, min_size=1, max_size=4)):
                cuts.update(range(lo, min(total, lo + length)))
        cuts = sorted(cuts)
    bounds = [0, *(c for c in cuts if c < total), total]
    return cfg, draw(st.integers(0, 1000)), posteriors, bounds, draw(st.floats(0.0, 1.0))


class TestPushSplits:
    @settings(max_examples=100, deadline=None)
    @given(split_streams())
    def test_any_split_equals_batch_and_keyword_score(self, case):
        cfg, first, posteriors, bounds, threshold = case
        dec = StreamingDecoder(cfg, first_frame_index=first)
        assert len(dec.push(posteriors[:0])) == 0  # an empty push changes nothing
        hits = []
        for lo, hi in zip(bounds, bounds[1:]):
            hits.extend(dec.push(posteriors[lo:hi]))
        assert [frame for frame, _ in hits] == list(range(first, first + len(posteriors)))
        scores = np.array([hyp.score for _, hyp in hits])
        assert np.array_equal(scores, batch_frame_scores(posteriors, cfg))
        smoothed = trailing_mean(posteriors, cfg.smoothing_window_frames)
        for t, hyp in enumerate(hyp for _, hyp in hits):
            lo = max(0, t - cfg.score_window_frames + 1)
            # keyword_score needs one frame per unit; leading zero rows
            # never lie on a maximising chain, so padding keeps the score
            short = max(0, cfg.num_units - (t - lo + 1))
            window = np.concatenate((np.zeros((short, cfg.num_units)), smoothed[lo : t + 1]))
            oracle = keyword_score(window)
            assert abs(hyp.score - oracle.score) <= 1e-12
            if hyp.score >= threshold and not short:
                assert hyp.alignment == tuple(a + lo + first for a in oracle.alignment)

    @settings(max_examples=100, deadline=None)
    @given(split_streams())
    def test_concatenated_score_rows_give_the_batch_bytes(self, case):
        cfg, first, posteriors, bounds, _ = case
        dec = StreamingDecoder(cfg, first_frame_index=first)
        pushes = [dec.push(posteriors[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        assert [hits.first_frame for hits in pushes] == [first + lo for lo in bounds[:-1]]
        assert [len(hits) for hits in pushes] == [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        scores = np.concatenate([hits.scores for hits in pushes])
        assert scores.dtype == np.float64
        assert scores.tobytes() == batch_frame_scores(posteriors, cfg).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(split_streams())
    def test_batch_and_any_split_give_the_row_major_reference_bytes(self, case):
        # M 1-4, L 1-25, T_s from M to 100; the reference is the [T, M] kernel
        # that the unit-major one replaced, in one call over the whole stream
        cfg, first, posteriors, bounds, _ = case
        want = reference_scores(posteriors, cfg).tobytes()
        assert batch_frame_scores(posteriors, cfg).tobytes() == want
        dec = StreamingDecoder(cfg, first_frame_index=first)
        pushed = [hyp.score for lo, hi in zip(bounds, bounds[1:])
                  for _, hyp in dec.push(posteriors[lo:hi])]
        assert np.array(pushed).tobytes() == want


class TestChunkSeams:
    """Streams of 2 * _CHUNK_ROWS + r rows cross two of the batch scorer's
    chunk seams. Chunks hold whole blocks: 50-frame blocks do not divide
    16384 rows, so the seams fall at 16350 and 32700; 64-frame ones do."""

    @settings(max_examples=12, deadline=None)
    @given(window=st.sampled_from([50, 64]), extra=st.integers(0, 127),
           smoothing=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(1, 2 * _CHUNK_ROWS + 126), max_size=12),
           near_seams=st.lists(st.integers(-3, 3), max_size=4), zeros=st.booleans())
    def test_any_split_equals_the_batch_scorer(self, window, extra, smoothing, seed,
                                              cuts, near_seams, zeros):
        cfg = DecoderConfig(3, smoothing_window_frames=smoothing, score_window_frames=window)
        total = 2 * _CHUNK_ROWS + extra
        posteriors = np.random.default_rng(seed).uniform(0, 1, size=(total, 3))
        seams = [k * (_CHUNK_ROWS // window) * window for k in (1, 2)]
        if zeros:  # -inf logs on both sides of each seam
            for seam in seams:
                posteriors[seam - window : seam + 7] = 0.0
        # one-row pushes and cuts around the seams, among random cuts
        cuts = {*cuts, *(seam + d for seam in seams for d in near_seams)}
        bounds = [0, *sorted(c for c in cuts if 0 < c < total), total]
        dec = StreamingDecoder(cfg)
        pushed = [hyp.score for lo, hi in zip(bounds, bounds[1:])
                  for _, hyp in dec.push(posteriors[lo:hi])]
        batch = batch_frame_scores(posteriors, cfg)
        assert np.array(pushed).tobytes() == batch.tobytes()
        assert batch.tobytes() == reference_scores(posteriors, cfg).tobytes()


class TestHits:
    CFG = DecoderConfig(3, smoothing_window_frames=4, score_window_frames=10)

    @staticmethod
    def pair(pair):
        frame, hyp = pair
        return frame, hyp.score, hyp.end_frame, hyp.alignment

    @pytest.mark.parametrize("lead", [0, 7, 10, 23])  # rows pushed before the stack
    def test_indexed_pairs_equal_the_row_by_row_pairs(self, lead):
        rows = np.random.default_rng(31).uniform(0, 1, size=(lead + 37, 3))
        rows[lead + 5 : lead + 12, 1] = 0.0  # -inf logs inside some windows
        stacked, by_row = StreamingDecoder(self.CFG, 4), StreamingDecoder(self.CFG, 4)
        stacked.push(rows[:lead])
        for row in rows[:lead]:
            by_row.push(row)
        hits = stacked.push(rows[lead:])
        want = [self.pair(by_row.push(row)) for row in rows[lead:]]
        n = len(want)
        assert len(hits) == n and hits.first_frame == 4 + lead
        # the alignments are keyword_score's over each full trailing window
        smoothed = trailing_mean(rows, self.CFG.smoothing_window_frames)
        for frame, _, _, alignment in want:
            t = frame - 4
            lo = t - self.CFG.score_window_frames + 1
            if lo >= 0:
                oracle = keyword_score(smoothed[lo : t + 1]).alignment
                assert alignment == tuple(a + lo + 4 for a in oracle)
        for i in range(-n, n):
            assert self.pair(hits[i]) == want[i]
        assert [self.pair(p) for p in hits] == want
        for cut in (slice(None), slice(3, 30, 4), slice(None, None, -1), slice(-5, None),
                    slice(-3, 2), slice(40, 50)):
            assert [self.pair(p) for p in hits[cut]] == want[cut]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                hits[bad]


class TestRowStep:
    def test_one_row_pushes_sum_each_mean_in_row_order(self):
        # At M = 1, np.add.reduce would sum each 30-row window pairwise, which
        # rounds differently from the kernel's row-order sum.
        cfg = DecoderConfig(1, smoothing_window_frames=30, score_window_frames=100)
        posteriors = np.random.default_rng(21).uniform(0, 1, size=(400, 1))
        dec = StreamingDecoder(cfg)
        scores = [dec.push(row[None])[0][1].score for row in posteriors]
        assert np.array_equal(scores, batch_frame_scores(posteriors, cfg))


class TestStreamAge:
    def test_clip_scores_do_not_depend_on_the_stream_before_their_window(self):
        # each mean sums its own L rows, so 10**6 earlier rows (a multiple of
        # T_s, keeping the block phase) leave the clip's bits unchanged
        cfg = DecoderConfig(3)
        lead = np.full((200, 3), 0.9)
        clip = np.random.default_rng(13).uniform(0, 1, size=(300, 3))
        aged = batch_frame_scores(np.concatenate((np.ones((10**6, 3)), lead, clip)), cfg)
        fresh = batch_frame_scores(np.concatenate((lead, clip)), cfg)
        assert np.array_equal(aged[-300:], fresh[-300:])


# one ulp outside [0, 1] on either side fails the range check's min/max fast
# path as far-off values do
BAD_VALUES = [np.nan, np.inf, -np.inf, -0.5, 1.5, np.nextafter(0.0, -1.0), np.nextafter(1.0, 2.0)]


class TestOutOfRangePosteriors:
    CFG = DecoderConfig(2, smoothing_window_frames=5, score_window_frames=20)

    @staticmethod
    def stream(bad_value):
        posteriors = np.full((300, 2), 0.2)
        posteriors[100, 1] = bad_value
        return posteriors

    @pytest.mark.parametrize("bad_value", BAD_VALUES)
    def test_batch_names_the_first_bad_frame(self, bad_value):
        with pytest.raises(ValueError, match="frame 100 "):
            batch_frame_scores(self.stream(bad_value), self.CFG)

    @pytest.mark.parametrize("bad_value", BAD_VALUES)
    def test_streaming_names_the_first_bad_frame(self, bad_value):
        posteriors = self.stream(bad_value)
        dec = StreamingDecoder(self.CFG, first_frame_index=7)
        dec.push(posteriors[:90])
        with pytest.raises(ValueError, match="frame 107 "):
            dec.push(posteriors[90:120])

    @pytest.mark.parametrize("bad_value", BAD_VALUES)
    def test_keyword_score_names_the_first_bad_row(self, bad_value):
        window = self.stream(bad_value)[90:120]
        window[15, 0] = bad_value
        with pytest.raises(ValueError, match="frame 10 "):
            keyword_score(window)

    @pytest.mark.parametrize("bad_value", BAD_VALUES)
    def test_smooth_names_the_first_bad_row(self, bad_value):
        with pytest.raises(ValueError, match="frame 100 "):
            decoder_means(self.stream(bad_value), 5)

    @pytest.mark.parametrize("bad_value", BAD_VALUES)
    def test_rejected_push_leaves_the_state_unchanged(self, bad_value):
        rng = np.random.default_rng(3)
        clean = rng.uniform(0, 1, size=(200, 2))
        rejected = StreamingDecoder(self.CFG)
        untouched = StreamingDecoder(self.CFG)
        rejected.push(clean[:50])
        untouched.push(clean[:50])
        bad = clean[50:80].copy()
        bad[12, 0] = bad_value
        with pytest.raises(ValueError, match="frame 62 "):
            rejected.push(bad)
        after = [(f, h.score) for f, h in rejected.push(clean[50:])]
        assert after == [(f, h.score) for f, h in untouched.push(clean[50:])]

    @pytest.mark.parametrize("bad_value", BAD_VALUES)
    def test_rejected_row_step_leaves_the_state_unchanged(self, bad_value):
        # 53 rows in, the next one-row push is a row step in mid-block
        clean = np.random.default_rng(4).uniform(0, 1, size=(120, 2))
        rejected = StreamingDecoder(self.CFG, first_frame_index=7)
        untouched = StreamingDecoder(self.CFG, first_frame_index=7)
        rejected.push(clean[:53])
        untouched.push(clean[:53])
        bad = clean[53:54].copy()
        bad[0, 1] = bad_value
        with pytest.raises(ValueError, match="frame 60 "):
            rejected.push(bad)

        def one_row_pushes(dec):
            return [dec.push(row[None])[0] for row in clean[53:]]

        after = [(f, h.score, h.alignment) for f, h in one_row_pushes(rejected)]
        assert after == [(f, h.score, h.alignment) for f, h in one_row_pushes(untouched)]

    def test_negative_zero_and_empty_pushes_pass(self):
        # -0.0 lies in [0, 1]; a run of it gives -0.0 means, whose log is -inf
        # as that of 0.0 is, so the scores are 0.0's to the bit
        unsigned, signed = self.stream(0.2), self.stream(0.2)
        unsigned[60:130, 1], signed[60:130, 1] = 0.0, -0.0
        want = batch_frame_scores(unsigned, self.CFG).tobytes()
        assert batch_frame_scores(signed, self.CFG).tobytes() == want
        dec = StreamingDecoder(self.CFG)
        assert len(dec.push(signed[:0])) == 0
        hits = [*dec.push(signed[:95]), *[dec.push(row) for row in signed[95:135]]]
        hits += [*dec.push(signed[135:135]), *dec.push(signed[135:])]
        assert np.array([h.score for _, h in hits]).tobytes() == want
        assert batch_frame_scores(signed[:0], self.CFG).size == 0


class TestBatchMemory:
    def test_peak_is_bounded_by_one_chunk(self):
        # chunks of at most _CHUNK_ROWS rows hold about 3.0 MB of temporaries
        # at 3 units, next to the 1.6 MB result; one pass over all 200,000
        # rows peaks at about 38 MB
        cfg = DecoderConfig(3, smoothing_window_frames=10, score_window_frames=50)
        posteriors = np.random.default_rng(23).uniform(0, 1, size=(200_000, 3))
        assert traced_peak_mb(lambda: batch_frame_scores(posteriors, cfg)) < 6
