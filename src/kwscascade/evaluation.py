"""FA/hr and FRR measurement, threshold sweeps, cascade tables, power proxy.

Conventions, fixed here and relied on by the composition-law guarantees:

* every score array is indexed by stream frame from frame 0, on one frame
  clock for both stages (``frontend.frame_end_sample`` for audio); a
  scorer's score is NaN before its first decodable frame (frame S-1 for a
  PipelineScorer stacking S frames), and the speaker gate and hit windows
  read the same index. The stage-1 columns count all of stage 1's frames,
  so they equal ``sweep_operating_points`` on the stage-1 scorer;
* FA/hr counts threshold crossings deduplicated by a refractory period
  (greedy earliest-first, so the count is monotone in the accept mask);
* FRR counts a positive as hit when ANY accept frame falls within the hit
  window of the labelled keyword end - no deduplication, so gating a mask
  can only turn hits into misses;
* the cascade columns sweep the stage-1 threshold over a gated score:
  the stage-1 score where stage 2 (and the speaker gate when enabled)
  accepts, NaN elsewhere. No threshold accepts NaN, so the cascade
  accepts the pointwise intersection of the stage masks, which makes
  "stage-1 threshold 0" literally equal to the stage-2-alone row;
* the speaker gate stands in for a verifier on a synthetic corpus: each
  planted event's frames take its ``verifies``, the outcome the generator
  decided, and every other frame fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cascade import DetectorStream, check_model
from .decoder import batch_frame_scores
from .frontend import SAMPLE_RATE_HZ, FrontendStream, frame_timestamp_ms, num_frames_for
from .quantize import AccumMode

DEFAULT_REFRACTORY_MS = 1000.0
DEFAULT_HIT_WINDOW_MS = 750.0


class CorpusError(ValueError):
    """Empty or zero-duration corpus."""


class DecoderScorer:
    """Scores posterior streams (one named view) with the batch decoder."""

    def __init__(self, config, view="stage1"):
        self.config = config
        self.view = view

    def frame_scores(self, stream):
        return batch_frame_scores(stream.views[self.view], self.config)

    def hop_ms(self, stream):
        return stream.hop_ms

    def frame_timestamps_ms(self, stream, count):
        return (np.arange(count) + 1) * stream.hop_ms


class PipelineScorer:
    """Scores raw audio streams through frontend + encoder + decoder.

    Score k is stream frame k's. The first S-1 frames of a model stacking S
    frames have no score of their own and are NaN, which no threshold
    accepts. A stream's samples are its ``blocks()``, ``num_samples`` in all.
    """

    def __init__(self, frontend_config, model, decoder_config, mode=AccumMode.FIXED):
        check_model(frontend_config, model, "scorer")
        self.frontend_config = frontend_config
        self.model = model
        self.config = decoder_config
        self.mode = mode

    def frame_scores(self, stream, *others):
        """This scorer's scores of ``stream``. Given ``others``, PipelineScorers on an
        equal frontend config, one frontend pass feeds every scorer's encoder and
        decoder (its DetectorStream's ``push_frames``), and the result is the list
        of score arrays, this scorer's first."""
        if any(other.frontend_config != self.frontend_config for other in others):
            raise ValueError("a shared frontend pass needs equal frontend configs")
        frontend = FrontendStream(self.frontend_config)
        heads = [DetectorStream(s.frontend_config, s.model, s.config, s.mode)
                 for s in (self, *others)]
        scores = np.full((len(heads), num_frames_for(stream.num_samples, self.frontend_config)),
                         np.nan)
        for block in stream.blocks():
            frames = frontend.push(block)
            for head, row in zip(heads, scores):
                hits = head.push_frames(frames)
                row[hits.first_frame :][: len(hits)] = hits.scores
        return list(scores) if others else scores[0]

    def hop_ms(self, stream):
        return self.frontend_config.hop_ms

    def frame_timestamps_ms(self, stream, count):
        return frame_timestamp_ms(np.arange(count), self.frontend_config)


def accept_event_frames(scores, threshold, refractory_frames):
    """Greedy earliest-first dedup of threshold crossings.

    Picks the first crossing, suppresses the next ``refractory_frames``
    frames, repeats. This is the maximum set of crossings pairwise more
    than the refractory apart, hence monotone under mask inclusion.
    """
    hits = np.flatnonzero(np.asarray(scores) >= threshold)
    if not len(hits):
        return []
    # runs of consecutive crossing frames; inside a run the events are
    # evenly spaced, so the loop is over runs, not crossings
    cut = np.flatnonzero(np.diff(hits) > 1) + 1
    starts = hits[np.r_[0, cut]].tolist()
    ends = hits[np.r_[cut - 1, len(hits) - 1]].tolist()
    step = max(refractory_frames + 1, 1)
    events = []
    next_allowed = 0
    for lo, hi in zip(starts, ends):
        first = max(lo, next_allowed)
        if first <= hi:
            events.extend(range(first, hi + 1, step))
            next_allowed = events[-1] + step
    return events


def _check_inputs(refractory_ms, hit_window_ms, **thresholds):
    """ValueError for a negative or non-finite window, or a NaN threshold.

    Runs before any stream is scored. ``thresholds`` gives by name every
    threshold a table sweeps or gates with.
    """
    for name, value in dict(refractory_ms=refractory_ms, hit_window_ms=hit_window_ms).items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    for name, value in thresholds.items():
        if np.isnan(value).any():
            raise ValueError(f"{name} must not be NaN")


class _Counter:
    """The one FA/FRR counter: per threshold, the deduplicated false accepts
    over the negatives and the missed positives, counted one stream at a time.

    Each stream's scores are indexed by stream frame on ``scorer``'s clock,
    and no threshold accepts a NaN score. The refractory in frames and each
    positive's hit-window mask are taken from that clock. The counter keeps
    two integers per threshold, not the score arrays.
    """

    def __init__(self, scorer, corpus, thresholds, refractory_ms, hit_window_ms):
        self._hours, self._positives = corpus.negative_hours, len(corpus.positives)
        if self._hours <= 0:
            raise CorpusError("negative corpus has zero duration")
        if not self._positives:
            raise CorpusError("positive corpus is empty")
        self._scorer = scorer
        self._thresholds = list(thresholds)
        self._refractory_ms = refractory_ms
        self._hit_window_ms = hit_window_ms
        self._false_accepts = [0] * len(self._thresholds)
        self._misses = [0] * len(self._thresholds)

    def negative(self, stream, scores):
        refractory = int(round(self._refractory_ms / self._scorer.hop_ms(stream)))
        for i, theta in enumerate(self._thresholds):
            self._false_accepts[i] += len(accept_event_frames(scores, theta, refractory))

    def positive(self, example, scores):
        window = np.abs(self._scorer.frame_timestamps_ms(example.stream, len(scores))
                        - example.keyword_end_ms) <= self._hit_window_ms
        for i, theta in enumerate(self._thresholds):
            self._misses[i] += not np.any((scores >= theta) & window)

    def points(self):
        """(threshold, FA/hr, FRR) per threshold."""
        return [(theta, fa / self._hours, misses / self._positives) for theta, fa, misses
                in zip(self._thresholds, self._false_accepts, self._misses)]


def sweep_operating_points(detector, corpus, thresholds,
                           refractory_ms=DEFAULT_REFRACTORY_MS,
                           hit_window_ms=DEFAULT_HIT_WINDOW_MS):
    """(threshold, FA/hr, FRR) per threshold, scoring each stream once."""
    thresholds = list(thresholds)
    _check_inputs(refractory_ms, hit_window_ms, threshold=thresholds)
    if sorted(thresholds) != thresholds:
        raise ValueError("thresholds must be sorted ascending")
    counter = _Counter(detector, corpus, thresholds, refractory_ms, hit_window_ms)
    for stream in corpus.negatives:
        counter.negative(stream, detector.frame_scores(stream))
    for example in corpus.positives:
        counter.positive(example, detector.frame_scores(example.stream))
    return counter.points()


# ---------------------------------------------------------------------------
# Cascade tables
# ---------------------------------------------------------------------------


@dataclass
class OperatingPointRow:
    stage1_threshold: float  # None on the stage-1-disabled row
    stage1_fa_per_hr: float
    stage1_frr: float
    cascade_fa_per_hr: float
    cascade_frr: float


@dataclass
class CascadeTable:
    rows: list
    stage2_threshold: float
    speaker_enabled: bool = False

    def render_text(self):
        header = (
            f"# stage-2 threshold fixed at {self.stage2_threshold}"
            + ("; speaker verification on" if self.speaker_enabled else "")
        )
        cols = ["Stage 1 FA/hr", "Stage 1 FRR", "Cascade FA/hr", "Cascade FRR"]
        lines = [header, "  ".join(f"{c:>14}" for c in cols)]
        for row in self.rows:
            cells = [
                "None" if row.stage1_fa_per_hr is None else f"{row.stage1_fa_per_hr:.3f}",
                "None" if row.stage1_frr is None else f"{100 * row.stage1_frr:.1f}%",
                f"{row.cascade_fa_per_hr:.3f}",
                f"{100 * row.cascade_frr:.1f}%",
            ]
            lines.append("  ".join(f"{c:>14}" for c in cells))
        return "\n".join(lines)

    def render_csv(self):
        lines = ["stage1_threshold,stage1_fa_per_hr,stage1_frr,cascade_fa_per_hr,cascade_frr"]
        for row in self.rows:
            cells = [
                "" if row.stage1_threshold is None else repr(float(row.stage1_threshold)),
                "" if row.stage1_fa_per_hr is None else repr(float(row.stage1_fa_per_hr)),
                "" if row.stage1_frr is None else repr(float(row.stage1_frr)),
                repr(float(row.cascade_fa_per_hr)),
                repr(float(row.cascade_frr)),
            ]
            lines.append(",".join(cells))
        return "\n".join(lines)


def _speaker_gate_mask(stream, count):
    """Per-frame verification outcome from the stream's planted events.

    Frames inside a planted event take that event's planted ``verifies``;
    frames outside any event fail verification (a verifier never matches
    unlabelled noise to the enrolled speaker).
    """
    mask = np.zeros(count, dtype=bool)
    for event in stream.events:
        mask[event.start_frame : event.end_frame + 1] = event.verifies
    return mask


def _paired_scores(stage1, stage2, stream, stage2_threshold, speaker_verification):
    """Stage-1 scores and the gated stage-1 score, both indexed by stream frame.

    The gated score is the stage-1 score where stage 2 (and the speaker
    gate, when on) accepts, NaN elsewhere, so a stage-1 threshold on it
    accepts exactly the cascade's frames. The stages must score the same
    frames on one frame clock. Two PipelineScorers on equal frontend configs
    score the stream in one shared frontend pass.
    """
    if (isinstance(stage1, PipelineScorer) and isinstance(stage2, PipelineScorer)
            and stage1.frontend_config == stage2.frontend_config):
        s1, s2 = stage1.frame_scores(stream, stage2)
    else:
        s1, s2 = stage1.frame_scores(stream), stage2.frame_scores(stream)
    if (len(s1) != len(s2) or stage1.hop_ms(stream) != stage2.hop_ms(stream)
            or stage1.frame_timestamps_ms(stream, 1)[0]
            != stage2.frame_timestamps_ms(stream, 1)[0]):
        raise ValueError("the two stages do not score on one frame clock")
    accept = s2 >= stage2_threshold
    if speaker_verification:
        accept &= _speaker_gate_mask(stream, len(s1))
    return s1, np.where(accept, s1, np.nan)


def cascade_table(stage1, stage2, corpus, stage1_thresholds, stage2_threshold,
                  refractory_ms=DEFAULT_REFRACTORY_MS,
                  hit_window_ms=DEFAULT_HIT_WINDOW_MS,
                  speaker_verification=False):
    """Cascade operating points as a function of the stage-1 threshold.

    One row per stage-1 threshold, preceded by a stage-1-disabled row
    showing stage 2 alone. Both stages score every frame of a stream on
    one frame clock. When ``speaker_verification`` is set, the cascade
    mask is additionally gated by each planted event's ``verifies``, its
    ground-truth verification outcome. Each stream is scored once per
    stage, in corpus order, both stages in one frontend pass where they can
    share it (see ``_paired_scores``).
    """
    _check_inputs(refractory_ms, hit_window_ms, stage1_threshold=stage1_thresholds,
                  stage2_threshold=stage2_threshold)
    windows = dict(refractory_ms=refractory_ms, hit_window_ms=hit_window_ms)
    stage1_counter = _Counter(stage1, corpus, stage1_thresholds, **windows)
    # threshold 0 accepts every gated frame (scores are >= 0): the stage-2-alone row
    cascade_counter = _Counter(stage1, corpus, [0.0, *stage1_thresholds], **windows)
    for stream in corpus.negatives:
        s1, gated = _paired_scores(stage1, stage2, stream, stage2_threshold,
                                   speaker_verification)
        stage1_counter.negative(stream, s1)
        cascade_counter.negative(stream, gated)
    for example in corpus.positives:
        s1, gated = _paired_scores(stage1, stage2, example.stream, stage2_threshold,
                                   speaker_verification)
        stage1_counter.positive(example, s1)
        cascade_counter.positive(example, gated)
    (_, fa, frr), *cascade_points = cascade_counter.points()
    rows = [OperatingPointRow(None, None, None, fa, frr)]
    for (theta1, fa1, frr1), (_, fac, frrc) in zip(stage1_counter.points(), cascade_points):
        rows.append(OperatingPointRow(theta1, fa1, frr1, fac, frrc))
    return CascadeTable(rows, stage2_threshold, speaker_verification)


# ---------------------------------------------------------------------------
# Power proxy
# ---------------------------------------------------------------------------


@dataclass
class PowerProxy:
    stage2_cost_multiplier: float
    stage2_run_seconds: float
    duration_sec: float
    total_units: float
    triggers: int

    @property
    def wakes_per_hour(self):
        return self.triggers / (self.duration_sec / 3600.0)


def power_proxy(stats, multiplier=100.0):
    """Unitless energy estimate from a cascade's ``stats``.

    Stage 1 costs one unit per second of audio pushed; stage 2 costs
    ``multiplier`` units per second it ran, each job from its snapshot's
    start to its decision.
    """
    if multiplier <= 1:
        raise ValueError("stage-2 must cost more than stage-1 (multiplier > 1)")
    if stats.samples <= 0:
        raise ValueError("no audio was pushed")
    duration = stats.samples / SAMPLE_RATE_HZ
    run_seconds = stats.stage2_samples / SAMPLE_RATE_HZ
    return PowerProxy(multiplier, run_seconds, duration, duration + run_seconds * multiplier,
                      stats.triggers)
