"""FA/hr and FRR measurement, threshold sweeps, cascade tables, power proxy.

Conventions, fixed here and relied on by the composition-law guarantees:

* FA/hr counts threshold crossings deduplicated by a refractory period
  (greedy earliest-first, so the count is monotone in the accept mask);
* FRR counts a positive as hit when ANY accept frame falls within the hit
  window of the labelled keyword end - no deduplication, so gating a mask
  can only turn hits into misses;
* the cascade accept mask is the pointwise intersection of the stage
  masks (and the speaker gate when enabled), which makes
  "stage-1 threshold 0" literally equal to the stage-2-alone row.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cascade import DetectorStream, EventKind
from .decoder import batch_frame_scores
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
    """Scores raw audio streams through frontend + encoder + decoder."""

    def __init__(self, frontend_config, model, decoder_config,
                 mode=AccumMode.FIXED, view="audio"):
        self.frontend_config = frontend_config
        self.model = model
        self.config = decoder_config
        self.mode = mode
        self.view = view

    def frame_scores(self, stream):
        samples = stream.views[self.view] if hasattr(stream, "views") else stream
        det = DetectorStream(self.frontend_config, self.model, self.config, self.mode)
        # the decoder numbers frames consecutively, so hit k is frame first + k
        return np.array([hyp.score for _, hyp in det.push(samples)])

    def hop_ms(self, stream):
        return self.frontend_config.hop_ms

    def frame_timestamps_ms(self, stream, count):
        cfg = self.frontend_config
        start = self.model.num_stacked_frames - 1
        idx = np.arange(count) + start
        return idx * cfg.hop_ms + cfg.frame_length_ms


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


def sweep_operating_points(detector, corpus, thresholds,
                           refractory_ms=DEFAULT_REFRACTORY_MS,
                           hit_window_ms=DEFAULT_HIT_WINDOW_MS):
    """(threshold, FA/hr, FRR) per threshold, scoring each stream once."""
    _check_window_ms(refractory_ms=refractory_ms, hit_window_ms=hit_window_ms)
    thresholds = list(thresholds)
    if sorted(thresholds) != thresholds:
        raise ValueError("thresholds must be sorted ascending")
    neg_scores = [detector.frame_scores(s) for s in corpus.negatives]
    neg_refr = [int(round(refractory_ms / detector.hop_ms(s))) for s in corpus.negatives]
    total_hours = sum(s.duration_hours for s in corpus.negatives)
    if total_hours <= 0:
        raise CorpusError("negative corpus has zero duration")
    pos_scores = []
    for pos in corpus.positives:
        scores = detector.frame_scores(pos.stream)
        ts = detector.frame_timestamps_ms(pos.stream, len(scores))
        pos_scores.append((scores, np.abs(ts - pos.keyword_end_ms) <= hit_window_ms))
    if not pos_scores:
        raise CorpusError("positive corpus is empty")
    points = []
    for theta in thresholds:
        fa = sum(
            len(accept_event_frames(s, theta, r)) for s, r in zip(neg_scores, neg_refr)
        ) / total_hours
        misses = sum(1 for s, w in pos_scores if not np.any((s >= theta) & w))
        points.append((theta, fa, misses / len(pos_scores)))
    return points


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


def _speaker_gate_mask(stream, count, profile_direction, speaker_threshold):
    """Per-frame verification outcome from the stream's planted events.

    Frames inside a planted event inherit that event's ground-truth cosine
    decision; frames outside any event fail verification (a verifier never
    matches unlabelled noise to the enrolled speaker).
    """
    mask = np.zeros(count, dtype=bool)
    for event in stream.events:
        if event.signature is None:
            continue
        sig = event.signature / np.linalg.norm(event.signature)
        ok = float(np.dot(sig, profile_direction)) >= speaker_threshold
        mask[event.start_frame : event.end_frame + 1] = ok
    return mask


def _event_count_from_mask(mask, refractory_frames):
    return len(accept_event_frames(mask, 0.5, refractory_frames))


def _paired_scores(stage1, stage2, stream):
    """Both stages' scores on the frames they share, and the stage-1 slice.

    A scorer's first score is its own first decodable frame (frame S-1 for
    a PipelineScorer stacking S frames), so list positions of two stages
    need not name the same frame. Their first timestamps give the offset;
    the stages must share one frame hop.
    """
    s1, s2 = stage1.frame_scores(stream), stage2.frame_scores(stream)
    hop = stage1.hop_ms(stream)
    shift = (stage2.frame_timestamps_ms(stream, 1)[0]
             - stage1.frame_timestamps_ms(stream, 1)[0]) / hop
    if stage2.hop_ms(stream) != hop or shift != int(shift):
        raise ValueError("the two stages do not score on one frame clock")
    lo1, lo2 = max(int(shift), 0), max(-int(shift), 0)
    count = max(min(len(s1) - lo1, len(s2) - lo2), 0)
    return s1[lo1 : lo1 + count], s2[lo2 : lo2 + count], slice(lo1, lo1 + count)


def _check_window_ms(**values):
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and >= 0, got {value}")


def cascade_table(stage1, stage2, corpus, stage1_thresholds, stage2_threshold,
                  refractory_ms=DEFAULT_REFRACTORY_MS,
                  hit_window_ms=DEFAULT_HIT_WINDOW_MS,
                  speaker_verification=False):
    """Cascade operating points as a function of the stage-1 threshold.

    One row per stage-1 threshold, preceded by a stage-1-disabled row
    showing stage 2 alone. The stages are compared on the frames both
    score, matched by frame timestamp. When ``speaker_verification`` is
    set, the cascade mask is additionally gated by each planted event's
    ground-truth verification outcome (corpus-provided). Each stream is
    scored once per stage, in corpus order.
    """
    _check_window_ms(refractory_ms=refractory_ms, hit_window_ms=hit_window_ms)

    def gate(stream, frames):
        if not speaker_verification:
            return np.ones(frames.stop - frames.start, dtype=bool)
        return _speaker_gate_mask(stream, frames.stop, corpus.profile_direction,
                                  corpus.speaker_threshold)[frames]

    neg = []
    for stream in corpus.negatives:
        s1, s2, frames = _paired_scores(stage1, stage2, stream)
        refr = int(round(refractory_ms / stage1.hop_ms(stream)))
        neg.append((s1, s2, gate(stream, frames), refr))
    pos = []
    for example in corpus.positives:
        s1, s2, frames = _paired_scores(stage1, stage2, example.stream)
        ts = stage1.frame_timestamps_ms(example.stream, frames.stop)[frames]
        window = np.abs(ts - example.keyword_end_ms) <= hit_window_ms
        pos.append((s1, s2, gate(example.stream, frames), window))
    total_hours = sum(s.duration_hours for s in corpus.negatives)
    if total_hours <= 0:
        raise CorpusError("negative corpus has zero duration")
    if not pos:
        raise CorpusError("positive corpus is empty")

    def stats(theta1):
        fa1 = fa_c = 0
        miss1 = miss_c = 0
        for s1, s2, gate, refr in neg:
            m1 = s1 >= theta1
            mc = m1 & (s2 >= stage2_threshold) & gate
            fa1 += _event_count_from_mask(m1, refr)
            fa_c += _event_count_from_mask(mc, refr)
        for s1, s2, gate, window in pos:
            m1 = s1 >= theta1
            mc = m1 & (s2 >= stage2_threshold) & gate
            miss1 += 0 if np.any(m1 & window) else 1
            miss_c += 0 if np.any(mc & window) else 1
        return (fa1 / total_hours, miss1 / len(pos), fa_c / total_hours, miss_c / len(pos))

    rows = []
    fa1, frr1, fac, frrc = stats(0.0)  # threshold 0 accepts every frame
    rows.append(OperatingPointRow(None, None, None, fac, frrc))
    for theta1 in stage1_thresholds:
        fa1, frr1, fac, frrc = stats(theta1)
        rows.append(OperatingPointRow(theta1, fa1, frr1, fac, frrc))
    return CascadeTable(rows, stage2_threshold, speaker_verification)


# ---------------------------------------------------------------------------
# Power proxy
# ---------------------------------------------------------------------------


@dataclass
class PowerProxy:
    stage1_cost_units_per_sec: float
    stage2_cost_multiplier: float
    stage2_run_seconds: float
    duration_sec: float
    total_units: float
    wake_count: int

    @property
    def wakes_per_hour(self):
        return self.wake_count / (self.duration_sec / 3600.0)


def power_proxy(event_log, duration_sec, multiplier=100.0, snapshot_sec=2.0):
    """Unitless energy estimate: stage-1 runs always, stage-2 per wake.

    Each stage-2 run covers the snapshot plus the streamed audio up to its
    decision, at ``multiplier`` times stage-1 cost per second.
    """
    if multiplier <= 1:
        raise ValueError("stage-2 must cost more than stage-1 (multiplier > 1)")
    if duration_sec <= 0:
        raise ValueError("duration must be positive")
    run_seconds = 0.0
    wake_count = 0
    trigger_ts = None
    for event in event_log:
        if event.kind is EventKind.STAGE1_TRIGGER:
            wake_count += 1
            trigger_ts = event.timestamp_ms
        elif event.kind in (EventKind.STAGE2_ACCEPT, EventKind.STAGE2_REJECT):
            extra = 0.0 if trigger_ts is None else max(0.0, (event.timestamp_ms - trigger_ts) / 1000.0)
            run_seconds += snapshot_sec + extra
            trigger_ts = None
    total = duration_sec * 1.0 + run_seconds * multiplier
    return PowerProxy(1.0, multiplier, run_seconds, duration_sec, total, wake_count)

