"""Streaming keyword decoder: posterior smoothing and ordered max-product score.

Per frame t, unit posteriors are averaged over the trailing L frames
(shorter at stream start, dividing by the actual count), then the score
over the trailing T_s-frame window is

    h = ( max over t_1 <= t_2 <= ... <= t_M of  prod_i s_{t_i}(unit_i) ) ** (1/M)

computed as a log-space dynamic program with running maxima; log(0) is
the -inf sentinel and the M-th root becomes a divide. Ties are broken
toward the earliest frames: the last firing time is minimised first, then
each earlier one. All frame indices are 0-based.
"""

from dataclasses import dataclass

import numpy as np


class InsufficientFramesError(ValueError):
    """Score window holds fewer frames than keyword units."""


@dataclass(frozen=True)
class DecoderConfig:
    num_units: int
    smoothing_window_frames: int = 30
    score_window_frames: int = 100
    threshold: float = 0.5

    def __post_init__(self):
        if self.num_units < 1:
            raise ValueError("num_units must be >= 1")
        if self.smoothing_window_frames < 1:
            raise ValueError("smoothing window must be >= 1")
        if self.score_window_frames < self.num_units:
            raise ValueError("score window must hold at least num_units frames")
        # Thresholds above 1 are legal: they make the detector mute.
        if not self.threshold >= 0:
            raise ValueError("threshold must be >= 0")


class KeywordHypothesis:
    """Score in [0, 1] plus the maximising, non-decreasing firing times.

    A streaming hypothesis keeps the smoothed rows of its score window and
    computes ``alignment`` (in global frame numbers) the first time it is
    read.
    """

    def __init__(self, score, alignment, end_frame, window=None):
        self.score = score
        self.end_frame = end_frame
        self._alignment = alignment
        self._window = window

    @property
    def alignment(self):
        if self._alignment is None:
            offset = self.end_frame - len(self._window) + 1
            self._alignment = tuple(a + offset for a in _score_window(self._window).alignment)
        return self._alignment


def smooth(posteriors, window):
    """Trailing-mean smoothing of a [T, M] posterior matrix.

    Frame t averages frames max(0, t-window+1)..t; the warm-up prefix
    divides by the number of frames actually present.
    """
    if window < 1:
        raise ValueError("smoothing window must be >= 1")
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim == 1:
        posteriors = posteriors[:, None]
    return _smooth_rows(posteriors, posteriors[:0], 0, window)[0]


def _smooth_rows(rows, sums, seen, window, lead=0):
    """Trailing means of ``rows``, continuing a stream of ``seen`` frames.

    ``sums`` holds the stream's cumulative sums at its last
    min(seen, window) frames. The cumsum continues from the carried one in
    place, so any split of a stream gives the same bits as one cumsum over
    all of it. Returns the smoothed rows behind ``lead`` zero rows (room for
    a score window's history), and the sums to carry on.
    """
    carried = len(sums)
    cs = np.concatenate((sums, rows))
    tail = cs[max(carried - 1, 0) :]
    np.cumsum(tail, axis=0, out=tail)
    head = min(max(window - seen, 0), len(rows))  # warm-up rows
    start = carried + head
    out = np.zeros((lead + len(rows), cs.shape[1]))
    counts = np.arange(seen + 1, seen + head + 1, dtype=np.float64)
    out[lead : lead + head] = cs[carried:start] / counts[:, None]
    out[lead + head :] = (cs[start:] - cs[start - window : len(cs) - window]) / window
    # cancellation in the running sums can leave tiny negatives where the
    # true mean is 0; posteriors live in [0, 1], so clamp
    np.clip(out, 0.0, 1.0, out=out)
    return out, cs[-window:].copy()


def _running_max_earliest(values):
    """Running max plus the earliest index achieving it, vectorised."""
    rm = np.maximum.accumulate(values)
    prev = np.concatenate(([-np.inf], rm[:-1]))
    new = values > prev
    new[0] = True
    arg = np.maximum.accumulate(np.where(new, np.arange(len(values)), -1))
    return rm, arg


def keyword_score(smoothed):
    """Ordered max-product score of one [T, M] window of smoothed posteriors.

    Raises InsufficientFramesError when T < M; the streaming decoder
    scores short warm-up windows instead of raising. Alignment indices
    are window-local.
    """
    smoothed = np.asarray(smoothed, dtype=np.float64)
    if smoothed.ndim == 1:
        smoothed = smoothed[:, None]
    total, units = smoothed.shape
    if total < units:
        raise InsufficientFramesError(f"window of {total} frames cannot fit {units} units")
    return _score_window(smoothed)


def _score_window(smoothed):
    total, units = smoothed.shape
    with np.errstate(divide="ignore"):
        ls = np.log(smoothed)
    level = np.zeros(total)
    backptr = np.zeros((units, total), dtype=np.int64)
    for i in range(units):
        rm, arg = _running_max_earliest(level)
        level = ls[:, i] + rm
        backptr[i] = arg
    _, end_arg = _running_max_earliest(level)
    end = int(end_arg[-1])
    log_h = level[end]
    alignment = [end]
    for i in range(units - 1, 0, -1):
        alignment.append(int(backptr[i][alignment[-1]]))
    alignment.reverse()
    score = 0.0 if log_h == -np.inf else float(np.exp(log_h / units))
    return KeywordHypothesis(min(score, 1.0), tuple(alignment), total - 1)


def batch_frame_scores(posteriors, config):
    """Score at every frame: keyword_score over each trailing window.

    ``posteriors`` is [T, M] (keyword units only) or [T, M+1] with the
    filler as the last column, which is then dropped. The result matches
    StreamingDecoder frame for frame, bit for bit; windows shorter than the
    score window at stream start are scored over the frames available.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    if posteriors.ndim != 2:
        raise ValueError("posteriors must be [T, units]")
    if posteriors.shape[1] == config.num_units + 1:
        posteriors = posteriors[:, : config.num_units]
    if posteriors.shape[1] != config.num_units:
        raise ValueError(
            f"stream has {posteriors.shape[1]} units, config expects {config.num_units}"
        )
    window = config.score_window_frames
    padded, _ = _smooth_rows(posteriors, posteriors[:0], 0, config.smoothing_window_frames,
                             lead=window - 1)
    return _window_scores(padded, window)


def _window_scores(padded, window):
    """Score of the trailing window ending at each row from ``window - 1`` on.

    ``padded`` holds smoothed rows, the first ``window - 1`` of them history
    that only earlier windows end in, and is overwritten with its log. Zero
    rows before the stream start become -inf, which makes every window
    exactly ``window`` long without changing any score: padded frames can
    never be on a maximising path unless the whole window is -inf, where
    the score is 0 either way.
    """
    total, units = padded.shape
    if total < window:
        return np.zeros(0)
    with np.errstate(divide="ignore"):
        np.log(padded, out=padded)
    sliding = np.lib.stride_tricks.sliding_window_view(padded, window, axis=0)
    # sliding: [T, units, window] view
    out = np.empty(total - window + 1)
    chunk = max(1, 4_000_000 // (units * window))
    for start in range(0, len(out), chunk):
        block = sliding[start : start + chunk]
        level = block[:, 0, :]
        run = np.maximum.accumulate(level, axis=1)
        for i in range(1, units):
            run = np.maximum.accumulate(block[:, i, :] + run, axis=1)
        with np.errstate(invalid="ignore"):
            out[start : start + chunk] = np.exp(run[:, -1] / units)
    return np.minimum(np.nan_to_num(out, nan=0.0), 1.0)


class StreamingDecoder:
    """Push posterior frames, get each frame's trailing-window hypothesis.

    Runs the batch kernel over each push, with state carried between
    pushes: the cumulative sums of the last L frames and the smoothed rows
    of the last T_s-1 frames, O(M * (L + T_s)) whatever the push size.
    Scores equal batch_frame_scores bit for bit however the stream is
    split. Per-stream, single-threaded.
    """

    def __init__(self, config, first_frame_index=0):
        self._config = config
        self._first = first_frame_index
        self._seen = 0
        self._sums = np.zeros((0, config.num_units))
        self._history = np.zeros((0, config.num_units))

    @property
    def config(self):
        return self._config

    def push(self, posteriors):
        """Consume one frame's unit posteriors, return (frame_index, hypothesis)."""
        vec = np.asarray(getattr(posteriors, "keyword_posteriors", posteriors))
        return self.push_many(vec[None])[0]

    def push_many(self, rows):
        """Consume [n, M] unit posteriors, return [(frame_index, hypothesis)] per row."""
        cfg = self._config
        lag = cfg.score_window_frames - 1
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != cfg.num_units:
            raise ValueError(
                f"expected [n, {cfg.num_units}] unit posteriors, got shape {rows.shape}"
            )
        padded, self._sums = _smooth_rows(
            rows, self._sums, self._seen, cfg.smoothing_window_frames, lead=lag
        )
        first = len(self._history)
        padded[lag - first : lag] = self._history
        smoothed = padded[lag - first :].copy()  # kept by the hypotheses
        self._history = smoothed[max(0, len(smoothed) - lag) :].copy()
        scores = _window_scores(padded, cfg.score_window_frames)
        base = self._first + self._seen - first  # frame number of smoothed[0]
        self._seen += len(rows)
        return [
            (base + j, KeywordHypothesis(score, None, base + j, smoothed[max(0, j - lag) : j + 1]))
            for j, score in enumerate(scores.tolist(), start=first)
        ]
