"""Streaming keyword decoder: posterior smoothing and ordered max-product score.

Per frame t, unit posteriors are averaged over the trailing L frames
(shorter at stream start, dividing by the actual count), then the score
over the trailing T_s-frame window is

    h = ( max over t_1 <= t_2 <= ... <= t_M of  prod_i s_{t_i}(unit_i) ) ** (1/M)

computed as a log-space dynamic program with running maxima; log(0) is
the -inf sentinel and the M-th root becomes a divide. Ties are broken
toward the earliest frames: the last firing time is minimised first, then
each earlier one. All frame indices are 0-based.

Every frame's score comes from one block-decomposed kernel (van Herk /
Gil-Werman running maxima lifted to the ordered max-product). The stream
is cut into blocks of T_s frames on the decoder's own frame clock; per
block, prefix chains (units j..M-1 from the block start) and suffix chains
(units 0..k to the block end) are running maxima, and a window ending in
block b is a suffix of block b-1 joined to a prefix of block b, so a score
costs O(M^2) rather than O(M * T_s). The batch scorer runs the kernel over
chunks of whole blocks and the streaming decoder over each push, carrying
the same state, so both give the same bits. keyword_score is the
per-window dynamic program; it agrees with the kernel to rounding (its sums
are taken in another order) and gives the alignments.
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
    carried history rows), and the sums to carry on.
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


# Bounds batch_frame_scores' temporaries: about 3.4 MB for 3 units and a
# 50-frame window. At 65536 rows they came to 13.5 MB, enough that glibc
# could hand them back to the OS after each call and fault them in again.
_CHUNK_ROWS = 16384


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
    # whole blocks per chunk, so no chunk re-scores rows of the one before
    step = max(1, _CHUNK_ROWS // config.score_window_frames) * config.score_window_frames
    dec = StreamingDecoder(config)
    out = np.empty(len(posteriors))
    for start in range(0, len(posteriors), step):
        out[start : start + step] = dec._advance(posteriors[start : start + step])[2]
    return out


def _window_scores(logs, suffix, skip=0):
    """Scores of the trailing windows ending at rows ``skip`` on of ``logs``.

    ``logs`` [T, M] holds log-smoothed rows from a block boundary on, and
    ``suffix`` [M, W] the suffix chains of the block before them (-inf
    before the stream start). Row q of block b scores the window made of
    rows q+1.. of block b-1 and rows ..q of block b, as the best of: a
    chain of units 0..k in the suffix of b-1 followed by units k+1..M-1 in
    the prefix of b, for k = -1..M-1. At q = W-1 the window is block b
    itself and only the prefix term counts. Returns the scores and the
    suffix chains of the last complete block.
    """
    units, window = suffix.shape
    total = len(logs)
    blocks, complete = -(-total // window), total // window
    x = np.full((units, blocks * window), -np.inf)
    x[:, :total] = logs.T
    x = x.reshape(units, blocks, window)
    # pre[j]: best chain of units j..M-1 from the block start to each row,
    # built unit by unit for every j at once
    pre = np.maximum.accumulate(x[:1], axis=2)
    for k in range(1, units):
        pre = np.maximum.accumulate(np.concatenate((pre + x[k], x[k : k + 1])), axis=2)
    # prev[k]: suf[k] of the block before, one row on; -inf where none
    prev = np.full((units, blocks, window), -np.inf)
    prev[:, :1, :-1] = suffix[:, None, 1:]
    if complete:
        # suf[k]: best chain of units 0..k from each row to the block end,
        # on reversed rows, built unit by unit from the last
        rev = x[:, :complete, ::-1]
        suf = np.maximum.accumulate(rev[units - 1 :], axis=2)
        for j in range(units - 2, -1, -1):
            suf = np.maximum.accumulate(np.concatenate((rev[j : j + 1], suf + rev[j])), axis=2)
        suf = suf[:, :, ::-1]
        prev[:, 1:, :-1] = suf[:, : blocks - 1, 1:]
        suffix = suf[:, -1].copy()
    pre = pre.reshape(units, -1)[:, skip:total]
    prev = prev.reshape(units, -1)[:, skip:total]
    best = np.maximum(pre[0], prev[units - 1])
    for k in range(units - 1):
        np.maximum(best, prev[k] + pre[k + 1], out=best)
    with np.errstate(invalid="ignore"):
        scores = np.exp(best / units)
    return np.minimum(np.nan_to_num(scores, nan=0.0), 1.0), suffix


class StreamingDecoder:
    """Push posterior frames, get each frame's trailing-window hypothesis.

    Runs the batch kernel over each push, with state carried between
    pushes: the cumulative sums of the last L frames, the smoothed rows of
    the last T_s-1 frames and the suffix chains of the last complete block
    of T_s frames, O(M * (L + T_s)) whatever the push size. Blocks follow
    the frames pushed, not ``first_frame_index``. Scores equal
    batch_frame_scores bit for bit however the stream is split.
    Per-stream, single-threaded.
    """

    def __init__(self, config, first_frame_index=0):
        self._config = config
        self._first = first_frame_index
        self._seen = 0
        self._sums = np.zeros((0, config.num_units))
        self._history = np.zeros((0, config.num_units))
        self._suffix = np.full((config.num_units, config.score_window_frames), -np.inf)

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
        base = self._first + self._seen - len(self._history)  # frame number of smoothed[0]
        smoothed, first, scores = self._advance(rows)  # the hypotheses keep smoothed's rows
        return [
            (base + j, KeywordHypothesis(score, None, base + j, smoothed[max(0, j - lag) : j + 1]))
            for j, score in enumerate(scores.tolist(), start=first)
        ]

    def _advance(self, rows):
        """Smooth and score [n, M] rows, carrying the state on.

        Returns the carried smoothed rows followed by the new ones, the
        index of the first new row in them, and the new rows' scores.
        """
        cfg = self._config
        if not np.isfinite(rows).all():
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
            raise ValueError(f"frame {self._first + self._seen + bad} has a non-finite posterior")
        window = cfg.score_window_frames
        first = len(self._history)
        smoothed, self._sums = _smooth_rows(
            rows, self._sums, self._seen, cfg.smoothing_window_frames, lead=first
        )
        smoothed[:first] = self._history
        self._history = smoothed[max(0, len(smoothed) - window + 1) :].copy()
        phase = self._seen % window  # rows of the current block pushed before
        with np.errstate(divide="ignore"):
            logs = np.log(smoothed[first - phase :])
        scores, self._suffix = _window_scores(logs, self._suffix, phase)
        self._seen += len(rows)
        return smoothed, first, scores
