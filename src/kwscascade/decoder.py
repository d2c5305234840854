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

The kernel holds the stream unit-major, [M, T], from the one copy that
takes a push's [n, M] rows to the scores: the carried rows, the smoothed
rows and their logs, whose whole blocks reshape to [M, blocks, T_s] with
no copy. Each unit's running maxima then run along one contiguous row.
They use np.fmax, whose accumulate runs about a fifth faster and gives the
same bits as np.maximum here: the two differ only when a NaN meets a
number, and no NaN reaches the kernel (posteriors are checked to lie in
[0, 1], see _window_scores). A streaming hypothesis keeps a transposed
view of the smoothed rows, [rows, M].

A push of [n, M] rows returns Hits: the kernel's float64 score row,
``scores``, and the push's smoothed rows, with one (frame_index,
KeywordHypothesis) pair built only when it is indexed.
"""

from dataclasses import dataclass

import numpy as np

from .frontend import ConfigError, _PushRows, check_bounds, setting


class InsufficientFramesError(ValueError):
    """Score window holds fewer frames than keyword units."""


@dataclass(frozen=True)
class DecoderConfig:
    num_units: int = setting(key=False, ge=1)
    smoothing_window_frames: int = setting(30, ge=1)
    score_window_frames: int = setting(100)
    # Thresholds above 1 are legal: they make the detector mute.
    threshold: float = setting(0.5, ge=0.0)

    def __post_init__(self):
        check_bounds(self)
        if not self.score_window_frames >= self.num_units:
            raise ConfigError(f"score_window_frames {self.score_window_frames} must hold at "
                              f"least num_units {self.num_units} frames")


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


class Hits(_PushRows):
    """The (frame_index, KeywordHypothesis) pairs of one push, frames ``first_frame``
    on: ``scores`` [n] is the kernel's float64 score row, and pair i's hypothesis
    keeps the smoothed rows of its score window, columns ..column+i of the push's
    unit-major [M, columns] ``smoothed``, at most ``window`` of them."""

    def __init__(self, first_frame, scores, smoothed, column, window):
        super().__init__(first_frame, len(scores))
        self.scores = scores
        self._frames = smoothed.T
        self._column = column
        self._window = window

    def _item(self, i):
        frame, end = self.first_frame + i, self._column + i + 1
        window = self._frames[max(0, end - self._window) : end]
        return frame, KeywordHypothesis(float(self.scores[i]), None, frame, window)


def _check_unit_range(posteriors, first_frame=0):
    """ValueError naming the first row of unit-major [M, n] ``posteriors``,
    counted from ``first_frame``, with a value outside [0, 1]."""
    if not posteriors.size or (posteriors.min() >= 0.0 and posteriors.max() <= 1.0):
        return  # min and max are NaN if any value is, and a NaN fails both
    ok = (posteriors >= 0.0) & (posteriors <= 1.0)
    bad = np.flatnonzero(~ok.all(axis=0))[0]
    raise ValueError(f"frame {first_frame + bad} has a posterior outside [0, 1]")


def _smooth_rows(pad, seen, window, lead=0):
    """Trailing means of the rows of a stream after its first ``seen`` frames.

    ``pad`` [M, window-1+n] holds the stream's last window-1 rows (zeros
    before its start) followed by the n new rows. Each mean is the sum of
    its own window rows, added in row order, over the count present, so it
    depends on those rows alone and any split of a stream gives the same
    bits. Returns the n smoothed rows, [M, lead+n], behind ``lead`` columns
    of room for carried history, and the tail to carry on.
    """
    units, width = pad.shape
    total = width - (window - 1)
    # window sums along the flattened rows: each add takes one 1-D slice,
    # which costs less per call than an [M, n] view; sums that straddle two
    # units go unused
    flat = pad.ravel()
    sums = np.empty(pad.size)
    run = sums[: flat.size - (window - 1)]
    run[:] = flat[: len(run)]
    for k in range(1, window):
        run += flat[k : k + len(run)]
    sums = sums.reshape(units, width)[:, :total]
    out = np.empty((units, lead + total))
    np.divide(sums, float(window), out[:, lead:])
    # only the stream's first window-1 frames have fewer rows than the window
    warm = min(total, max(0, window - 1 - seen))
    if warm:
        counts = np.arange(seen + 1, seen + warm + 1, dtype=np.float64)
        np.divide(sums[:, :warm], counts, out[:, lead : lead + warm])
    return out, pad[:, total:].copy()


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
    _check_unit_range(smoothed.T)
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
    return KeywordHypothesis(score, tuple(alignment), total - 1)


# Bounds batch_frame_scores' temporaries: a tracemalloc peak of 3.0 MB for
# 3 units and a 50-frame window, besides the 8-byte score per frame. At
# 65536 rows they came to 13.5 MB, enough that glibc could hand them back to
# the OS after each call and fault them in again.
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
    """Scores of the trailing windows ending at columns ``skip`` on of ``logs``.

    ``logs`` [M, T] holds log-smoothed rows from a block boundary on, and
    ``suffix`` [M, W] the suffix chains of the block before them (-inf
    before the stream start). Row q of block b scores the window made of
    rows q+1.. of block b-1 and rows ..q of block b, as the best of: a
    chain of units 0..k in the suffix of b-1 followed by units k+1..M-1 in
    the prefix of b, for k = -1..M-1. At q = W-1 the window is block b
    itself and only the prefix term counts. Returns the scores, the suffix
    chains of the last complete block and the prefix chains at the last row
    (see StreamingDecoder._step).
    """
    units, window = suffix.shape
    total = logs.shape[1]
    blocks, complete = max(1, -(-total // window)), total // window
    if total < blocks * window:  # a part block: -inf rows after the last
        logs = np.concatenate((logs, np.full((units, blocks * window - total), -np.inf)), axis=1)
    x = logs.reshape(units, blocks, window)
    # pre[j]: best chain of units j..k from the block start to each row, built
    # unit by unit for every j at once; chains[k] keeps it at the last row
    last = (total - 1) % window
    pre = np.fmax.accumulate(x[:1], axis=2)
    chains = [pre[:, -1, last].tolist()]
    for k in range(1, units):
        pre = np.fmax.accumulate(np.concatenate((pre + x[k], x[k : k + 1])), axis=2)
        chains.append(pre[:, -1, last].tolist())
    # prev[k]: suf[k] of the block before, one row on; -inf where none
    prev = np.full((units, blocks, window), -np.inf)
    prev[:, :1, :-1] = suffix[:, None, 1:]
    if complete:
        # suf[k]: best chain of units 0..k from each row to the block end,
        # on reversed rows, built unit by unit from the last
        rev = x[:, :complete, ::-1]
        suf = np.fmax.accumulate(rev[units - 1 :], axis=2)
        for j in range(units - 2, -1, -1):
            suf = np.fmax.accumulate(np.concatenate((rev[j : j + 1], suf + rev[j])), axis=2)
        suf = suf[:, :, ::-1]
        prev[:, 1:, :-1] = suf[:, : blocks - 1, 1:]
        suffix = suf[:, -1].copy()
    pre = pre.reshape(units, -1)[:, skip:total]
    prev = prev.reshape(units, -1)[:, skip:total]
    best = np.maximum(pre[0], prev[units - 1])
    for k in range(units - 1):
        np.maximum(best, prev[k] + pre[k + 1], out=best)
    # Posteriors are checked to lie in [0, 1] on entry, and rounding is
    # monotone, so a sum of c of them is at most c and each mean lies in
    # [0, 1] with no clip. So every log is in [-inf, 0]; sums of such values
    # are never NaN (no +inf meets a -inf), so np.fmax gives np.maximum's
    # bits, and exp(best / M) is in [0, 1].
    return np.exp(best / units), suffix, chains


class StreamingDecoder:
    """Push posterior frames, get each frame's trailing-window hypothesis.

    Runs the batch kernel over each push, with state carried between
    pushes: the last L-1 posterior rows, the smoothed rows of the last
    T_s-1 frames, the suffix chains of the last complete block of T_s
    frames and the prefix chains of the current block at its last row,
    O(M * (L + T_s) + M^2) whatever the push size. A one-row push that does
    not complete a block takes a row step on that state instead. Blocks
    follow the frames pushed, not ``first_frame_index``. Scores equal
    batch_frame_scores bit for bit however the stream is split.
    Per-stream, single-threaded.
    """

    def __init__(self, config, first_frame_index=0):
        self._config = config
        self._first = first_frame_index
        self._seen = 0
        self._tail = np.zeros((config.num_units, config.smoothing_window_frames - 1))
        self._history = np.zeros((config.num_units, 0))
        self._suffix = np.full((config.num_units, config.score_window_frames), -np.inf)
        self._chains = None  # set by each push, read by the next row step

    @property
    def config(self):
        return self._config

    def push(self, posteriors):
        """Consume one row of unit posteriors, an [M] vector or a PosteriorFrame, and
        return (frame_index, hypothesis); or [n, M] rows, and return their Hits."""
        cfg = self._config
        rows = np.asarray(getattr(posteriors, "keyword_posteriors", posteriors), dtype=np.float64)
        if rows.ndim not in (1, 2) or rows.shape[-1] != cfg.num_units:
            raise ValueError(
                f"expected [n, {cfg.num_units}] unit posteriors, got shape {rows.shape}"
            )
        stack = rows.reshape(-1, cfg.num_units)
        frame = self._first + self._seen
        # a row that completes a block goes through the kernel, which builds
        # the block's suffix chains
        if len(stack) == 1 and (self._seen + 1) % cfg.score_window_frames:
            smoothed, first, scores = self._step(stack)
        else:
            smoothed, first, scores = self._advance(stack)
        hits = Hits(frame, scores, smoothed, first, cfg.score_window_frames)
        return hits[0] if rows.ndim == 1 else hits

    def _no_hits(self):
        """The Hits of an empty push, without one."""
        history = self._history
        return Hits(self._first + self._seen, np.empty(0), history, history.shape[1],
                    self._config.score_window_frames)

    def _step(self, rows):
        """Smooth and score one row [1, M] that does not complete a block.

        O(M^2) scalar work on the carried state, plus one L-row sum. The
        prefix chain chains[k][j], the best chain of units j..k from the
        block start, becomes max(itself, chains[k-1][j] + log x_k), or
        max(itself, log x_k) at j = k, and the score joins the chains to the
        suffix chains as _window_scores does. Each mean, sum, max, division
        and exp is one the kernel takes, in its order, so the bits are the
        kernel's. Returns what _advance returns.
        """
        cfg = self._config
        _check_unit_range(rows.T, self._first + self._seen)
        pad = np.concatenate((self._tail, rows.T), axis=1)
        units, window = cfg.num_units, cfg.score_window_frames
        phase = self._seen % window
        count = min(self._seen + 1, cfg.smoothing_window_frames)
        mean = np.add.accumulate(pad, axis=1)[:, -1] / count  # row order, as _smooth_rows adds
        smoothed = np.concatenate((self._history, mean[:, None]), axis=1)
        with np.errstate(divide="ignore"):
            logs = np.log(mean).tolist()
        chains = self._chains if phase else [[-np.inf] * (k + 1) for k in range(units)]
        below = None
        for k, col in enumerate(chains):
            x = logs[k]
            for j in range(k):
                col[j] = max(col[j], below[j] + x)
            col[k] = max(col[k], x)
            below = col
        prev = self._suffix[:, phase + 1].tolist()
        best = max(below[0], prev[-1])
        for k in range(units - 1):
            best = max(best, prev[k] + below[k + 1])
        self._tail = pad[:, 1:]
        self._history = smoothed[:, 1:] if smoothed.shape[1] == window else smoothed
        self._chains = chains
        self._seen += 1
        return smoothed, smoothed.shape[1] - 1, np.exp([best / units])

    def _advance(self, rows):
        """Smooth and score [n, M] rows, carrying the state on.

        Returns the carried smoothed rows followed by the new ones, as
        [M, columns], the column of the first new row, and the new rows'
        scores.
        """
        cfg = self._config
        # one copy takes the rows unit-major; the kernel reads them from it
        pad = np.concatenate((self._tail, rows.T), axis=1)
        _check_unit_range(pad[:, self._tail.shape[1] :], self._first + self._seen)
        window = cfg.score_window_frames
        first = self._history.shape[1]
        smoothed, self._tail = _smooth_rows(pad, self._seen, cfg.smoothing_window_frames, first)
        smoothed[:, :first] = self._history
        self._history = smoothed[:, max(0, smoothed.shape[1] - window + 1) :].copy()
        phase = self._seen % window  # rows of the current block pushed before
        with np.errstate(divide="ignore"):
            logs = np.log(smoothed[:, first - phase :])
        scores, self._suffix, self._chains = _window_scores(logs, self._suffix, phase)
        self._seen += len(rows)
        return smoothed, first, scores
