"""Row-major reference for the decoder kernel's bits.

A frozen copy of the block kernel as it ran on [T, M] rows: the smoother
divides every row by a [T, 1] count vector, the log rows are copied into a
transposed, -inf padded block array, and running maxima use
``np.maximum``. The library now keeps the stream unit-major ([M, T]); its
scores must equal these bytes, for the batch scorer and for any split of a
stream into pushes.
"""

import numpy as np


def smooth_rows(rows, tail, seen, window, lead=0):
    """Trailing means of [n, M] ``rows`` after ``seen`` frames; see decoder._smooth_rows."""
    total = len(rows)
    pad = np.concatenate((tail, rows))
    out = np.empty((lead + total, pad.shape[1]))
    acc = out[lead:]
    acc[:] = pad[:total]
    for k in range(1, window):
        acc += pad[k : k + total]
    acc /= np.minimum(np.arange(seen + 1, seen + total + 1, dtype=np.float64), window)[:, None]
    return out, pad[total:].copy()


def window_scores(logs, suffix, skip=0):
    """Scores of the windows ending at rows ``skip`` on of [T, M] ``logs``; see
    decoder._window_scores."""
    units, window = suffix.shape
    total = len(logs)
    blocks, complete = max(1, -(-total // window)), total // window
    x = np.full((units, blocks * window), -np.inf)
    x[:, :total] = logs.T
    x = x.reshape(units, blocks, window)
    last = (total - 1) % window
    pre = np.maximum.accumulate(x[:1], axis=2)
    chains = [pre[:, -1, last].tolist()]
    for k in range(1, units):
        pre = np.maximum.accumulate(np.concatenate((pre + x[k], x[k : k + 1])), axis=2)
        chains.append(pre[:, -1, last].tolist())
    prev = np.full((units, blocks, window), -np.inf)
    prev[:, :1, :-1] = suffix[:, None, 1:]
    if complete:
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
    return np.exp(best / units), suffix, chains


class RowMajorDecoder:
    """The carried state of the row-major kernel, [L-1, M] and [T_s-1, M] rows."""

    def __init__(self, config):
        self._config = config
        self._seen = 0
        self._tail = np.zeros((config.smoothing_window_frames - 1, config.num_units))
        self._history = np.zeros((0, config.num_units))
        self._suffix = np.full((config.num_units, config.score_window_frames), -np.inf)

    def advance(self, rows):
        """Scores of [n, M] posterior ``rows``, carrying the state on."""
        cfg = self._config
        window = cfg.score_window_frames
        first = len(self._history)
        smoothed, self._tail = smooth_rows(
            rows, self._tail, self._seen, cfg.smoothing_window_frames, lead=first
        )
        smoothed[:first] = self._history
        self._history = smoothed[max(0, len(smoothed) - window + 1) :].copy()
        phase = self._seen % window
        with np.errstate(divide="ignore"):
            logs = np.log(smoothed[first - phase :])
        scores, self._suffix, _ = window_scores(logs, self._suffix, phase)
        self._seen += len(rows)
        return scores


def reference_scores(posteriors, config):
    """Every frame's score of a [T, M] stream, from one row-major kernel call."""
    return RowMajorDecoder(config).advance(np.asarray(posteriors, dtype=np.float64))
