"""Summary statistics and the compare verdicts.

A timing is reported as its median and the highest percentile that has at
least ten samples beyond it. Two result files are compared per workload
and metric by medians and quartiles, judged against the metric's bound.
"""

import math
import statistics
from fractions import Fraction

TAIL_CANDIDATES = ("99.9", "99", "95", "90", "75", "50")
MIN_BEYOND = 10


def highest_supported_percentile(n, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with at least ``min_beyond`` of ``n`` samples
    above it, as a string like ``"99"``; None when even the median has fewer.
    """
    for p in candidates:
        if n * (1 - Fraction(p) / 100) >= min_beyond:
            return p
    return None


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / med


def verdict(old, new, better, bound, pairs=None):
    """better / worse / unchanged / unresolved for two samples of one metric.

    ``old`` and ``new`` are lists of run values; ``better`` is "lower" or
    "higher"; ``bound`` is the share of the old median by which the metric
    may get worse. ``pairs`` lists (old, new) values of runs with the same
    seed, when there are any.

    - Where either side's quartile spread exceeds the bound, the result is
      unresolved, unless every new run beats (or loses to) every old run.
    - Worse: the new median is worse than the old by more than the bound.
    - Better: the new median beats the old by more than the old side's
      quartile distance, and new wins at least nine tenths of the pairs.
    - Otherwise unchanged.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1_old, med_old, q3_old = quartiles(old)
    _, med_new, _ = quartiles(new)
    if med_old == 0:
        change = 0.0 if med_new == 0 else math.inf
    else:
        change = sign * (med_new - med_old) / abs(med_old)  # > 0 is worse
    if max(spread(old), spread(new)) > bound:
        if all(sign * n < sign * o for n in new for o in old):
            return "better", change
        if all(sign * n > sign * o for n in new for o in old):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if pairs:
        wins = sum(1 for o, n in pairs if sign * n < sign * o)
        paired_ok = wins >= 0.9 * len(pairs)
    else:
        paired_ok = all(sign * n < sign * o for n in new for o in old)
    if sign * (med_old - med_new) > (q3_old - q1_old) and paired_ok:
        return "better", change
    return "unchanged", change
