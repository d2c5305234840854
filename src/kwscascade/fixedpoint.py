"""Deterministic integer DSP kernels for the fixed-point frontend path.

Everything in this module is exact integer arithmetic with one documented
rounding rule, so two runs on any platform produce identical bytes. The
bit widths below are the emulation contract; changing any of them changes
the output stream.
"""

from functools import lru_cache

import numpy as np

SAMPLE_BITS = 16
# Hann window coefficients, Q15 (unity == 1 << 15, stored widened to 32 bits).
WINDOW_FRACT_BITS = 15
# FFT twiddle factors, Q15, same widened-unity convention.
TWIDDLE_FRACT_BITS = 15
# Mel filter weights, Q15.
MEL_FRACT_BITS = 15
# Log-energy outputs, Q16.
LOG_FRACT_BITS = 16
# FFT butterfly values must stay within a signed 32-bit lane.
BUTTERFLY_BITS = 32
# Power spectra and filterbank sums use a 64-bit accumulator (extended
# MAC register); per-stage FFT scaling keeps butterflies inside 32 bits.
ACCUM_BITS = 64

LN2_Q16 = 45426  # round(ln(2) * 2**16)

_BUTTERFLY_MAX = (1 << (BUTTERFLY_BITS - 1)) - 1


class FixedPointOverflowError(ArithmeticError):
    """An intermediate value left its documented bit width."""


def rshift_round(x, n):
    """Arithmetic shift right by ``n`` with round-half-up.

    This is the single rounding rule used throughout the fixed-point path.
    Negative ``n`` shifts left. Works on Python ints and integer ndarrays.
    """
    if n <= 0:
        return x << (-n)
    return (x + (1 << (n - 1))) >> n


def quantize_fract(values, fract_bits):
    """Map floats in [-1, 1] onto Q``fract_bits`` integers (int64).

    +1.0 maps to ``1 << fract_bits`` exactly, which is why tables are kept
    in 32-bit storage rather than int16.
    """
    return np.round(np.asarray(values, dtype=np.float64) * (1 << fract_bits)).astype(np.int64)


@lru_cache(maxsize=None)
def _bit_reverse_indices(n):
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx = idx >> 1
    return rev


@lru_cache(maxsize=None)
def _twiddles(n):
    k = np.arange(n // 2)
    ang = -2.0 * np.pi * k / n
    return quantize_fract(np.cos(ang), TWIDDLE_FRACT_BITS), quantize_fract(np.sin(ang), TWIDDLE_FRACT_BITS)


def fft_fixed(samples):
    """Radix-2 DIT FFT of an integer sequence, scaled by 1/N.

    ``samples`` length must be a power of two. Returns ``(re, im)`` int64
    arrays holding DFT(samples)/N: each stage halves the butterfly outputs,
    which both implements the 1/N scaling and keeps every value inside the
    32-bit butterfly lane (asserted).
    """
    n = len(samples)
    if n & (n - 1) or n == 0:
        raise ValueError(f"FFT size must be a power of two, got {n}")
    wre_full, wim_full = _twiddles(n)
    re = np.asarray(samples, dtype=np.int64)[_bit_reverse_indices(n)]
    im = np.zeros(n, dtype=np.int64)
    m = 1
    while m < n:
        stride = n // (2 * m)
        wre = wre_full[::stride][:m]
        wim = wim_full[::stride][:m]
        re2 = re.reshape(-1, 2, m)
        im2 = im.reshape(-1, 2, m)
        a_re, b_re = re2[:, 0, :], re2[:, 1, :]
        a_im, b_im = im2[:, 0, :], im2[:, 1, :]
        t_re = rshift_round(wre * b_re - wim * b_im, TWIDDLE_FRACT_BITS)
        t_im = rshift_round(wre * b_im + wim * b_re, TWIDDLE_FRACT_BITS)
        sum_re = rshift_round(a_re + t_re, 1)
        sum_im = rshift_round(a_im + t_im, 1)
        dif_re = rshift_round(a_re - t_re, 1)
        dif_im = rshift_round(a_im - t_im, 1)
        re2[:, 0, :], re2[:, 1, :] = sum_re, dif_re
        im2[:, 0, :], im2[:, 1, :] = sum_im, dif_im
        m *= 2
    peak = max(np.abs(re).max(), np.abs(im).max()) if n else 0
    if peak > _BUTTERFLY_MAX:
        raise FixedPointOverflowError(f"butterfly value {peak} exceeds {BUTTERFLY_BITS}-bit lane")
    return re, im


def power_spectrum_fixed(samples):
    """One-sided power spectrum re**2 + im**2 of the scaled fixed FFT."""
    re, im = fft_fixed(samples)
    half = len(samples) // 2 + 1
    return re[:half] ** 2 + im[:half] ** 2


def fixed_ln(values):
    """Natural log of positive integers, returned in Q``LOG_FRACT_BITS``.

    Takes a scalar or an int64 array of any shape, returns int64 of that
    shape, exact for every positive int64. Integer-only: the MSB by binary
    search on shifts, the fractional log2 bits by square-and-compare on a
    Q31 mantissa in uint64 (its square fits), then one multiply by ln(2).
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() <= 0:
        raise ValueError("fixed_ln requires positive integers")
    msb, rest = 0, v
    for shift in (32, 16, 8, 4, 2, 1):
        step = (rest >> shift > 0) * shift
        msb, rest = msb + step, rest >> step
    x = ((v << np.maximum(31 - msb, 0)) >> np.maximum(msb - 31, 0)).astype(np.uint64)
    frac = np.uint64(0)
    for _ in range(LOG_FRACT_BITS):
        x = x * x >> np.uint64(31)
        bit = x >> np.uint64(32)  # 1 when the square reached 2.0
        x, frac = x >> bit, frac << np.uint64(1) | bit
    log2_q = (msb << LOG_FRACT_BITS) | frac.astype(np.int64)
    return (log2_q * LN2_Q16) >> LOG_FRACT_BITS
