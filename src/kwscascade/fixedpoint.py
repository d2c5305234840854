"""Deterministic integer DSP kernels for the fixed-point frontend path.

Every result in this module is an integer, computed exactly with one
documented rounding rule, so two runs on any platform produce identical
bytes. The FFT carries its integers in float64 (complex128), which holds
them exactly under the bound stated in fft_fixed; everything else is
integer arithmetic. The bit widths below are the emulation contract;
changing any of them changes the output stream.
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


def _read_only(array):
    """``array``, marked read-only: a cached table or a model's constants,
    shared by every caller, so no caller can change what the next one reads."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _bit_reverse_indices(n):
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx = idx >> 1
    return _read_only(rev)


@lru_cache(maxsize=None)
def _stages(n):
    """Per FFT stage: its half size m and its m Q15 twiddles, times 2**-15.

    The factor is a power of two, so each twiddle is still exact in
    complex128 and a product with it is the Q15 product shifted right by 15
    without rounding.
    """
    ang = -2.0 * np.pi * np.arange(n // 2) / n
    w = (quantize_fract(np.cos(ang), TWIDDLE_FRACT_BITS)
         + 1j * quantize_fract(np.sin(ang), TWIDDLE_FRACT_BITS)) * 2.0**-TWIDDLE_FRACT_BITS
    stages, m = [], 1
    while m < n:
        stages.append((m, _read_only(w[:: n // (2 * m)].copy())))
        m *= 2
    return tuple(stages)


def fft_fixed(samples):
    """Radix-2 DIT FFT of an integer sequence, scaled by 1/N.

    ``samples`` length must be a power of two and every sample must lie in
    the 32-bit butterfly lane (|x| <= 2**31 - 1), else FixedPointOverflowError.
    Returns ``(re, im)`` int64 arrays holding DFT(samples)/N. Each butterfly
    is the integer one: t = (w * b + 2**14) >> 15 per component with Q15
    twiddles w, then (a + t + 1) >> 1 and (a - t + 1) >> 1; halving every
    stage implements the 1/N scaling and keeps the outputs in the lane
    (asserted).

    The butterflies run on one complex128 array, and that is exact. From
    lane inputs a stage keeps the complex modulus within a rounding step
    (|w| is 1 to within 2**-15), so a, b and t stay integers below 2**32
    and each Q15 sum of products w*b stays below 2**48. Every product, sum
    and power-of-two scaling is then exact in float64, with or without
    fused multiply-add, and each floor or ceil gives the shift's result:
    (v + 1) >> 1 is ceil(v / 2) for an integer v. The stages of half size
    1 and 2 have twiddles exactly 1 and -j, so w * b is already an integer
    and they skip the rounding of t.
    """
    n = len(samples)
    if n & (n - 1) or n == 0:
        raise ValueError(f"FFT size must be a power of two, got {n}")
    x = np.asarray(samples, dtype=np.int64)
    # min/max, not abs: abs(-2**63) wraps to a negative int64
    if x.min() < -_BUTTERFLY_MAX or x.max() > _BUTTERFLY_MAX:
        raise FixedPointOverflowError(f"input sample outside the {BUTTERFLY_BITS}-bit lane")
    z = x[_bit_reverse_indices(n)].astype(np.complex128)
    flat = z.view(np.float64)
    for m, w in _stages(n):
        pairs = z.reshape(-1, 2, m)
        a, b = pairs[:, 0], pairs[:, 1]
        t = w * b
        if m > 2:
            t_flat = t.view(np.float64)
            t_flat += 0.5
            np.floor(t_flat, out=t_flat)
        np.subtract(a, t, out=b)
        a += t
        flat *= 0.5
        np.ceil(flat, out=flat)
    if np.abs(flat).max() > _BUTTERFLY_MAX:
        raise FixedPointOverflowError(f"butterfly value exceeds {BUTTERFLY_BITS}-bit lane")
    return z.real.astype(np.int64), z.imag.astype(np.int64)


def power_spectrum_fixed(samples):
    """One-sided power spectrum re**2 + im**2 of the scaled fixed FFT."""
    re, im = fft_fixed(samples)
    half = len(samples) // 2 + 1
    return re[:half] ** 2 + im[:half] ** 2


_U31, _U32 = np.uint64(31), np.uint64(32)
# weight of the i-th square-and-compare bit in the Q16 fraction
_FRAC_SHIFTS = np.arange(LOG_FRACT_BITS - 1, -1, -1, dtype=np.uint64)


def fixed_ln(values):
    """Natural log of positive integers, returned in Q``LOG_FRACT_BITS``.

    Takes a scalar or an int64 array of any shape, returns int64 of that
    shape, exact for every positive int64. The MSB is the float64 exponent,
    less one where rounding carried a value up to the next power of two
    (one shift test finds those). The fractional log2 bits come from
    square-and-compare on a Q31 mantissa in uint64 (its square fits), run in
    place, then one multiply by ln(2).
    """
    v = np.asarray(values, dtype=np.int64)
    if v.size and v.min() <= 0:
        raise ValueError("fixed_ln requires positive integers")
    msb = np.frexp(v.astype(np.float64))[1].astype(np.int64) - 1
    msb -= (v >> msb) == 0
    x = np.array((v << np.maximum(31 - msb, 0)) >> np.maximum(msb - 31, 0), dtype=np.uint64)
    bits = np.empty((LOG_FRACT_BITS,) + v.shape, dtype=np.uint64)
    for i in range(LOG_FRACT_BITS):
        np.multiply(x, x, out=x)
        x >>= _U31
        bit = bits[i, ...]  # a view; bits[i] of a 0-d input would be a copied scalar
        np.right_shift(x, _U32, out=bit)  # 1 when the square reached 2.0
        x >>= bit
    bits <<= _FRAC_SHIFTS.reshape((-1,) + (1,) * v.ndim)
    log2_q = (msb << LOG_FRACT_BITS) | bits.sum(axis=0, dtype=np.uint64).astype(np.int64)
    return (log2_q * LN2_Q16) >> LOG_FRACT_BITS
