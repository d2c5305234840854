"""Deterministic integer DSP kernels for the fixed-point frontend path.

Every result in this module is an integer, computed exactly with one
documented rounding rule, so two runs on any platform produce identical
bytes. The FFT carries its integers in float64 (complex128), which holds
them exactly under the bound stated in fft_fixed; everything else is
integer arithmetic. The FFT's stages run in constant geometry (see
fft_fixed): the in-place butterflies' pairs, twiddles and single rounding
in another memory order, so the bits are the same. The bit widths below
are the emulation contract; changing any of them changes the output
stream. The kernels take integers only: a float that is not a whole
number raises ValueError rather than being truncated.
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
    """The FFT's two read-only tables: a [stages, n/2] array whose row for
    the stage of half size m holds its m Q15 twiddles times 2**-15, each
    repeated n/(2m) times, and the n offsets every stage's single rounding
    adds.

    The factor is a power of two, so each twiddle is still exact in
    complex128 and a product with it is the Q15 product shifted right by 15
    without rounding. The offset is 3/2 on the first half, where the
    butterflies' sums go, and 3/2 - 2**-15 on the second half, where their
    differences go, in both components.
    """
    half = n // 2
    ang = -2.0 * np.pi * np.arange(half) / n
    w = (quantize_fract(np.cos(ang), TWIDDLE_FRACT_BITS)
         + 1j * quantize_fract(np.sin(ang), TWIDDLE_FRACT_BITS)) * 2.0**-TWIDDLE_FRACT_BITS
    twiddles = np.empty((n.bit_length() - 1, half), dtype=np.complex128)
    for stage, row in enumerate(twiddles):
        repeat = half >> stage
        row[:] = np.repeat(w[::repeat], repeat)
    offset = np.empty(n, dtype=np.complex128)
    offset[:half] = 1.5 * (1 + 1j)
    offset[half:] = (1.5 - 2.0**-TWIDDLE_FRACT_BITS) * (1 + 1j)
    return _read_only(twiddles), _read_only(offset)


def _integers(values, name):
    """``values`` as an int64 array. An integer dtype is taken as it is, with
    no scan; any other input must hold whole finite numbers within int64,
    else ValueError, so a float is never truncated into a wrong answer."""
    v = np.asarray(values)
    if v.dtype.kind in "iu":
        return v.astype(np.int64, copy=False)
    if v.dtype.kind != "f" or not np.all((v == np.floor(v)) & (v >= -(2.0**63)) & (v < 2.0**63)):
        raise ValueError(f"{name} requires integer values, got {v.dtype} input")
    return v.astype(np.int64)


def fft_fixed(samples):
    """Radix-2 DIT FFT of a 1-D integer sequence, scaled by 1/N.

    ``samples`` must be 1-D and hold integers (ValueError otherwise), its
    length must be a power of two, and every sample must lie in the 32-bit
    butterfly lane (|x| <= 2**31 - 1), else FixedPointOverflowError.
    Returns ``(re, im)`` int64 arrays holding DFT(samples)/N. Each butterfly
    is the integer one: t = (w * b + 2**14) >> 15 per component with Q15
    twiddles w, then (a + t + 1) >> 1 and (a - t + 1) >> 1; halving every
    stage implements the 1/N scaling and keeps the outputs in the lane
    (asserted).

    The stages run in constant geometry (Pease, J. ACM 15(2), 1968). The
    input is bit-reversed once. Every stage then reads its butterflies'
    inputs as the even values a = y[0::2] and the odd values b = y[1::2] of
    one buffer, and writes the sums to the first half of a second buffer
    and the differences to its second half; the two buffers swap each stage
    and the last one holds the result in natural order. These are the
    in-place radix-2 butterflies, the same pairs with the same twiddles and
    the same rounding, stored in another order: the pair that the in-place
    stage of half size m keeps at g*2m + j and g*2m + m + j sits at 2q and
    2q + 1 here, with q = j*n/(2m) + g. So stage m's twiddle row repeats
    each of its m twiddles n/(2m) times. That repetition is a host-side
    layout for one contiguous multiply per stage; the emulated DSP's table
    is still the n/2 Q15 twiddles.

    Each stage rounds once. With s = w * b, which lies on the 2**-15 grid,
    t = floor(s + 1/2), (v + 1) >> 1 = floor((v + 1) / 2), and
    floor((floor(y) + 1) / 2) = floor((y + 1) / 2) for any real y. So the
    sum is floor((a + s + 3/2) / 2). The difference is
    floor((a - s + 3/2 - 2**-15) / 2), because a - t = ceil(a - s - 1/2)
    and ceil(y) = floor(y + 1 - 2**-15) for y on that grid. A stage is then
    the products' sum and difference, one add of the offsets from
    ``_stages``, one halving and one floor, for every twiddle, 1 and -j
    included.

    The butterflies run on complex128 arrays, and that is exact. From
    lane inputs a stage keeps the complex modulus within a rounding step
    (|w| is 1 to within 2**-15), so a and b stay integers below 2**32, each
    Q15 sum of products w*b stays below 2**48, and a +- s plus an offset
    stays below 2**34 on the 2**-15 grid. Every product, sum and
    power-of-two scaling is then exact in float64, with or without fused
    multiply-add.
    """
    x = _integers(samples, "fft_fixed")
    if x.ndim != 1:
        raise ValueError(f"fft_fixed takes one 1-D frame, got shape {x.shape}")
    n = len(x)
    if n & (n - 1) or n == 0:
        raise ValueError(f"FFT size must be a power of two, got {n}")
    # min/max, not abs: abs(-2**63) wraps to a negative int64
    if x.min() < -_BUTTERFLY_MAX or x.max() > _BUTTERFLY_MAX:
        raise FixedPointOverflowError(f"input sample outside the {BUTTERFLY_BITS}-bit lane")
    twiddles, offset = _stages(n)
    offset = offset.view(np.float64)
    half = n // 2
    y = x[_bit_reverse_indices(n)].astype(np.complex128)
    # each buffer's even values, odd values, two halves and float64 view,
    # sliced once per call rather than once per stage
    src, dst = ((buf[0::2], buf[1::2], buf[:half], buf[half:], buf.view(np.float64))
                for buf in (y, np.empty_like(y)))
    for w in twiddles:
        a, b = src[:2]
        first, second, flat = dst[2:]
        # the products w * b wait in the second half, which they leave last
        np.multiply(w, b, out=second)
        np.add(a, second, out=first)
        np.subtract(a, second, out=second)
        flat += offset
        flat *= 0.5
        np.floor(flat, out=flat)
        src, dst = dst, src
    flat = src[-1]
    if np.abs(flat).max() > _BUTTERFLY_MAX:
        raise FixedPointOverflowError(f"butterfly value exceeds {BUTTERFLY_BITS}-bit lane")
    return flat[0::2].astype(np.int64), flat[1::2].astype(np.int64)


def power_spectrum_fixed(samples):
    """One-sided power spectrum re**2 + im**2 of the scaled fixed FFT."""
    re, im = fft_fixed(samples)
    half = len(samples) // 2 + 1
    return re[:half] ** 2 + im[:half] ** 2


_U31, _U32 = np.uint64(31), np.uint64(32)
# weight of the i-th square-and-compare bit in the Q16 fraction
_FRAC_SHIFTS = np.arange(LOG_FRACT_BITS - 1, -1, -1, dtype=np.uint64)
# fixed_ln's fallback band around each Q16 step, in Q16 units
_BAND_BELOW = 1e-6
_BAND_ABOVE = 1e-4


def _log2_fraction_exact(x):
    """The Q16 fraction of log2(x / 2**31) for a 1-D int64 array of Q31
    mantissas (2**31 <= x < 2**32): square-and-compare in uint64 (the
    square fits), run in place. This recurrence defines ``fixed_ln``.
    """
    x = x.astype(np.uint64)
    bits = np.empty((LOG_FRACT_BITS, len(x)), dtype=np.uint64)
    for i in range(LOG_FRACT_BITS):
        np.multiply(x, x, out=x)
        x >>= _U31
        bit = bits[i]
        np.right_shift(x, _U32, out=bit)  # 1 when the square reached 2.0
        x >>= bit
    bits <<= _FRAC_SHIFTS[:, None]
    return bits.sum(axis=0, dtype=np.uint64).astype(np.int64)


def fixed_ln(values):
    """Natural log of positive integers, returned in Q``LOG_FRACT_BITS``.

    Takes a scalar or an integer array of any shape (ValueError for a
    value that is not a whole number), returns int64 of that shape, exact
    for every positive int64. The MSB is the float64 exponent,
    less one where rounding carried a value up to the next power of two
    (one shift test finds those). The Q16 fraction of log2 is
    ``_log2_fraction_exact``'s on the truncated Q31 mantissa x, then one
    multiply by ln(2) gives the result.

    Most values take that fraction from one float64 log2 instead, and get
    the same bits. Let f = 2**16 * (log2(x) - 31). The recurrence returns
    floor(f - d) with 0 <= d < 65535 * 2 * 2**-31 / ln 2, about 8.8e-5:
    each of its 16 steps truncates at most twice, each time by less than
    2**-31 relative, and step i's loss weighs 2**(16 - i) in f. x < 2**32
    is exact in float64, and np.log2 puts f within about 1e-9 of its true
    value. So where the float f lies at least 1e-4 above a Q16 step and at
    least 1e-6 below the next, its floor is the recurrence's result; only
    values in that band around a step, about 1e-4 of them on noise, run
    the recurrence. x == 2**31 (every power of two, so every floored energy
    of a silent frame) is the one mantissa whose f is exactly a step. The
    recurrence gives it exactly (d = 0), and so does the floor of f + 1e-6,
    so it never runs the recurrence.
    """
    v = _integers(values, "fixed_ln")
    if v.size and v.min() <= 0:
        raise ValueError("fixed_ln requires positive integers")
    shape, v = v.shape, v.ravel()
    msb = np.frexp(v.astype(np.float64))[1].astype(np.int64) - 1
    msb -= (v >> msb) == 0
    x = (v << np.maximum(31 - msb, 0)) >> np.maximum(msb - 31, 0)
    f = np.log2(x)
    f -= 31
    f *= 1 << LOG_FRACT_BITS
    f += _BAND_BELOW
    frac = np.floor(f)
    f -= frac  # frac(f + 1e-6)
    frac = frac.astype(np.int64)
    near = (f < _BAND_BELOW + _BAND_ABOVE) & (x != 1 << 31)
    if near.any():
        frac[near] = _log2_fraction_exact(x[near])
    log2_q = (msb << LOG_FRACT_BITS) | frac
    return ((log2_q * LN2_Q16) >> LOG_FRACT_BITS).reshape(shape)[()]
