"""Uniform 8-bit affine quantization and quantized linear algebra.

Values are mapped onto uint8 by min/max range: q = round((v - min)/scale)
with scale = (max - min)/255. Rounding is half-away-from-zero everywhere,
stated once here because platforms disagree and bit-exactness needs a
single rule. (quantize rounds half up, which gives the same bytes: the two
rules differ only below zero, where it clips to 0.)

Both accumulator modes take one float64 product of the offset uint8 operands,
which is exact: EncoderLayer refuses a layer whose worst case leaves int32,
so every partial sum is an integer below 2**31, the same in any order.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .fixedpoint import rshift_round

LEVELS = 255
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_INT32_MAX = np.iinfo(np.int32).max


class DegenerateRangeError(ValueError):
    """Quantization range is not finite or has zero width (all input values
    equal or empty)."""


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class AccumulatorOverflowError(ArithmeticError):
    """A fixed-point accumulation left the 32-bit lane."""


def round_half_away(x):
    """Round half away from zero (2.5 -> 3, -2.5 -> -3)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class QuantParams:
    """Affine range of one tensor: min/max with derived scale and zero point,
    each worked out once."""

    min_val: float
    max_val: float

    def __post_init__(self):
        # a model file stores both bounds as float32, so both rules hold there
        if not (abs(self.min_val) <= _FLOAT32_MAX and abs(self.max_val) <= _FLOAT32_MAX):
            raise DegenerateRangeError(f"non-finite range [{self.min_val}, {self.max_val}]")
        if not np.float32(self.min_val) < np.float32(self.max_val):
            raise DegenerateRangeError(
                f"range [{self.min_val}, {self.max_val}] has no width"
            )

    @cached_property
    def scale(self):
        return (self.max_val - self.min_val) / LEVELS

    @cached_property
    def zero_point(self):
        zp = round_half_away(-self.min_val / self.scale)
        return int(np.clip(zp, 0, LEVELS))


@dataclass
class QuantizedTensor:
    data: np.ndarray  # uint8, already shaped
    params: QuantParams

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)

    @property
    def shape(self):
        return self.data.shape


def compute_quant_params(values):
    """Range parameters straddling min(values)..max(values)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DegenerateRangeError("cannot quantize an empty tensor")
    return QuantParams(float(values.min()), float(values.max()))


def quantize(values, params):
    # two ufuncs clip for a fraction of np.clip's cost
    q = np.floor((np.asarray(values, dtype=np.float64) - params.min_val) / params.scale + 0.5)
    return QuantizedTensor(np.minimum(np.maximum(q, 0), LEVELS).astype(np.uint8), params)


def dequantize(tensor):
    return tensor.params.min_val + tensor.data.astype(np.float64) * tensor.params.scale


def quantize_bias(bias, combined_scale):
    """Bias as int32 fixed point in the accumulator scale (scale_w * scale_in)."""
    with np.errstate(over="ignore"):  # an infinite quotient fails the check below
        q = round_half_away(np.asarray(bias, dtype=np.float64) / combined_scale)
    if not np.all(np.abs(q) <= _INT32_MAX):  # so does NaN
        raise AccumulatorOverflowError("bias does not fit int32")
    return q.astype(np.int32)


class AccumMode(Enum):
    FIXED = "fixed"  # int32 accumulator, Q31 requantize between layers: DSP emulation
    FLOAT = "float"  # the same accumulator rescaled to float: AP/CPU path


def _offset(tensor):
    return tensor.data.astype(np.float64) - tensor.params.zero_point


def offset_weights(weights):
    """The [in, out] matrix both accumulators multiply: ``weights`` [out, in]
    less their zero point, in float64, C-contiguous."""
    return np.ascontiguousarray(_offset(weights).T)


def fixed_accumulate(matrix, inputs, bias_q):
    """The 32-bit accumulator a DSP holds before the single rescale, as int64:
    sum (x - z_x)(w - z_w) + b. ``matrix`` is ``offset_weights(weights)``
    [in, out]; ``inputs`` is one [in] vector or a stack [N, in], shapes
    already checked. The product is exact, so row k of a stack equals a
    one-row call bit for bit."""
    return _matmul_row_blocks(_offset(inputs), matrix).astype(np.int64) + bias_q


def float_accumulate(matrix, inputs, bias_q, combined_scale):
    """fixed_accumulate's product, rescaled: times the combined scale, plus
    the bias in that scale (see quantize_bias), in float64."""
    acc = _matmul_row_blocks(_offset(inputs), matrix)
    return acc * combined_scale + np.asarray(bias_q, dtype=np.float64) * combined_scale


_ROW_BLOCK = 16


def _matmul_row_blocks(rows, matrix):
    """float64 ``rows @ matrix`` for one [K] row or a stack [N, K], in 16-row blocks.

    Every block, the last one zero-padded, is one BLAS product of the same
    [16, K] shape, so a row's result does not depend on how many rows the
    call holds or where the row sits (a one-row gemv and a many-row gemm
    round differently). The fixed shape also keeps each product under
    OpenBLAS's threading threshold for the shipped layers (16 x 257 x 32 on
    0.3.31): a product large enough to wake a second BLAS thread leaves it
    spinning between calls, which costs CPU time and no wall time.
    """
    rows = np.asarray(rows)
    stack = rows.reshape(-1, rows.shape[-1])
    count, width = stack.shape
    full = count - count % _ROW_BLOCK
    out = np.empty((count, matrix.shape[1]))
    np.matmul(stack[:full].reshape(-1, _ROW_BLOCK, width), matrix,
              out=out[:full].reshape(-1, _ROW_BLOCK, matrix.shape[1]))
    if full < count:
        tail = np.zeros((_ROW_BLOCK, width))
        tail[: count - full] = stack[full:]
        out[full:] = (tail @ matrix)[: count - full]
    return out.reshape(*rows.shape[:-1], matrix.shape[1])


@lru_cache(maxsize=256)
def requantize_multiplier(combined_scale, out_params):
    """combined_scale/out_scale as a Q31 mantissa m0 and a right shift.

    The multiplier is m0 * 2**-shift. A 32-bit accumulator times m0, plus
    the rounding term, stays inside int64 only for shifts in 1..62, which
    EncoderModel enforces between adjacent layers.
    """
    mant, exp = math.frexp(combined_scale / out_params.scale)
    m0 = round(mant * (1 << 31))
    if m0 == 1 << 31:
        m0 >>= 1
        exp += 1
    return m0, 31 - exp


def requantize_fixed(acc, combined_scale, out_params):
    """Integer-only requantization of 32-bit accumulators onto uint8.

    The real multiplier combined_scale/out_scale is represented as a Q31
    mantissa and a shift, so the whole step is int64 multiply + rounding
    shift: no float enters the DSP path between layers.
    """
    m0, shift = requantize_multiplier(combined_scale, out_params)
    q = rshift_round(np.asarray(acc, dtype=np.int64) * m0, shift) + out_params.zero_point
    return np.minimum(np.maximum(q, 0), LEVELS).astype(np.uint8)
