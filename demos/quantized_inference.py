"""8-bit quantization in action: ranges, round-trips, and the two
accumulator paths (integer for the DSP, float for the AP).
"""

import numpy as np

from kwscascade import AccumMode, compute_quant_params, dequantize, quantize
from kwscascade.encoder import (
    Activation,
    EncoderLayer,
    EncoderModel,
    encoder_forward,
    load_model,
    serialize_model,
)
from kwscascade.quantize import QuantParams, quantize_bias

rng = np.random.default_rng(0)

# --- the uniform quantizer -------------------------------------------------
weights = rng.normal(0.0, 0.4, size=1000)
params = compute_quant_params(weights)
print(f"weight range [{params.min_val:+.3f}, {params.max_val:+.3f}] -> "
      f"scale {params.scale:.6f}, zero point {params.zero_point}")
tensor = quantize(weights, params)
error = np.abs(dequantize(tensor) - weights)
print(f"round-trip error: max {error.max():.6f} (half a step is {params.scale / 2:.6f})")


# --- a whole quantized model -----------------------------------------------
def random_layer(shape, input_params, activation):
    w = rng.normal(0.0, 0.5, size=shape)
    wp = compute_quant_params(w)
    bias = quantize_bias(rng.normal(0.0, 0.5, shape[0]), wp.scale * input_params.scale)
    return EncoderLayer(quantize(w, wp), bias, input_params, activation)


channels, hidden, units = 32, 24, 3
model = EncoderModel(
    [
        random_layer((hidden, channels), QuantParams(-5.0, 5.0), Activation.RELU),
        random_layer((units + 1, hidden), QuantParams(0.0, 10.0), Activation.SOFTMAX),
    ],
    channels, 1, units,
)
model = load_model(serialize_model(model))  # exercise the file format too
print(f"\ntwo-layer model: {model.byte_size} bytes on disk (stage-1 budget is 13312)")

frames = rng.uniform(-5.0, 5.0, size=(200, channels))
fixed = encoder_forward(frames, model, AccumMode.FIXED)
floating = encoder_forward(frames, model, AccumMode.FLOAT)
gap = max(
    np.abs(np.append(a.keyword_posteriors, a.filler_posterior)
           - np.append(b.keyword_posteriors, b.filler_posterior)).max()
    for a, b in zip(fixed, floating)
)
print(f"fixed vs float accumulators: max posterior gap {gap:.2e} over 200 frames "
      "(contract: <= 0.05; tiny here because float64 sums of 8-bit products are exact)")
print(f"posterior rows sum to one: "
      f"{all(abs(p.keyword_posteriors.sum() + p.filler_posterior - 1) < 1e-5 for p in fixed)}")
