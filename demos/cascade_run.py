"""End-to-end cascade: real PCM through frontend, quantized encoder,
decoder, ring buffer, and the two-stage state machine, then the power
proxy from the audio each stage ran.

The keyword is three pure tones (one per acoustic unit) so a hand-built
single-layer encoder can recognise it; everything downstream is the
production path.
"""

import numpy as np

from kwscascade import Cascade, CascadeConfig, DecoderConfig, FrontendConfig
from kwscascade.evaluation import power_proxy
from kwscascade.synthetic import (
    make_tone_acoustic_model,
    synth_keyword_audio,
    synth_noise,
)

frontend = FrontendConfig()
stage1 = make_tone_acoustic_model(frontend, 3, name="demo-stage1")
stage2 = make_tone_acoustic_model(frontend, 3, stacked_frames=2, name="demo-stage2")
print(f"stage-1 model: {stage1.byte_size} bytes (13 kB budget enforced at load)")
print(f"stage-2 model: {stage2.byte_size} bytes (runs on the AP, exempt)")

config = CascadeConfig(
    frontend=frontend,
    stage1_decoder=DecoderConfig(3, smoothing_window_frames=10,
                                 score_window_frames=100, threshold=0.3),
    stage2_decoder=DecoderConfig(3, smoothing_window_frames=10,
                                 score_window_frames=100, threshold=0.4),
)
cascade = Cascade(config, stage1, stage2)

rng = np.random.default_rng(7)
keyword, end_ms = synth_keyword_audio(frontend, 3, unit_ms=150)
audio = np.concatenate([synth_noise(16000, rng), keyword, synth_noise(24000, rng)])
planted_end = 1000 + end_ms
print(f"\nstreaming {len(audio) / 16000:.1f} s of audio; keyword ends at {planted_end} ms")


def show(event):
    scores = ", ".join(
        f"{name}={value:.3f}"
        for name, value in (("s1", event.stage1_score), ("s2", event.stage2_score))
        if value is not None
    )
    print(f"  {event.timestamp_ms:6d} ms  {event.kind.value:15s}  {scores}")
    if event.alignment_ms:
        print(f"            unit firing times: {list(event.alignment_ms)} ms")


for start in range(0, len(audio), 1600):  # 100 ms chunks, as a mic would deliver
    for event in cascade.push_audio(audio[start : start + 1600]):
        show(event)
for event in cascade.finish():  # end of stream: decide a stage-2 job still running
    show(event)

# power proxy: stage 1 ran every sample, stage 2 each wake's snapshot up to its decision
proxy = power_proxy(cascade.stats, multiplier=100.0)
print(f"\n{proxy.triggers} wake(s); stage 1 ran {proxy.duration_sec:.3f} s of audio, "
      f"stage 2 {proxy.stage2_run_seconds:.3f} s")
print(f"power proxy at 100x stage-2 cost: {proxy.total_units:.1f} units vs "
      f"{proxy.duration_sec:.3f} for stage 1 alone "
      f"(+{100 * (proxy.total_units / proxy.duration_sec - 1):.0f}%)")
