"""Speaker verification: enroll on three keyword utterances, then compare
the owner's voice and a stranger's against the stored profile.

"Voices" here are tone keywords at slightly different amplitudes (owner)
vs a different tone layout (stranger); the embedding network maps frontend
features of the stage-2-aligned segment to a 64-dim signature. The segment
is the alignment of stage 2's first accept, the one the cascade's speaker
check embeds.
"""

import numpy as np

from kwscascade import AccumMode, DecoderConfig, DetectorStream, FrontendConfig
from kwscascade.cascade import stage2_pass
from kwscascade.speaker import SpeakerSignature, embed, enroll, verify
from kwscascade.synthetic import (make_random_embedding_model, make_tone_acoustic_model,
                                  speech_like_noise, synth_keyword_audio)

frontend = FrontendConfig()
embedding = make_random_embedding_model(frontend, dim=64)
stage2 = make_tone_acoustic_model(frontend, 3, stacked_frames=2)
stage2_decoder = DecoderConfig(3)  # the CLI defaults: L=30, T_s=100, threshold 0.5

def segment_signature(samples):
    """Signature of the stage-2 segment, or None when stage 2 never accepts."""
    detector = DetectorStream(frontend, stage2, stage2_decoder, AccumMode.FLOAT,
                              keep_features=True)
    accept = stage2_pass(detector, samples)
    return None if accept is None else embed(accept[2], embedding)

def keyword_signature(amplitude, num_units=3):
    samples, _ = synth_keyword_audio(frontend, num_units, unit_ms=150,
                                     amplitude=amplitude)
    return segment_signature(samples)

def report(label, signature):
    if signature is None:
        print(f"{label} no stage-2 accept")
        return
    result = verify(signature, profile)
    print(f"{label} cosine {result.score:+.4f} -> "
          f"{'ACCEPT' if result.accepted else 'REJECT'}")

owner_takes = [keyword_signature(a) for a in (7800.0, 8000.0, 8200.0)]
profile = enroll(owner_takes, threshold=0.9)
print(f"enrolled on {profile.num_enrollment_utterances} utterances, "
      f"signature dim {len(profile.signature.vector)}, "
      f"threshold {profile.threshold}")

report("owner retry:    ", keyword_signature(8100.0))

# a television in the room: broadband noise instead of the keyword tones
report("tv background:  ", segment_signature(speech_like_noise(16000, seed=9, rms=4000.0)))

rng = np.random.default_rng(1)
report("random vector:  ", SpeakerSignature(rng.normal(size=64)))
