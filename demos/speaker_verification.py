"""Speaker verification: enroll on three keyword utterances, then compare
the owner's voice and a stranger's against the stored profile.

"Voices" here are tone keywords at slightly different amplitudes (owner)
vs a different tone layout (stranger); the embedding network maps frontend
features of the stage-2-aligned segment to a 64-dim signature.
"""

import numpy as np

from kwscascade import FrontendConfig, compute_features
from kwscascade.speaker import embed, enroll, verify
from kwscascade.synthetic import make_random_embedding_model, synth_keyword_audio

frontend = FrontendConfig()
embedding = make_random_embedding_model(frontend, dim=64)

def keyword_signature(amplitude, num_units=3):
    samples, _ = synth_keyword_audio(frontend, num_units, unit_ms=150,
                                     amplitude=amplitude)
    return embed(compute_features(samples, frontend), embedding)

owner_takes = [keyword_signature(a) for a in (7800.0, 8000.0, 8200.0)]
profile = enroll(owner_takes, threshold=0.9)
print(f"enrolled on {profile.num_enrollment_utterances} utterances, "
      f"signature dim {len(profile.signature.vector)}, "
      f"threshold {profile.threshold}")

owner_again = keyword_signature(8100.0)
result = verify(owner_again, profile)
print(f"owner retry:     cosine {result.score:+.4f} -> "
      f"{'ACCEPT' if result.accepted else 'REJECT'}")

# a television in the room: broadband noise instead of the keyword tones
from kwscascade.synthetic import speech_like_noise

tv = speech_like_noise(16000, seed=9, rms=4000.0)
tv_signature = embed(compute_features(tv, frontend), embedding)
result = verify(tv_signature, profile)
print(f"tv background:   cosine {result.score:+.4f} -> "
      f"{'ACCEPT' if result.accepted else 'REJECT'}")

rng = np.random.default_rng(1)
from kwscascade.speaker import SpeakerSignature

noise_sig = SpeakerSignature(rng.normal(size=64))
result = verify(noise_sig, profile)
print(f"random vector:   cosine {result.score:+.4f} -> "
      f"{'ACCEPT' if result.accepted else 'REJECT'}")
