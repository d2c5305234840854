"""Operating-point selection: FA/hr vs FRR sweeps and the cascade table.

Runs the decoder over a seeded synthetic posterior corpus (two hours of
negatives with planted impostor spikes, 200 positives) and prints the
cascade operating points as a function of the stage-1 threshold, with and
without speaker verification.
"""

from kwscascade.evaluation import (
    DecoderScorer,
    cascade_table,
    sweep_operating_points,
)
from kwscascade.synthetic import generate_posterior_corpus, oracle_decoder_config

corpus = generate_posterior_corpus(seed=42)
print(f"synthetic corpus: {corpus.negative_hours:.1f} h of negatives, "
      f"{len(corpus.positives)} positives, "
      f"{sum(len(s.events) for s in corpus.negatives)} planted impostors")

config = oracle_decoder_config()
stage1 = DecoderScorer(config, "stage1")
stage2 = DecoderScorer(config, "stage2")

print("\nstage-1 alone, DET sweep:")
for theta, fa, frr in sweep_operating_points(stage1, corpus, [0.3, 0.45, 0.6, 0.75, 0.9]):
    print(f"  threshold {theta:.2f}: {fa:6.1f} FA/hr, {100 * frr:5.1f}% FRR")

print("\ncascade table (stage-2 threshold fixed):")
table = cascade_table(stage1, stage2, corpus, [0.35, 0.5, 0.65, 0.8], stage2_threshold=0.5)
print(table.render_text())

print("\nwith speaker verification:")
gated = cascade_table(stage1, stage2, corpus, [0.35, 0.5, 0.65, 0.8],
                      stage2_threshold=0.5, speaker_verification=True)
print(gated.render_text())
