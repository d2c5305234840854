"""The order-constrained decoder on a planted three-unit keyword.

Plants unit posteriors firing 1 -> 2 -> 3, streams them through the
decoder, and prints the score trace, the winning alignment, and what
happens when the units fire in the wrong order.
"""

import numpy as np

from kwscascade import DecoderConfig, StreamingDecoder, keyword_score

config = DecoderConfig(num_units=3, smoothing_window_frames=10,
                       score_window_frames=80, threshold=0.5)

frames = np.zeros((120, 3)) + 0.01
for unit, start in enumerate((40, 55, 70)):  # units fire in order, 150 ms apart
    frames[start : start + 15, unit] = 0.9

decoder = StreamingDecoder(config)
trace = decoder.push(frames)  # same scores as one push per frame
peak_frame, peak = max(trace, key=lambda item: item[1].score)

print("frame  score   (10 ms per frame)")
for t, hyp in trace[::10]:
    bar = "#" * int(40 * hyp.score)
    print(f"{t:5d}  {hyp.score:.3f}  {bar}")
print(f"\npeak score {peak.score:.3f} at frame {peak_frame}")
print(f"alignment (unit firing frames): {peak.alignment}  <- non-decreasing by construction")

# reverse the unit order: the ordered max-product punishes it
reversed_units = frames[:, ::-1]
forward = keyword_score(frames[30:100])
backward = keyword_score(reversed_units[30:100])
print(f"\nin-order score {forward.score:.3f} vs wrong-order score {backward.score:.3f}")
