"""Exact inference in a linear-chain CRF.

A CRF scores a whole label sequence: per-token emission scores plus a
learned transition score between adjacent labels, with dedicated
begin-of-sentence and end-of-sentence transitions.  Everything below is
exact dynamic programming, no sampling involved.
"""

import itertools

import numpy as np

from seqtag.autodiff import Tensor
from seqtag.crf import (CRFParams, illegal_mask, log_partition, log_prob,
                        score_sequence, viterbi_decode)

TAGS = ["O", "B-PER", "I-PER"]

rng = np.random.default_rng(7)
crf = CRFParams.init(num_tags=len(TAGS), rng=rng)
emissions = Tensor(rng.standard_normal((4, len(TAGS))))

# the partition function sums over all 3^4 labelings; verify by enumeration
log_z = float(log_partition(crf, emissions).data)
paths = list(itertools.product(range(len(TAGS)), repeat=4))
total = sum(np.exp(float(log_prob(crf, emissions, list(p)).data)) for p in paths)
print(f"log partition      = {log_z:.6f}")
print(f"sum of all P(path) = {total:.12f}  (should be 1)")

best = viterbi_decode(crf, emissions)
print("viterbi path       =", [TAGS[i] for i in best])
ranked = sorted(paths, key=lambda p: float(log_prob(crf, emissions, list(p)).data))
print("enumeration best   =", [TAGS[i] for i in ranked[-1]])

# decoding can be constrained: the additive mask forbids transitions that
# can never occur in the BIO2 scheme, like O -> I-PER
mask = illegal_mask(TAGS)
print("\nmask rows (0 = allowed, -inf = forbidden):")
for i, row in enumerate(mask[:len(TAGS), :len(TAGS)]):
    blocked = [TAGS[j] for j, v in enumerate(row) if v != 0.0]
    if blocked:
        print(f"  {TAGS[i]:6s} may not be followed by {', '.join(blocked)}")
    else:
        print(f"  {TAGS[i]:6s} has no forbidden successors")

# force emissions to love I-PER everywhere; the mask still yields legal output
eager = Tensor(np.tile([0.0, 0.0, 5.0], (4, 1)))
print("\nunmasked decode:", [TAGS[i] for i in viterbi_decode(crf, eager)])
print("masked decode:  ", [TAGS[i] for i in viterbi_decode(crf, eager, mask)])

# a linear (softmax) head has no transitions; it decodes as a CRF whose
# transition table is all zeros.  Under the mask that is still a search for
# the best legal path: taking each token's best legal tag left to right
# would pick O (1.0 beats 0.9) and then be barred from I-X, scoring 1.0
TAGS_X = ["O", "B-X", "I-X"]
zero = CRFParams(Tensor(np.zeros((4, 4))), num_tags=3)
mask_x = illegal_mask(TAGS_X)
close = Tensor(np.array([[1.0, 0.9, -5.0],
                         [0.0, -5.0, 10.0]]))
path = viterbi_decode(zero, close, mask_x)
print("\nlinear head, masked:", [TAGS_X[i] for i in path],
      f"score {float(score_sequence(zero, close, path, mask_x).data):.1f}"
      "  (greedy would give ['O', 'O'], score 1.0)")
