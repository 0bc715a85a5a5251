"""Training and using the unigram subword tokenizer.

The tokenizer learns a piece inventory by expectation-maximization over all
segmentations, then prunes the least useful pieces until the requested size
is reached.  Segmentation picks the maximum-likelihood pieces with a
Viterbi pass over the piece lattice.
"""

from seqtag.subword import decode, segment, train_unigram
from seqtag.synth import generate_corpus

corpus = [" ".join(s.surfaces) for s in generate_corpus(300, seed=0)]
tok = train_unigram(corpus, vocab_size=120, seed=0)
print(f"trained {len(tok)} pieces on {len(corpus)} sentences")

sample = sorted(tok.pieces, key=tok.pieces.get, reverse=True)
print("most probable pieces:", sample[:12])

# every word starts with the boundary marker; concatenation restores the text
for text in ["Ankara'da hava güzel", "Ayşe Demir TCDD Müzesi'ne gitti"]:
    pieces = segment(tok, text)
    print(f"\n  {text}")
    print(f"  -> {pieces}")
    assert decode(tok, pieces) == text

