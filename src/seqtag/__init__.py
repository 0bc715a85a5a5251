"""seqtag: neural sequence tagging built from first principles.

Library layout:

- autodiff:    reverse-mode differentiation engine (Tensor, backward)
- encoders:    embedding composition, BiLSTM, and a small transformer encoder
- crf:         linear-chain CRF scoring, partition, Viterbi, and linear head
- data:        CoNLL/BIO2 parsing, validation, splitting, vocabularies
- subword:     unigram subword tokenizer (train/segment/decode)
- evaluation:  entity-level precision/recall/F1 and token accuracy
- optim:       SGD with momentum, Adam with decoupled decay, LR decay, clipping
- synth:       seeded synthetic corpus generator
- models:      taggers assembled from the above, with save/load
- training:    training loop, metrics log, benchmark harness
- cli:         command-line front end
"""

__version__ = "0.1.0"
