"""The toy transformer encoder as a drop-in alternative to the BiLSTM.

Words are split into subword pieces, the pieces are embedded with learned
position vectors and run through self-attention blocks, and each word is
read off at its first piece.  The CRF head on top is unchanged.  A sentence
of more than max_len pieces is encoded as consecutive windows of max_len
pieces, so every word still gets a tag.
"""

from seqtag.data import split_corpus
from seqtag.encoders import ToyTransformerConfig
from seqtag.models import TrainConfig
from seqtag.subword import segment
from seqtag.synth import generate_corpus
from seqtag.training import evaluate_model, train

corpus = generate_corpus(300, seed=11)
split = split_corpus(corpus, valid_fraction=0.2, seed=0)

cfg = TrainConfig(
    model_kind="transformer-crf",
    optimizer="adam-decoupled-decay",
    transformer=ToyTransformerConfig(num_layers=2, num_heads=2,
                                     hidden_units=32, ff_units=64,
                                     max_len=64, dropout_p=0.0),
    lr=1e-3, dropout_p=0.0, epochs=2, batch_size=8,
    subword_vocab_size=150, seed=0)

# no tokenizer passed: train() fits one on the training sentences
result = train(cfg, split,
               on_epoch=lambda m: print(f"  epoch {m.epoch}: loss {m.train_loss:.3f}"
                                        f"  valid F1 {m.valid_f1:.2f}"))

report = evaluate_model(result.model, split.valid)
print(f"valid precision {report.precision:.2f}  recall {report.recall:.2f}"
      f"  F1 {report.f1:.2f}")

words = ["Murat", "Aydın", "TRT", "Tiyatrosu'na", "gitti", "."]
print("\npieces:", segment(result.tokenizer, " ".join(words)))
for word, tag in zip(words, result.model.predict(words)):
    print(f"  {word:14s} {tag}")

# several validation sentences joined into one, longer than max_len pieces
long_words = [w for s in split.valid[:12] for w in s.surfaces]
pieces = segment(result.tokenizer, " ".join(long_words))
max_len = cfg.transformer.max_len
assert len(pieces) > max_len
tags = result.model.predict(long_words)
print(f"\n{len(long_words)} words, {len(pieces)} pieces, windows of at most "
      f"{max_len}: {len(tags)} tags")
print(" ".join(f"{word}/{tag}" for word, tag in zip(long_words, tags)))
