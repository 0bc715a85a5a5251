"""Write the artifact fixtures that tests/test_models.py loads, for the
artifact version the checkout on PYTHONPATH writes.

Run it against a checkout of the version to record, N being that
checkout's models.ARTIFACT_VERSION:

    PYTHONPATH=<checkout>/src python3 tests/fixtures/make_version_fixtures.py

- Version 1 (commit 52b4686 or earlier) stored each LSTM direction as
  sixteen per-gate tensors and each attention projection as one tensor per
  head, every projection weight as (out, in).
- Version 2 (commit 81fc66a) stored the stacked gate and head blocks, and
  still every projection weight as (out, in).
- Version 3 (commit a14bf26) stored every projection weight as (in, out),
  and each transformer layer's attention projections as three tensors, Wq,
  Wk and Wv.
- Version 4 (commit c16031a) joined those three into one Wqkv, and still
  stored each BiLSTM direction apart, as fwd.W_x, fwd.W_h, fwd.b_x,
  fwd.b_h and the same four under bwd.
- Version 5 (commit b96d435) stacked the two directions of each BiLSTM
  block, and still stored each BiLSTM as four tensors, W_x (2, 4H, D),
  W_h (2, 4H, H), b_x (2, 4H) and b_h (2, 4H).

It trains two tiny models briefly on a synthetic corpus: a bilstm-crf with
the char, morph and subword composers and a two-head transformer-crf.  It
saves them next to this file as vN_bilstm_crf.zip and vN_transformer_crf.zip,
and writes the held-out sentences with the tags each model gives them, and
each sentence's loss under its gold tags, to vN_expected_tags.json.
"""

import json
import pathlib

from seqtag.data import split_corpus
from seqtag.encoders import ComposerConfig, ToyTransformerConfig
from seqtag.models import ARTIFACT_VERSION, TrainConfig, save_model
from seqtag.subword import train_unigram
from seqtag.synth import generate_corpus
from seqtag.training import train

HERE = pathlib.Path(__file__).parent

CONFIGS = {
    "bilstm_crf": TrainConfig(
        model_kind="bilstm-crf",
        composer=ComposerConfig(use_word=True, use_char=True, use_morph=True,
                                use_subword=True, word_dim=6, char_dim=4,
                                char_hidden=3, morph_dim=4, morph_hidden=2,
                                subword_dim=4, subword_hidden=2),
        hidden_dim=5, dropout_p=0.0, epochs=1, lr=0.05, batch_size=4, seed=0),
    "transformer_crf": TrainConfig(
        model_kind="transformer-crf", optimizer="adam-decoupled-decay",
        transformer=ToyTransformerConfig(num_layers=2, num_heads=2,
                                         hidden_units=8, ff_units=12,
                                         max_len=64, dropout_p=0.0),
        dropout_p=0.0, epochs=4, lr=2e-2, batch_size=4, seed=0),
}


def main():
    prefix = f"v{ARTIFACT_VERSION}_"
    split = split_corpus(generate_corpus(48, seed=7), valid_fraction=0.25, seed=0)
    tokenizer = train_unigram([" ".join(s.surfaces) for s in split.train], 120)
    expected = {}
    for name, cfg in CONFIGS.items():
        model = train(cfg, split, tokenizer).model
        save_model(model, HERE / f"{prefix}{name}.zip")
        expected[prefix + name] = [{"words": list(s.surfaces), "morphs": list(s.morphs),
                                    "gold": list(s.tags),
                                    "tags": model.predict(s.surfaces, s.morphs),
                                    "nll": model.loss(s, training=False).item()}
                                   for s in split.valid]
    with open(HERE / f"{prefix}expected_tags.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, ensure_ascii=False, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
