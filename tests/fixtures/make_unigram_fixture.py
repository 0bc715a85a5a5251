"""Write the unigram inventory fixture that tests/test_subword.py compares
against.

The fixture pins the piece inventory that train_unigram learns from the
2,000-sentence synthetic corpus of tests/test_acceptance.py::test_7 at a
target size of 200: its pieces, their order and their log-probabilities.
Run it from the repository root:

    PYTHONPATH=src python3 tests/fixtures/make_unigram_fixture.py

It writes unigram_gen2000_v200.tsv next to this file, in vocab_to_text's
format.  Regenerate it only when a change to the training procedure is
meant to change the inventory.
"""

import pathlib

from seqtag.subword import train_unigram, vocab_to_text
from seqtag.synth import generate_corpus

HERE = pathlib.Path(__file__).parent


def main():
    corpus = generate_corpus(2000, seed=0)
    tok = train_unigram([" ".join(s.surfaces) for s in corpus], 200, seed=0)
    with open(HERE / "unigram_gen2000_v200.tsv", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(vocab_to_text(tok))


if __name__ == "__main__":
    main()
