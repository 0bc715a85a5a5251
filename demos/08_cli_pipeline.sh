#!/bin/sh
# The same workflow as the library demos, driven entirely by the seqtag CLI:
# synthesize a corpus, train, evaluate, tag raw text, and score a prediction
# file against gold.  Every config key can live in a file or be overridden
# by a flag of the same name; flags win.
set -e

# Without an installed seqtag script, as in a source checkout, run the
# package from this checkout's src/ instead.
if ! command -v seqtag >/dev/null 2>&1; then
    SRC=$(cd "$(dirname "$0")/../src" && pwd)
    seqtag() { PYTHONPATH="$SRC${PYTHONPATH:+:$PYTHONPATH}" python3 -m seqtag "$@"; }
fi

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

seqtag synth --size 300 --seed 7 --out corpus.conll
echo "--- corpus head ---"
head -n 8 corpus.conll

cat > train.cfg <<'EOF'
model_kind = bilstm-crf
word_dim = 24
char_dim = 8
char_hidden = 8
hidden_dim = 16
dropout_p = 0.0
lr = 0.1
batch_size = 4
epochs = 2
EOF

seqtag train --config train.cfg --train corpus.conll \
    --valid-fraction 0.2 --split-seed 0 --seed 0 \
    --out tagger.zip --metrics metrics.tsv
echo "--- training metrics ---"
cat metrics.tsv

seqtag synth --size 40 --seed 8 --out heldout.conll
echo "--- evaluation ---"
seqtag evaluate --model tagger.zip --data heldout.conll --format table

echo "--- tagging raw text ---"
printf 'Elif Çelik Trabzon%s gitti .\n' "'a" | seqtag tag --model tagger.zip

# strip the held-out file down to raw sentences, retag, score against gold
awk -F'\t' '!NF { print line; line = "" }
            NF  { line = line == "" ? $1 : line " " $1 }
            END { if (line != "") print line }' heldout.conll > raw.txt
seqtag tag --model tagger.zip --input raw.txt --out pred.conll
echo "--- scoring a prediction file ---"
seqtag score --gold heldout.conll --pred pred.conll --format keyvalues
