"""CoNLL-style corpus reading, BIO2 validation and repair, vocabulary
construction, and deterministic corpus splitting.

File layout: one token per line with whitespace-separated columns
(surface, optional morphological analysis, tag); a blank line ends a
sentence.  Whether the analysis column is present is decided by the first
data row and must then hold for the whole file.  Every line is normalized
to Unicode NFC, so a decomposed letter such as Turkish dotted capital I
(I + U+0307) reads as its composed form; so is every Token's surface and
analysis, however the Token was made, and neither may be empty or hold
whitespace, so that each stays one column.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, UsageError, ValidationError


def tag_is_wellformed(tag: str) -> bool:
    return tag == "O" or (len(tag) >= 3 and tag[0] in "BI" and tag[1] == "-")


def bio2_follows(prev: str, tag: str) -> bool:
    """Whether tag may follow prev in BIO2: an I-X only after a B-X or an
    I-X.  A sentence opens as if after an O."""
    return not tag.startswith("I-") or prev in ("B-" + tag[2:], tag)


def nfc_word(text: str, what: str) -> str:
    """text in Unicode NFC; raises ValidationError unless it is a non-empty
    string that holds no whitespace, as one CoNLL column must.  (NFC maps no
    whitespace to non-whitespace or back, so text is checked as given.)"""
    if not isinstance(text, str) or text.split() != [text]:
        raise ValidationError(f"{what} must be a non-empty string without whitespace, "
                              f"got {text!r}")
    return unicodedata.normalize("NFC", text)


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    gold_tag: str
    morph_analysis: str | None = None

    def __post_init__(self):
        if not tag_is_wellformed(self.gold_tag):
            raise ValidationError(f"malformed tag {self.gold_tag!r}")
        object.__setattr__(self, "surface", nfc_word(self.surface, "token surface"))
        if self.morph_analysis is not None:
            object.__setattr__(self, "morph_analysis",
                               nfc_word(self.morph_analysis, "morphological analysis"))


@dataclass(frozen=True, slots=True)
class LabeledSentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValidationError("sentence must be non-empty")
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self):
        return len(self.tokens)

    @property
    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]

    @property
    def tags(self) -> list[str]:
        return [t.gold_tag for t in self.tokens]

    @property
    def morphs(self) -> list[str | None]:
        return [t.morph_analysis for t in self.tokens]

    def with_tags(self, tags: list[str]) -> "LabeledSentence":
        if len(tags) != len(self.tokens):
            raise UsageError(f"{len(tags)} tags for {len(self.tokens)} tokens")
        return LabeledSentence(tuple(
            Token(t.surface, tag, t.morph_analysis)
            for t, tag in zip(self.tokens, tags)))


class TagSet:
    """Closed, ordered tag inventory; every I-X needs a matching B-X."""

    def __init__(self, tags: list[str]):
        if len(set(tags)) != len(tags):
            raise ValidationError("duplicate tags")
        if "O" not in tags:
            raise ValidationError("tag set must contain O")
        for tag in tags:
            if not tag_is_wellformed(tag):
                raise ValidationError(f"malformed tag {tag!r}")
            if tag.startswith("I-") and f"B-{tag[2:]}" not in tags:
                raise ValidationError(f"{tag} has no matching B-{tag[2:]}")
        self.tags = list(tags)
        self._index = {t: i for i, t in enumerate(tags)}

    def __len__(self):
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)

    def __contains__(self, tag):
        return tag in self._index

    def __eq__(self, other):
        return isinstance(other, TagSet) and self.tags == other.tags

    def id_of(self, tag: str) -> int:
        if tag not in self._index:
            raise UsageError(f"tag {tag!r} not in tag set")
        return self._index[tag]

    def tag_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.tags):
            raise UsageError(f"tag id {idx} out of range")
        return self.tags[idx]


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_conll(lines) -> list[LabeledSentence]:
    """Parse an iterable of text lines; raises ParseError with the offending
    line number on malformed input."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    sentences: list[LabeledSentence] = []
    current: list[Token] = []
    has_morph: bool | None = None
    for lineno, raw in enumerate(lines, start=1):
        line = unicodedata.normalize("NFC", raw.rstrip("\n"))
        if not line.strip():
            if current:
                sentences.append(LabeledSentence(tuple(current)))
                current = []
            continue
        fields = line.split()
        if len(fields) < 2:
            raise ParseError(f"expected at least 2 columns, "
                             f"got {len(fields)}", line=lineno)
        if len(fields) > 3:
            raise ParseError(f"expected at most 3 columns, "
                             f"got {len(fields)}", line=lineno)
        if has_morph is None:
            has_morph = len(fields) == 3
        if (len(fields) == 3) != has_morph:
            raise ParseError(f"inconsistent column count "
                             f"(file uses {3 if has_morph else 2} columns)",
                             line=lineno)
        tag = fields[-1]
        if not tag_is_wellformed(tag):
            raise ParseError(f"unknown tag {tag!r}", line=lineno)
        morph = fields[1] if has_morph else None
        current.append(Token(fields[0], tag, morph))
    if current:
        sentences.append(LabeledSentence(tuple(current)))
    return sentences


def load_conll(path) -> list[LabeledSentence]:
    with open(path, encoding="utf-8") as fh:
        return parse_conll(fh)


def serialize_conll(sentences: list[LabeledSentence]) -> str:
    """Inverse of parse_conll (tab-separated; blank line between sentences)."""
    has_morph = {t.morph_analysis is not None
                 for s in sentences for t in s.tokens}
    if len(has_morph) > 1:
        raise UsageError("cannot serialize a corpus that mixes rows with and "
                         "without morphological analyses")
    blocks = []
    for s in sentences:
        rows = []
        for t in s.tokens:
            if t.morph_analysis is None:
                rows.append(f"{t.surface}\t{t.gold_tag}")
            else:
                rows.append(f"{t.surface}\t{t.morph_analysis}\t{t.gold_tag}")
        blocks.append("\n".join(rows))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


# ---------------------------------------------------------------------------
# BIO2 validation


def validate_bio2(sentence: LabeledSentence, mode: str = "strict") -> LabeledSentence:
    """Check the I-follows-same-type rule; repair mode rewrites bad I-X to B-X."""
    if mode not in ("strict", "repair"):
        raise ConfigError(f"unknown validation mode {mode!r}")
    fixed = []
    prev = "O"
    for i, tag in enumerate(sentence.tags):
        if not bio2_follows(prev, tag):
            if mode == "strict":
                raise ValidationError(
                    f"orphan {tag} at token index {i} "
                    f"({sentence.tokens[i].surface!r}, follows {prev})")
            tag = "B-" + tag[2:]
        fixed.append(tag)
        prev = tag
    return sentence.with_tags(fixed)


# ---------------------------------------------------------------------------
# splitting and vocabularies


@dataclass
class CorpusSplit:
    train: list[LabeledSentence]
    valid: list[LabeledSentence]
    test: list[LabeledSentence]
    seed: int


def split_corpus(sentences: list[LabeledSentence], valid_fraction: float = 0.2,
                 seed: int = 0, test: list[LabeledSentence] = ()) -> CorpusSplit:
    """Deterministic shuffle split of sentences into train and valid parts."""
    if not 0.0 < valid_fraction < 1.0:
        raise ConfigError(f"valid fraction {valid_fraction} outside (0, 1)")
    if seed < 0:
        raise ConfigError(f"split seed must be non-negative, got {seed}")
    n = len(sentences)
    n_valid = int(round(n * valid_fraction))
    if n_valid == 0 or n - n_valid == 0:
        raise UsageError(f"{n} sentences cannot produce non-empty splits "
                         f"at fraction {valid_fraction}")
    order = np.random.default_rng(seed).permutation(n)
    valid = [sentences[i] for i in order[:n_valid]]
    train = [sentences[i] for i in order[n_valid:]]
    return CorpusSplit(train=train, valid=valid, test=list(test), seed=seed)


@dataclass
class Vocabulary:
    """Each source's tokens in the order of their table rows, plus the tag
    inventory."""

    word: list[str]
    char: list[str]
    morph_char: list[str]
    tags: TagSet


def build_vocab(sentences: list[LabeledSentence], min_count: int = 1) -> Vocabulary:
    """Word, character and analysis-character tokens by falling count, ties
    in first-seen order, plus the tag inventory.  min_count filters word
    types only.  The embedding tables put their reserved rows first."""
    if not sentences:
        raise UsageError("cannot build vocabulary from an empty corpus")
    words, chars, morph_chars, tag_counts = Counter(), Counter(), Counter(), Counter()
    for s in sentences:
        for t in s.tokens:
            words[t.surface] += 1
            chars.update(t.surface)
            morph_chars.update(t.morph_analysis or "")
            tag_counts[t.gold_tag] += 1
    tag_list = [tag for tag, _ in tag_counts.most_common()]
    if "O" not in tag_list:
        tag_list.append("O")
    # a missing B-X for a seen I-X means the data is BIO2-invalid; TagSet
    # surfaces that here
    tags = TagSet(tag_list)
    return Vocabulary(word=[w for w, n in words.most_common() if n >= min_count],
                      char=[c for c, _ in chars.most_common()],
                      morph_char=[c for c, _ in morph_chars.most_common()], tags=tags)
