"""Seeded generator of Turkish-flavored tagging corpora.

Sentences are built from templates over small gazetteers of person, location,
and organization names plus filler vocabulary, each token carrying a
schematic morphological analysis.  Some surface forms are deliberately
ambiguous between entity and non-entity readings so that context and
transition structure carry real signal.
"""

from __future__ import annotations

import numpy as np

from .data import LabeledSentence, Token
from .errors import ConfigError

FIRST_NAMES = ["Meliha", "Ayşe", "Mehmet", "Zeynep", "Emre", "Elif", "Murat",
               "Deniz", "Hakan", "Selin", "Kemal", "Leyla"]
LAST_NAMES = ["Yılmaz", "Kaya", "Demir", "Şahin", "Çelik", "Aydın", "Özdemir",
              "Arslan"]
CITIES = ["Ankara", "İstanbul", "İzmir", "Bursa", "Adana", "Konya", "Antalya",
          "Trabzon", "Eskişehir", "Samsun"]
ACRONYMS = ["TCDD", "THY", "TRT", "PTT", "MTA", "DSİ"]
ORG_HEADS = ["Üniversitesi", "Bankası", "Müzesi", "Galerisi", "Kurumu",
             "Vakfı", "Derneği", "Tiyatrosu"]
ORG_MIDDLE = ["Sanat", "Bilim", "Tarih", "Kültür", "Halk"]

NOUNS = ["resimleri", "kitap", "sergi", "konser", "toplantı", "haber", "yol",
         "sanat", "müze", "banka", "okul", "film", "oyun", "proje", "karar"]
VERBS = ["sergilenecek", "açıldı", "başladı", "bitti", "görüştü", "gitti",
         "geldi", "konuştu", "duyurdu", "sundu"]
TIME_WORDS = ["dün", "bugün", "yarın", "akşam", "sabah", "geçen", "önce",
              "sonra", "dek", "kadar"]
CONNECTIVES = ["ve", "ile", "ama", "için", "gibi"]
SUFFIXES = [("'da", "+Loc"), ("'ya", "+Dat"), ("'nın", "+Gen"),
            ("'dan", "+Abl"), ("'nde", "+Loc"), ("'ne", "+Dat")]

TEMPLATES = [
    ("PER", "NOUN", "TIME", "VERB", "."),
    ("PER", "LOC", "VERB", "."),
    ("ORG", "NOUN", "VERB", "."),
    ("LOC", "ORG", "TIME", "VERB", "."),
    ("TIME", "PER", "ORG", "VERB", "."),
    ("PER", "CONN", "PER", "LOC", "VERB", "."),
    ("NOUN", "TIME", "LOC", "VERB", "."),
    ("LOC", "NOUN", "CONN", "NOUN", "VERB", "."),
    ("PER", "NOUN", "NUM", "NOUN", "VERB", "."),
    ("ORG", "LOC", "NOUN", "VERB", "."),
    ("TIME", "NOUN", "VERB", "."),
    ("PER", "ORG", "NOUN", "TIME", "VERB", "."),
]


def _noun_morph(surface: str, proper: bool, case: str = "") -> str:
    root = surface.split("'")[0]
    kind = "+Noun+Prop" if proper else "+Noun"
    return f"{root.lower()}{kind}+A3sg{case}"


def _maybe_suffix(rng, surface: str):
    if rng.random() < 0.4:
        suffix, case = SUFFIXES[rng.integers(0, len(SUFFIXES))]
        return surface + suffix, case
    return surface, ""


def _person(rng):
    first = FIRST_NAMES[rng.integers(0, len(FIRST_NAMES))]
    out = [(first, "B-PERSON", _noun_morph(first, True))]
    if rng.random() < 0.5:
        last, case = _maybe_suffix(rng, LAST_NAMES[rng.integers(0, len(LAST_NAMES))])
        out.append((last, "I-PERSON", _noun_morph(last, True, case)))
    return out


def _location(rng):
    city, case = _maybe_suffix(rng, CITIES[rng.integers(0, len(CITIES))])
    return [(city, "B-LOCATION", _noun_morph(city, True, case))]


def _organization(rng):
    parts = []
    if rng.random() < 0.5:
        parts.append(ACRONYMS[rng.integers(0, len(ACRONYMS))])
    else:
        parts.append(CITIES[rng.integers(0, len(CITIES))])
    if rng.random() < 0.6:
        parts.append(ORG_MIDDLE[rng.integers(0, len(ORG_MIDDLE))])
    head, case = _maybe_suffix(rng, ORG_HEADS[rng.integers(0, len(ORG_HEADS))])
    parts.append(head)
    out = []
    for i, surface in enumerate(parts):
        tag = "B-ORGANIZATION" if i == 0 else "I-ORGANIZATION"
        morph_case = case if i == len(parts) - 1 else ""
        out.append((surface, tag, _noun_morph(surface, True, morph_case)))
    return out


def _filler(rng, pool, morph_tail):
    word = pool[rng.integers(0, len(pool))]
    return [(word, "O", f"{word}{morph_tail}")]


def _expand(rng, slot):
    if slot == "PER":
        return _person(rng)
    if slot == "LOC":
        return _location(rng)
    if slot == "ORG":
        return _organization(rng)
    if slot == "NOUN":
        return _filler(rng, NOUNS, "+Noun+A3sg")
    if slot == "VERB":
        return _filler(rng, VERBS, "+Verb+Pos+A3sg")
    if slot == "TIME":
        return _filler(rng, TIME_WORDS, "+Adv")
    if slot == "CONN":
        return _filler(rng, CONNECTIVES, "+Conj")
    if slot == "NUM":
        num = str(int(rng.integers(2, 100)))
        return [(num, "O", f"{num}+Num")]
    if slot == ".":
        return [(".", "O", ".+Punc")]
    raise ConfigError(f"unknown template slot {slot!r}")


def generate_corpus(n_sentences: int, seed: int = 0) -> list[LabeledSentence]:
    """n_sentences templated sentences; deterministic under seed."""
    if n_sentences < 1:
        raise ConfigError("corpus size must be positive")
    if seed < 0:
        raise ConfigError(f"corpus seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_sentences):
        template = TEMPLATES[rng.integers(0, len(TEMPLATES))]
        tokens = []
        for slot in template:
            for surface, tag, morph in _expand(rng, slot):
                tokens.append(Token(surface, tag, morph))
        out.append(LabeledSentence(tuple(tokens)))
    return out
