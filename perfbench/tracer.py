"""Span tracing of seqtag's layers from outside the package.

The tracer replaces each traced public name where its caller looks it up
(a module global or a class attribute) with a wrapper that records one span
per call: layer name, phase, start, end and parent span.  Spans stay in
memory; self times are computed from them after the run.  Installing the
wrappers never changes arguments or results, and uninstalling restores every
original object.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are synchronous, so children never overlap and that difference
is exactly the part of the interval no child covers.
"""

from __future__ import annotations

import contextlib
import functools
import gc
from time import perf_counter

import seqtag.autodiff
import seqtag.crf
import seqtag.encoders
import seqtag.models
import seqtag.optim
import seqtag.subword
import seqtag.training
from seqtag.encoders import BiLSTM, InputComposer
from seqtag.models import SequenceTagger
from seqtag.optim import AdamDecoupled, SGDMomentum

# (owner, attribute, layer).  The owner is where the caller resolves the name:
# training.py imports build_vocab, build_model, clip_gradients and
# evaluate_model into its own namespace, models.py imports the CRF functions,
# segment and transformer_encode, and autodiff.backward calls the module
# global trace.  The benchmark itself calls subword.train_unigram and
# models.load_model through their modules.
TRACED = [
    (InputComposer, "compose_input", "encoders.compose_input"),
    (seqtag.encoders, "char_compose", "encoders.char_compose"),
    (BiLSTM, "encode", "encoders.bilstm_encode"),
    (seqtag.models, "transformer_encode", "encoders.transformer_encode"),
    (seqtag.models, "segment", "subword.segment"),
    (seqtag.subword, "train_unigram", "subword.train_unigram"),
    (SequenceTagger, "emission_rows", "models.emission_rows"),
    (SequenceTagger, "loss", "models.loss"),
    (SequenceTagger, "predict", "models.predict"),
    (seqtag.training, "build_model", "models.build_model"),
    (seqtag.models, "load_model", "models.load_model"),
    (seqtag.models, "crf_nll", "crf.crf_nll"),
    (seqtag.crf, "log_partition", "crf.log_partition"),
    (seqtag.models, "viterbi_decode", "crf.viterbi_decode"),
    (seqtag.autodiff, "backward", "autodiff.backward"),
    (seqtag.autodiff, "trace", "autodiff.trace"),
    (seqtag.training, "clip_gradients", "optim.clip_gradients"),
    (SGDMomentum, "step", "optim.step"),
    (AdamDecoupled, "step", "optim.step"),
    (SGDMomentum, "zero_grad", "optim.zero_grad"),
    (AdamDecoupled, "zero_grad", "optim.zero_grad"),
    (seqtag.training, "evaluate_model", "training.evaluate_model"),
    (seqtag.training, "build_vocab", "data.build_vocab"),
]


class Tracer:
    """Records spans of the traced layers and stop-the-world GC pauses."""

    def __init__(self):
        # one tuple per finished span: (id, layer, phase, start, end, parent
        # id or -1).  Tuples of atomic values drop out of the collector's
        # tracking, so a long trace does not slow down full collections.
        self.spans: list[tuple] = []
        self.phase: str | None = None
        self.gc: dict[str, list] = {}  # phase -> [pause seconds, collections]
        self._open: list[int] = []
        self._next_id = 0
        self._gc_start = 0.0

    def _wrap(self, original, layer):
        spans, open_ = self.spans, self._open

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = open_[-1] if open_ else -1
            open_.append(span_id)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans.append((span_id, layer, self.phase, start, end, parent))

        return traced

    def _on_gc(self, stage, info):
        if stage == "start":
            self._gc_start = perf_counter()
            return
        bucket = self.gc.setdefault(self.phase, [0.0, 0])
        bucket[0] += perf_counter() - self._gc_start
        bucket[1] += 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name and watch the collector; undo on exit."""
        saved = []
        try:
            for owner, attr, layer in TRACED:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def in_phase(self, name: str):
        previous, self.phase = self.phase, name
        try:
            yield
        finally:
            self.phase = previous

    def self_times(self) -> dict[tuple[str, str], list]:
        """(phase, layer) -> [self seconds, calls], summed over all spans."""
        child_time = [0.0] * self._next_id
        for _, _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[tuple[str, str], list] = {}
        for span_id, layer, phase, start, end, _ in self.spans:
            entry = out.setdefault((phase, layer), [0.0, 0])
            entry[0] += end - start - child_time[span_id]
            entry[1] += 1
        return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer self times and call counts, named as the benchmark reports them.

    Only spans of the setup, train and tag phases count; the benchmark's
    own graph counting runs in none of them.  A layer whose spans fall in
    both the train and the tag phase gets one metric per phase, prefixed
    "train." or "tag."; any other layer is named without a prefix.  GC
    pauses are always reported per phase.  A layer that never ran has no
    metric at all.
    """
    times = {key: value for key, value in tracer.self_times().items()
             if key[0] in ("setup", "train", "tag")}
    phases: dict[str, set] = {}
    for phase, layer in times:
        phases.setdefault(layer, set()).add(phase)
    out: dict[str, tuple[float, str]] = {}
    for (phase, layer), (seconds, calls) in sorted(times.items()):
        prefix = f"{phase}." if {"train", "tag"} <= phases[layer] else ""
        out[f"{prefix}{layer}_s"] = (seconds, "s")
        out[f"{prefix}{layer}_calls"] = (calls, "count")
    for phase in ("train", "tag"):
        seconds, collections = tracer.gc.get(phase, (0.0, 0))
        out[f"{phase}.autodiff.gc_s"] = (seconds, "s")
        out[f"{phase}.autodiff.gc_collections"] = (collections, "count")
    return out
