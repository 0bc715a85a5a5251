"""Check that this tree's seqtag computes bitwise what another tree's does.

    python tests/parity.py PARENT_SRC

PARENT_SRC is the src directory of another checkout of the project, for
example one unpacked from `git archive`.  Its seqtag package is loaded a
second time under the name parent_seqtag, next to this tree's seqtag, and
both build the same 16 cases: each of the four model kinds, with and
without the BIO2 mask, over a training batch of 1 and of 4 sentences, with
all four input sources, dropout 0.2 and two transformer layers.  A case is
equal when the save_model bytes of the freshly built model, the loss
bytes, the bytes of every parameter's gradient, the tags of 10 sentences
from predict one sentence at a time and from one tag_corpus call, and, for
each optimizer, the bytes of every parameter after three training steps
(L2, clipping and the update, as train() runs them) all are.  Gradients
and parameters are compared by name, the parent's first put in this
tree's layout (in_layout) when it writes an older artifact version, so a
layout change is compared value for value.  One line per case is
printed, and under a case that differs a second one with the largest
absolute difference of the loss, of each gradient that differs, of each
optimizer's parameters as a whole and of each parameter that differs after
its steps, and whether each set of tags is equal, and a third with the
largest relative difference of the same arrays, |a - b| / max |b| over the
parent's array b: how far a change that alters the bits on purpose moved
them, in absolute terms and independently of each array's scale.  Before
the summary line, one line per corpus of TOKENIZERS says whether the two
trees' train_unigram inventories, as vocab_to_text, are equal.  The exit
status is 0 only if every case and every inventory is equal, 1 if one is
not, and 2 if PARENT_SRC holds no seqtag package.

This file is a tool, not a test module: pytest does not collect it, and
tests/test_parity.py runs it.
"""

import importlib
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

HERE_SRC = Path(__file__).resolve().parents[1] / "src"
KINDS = ("bilstm-crf", "bilstm-linear", "transformer-crf", "transformer-linear")
SOURCES = ("word", "char", "morph", "subword")
TAGGED = 10  # sentences each case tags with predict and with tag_corpus
STEPS = 3  # optimizer steps each case takes with each optimizer
HEADS = 2  # attention heads of the transformer cases
# (sentences of generate_corpus(n, seed=0), pieces) each tree trains a
# tokenizer on: the pinned inventory's corpus and the benchmark graph phase's
TOKENIZERS = ((2000, 200), (200, 200))


def load_package(src: Path, name: str):
    """The seqtag package under src, imported as name with its modules."""
    init = Path(src) / "seqtag" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("autodiff", "data", "encoders", "models", "optim", "subword", "synth"):
        importlib.import_module(f"{name}.{module}")
    return package


def optimizer_steps(pkg, model, batch) -> dict[str, dict[str, np.ndarray]]:
    """Each parameter by name after STEPS training steps on batch under
    each optimizer, each run starting from the model's current
    parameters."""
    optim = pkg.optim
    flat = optim.flatten(model.parameters())
    start = flat.data.copy()
    after = {}
    for name, opt, lr in (("sgd-momentum", optim.SGDMomentum(flat, 0.9), 0.1),
                          ("adam", optim.AdamDecoupled(flat), 1e-2)):
        flat.data[...] = start
        for step in range(STEPS):
            opt.zero_grad()
            loss = model.loss(*batch, training=True, rng=np.random.default_rng(step))
            pkg.autodiff.backward(loss)
            optim.add_l2_gradients(flat, 1e-3)
            optim.clip_gradients(flat, 1.0)
            opt.step(lr)
        after[name] = {n: t.data.copy() for n, t in model.named_parameters().items()}
    return after


def run_case(pkg, kind: str, mask: bool, batch: int):
    """The artifact bytes of the built model, the loss, each parameter's
    gradient by name, the predict and tag_corpus tags and the parameters
    after each optimizer's steps of one case, computed by the package
    pkg."""
    corpus = pkg.synth.generate_corpus(40, seed=2)
    tokenizer = pkg.subword.train_unigram([" ".join(s.surfaces) for s in corpus], 80)
    composer = pkg.encoders.ComposerConfig(
        **{"use_" + s: True for s in SOURCES}, word_dim=5, char_dim=4, char_hidden=3,
        morph_dim=4, morph_hidden=2, subword_dim=4, subword_hidden=3)
    transformer = pkg.encoders.ToyTransformerConfig(
        num_layers=2, num_heads=HEADS, hidden_units=6, ff_units=5, max_len=32, dropout_p=0.2)
    cfg = pkg.models.TrainConfig(model_kind=kind, composer=composer, hidden_dim=4,
                                 dropout_p=0.2, transformer=transformer, mask_illegal=mask)
    model = pkg.models.build_model(cfg, pkg.data.build_vocab(corpus),
                                   np.random.default_rng(0), tokenizer)
    artifact = io.BytesIO()
    pkg.models.save_model(model, artifact)
    loss = model.loss(*corpus[:batch], training=True, rng=np.random.default_rng(1))
    pkg.autodiff.backward(loss)
    grads = {name: t.grad.copy() for name, t in model.named_parameters().items()}
    tags = [model.predict(s.surfaces, s.morphs) for s in corpus[:TAGGED]]
    corpus_tags = [s.tags for s in pkg.models.tag_corpus(model, corpus[:TAGGED])]
    return (artifact.getvalue(), loss.data.copy(), grads, tags, corpus_tags,
            optimizer_steps(pkg, model, corpus[:batch]))


def in_layout(pkg, case, version: int):
    """A run_case result of a tree that writes artifact version, with its
    gradients and parameters by name put in the layout of the package
    pkg, as pkg's load_model upgrades an artifact of that version: for
    example, a version-5 BiLSTM's P.W_x, P.b_x, P.b_h and P.W_h are joined
    into its one block P.W = [W_x | b_x | b_h | W_h]."""
    if version >= pkg.models.ARTIFACT_VERSION:
        return case
    artifact, loss, grads, tags, corpus_tags, after = case

    def upgrade(named):
        return pkg.models._upgrade_tensors(named, version, HEADS)

    return (artifact, loss, upgrade(grads), tags, corpus_tags,
            {opt: upgrade(params) for opt, params in after.items()})


def tokenizer_text(pkg, sentences: int, pieces: int) -> str:
    """vocab_to_text of the inventory pkg trains on generate_corpus(sentences,
    seed=0) at pieces pieces."""
    corpus = pkg.synth.generate_corpus(sentences, seed=0)
    vocab = pkg.subword.train_unigram([" ".join(s.surfaces) for s in corpus], pieces)
    return pkg.subword.vocab_to_text(vocab)


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two arrays."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def gap(a: np.ndarray, b: np.ndarray, relative: bool = False) -> str:
    """The largest absolute difference of two arrays, printed, or with
    relative set that difference over the largest magnitude of b (0 when
    both are all zeros, inf when only b is)."""
    if a.shape != b.shape:
        return f"shapes {a.shape} and {b.shape}"
    with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf, x / 0
        largest = np.max(np.abs(a - b), initial=0.0)
        if relative:
            largest = largest / np.max(np.abs(b), initial=0.0) if largest else 0.0
        return f"{largest:.3e}"


def step_arrays(after, after_p) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(what, this tree's array, the parent's) after each optimizer's steps:
    every parameter of both trees as one flat array under "<optimizer>
    steps", then each parameter that differs under "<optimizer> steps
    <name>"."""
    out = []
    for opt, params in after.items():
        names = [name for name in params if name in after_p[opt]]
        pairs = [(params[name], after_p[opt][name]) for name in names]
        if all(a.shape == b.shape for a, b in pairs):
            out.append((f"{opt} steps", np.concatenate([a.ravel() for a, _ in pairs]),
                        np.concatenate([b.ravel() for _, b in pairs])))
        out += [(f"{opt} steps {name}", a, b) for name, (a, b) in zip(names, pairs)
                if not same(a, b)]
    return out


def differences(here, there) -> tuple[list[str], str, str]:
    """What differs between two run_case results, and how far it moved, in
    absolute and in relative terms."""
    artifact, loss, grads, tags, corpus_tags, after = here
    artifact_p, loss_p, grads_p, tags_p, corpus_tags_p, after_p = there
    out = [] if artifact == artifact_p else ["artifact"]
    if not same(loss, loss_p):
        out.append("loss")
    if grads.keys() != grads_p.keys():
        out.append("parameter names")
    moved = [name for name in grads if name in grads_p and not same(grads[name], grads_p[name])]
    out += [f"grad {name}" for name in moved]
    if tags != tags_p:
        out.append("predict tags")
    if corpus_tags != corpus_tags_p:
        out.append("tag_corpus tags")
    out += [f"{opt} steps" for opt, params in after.items()
            if any(name not in after_p[opt] or not same(a, after_p[opt][name])
                   for name, a in params.items())]
    arrays = ([("loss", loss, loss_p)]
              + [(f"grad {name}", grads[name], grads_p[name]) for name in moved]
              + step_arrays(after, after_p))
    sizes = ([f"{what} {gap(a, b)}" for what, a, b in arrays]
             + [f"predict tags {'equal' if tags == tags_p else 'differ'}",
                f"tag_corpus tags {'equal' if corpus_tags == corpus_tags_p else 'differ'}"])
    relative = [f"{what} {gap(a, b, relative=True)}" for what, a, b in arrays]
    return (out, "largest |difference|: " + "; ".join(sizes),
            "largest relative difference: " + "; ".join(relative))


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "seqtag" / "__init__.py").is_file():
        print("usage: python tests/parity.py PARENT_SRC  (a src directory holding seqtag/)",
              file=sys.stderr)
        return 2
    here = load_package(HERE_SRC, "seqtag")
    parent = load_package(Path(argv[0]), "parent_seqtag")
    equal = total = 0
    for kind in KINDS:
        for mask in (False, True):
            for batch in (1, 4):
                diff, sizes, relative = differences(
                    run_case(here, kind, mask, batch),
                    in_layout(here, run_case(parent, kind, mask, batch),
                              parent.models.ARTIFACT_VERSION))
                total += 1
                equal += not diff
                print(f"{kind} mask={'on' if mask else 'off'} batch={batch}: "
                      f"{'equal' if not diff else 'DIFFERS in ' + ', '.join(diff)}")
                if diff:
                    print("  " + sizes)
                    print("  " + relative)
    inventories_equal = True
    for sentences, pieces in TOKENIZERS:
        text_equal = (tokenizer_text(here, sentences, pieces)
                      == tokenizer_text(parent, sentences, pieces))
        inventories_equal &= text_equal
        print(f"tokenizer generate_corpus({sentences}, seed=0) at {pieces} pieces: "
              f"{'equal' if text_equal else 'DIFFERS in vocab_to_text'}")
    print(f"{equal} of {total} cases bitwise equal")
    return 0 if equal == total and inventories_equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
