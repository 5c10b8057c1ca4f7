"""The benchmark's fixture, seeded inputs and four workloads.

The fixture (world, training corpus, briefly trained model) is the same
for every seed; ``--seed`` picks the inputs the program sees: a fresh
held-out corpus for the inference workloads and the init and shard
order for ``train``. The program runs at its defaults (float64, dense
payload store, ``CascadePolicy()``).

Every workload is a closed loop with one client: ``call(i)`` sends a
fixed number of documents and waits for the answer. The inputs form a
cycle of distinct calls; ``absorb`` checks the first answer to each
distinct call in full, outside the timed region, and later repeats of
that call only for the same answers.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import math
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np

from measure import Accounting, f1_percent, peak_rss_mb, usable_cpus
from repro.cascade import TIER_MODEL, CascadePolicy
from repro.core import BootlegAnnotator, BootlegConfig, BootlegModel
from repro.core.trainer import TrainConfig, Trainer, predict, predict_batches
from repro.corpus import (
    CorpusConfig,
    EntityCounts,
    NedDataset,
    build_vocabulary,
    generate_corpus,
)
from repro.corpus.document import Corpus, Page
from repro.corpus.tokenizer import tokenize
from repro.errors import ReproError
from repro.eval.slices import f1_by_bucket
from repro.kb import WorldConfig, generate_world
from repro.nn.serialize import load_module, save_module
from repro.parallel import AnnotatorPool

# NedDataset's default token window; mentions ending past it are the
# ones the encoder drops (reason "beyond_encode_window").
ENCODE_WINDOW = 100
NUM_CANDIDATES = 6
EVAL_BATCH_SIZE = 64
TAIL = "tail"
# Held-out corpora take seeds from here on, away from the fixture seed.
HELD_OUT_SEED_BASE = 10_000
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Trained fixture weights, keyed by the program source and the fixture sizes.
CACHE_DIR = HERE / ".cache"


@dataclasses.dataclass(frozen=True)
class Scale:
    """Sizes of the fixture and of each workload's calls."""

    entities: int = 2000
    world_seed: int = 7
    fixture_pages: int = 400
    # Held-out corpus per workload, in pages. annotate-pages and
    # annotate-cascade take larger ones so that their input mix (page
    # lengths and the share of pages past the encode window; the ~1.6%
    # escalation rate of single sentences) does not swing with the seed.
    held_out_pages: int = 320
    annotate_pages: int = 1920
    cascade_pages: int = 1280
    pages_per_call: int = 8
    sentences_per_call: int = 64
    eval_sentences_per_call: int = 128
    train_sentences_per_call: int = 32
    # Set-ups per run: at least setup_reps and setup_seconds of set-up
    # wall time, so that a cheap set-up is repeated often enough for a
    # steady median.
    setup_reps: int = 9
    setup_seconds: float = 2.0


# A few seconds per workload; used by the benchmark's own tests.
TINY = Scale(
    entities=150,
    fixture_pages=40,
    held_out_pages=24,
    annotate_pages=24,
    cascade_pages=24,
    pages_per_call=4,
    sentences_per_call=8,
    eval_sentences_per_call=32,
    train_sentences_per_call=32,
    setup_reps=2,
    setup_seconds=0.0,
)


@dataclasses.dataclass
class Fixture:
    scale: Scale
    world: object
    corpus: Corpus
    vocab: object
    counts: EntityCounts
    model: BootlegModel | None


def build_fixture(scale: Scale, trained: bool) -> Fixture:
    """World, training corpus and (optionally) a one-epoch model.

    The trained weights are cached under ``CACHE_DIR``, keyed by a hash
    of the program source and the fixture's sizes, so only the first
    run in a checkout pays for fixture training. That training runs in
    a child process, so this process's peak RSS never includes it.
    """
    world, corpus, vocab, counts = _fixture_data(scale)
    model = None
    if trained:
        cached = CACHE_DIR / f"fixture-{_fixture_key(scale)}.npz"
        if not cached.exists():
            child = multiprocessing.get_context("spawn").Process(
                target=_train_fixture, args=(scale, cached)
            )
            child.start()
            child.join()
            if child.exitcode != 0:
                raise RuntimeError(f"fixture training exited with {child.exitcode}")
        model = _fixture_model(scale, world, vocab, counts)
        load_module(model, cached)
        model.eval()
    return Fixture(scale, world, corpus, vocab, counts, model)


def _fixture_data(scale: Scale):
    world = generate_world(
        WorldConfig(num_entities=scale.entities, seed=scale.world_seed)
    )
    corpus = generate_corpus(
        world, CorpusConfig(num_pages=scale.fixture_pages, seed=scale.world_seed)
    )
    vocab = build_vocabulary(corpus)
    counts = EntityCounts.from_corpus(corpus, world.num_entities)
    return world, corpus, vocab, counts


def _fixture_model(scale: Scale, world, vocab, counts) -> BootlegModel:
    return BootlegModel(
        BootlegConfig(num_candidates=NUM_CANDIDATES, seed=scale.world_seed),
        world.kb,
        vocab,
        entity_counts=counts.counts,
    )


def _train_fixture(scale: Scale, path: Path) -> None:
    world, corpus, vocab, counts = _fixture_data(scale)
    model = _fixture_model(scale, world, vocab, counts)
    dataset = _dataset(world, vocab, corpus, "train")
    Trainer(model, dataset, TrainConfig(epochs=1, seed=scale.world_seed)).train()
    CACHE_DIR.mkdir(exist_ok=True)
    partial = path.with_name(f"{path.stem}.{os.getpid()}.partial.npz")
    save_module(model, partial)
    os.replace(partial, path)


def _fixture_key(scale: Scale) -> str:
    digest = hashlib.sha256(
        repr((scale.entities, scale.world_seed, scale.fixture_pages)).encode()
    )
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _dataset(world, vocab, corpus: Corpus, split: str) -> NedDataset:
    return NedDataset(
        corpus, split, vocab, world.candidate_map, NUM_CANDIDATES, kgs=[world.kg]
    )


def _as_corpus(sentences) -> Corpus:
    """One test-split page per sentence, so NedDataset keeps the order."""
    return Corpus(
        [Page(index, 0, "test", [s]) for index, s in enumerate(sentences)]
    )


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Document:
    """One annotate input: text plus its gold (start, end, entity) spans."""

    text: str
    gold: tuple[tuple[int, int, int], ...]


def held_out_corpus(fixture: Fixture, seed: int, pages: int | None = None) -> Corpus:
    return generate_corpus(
        fixture.world,
        CorpusConfig(
            num_pages=pages or fixture.scale.held_out_pages,
            seed=HELD_OUT_SEED_BASE + seed,
        ),
    )


def _whole(items: list, per_call: int) -> list:
    """Drop the remainder so the inputs form whole calls."""
    return items[: len(items) - len(items) % per_call]


def page_documents(fixture: Fixture, seed: int) -> list[Document]:
    """Each held-out page joined into one document, seed-shuffled."""
    docs = []
    for page in held_out_corpus(fixture, seed, fixture.scale.annotate_pages).pages:
        tokens: list[str] = []
        gold = []
        for sentence in page.sentences:
            offset = len(tokens)
            tokens.extend(sentence.tokens)
            gold.extend(
                (offset + m.start, offset + m.end, m.gold_entity_id)
                for m in sentence.anchor_mentions
            )
        docs.append(Document(" ".join(tokens), tuple(gold)))
    order = np.random.default_rng(seed).permutation(len(docs))
    return _whole([docs[i] for i in order], fixture.scale.pages_per_call)


def sentence_documents(fixture: Fixture, seed: int) -> list[Document]:
    """Every held-out sentence as its own document, seed-shuffled."""
    docs = [
        Document(
            " ".join(s.tokens),
            tuple((m.start, m.end, m.gold_entity_id) for m in s.anchor_mentions),
        )
        for s in held_out_corpus(fixture, seed, fixture.scale.cascade_pages).sentences()
    ]
    order = np.random.default_rng(seed).permutation(len(docs))
    return _whole([docs[i] for i in order], fixture.scale.sentences_per_call)


def eval_chunks(fixture: Fixture, seed: int) -> list[list]:
    """Held-out gold sentences with mentions, in calls of fixed size."""
    sentences = [
        s for s in held_out_corpus(fixture, seed).sentences() if s.mentions
    ]
    order = np.random.default_rng(seed).permutation(len(sentences))
    per_call = fixture.scale.eval_sentences_per_call
    sentences = _whole([sentences[i] for i in order], per_call)
    return [
        sentences[start : start + per_call]
        for start in range(0, len(sentences), per_call)
    ]


def train_shards(num_sentences: int, scale: Scale, seed: int) -> list[np.ndarray]:
    """Seeded order of the training sentences, in calls of fixed size."""
    order = _whole(
        list(np.random.default_rng(seed).permutation(num_sentences)),
        scale.train_sentences_per_call,
    )
    per_call = scale.train_sentences_per_call
    return [
        np.array(order[start : start + per_call])
        for start in range(0, len(order), per_call)
    ]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class CheckFailed(Exception):
    """An output check failed; the run is not correct."""


@dataclasses.dataclass
class CallResult:
    """What one call produced, as the runner counts it: documents fully
    answered (every detected or gold mention answered) and answered
    mentions."""

    documents: int
    mentions: int


class _Workload:
    """Interface the runner drives; see the module docstring."""

    def __init__(self, fixture: Fixture, seed: int, trace: bool) -> None:
        self.fixture = fixture
        self.seed = seed
        self.trace = trace
        self.details: dict = {}
        self.trace_metrics: dict = {}

    @property
    def cycle(self) -> int:
        raise NotImplementedError

    @property
    def min_calls(self) -> int:
        """Calls every window makes: one pass over the distinct inputs,
        so the checks and quality scores cover all of them."""
        return self.cycle

    def setup(self) -> None:
        raise NotImplementedError

    def call(self, index: int):
        raise NotImplementedError

    def absorb(self, index: int, output, error: BaseException | None) -> CallResult:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run; fills ``details``."""

    def answered_share(self) -> float:
        raise NotImplementedError

    def quality(self) -> tuple[float, float]:
        """(f1.all, f1.tail) on a 0-100 scale."""
        raise NotImplementedError

    def rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass


class AnnotateWorkload(_Workload):
    """``annotate-pages`` (full model, whole pages) and
    ``annotate-cascade`` (tier 0 + escalation, single sentences)."""

    def __init__(self, fixture, seed, trace, cascade: bool) -> None:
        super().__init__(fixture, seed, trace)
        self.cascade = cascade
        scale = fixture.scale
        if cascade:
            self.docs = sentence_documents(fixture, seed)
            self.per_call = scale.sentences_per_call
        else:
            self.docs = page_documents(fixture, seed)
            self.per_call = scale.pages_per_call
        # The reference mention set, found outside the timed region
        # with the same public tokenize + detect_mentions calls.
        self._full = self._annotator(cascade=False)
        self.detected = [
            self._full.detect_mentions(tokenize(doc.text)) for doc in self.docs
        ]
        self.annotator = None
        self.accounting = Accounting(ENCODE_WINDOW)
        # Per distinct call: its answers and its CallResult.
        self._answers: dict[int, tuple[list, CallResult]] = {}
        self._f1 = {"all": [0, 0, 0], TAIL: [0, 0, 0]}
        self.escalated_docs = 0

    def _annotator(self, cascade: bool) -> BootlegAnnotator:
        fx = self.fixture
        return BootlegAnnotator(
            fx.model,
            fx.vocab,
            fx.world.candidate_map,
            fx.world.kb,
            kgs=[fx.world.kg],
            num_candidates=NUM_CANDIDATES,
            cascade=CascadePolicy() if cascade else None,
        )

    @property
    def cycle(self) -> int:
        return len(self.docs) // self.per_call

    def _texts(self, position: int) -> list[str]:
        start = position * self.per_call
        return [doc.text for doc in self.docs[start : start + self.per_call]]

    def setup(self) -> None:
        model = self.fixture.model
        model.embedder.invalidate_static_cache()
        self.annotator = self._annotator(self.cascade)
        model.embedder.build_static_cache()
        self.annotator.annotate_batch(self._texts(0))

    def call(self, index: int):
        return self.annotator.annotate_batch(self._texts(index % self.cycle))

    def absorb(self, index, output, error) -> CallResult:
        position = index % self.cycle
        start = position * self.per_call
        if error is not None:
            raise CheckFailed(f"annotate_batch raised: {error!r}")
        answers = [
            [(m.start, m.end, m.entity_id, m.tier) for m in doc] for doc in output
        ]
        if position not in self._answers:
            complete = self._check_first(start, output)
            result = CallResult(complete, sum(len(doc) for doc in output))
            self._answers[position] = (answers, result)
        first, result = self._answers[position]
        if answers != first:
            raise CheckFailed(f"call {position} answered differently on repeat")
        return result

    def _check_first(self, start: int, output) -> int:
        """Full checks of a call's first answer; returns how many of its
        documents were fully answered."""
        candidate_map = self.fixture.world.candidate_map
        counts = self.fixture.counts
        escalated = []
        complete = 0
        for offset, mentions in enumerate(output):
            doc_index = start + offset
            detected = self.detected[doc_index]
            spans = [(m.start, m.end) for m in mentions]
            stray = set(spans) - set(detected)
            if stray:
                raise CheckFailed(
                    f"document {doc_index}: answered spans {sorted(stray)} "
                    "were not detected"
                )
            for m in mentions:
                slate, _ = candidate_map.candidate_arrays(m.surface, NUM_CANDIDATES)
                if m.entity_id not in slate:
                    raise CheckFailed(
                        f"document {doc_index}: entity {m.entity_id} is not in "
                        f"the candidate slate of {m.surface!r}"
                    )
            complete += self.accounting.add_document(detected, spans, raised=False)
            gold = {(s, e): entity for s, e, entity in self.docs[doc_index].gold}
            tail_spans = {
                span for span, entity in gold.items()
                if counts.bucket_of(entity) == TAIL
            }
            for name, gold_spans in (("all", set(gold)), (TAIL, tail_spans)):
                counted = [m for m in mentions if (m.start, m.end) in gold_spans]
                predicted = mentions if name == "all" else counted
                tally = self._f1[name]
                tally[0] += sum(
                    1 for m in counted if gold[(m.start, m.end)] == m.entity_id
                )
                tally[1] += len(predicted)
                tally[2] += len(gold_spans)
            if any(m.tier == TIER_MODEL for m in mentions):
                escalated.append(offset)
        if self.cascade:
            self.escalated_docs += len(escalated)
            self._check_escalated(start, output, escalated)
        return complete

    def _check_escalated(self, start: int, output, escalated: list[int]) -> None:
        """Escalated mentions equal a standalone full-model pass over
        exactly the escalated documents of the call."""
        if not escalated:
            return
        standalone = self._full.annotate_batch(
            [self.docs[start + offset].text for offset in escalated]
        )
        for offset, full_doc in zip(escalated, standalone):
            twins = {(m.start, m.end): m for m in full_doc}
            for mention in output[offset]:
                if mention.tier != TIER_MODEL:
                    continue
                twin = twins.get((mention.start, mention.end))
                if twin is None or dataclasses.asdict(twin) != dataclasses.asdict(
                    mention
                ):
                    raise CheckFailed(
                        f"document {start + offset}: escalated mention at "
                        f"({mention.start}, {mention.end}) differs from the "
                        "full-model pass"
                    )

    def finish(self) -> None:
        if not self.accounting.balanced():
            raise CheckFailed("detected != answered + dropped")
        self.details["accounting"] = _accounting_dict(self.accounting)
        self.details["probe"] = self._blank_document_probe()
        if self.cascade:
            self.trace_metrics["cascade.escalated_docs"] = self.escalated_docs

    def _blank_document_probe(self) -> dict:
        """One extra, untimed call: the first call's documents plus a
        blank one, as real input streams contain. Kept out of the timed
        loop so that no timed operation fails; its outcome is reported."""
        probe = Accounting(ENCODE_WINDOW)
        texts = self._texts(0) + [""]
        detected = self.detected[: self.per_call] + [[]]
        try:
            output = self.annotator.annotate_batch(texts)
        except ReproError as error:
            for spans in detected:
                probe.add_document(spans, [], raised=True)
            return {"raised": type(error).__name__, **_accounting_dict(probe)}
        for spans, mentions in zip(detected, output):
            probe.add_document(spans, [(m.start, m.end) for m in mentions], False)
        return {"raised": None, **_accounting_dict(probe)}

    def answered_share(self) -> float:
        return self.accounting.answered_share

    def quality(self) -> tuple[float, float]:
        return tuple(f1_percent(*self._f1[name]) for name in ("all", TAIL))


def _accounting_dict(acc: Accounting) -> dict:
    return {
        "documents": acc.documents,
        "failed_documents": acc.failed_documents,
        "failed_share": acc.failed_share,
        "detected": acc.detected,
        "answered": acc.answered,
        "dropped": dict(acc.dropped),
    }


class EvaluateWorkload(_Workload):
    """``evaluate-pool``: gold mentions encoded by NedDataset, predicted
    by the annotator pool, scored with f1_by_bucket."""

    def __init__(self, fixture, seed, trace) -> None:
        super().__init__(fixture, seed, trace)
        self.chunks = eval_chunks(fixture, seed)
        self.corpora = [_as_corpus(chunk) for chunk in self.chunks]
        self.workers = min(2, usable_cpus())
        self.pool = None
        self.pool_start_seconds: list[float] = []
        self.accounting = Accounting(ENCODE_WINDOW)
        self._answers: dict[int, tuple[list, CallResult]] = {}
        self._records: list = []
        self._serial_seconds = 0.0
        self._pool_seconds = 0.0

    @property
    def cycle(self) -> int:
        return len(self.chunks)

    def _encode(self, position: int) -> NedDataset:
        fx = self.fixture
        return _dataset(fx.world, fx.vocab, self.corpora[position], "test")

    def setup(self) -> None:
        model = self.fixture.model
        model.embedder.invalidate_static_cache()
        started = time.perf_counter()
        self.pool = AnnotatorPool.from_model(model, workers=self.workers)
        self.pool_start_seconds.append(time.perf_counter() - started)
        self.trace_metrics["pool.start_s"] = float(np.median(self.pool_start_seconds))
        self.pool.predict_batches(self._encode(0).batches(EVAL_BATCH_SIZE))

    def call(self, index: int):
        dataset = self._encode(index % self.cycle)
        return self.pool.predict_batches(dataset.batches(EVAL_BATCH_SIZE))

    def absorb(self, index, output, error) -> CallResult:
        position = index % self.cycle
        if error is not None:
            raise CheckFailed(f"pool predict_batches raised: {error!r}")
        answers = [
            (r.sentence_id, r.mention_index, r.predicted_entity_id) for r in output
        ]
        if position not in self._answers:
            complete = self._check_first(position, output)
            self._answers[position] = (answers, CallResult(complete, len(output)))
        first, result = self._answers[position]
        if answers != first:
            raise CheckFailed(f"call {position} answered differently on repeat")
        return result

    def _check_first(self, position: int, records) -> int:
        """Pool records byte-identical to serial predict_batches on the
        same batches; gold mentions accounted for. Returns how many
        sentences had every gold mention answered."""
        dataset = self._encode(position)
        model = self.fixture.model
        started = time.perf_counter()
        serial = predict_batches(model, dataset.batches(EVAL_BATCH_SIZE))
        self._serial_seconds += time.perf_counter() - started
        if self.trace:
            started = time.perf_counter()
            self.pool.predict_batches(dataset.batches(EVAL_BATCH_SIZE))
            self._pool_seconds += time.perf_counter() - started
        if len(serial) != len(records) or any(
            _record_bytes(a) != _record_bytes(b) for a, b in zip(serial, records)
        ):
            raise CheckFailed(
                f"call {position}: pool records differ from serial predict_batches"
            )
        answered: dict[int, list] = {}
        for record in records:
            answered.setdefault(record.sentence_id, []).append(record.mention_index)
        complete = 0
        for sentence in self.chunks[position]:
            detected = [(m.start, m.end) for m in sentence.mentions]
            spans = [detected[i] for i in answered.get(sentence.sentence_id, [])]
            complete += self.accounting.add_document(detected, spans, raised=False)
        self._records.extend(records)
        return complete

    def finish(self) -> None:
        if not self.accounting.balanced():
            raise CheckFailed("gold != answered + dropped")
        acc = self.accounting
        # Evaluate attempts gold mentions, so its failures count mentions.
        self.details["accounting"] = {
            **_accounting_dict(acc),
            "failed_share": 1.0 - acc.answered_share,
        }
        self.details["workers"] = self.workers
        if self.trace and self._pool_seconds:
            self.trace_metrics["pool.speedup_vs_serial"] = (
                self._serial_seconds / self._pool_seconds
            )

    def answered_share(self) -> float:
        return self.accounting.answered_share

    def quality(self) -> tuple[float, float]:
        scores = f1_by_bucket(self._records, self.fixture.counts)
        return scores["all"], scores[TAIL]

    def rss_mb(self) -> float:
        return peak_rss_mb(self.pool.worker_pids() if self.pool else ())

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None


def _record_bytes(record) -> tuple:
    return (
        record.sentence_id,
        record.mention_index,
        record.surface,
        record.gold_entity_id,
        record.predicted_entity_id,
        record.candidate_ids.tobytes(),
        record.candidate_scores.tobytes(),
        record.evaluable,
        record.is_weak,
        record.pattern,
        record.tier,
    )


class TrainWorkload(_Workload):
    """``train``: Trainer epochs over fixed-size shards of the training
    split, continuing one seeded model and optimizer."""

    def __init__(self, fixture, seed, trace) -> None:
        super().__init__(fixture, seed, trace)
        self.trainer = None
        self.dataset = None
        self.shards: list[NedDataset] = []
        self.steps = 0
        self.failed_steps = 0
        self.calls = 0
        self.losses: list[float] = []
        self._scored_state = None

    @property
    def cycle(self) -> int:
        return len(self.shards)

    def setup(self) -> None:
        fx = self.fixture
        model = BootlegModel(
            BootlegConfig(num_candidates=NUM_CANDIDATES, seed=self.seed),
            fx.world.kb,
            fx.vocab,
            entity_counts=fx.counts.counts,
        )
        self.dataset = _dataset(fx.world, fx.vocab, fx.corpus, "train")
        self.trainer = Trainer(
            model, self.dataset, TrainConfig(epochs=1, seed=self.seed)
        )
        self.shards = [
            self._shard(indices)
            for indices in train_shards(len(self.dataset), fx.scale, self.seed)
        ]

    def _shard(self, indices: np.ndarray) -> NedDataset:
        """A view of the encoded training set holding only ``indices``."""
        shard = copy.copy(self.dataset)
        shard.encoded = [self.dataset.encoded[int(i)] for i in indices]
        return shard

    def call(self, index: int):
        self.trainer.dataset = self.shards[index % self.cycle]
        return self.trainer.train()

    def absorb(self, index, output, error) -> CallResult:
        shard = self.shards[index % self.cycle]
        steps = math.ceil(len(shard) / self.trainer.config.batch_size)
        self.steps += steps
        self.calls += 1
        if error is not None:
            self.failed_steps += steps
            raise CheckFailed(f"training call raised: {error!r}")
        loss = output[-1].mean_loss
        if not math.isfinite(loss):
            self.failed_steps += steps
            raise CheckFailed(f"non-finite training loss {loss}")
        # Loss and quality are those of the first epoch (one pass over
        # the shards), however many calls fit in the window.
        if self.calls <= self.cycle:
            self.losses.append(loss)
        if self.calls == self.cycle:
            self._scored_state = self.trainer.model.state_dict()
        mentions = sum(item.num_mentions for item in shard.encoded)
        return CallResult(len(shard), mentions)

    def finish(self) -> None:
        if self._scored_state is None:
            raise CheckFailed("the run ended before the scored call")
        self.details["accounting"] = {
            "steps": self.steps,
            "failed_steps": self.failed_steps,
            "failed_share": self.failed_steps / self.steps if self.steps else 0.0,
        }
        self.details["train_loss"] = float(np.mean(self.losses))

    def answered_share(self) -> float:
        return (self.steps - self.failed_steps) / self.steps if self.steps else 0.0

    def quality(self) -> tuple[float, float]:
        fx = self.fixture
        model = self.trainer.model
        model.load_state_dict(self._scored_state)
        records = [
            record
            for split in ("val", "test")
            for record in predict(model, _dataset(fx.world, fx.vocab, fx.corpus, split))
        ]
        scores = f1_by_bucket(records, fx.counts)
        return scores["all"], scores[TAIL]


WORKLOADS = {
    "annotate-pages": lambda fx, seed, trace: AnnotateWorkload(
        fx, seed, trace, cascade=False
    ),
    "annotate-cascade": lambda fx, seed, trace: AnnotateWorkload(
        fx, seed, trace, cascade=True
    ),
    "evaluate-pool": EvaluateWorkload,
    "train": TrainWorkload,
}


def needs_trained_model(name: str) -> bool:
    return name != "train"
