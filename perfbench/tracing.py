"""Outside-in layer tracing.

The benchmark wraps the public entry point of each layer from here, so
the program under test carries no tracing of its own. Each wrapper is a
span: it records the call count and the inclusive and self seconds
(inclusive minus the time its traced children took), and optional
per-layer counters derived from the call's arguments and result.
"""

from __future__ import annotations

import time
from collections import defaultdict


class LayerTracer:
    """Span stack plus per-layer totals for the wrapped calls."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.surfaces: set[str] = set()
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, count=None) -> None:
        """Replace ``owner.attr`` with a timed span named ``layer``.

        ``count(tracer, args, kwargs, result)`` runs after the call and
        may add to :attr:`counters`.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        children = self._children
        calls, inclusive, self_seconds = self.calls, self.inclusive, self.self_seconds
        tracer = self

        def span(*args, **kwargs):
            children.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                child = children.pop()
                if children:
                    children[-1] += elapsed
                calls[layer] += 1
                inclusive[layer] += elapsed
                self_seconds[layer] += elapsed - child
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        span.__wrapped__ = original
        setattr(owner, attr, span)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def accounted_seconds(self) -> float:
        """Sum of self times: the wall time covered by any span."""
        return sum(self.self_seconds.values())


def _count_detect(tracer, args, kwargs, result):
    tracer.counters["detect.mentions"] += len(result)


def _count_adjacency(tracer, args, kwargs, result):
    tracer.counters["kg.adjacency_cells"] += result.size  # L x L


def _count_encoded(tracer, args, kwargs, result):
    tracer.counters["dataset.encode_sentences"] += len(args[0].encoded)


def _count_collate(tracer, args, kwargs, result):
    items = args[1]
    tracer.counters["dataset.real_token_cells"] += sum(i.num_tokens for i in items)
    tracer.counters["dataset.padded_token_cells"] += result.token_ids.size


def _count_tier0(tracer, args, kwargs, result):
    from repro.kb.aliases import normalize_alias

    tracer.counters["tier0.answered"] += int(result.answered)
    tracer.surfaces.add(normalize_alias(args[1]))


def install_layer_hooks(tracer: LayerTracer) -> None:
    """Wrap the public call of every layer the benchmark reports."""
    import repro.core.annotator as annotator_module
    import repro.core.trainer as trainer_module
    import repro.corpus.tokenizer as tokenizer_module
    from repro.cascade.tier0 import Tier0Linker
    from repro.core.annotator import BootlegAnnotator
    from repro.core.embeddings import EntityEmbedder
    from repro.core.model import BootlegModel
    from repro.core.modules import Ent2Ent, KG2Ent, Phrase2Ent
    from repro.core.trainer import Trainer
    from repro.corpus.dataset import NedDataset
    from repro.kb.aliases import CandidateMap
    from repro.kb.knowledge_graph import KnowledgeGraph
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.parallel.pool import AnnotatorPool
    from repro.text.encoder import MiniBert

    # The annotator and the trainer's `predict` bind these by name.
    tracer.wrap(tokenizer_module, "tokenize", "tokenizer")
    tracer.wrap(annotator_module, "tokenize", "tokenizer")
    tracer.wrap(trainer_module, "predict_batches", "predict")
    tracer.wrap(annotator_module, "predict_batches", "predict")
    tracer.wrap(BootlegAnnotator, "detect_mentions", "detect", _count_detect)
    tracer.wrap(BootlegAnnotator, "annotate_batch", "annotator")
    tracer.wrap(CandidateMap, "candidate_arrays", "aliases")
    tracer.wrap(
        KnowledgeGraph, "candidate_adjacency", "kg.adjacency", _count_adjacency
    )
    tracer.wrap(NedDataset, "__init__", "dataset.encode", _count_encoded)
    tracer.wrap(NedDataset, "collate", "dataset.collate", _count_collate)
    tracer.wrap(BootlegModel, "forward", "model")
    tracer.wrap(MiniBert, "forward", "encoder")
    tracer.wrap(EntityEmbedder, "forward", "embedder")
    tracer.wrap(EntityEmbedder, "forward_cached", "embedder")
    tracer.wrap(Phrase2Ent, "forward", "phrase2ent")
    tracer.wrap(Ent2Ent, "forward", "ent2ent")
    tracer.wrap(KG2Ent, "forward", "kg2ent")
    tracer.wrap(Trainer, "train", "trainer")
    tracer.wrap(Tier0Linker, "resolve", "tier0", _count_tier0)
    tracer.wrap(AnnotatorPool, "predict_batches", "pool.predict")
    tracer.wrap(Tensor, "backward", "nn.backward")
    tracer.wrap(Adam, "step", "optim.step")


def layer_metrics(tracer: LayerTracer, wall_seconds: float) -> dict[str, float]:
    """Per-layer metric values from one traced window."""
    calls, inc, own, cnt = (
        tracer.calls, tracer.inclusive, tracer.self_seconds, tracer.counters
    )
    padded = cnt["dataset.padded_token_cells"]
    tier0_calls = calls["tier0"]
    return {
        "tokenizer.calls": calls["tokenizer"],
        "tokenizer.s": own["tokenizer"],
        "detect.calls": calls["detect"],
        "detect.mentions": cnt["detect.mentions"],
        "detect.s": own["detect"],
        "annotator.self_s": own["annotator"],
        "aliases.lookups": calls["aliases"],
        "aliases.s": own["aliases"],
        "kg.adjacency_calls": calls["kg.adjacency"],
        "kg.adjacency_s": own["kg.adjacency"],
        "kg.adjacency_cells": cnt["kg.adjacency_cells"],
        "dataset.encode_sentences": cnt["dataset.encode_sentences"],
        "dataset.encode_s": own["dataset.encode"],
        "dataset.batches": calls["dataset.collate"],
        "dataset.collate_s": own["dataset.collate"],
        "dataset.pad_ratio": (
            cnt["dataset.real_token_cells"] / padded if padded else 0.0
        ),
        "model.batches": calls["model"],
        "model.forward_s": inc["model"],
        "encoder.s": own["encoder"],
        "embedder.s": own["embedder"],
        "phrase2ent.s": own["phrase2ent"],
        "ent2ent.s": own["ent2ent"],
        "kg2ent.s": own["kg2ent"],
        "predict.decode_s": own["predict"],
        "trainer.self_s": own["trainer"],
        "tier0.calls": tier0_calls,
        "tier0.s": own["tier0"],
        "tier0.answered_ratio": (
            cnt["tier0.answered"] / tier0_calls if tier0_calls else 0.0
        ),
        "tier0.distinct_surface_ratio": (
            len(tracer.surfaces) / tier0_calls if tier0_calls else 0.0
        ),
        "pool.predict_s": own["pool.predict"],
        "nn.backward_s": own["nn.backward"],
        "optim.step_s": own["optim.step"],
        "trace.unaccounted_share": (
            1.0 - tracer.accounted_seconds() / wall_seconds if wall_seconds else 0.0
        ),
    }
