"""Knowledge-entry embeddings: bag-of-words averaging and a TransE trainer.

Both produce the entry-to-vector map used by the memory network. TransE
learns entity/relation vectors so that vec(s) + vec(r) sits close to vec(t)
under a margin ranking loss with filtered negative sampling; entities live
on the unit sphere, relations are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .kernel import Array
from .kb import KnowledgeGraph


@dataclass
class TransEConfig:
    dim: int = 300
    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 1000
    negatives_per_positive: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        # epochs=0 is legal: it yields the normalized initialization untouched.
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")


@dataclass
class TransEHistory:
    epoch_loss: List[float] = field(default_factory=list)
    max_norm_error: List[float] = field(default_factory=list)


@dataclass
class EmbeddingTable:
    """Phrase-to-vector store; `lookups` counts embed_entry calls."""

    dim: int
    entity_vectors: Dict[str, Array] = field(default_factory=dict)
    relation_vectors: Dict[str, Array] = field(default_factory=dict)
    kind: str = "transe"
    lookups: int = field(default=0, compare=False)
    history: Optional[TransEHistory] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ("transe", "bow"):
            raise ValueError(f"unknown table kind {self.kind!r}")
        for m in (self.entity_vectors, self.relation_vectors):
            for phrase, vec in m.items():
                if vec.shape != (self.dim,):
                    raise ValueError(f"vector for {phrase!r} has shape {vec.shape}, want ({self.dim},)")


def bow_embed(entry: str, word_table: Dict[str, Array], dim: Optional[int] = None) -> Array:
    """Mean of the entry's token vectors; unknown tokens contribute zero
    but still count in the denominator."""
    if not entry:
        raise ValueError("entry must be non-empty")
    tokens = entry.split()
    if dim is None:
        if not word_table:
            raise ValueError("cannot infer dim from an empty word table")
        dim = next(iter(word_table.values())).shape[0]
    acc = np.zeros(dim, dtype=np.float64)
    for tok in tokens:
        vec = word_table.get(tok)
        if vec is not None:
            acc += vec
    return acc / len(tokens)


def _lookup(table: EmbeddingTable, entry: str, is_relation: bool) -> Optional[Array]:
    first, second = (table.relation_vectors, table.entity_vectors)
    if not is_relation:
        first, second = second, first
    if entry in first:
        return first[entry]
    if entry in second:
        return second[entry]
    return None


def transe_score(s: str, r: str, t: str, table: EmbeddingTable) -> float:
    """Triple plausibility: -||vec(s) + vec(r) - vec(t)||_2, 0 is the maximum."""
    parts = []
    for entry, is_rel in ((s, False), (r, True), (t, False)):
        vec = _lookup(table, entry, is_rel)
        if vec is None:
            raise KeyError(f"entry {entry!r} not in embedding table")
        parts.append(vec)
    return -float(np.linalg.norm(parts[0] + parts[1] - parts[2]))


def embed_entry(entry: str, table: EmbeddingTable, is_relation: bool = False) -> Array:
    """Phi: map any phrase to a dim-length vector, never failing.

    transe tables look the phrase up by role; unknown phrases fall back to a
    token mean over entity_vectors, then to the zero vector. bow tables
    always take the token mean.
    """
    table.lookups += 1
    if table.kind == "bow":
        return bow_embed(entry, table.entity_vectors, table.dim)
    vec = _lookup(table, entry, is_relation)
    if vec is not None:
        return vec
    return bow_embed(entry, table.entity_vectors, table.dim)


def train_transe(graph: KnowledgeGraph, config: TransEConfig) -> EmbeddingTable:
    """Margin-ranking SGD over the graph's triples.

    Per positive: corrupt head or tail uniformly, resampling until the
    corruption is not a stored triple (filtered negatives; a corruption
    slot is skipped after 100 failed draws). Entities touched by an update
    are renormalized to unit norm immediately after it.
    """
    entities = sorted(graph.entities)
    relations = sorted(graph.relations)
    if len(entities) < 2:
        raise ValueError("TransE needs >= 2 entities to corrupt triples")
    ent_idx = {e: i for i, e in enumerate(entities)}
    rel_idx = {r: i for i, r in enumerate(relations)}
    n_e, dim = len(entities), config.dim

    rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, size=(n_e, dim))
    rel = rng.uniform(-bound, bound, size=(len(relations), dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)

    triples = [(ent_idx[t.subject], rel_idx[t.relation], ent_idx[t.target])
               for t in graph.triples]
    stored = set(triples)
    history = TransEHistory()

    def dissim(si: int, ri: int, ti: int):
        v = ent[si] + rel[ri] - ent[ti]
        return v, float(np.linalg.norm(v))

    for _ in range(config.epochs):
        total = 0.0
        for i in rng.permutation(len(triples)):
            si, ri, ti = triples[i]
            for _ in range(config.negatives_per_positive):
                corrupt_head = bool(rng.integers(2))
                neg = None
                for _ in range(100):
                    j = int(rng.integers(n_e))
                    cand = (j, ri, ti) if corrupt_head else (si, ri, j)
                    if cand not in stored:
                        neg = cand
                        break
                if neg is None:
                    continue
                v_pos, d_pos = dissim(si, ri, ti)
                v_neg, d_neg = dissim(*neg)
                loss = config.margin + d_pos - d_neg
                if loss <= 0:
                    continue
                total += loss
                # d||v|| / dv = v/||v||; a zero-length difference has no
                # usable direction, so its gradient is dropped.
                g_pos = v_pos / d_pos if d_pos > 1e-12 else np.zeros(dim)
                g_neg = v_neg / d_neg if d_neg > 1e-12 else np.zeros(dim)
                ent_grads: Dict[int, Array] = {}
                for idx, g in ((si, g_pos), (ti, -g_pos), (neg[0], -g_neg), (neg[2], g_neg)):
                    ent_grads[idx] = ent_grads.get(idx, 0) + g
                rel[ri] -= config.lr * (g_pos - g_neg)
                for idx, g in ent_grads.items():
                    ent[idx] -= config.lr * g
                    ent[idx] /= np.linalg.norm(ent[idx])
        history.epoch_loss.append(total / max(1, len(triples)))
        norms = np.linalg.norm(ent, axis=1)
        history.max_norm_error.append(float(np.max(np.abs(norms - 1.0))))

    return EmbeddingTable(
        dim=dim,
        entity_vectors={e: ent[i].copy() for e, i in ent_idx.items()},
        relation_vectors={r: rel[i].copy() for r, i in rel_idx.items()},
        kind="transe",
        history=history,
    )


def make_bow_table(graph: KnowledgeGraph, dim: int, seed: int = 0) -> EmbeddingTable:
    """Seeded random word table over every token in the graph's entries.

    Stand-in for pretrained word vectors when none are supplied; frozen like
    any other Phi source.
    """
    tokens = sorted({tok for phrase in graph.entry_set().combined for tok in phrase.split()})
    rng = np.random.default_rng(seed)
    vecs = rng.uniform(-0.5, 0.5, size=(len(tokens), dim))
    return EmbeddingTable(
        dim=dim,
        entity_vectors={t: vecs[i].copy() for i, t in enumerate(tokens)},
        kind="bow",
    )


def rank_tail(s: str, r: str, t: str, table: EmbeddingTable, graph: KnowledgeGraph) -> int:
    """Filtered 1-based rank of the true tail t among all entities.

    Other stored tails for (s, r) are removed from the candidate pool;
    candidates sort by score descending, name ascending.
    """
    other_tails = {tr.target for tr in graph.triples
                   if tr.subject == s and tr.relation == r and tr.target != t}
    candidates = [e for e in graph.entities if e not in other_tails]
    scored = sorted(candidates, key=lambda e: (-transe_score(s, r, e, table), e))
    return scored.index(t) + 1


def mean_tail_rank(graph: KnowledgeGraph, table: EmbeddingTable) -> float:
    ranks = [rank_tail(t.subject, t.relation, t.target, table, graph)
             for t in graph.triples]
    return float(np.mean(ranks))


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    """Text format: header `<count> <dim>`, then `<phrase> v1 .. v_dim` per
    line with spaces in the phrase replaced by underscores. 17 significant
    digits make the round trip lossless. The file has a single phrase
    namespace; a phrase present as both entity and relation is written once
    with its entity vector."""
    rows: Dict[str, Array] = {}
    for phrase in sorted(table.relation_vectors):
        rows[phrase] = table.relation_vectors[phrase]
    for phrase in sorted(table.entity_vectors):
        rows[phrase] = table.entity_vectors[phrase]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(rows)} {table.dim}\n")
        for phrase in sorted(rows):
            vals = " ".join(f"{v:.17g}" for v in rows[phrase])
            f.write(f"{phrase.replace(' ', '_')} {vals}\n")


def load_embeddings(path: str, graph: Optional[KnowledgeGraph] = None,
                    kind: str = "transe") -> EmbeddingTable:
    """Read the text format back. With a graph, phrases are routed to the
    entity/relation map they belong to (both when dual-role); without one,
    everything lands in entity_vectors."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}:1: expected '<count> <dim>' header")
        count, dim = int(header[0]), int(header[1])
        entity_vectors: Dict[str, Array] = {}
        relation_vectors: Dict[str, Array] = {}
        n = 0
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            if len(fields) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected phrase + {dim} values")
            phrase = fields[0].replace("_", " ")
            vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            is_rel = graph is not None and phrase in graph.relations
            is_ent = graph is None or phrase in graph.entities
            if is_rel:
                relation_vectors[phrase] = vec
            if is_ent or not is_rel:
                entity_vectors[phrase] = vec
            n += 1
        if n != count:
            raise ValueError(f"{path}: header says {count} rows, found {n}")
    return EmbeddingTable(dim=dim, entity_vectors=entity_vectors,
                          relation_vectors=relation_vectors, kind=kind)
