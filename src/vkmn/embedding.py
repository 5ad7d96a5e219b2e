"""Knowledge-entry embeddings: bag-of-words averaging and a TransE trainer.

Both produce the entry-to-vector map used by the memory network. TransE
learns entity/relation vectors so that vec(s) + vec(r) sits close to vec(t)
under a margin ranking loss with filtered negative sampling; entities live
on the unit sphere, relations are unconstrained.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .kernel import Array
from .kb import KnowledgeGraph, read_records


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
        for name in ("margin", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        # epochs=0 is legal: it yields the normalized initialization untouched.
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TransEHistory:
    epoch_loss: List[float] = field(default_factory=list)
    max_norm_error: List[float] = field(default_factory=list)


@dataclass(eq=False)
class EmbeddingTable:
    """Phrase-to-vector store, immutable after construction.

    The dict constructor copies the vectors into read-only matrices, one row
    per phrase in sorted-phrase order; `adopt`, which every maker in this
    module uses, keeps the maker's own matrix instead. `entity_vectors` and
    `relation_vectors` map each phrase to its row, a view. `entity_matrix`,
    `entity_row`, each row's squared norm `entity_sq` and the largest row
    norm `entity_norm_max` let filtered ranking screen every entity at once. A table
    made for a graph keeps it with `graph_rows`, the mask of its entities'
    rows, so ranking against that graph does not rebuild the mask; `graph`
    is None when the table lacks one of the graph's entities. Tables compare
    by identity, and the repr shows only `dim` and `kind`.
    """

    dim: int
    entity_vectors: Dict[str, Array] = field(default_factory=dict, repr=False)
    relation_vectors: Dict[str, Array] = field(default_factory=dict, repr=False)
    kind: str = "transe"
    history: Optional[TransEHistory] = field(default=None, repr=False)
    graph: Optional[KnowledgeGraph] = field(default=None, repr=False)
    entity_matrix: Array = field(init=False, repr=False)
    entity_row: Dict[str, int] = field(init=False, repr=False)
    entity_sq: Array = field(init=False, repr=False)
    entity_norm_max: float = field(init=False, repr=False)
    graph_rows: Optional[Array] = field(init=False, repr=False)

    def __post_init__(self):
        _check_kind(self.kind)
        for m in (self.entity_vectors, self.relation_vectors):
            for phrase, vec in m.items():
                if vec.shape != (self.dim,):
                    raise ValueError(f"vector for {phrase!r} has shape {vec.shape}, want ({self.dim},)")
                if not np.isfinite(vec).all():
                    raise ValueError(f"vector for {phrase!r} holds a non-finite value")
        self.entity_matrix, self.entity_vectors = _read_only_rows(self.entity_vectors, self.dim)
        _, self.relation_vectors = _read_only_rows(self.relation_vectors, self.dim)
        self._index_entities()

    def _index_entities(self):
        self.entity_row = dict(zip(self.entity_vectors, range(len(self.entity_vectors))))
        self.entity_sq = np.einsum("ij,ij->i", self.entity_matrix, self.entity_matrix)
        self.entity_sq.flags.writeable = False
        self.entity_norm_max = math.sqrt(self.entity_sq.max()) if len(self.entity_sq) else 0.0
        self.graph_rows = None
        if self.graph is not None:
            try:
                self.graph_rows = _graph_rows(self, self.graph)
            except KeyError:
                self.graph = None

    @classmethod
    def adopt(cls, dim: int, phrases: List[str], matrix: Array,
              relation_vectors: Dict[str, Array], kind: str = "transe",
              graph: Optional[KnowledgeGraph] = None,
              history: Optional[TransEHistory] = None) -> "EmbeddingTable":
        """A table that keeps `matrix` itself, made read-only, as its entity
        matrix: row i is the vector of phrases[i], phrases sorted. The
        relation vectors are kept as given; they must be read-only. The
        table is built without the dict constructor's stacking pass."""
        _check_kind(kind)
        if matrix.shape != (len(phrases), dim) or phrases != sorted(phrases):
            raise ValueError("an adopted matrix needs one row per phrase, phrases sorted")
        table = cls.__new__(cls)
        table.dim, table.kind, table.history, table.graph = dim, kind, history, graph
        matrix.flags.writeable = False
        table.entity_matrix, table.entity_vectors = matrix, dict(zip(phrases, matrix))
        table.relation_vectors = dict(sorted(relation_vectors.items()))
        table._index_entities()
        return table


def _check_kind(kind: str) -> None:
    if kind not in ("transe", "bow"):
        raise ValueError(f"unknown table kind {kind!r}")


def _read_only_rows(vectors: Dict[str, Array], dim: int):
    """Stack the vectors, in sorted-phrase order, into one read-only matrix;
    return it with the phrase-to-row-view map."""
    phrases = sorted(vectors)
    matrix = np.array([vectors[p] for p in phrases]) if phrases else np.zeros((0, dim))
    matrix.flags.writeable = False
    return matrix, dict(zip(phrases, matrix))


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


def _vector(table: EmbeddingTable, entry: str, is_relation: bool) -> Array:
    vec = _lookup(table, entry, is_relation)
    if vec is None:
        raise KeyError(f"entry {entry!r} not in embedding table")
    return vec


def _scores(base: Array, tails: Array) -> Array:
    """The TransE score of every row t of `tails`: -||base - t||_2, with
    base = vec(s) + vec(r). The one score expression: transe_score applies
    it to a single row, ranking to the entity rows its screen cannot order,
    and a row's bits do not depend on which other rows share the call, so
    both give the same bits for the same triple. These are the operations of
    -np.linalg.norm(base - tails, axis=1), bit for bit, without its extra
    temporaries."""
    diff = base - tails
    diff *= diff
    return -np.sqrt(diff.sum(axis=1))


def _head(table: EmbeddingTable, s: str, r: str) -> Array:
    return _vector(table, s, False) + _vector(table, r, True)


def transe_score(s: str, r: str, t: str, table: EmbeddingTable) -> float:
    """Triple plausibility: -||vec(s) + vec(r) - vec(t)||_2, 0 is the maximum."""
    base = _head(table, s, r)
    return float(_scores(base, _vector(table, t, False)[np.newaxis])[0])


def embed_entry(entry: str, table: EmbeddingTable, is_relation: bool = False) -> Array:
    """Phi: map any phrase to a dim-length vector, never failing.

    transe tables look the phrase up by role; unknown phrases fall back to a
    token mean over entity_vectors, then to the zero vector. bow tables
    always take the token mean.
    """
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

    Each update reads and writes the rows of the entity and relation
    matrices through row views, and takes every norm as sqrt(v . v): the
    operations np.linalg.norm runs on a vector, so the vectors and the
    history are bit for bit those of indexing the matrices and calling it.
    An epoch that leaves a non-finite loss, entity or relation vector (an
    lr so large that the updates overflow) raises RuntimeError naming the
    epoch and the lr; the epochs run with NumPy's overflow and invalid-value
    warnings off, so that error is all such a run reports.
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
    ent_rows, rel_rows = list(ent), list(rel)  # views: updates land in ent and rel
    draw, margin = rng.integers, config.margin
    # lr and the merge's +0.0 start as 0-d float64 arrays: NumPy combines
    # them with a row faster than a Python number, with the same arithmetic
    lr, zero = np.array(config.lr, dtype=np.float64), np.zeros(())

    # an overflowing update is caught as a non-finite epoch below, so NumPy's
    # overflow and invalid-value warnings on the way there are not printed
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            total = 0.0
            for i in rng.permutation(len(triples)).tolist():
                si, ri, ti = triples[i]
                for _ in range(config.negatives_per_positive):
                    corrupt_head = bool(draw(2))
                    for _ in range(100):
                        j = int(draw(n_e))
                        nh, nt = (j, ti) if corrupt_head else (si, j)
                        if (nh, ri, nt) not in stored:
                            break
                    else:
                        continue
                    r = rel_rows[ri]
                    v_pos = ent_rows[si] + r - ent_rows[ti]
                    v_neg = ent_rows[nh] + r - ent_rows[nt]
                    d_pos = math.sqrt(v_pos.dot(v_pos))
                    d_neg = math.sqrt(v_neg.dot(v_neg))
                    loss = margin + d_pos - d_neg
                    if loss <= 0:
                        continue
                    total += loss
                    # d||v|| / dv = v/||v||; a zero-length difference has no
                    # usable direction, so its gradient is dropped.
                    g_pos = v_pos / d_pos if d_pos > 1e-12 else np.zeros(dim)
                    g_neg = v_neg / d_neg if d_neg > 1e-12 else np.zeros(dim)
                    ent_grads: Dict[int, Array] = {}
                    for idx, g in ((si, g_pos), (ti, -g_pos), (nh, -g_neg), (nt, g_neg)):
                        ent_grads[idx] = ent_grads.get(idx, zero) + g
                    r -= lr * (g_pos - g_neg)
                    for idx, g in ent_grads.items():
                        row = ent_rows[idx]
                        row -= lr * g
                        row /= math.sqrt(row.dot(row))
            history.epoch_loss.append(total / max(1, len(triples)))
            norms = np.linalg.norm(ent, axis=1)
            history.max_norm_error.append(float(np.max(np.abs(norms - 1.0))))
            # a NaN entity row makes its norm error NaN
            if not (math.isfinite(history.epoch_loss[-1])
                    and math.isfinite(history.max_norm_error[-1]) and np.isfinite(rel).all()):
                raise RuntimeError(f"TransE diverged: non-finite loss or vectors after epoch "
                                   f"{epoch} at lr {config.lr}")

    rel.flags.writeable = False
    return EmbeddingTable.adopt(dim, entities, ent, dict(zip(relations, rel)),
                                graph=graph, history=history)


def make_bow_table(graph: KnowledgeGraph, dim: int, seed: int = 0) -> EmbeddingTable:
    """Seeded random word table over every token in the graph's entries.

    Stand-in for pretrained word vectors when none are supplied; frozen like
    any other Phi source.
    """
    tokens = sorted({tok for phrase in graph.entry_set() for tok in phrase.split()})
    rng = np.random.default_rng(seed)
    vecs = rng.uniform(-0.5, 0.5, size=(len(tokens), dim))
    return EmbeddingTable.adopt(dim, tokens, vecs, {}, kind="bow")


def _graph_rows(table: EmbeddingTable, graph: KnowledgeGraph) -> Array:
    """Mask over the rows of table.entity_matrix: true at the graph's entities."""
    try:
        rows = np.fromiter(map(table.entity_row.__getitem__, graph.entities),
                           dtype=np.intp, count=len(graph.entities))
    except KeyError as e:
        raise KeyError(f"entry {e.args[0]!r} not in embedding table") from None
    in_graph = np.zeros(len(table.entity_row), dtype=bool)
    in_graph[rows] = True
    return in_graph


def _rows_of(table: EmbeddingTable, graph: KnowledgeGraph) -> Array:
    """The table's own mask when graph is the one it was made for, else a new one."""
    return table.graph_rows if graph is table.graph else _graph_rows(table, graph)


_UNIT_ROUNDOFF = 2.0 ** -53  # u: float64 rounds to nearest within a factor 1 +- u


def _screen_tolerance(dim: int, base_norm: float, norm_max: float) -> float:
    """How far apart two rows' screen values must be for their exact scores
    to be strictly ordered the same way; inf where no bound is made.

    With n = dim, B = ||base||, R the largest row norm and S = (R + B)^2, let
    g = gamma_{n+2} = (n+2)u / (1 - (n+2)u). A sum of n rounded products,
    in any order and with or without FMA, is within gamma_n of the sum of
    the products' magnitudes (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1). So:

    - the screen value approx(e) = fl(||e||^2 - fl(e . 2 base)) is within
      gamma_n R^2 + gamma_n 2RB plus u of the result, under g S, of the
      real a(e) = ||e||^2 - 2 e . base = D(e) - B^2, D(e) = ||base - e||^2;
    - the sum that _scores takes the root of, D~(e), the rounded squares of
      the rounded differences, is within g D(e) <= g S of D(e).

    Hence approx(e) < approx(t) - tol implies D~(e) < D~(t) - tol + 4gS. The
    root cannot then merge the two: for floats x < y - m with m >= 4u y,
    sqrt y - sqrt x = (y - x) / (sqrt y + sqrt x) > 2u sqrt y, more than the
    u sqrt y + u sqrt x that rounding both roots can take back, so the
    scores stay strictly ordered, with no tie. y <= (1 + g) S, so tol needs
    4gS + 4u(1 + g)S = (4n + 12) u S plus terms in (n u)^2 u S. It takes
    (4n + 16) u S: for n < 10^6 the spare 4u S covers those terms and the
    rounding of B, R and S themselves (each within (n + 6) u), and the
    same holds with e and t swapped. The bounds above are relative, so
    products that underflow (or are flushed to zero) can lose up to 2^-1022
    each; the two rows take 6n products, and n 2^-1000 covers them. Where
    S is not below 2^1000 (or is NaN, from a non-finite vector) the sums
    could overflow, and where n is 10^6 or more the spare may not suffice:
    there the tolerance is inf, and every row is scored exactly.
    """
    scale = (norm_max + base_norm) * (norm_max + base_norm)
    if not (scale < 2.0 ** 1000 and dim < 10 ** 6):
        return math.inf
    return (4 * dim + 16) * _UNIT_ROUNDOFF * scale + dim * 2.0 ** -1000


def _filtered_rank(s: str, r: str, t: str, table: EmbeddingTable,
                   graph: KnowledgeGraph, in_graph: Array) -> int:
    if t not in graph.entities:
        raise ValueError(f"tail {t!r} is not an entity of the graph")
    base = _head(table, s, r)
    row_t = table.entity_row[t]
    # The screen: approx = ||e||^2 - 2 e . base, which is ||base - e||^2 less
    # ||base||^2, for every row in one matrix-vector product. A row more than
    # tol below t's scores above t, one more than tol above it scores below.
    approx = table.entity_sq - table.entity_matrix @ (base + base)
    at = approx.item(row_t)
    tol = _screen_tolerance(table.dim, math.sqrt(base.dot(base)), table.entity_norm_max)
    ahead = approx < at - tol
    # the rows within tol, t among them; every row when tol is inf, since
    # every comparison with at +- inf (or NaN, when at is not finite) fails
    rows = ((approx > at + tol) == ahead).nonzero()[0]
    if len(rows) > 1:
        scores = _scores(base, table.entity_matrix[rows])
        true = scores[rows.searchsorted(row_t)]
        # Rows are in name order, so "ties, name before t" is "ties, row before t".
        ahead[rows] = (scores > true) | ((scores == true) & (rows < row_t))
    ahead &= in_graph
    triples = graph.triples
    for tid in graph.entry_index.get(s, ()):
        other = triples[tid]
        if other.relation == r and other.subject == s and other.target != t:
            ahead[table.entity_row[other.target]] = False
    return 1 + int(np.count_nonzero(ahead))


def rank_tail(s: str, r: str, t: str, table: EmbeddingTable, graph: KnowledgeGraph) -> int:
    """Filtered 1-based rank of the true tail t among the graph's entities.

    Other stored tails for (s, r) are removed from the candidate pool;
    candidates order by score descending, name ascending. One product with
    table.entity_matrix screens every entity, and only the entities it
    cannot order against t are scored exactly; the rank is that of scoring
    them all.
    """
    return _filtered_rank(s, r, t, table, graph, _rows_of(table, graph))


def mean_tail_rank(graph: KnowledgeGraph, table: EmbeddingTable) -> float:
    in_graph = _rows_of(table, graph)
    ranks = [_filtered_rank(t.subject, t.relation, t.target, table, graph, in_graph)
             for t in graph.triples]
    return float(np.mean(ranks))


RELATION_ROW = "\\rel:"  # marks the relation row of a dual-role phrase
_ESCAPE = re.compile(r"\\(.?)|_")


def _encode_phrase(phrase: str) -> str:
    return phrase.replace("\\", "\\\\").replace("_", "\\_").replace(" ", "_")


def _decode_phrase(name: str) -> str:
    if "\\" not in name:
        return name.replace("_", " ")

    def unescape(m: "re.Match[str]") -> str:
        if m.group(0) == "_":
            return " "
        if m.group(1) in ("\\", "_"):
            return m.group(1)
        raise ValueError(f"bad escape {m.group(0)!r} in phrase {name!r}")

    return _ESCAPE.sub(unescape, name)


def save_embeddings(table: EmbeddingTable, path: str) -> None:
    r"""Text format: header `<count> <dim>`, then `<name> v1 .. v_dim` per
    line, sorted by phrase. The name is the phrase with `\` written `\\`,
    `_` written `\_` and each space written `_`. 17 significant digits make
    the round trip lossless. A phrase present only as an entity or only as
    a relation is written once; a phrase present as both is written twice:
    its entity vector under its name, its relation vector under
    `\rel:<name>`."""
    rows = []
    for phrase in sorted(table.entity_vectors.keys() | table.relation_vectors.keys()):
        name = _encode_phrase(phrase)
        if phrase in table.entity_vectors:
            rows.append((name, table.entity_vectors[phrase]))
            if phrase in table.relation_vectors:
                rows.append((RELATION_ROW + name, table.relation_vectors[phrase]))
        else:
            rows.append((name, table.relation_vectors[phrase]))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(rows)} {table.dim}\n")
        for name, vec in rows:
            vals = " ".join(f"{v:.17g}" for v in vec)
            f.write(f"{name} {vals}\n")


def load_embeddings(path: str, graph: Optional[KnowledgeGraph] = None,
                    kind: str = "transe") -> EmbeddingTable:
    r"""Read the text format back. A `\rel:` row is a relation vector.
    Other rows are routed, with a graph, to the entity/relation map their
    phrase belongs to (both when dual-role, unless a `\rel:` row gives the
    relation vector); without a graph they land in entity_vectors. Files
    from before the escapes load unchanged: a bare `_` is still a space.

    Rows are parsed straight into one matrix that the table adopts, entity
    rows from the top and relation-only rows from the bottom; only a file
    whose entity rows are out of phrase order costs a second, sorted copy.
    """
    count = dim = 0  # from the header, the first non-blank line
    seen: Set[str] = set()
    values = np.zeros((0, 0))
    top = bottom = 0  # the next entity row; one past the next relation row
    entity_rows: Dict[str, int] = {}
    relation_rows: Dict[str, int] = {}

    def parse(line: str) -> None:
        nonlocal count, dim, values, top, bottom
        if not dim:
            try:
                count, dim = (int(h) for h in line.split())
            except ValueError:
                raise ValueError("expected '<count> <dim>' header") from None
            if dim < 1:
                raise ValueError(f"dim must be >= 1, got {dim}")
            # a row takes at least 2 * dim + 1 bytes, so a header can claim
            # no more rows than the file holds
            bottom = max(0, min(count, os.path.getsize(path) // (2 * dim + 1)))
            values = np.empty((bottom, dim))
            return
        fields = line.split(" ")
        if len(fields) != dim + 1:
            raise ValueError(f"expected phrase + {dim} values")
        name = fields[0]
        relation_row = name.startswith(RELATION_ROW)
        phrase = _decode_phrase(name[len(RELATION_ROW):] if relation_row else name)
        if not phrase:
            raise ValueError("empty phrase")
        # float is the parser NumPy's str -> float64 cast calls: same bits,
        # same accepted strings, same errors
        vec = list(map(float, fields[1:]))
        if not all(map(math.isfinite, vec)):
            raise ValueError("non-finite value")
        if name in seen:
            raise ValueError(f"duplicate row for {phrase!r}")
        if top == bottom:
            raise ValueError(f"more rows than the header's {count}")
        seen.add(name)
        in_relations = graph is not None and phrase in graph.relations
        if relation_row or (in_relations and phrase not in graph.entities):
            bottom -= 1
            values[bottom] = vec
            row = bottom
        else:
            values[top] = vec
            entity_rows[phrase] = row = top
            top += 1
        if relation_row:
            relation_rows[phrase] = row  # a `\rel:` row wins, before or after
        elif in_relations:
            relation_rows.setdefault(phrase, row)

    for _ in read_records(path, parse):
        pass
    if not dim:
        raise ValueError(f"{path}: no '<count> <dim>' header")
    if len(seen) != count:
        raise ValueError(f"{path}: header says {count} rows, found {len(seen)}")
    # what parsing kept goes before the table builds its own phrase maps
    seen.clear()
    values.flags.writeable = False
    phrases = sorted(entity_rows)
    order = [entity_rows[p] for p in phrases]
    entity_rows.clear()
    entities = values[:top] if order == list(range(top)) else values[order]
    del order
    return EmbeddingTable.adopt(dim, phrases, entities,
                                {p: values[r] for p, r in relation_rows.items()},
                                kind=kind, graph=graph)
