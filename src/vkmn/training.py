"""End-to-end trainer, per-answer-type evaluation, gradient checking, and a
seeded synthetic benchmark.

Training is plain per-example SGD in seeded shuffled order over the memory
`retrieve` gives each distinct question once up front. `vkmn query` answers
through `answer_question`: retrieve, forward, argmax. Evaluation gives the
same answers in fewer calls: it retrieves each distinct question once, then
runs its examples, grouped by question, through forward CHUNK_ROWS rows at
a time, each row its own question, image and slots, embedding each slot
triple once per stack. It buckets accuracy by answer type (yes/no, number,
other) and the bucket accuracies recombine exactly to the overall number;
its report's loss curve stays empty unless the caller attaches train's.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .embedding import EmbeddingTable
from .kb import (KnowledgeGraph, Triple, build_graph, lemmatize, read_answer,
                 read_question, read_records)
from .kernel import Array, finite_diff_grad, max_relative_error, sgd_step
from .model import (MODES, ForwardTrace, ModelDims, ModelParams, SlotFeatures,
                    backward, forward, init_params, slot_features)
from .spotting import SlotAssignment, spot_question

ANSWER_TYPES = ("yesno", "number", "other")
# rows per forward in evaluate: a whole split as one stack costs several MB
# on the larger workloads, and 64 rows already run at the stacked speed
CHUNK_ROWS = 64
NUMBER_WORDS = {
    "zero", "one", "two", "three", "four", "five", "six", "seven", "eight",
    "nine", "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen",
    "sixteen", "seventeen", "eighteen", "nineteen", "twenty",
}


def classify_answer_type(answer: str) -> str:
    if not answer:
        raise ValueError("answer must be non-empty")
    a = answer.lower().strip()
    if a in ("yes", "no"):
        return "yesno"
    if a in NUMBER_WORDS:
        return "number"
    try:
        int(a)
        return "number"
    except ValueError:
        return "other"


@dataclass
class VqaExample:
    question_tokens: List[str]
    visual_feature: Array
    answer: str
    answer_type: str = ""

    def __post_init__(self):
        if not self.question_tokens:
            raise ValueError("question must be non-empty")
        if not self.answer:
            raise ValueError("answer must be non-empty")
        self.visual_feature = np.asarray(self.visual_feature, dtype=np.float64)
        if not self.answer_type:
            self.answer_type = classify_answer_type(self.answer)
        if self.answer_type not in ANSWER_TYPES:
            raise ValueError(f"unknown answer type {self.answer_type!r}")


@dataclass
class TrainConfig:
    lr: float = 0.05
    epochs: int = 100
    seed: int = 0
    mode: str = "full"
    dims: ModelDims = field(default_factory=ModelDims)

    def __post_init__(self):
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        # lr = 0 is a legal no-op run (params must come back unchanged)
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


def build_answer_vocab(train_set: Sequence[VqaExample], k: int) -> List[str]:
    """Top-k answers by frequency desc, ties lexicographic."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = Counter(ex.answer for ex in train_set)
    ranked = sorted(counts, key=lambda a: (-counts[a], a))
    return ranked[:k]


def retrieve(tokens: Sequence[str], graph: Optional[KnowledgeGraph],
             table: Optional[EmbeddingTable], mode: str, m_slots: int
             ) -> Tuple[Optional[SlotAssignment], Optional[SlotFeatures]]:
    """One question's memory: its slots and their frozen Phi rows. q_only
    has no memory and reads neither the graph nor the table."""
    if mode == "q_only":
        return None, None
    slots = spot_question(tokens, graph, m_slots)
    return slots, slot_features(slots, table, graph)


def answer_question(tokens: Sequence[str], feature: Array, params: ModelParams,
                    graph: Optional[KnowledgeGraph], table: Optional[EmbeddingTable],
                    mode: str) -> Tuple[str, ForwardTrace, Optional[SlotAssignment]]:
    """Retrieve, forward, argmax: the answer, the trace and the slots read."""
    slots, feats = retrieve(tokens, graph, table, mode, params.dims.m_slots)
    trace = forward(tokens, feature, params, mode, feats)
    return params.answer_vocab[int(np.argmax(trace.logits))], trace, slots


def train(train_set: Sequence[VqaExample], graph: Optional[KnowledgeGraph],
          table: Optional[EmbeddingTable],
          config: TrainConfig) -> Tuple[ModelParams, List[float]]:
    """Per-example SGD; returns the trained params and the mean-loss curve.

    Out-of-vocabulary answers are dropped from the training set up front.
    The answer vocabulary is capped at dims.k_answers and the model output
    layer is sized to what actually survives. W_e is sized to the table's
    width; only q_only, which reads nothing of the table, keeps dims.d_e.
    """
    if not train_set:
        raise ValueError("training set is empty")
    answers = build_answer_vocab(train_set, config.dims.k_answers)
    d_e = config.dims.d_e if config.mode == "q_only" else table.dim
    dims = replace(config.dims, d_e=d_e, k_answers=len(answers))
    vocab = sorted({tok for ex in train_set for tok in ex.question_tokens})
    params = init_params(vocab, answers, dims, seed=config.seed)
    answer_index = {a: i for i, a in enumerate(answers)}

    memory: Dict[Tuple[str, ...], Optional[SlotFeatures]] = {}
    prepared = []
    for ex in train_set:
        label = answer_index.get(ex.answer)
        if label is None:
            continue
        key = tuple(ex.question_tokens)
        if key not in memory:
            memory[key] = retrieve(ex.question_tokens, graph, table, config.mode, dims.m_slots)[1]
        prepared.append((ex, label, memory[key]))

    rng = np.random.default_rng(config.seed)
    curve: List[float] = []
    for _ in range(config.epochs):
        total = 0.0
        for i in rng.permutation(len(prepared)):
            ex, label, feats = prepared[i]
            trace = forward(ex.question_tokens, ex.visual_feature, params,
                            config.mode, feats, label)
            grads = backward(trace, label, params)
            sgd_step(params.matrices, grads, config.lr)
            total += trace.loss
        curve.append(total / len(prepared))
        for name, mat in params.matrices.items():
            if not np.isfinite(mat).all():
                raise RuntimeError(f"non-finite values in {name} after an epoch")
    return params, curve


@dataclass
class EvalReport:
    counts: Dict[str, int]
    correct: Dict[str, int]
    loss_curve: List[float] = field(default_factory=list)

    def accuracy(self, answer_type: str) -> Optional[float]:
        n = self.counts.get(answer_type, 0)
        if n == 0:
            return None
        return self.correct[answer_type] / n

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def accuracy_all(self) -> Optional[float]:
        if self.total == 0:
            return None
        return sum(self.correct.values()) / self.total

    def to_json(self) -> Dict:
        return {
            "counts": dict(self.counts),
            "correct": dict(self.correct),
            "accuracy_all": self.accuracy_all,
            "accuracy_yesno": self.accuracy("yesno"),
            "accuracy_number": self.accuracy("number"),
            "accuracy_other": self.accuracy("other"),
            "loss_curve": list(self.loss_curve),
        }

    def row(self) -> List[str]:
        def fmt(v: Optional[float]) -> str:
            return "-" if v is None else f"{100.0 * v:.1f}"
        return [fmt(self.accuracy_all), fmt(self.accuracy("yesno")),
                fmt(self.accuracy("number")), fmt(self.accuracy("other"))]


REPORT_COLUMNS = ("All", "Y/N", "Num", "Other")


def format_report_table(rows: Sequence[Tuple[str, "EvalReport"]]) -> str:
    """Aligned accuracy table, one row per model, All/Y-N/Num/Other columns."""
    name_w = max(len("Model"), max(len(name) for name, _ in rows))
    header = "Model".ljust(name_w) + "".join(c.rjust(8) for c in REPORT_COLUMNS)
    lines = [header]
    for name, report in rows:
        lines.append(name.ljust(name_w) + "".join(c.rjust(8) for c in report.row()))
    return "\n".join(lines)


def evaluate(test_set: Sequence[VqaExample], params: ModelParams,
             graph: Optional[KnowledgeGraph], table: Optional[EmbeddingTable],
             mode: str) -> EvalReport:
    """Argmax prediction per example, as answer_question gives it; gold
    answers outside the answer vocabulary are automatic misses. Each
    distinct question is retrieved once. The examples, grouped by question,
    then go through forward CHUNK_ROWS at a time as one stack of rows, each
    row its own question, image and slots."""
    by_question: Dict[Tuple[str, ...], List[int]] = {}
    for i, ex in enumerate(test_set):
        by_question.setdefault(tuple(ex.question_tokens), []).append(i)
    # only the slots are kept, not the spotted sets they were ranked from
    slots = {key: None if mode == "q_only" else SlotAssignment(spot_question(
                 test_set[indices[0]].question_tokens, graph, params.dims.m_slots).slots)
             for key, indices in by_question.items()}
    order = [i for indices in by_question.values() for i in indices]
    counts = {t: 0 for t in ANSWER_TYPES}
    correct = {t: 0 for t in ANSWER_TYPES}
    d = params.dims.d
    for start in range(0, len(order), CHUNK_ROWS):
        chunk = order[start:start + CHUNK_ROWS]
        rows = [test_set[i] for i in chunk]
        shapes = {ex.visual_feature.shape for ex in rows}
        # the images must stack, and every mode but blind reads them as (d,)
        if len(shapes) > 1 or (mode != "blind" and shapes != {(d,)}):
            i = next(i for i in chunk if test_set[i].visual_feature.shape != (d,))
            raise ValueError(f"test_set[{i}]: visual feature shape "
                             f"{test_set[i].visual_feature.shape}, want ({d},)")
        tokens = [ex.question_tokens for ex in rows]
        feats = None if mode == "q_only" else slot_features(
            [slots[tuple(q)] for q in tokens], table, graph)
        logits = forward(tokens, np.stack([ex.visual_feature for ex in rows]),
                         params, mode, feats).logits
        for ex, idx in zip(rows, np.argmax(logits, axis=1)):
            counts[ex.answer_type] += 1
            correct[ex.answer_type] += int(params.answer_vocab[idx] == ex.answer)
    return EvalReport(counts=counts, correct=correct)


# --- gradient checking ----------------------------------------------------------

def gradient_check(config: TrainConfig, seed: int = 0) -> float:
    """Analytic backward vs central finite differences on one random
    instance: a 3-triple KB, 3 real slots plus padding, one out-of-vocab
    question token. Returns the max relative error over every parameter
    entry of every matrix."""
    dims = config.dims
    rng = np.random.default_rng(seed)
    triples = [Triple("alpha", "near", "beta"),
               Triple("beta", "above", "gamma"),
               Triple("gamma", "near", "alpha")]
    graph = build_graph(triples)
    vocab = sorted({tok for e in graph.entry_set() for tok in e.split()})

    if config.mode == "bow":
        table = EmbeddingTable(
            dim=dims.d_e,
            entity_vectors={t: rng.standard_normal(dims.d_e) for t in vocab},
            kind="bow")
    else:
        table = EmbeddingTable(
            dim=dims.d_e,
            entity_vectors={e: rng.standard_normal(dims.d_e)
                            for e in sorted(graph.entities)},
            relation_vectors={r: rng.standard_normal(dims.d_e)
                              for r in sorted(graph.relations)},
            kind="transe")

    n_real = min(3, dims.m_slots)
    slots = SlotAssignment(slots=list(range(n_real)) + [None] * (dims.m_slots - n_real))
    features = None if config.mode == "q_only" else slot_features(slots, table, graph)

    answers = [f"ans{i}" for i in range(dims.k_answers)]
    params = init_params(vocab, answers, dims, seed=seed)
    question = ["alpha", "near", "oov", "beta"]
    u = rng.standard_normal(dims.d)
    label = int(rng.integers(dims.k_answers))

    trace = forward(question, u, params, config.mode, features, label)
    analytic = backward(trace, label, params)
    numeric = finite_diff_grad(
        lambda _m: forward(question, u, params, config.mode, features, label).loss,
        params.matrices)
    return max_relative_error(analytic, numeric)


# --- synthetic benchmark ---------------------------------------------------------

@dataclass
class SyntheticTask:
    graph: KnowledgeGraph
    train: List[VqaExample]
    test: List[VqaExample]
    pair_indices: List[Tuple[int, int]]  # confusable pairs, indices into train


def _feature(seed: int, tag: int, dim: int) -> Array:
    return np.random.default_rng((seed, tag)).standard_normal(dim)


def make_synthetic_task(seed: int = 7, n_entities: int = 20, n_relations: int = 6,
                        dim: int = 32, n_triples: int = 30) -> SyntheticTask:
    """Seeded toy benchmark over obj/rel token worlds.

    Each triple <s,r,t> yields three question styles with the missing element
    as the gold answer: "what do s r" -> t, "what r t" -> s,
    "what between s t" -> r. The generator keeps (s,r), (r,t) and (s,t)
    unique so every style is unambiguous. Chains <a,r,b>, <b,r,c> supply
    confusable pairs: "what b r" (gold c) and "what r b" (gold a) share the
    same token multiset and the same visual feature, so any model whose
    query and memory inputs coincide bitwise can answer at most one of the
    two. A pair's second question shadows the colliding regular style, which
    is skipped.
    """
    if n_entities < 4:
        raise ValueError(f"need at least 4 entities, got {n_entities}")
    if n_relations < 2:
        raise ValueError(f"need at least 2 relations, got {n_relations}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    entities = [f"obj{i}" for i in range(n_entities)]
    relations = [f"rel{j}" for j in range(n_relations)]
    rng = np.random.default_rng(seed)

    triples: List[Triple] = []
    used_sr, used_rt, used_st = set(), set(), set()

    def try_add(s: str, r: str, t: str) -> bool:
        if s == t or (s, r) in used_sr or (r, t) in used_rt or (s, t) in used_st:
            return False
        used_sr.add((s, r))
        used_rt.add((r, t))
        used_st.add((s, t))
        triples.append(Triple(s, r, t))
        return True

    n_chains = 2 if n_entities >= 6 else 1
    chain_tids: List[Tuple[int, int]] = []
    for c in range(n_chains):
        a, b, cc = entities[3 * c], entities[3 * c + 1], entities[3 * c + 2]
        r = relations[c]
        first = len(triples)
        ok = try_add(a, r, b) and try_add(b, r, cc)
        if not ok:
            raise RuntimeError("chain construction failed")
        chain_tids.append((first, first + 1))

    all_pairs = [(i, j) for i in range(n_entities) for j in range(n_entities) if i != j]
    for k in rng.permutation(len(all_pairs)):
        if len(triples) >= n_triples:
            break
        i, j = all_pairs[k]
        for ridx in rng.permutation(n_relations):
            if try_add(entities[i], relations[ridx], entities[j]):
                break

    graph = build_graph(triples)
    chain_members = {tid for pair in chain_tids for tid in pair}
    skip_tokens = set()
    pair_examples: List[Tuple[VqaExample, VqaExample]] = []
    for t1, t2 in chain_tids:
        a, r, b = graph.triples[t1]
        _, _, c = graph.triples[t2]
        assert a != c
        u_pair = _feature(seed, 50_000 + t1, dim)
        q1 = VqaExample(["what", b, r], u_pair, c)
        q2 = VqaExample(["what", r, b], u_pair, a)
        pair_examples.append((q1, q2))
        skip_tokens.add(tuple(q2.question_tokens))  # regular subject-style of t1

    train: List[VqaExample] = []
    test: List[VqaExample] = []
    for tid, (s, r, t) in enumerate(graph.triples):
        u = _feature(seed, 1_000 + tid, dim)
        is_test = (tid not in chain_members
                   and ((tid * 2654435761) % (2 ** 32)) % 5 == 0)
        side = test if is_test else train
        for tokens, answer in ((["what", "do", s, r], t),
                               (["what", r, t], s),
                               (["what", "between", s, t], r)):
            if tuple(tokens) in skip_tokens:
                continue
            side.append(VqaExample(list(tokens), u, answer))

    pair_indices = []
    for q1, q2 in pair_examples:
        train.extend([q1, q2])
        pair_indices.append((len(train) - 2, len(train) - 1))
    return SyntheticTask(graph=graph, train=train, test=test,
                         pair_indices=pair_indices)


# --- dataset files ----------------------------------------------------------------

def read_feature(values) -> Array:
    """A visual feature: a non-empty JSON array of finite numbers."""
    if not (isinstance(values, list) and values):
        raise ValueError("feature must be a non-empty array of numbers")
    for i, v in enumerate(values):
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        # exact for ints too: 10**400 fails it as inf and nan do
        if not (number and abs(v) <= sys.float_info.max):
            raise ValueError(f"feature holds a non-finite or non-numeric value {v!r} at index {i}")
    return np.array(values, dtype=np.float64)


def load_dataset(path: str) -> List[VqaExample]:
    """JSONL: {"question": [token strings, at least one], "feature": [finite
    numbers, as many in every record], "answer": string or number, optional
    "answer_type"}. Question tokens are lowercased and lemmatized on the way
    in, answers lowercased."""
    width = 0  # the first record's feature length

    def parse(line: str) -> VqaExample:
        nonlocal width
        record = json.loads(line.strip())
        question = read_question(record)
        feature = read_feature(record.get("feature"))
        width = width or len(feature)
        if len(feature) != width:
            raise ValueError(f"feature length {len(feature)}, the first "
                             f"record's is {width}")
        return VqaExample(question_tokens=[lemmatize(t) for t in question],
                          visual_feature=feature,
                          answer=read_answer(record).lower(),
                          answer_type=str(record.get("answer_type", "")))

    return list(read_records(path, parse))


def save_dataset(examples: Sequence[VqaExample], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for ex in examples:
            f.write(json.dumps({
                "question": list(ex.question_tokens),
                "feature": [float(v) for v in ex.visual_feature],
                "answer": ex.answer,
                "answer_type": ex.answer_type,
            }) + "\n")
