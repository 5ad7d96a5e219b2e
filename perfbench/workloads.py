"""Seeded inputs of the benchmark's three workloads.

Every input is a pure function of (workload, seed): the same pair always
gives byte-identical files. Run as a script to write one workload's input
files (KB TSV, train/held-out JSONL) to a directory:

    python3 perfbench/workloads.py --workload kb20k --seed 7 --out /tmp/kb20k

The embeddings file and the checkpoint are not inputs of this kind: the
benchmark makes them with the program itself (TransE, then full-mode
training) before it starts timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Spec:
    """Sizes and protocol of one workload; see README.md for the reasons."""

    name: str
    k_answers: int
    checkpoint_epochs: int     # full-mode epochs behind the checkpoint (acc_train)
    train_epochs: int          # full-mode epochs per train-stage repetition
    ablate_epochs: int         # epochs per mode in the ablate sweep
    transe_file_epochs: int    # TransE epochs behind the embeddings file
    transe_epochs: int         # TransE epochs per transe-stage repetition
    rank_sample: int           # triples ranked per tail-rank repetition
    reps: Dict[str, int] = field(default_factory=dict)  # repetitions per round
    dim: int = 32              # visual/query dim d, also d_j
    knowledge_dim: int = 16    # d_e, also d_w
    m_slots: int = 8
    lr: float = 0.05


SPECS: Dict[str, Spec] = {
    "ref": Spec("ref", k_answers=50, checkpoint_epochs=30, train_epochs=3,
                ablate_epochs=3, transe_file_epochs=200, transe_epochs=20,
                rank_sample=30,
                reps={"setup": 8, "train": 2, "eval": 4, "transe": 3, "rank": 4}),
    "synth2k": Spec("synth2k", k_answers=256, checkpoint_epochs=8, train_epochs=2,
                    ablate_epochs=1, transe_file_epochs=10, transe_epochs=2,
                    rank_sample=40, reps={"setup": 2, "eval": 2, "transe": 2, "rank": 2}),
    "kb20k": Spec("kb20k", k_answers=50, checkpoint_epochs=8, train_epochs=2,
                  ablate_epochs=1, transe_file_epochs=2, transe_epochs=1,
                  rank_sample=4, reps={"train": 2, "eval": 2, "rank": 3}),
}

SYNTH2K_TRAIN = 250      # training questions sampled from the generator's 4,805
SYNTH2K_HELDOUT = 60     # held-out questions sampled from its 1,197
KB20K_ENTITIES = 5000
KB20K_RELATIONS = 50
KB20K_TRIPLES = 20000
KB20K_QUESTIONS = 300    # distinct questions in the query stream
KB20K_IMAGES = 4         # visual features per distinct question
KB20K_TRAIN_Q = 20       # distinct questions of the training split
KB20K_HELDOUT_Q = 5      # distinct questions of the held-out split


@dataclass
class Example:
    """One question about one image; `gold` is the id of its source triple."""

    tokens: List[str]
    feature: np.ndarray
    answer: str
    gold: int


@dataclass
class Inputs:
    triples: List[Tuple[str, str, str]]   # KB rows in file order (= triple ids)
    train: List[Example]
    heldout: List[Example]
    stream: List[Example]                 # query-path questions, in asking order


def gold_triple(tokens: Sequence[str], answer: str, relations: set,
                index: Dict[Tuple[str, str, str], int]) -> int:
    """Source triple of a generated question, read off its template.

    "what do s r" -> <s, r, answer>; "what between s t" -> <s, answer, t>;
    "what r t" -> <answer, r, t>; the confusable "what b r" -> <b, r, answer>.
    """
    if tokens[:2] == ["what", "do"]:
        key = (tokens[2], tokens[3], answer)
    elif tokens[:2] == ["what", "between"]:
        key = (tokens[2], answer, tokens[3])
    elif tokens[1] in relations:
        key = (answer, tokens[1], tokens[2])
    else:
        key = (tokens[1], tokens[2], answer)
    if key not in index:
        raise ValueError(f"question {' '.join(tokens)!r} has no source triple {key}")
    return index[key]


def _synthetic(seed: int, n_entities: int, n_relations: int, n_triples: int,
               dim: int):
    from vkmn.training import make_synthetic_task

    task = make_synthetic_task(seed=seed, n_entities=n_entities,
                               n_relations=n_relations, dim=dim,
                               n_triples=n_triples)
    triples = [t.phrases() for t in task.graph.triples]
    index = {t: i for i, t in enumerate(triples)}
    relations = {t[1] for t in triples}

    def convert(exs):
        return [Example(list(e.question_tokens), e.visual_feature, e.answer,
                        gold_triple(e.question_tokens, e.answer, relations, index))
                for e in exs]

    return triples, convert(task.train), convert(task.test)


def _covering_sample(examples: List[Example], n: int,
                     rng: np.random.Generator) -> List[Example]:
    """n examples that together hold every answer and every question token."""
    order = [int(i) for i in rng.permutation(len(examples))]
    chosen, answers, tokens = set(), set(), set()
    for i in order:
        ex = examples[i]
        if ex.answer not in answers or not tokens.issuperset(ex.tokens):
            chosen.add(i)
            answers.add(ex.answer)
            tokens.update(ex.tokens)
    for i in order:
        if len(chosen) >= n:
            break
        chosen.add(i)
    return [examples[i] for i in sorted(chosen)]


def _random_kb(rng: np.random.Generator) -> List[Tuple[str, str, str]]:
    """Uniform random triples; (s, r) pairs and unordered {s, t} pairs unique."""
    triples, seen_sr, seen_pair = [], set(), set()
    while len(triples) < KB20K_TRIPLES:
        draws = rng.integers(0, [KB20K_ENTITIES, KB20K_RELATIONS, KB20K_ENTITIES],
                             size=(KB20K_TRIPLES, 3))
        for s, r, t in draws.tolist():
            pair = (min(s, t), max(s, t))
            if s == t or (s, r) in seen_sr or pair in seen_pair:
                continue
            seen_sr.add((s, r))
            seen_pair.add(pair)
            triples.append((f"ent{s}", f"rel{r}", f"ent{t}"))
            if len(triples) == KB20K_TRIPLES:
                break
    return triples


def make_inputs(workload: str, seed: int) -> Inputs:
    if workload not in SPECS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(SPECS)}")
    spec = SPECS[workload]
    rng = np.random.default_rng((seed, 1))
    if workload == "ref":
        triples, train, heldout = _synthetic(seed, 20, 6, 30, spec.dim)
        pool = train + heldout
    elif workload == "synth2k":
        triples, train_all, test_all = _synthetic(seed, 200, 20, 2000, spec.dim)
        pool = train_all + test_all
        train = _covering_sample(train_all, SYNTH2K_TRAIN, rng)
        heldout = [test_all[i] for i in
                   sorted(int(i) for i in rng.permutation(len(test_all))[:SYNTH2K_HELDOUT])]
    else:
        triples = _random_kb(rng)
        asked = [int(i) for i in rng.permutation(len(triples))[:KB20K_QUESTIONS]]
        per_question = []
        for q, tid in enumerate(asked):
            s, r, t = triples[tid]
            per_question.append([
                Example(["what", "between", s, t],
                        np.random.default_rng((seed, 2, q, img)).standard_normal(spec.dim),
                        r, tid)
                for img in range(KB20K_IMAGES)])
        train = [ex for group in per_question[:KB20K_TRAIN_Q] for ex in group]
        heldout = [ex for group in per_question[KB20K_TRAIN_Q:KB20K_TRAIN_Q + KB20K_HELDOUT_Q]
                   for ex in group]
        pool = [ex for group in per_question for ex in group]
    stream = [pool[int(i)] for i in rng.permutation(len(pool))]
    return Inputs(triples=triples, train=train, heldout=heldout, stream=stream)


def write_kb(triples: Sequence[Tuple[str, str, str]], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s, r, t in triples:
            f.write(f"{s}\t{r}\t{t}\n")


def write_dataset(examples: Sequence[Example], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for ex in examples:
            f.write(json.dumps({"question": ex.tokens,
                                "feature": [float(v) for v in ex.feature],
                                "answer": ex.answer}) + "\n")


def write_inputs(inputs: Inputs, out_dir: str) -> Dict[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name)
             for name in ("kb.tsv", "train.jsonl", "heldout.jsonl")}
    write_kb(inputs.triples, paths["kb.tsv"])
    write_dataset(inputs.train, paths["train.jsonl"])
    write_dataset(inputs.heldout, paths["heldout.jsonl"])
    return paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="write one workload's input files")
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    sys.path.insert(0, SRC)
    inputs = make_inputs(args.workload, args.seed)
    for name, path in write_inputs(inputs, args.out).items():
        print(f"{name}: {path}")
    print(f"stream: {len(inputs.stream)} questions (kept in memory by run.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
