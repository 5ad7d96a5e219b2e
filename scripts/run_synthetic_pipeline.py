#!/usr/bin/env python3
"""End-to-end walkthrough on the seeded synthetic benchmark.

Builds the toy KB, trains translation embeddings on it, trains the full
memory network, and prints the training curve, the held-out report, and a
per-pair look at the confusable questions. The two questions of a pair share
their token multiset, visual feature and slots, and the question encoder is
an order-free mean, so the full model's logits are bit-identical on both and
it answers at most one of them: triple replication does not break this tie
(see ROADMAP item 3).
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from vkmn.embedding import TransEConfig, train_transe
from vkmn.model import ModelDims, forward
from vkmn.spotting import spot_question
from vkmn.model import slot_features
from vkmn.training import (TrainConfig, evaluate, format_report_table,
                           make_synthetic_task, train)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=500)
    ap.add_argument("--transe-epochs", type=int, default=200)
    ap.add_argument("--dim", type=int, default=32, help="visual feature dim")
    ap.add_argument("--knowledge-dim", type=int, default=16)
    ap.add_argument("--lr", type=float, default=0.05)
    return ap.parse_args()


def main():
    args = parse_args()
    task = make_synthetic_task(seed=args.seed, dim=args.dim)
    print(f"synthetic task: {len(task.graph)} triples, "
          f"{len(task.train)} train / {len(task.test)} test questions, "
          f"{len(task.pair_indices)} confusable pairs")

    table = train_transe(task.graph, TransEConfig(
        dim=args.knowledge_dim, epochs=args.transe_epochs, seed=args.seed))
    print(f"knowledge embeddings: dim {table.dim}, "
          f"final margin loss {table.history.epoch_loss[-1]:.4f}")

    dims = ModelDims(d=args.dim, d_j=args.dim, d_e=args.knowledge_dim,
                     d_w=args.knowledge_dim, m_slots=8, k_answers=50)
    config = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed,
                         mode="full", dims=dims)
    params, curve = train(task.train, task.graph, table, config)
    marks = {0, len(curve) // 4, len(curve) // 2, 3 * len(curve) // 4,
             len(curve) - 1}
    for i in sorted(marks):
        print(f"  epoch {i + 1:4d}  mean loss {curve[i]:.4f}")

    train_report = evaluate(task.train, params, task.graph, table, "full")
    test_report = evaluate(task.test, params, task.graph, table, "full")
    print(format_report_table([("train", train_report),
                               ("test", test_report)]))

    print("\nconfusable pairs (token multiset and visual feature shared):")
    answer_index = {a: i for i, a in enumerate(params.answer_vocab)}
    for i, j in task.pair_indices:
        for ex in (task.train[i], task.train[j]):
            sa = spot_question(ex.question_tokens, task.graph, dims.m_slots)
            feats = slot_features(sa, table, task.graph)
            trace = forward(ex.question_tokens, ex.visual_feature, params,
                            "full", feats)
            pred = params.answer_vocab[int(np.argmax(trace.logits))]
            mark = "ok " if answer_index.get(ex.answer) == int(np.argmax(trace.logits)) else "ERR"
            print(f"  [{mark}] {' '.join(ex.question_tokens):30s} "
                  f"gold={ex.answer:6s} pred={pred}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
