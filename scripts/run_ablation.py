#!/usr/bin/env python3
"""Ablation sweep over every model mode on the synthetic benchmark.

Trains full / bow / blind / q_only / no_replication with a shared seed and
prints the accuracy table (All / Y-N / Num / Other) on both splits. At desk
scale every mode can memorize the aggregate training split except one
question of each confusable pair, which run_synthetic_pipeline.py prints one
by one: with the order-free question encoder no mode, the replicated full
model included, can tell a pair's questions apart (see ROADMAP item 3).
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from vkmn.embedding import TransEConfig, make_bow_table, train_transe
from vkmn.model import MODES, ModelDims
from vkmn.training import (TrainConfig, evaluate, format_report_table,
                           make_synthetic_task, train)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--knowledge-dim", type=int, default=16)
    ap.add_argument("--lr", type=float, default=0.05)
    return ap.parse_args()


def main():
    args = parse_args()
    task = make_synthetic_task(seed=args.seed, dim=args.dim)
    transe = train_transe(task.graph, TransEConfig(
        dim=args.knowledge_dim, epochs=200, seed=args.seed))
    bow = make_bow_table(task.graph, args.knowledge_dim, args.seed)
    dims = ModelDims(d=args.dim, d_j=args.dim, d_e=args.knowledge_dim,
                     d_w=args.knowledge_dim, m_slots=8, k_answers=50)

    train_rows, test_rows = [], []
    for mode in MODES:
        table = None if mode == "q_only" else (bow if mode == "bow" else transe)
        config = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed,
                             mode=mode, dims=dims)
        start = time.perf_counter()
        params, curve = train(task.train, task.graph, table, config)
        elapsed = time.perf_counter() - start
        train_rows.append((mode, evaluate(task.train, params, task.graph,
                                          table, mode)))
        test_rows.append((mode, evaluate(task.test, params, task.graph,
                                         table, mode)))
        print(f"trained {mode:15s} {args.epochs} epochs in {elapsed:5.1f}s, "
              f"final loss {curve[-1]:.4f}")

    print("\ntraining split:")
    print(format_report_table(train_rows))
    print("\nheld-out split:")
    print(format_report_table(test_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
