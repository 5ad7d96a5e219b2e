"""Command-line entry point wiring the whole pipeline.

Subcommands: build-kb, train-transe, spot, train, eval, query, gradcheck,
ablate, make-synth. Every run echoes its resolved configuration to stderr,
keeps stdout for the actual report (plain text, JSON lines, or --json), and
exits 0 only on success. All randomness hangs off --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .embedding import (EmbeddingTable, TransEConfig, load_embeddings,
                        make_bow_table, save_embeddings, train_transe)
from .kb import (KnowledgeGraph, Triple, canonicalize_relation,
                 dedup_triples, extract_triples_from_qa, keep_frequent, lemmatize,
                 load_kb, load_qa_pairs, make_triple, parse_triple, read_question,
                 read_records, save_kb)
from .model import MODES, ModelDims, load_checkpoint, save_checkpoint
from .spotting import spot_question
from .training import (EvalReport, TrainConfig, answer_question, evaluate,
                       format_report_table, gradient_check, load_dataset,
                       make_synthetic_task, read_feature, save_dataset, train)

CLI_MODES = tuple(m.replace("_", "-") for m in MODES)
GRADCHECK_TOL = 1e-4
# epochs for the table derived in-process when --embeddings is omitted
DERIVED_TRANSE_EPOCHS = 200


def _internal_mode(cli_mode: str) -> str:
    return cli_mode.replace("-", "_")


def _echo_config(args: argparse.Namespace) -> None:
    items = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config: " + " ".join(f"{k}={v}" for k, v in items.items()),
          file=sys.stderr)


def _print_summary(summary: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(summary, sort_keys=True))
    else:
        for k, v in summary.items():
            print(f"{k}: {v}")


def _load_table(args: argparse.Namespace, graph: Optional[KnowledgeGraph],
                d_e: int, mode: str) -> Optional[EmbeddingTable]:
    if mode == "q_only":
        return None
    if graph is None:
        raise ValueError("--kb is required for any mode that uses memory")
    if mode == "bow":
        # a word table: each row is a token's vector, whatever its role in the graph
        if args.embeddings:
            return load_embeddings(args.embeddings, kind="bow")
        return make_bow_table(graph, d_e, args.seed)
    if args.embeddings:
        return load_embeddings(args.embeddings, graph)
    return train_transe(graph, TransEConfig(
        dim=d_e, epochs=DERIVED_TRANSE_EPOCHS, seed=args.seed))


def _load_memory(args: argparse.Namespace, d_e: int, mode: str
                 ) -> Tuple[Optional[KnowledgeGraph], Optional[EmbeddingTable]]:
    """The KB (read whenever --kb is given) and the table `mode` reads."""
    graph = load_kb(args.kb) if args.kb else None
    return graph, _load_table(args, graph, d_e, mode)


def _check_table(args: argparse.Namespace, table: Optional[EmbeddingTable], d_e: int) -> None:
    """The table's rows are the model's slot features, so its width must be d_e.

    A table derived in-process is made d_e wide; only an --embeddings file
    can differ.
    """
    if table is not None and table.dim != d_e:
        raise ValueError(f"slot features are {table.dim} wide, the model's d_e is {d_e}\n"
                         f"{args.embeddings} holds {table.dim}-wide vectors; "
                         f"{args.checkpoint} was trained with d_e {d_e}")


def _check_feature(path: str, feature: np.ndarray, d: int, mode: str) -> None:
    """Every mode but blind reads a visual feature of length d."""
    if mode != "blind" and len(feature) != d:
        raise ValueError(f"{path}: feature length {len(feature)}, model wants {d}")


# --- subcommands -----------------------------------------------------------

def cmd_build_kb(args: argparse.Namespace) -> int:
    if not args.qa and not args.triples:
        raise ValueError("need at least one input: --qa and/or --triples")
    file_triples: List[Triple] = []
    if args.triples:
        file_triples = [make_triple(*t)
                        for t in dedup_triples(read_records(args.triples, parse_triple))]
    extracted: List[Triple] = []
    n_pairs = 0
    if args.qa:
        pairs = load_qa_pairs(args.qa)
        n_pairs = len(pairs)
        for tokens, answer in pairs:
            extracted.extend(extract_triples_from_qa(tokens, answer))
    relation_set = {t.relation for t in file_triples}
    if relation_set:
        extracted = [Triple(t.subject,
                            canonicalize_relation(t.relation, relation_set),
                            t.target)
                     for t in extracted]
    merged = file_triples + extracted
    deduped = dedup_triples(merged)
    # filter_by_frequency(merged) without deduplicating again: phrases are
    # counted over the raw list, repeats included
    kept = keep_frequent(deduped, Counter(chain.from_iterable(merged)), args.min_count)
    save_kb(kept, args.out)
    stats = {
        "qa_pairs": n_pairs,
        "extracted": len(extracted),
        "ingested": len(file_triples),
        "merged": len(merged),
        "deduplicated": len(deduped),
        "kept": len(kept),
        "entities": len({p for s, _, t in kept for p in (s, t)}),
        "relations": len({t.relation for t in kept}),
    }
    _print_summary(stats, args.json)
    return 0


def cmd_train_transe(args: argparse.Namespace) -> int:
    config = TransEConfig(dim=args.dim, margin=args.margin, lr=args.lr,
                          epochs=args.epochs,
                          negatives_per_positive=args.negatives,
                          seed=args.seed)
    graph = load_kb(args.kb)
    table = train_transe(graph, config)
    save_embeddings(table, args.out)
    summary = {
        "entities": len(table.entity_vectors),
        "relations": len(table.relation_vectors),
        "dim": table.dim,
        "epochs": config.epochs,
        "final_loss": table.history.epoch_loss[-1] if table.history.epoch_loss else None,
        "out": args.out,
    }
    _print_summary(summary, args.json)
    return 0


def _stdin_questions():
    """Whitespace-split questions from stdin, one a line, up to the first blank line."""
    for line in sys.stdin:
        if not line.strip():
            return
        yield line.split()


def cmd_spot(args: argparse.Namespace) -> int:
    graph = load_kb(args.kb)
    questions = (read_records(args.dataset, lambda line: read_question(json.loads(line.strip())))
                 if args.dataset else _stdin_questions())
    for raw_tokens in questions:
        assignment = spot_question([lemmatize(t) for t in raw_tokens], graph, args.slots)
        spotted = assignment.spotted
        print(json.dumps({
            "matched": sorted(spotted.matched_entries),
            "core": spotted.core,
            "expanded": spotted.expanded,
            "slots": assignment.slots,
            "mask": assignment.mask,
        }, sort_keys=True))
    return 0


def _model_dims(args: argparse.Namespace, feature_dim: int) -> ModelDims:
    d = args.dim if args.dim else feature_dim
    d_j = args.joint_dim if args.joint_dim else d
    return ModelDims(d=d, d_j=d_j, d_e=args.knowledge_dim,
                     d_w=args.word_dim, m_slots=args.slots,
                     k_answers=args.answers)


def cmd_train(args: argparse.Namespace) -> int:
    mode = _internal_mode(args.mode)
    examples = load_dataset(args.dataset)
    if not examples:
        raise ValueError(f"{args.dataset}: no examples")
    dims = _model_dims(args, len(examples[0].visual_feature))
    _check_feature(args.dataset, examples[0].visual_feature, dims.d, mode)
    config = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed,
                         mode=mode, dims=dims)
    graph, table = _load_memory(args, dims.d_e, mode)
    params, curve = train(examples, graph, table, config)
    save_checkpoint(params, args.checkpoint)
    summary = {
        "examples": len(examples),
        "vocab": len(params.vocab),
        "answers": len(params.answer_vocab),
        "epochs": config.epochs,
        "first_loss": curve[0],
        "final_loss": curve[-1],
        "checkpoint": args.checkpoint,
    }
    if args.json:
        summary["loss_curve"] = curve
    _print_summary(summary, args.json)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    mode = _internal_mode(args.mode)
    params = load_checkpoint(args.checkpoint)
    examples = load_dataset(args.dataset)
    if not examples:
        raise ValueError(f"{args.dataset}: no examples")
    _check_feature(args.dataset, examples[0].visual_feature, params.dims.d, mode)
    graph, table = _load_memory(args, params.dims.d_e, mode)
    _check_table(args, table, params.dims.d_e)
    report = evaluate(examples, params, graph, table, mode)
    if args.json:
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        print(format_report_table([(args.mode, report)]))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    mode = _internal_mode(args.mode)
    params = load_checkpoint(args.checkpoint)
    with open(args.feature, "r", encoding="utf-8") as f:
        try:
            u = read_feature(json.load(f))
        except (ValueError, RecursionError) as e:
            raise ValueError(f"{args.feature}: {e}") from None
    _check_feature(args.feature, u, params.dims.d, mode)
    graph, table = _load_memory(args, params.dims.d_e, mode)
    _check_table(args, table, params.dims.d_e)

    for raw_tokens in _stdin_questions():
        answer, trace, assignment = answer_question(
            [lemmatize(t) for t in raw_tokens], u, params, graph, table, mode)
        print(f"answer: {answer}")
        if not trace.blocks:
            print("no supporting facts")
            continue
        for name, p in zip(trace.blocks, trace.p):
            print(f"block {name}:")
            for slot in np.argsort(-p)[:5]:
                tid = assignment.slots[slot]
                if tid is not None:
                    print(f"  {p[slot]:.4f}  {graph.triples[tid]}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    dims = ModelDims(d=8, d_j=6, d_e=5, d_w=4, m_slots=4, k_answers=3)
    modes = [_internal_mode(args.mode)] if args.mode else list(MODES)
    results: Dict[str, float] = {}
    for mode in modes:
        worst = 0.0
        for s in range(args.seeds):
            config = TrainConfig(mode=mode, dims=dims)
            worst = max(worst, gradient_check(config, seed=args.seed + s))
        results[mode] = worst
    overall = max(results.values())
    ok = overall <= GRADCHECK_TOL
    if args.json:
        print(json.dumps({"per_mode": results, "max": overall,
                          "tolerance": GRADCHECK_TOL, "pass": ok},
                         sort_keys=True))
    else:
        for mode, err in results.items():
            print(f"{mode}: max rel err {err:.3e}")
        print(f"max rel err {overall:.3e} (tol {GRADCHECK_TOL:.0e}) "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_ablate(args: argparse.Namespace) -> int:
    if args.dataset or args.kb:
        if not (args.dataset and args.test and args.kb):
            raise ValueError("ablate needs --dataset, --test and --kb together "
                             "(or none of them for the built-in synthetic task)")
        train_set, test_set = load_dataset(args.dataset), load_dataset(args.test)
        if not train_set:
            raise ValueError(f"{args.dataset}: no examples")
        graph = load_kb(args.kb)
    else:
        task = make_synthetic_task(seed=args.seed, dim=args.dim or 32)
        train_set, test_set, graph = task.train, task.test, task.graph

    dims = _model_dims(args, len(train_set[0].visual_feature))
    if args.dataset:
        # checked as for a mode that reads the feature: ablate trains them all
        for path, examples in ((args.dataset, train_set), (args.test, test_set)):
            if examples:
                _check_feature(path, examples[0].visual_feature, dims.d, "full")
    base = TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed, dims=dims)
    transe_table = _load_table(args, graph, dims.d_e, "full")
    bow_table = make_bow_table(graph, transe_table.dim, args.seed)

    splits = {"train": train_set, "test": test_set}
    reports: Dict[str, Dict[str, EvalReport]] = {split: {} for split in splits}
    for cli_mode in CLI_MODES:
        mode = _internal_mode(cli_mode)
        table = None if mode == "q_only" else (
            bow_table if mode == "bow" else transe_table)
        params, curve = train(train_set, graph, table, replace(base, mode=mode))
        for split, examples in splits.items():
            reports[split][cli_mode] = replace(
                evaluate(examples, params, graph, table, mode), loss_curve=curve)
    if args.json:
        print(json.dumps({split: {m: r.to_json() for m, r in rows.items()}
                          for split, rows in reports.items()}, sort_keys=True))
    else:
        train_rows, test_rows = (list(reports[s].items()) for s in splits)
        print(f"training split:\n{format_report_table(train_rows)}\n\n"
              f"held-out split:\n{format_report_table(test_rows)}")
    return 0


def cmd_make_synth(args: argparse.Namespace) -> int:
    task = make_synthetic_task(seed=args.seed, n_entities=args.entities,
                               n_relations=args.relations,
                               dim=args.dim or 32, n_triples=args.triples)
    os.makedirs(args.out, exist_ok=True)
    kb_path = os.path.join(args.out, "kb.tsv")
    train_path = os.path.join(args.out, "train.jsonl")
    test_path = os.path.join(args.out, "test.jsonl")
    pairs_path = os.path.join(args.out, "pairs.json")
    save_kb(task.graph.triples, kb_path)
    save_dataset(task.train, train_path)
    save_dataset(task.test, test_path)
    with open(pairs_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"pairs": [list(p) for p in task.pair_indices]}, f)
        f.write("\n")
    summary = {
        "kb": kb_path, "train": train_path, "test": test_path,
        "pairs": pairs_path, "triples": len(task.graph),
        "train_examples": len(task.train), "test_examples": len(task.test),
        "confusable_pairs": len(task.pair_indices),
    }
    _print_summary(summary, args.json)
    return 0


# --- parser ------------------------------------------------------------------

def _add_model_dim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, default=0,
                   help="query/visual dim d (default: feature length)")
    p.add_argument("--joint-dim", type=int, default=0,
                   help="joint embedding dim (default: same as --dim)")
    p.add_argument("--knowledge-dim", type=int, default=32,
                   help="width d_e of the table derived when no --embeddings is given")
    p.add_argument("--word-dim", type=int, default=32, help="word vector dim")
    p.add_argument("--slots", type=int, default=8, help="memory slots M")
    p.add_argument("--answers", type=int, default=50,
                   help="answer vocabulary cap K")


def _seed(text: str) -> int:
    """A --seed value: a non-negative integer, checked as the command line is parsed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vkmn",
        description="Key-value memory network VQA over a triple knowledge base")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("build-kb", help="extract, canonicalize, filter, save a KB")
    p.add_argument("--qa", help="QA-pair JSONL to extract triples from")
    p.add_argument("--triples", help="triple TSV to ingest")
    p.add_argument("--out", required=True, help="output KB TSV path")
    p.add_argument("--min-count", type=int, default=3,
                   help="frequency filter threshold")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_build_kb)

    p = sub.add_parser("train-transe", help="train knowledge embeddings on a KB")
    p.add_argument("--kb", required=True)
    p.add_argument("--out", required=True, help="output embedding file")
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--negatives", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train_transe)

    p = sub.add_parser("spot", help="show retrieval for questions (JSONL out)")
    p.add_argument("--kb", required=True)
    p.add_argument("--dataset", help="question JSONL; stdin lines if omitted")
    p.add_argument("--slots", type=int, default=8)
    p.set_defaults(func=cmd_spot)

    p = sub.add_parser("train", help="train the memory network")
    p.add_argument("--dataset", required=True, help="training JSONL")
    p.add_argument("--kb")
    p.add_argument("--embeddings",
                   help="embedding file; derived from the KB and --seed if omitted")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--mode", choices=CLI_MODES, default="full")
    _add_model_dim_flags(p)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--kb")
    p.add_argument("--embeddings")
    p.add_argument("--mode", choices=CLI_MODES, default="full")
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed for the derived embedding table (match training)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("query", help="interactive question loop")
    p.add_argument("--kb")
    p.add_argument("--embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--feature", required=True,
                   help="path to a JSON file holding the visual feature vector")
    p.add_argument("--mode", choices=CLI_MODES, default="full")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("gradcheck", help="analytic vs numeric gradients")
    p.add_argument("--mode", choices=CLI_MODES,
                   help="single mode (default: all modes)")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--seed", type=_seed, default=0, help="base seed")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ablate", help="train/eval every mode, print the table")
    p.add_argument("--dataset", help="training JSONL (default: synthetic task)")
    p.add_argument("--test", help="test JSONL")
    p.add_argument("--kb")
    p.add_argument("--embeddings")
    _add_model_dim_flags(p)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("make-synth", help="write the synthetic benchmark files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=_seed, default=7)
    p.add_argument("--entities", type=int, default=20)
    p.add_argument("--relations", type=int, default=6)
    p.add_argument("--triples", type=int, default=30)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_make_synth)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
