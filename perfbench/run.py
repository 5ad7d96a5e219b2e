#!/usr/bin/env python3
"""Benchmark of vkmn: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload ref --seed 7 --seconds 30 --trace 0

Run from the root of a checkout. The run makes its inputs from --seed,
prepares and checks them, then repeats rounds of seven stages (setup,
train, eval, answer, ablate, transe, rank) until --seconds have passed and
at least MIN_ROUNDS rounds are done. Each timed end-to-end value is the
upper decile of its stage's repetitions across the rounds: the host
switches between two speeds, and the upper decile stays with the slower,
more common one however the run's time is split between them (README.md,
"Machine noise"). --trace 1 alternates untraced and traced rounds and
reports per-layer metrics and the tracing overhead instead.
The last line of stdout is the result as one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

STAGES = ("setup", "train", "eval", "answer", "ablate", "transe", "rank")
MIN_ROUNDS = 4             # with ANSWER_BATCH, >= 1,000 answers: fifty beyond p95
ANSWER_BATCH = 250         # query-path questions per round
HARD_STOP_S = 120.0        # no new round after this much measuring
SPOT_SAMPLE = {"ref": 40, "synth2k": 40, "kb20k": 12}  # brute-force retrieval checks
RANK_CHECK_SAMPLE = 300    # triples behind the TransE-beats-epochs-0 check
FD_EXAMPLES = 2            # examples per mode for the finite-difference check
PREDICTION_SAMPLE = 50     # examples compared across the file round trip
CLI_QUESTIONS = 5          # questions sent through `vkmn query`


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="vkmn benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=("ref", "synth2k", "kb20k"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class Ledger:
    """Counts operations; a raised exception or a failed check fails one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, name: str, fn: Callable, *args):
        from checks import CheckFailed

        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as e:
            self.failed += 1
            self.correct = False
            print(f"check failed in {name}: {e}", file=sys.stderr)
        except Exception:  # an operation of the program failed; keep measuring
            self.failed += 1
            print(f"operation {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return None


@dataclass
class Bench:
    """Everything one run works on; rebuilt from files by the setup stage."""

    workload: str
    seed: int
    spec: object
    inputs: object
    paths: Dict[str, str]
    dims: object
    train_set: list = field(default_factory=list)
    heldout_set: list = field(default_factory=list)
    graph: object = None
    table: object = None
    params: object = None
    bow: object = None
    ranker: object = None
    rank_triples: list = field(default_factory=list)
    gold_in_memory: float = float("nan")
    acc_train: float = float("nan")
    acc_heldout: Dict[str, float] = field(default_factory=dict)
    times: Dict[str, List[float]] = field(default_factory=lambda: {s: [] for s in STAGES})
    work: Dict[str, float] = field(default_factory=dict)   # items per repetition
    latencies: List[List[float]] = field(default_factory=list)   # per round
    asked: set = field(default_factory=set)
    repeats: int = 0
    rounds: int = 0


def query_path(V, tokens_raw, u, graph, table, params):
    """One question along `vkmn query`: retrieval, slot features, forward, argmax."""
    tokens = [V.kb.lemmatize(t) for t in tokens_raw]
    matched = V.spotting.match_entries(tokens, graph.entry_set())
    spotted = V.spotting.expand_neighborhood(V.spotting.spot_triples(matched, graph), graph)
    assignment = V.spotting.select_slots(spotted, graph, params.dims.m_slots)
    feats = V.model.slot_features(assignment, table, graph)
    trace = V.model.forward(tokens, u, params, "full", feats)
    idx, _ = V.model.predict(trace.q_prime, params.matrices["W_o"])
    return params.answer_vocab[idx], trace.logits, assignment.slots


def train_config(V, b: Bench, mode: str, epochs: int):
    return V.training.TrainConfig(lr=b.spec.lr, epochs=epochs, seed=b.seed,
                                  mode=mode, dims=b.dims)


def cli(V, argv: List[str], stdin: str = "") -> str:
    """Run a `vkmn` subcommand in-process; return its stdout."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = V.cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"vkmn {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# --- preparation: inputs, files, and the checks that need a whole run --------------

def prepare(V, b: Bench, ledger: Ledger) -> None:
    import numpy as np
    import checks as C

    spec, inputs, paths = b.spec, b.inputs, b.paths
    rng = np.random.default_rng((b.seed, 3))

    # the embeddings file and the checkpoint, made by the program itself
    graph0 = V.kb.load_kb(paths["kb.tsv"])
    trained = V.embedding.train_transe(graph0, V.embedding.TransEConfig(
        dim=spec.knowledge_dim, epochs=spec.transe_file_epochs, seed=b.seed))
    untrained = V.embedding.train_transe(graph0, V.embedding.TransEConfig(
        dim=spec.knowledge_dim, epochs=0, seed=b.seed))
    V.embedding.save_embeddings(trained, paths["embeddings.txt"])
    b.train_set = V.training.load_dataset(paths["train.jsonl"])
    b.heldout_set = V.training.load_dataset(paths["heldout.jsonl"])
    params0, curve = V.training.train(b.train_set, graph0, trained,
                                      train_config(V, b, "full", spec.checkpoint_epochs))
    V.model.save_checkpoint(params0, paths["model.bin"])
    ledger.run("check:loss-falls", C.check_loss_falls, curve)

    sample = [int(i) for i in rng.permutation(len(inputs.triples))[:spec.rank_sample]]
    b.rank_triples = [inputs.triples[i] for i in sample]
    b.ranker = C.VectorRanker(inputs.triples, trained.entity_vectors, trained.relation_vectors)
    ledger.run("check:transe-norms", C.check_unit_norms, trained.entity_vectors)
    checked = [inputs.triples[int(i)] for i in
               rng.permutation(len(inputs.triples))[:RANK_CHECK_SAMPLE]]
    ledger.run("check:transe-rank", lambda: C.check_rank_improves(
        b.ranker.mean_rank(checked),
        C.VectorRanker(inputs.triples, untrained.entity_vectors,
                       untrained.relation_vectors).mean_rank(checked)))

    oracle = C.BruteForceRetrieval(inputs.triples)
    distinct = list({tuple(ex.tokens): ex for ex in inputs.stream}.values())
    picks = [distinct[int(i)] for i in rng.permutation(len(distinct))[:SPOT_SAMPLE[b.workload]]]

    def spotting_check():
        for ex in picks:
            got = V.spotting.spot_question(ex.tokens, graph0, spec.m_slots).slots
            C.check_spotting(got, oracle.slots(ex.tokens, spec.m_slots), ex.tokens)

    ledger.run("check:spotting", spotting_check)

    asked = list({tuple(ex.tokens): ex for ex in inputs.train + inputs.heldout}.values())

    def gold_check():
        hits = 0
        for ex in asked:
            slots = V.spotting.spot_question(ex.tokens, graph0, spec.m_slots).slots
            hits += ex.gold in slots
            C.check_gold_in_memory(slots, ex.gold, ex.tokens)
        b.gold_in_memory = hits / len(asked)

    ledger.run("check:gold-in-memory", gold_check)

    examples = inputs.train + inputs.heldout
    compared = [examples[int(i)] for i in
                rng.permutation(len(examples))[:PREDICTION_SAMPLE]]
    before = [query_path(V, ex.tokens, ex.feature, graph0, trained, params0)[:2]
              for ex in compared]
    del graph0, trained, untrained, params0

    # `vkmn eval` and `vkmn query`, run before the setup below so that only
    # one graph is alive at a time
    common = ["--checkpoint", paths["model.bin"], "--kb", paths["kb.tsv"],
              "--embeddings", paths["embeddings.txt"]]
    cli_eval = ledger.run("cli:eval", lambda: json.loads(cli(
        V, ["eval", "--dataset", paths["train.jsonl"], "--json"] + common)))
    with open(paths["feature.json"], "w", encoding="utf-8") as f:
        json.dump([float(v) for v in inputs.stream[0].feature], f)
    cli_questions = [ex.tokens for ex in distinct[:CLI_QUESTIONS]]
    cli_answers = ledger.run("cli:query", lambda: [
        line[len("answer: "):] for line in cli(
            V, ["query", "--feature", paths["feature.json"]] + common,
            "".join(" ".join(q) + "\n" for q in cli_questions)).splitlines()
        if line.startswith("answer: ")])

    setup(V, b)
    ledger.run("check:round-trip", lambda: C.check_same_predictions(
        before, [query_path(V, ex.tokens, ex.feature, b.graph, b.table, b.params)[:2]
                 for ex in compared]))

    def eval_check():
        for split in (b.train_set, b.heldout_set):
            report = V.training.evaluate(split, b.params, b.graph, b.table, "full")
            hits = sum(query_path(V, ex.question_tokens, ex.visual_feature,
                                  b.graph, b.table, b.params)[0] == ex.answer
                       for ex in split)
            C.check_eval_matches_query(sum(report.correct.values()), hits, report.total)

    ledger.run("check:eval-matches-query", eval_check)

    def cli_check():
        report = V.training.evaluate(b.train_set, b.params, b.graph, b.table, "full")
        C.check_cli_eval(cli_eval and cli_eval["correct"], report.correct)
        with open(paths["feature.json"], encoding="utf-8") as f:
            u = np.array(json.load(f), dtype=np.float64)
        C.check_cli_answers(cli_answers, [query_path(V, q, u, b.graph, b.table, b.params)[0]
                                          for q in cli_questions])

    ledger.run("check:cli", cli_check)

    if b.workload == "ref":
        ledger.run("check:ref-accuracy", lambda: C.check_ref_accuracy(
            V.training.evaluate(b.train_set, b.params, b.graph, b.table,
                                "full").accuracy_all))

    b.bow = V.embedding.make_bow_table(b.graph, spec.knowledge_dim, b.seed)
    ledger.run("check:gradients", gradient_check, V, b, rng)
    gc.collect()


def gradient_check(V, b: Bench, rng) -> None:
    import checks as C

    answer_index = {a: i for i, a in enumerate(b.params.answer_vocab)}
    usable = [ex for ex in b.train_set if ex.answer in answer_index]
    for mode in V.model.MODES:
        table = b.bow if mode == "bow" else b.table
        for i in rng.permutation(len(usable))[:FD_EXAMPLES]:
            ex = usable[int(i)]
            feats = None
            if mode != "q_only":
                slots = V.spotting.spot_question(ex.question_tokens, b.graph, b.spec.m_slots)
                feats = V.model.slot_features(slots, table, b.graph)
            label = answer_index[ex.answer]

            def loss():
                return V.model.forward(ex.question_tokens, ex.visual_feature, b.params,
                                       mode, feats, label).loss

            trace = V.model.forward(ex.question_tokens, ex.visual_feature, b.params,
                                    mode, feats, label)
            grads = V.model.backward(trace, label, b.params)
            C.check_gradients(loss, b.params.matrices, grads, rng)


# --- the stages --------------------------------------------------------------

def setup(V, b: Bench) -> float:
    """`vkmn eval`/`query`/`spot` start-up: KB, embeddings file, checkpoint."""
    b.graph = b.table = b.params = None   # one graph alive at a time
    start = time.perf_counter()
    graph = V.kb.load_kb(b.paths["kb.tsv"])
    table = V.embedding.load_embeddings(b.paths["embeddings.txt"], graph, kind="transe")
    params = V.model.load_checkpoint(b.paths["model.bin"])
    elapsed = time.perf_counter() - start
    b.graph, b.table, b.params = graph, table, params
    return elapsed


def stage_setup(V, b: Bench) -> None:
    b.times["setup"].append(setup(V, b))
    # A freshly built graph leaves the collector a full pass to make; on
    # kb20k it takes 0.35 s. Made here, untimed, it cannot land inside
    # whichever stage happens to allocate next. A process that loads once
    # pays it once, inside or right after its start-up.
    gc.collect()


def stage_train(V, b: Bench) -> None:
    import checks as C

    epochs = b.spec.train_epochs
    start = time.perf_counter()
    params, curve = V.training.train(b.train_set, b.graph, b.table,
                                     train_config(V, b, "full", epochs))
    elapsed = time.perf_counter() - start
    answers = set(params.answer_vocab)
    trained = sum(ex.answer in answers for ex in b.train_set)
    b.times["train"].append(elapsed)
    b.work["train"] = trained * epochs
    C.check_loss_falls(curve)


def stage_eval(V, b: Bench) -> None:
    start = time.perf_counter()
    on_train = V.training.evaluate(b.train_set, b.params, b.graph, b.table, "full")
    on_heldout = V.training.evaluate(b.heldout_set, b.params, b.graph, b.table, "full")
    elapsed = time.perf_counter() - start
    b.times["eval"].append(elapsed)
    b.work["eval"] = on_train.total + on_heldout.total
    b.acc_train = on_train.accuracy_all


def answer_ops(b: Bench, r: int):
    stream = b.inputs.stream
    return [stream[(r * ANSWER_BATCH + i) % len(stream)] for i in range(ANSWER_BATCH)]


def answer_one(V, b: Bench, ex) -> None:
    import checks as C

    start = time.perf_counter()
    _, _, slots = query_path(V, ex.tokens, ex.feature, b.graph, b.table, b.params)
    b.latencies[-1].append(time.perf_counter() - start)
    key = tuple(ex.tokens)
    b.repeats += key in b.asked
    b.asked.add(key)
    C.check_gold_in_memory(slots, ex.gold, ex.tokens)


def stage_ablate(V, b: Bench) -> None:
    """The five-mode train + eval sweep of `vkmn ablate`, tables made beforehand."""
    start = time.perf_counter()
    reports = {}
    for mode in V.model.MODES:
        table = None if mode == "q_only" else (b.bow if mode == "bow" else b.table)
        params, _ = V.training.train(b.train_set, b.graph, table,
                                     train_config(V, b, mode, b.spec.ablate_epochs))
        reports[mode] = V.training.evaluate(b.heldout_set, params, b.graph, table, mode)
    b.times["ablate"].append(time.perf_counter() - start)
    b.acc_heldout = {m: rep.accuracy_all for m, rep in reports.items()}


def stage_transe(V, b: Bench) -> None:
    import checks as C

    epochs = b.spec.transe_epochs
    start = time.perf_counter()
    table = V.embedding.train_transe(b.graph, V.embedding.TransEConfig(
        dim=b.spec.knowledge_dim, epochs=epochs, seed=b.seed))
    elapsed = time.perf_counter() - start
    b.times["transe"].append(elapsed)
    b.work["transe"] = len(b.inputs.triples) * epochs
    C.check_unit_norms(table.entity_vectors)


def stage_rank(V, b: Bench) -> None:
    import checks as C

    start = time.perf_counter()
    ranks = [V.embedding.rank_tail(s, rel, t, b.table, b.graph) for s, rel, t in b.rank_triples]
    elapsed = time.perf_counter() - start
    b.times["rank"].append(elapsed)
    b.work["rank"] = len(ranks)
    for triple, got in zip(b.rank_triples, ranks):
        C.check_tail_rank(got, b.ranker.bounds(*triple), triple)


STAGE_FNS = {"setup": stage_setup, "train": stage_train, "eval": stage_eval,
             "ablate": stage_ablate, "transe": stage_transe, "rank": stage_rank}


def run_round(V, b: Bench, ledger: Ledger, r: int, tracer=None) -> Dict[str, float]:
    """One repetition of every stage; returns each stage's wall time."""
    spent = {}
    for stage in STAGES:
        start = time.perf_counter()
        if stage == "answer":
            b.latencies.append([])
            for i, ex in enumerate(answer_ops(b, r)):
                if tracer is not None:
                    tracer.op = f"answer:{r}:{i}"
                ledger.run(f"answer:{r}:{i}", answer_one, V, b, ex)
        else:
            for i in range(b.spec.reps.get(stage, 1)):
                if tracer is not None:
                    tracer.op = f"{stage}:{r}:{i}"
                ledger.run(f"{stage}:{r}:{i}", STAGE_FNS[stage], V, b)
        spent[stage] = time.perf_counter() - start
    return spent


# --- metrics -----------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def upper_decile(values: Sequence[float]) -> float:
    """90th percentile, interpolated: the time of a repetition in the slower
    of the two speeds this host alternates between (see README.md)."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(b: Bench) -> Dict[str, Tuple[float, str]]:
    def rate(stage: str) -> float:
        return b.work[stage] / upper_decile(b.times[stage])

    return {
        "setup_s": (upper_decile(b.times["setup"]), "s"),
        "train_ex_per_s": (rate("train"), "examples/s"),
        "eval_ex_per_s": (rate("eval"), "examples/s"),
        "answer_p50_ms": (1e3 * upper_decile([percentile(r, 50) for r in b.latencies]), "ms"),
        "answer_p95_ms": (1e3 * percentile([x for r in b.latencies for x in r], 95), "ms"),
        "ablate_s": (upper_decile(b.times["ablate"]), "s"),
        "transe_triples_per_s": (rate("transe"), "triples/s"),
        "tail_rank_per_s": (rate("rank"), "rankings/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "acc_train": (b.acc_train, "fraction"),
    }


def per_layer(V, b: Bench, tracer, first_round: str, calls_first: Dict[str, int],
              overhead: float) -> Dict[str, Tuple[float, str]]:
    kids = tracer.children()

    def med(name: str, op: str = "", scale: float = 1.0) -> float:
        return scale * median([s.seconds for s in tracer.select(name, op)])

    def prepare_seconds(span) -> float:
        return sum(c.seconds for c in kids.get(span.id, ())
                   if c.name in ("spotting.spot_question", "model.slot_features"))

    def steps(span) -> int:
        return sum(c.name == "model.forward" for c in kids.get(span.id, ()))

    train_spans = tracer.select("training.train", "train:")
    expands = [s.info["expanded"] for s in tracer.select("spotting.expand_neighborhood")
               if s.info]
    selects = [s.info for s in tracer.select("spotting.select_slots") if s.info]
    eval_calls = eval_distinct = 0
    for span in tracer.select("training.evaluate", "eval:"):
        asked = [c.info["question"] for c in kids.get(span.id, ())
                 if c.name == "spotting.spot_question" and c.info]
        eval_calls += len(asked)
        eval_distinct += len(set(asked))
    first = [s for s in tracer.spans if s.op.split(":")[1:2] == [first_round]]
    adjacency = getattr(b.graph, "adjacency", None)

    m: Dict[str, Tuple[float, str]] = {
        "kb.load_kb_s": (med("kb.load_kb", "setup:"), "s"),
        "kb.build_graph_s": (med("kb.build_graph", "setup:"), "s"),
        "kb.adjacency_edges": (float(sum(len(v) for v in adjacency.values()))
                               if adjacency is not None else 0.0, "count"),
        "kb.entry_set_us": (med("kb.entry_set", scale=1e6), "us"),
        "kb.entry_set_calls": (float(sum(s.name == "kb.entry_set" for s in first)), "count"),
        "spotting.match_us": (med("spotting.match_entries", scale=1e6), "us"),
        "spotting.spot_us": (med("spotting.spot_triples", scale=1e6), "us"),
        "spotting.expand_us": (med("spotting.expand_neighborhood", scale=1e6), "us"),
        "spotting.select_us": (med("spotting.select_slots", scale=1e6), "us"),
        "spotting.expanded_mean": (statistics.fmean(expands) if expands else 0.0, "count"),
        "spotting.slot_yield": (sum(s["filled"] for s in selects)
                                / max(1, sum(s["candidates"] for s in selects)), "fraction"),
        "spotting.calls_per_question": (eval_calls / max(1, eval_distinct), "ratio"),
        "spotting.gold_in_memory": (b.gold_in_memory, "fraction"),
        "embedding.transe_epoch_s": (median([s.seconds / s.info["epochs"] for s in
                                             tracer.select("embedding.train_transe", "transe:")
                                             if s.info]), "s"),
        "embedding.rank_tail_ms": (med("embedding.rank_tail", scale=1e3), "ms"),
        "embedding.embed_entry_calls": (float(calls_first.get("embedding.embed_entry", 0)),
                                        "count"),
        "embedding.load_s": (med("embedding.load_embeddings", "setup:"), "s"),
        "model.slot_features_us": (med("model.slot_features", scale=1e6), "us"),
        "model.forward_us": (1e6 * median([s.seconds for s in tracer.select("model.forward")
                                           if s.info and s.info["mode"] == "full"]), "us"),
        "model.backward_us": (med("model.backward", "train:", 1e6), "us"),
        "model.load_checkpoint_s": (med("model.load_checkpoint", "setup:"), "s"),
        "model.checkpoint_bytes": (float(os.path.getsize(b.paths["model.bin"])), "bytes"),
        "kernel.sgd_step_us": (med("kernel.sgd_step", "train:", 1e6), "us"),
        "kernel.sgd_floats_per_step": (median([s.info["floats"] for s in
                                               tracer.select("kernel.sgd_step", "train:")
                                               if s.info]), "count"),
        "training.prepare_s": (median([prepare_seconds(s) for s in train_spans]), "s"),
        "training.epoch_s": (median([(s.seconds - prepare_seconds(s)) / s.info["epochs"]
                                     for s in train_spans if s.info]), "s"),
        "training.trained_examples": (median([steps(s) / s.info["epochs"]
                                              for s in train_spans if s.info]), "count"),
    }
    for mode in V.model.MODES:
        spans = [s for s in tracer.select("training.train", "ablate:")
                 if s.info and s.info["mode"] == mode]
        m[f"training.step_us.{mode}"] = (1e6 * median(
            [(s.seconds - prepare_seconds(s)) / max(1, steps(s)) for s in spans]), "us")
        m[f"training.acc_heldout.{mode}"] = (b.acc_heldout.get(mode, float("nan")), "fraction")
    m["trace.overhead_pct"] = (overhead, "%")
    return m


# --- main --------------------------------------------------------------------

def measure(V, b: Bench, ledger: Ledger, seconds: float, traced: bool):
    """Rounds until `seconds` have passed; with tracing, every odd round is traced."""
    from tracing import Tracer

    tracer = Tracer() if traced else None
    plain: Dict[str, List[float]] = {s: [] for s in STAGES}
    spans_at: Dict[str, List[float]] = {s: [] for s in STAGES}
    first_round, first_spans, calls_first = None, 0, {}
    start = time.perf_counter()
    r = 0
    while True:
        if traced and r % 2 == 1:
            uninstall = tracer.install()
            try:
                spent = run_round(V, b, ledger, r, tracer)
            finally:
                uninstall()
            if first_round is None:
                first_round, calls_first = str(r), dict(tracer.calls)
                first_spans = len(tracer.spans)
            for s, t in spent.items():
                spans_at[s].append(t)
        else:
            spent = run_round(V, b, ledger, r)
            for s, t in spent.items():
                plain[s].append(t)
        r += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and r >= MIN_ROUNDS) or elapsed >= HARD_STOP_S:
            break
    b.rounds = r
    if not traced:
        return None
    overhead = 100.0 * (sum(median(spans_at[s]) for s in STAGES)
                        / sum(median(plain[s]) for s in STAGES) - 1.0)
    tracer.write(os.path.join(OUT, f"trace-{b.workload}-seed{b.seed}.jsonl"),
                 tracer.spans[:first_spans])
    return per_layer(V, b, tracer, first_round, calls_first, overhead)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vkmn", "__init__.py")):
        print(f"error: no vkmn sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one thread in all: the interpreter's; BLAS must not add its own
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import types

    import vkmn.cli
    import vkmn.embedding
    import vkmn.kb
    import vkmn.model
    import vkmn.spotting
    import vkmn.training
    from workloads import SPECS, make_inputs, write_inputs

    V = types.SimpleNamespace(kb=vkmn.kb, spotting=vkmn.spotting, embedding=vkmn.embedding,
                              model=vkmn.model, training=vkmn.training, cli=vkmn.cli)
    spec = SPECS[args.workload]
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        inputs = make_inputs(args.workload, args.seed)
        paths = write_inputs(inputs, work)
        for name in ("embeddings.txt", "model.bin", "feature.json"):
            paths[name] = os.path.join(work, name)
        dims = V.model.ModelDims(d=spec.dim, d_j=spec.dim, d_e=spec.knowledge_dim,
                                 d_w=spec.knowledge_dim, m_slots=spec.m_slots,
                                 k_answers=spec.k_answers)
        b = Bench(workload=args.workload, seed=args.seed, spec=spec, inputs=inputs,
                  paths=paths, dims=dims)
        ledger = Ledger()
        prep_start = time.perf_counter()
        prepare(V, b, ledger)
        prep_s = time.perf_counter() - prep_start
        layers = measure(V, b, ledger, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = layers if args.trace else end_to_end(b)
    n = sum(len(r) for r in b.latencies)
    print(f"{args.workload} seed {args.seed}: {len(inputs.triples)} triples, "
          f"{len(b.train_set)} train / {len(b.heldout_set)} held-out examples, "
          f"{len(set(tuple(e.tokens) for e in inputs.stream))} distinct of "
          f"{len(inputs.stream)} stream questions; prep {prep_s:.1f}s, {b.rounds} rounds, "
          f"{n} answers ({b.repeats / max(1, n):.3f} asked before)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result, allow_nan=False)   # NaN is no JSON number
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"result": result, "samples": {"times": b.times, "work": b.work,
                                                  "latencies": b.latencies}}, f)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
