"""Top-level acceptance checks for the whole pipeline.

Run with `pytest -s tests/test_acceptance.py` to see one verdict line per
property. Every check is oracle-based: independent recomputation, brute
force, pigeonhole arguments, or frozen regression anchors.
"""

import contextlib
import io
import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from vkmn.cli import main as cli_main
from vkmn.embedding import TransEConfig, train_transe
from vkmn.kb import KnowledgeGraph, Triple, build_graph, load_kb, save_kb
from vkmn.kernel import masked_softmax
from vkmn.model import (
    ModelDims,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
    slot_features,
)
from vkmn.spotting import (
    MAX_NGRAM,
    SlotAssignment,
    expand_neighborhood,
    match_entries,
    spot_question,
    spot_triples,
)
from vkmn.training import (
    ANSWER_TYPES,
    REPORT_COLUMNS,
    TrainConfig,
    VqaExample,
    build_answer_vocab,
    evaluate,
    format_report_table,
    gradient_check,
    make_synthetic_task,
    train,
)

GRAD_DIMS = ModelDims(d=8, d_j=6, d_e=5, d_w=4, m_slots=4, k_answers=3)
ALL_MODES = ("full", "bow", "blind", "q_only", "no_replication")

REFERENCE_DIMS = ModelDims(d=32, d_j=32, d_e=16, d_w=16, m_slots=8, k_answers=50)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def reference_task():
    task = make_synthetic_task(seed=7)
    table = train_transe(task.graph, TransEConfig(dim=16, epochs=200, seed=7))
    return task, table


# 1 -------------------------------------------------------------------------

def test_gradient_correctness_all_modes():
    """Analytic backward vs central finite differences, every mode, 10 seeds."""
    start = time.perf_counter()
    worst = 0.0
    for mode in ALL_MODES:
        for seed in range(10):
            err = gradient_check(TrainConfig(mode=mode, dims=GRAD_DIMS), seed=seed)
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict("gradient correctness",
             ok, f"max rel err {worst:.3e} <= 1e-4 over 5 modes x 10 seeds, "
                 f"{elapsed:.1f}s < 10s")


# 2 -------------------------------------------------------------------------

def test_addressing_and_reading_algebra():
    """Masked softmax normalization, one-hot reads, empty-memory passthrough."""
    rng = np.random.default_rng(0)
    ok = True
    # normalization with exact zeros at masked slots
    for _ in range(300):
        n = int(rng.integers(1, 12))
        scores = rng.normal(scale=5.0, size=n)
        mask = rng.integers(0, 2, size=n).astype(bool)
        if not mask.any():
            mask[int(rng.integers(n))] = True
        p = masked_softmax(scores, mask)
        ok &= abs(p.sum() - 1.0) <= 1e-12
        ok &= bool(np.all(p[~mask] == 0.0))
    # a one-real-slot memory addresses it one-hot and reads exactly its
    # value row in every block: o = A v_j
    dims = GRAD_DIMS
    graph = build_graph([Triple("alpha", "near", "beta")])
    from vkmn.embedding import EmbeddingTable

    table = EmbeddingTable(dim=dims.d_e,
                           entity_vectors={"alpha": rng.standard_normal(dims.d_e)})
    for seed in range(50):
        params = init_params(["alpha", "near", "beta"], ["a0", "a1", "a2"], dims,
                             seed=seed)
        j = seed % dims.m_slots
        tids = [None] * dims.m_slots
        tids[j] = 0
        one = SlotAssignment(slots=tids)
        tr = forward(["alpha", "near"], rng.standard_normal(dims.d), params, "full",
                     slot_features(one, table, graph))
        onehot = np.zeros(dims.m_slots)
        onehot[j] = 1.0
        ok &= len(tr.blocks) == 3
        for b in range(len(tr.blocks)):
            ok &= np.array_equal(tr.p[b], onehot)
            ok &= tr.o[b].tobytes() == (params.matrices["A"][b] @ tr.V[b, j]).tobytes()
    # an all-masked memory contributes nothing: q' = q and the full-mode
    # logits coincide with the memoryless mode bit for bit
    params = init_params(["alpha", "near", "beta"], ["a0", "a1", "a2"], dims, seed=1)
    empty = SlotAssignment(slots=[None] * dims.m_slots)
    feats = slot_features(empty, table, graph)
    u = rng.standard_normal(dims.d)
    tr_full = forward(["alpha", "near"], u, params, "full", feats)
    tr_qonly = forward(["alpha", "near"], u, params, "q_only")
    ok &= np.array_equal(tr_full.q_prime, tr_full.q)
    ok &= tr_full.logits.tobytes() == tr_qonly.logits.tobytes()
    ok &= tr_full.blocks == ()
    _verdict("addressing and reading algebra",
             ok, "sum 1 +- 1e-12, masked exactly 0, one-hot read o = A v_j "
                 "bit-exact, empty memory leaves logits untouched")


# 3 -------------------------------------------------------------------------

def _oracle_greedy(tokens, entries):
    """Independent longest-match rescan used as the matching oracle."""
    hits = set()
    i = 0
    while i < len(tokens):
        for n in range(min(MAX_NGRAM, len(tokens) - i), 0, -1):
            cand = " ".join(tokens[i:i + n])
            if cand in entries:
                hits.add(cand)
                i += n
                break
        else:
            i += 1
    return hits


def test_spotting_matches_brute_force():
    """100 random KBs, 1,000 random questions, exact set equality."""
    rng = np.random.default_rng(123)
    words = [f"w{i}" for i in range(40)]
    rels = [f"r{i}" for i in range(10)]
    start = time.perf_counter()
    ok = True
    n_questions = 0
    for _ in range(100):
        n_triples = int(rng.integers(1, 1001))
        triples = []
        for _ in range(n_triples):
            if rng.integers(4) == 0:  # some multi-word entities
                s = f"{words[rng.integers(40)]} {words[rng.integers(40)]}"
            else:
                s = words[rng.integers(40)]
            t = words[rng.integers(40)]
            triples.append(Triple(s, rels[rng.integers(10)], t))
        graph = build_graph(triples)
        entries = graph.entry_set()
        phrase_sets = [set(t.phrases()) for t in graph.triples]
        for _ in range(10):
            n_questions += 1
            tokens = [words[rng.integers(40)] if rng.integers(3) else
                      rels[rng.integers(10)] for _ in range(int(rng.integers(3, 9)))]
            matched = match_entries(tokens, graph.entry_set())
            ok &= matched == _oracle_greedy(tokens, entries)
            spotted = spot_triples(matched, graph)
            brute_core = sorted(tid for tid, ps in enumerate(phrase_sets)
                                if len(matched & ps) >= 2)
            ok &= spotted.core == brute_core
            expanded = expand_neighborhood(spotted, graph)
            core_phrases = set().union(*(phrase_sets[c] for c in brute_core))
            brute_hop = [tid for tid, ps in enumerate(phrase_sets)
                         if tid not in brute_core and ps & core_phrases]
            ok &= expanded.expanded == brute_core + brute_hop
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0 and n_questions == 1000
    _verdict("spotting equals brute force",
             ok, f"{n_questions} questions over 100 KBs, expansion equals the "
                 f"one-hop set, {elapsed:.1f}s < 5s")


# 4 -------------------------------------------------------------------------

def test_transe_rank_improvement():
    """Mean filtered tail rank falls from the anchored init to the anchored
    trained value on the 20-entity/5-relation chain; norms stay unit."""

    def rank_oracle(table, graph):
        # brute-force filtered ranking, coded independently of rank_tail
        ranks = []
        for tr in graph.triples:
            others = {x.target for x in graph.triples
                      if x.subject == tr.subject and x.relation == tr.relation
                      and x.target != tr.target}
            s = table.entity_vectors[tr.subject]
            r = table.relation_vectors[tr.relation]
            scored = []
            for e in sorted(graph.entities):
                if e in others:
                    continue
                d = float(np.linalg.norm(s + r - table.entity_vectors[e]))
                scored.append((d, e))
            scored.sort()
            ranks.append(1 + [e for _, e in scored].index(tr.target))
        return float(np.mean(ranks))

    graph = build_graph([Triple(f"e{i}", f"r{i % 5}", f"e{i + 1}")
                         for i in range(19)])
    t0 = train_transe(graph, TransEConfig(dim=16, epochs=0, seed=3))
    t1 = train_transe(graph, TransEConfig(dim=16, epochs=1000, seed=3))
    rank_init = rank_oracle(t0, graph)
    rank_final = rank_oracle(t1, graph)
    norm_ok = (max(t1.history.max_norm_error) <= 1e-9
               and all(abs(np.linalg.norm(v) - 1.0) <= 1e-9
                       for v in t1.entity_vectors.values()))
    # frozen regression anchors for seed 3, dim 16
    anchors_ok = (abs(rank_init - 11.578947368421053) < 1e-9
                  and rank_final == 1.0)
    ok = rank_final < rank_init and norm_ok and anchors_ok
    _verdict("translation embedding ranks",
             ok, f"mean filtered tail rank {rank_init:.3f} -> {rank_final:.3f} "
                 f"(anchors 11.579 -> 1.0), entity norms 1 +- 1e-9 throughout")


# 5 -------------------------------------------------------------------------

def test_synthetic_learnability_and_replication(reference_task):
    """Full model memorizes the seed-7 task; a single-block model is
    pigeonholed to at most one answer per confusable pair."""
    task, table = reference_task
    cfg = TrainConfig(lr=0.05, epochs=500, seed=7, mode="full",
                      dims=REFERENCE_DIMS)
    params, _ = train(task.train, task.graph, table, cfg)
    report = evaluate(task.train, params, task.graph, table, "full")
    train_acc = report.accuracy_all

    cfg_nr = TrainConfig(lr=0.05, epochs=500, seed=7, mode="no_replication",
                         dims=REFERENCE_DIMS)
    params_nr, _ = train(task.train, task.graph, table, cfg_nr)
    answer_index = {a: i for i, a in enumerate(params_nr.answer_vocab)}

    pairs_ok = len(task.pair_indices) >= 2
    for i, j in task.pair_indices:
        q1, q2 = task.train[i], task.train[j]
        # input identity first: token multiset, feature bytes, spotted slots
        pairs_ok &= sorted(q1.question_tokens) == sorted(q2.question_tokens)
        pairs_ok &= q1.visual_feature.tobytes() == q2.visual_feature.tobytes()
        s1 = spot_question(q1.question_tokens, task.graph, REFERENCE_DIMS.m_slots)
        s2 = spot_question(q2.question_tokens, task.graph, REFERENCE_DIMS.m_slots)
        pairs_ok &= s1.slots == s2.slots and s1.mask == s2.mask
        pairs_ok &= q1.answer != q2.answer
        # output identity follows, so at most one answer can be right
        f1 = slot_features(s1, table, task.graph)
        tr1 = forward(q1.question_tokens, q1.visual_feature, params_nr,
                      "no_replication", f1)
        tr2 = forward(q2.question_tokens, q2.visual_feature, params_nr,
                      "no_replication", f1)
        pairs_ok &= tr1.logits.tobytes() == tr2.logits.tobytes()
        pred = int(np.argmax(tr1.logits))
        n_right = sum(int(answer_index.get(q.answer, -1) == pred)
                      for q in (q1, q2))
        pairs_ok &= n_right <= 1
    ok = train_acc is not None and train_acc >= 0.95 and pairs_ok
    _verdict("synthetic learnability",
             ok, f"full-mode training accuracy {train_acc:.3f} >= 0.95 in 500 "
                 f"epochs; single-block outputs identical on each confusable "
                 f"pair, at most 1 of 2 correct")


# 6 -------------------------------------------------------------------------

def test_determinism_and_round_trips(reference_task, tmp_path):
    """Bit-identical reruns and lossless persistence."""
    task, table = reference_task
    cfg = TrainConfig(lr=0.05, epochs=30, seed=7, mode="full",
                      dims=REFERENCE_DIMS)
    p1, c1 = train(task.train, task.graph, table, cfg)
    p2, c2 = train(task.train, task.graph, table, cfg)
    curves_ok = c1 == c2
    matrices_ok = all(np.array_equal(p1.matrices[k], p2.matrices[k])
                      for k in p1.matrices)

    ckpt = tmp_path / "model.bin"
    save_checkpoint(p1, ckpt)
    p3 = load_checkpoint(ckpt)
    ex = task.train[0]
    feats = slot_features(spot_question(ex.question_tokens, task.graph,
                                        REFERENCE_DIMS.m_slots), table, task.graph)
    l_before = forward(ex.question_tokens, ex.visual_feature, p1, "full", feats).logits
    l_after = forward(ex.question_tokens, ex.visual_feature, p3, "full", feats).logits
    ckpt_ok = l_before.tobytes() == l_after.tobytes()

    kb_path = tmp_path / "kb.tsv"
    save_kb(task.graph.triples, kb_path)
    kb_ok = load_kb(kb_path).triples == task.graph.triples

    qa = tmp_path / "qa.jsonl"
    qa.write_text(json.dumps({"question": ["what", "do", "dogs", "eat"],
                              "answer": "bone"}) + "\n")
    outs = []
    for name in ("kb1.tsv", "kb2.tsv"):
        out = tmp_path / name
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli_main(["build-kb", "--qa", str(qa), "--out", str(out),
                           "--min-count", "1"])
        assert rc == 0
        outs.append(out.read_bytes())
    cli_ok = outs[0] == outs[1]

    ok = curves_ok and matrices_ok and ckpt_ok and kb_ok and cli_ok
    _verdict("determinism and round trips",
             ok, "fixed-seed loss curves bit-identical, checkpoint logits "
                 "bit-exact, KB TSV lossless, build-kb reruns byte-identical")


# 7 -------------------------------------------------------------------------

def _refuse(op: str):
    return lambda self, *args: _Untouchable.__getattribute__(self, op)


class _Untouchable:
    """Stand-in for a graph or an embedding table: any attribute read, and
    any len, bool, iteration, indexing or membership test, is logged and
    raises."""

    def __init__(self, label: str, reads: list):
        object.__setattr__(self, "_where", (label, reads))

    def __getattribute__(self, name):
        label, reads = object.__getattribute__(self, "_where")
        reads.append(f"{label}.{name}")
        raise AssertionError(f"memoryless mode read {label}.{name}")

    __len__, __bool__, __iter__ = _refuse("__len__"), _refuse("__bool__"), _refuse("__iter__")
    __getitem__, __contains__ = _refuse("__getitem__"), _refuse("__contains__")


def test_blind_and_query_only_isolation(reference_task):
    """Blind mode ignores the visual input; the memoryless mode touches
    neither the KB nor the embedding table."""
    task, table = reference_task
    params = init_params(["what", "do", "obj0", "rel0"], ["a", "b"],
                         replace(REFERENCE_DIMS, k_answers=2), seed=5)
    rng = np.random.default_rng(9)
    sa = spot_question(["what", "do", "obj0", "rel0"], task.graph,
                       REFERENCE_DIMS.m_slots)
    feats = slot_features(sa, table, task.graph)
    u1 = rng.standard_normal(REFERENCE_DIMS.d)
    u2 = u1 + rng.standard_normal(REFERENCE_DIMS.d) * 100.0
    l1 = forward(["what", "do", "obj0", "rel0"], u1, params, "blind", feats).logits
    l2 = forward(["what", "do", "obj0", "rel0"], u2, params, "blind", feats).logits
    blind_ok = l1.tobytes() == l2.tobytes()

    reads = []
    graph, table = _Untouchable("graph", reads), _Untouchable("table", reads)
    cfg = TrainConfig(lr=0.05, epochs=2, seed=0, mode="q_only",
                      dims=REFERENCE_DIMS)
    params_q, _ = train(task.train[:10], graph, table, cfg)
    evaluate(task.train[:10], params_q, graph, table, "q_only")
    isolated_ok = reads == []

    ok = blind_ok and isolated_ok
    _verdict("mode isolation",
             ok, "blind logits unchanged under visual perturbation; "
                 "memoryless train+eval read nothing of stand-ins for the KB "
                 f"and the embedding table (reads: {reads})")


# 8 -------------------------------------------------------------------------

def test_report_recombination_and_columns():
    """Per-type accuracies recombine exactly; table matches All/Y-N/Num/Other."""
    dims = ModelDims(d=4, d_j=4, d_e=3, d_w=3, m_slots=2, k_answers=10)
    f = np.zeros(dims.d)
    examples = [VqaExample(["what"], f, a)
                for a in ("yes", "no", "no", "2", "three", "cat", "cat", "dog")]
    answers = build_answer_vocab(examples, 10)
    params = init_params(["what"], answers,
                         replace(dims, k_answers=len(answers)), seed=0)
    report = evaluate(examples, params, None, None, "q_only")

    counts_ok = report.total == len(examples)
    recombined = Fraction(0)
    for t in ANSWER_TYPES:
        if report.counts[t]:
            recombined += (Fraction(report.correct[t], report.counts[t])
                           * report.counts[t])
    exact_ok = recombined == Fraction(sum(report.correct.values()))
    float_ok = report.accuracy_all == sum(report.correct.values()) / report.total

    table_text = format_report_table([("full", report)])
    header = table_text.splitlines()[0].split()
    columns_ok = (header == ["Model", "All", "Y/N", "Num", "Other"]
                  and REPORT_COLUMNS == ("All", "Y/N", "Num", "Other"))

    ok = counts_ok and exact_ok and float_ok and columns_ok
    _verdict("report integrity",
             ok, "bucket accuracies recombine exactly over counts; columns "
                 "All / Y/N / Num / Other")
