#!/usr/bin/env python3
"""Show that every benchmark check accepts a right output and rejects a wrong one.

    python3 perfbench/selftest.py

Builds the seed-7 `ref` workload, takes real outputs of the program, and
hands each check of checks.py first the output as it is, then a
deliberately wrong copy of it. Exits 0 when every check accepted the first
and rejected the second.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import numpy as np

    import checks as C
    from vkmn import embedding, kb, model, spotting, training
    from workloads import SPECS, make_inputs

    spec = SPECS["ref"]
    inputs = make_inputs("ref", 7)
    graph = kb.build_graph([kb.Triple(*t) for t in inputs.triples])
    table = embedding.train_transe(graph, embedding.TransEConfig(
        dim=spec.knowledge_dim, epochs=spec.transe_file_epochs, seed=7))
    untrained = embedding.train_transe(graph, embedding.TransEConfig(
        dim=spec.knowledge_dim, epochs=0, seed=7))
    dims = model.ModelDims(d=spec.dim, d_j=spec.dim, d_e=spec.knowledge_dim,
                           d_w=spec.knowledge_dim, m_slots=spec.m_slots,
                           k_answers=spec.k_answers)
    examples = [training.VqaExample(ex.tokens, ex.feature, ex.answer) for ex in inputs.train]
    params, curve = training.train(examples, graph, table, training.TrainConfig(
        lr=spec.lr, epochs=spec.checkpoint_epochs, seed=7, mode="full", dims=dims))
    ex = inputs.train[0]
    rng = np.random.default_rng(0)

    slots = spotting.spot_question(ex.tokens, graph, spec.m_slots).slots
    want = C.BruteForceRetrieval(inputs.triples).slots(ex.tokens, spec.m_slots)
    real = [s for s in slots if s is not None]
    swapped = list(slots)
    swapped[0], swapped[len(real) - 1] = swapped[len(real) - 1], swapped[0]
    no_gold = [None if s == ex.gold else s for s in slots]

    label = params.answer_vocab.index(ex.answer)
    feats = model.slot_features(spotting.spot_question(ex.tokens, graph, spec.m_slots),
                                table, graph)

    def loss():
        return model.forward(ex.tokens, ex.feature, params, "full", feats, label).loss

    grads = model.backward(model.forward(ex.tokens, ex.feature, params, "full", feats, label),
                           label, params)
    scaled = {k: (1.01 * g if k == "W_o" else g) for k, g in grads.items()}
    zeroed = {k: (np.zeros_like(g) if k == "W_t" else g) for k, g in grads.items()}

    bent = dict(table.entity_vectors)
    first = sorted(bent)[0]
    bent[first] = bent[first] * (1.0 + 1e-6)

    ranker = C.VectorRanker(inputs.triples, table.entity_vectors, table.relation_vectors)
    s, r, t = inputs.triples[0]
    rank = embedding.rank_tail(s, r, t, table, graph)
    lo_hi = ranker.bounds(s, r, t)
    trained_mean = ranker.mean_rank(inputs.triples)
    untrained_mean = C.VectorRanker(inputs.triples, untrained.entity_vectors,
                                    untrained.relation_vectors).mean_rank(inputs.triples)

    report = training.evaluate(examples, params, graph, table, "full")
    n_right = sum(report.correct.values())

    def answer(x):
        out = model.forward(x.tokens, x.feature, params, "full", model.slot_features(
            spotting.spot_question(x.tokens, graph, spec.m_slots), table, graph))
        return params.answer_vocab[int(np.argmax(out.logits))], out.logits

    predictions = [answer(x) for x in inputs.train[:5]]
    nudged = [(a, z.copy()) for a, z in predictions]
    nudged[2][1][0] = np.nextafter(nudged[2][1][0], np.inf)
    relabelled = list(predictions)
    relabelled[1] = ("not-an-answer", predictions[1][1])

    cases = [
        ("spot_question vs brute-force scan",
         lambda: C.check_spotting(slots, want, ex.tokens),
         lambda: C.check_spotting(swapped, want, ex.tokens)),
        ("gold triple in memory",
         lambda: C.check_gold_in_memory(slots, ex.gold, ex.tokens),
         lambda: C.check_gold_in_memory(no_gold, ex.gold, ex.tokens)),
        ("backward vs finite differences (scaled W_o gradient)",
         lambda: C.check_gradients(loss, params.matrices, grads, np.random.default_rng(1)),
         lambda: C.check_gradients(loss, params.matrices, scaled, np.random.default_rng(1))),
        ("backward vs finite differences (W_t gradient dropped)",
         lambda: C.check_gradients(loss, params.matrices, grads, np.random.default_rng(2)),
         lambda: C.check_gradients(loss, params.matrices, zeroed, np.random.default_rng(2))),
        ("TransE unit entity norms",
         lambda: C.check_unit_norms(table.entity_vectors),
         lambda: C.check_unit_norms(bent)),
        ("TransE beats the epochs-0 table",
         lambda: C.check_rank_improves(trained_mean, untrained_mean),
         lambda: C.check_rank_improves(untrained_mean, trained_mean)),
        ("rank_tail vs vectorised ranking",
         lambda: C.check_tail_rank(rank, lo_hi, (s, r, t)),
         lambda: C.check_tail_rank(lo_hi[1] + 1, lo_hi, (s, r, t))),
        ("training loss falls",
         lambda: C.check_loss_falls(curve),
         lambda: C.check_loss_falls(curve[::-1])),
        ("ref training accuracy >= 0.95",
         lambda: C.check_ref_accuracy(report.accuracy_all),
         lambda: C.check_ref_accuracy(0.94)),
        ("evaluate vs query path",
         lambda: C.check_eval_matches_query(n_right, n_right, report.total),
         lambda: C.check_eval_matches_query(n_right, n_right - 1, report.total)),
        ("`vkmn eval` vs evaluate",
         lambda: C.check_cli_eval(dict(report.correct), report.correct),
         lambda: C.check_cli_eval({**report.correct, "other": n_right + 1}, report.correct)),
        ("`vkmn query` vs query path",
         lambda: C.check_cli_answers(["obj1", "obj2"], ["obj1", "obj2"]),
         lambda: C.check_cli_answers(["obj1", "obj3"], ["obj1", "obj2"])),
        ("round trip keeps predictions (one logit one ulp off)",
         lambda: C.check_same_predictions(predictions, [(a, z.copy()) for a, z in predictions]),
         lambda: C.check_same_predictions(predictions, nudged)),
        ("round trip keeps predictions (one answer changed)",
         lambda: C.check_same_predictions(predictions, predictions),
         lambda: C.check_same_predictions(predictions, relabelled)),
    ]

    ok = True
    for name, right, wrong in cases:
        try:
            right()
            accepted = True
        except C.CheckFailed as e:
            accepted = False
            print(f"  right output refused: {e}")
        try:
            wrong()
            rejected = False
        except C.CheckFailed:
            rejected = True
        verdict = "ok" if accepted and rejected else "FAIL"
        ok &= accepted and rejected
        print(f"{verdict:4s} {name}: accepts the real output: {accepted}, "
              f"rejects the wrong one: {rejected}")
    print("all checks reject wrong outputs" if ok else "some check does not do its job")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
