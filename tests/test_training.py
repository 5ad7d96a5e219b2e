"""Trainer, evaluator buckets, gradient check, synthetic benchmark."""

import functools
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmn import training
from vkmn.embedding import TransEConfig, make_bow_table, train_transe
from vkmn.model import MODES, ModelDims, forward, init_params, slot_features
from vkmn.spotting import spot_question
from vkmn.training import (
    ANSWER_TYPES,
    CHUNK_ROWS,
    REPORT_COLUMNS,
    EvalReport,
    TrainConfig,
    VqaExample,
    answer_question,
    build_answer_vocab,
    classify_answer_type,
    evaluate,
    format_report_table,
    gradient_check,
    load_dataset,
    make_synthetic_task,
    save_dataset,
    train,
)

SMALL_DIMS = ModelDims(d=4, d_j=4, d_e=3, d_w=3, m_slots=2, k_answers=10)


# ---------------------------------------------------------------- answer types

def test_classify_answer_type_cases():
    assert classify_answer_type("yes") == "yesno"
    assert classify_answer_type("No") == "yesno"
    assert classify_answer_type("3") == "number"
    assert classify_answer_type("-2") == "number"
    assert classify_answer_type("three") == "number"
    assert classify_answer_type("twenty") == "number"
    assert classify_answer_type("banana") == "other"
    with pytest.raises(ValueError):
        classify_answer_type("")


def test_vqa_example_derives_type():
    ex = VqaExample(["what"], np.zeros(2), "seven")
    assert ex.answer_type == "number"
    with pytest.raises(ValueError):
        VqaExample([], np.zeros(2), "x")
    with pytest.raises(ValueError):
        VqaExample(["q"], np.zeros(2), "")
    with pytest.raises(ValueError):
        VqaExample(["q"], np.zeros(2), "x", answer_type="weird")


def test_train_config_validation():
    TrainConfig(lr=0.0)  # frozen-parameter runs are legal
    with pytest.raises(ValueError):
        TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(mode="fancy")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite_lr(value):
    with pytest.raises(ValueError, match=f"lr must be finite, got {value}"):
        TrainConfig(lr=value)


def test_negative_seeds_are_rejected_by_name():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        make_synthetic_task(seed=-1)


def test_build_answer_vocab_rank_and_ties():
    exs = [VqaExample(["q"], np.zeros(1), a)
           for a in ["red", "red", "blue", "blue", "green"]]
    assert build_answer_vocab(exs, 10) == ["blue", "red", "green"]
    assert build_answer_vocab(exs, 2) == ["blue", "red"]
    with pytest.raises(ValueError):
        build_answer_vocab(exs, 0)


# ---------------------------------------------------------------- train

def _tiny_set():
    return [
        VqaExample(["what", "color"], np.array([0.1, -0.2, 0.3, 0.4]), "red"),
        VqaExample(["what", "shape"], np.array([0.5, 0.1, -0.3, 0.2]), "round"),
    ]


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train([], None, None, TrainConfig(mode="q_only", dims=SMALL_DIMS))


def test_train_lr_zero_returns_untouched_init():
    exs = _tiny_set()
    cfg = TrainConfig(lr=0.0, epochs=3, seed=5, mode="q_only", dims=SMALL_DIMS)
    params, curve = train(exs, None, None, cfg)
    answers = build_answer_vocab(exs, SMALL_DIMS.k_answers)
    vocab = sorted({tok for ex in exs for tok in ex.question_tokens})
    expected = init_params(vocab, answers,
                           replace(SMALL_DIMS, k_answers=len(answers)), seed=5)
    for name, mat in expected.matrices.items():
        assert np.array_equal(params.matrices[name], mat)
    assert curve == [curve[0]] * 3  # frozen params, constant loss


def test_train_drops_out_of_vocab_answers():
    exs = _tiny_set() + [VqaExample(["what", "color"],
                                    np.array([0.0, 0.0, 0.0, 1.0]), "red")]
    dims = replace(SMALL_DIMS, k_answers=1)
    params, curve = train(exs, None, None,
                          TrainConfig(lr=0.01, epochs=2, seed=0,
                                      mode="q_only", dims=dims))
    assert params.answer_vocab == ["red"]  # "round" example was dropped
    assert len(curve) == 2


def test_train_deterministic():
    exs = _tiny_set()
    cfg = TrainConfig(lr=0.05, epochs=10, seed=9, mode="q_only", dims=SMALL_DIMS)
    p1, c1 = train(exs, None, None, cfg)
    p2, c2 = train(exs, None, None, cfg)
    assert c1 == c2
    for name in p1.matrices:
        assert np.array_equal(p1.matrices[name], p2.matrices[name])


def test_train_reference_loss_anchors():
    # 50-epoch prefix of the seed-7 reference run; the rng consumes one
    # permutation per epoch so the prefix is bit-identical to a longer run
    task = make_synthetic_task(seed=7)
    table = train_transe(task.graph, TransEConfig(dim=16, epochs=200, seed=7))
    dims = ModelDims(d=32, d_j=32, d_e=16, d_w=16, m_slots=8, k_answers=50)
    cfg = TrainConfig(lr=0.05, epochs=50, seed=7, mode="full", dims=dims)
    params, curve = train(task.train, task.graph, table, cfg)
    assert math.isclose(curve[0], 3.3457411420554291, rel_tol=1e-6)
    assert math.isclose(curve[49], 0.063232103526572686, rel_tol=1e-6)
    assert curve[49] < curve[0] / 10.0


# ---------------------------------------------------------------- evaluate

def _zero_output_model(answers):
    vocab = ["what", "color", "is", "it"]
    dims = replace(SMALL_DIMS, k_answers=len(answers))
    params = init_params(vocab, answers, dims, seed=0)
    params.matrices["W_o"][:] = 0.0  # softmax ties, argmax picks index 0
    return params


def _bucket_set():
    f = np.zeros(SMALL_DIMS.d)
    return [
        VqaExample(["what", "color"], f, "a"),
        VqaExample(["what", "color"], f, "a"),
        VqaExample(["what", "color"], f, "b"),
        VqaExample(["is", "it"], f, "yes"),
        VqaExample(["what"], f, "2"),
    ]


def test_evaluate_buckets_and_recombination():
    params = _zero_output_model(["a", "b"])
    report = evaluate(_bucket_set(), params, None, None, "q_only")
    assert report.counts == {"other": 3, "yesno": 1, "number": 1}
    assert report.correct == {"other": 2, "yesno": 0, "number": 0}
    assert report.accuracy_all == 2 / 5
    # exact recombination over counts, checked in rational arithmetic
    total = Fraction(0)
    for t in ANSWER_TYPES:
        if report.counts[t]:
            total += Fraction(report.correct[t], report.counts[t]) * report.counts[t]
    assert total / report.total == Fraction(sum(report.correct.values()), report.total)


def test_evaluate_empty_bucket_is_none():
    params = _zero_output_model(["a"])
    f = np.zeros(SMALL_DIMS.d)
    report = evaluate([VqaExample(["what"], f, "a")], params, None, None, "q_only")
    assert report.accuracy("yesno") is None
    assert report.accuracy("other") == 1.0
    assert report.row()[1] == "-"


def test_evaluate_is_pure():
    params = _zero_output_model(["a", "b"])
    r1 = evaluate(_bucket_set(), params, None, None, "q_only")
    r2 = evaluate(_bucket_set(), params, None, None, "q_only")
    assert r1.counts == r2.counts and r1.correct == r2.correct


@pytest.mark.parametrize("lengths, bad", [((4, 5), 2), ((5, 4), 1)])
def test_evaluate_names_an_image_of_the_wrong_length(lengths, bad):
    # one question asked about two images whose lengths differ cannot be
    # stacked; the error names the example that is not (d,) = (4,)
    params = _zero_output_model(["a"])
    examples = [VqaExample(["is", "it"], np.zeros(4), "a")]
    examples += [VqaExample(["what"], np.zeros(k), "a") for k in lengths]
    with pytest.raises(ValueError, match=fr"^test_set\[{bad}\]: visual feature "
                                         r"shape \(5,\), want \(4,\)$"):
        evaluate(examples, params, None, None, "q_only")


@pytest.mark.parametrize("mode", MODES)
def test_evaluate_retrieves_once_per_distinct_question(mode, monkeypatch):
    """Every question of the seed task asked about 3 images, shuffled, the
    gold answer of one image in three taken from another question: train and
    evaluate each retrieve once per distinct question, and evaluate's stacked
    forward counts what answer_question finds example by example."""
    task = make_synthetic_task(seed=7, dim=8)
    rng = np.random.default_rng(3)
    n = len(task.train)
    asked = [VqaExample(list(ex.question_tokens), rng.standard_normal(8),
                        task.train[(i + 7 * (k == 2)) % n].answer)
             for i, ex in enumerate(task.train) for k in range(3)]
    asked = [asked[i] for i in rng.permutation(len(asked))]
    distinct = {tuple(ex.question_tokens) for ex in asked}
    table = (make_bow_table(task.graph, 6, seed=7) if mode == "bow"
             else train_transe(task.graph, TransEConfig(dim=6, epochs=20, seed=7)))
    dims = ModelDims(d=8, d_j=8, d_e=6, d_w=6, m_slots=4, k_answers=50)

    calls = []
    spot = training.spot_question

    def counted(tokens, *args):
        calls.append(tuple(tokens))
        return spot(tokens, *args)

    monkeypatch.setattr(training, "spot_question", counted)
    want_calls = 0 if mode == "q_only" else len(distinct)
    params, _ = train(asked, task.graph, table,
                      TrainConfig(lr=0.05, epochs=3, seed=7, mode=mode, dims=dims))
    assert len(calls) == len(set(calls)) == want_calls
    calls.clear()
    report = evaluate(asked, params, task.graph, table, mode)
    assert len(calls) == len(set(calls)) == want_calls

    counts = {t: 0 for t in ANSWER_TYPES}
    correct = {t: 0 for t in ANSWER_TYPES}
    for ex in asked:
        answer, _, _ = answer_question(ex.question_tokens, ex.visual_feature,
                                       params, task.graph, table, mode)
        counts[ex.answer_type] += 1
        correct[ex.answer_type] += int(answer == ex.answer)
    assert report.counts == counts
    assert report.correct == correct


@functools.lru_cache(maxsize=None)
def _row_task():
    """The seed task at small dims, with both tables: evaluate's row tests."""
    task = make_synthetic_task(seed=7, dim=4)
    return (task, make_bow_table(task.graph, 3, seed=7),
            train_transe(task.graph, TransEConfig(dim=3, epochs=5, seed=7)))


@given(st.sampled_from(MODES),
       st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
                min_size=CHUNK_ROWS + 1, max_size=3 * CHUNK_ROWS),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_evaluate_rows_equal_answer_question(mode, picks, seed):
    """More than CHUNK_ROWS examples of mixed questions: seed-task questions
    sharing triples, repeats, and questions that spot nothing (no live
    slot). evaluate's counts equal answer_question's example by example, and
    every row's logits are the one-row call's within 1e-12."""
    task, bow, transe = _row_task()
    table = bow if mode == "bow" else transe
    questions = [ex.question_tokens for ex in task.train + task.test]
    questions += [["what", "zzz"], ["is", "it", "zzz"]]
    answers = sorted({ex.answer for ex in task.train})
    rng = np.random.default_rng(seed)
    examples = [VqaExample(list(questions[q % len(questions)]), rng.standard_normal(4),
                           answers[a % len(answers)]) for q, a in picks]
    dims = ModelDims(d=4, d_j=4, d_e=3, d_w=3, m_slots=4, k_answers=len(answers))
    params = init_params(sorted({t for q in questions for t in q}), answers, dims, seed=seed)

    rows, sizes = [], []
    forward = training.forward

    def recording(tokens, images, *args):
        trace = forward(tokens, images, *args)
        sizes.append(len(tokens))
        rows.extend(zip(tokens, images, trace.logits))
        return trace

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(training, "forward", recording)
        report = evaluate(examples, params, task.graph, table, mode)
    assert sizes[:-1] == [CHUNK_ROWS] * (len(sizes) - 1) and sum(sizes) == len(examples)

    for tokens, image, logits in rows:
        _, trace, _ = answer_question(tokens, image, params, task.graph, table, mode)
        assert np.max(np.abs(logits - trace.logits)) <= 1e-12
        assert np.argmax(logits) == np.argmax(trace.logits)
    counts = {t: 0 for t in ANSWER_TYPES}
    correct = {t: 0 for t in ANSWER_TYPES}
    for ex in examples:
        answer, _, _ = answer_question(ex.question_tokens, ex.visual_feature,
                                       params, task.graph, table, mode)
        counts[ex.answer_type] += 1
        correct[ex.answer_type] += int(answer == ex.answer)
    assert report.counts == counts
    assert report.correct == correct


def _eight_wide(mode, graph):
    return (make_bow_table(graph, 8, seed=7) if mode == "bow"
            else train_transe(graph, TransEConfig(dim=8, epochs=0, seed=7)))


@pytest.mark.parametrize("mode", MODES)
def test_train_sizes_W_e_from_its_table(mode):
    # the config says d_e 32, the table is 8 wide; q_only reads no table and
    # keeps the config's d_e
    task, _, _ = _row_task()
    table = None if mode == "q_only" else _eight_wide(mode, task.graph)
    dims = replace(SMALL_DIMS, d_e=32)
    params, _ = train(task.train, task.graph, table,
                      TrainConfig(epochs=1, seed=7, mode=mode, dims=dims))
    want = 32 if mode == "q_only" else 8
    assert params.dims.d_e == want
    assert params.matrices["W_e"].shape == (dims.d_j, want)
    assert evaluate(task.test, params, task.graph, table, mode).total == len(task.test)


@pytest.mark.parametrize("mode", [m for m in MODES if m != "q_only"])
def test_a_table_of_another_width_is_named(mode):
    """A model of d_e 3 given an 8-wide table: forward, evaluate and
    answer_question raise a ValueError naming both widths, also on a
    question that spots nothing, whose memory has no live slot."""
    task, _, _ = _row_task()
    wide = _eight_wide(mode, task.graph)
    answers = sorted({ex.answer for ex in task.train})
    vocab = sorted({t for ex in task.train for t in ex.question_tokens})
    params = init_params(vocab, answers, replace(SMALL_DIMS, k_answers=len(answers)))
    u = np.ones(SMALL_DIMS.d)
    message = r"^slot features are 8 wide, the model's d_e is 3$"
    nothing = ["what", "zzz"]
    empty = spot_question(nothing, task.graph, SMALL_DIMS.m_slots)
    assert empty.n_real == 0
    for tokens in (task.train[0].question_tokens, nothing):
        slots = spot_question(tokens, task.graph, SMALL_DIMS.m_slots)
        with pytest.raises(ValueError, match=message):
            forward(tokens, u, params, mode, slot_features(slots, wide, task.graph))
        with pytest.raises(ValueError, match=message):
            forward([tokens] * 2, np.stack([u, u]), params, mode,
                    slot_features([slots] * 2, wide, task.graph))
        with pytest.raises(ValueError, match=message):
            answer_question(tokens, u, params, task.graph, wide, mode)
        with pytest.raises(ValueError, match=message):
            evaluate([VqaExample(list(tokens), u, answers[0])], params, task.graph,
                     wide, mode)
    # q_only never reads the features, whatever their width
    forward(nothing, u, params, "q_only", slot_features(empty, wide, task.graph))


def test_report_table_structure():
    report = EvalReport(counts={"yesno": 2, "number": 0, "other": 2},
                        correct={"yesno": 1, "number": 0, "other": 2})
    text = format_report_table([("full", report), ("blind", report)])
    lines = text.splitlines()
    for col in REPORT_COLUMNS:
        assert col in lines[0]
    assert lines[1].startswith("full")
    assert "75.0" in lines[1]   # 3 of 4 overall
    assert "50.0" in lines[1]   # yes/no bucket
    assert lines[1].split()[-1] == "100.0"
    assert "-" in lines[1]      # empty number bucket


def test_report_json_keys():
    report = EvalReport(counts={"yesno": 1, "number": 0, "other": 0},
                        correct={"yesno": 1, "number": 0, "other": 0},
                        loss_curve=[1.0, 0.5])
    blob = report.to_json()
    assert blob["accuracy_all"] == 1.0
    assert blob["accuracy_number"] is None
    assert blob["loss_curve"] == [1.0, 0.5]


# ---------------------------------------------------------------- gradient check

@pytest.mark.parametrize("mode", MODES)
def test_gradient_check_all_modes(mode):
    dims = ModelDims(d=8, d_j=6, d_e=5, d_w=4, m_slots=4, k_answers=3)
    err = gradient_check(TrainConfig(mode=mode, dims=dims), seed=0)
    assert err <= 1e-4


# ---------------------------------------------------------------- synthetic task

def test_synthetic_task_shapes_and_uniqueness():
    task = make_synthetic_task(seed=3, n_entities=10, n_relations=4,
                               dim=8, n_triples=12)
    triples = task.graph.triples
    assert len(triples) == 12
    assert len({(t.subject, t.relation) for t in triples}) == 12
    assert len({(t.relation, t.target) for t in triples}) == 12
    assert len({(t.subject, t.target) for t in triples}) == 12
    for t in triples:
        assert t.subject != t.target


def test_synthetic_chains_are_confusable():
    task = make_synthetic_task(seed=3, n_entities=10, n_relations=4,
                               dim=8, n_triples=12)
    t0, t1 = task.graph.triples[0], task.graph.triples[1]
    assert t0.relation == t1.relation
    assert t0.target == t1.subject
    for i, j in task.pair_indices:
        q1, q2 = task.train[i], task.train[j]
        assert sorted(q1.question_tokens) == sorted(q2.question_tokens)
        assert q1.visual_feature.tobytes() == q2.visual_feature.tobytes()
        assert q1.answer != q2.answer


def test_synthetic_task_deterministic():
    a = make_synthetic_task(seed=11, n_entities=8, n_relations=3,
                            dim=4, n_triples=10)
    b = make_synthetic_task(seed=11, n_entities=8, n_relations=3,
                            dim=4, n_triples=10)
    assert a.graph.triples == b.graph.triples
    assert len(a.train) == len(b.train) and len(a.test) == len(b.test)
    for x, y in zip(a.train + a.test, b.train + b.test):
        assert x.question_tokens == y.question_tokens
        assert x.answer == y.answer
        assert np.array_equal(x.visual_feature, y.visual_feature)


def test_synthetic_questions_always_spot_memory():
    task = make_synthetic_task(seed=7)
    for ex in task.train + task.test:
        assert spot_question(ex.question_tokens, task.graph, 8).n_real >= 1


def test_synthetic_task_validation():
    with pytest.raises(ValueError):
        make_synthetic_task(n_entities=3)
    with pytest.raises(ValueError):
        make_synthetic_task(n_relations=1)


# ---------------------------------------------------------------- dataset io

def test_dataset_round_trip(tmp_path):
    # tokens are already lemmas; load_dataset lemmatizes on the way in
    exs = [
        VqaExample(["what", "do", "dog", "eat"], np.array([0.125, -2.5]), "bone"),
        VqaExample(["be", "it", "red"], np.array([1.0, 3.0]), "yes"),
    ]
    path = tmp_path / "data.jsonl"
    save_dataset(exs, path)
    back = load_dataset(path)
    assert len(back) == 2
    for a, b in zip(exs, back):
        assert a.question_tokens == b.question_tokens
        assert np.array_equal(a.visual_feature, b.visual_feature)
        assert a.answer == b.answer and a.answer_type == b.answer_type


def test_load_dataset_lemmatizes_tokens(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps({"question": ["what", "Dogs", "eating"],
                                "feature": [0.0], "answer": "Bone"}) + "\n")
    ex = load_dataset(path)[0]
    assert ex.question_tokens == ["what", "dog", "eat"]
    assert ex.answer == "bone"


def test_load_dataset_reports_line_numbers(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": ["q"], "feature": [0.0], "answer": "a"}\n'
                    "not json\n")
    with pytest.raises(ValueError, match="2"):
        load_dataset(path)


def test_load_dataset_rejects_mixed_feature_lengths(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": ["q"], "feature": [0.0, 1.0], "answer": "a"}\n'
                    '{"question": ["q"], "feature": [0.0, 1.0, 2.0], "answer": "a"}\n')
    with pytest.raises(ValueError, match=r"data\.jsonl:2: .*feature length 3, "
                                         r"the first record's is 2"):
        load_dataset(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", '"nan"'])
def test_load_dataset_rejects_non_finite_features(tmp_path, bad):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": ["q"], "feature": [0.0], "answer": "a"}\n'
                    '{"question": ["q"], "feature": [0.0, %s], "answer": "a"}\n' % bad)
    with pytest.raises(ValueError, match=r"data\.jsonl:2: .*non-finite"):
        load_dataset(path)


@pytest.mark.parametrize("fields, why", [
    ({"question": "what do dog eat"}, "question must be"),
    ({"question": []}, "question must be"),
    ({"question": ["what", None]}, "question must be"),
    ({"feature": "12"}, "feature must be"),
    ({"feature": [1.0, "2"]}, "non-numeric value '2' at index 1"),
    ({"feature": [1.0, True]}, "non-numeric value True at index 1"),
    ({"feature": [10 ** 400]}, "non-finite"),
    ({"answer": None}, "answer must be"),
    ({"answer": {"a": 1}}, "answer must be"),
    ({"answer": False}, "answer must be"),
])
def test_load_dataset_rejects_malformed_fields(tmp_path, fields, why):
    good = {"question": ["what", "do", "dog", "eat"], "feature": [1.0, 2.0],
            "answer": "bone"}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **fields}) + "\n")
    with pytest.raises(ValueError, match=rf"data\.jsonl:2: .*{why}"):
        load_dataset(path)


def test_load_dataset_reads_number_answers(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": ["how", "many"], "feature": [1, 2.5], "answer": 3}\n')
    ex = load_dataset(path)[0]
    assert ex.answer == "3" and ex.answer_type == "number"
    assert ex.visual_feature.tolist() == [1.0, 2.5]


@given(st.lists(st.sampled_from(["yes", "no", "4", "seven", "cat", "dog"]),
                min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_report_recombination_identity(answers):
    # bucket accuracies weighted by counts always reproduce the overall rate
    f = np.zeros(SMALL_DIMS.d)
    examples = [VqaExample(["what"], f, a) for a in answers]
    params = _zero_output_model(build_answer_vocab(examples, 10))
    report = evaluate(examples, params, None, None, "q_only")
    assert report.total == len(answers)
    # same division the report performs, so the floats must match bit for bit
    assert report.accuracy_all == sum(report.correct.values()) / report.total
    # and the weighted bucket identity holds exactly in rational arithmetic
    recombined = Fraction(0)
    for t in ANSWER_TYPES:
        if report.counts[t]:
            recombined += Fraction(report.correct[t], report.counts[t]) * report.counts[t]
    assert recombined == Fraction(sum(report.correct.values()))
