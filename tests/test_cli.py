"""End-to-end command-line checks, run in process through main(argv)."""

import io
import json

import numpy as np
import pytest

from vkmn.cli import main
from vkmn.embedding import embed_entry
from vkmn.kb import KnowledgeGraph, load_kb
from vkmn.model import load_checkpoint
from vkmn.spotting import spot_question
from vkmn.training import load_dataset, make_synthetic_task, train


def _kb_file(tmp_path, name="kb.tsv"):
    path = tmp_path / name
    path.write_text(
        "dog\teat\tbone\n"
        "cat\teat\tfish\n"
        "dog\tchase\tcat\n",
        encoding="utf-8",
    )
    return path


def _qa_file(tmp_path):
    path = tmp_path / "qa.jsonl"
    rows = [
        {"question": ["what", "do", "dogs", "eat"], "answer": "bone"},
        {"question": ["what", "is", "the", "dog", "eating"], "answer": "bone"},
        {"question": ["is", "this", "a", "dog"], "answer": "yes"},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def _synth(tmp_path, name="synth", dim=8):
    # 12 triples: 35 training and 3 held-out questions
    out = tmp_path / name
    rc = main(["make-synth", "--out", str(out), "--entities", "8",
               "--relations", "3", "--triples", "12", "--dim", str(dim)])
    assert rc == 0
    return out


# ---------------------------------------------------------------- build-kb

def test_build_kb_from_qa_and_triples(tmp_path, capsys):
    out = tmp_path / "out.tsv"
    rc = main(["build-kb", "--qa", str(_qa_file(tmp_path)),
               "--triples", str(_kb_file(tmp_path)),
               "--out", str(out), "--min-count", "1", "--json"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["qa_pairs"] == 3
    assert stats["extracted"] == 2   # the yes/no pair contributes nothing
    assert stats["ingested"] == 3
    assert stats["kept"] >= 3
    assert out.exists()


def test_build_kb_rerun_byte_identical(tmp_path):
    qa, kb = _qa_file(tmp_path), _kb_file(tmp_path)
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (out1, out2):
        rc = main(["build-kb", "--qa", str(qa), "--triples", str(kb),
                   "--out", str(out), "--min-count", "1"])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_build_kb_from_triples_builds_no_graph(tmp_path, capsys, monkeypatch):
    built = []
    init = KnowledgeGraph.__init__

    def counting(self, triples):
        built.append(len(triples))
        init(self, triples)

    monkeypatch.setattr(KnowledgeGraph, "__init__", counting)
    kb = _kb_file(tmp_path)
    with open(kb, "a", encoding="utf-8") as f:
        f.write("\ncat\teat\tfish\n")  # a blank line and a repeated row
    out = tmp_path / "out.tsv"
    rc = main(["build-kb", "--triples", str(kb), "--out", str(out), "--min-count", "1", "--json"])
    assert rc == 0 and built == []
    assert json.loads(capsys.readouterr().out) == {
        "qa_pairs": 0, "extracted": 0, "ingested": 3, "merged": 3, "deduplicated": 3,
        "kept": 3, "entities": 4, "relations": 2}
    assert out.read_bytes() == _kb_file(tmp_path, "want.tsv").read_bytes()


def test_build_kb_requires_some_input(tmp_path, capsys):
    rc = main(["build-kb", "--out", str(tmp_path / "out.tsv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_build_kb_missing_file(tmp_path, capsys):
    rc = main(["build-kb", "--qa", str(tmp_path / "nope.jsonl"),
               "--out", str(tmp_path / "out.tsv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- train-transe

def test_train_transe_writes_embeddings(tmp_path, capsys):
    kb = _kb_file(tmp_path)
    out = tmp_path / "vec.txt"
    rc = main(["train-transe", "--kb", str(kb), "--out", str(out),
               "--dim", "4", "--epochs", "5", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["entities"] == 4 and summary["relations"] == 2
    assert out.exists()
    header = out.read_text().splitlines()[0].split()
    assert header == ["6", "4"]  # entries, dim


def test_train_transe_negatives_above_one(tmp_path):
    kb = _kb_file(tmp_path)
    files = {}
    for name, negatives in (("a", "2"), ("b", "2"), ("one", "1")):
        files[name] = tmp_path / f"{name}.txt"
        assert main(["train-transe", "--kb", str(kb), "--out", str(files[name]),
                     "--dim", "4", "--epochs", "20", "--negatives", negatives]) == 0
    assert files["a"].read_bytes() == files["b"].read_bytes()
    assert files["a"].read_bytes() != files["one"].read_bytes()


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"),
                                         ("--margin", "inf"), ("--margin", "nan")])
def test_train_transe_rejects_non_finite_rates(tmp_path, capsys, flag, value):
    out = tmp_path / "vec.txt"
    rc = main(["train-transe", "--kb", str(_kb_file(tmp_path)), "--out", str(out),
               "--dim", "4", "--epochs", "2", flag, value])
    assert rc == 1
    name = flag[2:]
    assert f"error: {name} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_train_transe_that_diverges_fails_and_writes_nothing(tmp_path, capsys):
    # a finite but huge lr overflows the first epoch to inf and NaN
    out = tmp_path / "vec.txt"
    with np.errstate(all="ignore"):
        rc = main(["train-transe", "--kb", str(_kb_file(tmp_path)), "--out", str(out),
                   "--dim", "4", "--epochs", "1", "--lr", "1e308", "--json"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: TransE diverged: non-finite loss or vectors after epoch 1 " \
           "at lr 1e+308" in captured.err
    assert not out.exists()


# the options each subcommand needs besides --seed: file names, made under tmp_path
_SEEDED_COMMANDS = {
    "train-transe": ["--kb", "kb.tsv", "--out", "vec.txt"],
    "train": ["--dataset", "train.jsonl", "--checkpoint", "model.bin"],
    "eval": ["--dataset", "test.jsonl", "--checkpoint", "model.bin"],
    "query": ["--checkpoint", "model.bin", "--feature", "feature.json"],
    "gradcheck": [],
    "ablate": [],
    "make-synth": ["--out", "synth"],
}


@pytest.mark.parametrize("command", list(_SEEDED_COMMANDS))
@pytest.mark.parametrize("seed", [["--seed=-1"], ["--seed", "-1"]])
def test_negative_seed_is_rejected_when_the_command_line_is_parsed(tmp_path, capsys,
                                                                   command, seed):
    args = [a if a.startswith("--") else str(tmp_path / a)
            for a in _SEEDED_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *seed])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_seed_that_is_not_an_integer_is_named(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck", "--seed", "x"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: 'x'" in capsys.readouterr().err


# ---------------------------------------------------------------- spot

def test_spot_dataset_jsonl(tmp_path, capsys):
    kb = _kb_file(tmp_path)
    ds = tmp_path / "qs.jsonl"
    ds.write_text(json.dumps({"question": ["what", "do", "dogs", "eat"]}) + "\n")
    rc = main(["spot", "--kb", str(kb), "--dataset", str(ds), "--slots", "4"])
    assert rc == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["matched"] == ["dog", "eat"]
    assert row["core"] == [0]
    assert len(row["slots"]) == 4


def test_spot_dataset_rejects_string_question(tmp_path, capsys):
    kb = _kb_file(tmp_path)
    ds = tmp_path / "qs.jsonl"
    ds.write_text(json.dumps({"question": ["dog", "eat"]}) + "\n"
                  + json.dumps({"question": "what do dog eat"}) + "\n")
    rc = main(["spot", "--kb", str(kb), "--dataset", str(ds)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "qs.jsonl:2" in err and "array of strings" in err


def test_spot_dataset_names_the_line_of_too_deep_json(tmp_path, capsys):
    kb = _kb_file(tmp_path)
    ds = tmp_path / "qs.jsonl"
    ds.write_text(json.dumps({"question": ["dog", "eat"]}) + "\n"
                  + "[" * 100_000 + "]" * 100_000 + "\n")
    rc = main(["spot", "--kb", str(kb), "--dataset", str(ds)])
    assert rc == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "qs.jsonl:2: maximum recursion depth" in line
               for line in err.splitlines())


def test_spot_reads_stdin(tmp_path, capsys, monkeypatch):
    kb = _kb_file(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("what do dogs eat\n\n"))
    rc = main(["spot", "--kb", str(kb)])
    assert rc == 0
    row = json.loads(capsys.readouterr().out.strip())
    assert row["matched"] == ["dog", "eat"]


def test_spot_slots_equal_spot_question(tmp_path, capsys):
    synth = _synth(tmp_path)
    capsys.readouterr()  # drop the make-synth summary
    rc = main(["spot", "--kb", str(synth / "kb.tsv"),
               "--dataset", str(synth / "train.jsonl"), "--slots", "4"])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    graph = load_kb(str(synth / "kb.tsv"))
    examples = load_dataset(str(synth / "train.jsonl"))
    assert len(rows) == len(examples) > 0
    for row, ex in zip(rows, examples):
        assert row["slots"] == spot_question(ex.question_tokens, graph, 4).slots


# ---------------------------------------------------------------- make-synth

def test_make_synth_writes_files_deterministically(tmp_path):
    out1 = _synth(tmp_path, "one")
    out2 = _synth(tmp_path, "two")
    for name in ("kb.tsv", "train.jsonl", "test.jsonl", "pairs.json"):
        assert (out1 / name).exists()
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------- train / eval

def test_train_eval_round_trip(tmp_path, capsys):
    synth = _synth(tmp_path)
    capsys.readouterr()  # drop the make-synth summary
    ckpt = tmp_path / "model.bin"
    rc = main(["train", "--dataset", str(synth / "train.jsonl"),
               "--kb", str(synth / "kb.tsv"), "--checkpoint", str(ckpt),
               "--mode", "full", "--knowledge-dim", "8", "--word-dim", "8",
               "--epochs", "5", "--seed", "3", "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_loss"] < summary["first_loss"]
    assert len(summary["loss_curve"]) == 5

    # evaluating twice must print identical JSON
    outs = []
    for _ in range(2):
        rc = main(["eval", "--dataset", str(synth / "train.jsonl"),
                   "--kb", str(synth / "kb.tsv"), "--checkpoint", str(ckpt),
                   "--mode", "full", "--seed", "3", "--json"])
        assert rc == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "accuracy_all" in json.loads(outs[0])


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_lr_fails_before_any_training(tmp_path, capsys, monkeypatch,
                                                 command, value):
    synth = _synth(tmp_path)
    capsys.readouterr()  # drop the make-synth summary

    def no_training(*args, **kwargs):
        raise AssertionError("trained with a non-finite lr")

    monkeypatch.setattr("vkmn.cli.train_transe", no_training)
    monkeypatch.setattr("vkmn.cli.train", no_training)
    ckpt = tmp_path / "model.bin"
    files = (["--checkpoint", str(ckpt)] if command == "train"
             else ["--test", str(synth / "test.jsonl")])
    rc = main([command, "--dataset", str(synth / "train.jsonl"),
               "--kb", str(synth / "kb.tsv"), *files,
               "--knowledge-dim", "8", "--word-dim", "8", f"--lr={value}"])
    assert rc == 1
    assert f"error: lr must be finite, got {value}" in capsys.readouterr().err
    assert not ckpt.exists()


def test_train_takes_d_e_from_its_embeddings_file(tmp_path, capsys, monkeypatch):
    synth = _synth(tmp_path)
    kb, ckpt = str(synth / "kb.tsv"), str(tmp_path / "model.bin")
    vectors = {}
    for dim in (16, 8):
        vectors[dim] = str(tmp_path / f"vec{dim}.txt")
        assert main(["train-transe", "--kb", kb, "--out", vectors[dim],
                     "--dim", str(dim), "--epochs", "2"]) == 0
    # no --knowledge-dim: the file's width is the model's d_e
    assert main(["train", "--dataset", str(synth / "train.jsonl"), "--kb", kb,
                 "--embeddings", vectors[16], "--checkpoint", ckpt,
                 "--word-dim", "4", "--epochs", "2"]) == 0
    assert load_checkpoint(ckpt).dims.d_e == 16
    capsys.readouterr()
    eval_args = ["eval", "--dataset", str(synth / "test.jsonl"), "--kb", kb,
                 "--checkpoint", ckpt, "--json", "--embeddings"]
    assert main(eval_args + [vectors[16]]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]

    width = "error: slot features are 8 wide, the model's d_e is 16"
    assert main(eval_args + [vectors[8]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and width in captured.err.splitlines()
    feature = tmp_path / "feat.json"
    feature.write_text(json.dumps([0.1] * 8))
    monkeypatch.setattr("sys.stdin", io.StringIO("what do obj0 rel0\n\n"))
    assert main(["query", "--kb", kb, "--embeddings", vectors[8], "--checkpoint", ckpt,
                 "--feature", str(feature)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and width in captured.err.splitlines()


@pytest.mark.parametrize("command", ["eval", "query"])
def test_table_width_is_checked_when_memory_loads(tmp_path, capsys, monkeypatch, command):
    # query with no questions on stdin never reaches forward, so the width is
    # checked where the table is loaded; the error names both files
    synth = _synth(tmp_path)
    kb, ckpt = str(synth / "kb.tsv"), str(tmp_path / "model.bin")
    vec16, vec8 = str(tmp_path / "vec16.txt"), str(tmp_path / "vec8.txt")
    for path, dim in ((vec16, "16"), (vec8, "8")):
        assert main(["train-transe", "--kb", kb, "--out", path,
                     "--dim", dim, "--epochs", "1"]) == 0
    assert main(["train", "--dataset", str(synth / "train.jsonl"), "--kb", kb,
                 "--embeddings", vec16, "--checkpoint", ckpt,
                 "--word-dim", "4", "--epochs", "1"]) == 0
    feature = tmp_path / "feat.json"
    feature.write_text(json.dumps([0.1] * 8))
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    capsys.readouterr()
    argv = {"eval": ["eval", "--dataset", str(synth / "test.jsonl")],
            "query": ["query", "--feature", str(feature)]}[command]
    assert main(argv + ["--kb", kb, "--embeddings", vec8, "--checkpoint", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-2:] == [
        "error: slot features are 8 wide, the model's d_e is 16",
        f"{vec8} holds 8-wide vectors; {ckpt} was trained with d_e 16"]


def test_train_checks_feature_length_before_loading_memory(tmp_path, capsys,
                                                          monkeypatch):
    wide = _synth(tmp_path, "wide", dim=16)
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the feature check")

    monkeypatch.setattr("vkmn.cli.train", no_training)
    monkeypatch.setattr("vkmn.cli.train_transe", no_training)
    rc = main(["train", "--dataset", str(wide / "train.jsonl"), "--kb", str(wide / "kb.tsv"),
               "--checkpoint", str(tmp_path / "m.bin"), "--dim", "8"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error:") and
               line.endswith(f"{wide / 'train.jsonl'}: feature length 16, "
                             "model wants 8")
               for line in captured.err.splitlines())


def test_eval_text_table(tmp_path, capsys):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "model.bin"
    rc = main(["train", "--dataset", str(synth / "train.jsonl"),
               "--checkpoint", str(ckpt), "--mode", "q-only",
               "--knowledge-dim", "4", "--word-dim", "4", "--epochs", "2"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["eval", "--dataset", str(synth / "test.jsonl"),
               "--checkpoint", str(ckpt), "--mode", "q-only"])
    assert rc == 0
    out = capsys.readouterr().out
    header, row = out.splitlines()
    assert header.split() == ["Model", "All", "Y/N", "Num", "Other"]
    name, accuracy, *_ = row.split()
    assert name == "q-only"
    assert 0.0 <= float(accuracy) <= 100.0  # a number, not "-": 3 held-out questions


def test_eval_rejects_empty_dataset(tmp_path, capsys):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "model.bin"
    assert main(["train", "--dataset", str(synth / "train.jsonl"),
                 "--checkpoint", str(ckpt), "--mode", "q-only",
                 "--knowledge-dim", "4", "--word-dim", "4", "--epochs", "1"]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n \t\n")
    rc = main(["eval", "--dataset", str(empty), "--checkpoint", str(ckpt),
               "--mode", "q-only"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error:") and line.endswith("empty.jsonl: no examples")
               for line in captured.err.splitlines())


def test_eval_rejects_wrong_feature_length(tmp_path, capsys):
    synth, wide = _synth(tmp_path), _synth(tmp_path, "wide", dim=16)
    ckpt = tmp_path / "model.bin"
    assert main(["train", "--dataset", str(synth / "train.jsonl"),
                 "--checkpoint", str(ckpt), "--mode", "q-only",
                 "--knowledge-dim", "4", "--word-dim", "4", "--epochs", "1"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--dataset", str(wide / "train.jsonl"),
               "--checkpoint", str(ckpt), "--mode", "q-only"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error:") and
               line.endswith(f"{wide / 'train.jsonl'}: feature length 16, "
                             "model wants 8")
               for line in captured.err.splitlines())


def test_train_bow_reads_every_word_of_its_embeddings_file(tmp_path, capsys,
                                                           monkeypatch):
    # "eat" and "chase" are relations of the KB; in a bow word file they are
    # words like any other, and each keeps its own vector
    kb = _kb_file(tmp_path)
    words = tmp_path / "words.txt"
    words.write_text("5 2\nbone 1 0\nchase 0.5 0.5\ncat 1 1\ndog -1 0\neat 0 1\n")
    data = tmp_path / "data.jsonl"
    data.write_text(json.dumps({"question": ["what", "do", "dogs", "eat"],
                                "feature": [0.5, -0.5], "answer": "bone"}) + "\n")
    tables = []

    def train_and_keep_table(examples, graph, table, config):
        tables.append(table)
        return train(examples, graph, table, config)

    monkeypatch.setattr("vkmn.cli.train", train_and_keep_table)
    rc = main(["train", "--dataset", str(data), "--kb", str(kb),
               "--embeddings", str(words), "--checkpoint", str(tmp_path / "m.bin"),
               "--mode", "bow", "--knowledge-dim", "2", "--word-dim", "2",
               "--epochs", "1"])
    assert rc == 0
    (table,) = tables
    assert table.kind == "bow"
    assert embed_entry("eat", table).tolist() == [0.0, 1.0]
    assert embed_entry("chase", table).tolist() == [0.5, 0.5]
    assert embed_entry("dog eat", table).tolist() == [-0.5, 0.5]


def test_train_memory_mode_requires_kb(tmp_path, capsys):
    synth = _synth(tmp_path)
    rc = main(["train", "--dataset", str(synth / "train.jsonl"),
               "--checkpoint", str(tmp_path / "m.bin"), "--mode", "full"])
    assert rc == 1
    assert "kb" in capsys.readouterr().err


def test_eval_missing_checkpoint(tmp_path, capsys):
    synth = _synth(tmp_path)
    rc = main(["eval", "--dataset", str(synth / "test.jsonl"),
               "--checkpoint", str(tmp_path / "missing.bin"), "--mode", "q-only"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_eval_truncated_checkpoint_header(tmp_path, capsys):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "short.bin"
    ckpt.write_bytes(b"VKMN0001" + bytes(10))
    rc = main(["eval", "--dataset", str(synth / "test.jsonl"),
               "--checkpoint", str(ckpt), "--mode", "q-only"])
    assert rc == 1
    err = capsys.readouterr().err
    assert any(line.startswith("error:") and "truncated header" in line
               for line in err.splitlines())


# ---------------------------------------------------------------- query

def test_query_full_mode_shows_support(tmp_path, capsys, monkeypatch):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "model.bin"
    rc = main(["train", "--dataset", str(synth / "train.jsonl"),
               "--kb", str(synth / "kb.tsv"), "--checkpoint", str(ckpt),
               "--mode", "full", "--knowledge-dim", "8", "--word-dim", "8",
               "--epochs", "30", "--seed", "3"])
    assert rc == 0
    capsys.readouterr()
    feature = tmp_path / "feat.json"
    feature.write_text(json.dumps([0.1] * 8))
    monkeypatch.setattr("sys.stdin", io.StringIO("what do obj0 rel0\n\n"))
    rc = main(["query", "--kb", str(synth / "kb.tsv"), "--checkpoint", str(ckpt),
               "--feature", str(feature), "--mode", "full", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "answer: " in out
    assert "block sr:" in out
    # one attention row per block, in block order
    headers = [line for line in out.splitlines() if line.startswith("block ")]
    assert headers == ["block sr:", "block st:", "block rt:"]
    assert "<" in out and ">" in out  # at least one supporting triple printed


def test_query_without_memory_reports_no_support(tmp_path, capsys, monkeypatch):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "model.bin"
    rc = main(["train", "--dataset", str(synth / "train.jsonl"),
               "--checkpoint", str(ckpt), "--mode", "q-only",
               "--knowledge-dim", "4", "--word-dim", "4", "--epochs", "2"])
    assert rc == 0
    capsys.readouterr()
    feature = tmp_path / "feat.json"
    feature.write_text(json.dumps([0.0] * 8))
    monkeypatch.setattr("sys.stdin", io.StringIO("what do obj0 rel0\n\n"))
    rc = main(["query", "--checkpoint", str(ckpt), "--feature", str(feature),
               "--mode", "q-only"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "answer: " in out
    assert "no supporting facts" in out


def test_query_rejects_wrong_feature_length(tmp_path, capsys):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "model.bin"
    main(["train", "--dataset", str(synth / "train.jsonl"),
          "--checkpoint", str(ckpt), "--mode", "q-only",
          "--knowledge-dim", "4", "--word-dim", "4", "--epochs", "1"])
    capsys.readouterr()
    feature = tmp_path / "feat.json"
    feature.write_text(json.dumps([0.0] * 3))
    rc = main(["query", "--checkpoint", str(ckpt), "--feature", str(feature),
               "--mode", "q-only"])
    assert rc == 1
    assert "feature length" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["full", "bow", "blind", "q-only", "no-replication"])
def test_query_answers_as_many_correctly_as_eval(tmp_path, capsys, monkeypatch, mode):
    synth, vec = _synth(tmp_path), tmp_path / "vec.txt"
    assert main(["train-transe", "--kb", str(synth / "kb.tsv"), "--out", str(vec),
                 "--dim", "8", "--epochs", "50"]) == 0
    common = ["--kb", str(synth / "kb.tsv"), "--embeddings", str(vec),
              "--checkpoint", str(tmp_path / "model.bin"), "--mode", mode]
    assert main(["train", "--dataset", str(synth / "train.jsonl"), *common,
                 "--knowledge-dim", "8", "--word-dim", "8", "--epochs", "30"]) == 0
    capsys.readouterr()
    assert main(["eval", "--dataset", str(synth / "train.jsonl"), "--json", *common]) == 0
    correct = json.loads(capsys.readouterr().out)["correct"]

    # one query run per distinct feature, asking every question that has it
    by_feature = {}
    for ex in load_dataset(str(synth / "train.jsonl")):
        by_feature.setdefault(ex.visual_feature.tobytes(), []).append(ex)
    hits = 0
    for i, examples in enumerate(by_feature.values()):
        feature = tmp_path / f"feature{i}.json"
        feature.write_text(json.dumps(examples[0].visual_feature.tolist()))
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "".join(" ".join(ex.question_tokens) + "\n" for ex in examples)))
        assert main(["query", "--feature", str(feature), *common]) == 0
        answers = [line[len("answer: "):] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("answer: ")]
        assert len(answers) == len(examples)
        hits += sum(answer == ex.answer for answer, ex in zip(answers, examples))
    assert hits == sum(correct.values())


@pytest.mark.parametrize("bad", ["NaN", "-Infinity", '"1"', pytest.param(
    "[" * 100_000 + "]" * 100_000, id="too-deep")])
def test_query_rejects_bad_feature_file(tmp_path, capsys, monkeypatch, bad):
    synth = _synth(tmp_path)
    ckpt = tmp_path / "model.bin"
    main(["train", "--dataset", str(synth / "train.jsonl"),
          "--checkpoint", str(ckpt), "--mode", "q-only",
          "--knowledge-dim", "4", "--word-dim", "4", "--epochs", "1"])
    capsys.readouterr()
    feature = tmp_path / "feat.json"
    feature.write_text("[" + "0.0, " * 7 + bad + "]")  # the model's length, 8
    monkeypatch.setattr("sys.stdin", io.StringIO("what do obj0 rel0\n\n"))
    rc = main(["query", "--checkpoint", str(ckpt), "--feature", str(feature),
               "--mode", "q-only"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "answer:" not in captured.out
    assert any(line.startswith("error:") and "feat.json: " in line
               for line in captured.err.splitlines())


# ---------------------------------------------------------------- gradcheck / ablate

def test_gradcheck_cli_passes(capsys):
    rc = main(["gradcheck", "--mode", "full", "--seeds", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_cli_json(capsys):
    rc = main(["gradcheck", "--mode", "blind", "--seeds", "1", "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["pass"] is True
    assert blob["max"] <= blob["tolerance"]


def test_gradcheck_rejects_fewer_than_one_seed(capsys):
    rc = main(["gradcheck", "--mode", "full", "--seeds", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert any(line.startswith("error:") and "--seeds" in line
               for line in captured.err.splitlines())


def test_ablate_synthetic_table(capsys):
    rc = main(["ablate", "--dim", "8", "--knowledge-dim", "8",
               "--word-dim", "8", "--epochs", "1"])
    assert rc == 0
    tables = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert [t.splitlines()[0] for t in tables] == ["training split:",
                                                   "held-out split:"]
    for table in tables:
        lines = table.splitlines()[1:]
        assert lines[0].split() == ["Model", "All", "Y/N", "Num", "Other"]
        body = "\n".join(lines[1:])
        for mode in ("full", "bow", "blind", "q-only", "no-replication"):
            assert mode in body
        assert len(lines) == 6  # header + one row per mode


def test_ablate_json_reports_both_splits(capsys):
    rc = main(["ablate", "--dim", "8", "--knowledge-dim", "8",
               "--word-dim", "8", "--epochs", "1", "--json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    task = make_synthetic_task(seed=7, dim=8)  # ablate's default seed
    assert set(blob) == {"train", "test"}
    for split, examples in (("train", task.train), ("test", task.test)):
        assert set(blob[split]) == {"full", "bow", "blind", "q-only",
                                    "no-replication"}
        for report in blob[split].values():
            assert sum(report["counts"].values()) == len(examples)
            assert len(report["loss_curve"]) == 1


def test_ablate_rejects_empty_training_file(tmp_path, capsys):
    synth = _synth(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rc = main(["ablate", "--dataset", str(empty), "--test",
               str(synth / "test.jsonl"), "--kb", str(synth / "kb.tsv")])
    assert rc == 1
    assert any(line.startswith("error:") and line.endswith("empty.jsonl: no examples")
               for line in capsys.readouterr().err.splitlines())


def test_ablate_checks_test_feature_length_before_training(tmp_path, capsys,
                                                           monkeypatch):
    synth, wide = _synth(tmp_path), _synth(tmp_path, "wide", dim=16)
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the feature check")

    monkeypatch.setattr("vkmn.cli.train", no_training)
    monkeypatch.setattr("vkmn.cli.train_transe", no_training)
    rc = main(["ablate", "--dataset", str(synth / "train.jsonl"),
               "--test", str(wide / "train.jsonl"), "--kb", str(synth / "kb.tsv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error:") and
               line.endswith(f"{wide / 'train.jsonl'}: feature length 16, "
                             "model wants 8")
               for line in captured.err.splitlines())


def test_ablate_rejects_partial_file_args(tmp_path, capsys):
    synth = _synth(tmp_path)
    rc = main(["ablate", "--dataset", str(synth / "train.jsonl")])
    assert rc == 1
    assert "together" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
