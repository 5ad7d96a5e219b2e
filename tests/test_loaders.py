"""The loader contract: every text loader reads through `kb.read_records`,
skips blank and whitespace-only lines, and either returns a valid object or
raises ValueError naming the file and the line (the byte, for checkpoints)."""

import json
import re
from collections import Counter, defaultdict
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmn.embedding import EmbeddingTable, load_embeddings, save_embeddings
from vkmn.kb import Triple, build_graph, load_kb, load_qa_pairs, read_records, save_kb
from vkmn.model import ModelDims, init_params, load_checkpoint, save_checkpoint
from vkmn.training import VqaExample, load_dataset, save_dataset

BLANK_LINES = ["", " ", "\t", " \t \t ", "\x0c", "\u3000"]


# ---------------------------------------------------------------- the reader

def _reject(line, bad):
    if line == bad:
        raise ValueError(f"no {bad}")
    return line


def test_read_records_numbers_lines_and_skips_blank_ones(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\n\n \t \t \n  b\t \r\nc")
    assert list(read_records(path, str)) == ["a", "  b\t ", "c"]
    with pytest.raises(ValueError, match=r"f\.txt:5: no c") as err:
        list(read_records(path, lambda line: _reject(line, "c")))
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("parse, want", [
    (lambda line: {}[line], r"f\.txt:1: 'x'"),
    (lambda line: line + 1, r"f\.txt:1: can only concatenate"),
    (lambda line: int(line), r"f\.txt:1: invalid literal"),
])
def test_read_records_names_the_line_of_any_parse_error(tmp_path, parse, want):
    path = tmp_path / "f.txt"
    path.write_text("x\n")
    with pytest.raises(ValueError, match=want):
        list(read_records(path, parse))


def test_read_records_reports_faults_in_line_order(tmp_path):
    # a bad line before a byte that is not UTF-8, both in the first 8 KB read
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\nc\nx\xff\n")
    with pytest.raises(ValueError, match=r"f\.txt:2: no c"):
        list(read_records(path, lambda line: _reject(line, "c")))


def test_read_records_streams(tmp_path):
    # a record is parsed when it is asked for, so `vkmn spot` prints as it reads
    path = tmp_path / "f.txt"
    path.write_text("a\nb\n")
    records = read_records(path, lambda line: _reject(line, "b"))
    assert next(records) == "a"
    with pytest.raises(ValueError, match=r"f\.txt:2: no b"):
        next(records)


# ---------------------------------------------------------------- blank lines

@pytest.mark.parametrize("blank", BLANK_LINES)
def test_every_loader_skips_whitespace_only_lines(tmp_path, blank):
    kb = tmp_path / "kb.tsv"
    kb.write_text(f"{blank}\ndog\teat\tbone\n{blank}\ncat\teat\tfish\n{blank}\n",
                  encoding="utf-8")
    assert load_kb(kb).triples == [Triple("dog", "eat", "bone"),
                                   Triple("cat", "eat", "fish")]
    qa = tmp_path / "qa.jsonl"
    qa.write_text(f'{blank}\n{{"question": ["q"], "answer": "a"}}\n{blank}\n',
                  encoding="utf-8")
    assert load_qa_pairs(qa) == [(["q"], "a")]
    data = tmp_path / "data.jsonl"
    data.write_text(f'{blank}\n{{"question": ["q"], "feature": [1], "answer": "a"}}\n'
                    f"{blank}\n", encoding="utf-8")
    assert [ex.answer for ex in load_dataset(data)] == ["a"]
    vec = tmp_path / "vec.txt"
    vec.write_text(f"{blank}\n1 2\n{blank}\ndog 1 2\n{blank}\n", encoding="utf-8")
    assert load_embeddings(vec).entity_vectors["dog"].tolist() == [1.0, 2.0]


def test_load_kb_no_longer_reads_a_whitespace_line_as_a_triple(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("dog\teat\tbone\n \t \t \n")
    assert load_kb(path).triples == [Triple("dog", "eat", "bone")]


# ---------------------------------------------------------------- holes

def test_load_kb_rejects_whitespace_only_field(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("dog\teat\tbone\ndog\t \tbone\n")
    with pytest.raises(ValueError, match=r"kb\.tsv:2: triple relation must be non-empty"):
        load_kb(path)


@pytest.mark.parametrize("header", ["1 0", "1 -2"])
def test_load_embeddings_rejects_dim_below_one(tmp_path, header):
    path = tmp_path / "vec.txt"
    path.write_text(f"\n{header}\na\n")
    with pytest.raises(ValueError, match=r"vec\.txt:2: dim must be >= 1"):
        load_embeddings(path)


def test_load_embeddings_without_header_names_the_file(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text(" \n\n")
    with pytest.raises(ValueError, match=r"vec\.txt: no '<count> <dim>' header"):
        load_embeddings(path)


@pytest.mark.parametrize("rows", [["part_of 1 2", "\\rel:part_of 3 4"],
                                  ["\\rel:part_of 3 4", "part_of 1 2"]])
def test_load_embeddings_relation_row_wins_in_any_order(tmp_path, rows):
    path = tmp_path / "vec.txt"
    path.write_text("2 2\n" + "\n".join(rows) + "\n")
    graph = build_graph([Triple("dog", "part of", "animal"), Triple("part of", "be", "x")])
    table = load_embeddings(path, graph)
    assert table.entity_vectors["part of"].tolist() == [1.0, 2.0]
    assert table.relation_vectors["part of"].tolist() == [3.0, 4.0]


def test_load_dataset_rejects_empty_feature(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"question": ["q"], "feature": [1.0], "answer": "a"}\n'
                    '{"question": ["q"], "feature": [], "answer": "a"}\n')
    with pytest.raises(ValueError, match=r"data\.jsonl:2: feature must be a non-empty array"):
        load_dataset(path)


_GOOD_LINES = {
    load_kb: "dog\teat\tbone",
    load_qa_pairs: '{"question": ["q"], "answer": "a"}',
    load_dataset: '{"question": ["q"], "feature": [1], "answer": "a"}',
    load_embeddings: "1 2",
}


@pytest.mark.parametrize("load", list(_GOOD_LINES))
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("filler", [0, 500])  # 500 lines of spaces: past the first 8 KB
def test_invalid_utf8_names_the_line_of_the_bad_byte(tmp_path, load, newline, filler):
    good = _GOOD_LINES[load]
    lines = [good] + [" " * 20] * filler + [good[:1] + "\udcff" + good[1:], good]
    path = tmp_path / "f.txt"
    path.write_bytes(newline.join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match=rf"f\.txt:{filler + 2}: 'utf-8' codec can't "
                                         r"decode byte 0xff in position 1: invalid start"):
        load(path)


@pytest.mark.parametrize("load", [load_qa_pairs, load_dataset])
def test_too_deep_json_names_the_line(tmp_path, load):
    path = tmp_path / "deep.jsonl"
    path.write_text(_GOOD_LINES[load] + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(ValueError, match=r"deep\.jsonl:2: maximum recursion depth") as err:
        load(path)
    assert isinstance(err.value.__cause__, RecursionError)


DIMS = ModelDims(d=3, d_j=2, d_e=2, d_w=2, m_slots=2, k_answers=2)


def _checkpoint(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(init_params(["dog", "eat"], ["bone", "fish"], DIMS, seed=1), path)
    return path, path.read_bytes()


def test_load_checkpoint_rejects_invalid_utf8_string_with_offset(tmp_path):
    path, blob = _checkpoint(tmp_path)
    at = blob.rindex(b"fish")
    path.write_bytes(blob[:at] + b"\xff" + blob[at + 1:])
    with pytest.raises(ValueError, match=rf"model\.bin: string at byte {at} is not UTF-8"):
        load_checkpoint(path)


def test_load_checkpoint_rejects_zero_dim_with_offset(tmp_path):
    path, blob = _checkpoint(tmp_path)
    path.write_bytes(blob[:8] + bytes(4) + blob[12:])  # d = 0
    with pytest.raises(ValueError, match=r"model\.bin: bad header at byte 8: d must be >= 1"):
        load_checkpoint(path)


# ---------------------------------------------------------------- fuzz

_LINE_ERROR = r":\d+: "

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3),
                                                                 inner, max_size=3),
    max_leaves=6)
_records = st.fixed_dictionaries({}, optional={
    "question": _json | st.lists(st.text(max_size=4), max_size=3),
    "feature": _json | st.lists(st.floats(), max_size=3),
    "answer": _json,
    "answer_type": _json | st.sampled_from(["yesno", "number", "other"]),
})
_json_lines = st.one_of(st.text(), _json.map(json.dumps), _records.map(json.dumps))


def _file(lines):
    """A file's bytes: up to 6 lines, each from `lines`, blank, or arbitrary bytes."""
    line = st.one_of(lines, st.sampled_from(BLANK_LINES)).map(str.encode) | st.binary()
    return st.lists(line, max_size=6).map(b"\n".join)


def _loads_or_names_line(load, path, data, file_errors=None):
    path.write_bytes(data)
    try:
        load(path)
    except ValueError as e:
        where = re.escape(str(path)) + _LINE_ERROR
        if file_errors:
            where = f"{where}|{re.escape(str(path))}: ({file_errors})$"
        assert re.match(where, str(e)), str(e)


@given(_file(st.text() | st.text(alphabet="ab \t\r\x0b\x85\u2028")))
@settings(max_examples=200, deadline=None)
def test_fuzz_load_kb(tmp_path_factory, data):
    _loads_or_names_line(load_kb, tmp_path_factory.mktemp("f") / "kb.tsv", data)


@given(_file(_json_lines))
@settings(max_examples=200, deadline=None)
def test_fuzz_load_qa_pairs(tmp_path_factory, data):
    _loads_or_names_line(load_qa_pairs, tmp_path_factory.mktemp("f") / "qa.jsonl", data)


@given(_file(_json_lines))
@settings(max_examples=200, deadline=None)
def test_fuzz_load_dataset(tmp_path_factory, data):
    _loads_or_names_line(load_dataset, tmp_path_factory.mktemp("f") / "data.jsonl", data)


_vector_lines = st.one_of(
    st.text(),
    st.lists(st.sampled_from(["1", "-1", "0", "2", "x", "1e999", "nan", " ", "\t"]),
             max_size=3).map(" ".join),
    st.tuples(st.text(alphabet="ab_\\rel: ", max_size=5),
              st.lists(st.floats().map(repr), max_size=3)).map(
                  lambda row: " ".join([row[0], *row[1]])))


@given(_file(_vector_lines))
@settings(max_examples=300, deadline=None)
def test_fuzz_load_embeddings(tmp_path_factory, data):
    _loads_or_names_line(load_embeddings, tmp_path_factory.mktemp("f") / "vec.txt", data,
                         file_errors=r"no '<count> <dim>' header|header says -?\d+ rows, "
                                     r"found \d+")


def test_every_truncated_checkpoint_names_the_file(tmp_path):
    path, blob = _checkpoint(tmp_path)
    for end in range(len(blob)):
        path.write_bytes(blob[:end])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)


def test_every_flipped_string_byte_names_the_file(tmp_path):
    path, blob = _checkpoint(tmp_path)
    strings = blob.index(b"dog") - 4  # the string section: length prefixes and bytes
    for at in range(strings, len(blob)):
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_checkpoint(path)


# ---------------------------------------------------------------- oracles

def _reference_graph(triples):
    """KnowledgeGraph's build as written for a slotted-dataclass Triple: a
    list of phrase tuples, `defaultdict` postings filled in the order of a
    sort by (frequency sum descending, id), set comprehensions and a
    `Counter`. The oracle load_kb must match field for field, orders
    included."""
    seen, kept = set(), []
    for t in triples:
        if t not in seen:
            seen.add(t)
            kept.append(t)
    phrases = [(t.subject, t.relation, t.target) for t in kept]
    frequency = Counter(chain.from_iterable(phrases))
    sums = [frequency[s] + frequency[r] + frequency[t] for s, r, t in phrases]
    order = sorted(range(len(phrases)), key=lambda tid: (-sums[tid], tid))
    postings = defaultdict(list)
    for tid in order:
        s, r, t = phrases[tid]
        postings[s].append(tid)
        if r != s:
            postings[r].append(tid)
        if t != s and t != r:
            postings[t].append(tid)
    return {
        "triples": phrases,
        "entry_index": [(p, tuple(ids)) for p, ids in postings.items()],
        "frequency": list(frequency.items()),
        "frequency_sums": sums,
        "prior": sorted(range(len(order)), key=order.__getitem__),
        "entities": list({p for s, _, t in phrases for p in (s, t)}),
        "relations": list({r for _, r, _ in phrases}),
    }


# one pool for every field: self-loops, and phrases that are both entity and
# relation; few enough that rows repeat
_kb_phrase = st.sampled_from(["dog", "eat", "bone", "part of", "a b", "r"])
_kb_rows = st.lists(st.one_of(st.tuples(_kb_phrase, _kb_phrase, _kb_phrase).map("\t".join),
                              st.sampled_from(BLANK_LINES)), max_size=30)


@given(_kb_rows)
@settings(max_examples=200, deadline=None)
def test_load_kb_matches_the_reference_build(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("kb") / "kb.tsv"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    graph = load_kb(path)
    want = _reference_graph([Triple(*row.split("\t")) for row in rows if row.strip()])
    assert all(type(t) is Triple for t in graph.triples)
    assert [tuple(t) for t in graph.triples] == want["triples"]
    assert list(graph.entry_index.items()) == want["entry_index"]
    assert list(graph.frequency.items()) == want["frequency"]
    assert graph.frequency_sums.tolist() == want["frequency_sums"]
    assert graph.prior.tolist() == want["prior"]
    assert list(graph.entities) == want["entities"]
    assert list(graph.relations) == want["relations"]


_exact_doubles = st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}")
# spellings that float and NumPy's str -> float64 cast both accept, and ones both reject
_FINITE_SPELLINGS = ["1_0", "\u0661\u0662", "\uff11\uff12", "-0", "1e-400"]
_INFINITE_SPELLINGS = ["infinity", "1e400"]
_REJECTED_SPELLINGS = ["0x10", "1__0", ""]


@given(st.lists(_exact_doubles | st.sampled_from(_FINITE_SPELLINGS + _INFINITE_SPELLINGS),
                min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_float_parses_every_value_as_numpy_does(fields):
    assert np.array(list(map(float, fields))).tobytes() == \
        np.array(fields, dtype=np.float64).tobytes()


@pytest.mark.parametrize("field", _REJECTED_SPELLINGS)
def test_float_and_numpy_reject_the_same_spellings(field):
    with pytest.raises(ValueError) as by_float:
        float(field)
    with pytest.raises(ValueError) as by_numpy:
        np.array([field], dtype=np.float64)
    assert str(by_float.value) == str(by_numpy.value)


@given(st.lists(st.lists(_exact_doubles | st.sampled_from(_FINITE_SPELLINGS),
                         min_size=3, max_size=3), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_load_embeddings_reads_the_bits_numpy_reads(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("vec") / "vec.txt"
    lines = [f"e{i} " + " ".join(row) for i, row in enumerate(rows)]
    path.write_text(f"{len(rows)} 3\n" + "\n".join(lines) + "\n", encoding="utf-8")
    table = load_embeddings(path)
    for i, row in enumerate(rows):
        want = np.array(row, dtype=np.float64)
        assert table.entity_vectors[f"e{i}"].tobytes() == want.tobytes()


@pytest.mark.parametrize("field, error", [(f, "non-finite value") for f in _INFINITE_SPELLINGS]
                         + [(f, f"could not convert string to float: {f!r}")
                            for f in _REJECTED_SPELLINGS])
def test_load_embeddings_rejects_a_value_at_its_line(tmp_path, field, error):
    path = tmp_path / "vec.txt"
    path.write_text(f"2 2\na 1 2\nb 1 {field}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {error}')}$"):
        load_embeddings(path)


# ---------------------------------------------------------------- round trips

_phrases = st.text(alphabet="ab \\_\x0b", min_size=1, max_size=4).filter(
    lambda p: not p.isspace())


@given(st.lists(st.tuples(_phrases, _phrases, _phrases), max_size=8))
@settings(max_examples=100, deadline=None)
def test_kb_save_load_round_trip(tmp_path_factory, raw):
    graph = build_graph([Triple(*t) for t in raw])
    path = tmp_path_factory.mktemp("kb") / "kb.tsv"
    save_kb(graph.triples, path)
    assert load_kb(path).triples == graph.triples


_tokens = st.lists(st.sampled_from(["what", "do", "dog", "eat", "red", "car", "4"]),
                   min_size=1, max_size=4)
_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(st.integers(1, 3).flatmap(lambda d: st.lists(st.tuples(
    _tokens, st.lists(_floats, min_size=d, max_size=d),
    st.sampled_from(["bone", "yes", "4", "red car"])), max_size=5)))
@settings(max_examples=100, deadline=None)
def test_dataset_save_load_round_trip(tmp_path_factory, rows):
    examples = [VqaExample(q, np.array(f), a) for q, f, a in rows]
    path = tmp_path_factory.mktemp("data") / "data.jsonl"
    save_dataset(examples, path)
    back = load_dataset(path)
    assert len(back) == len(examples)
    for want, got in zip(examples, back):
        assert got.question_tokens == want.question_tokens
        assert got.visual_feature.tobytes() == want.visual_feature.tobytes()
        assert (got.answer, got.answer_type) == (want.answer, want.answer_type)


_pool = st.sampled_from(["dog", "eat", "part of", "hot_dog", "a\\b", "animal"])


@given(st.lists(st.tuples(_pool, _pool, _pool), min_size=1, max_size=6),
       st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_embeddings_save_load_round_trip(tmp_path_factory, raw, dim, seed):
    graph = build_graph([Triple(*t) for t in raw])
    rng = np.random.default_rng(seed)
    table = EmbeddingTable(
        dim=dim,
        entity_vectors={p: rng.standard_normal(dim) for p in sorted(graph.entities)},
        relation_vectors={p: rng.standard_normal(dim) for p in sorted(graph.relations)})
    path = tmp_path_factory.mktemp("vec") / "vec.txt"
    save_embeddings(table, path)
    back = load_embeddings(path, graph)
    assert back.entity_row == table.entity_row
    assert back.entity_matrix.tobytes() == table.entity_matrix.tobytes()
    assert back.relation_vectors.keys() == table.relation_vectors.keys()
    for phrase, vec in table.relation_vectors.items():
        assert back.relation_vectors[phrase].tobytes() == vec.tobytes()
