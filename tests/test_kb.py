"""Triple store: lemmatizer, extraction templates, canonicalization, graph."""

import collections
import copy
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmn.kb import (
    IRREGULAR_FORMS,
    KnowledgeGraph,
    Triple,
    build_graph,
    canonicalize_relation,
    dedup_triples,
    extract_triples_from_qa,
    filter_by_frequency,
    keep_frequent,
    lemmatize,
    lemmatize_phrase,
    load_kb,
    load_qa_pairs,
    make_triple,
    save_kb,
)

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=14)


# ---------------------------------------------------------------- lemmatizer

def test_lemmatize_fixed_examples():
    cases = {
        "dog": "dog",
        "dogs": "dog",
        "wearing": "wear",
        "children": "child",
        "ate": "eat",
        "is": "be",
        "are": "be",
        "was": "be",
        "does": "do",
        "used": "use",
        "sitting": "sit",
        "running": "run",
        "made": "make",
        "dresses": "dress",
        "cities": "city",
        "glass": "glass",
        "glasses": "glass",
        "bus": "bus",
        "red": "red",       # no vowel-free "ed" strip
        "teeth": "tooth",
        "men": "man",
    }
    for raw, want in cases.items():
        assert lemmatize(raw) == want, raw


def test_lemmatize_stacked_suffixes():
    # plural of a gerund must reduce all the way down
    assert lemmatize("sayings") == "say"


@given(words)
@settings(max_examples=500, deadline=None)
def test_lemmatize_idempotent(w):
    once = lemmatize(w)
    assert lemmatize(once) == once


def test_irregular_values_are_fixed_points():
    for value in IRREGULAR_FORMS.values():
        assert lemmatize(value) == value


def test_lemmatize_phrase_normalizes_case():
    assert lemmatize_phrase("The Dogs Were Running") == "the dog be run"


# ---------------------------------------------------------------- triples

def test_triple_rejects_empty_fields():
    with pytest.raises(ValueError):
        Triple("", "eat", "bone")
    with pytest.raises(ValueError):
        Triple("dog", "eat", "")


@pytest.mark.parametrize("blank", [" ", "\t", " \x0c\u3000"])
def test_triple_rejects_whitespace_only_fields(blank):
    with pytest.raises(ValueError, match="triple relation must be non-empty"):
        Triple("dog", blank, "bone")


def test_triple_is_slotted_and_keeps_value_semantics():
    t = Triple("dog", "eat", "bone")
    assert not hasattr(t, "__dict__")
    assert t == Triple("dog", "eat", "bone") and t != Triple("dog", "eat", "fish")
    assert hash(t) == hash(Triple("dog", "eat", "bone"))
    assert str(t) == "<dog, eat, bone>"
    with pytest.raises(AttributeError):
        t.subject = "cat"


@pytest.mark.parametrize("copy_of", [lambda t: pickle.loads(pickle.dumps(t)),
                                     copy.copy, copy.deepcopy])
def test_triple_survives_pickle_and_copy(copy_of):
    t = Triple("dog", "eat", "bone")
    back = copy_of(t)
    assert type(back) is Triple and back == t
    assert (back.subject, back.relation, back.target) == ("dog", "eat", "bone")


def test_triple_hashes_as_its_phrase_tuple():
    for fields in [("dog", "eat", "bone"), ("a", "a", "a"), ("sit on top", "of", "red car")]:
        assert hash(Triple(*fields)) == hash(fields)


def test_triple_repr_and_str():
    t = Triple("dog", "eat", "bone")
    assert repr(t) == "Triple(subject='dog', relation='eat', target='bone')"
    assert str(t) == f"{t}" == "<dog, eat, bone>"


@pytest.mark.parametrize("make", [
    lambda s, r, t: Triple(s, r, t),
    lambda s, r, t: Triple(subject=s, relation=r, target=t),
    lambda s, r, t: Triple._make([s, r, t]),
    lambda s, r, t: Triple("x", "y", "z")._replace(subject=s, relation=r, target=t),
])
@pytest.mark.parametrize("blank", ["", " ", "\t\u3000"])
@pytest.mark.parametrize("at", [0, 1, 2])
def test_every_triple_constructor_rejects_a_blank_field(make, blank, at):
    fields = ["dog", "eat", "bone"]
    fields[at] = blank
    name = ("subject", "relation", "target")[at]
    want = f"triple {name} must be non-empty, got {blank!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        make(*fields)


def test_triple_is_the_tuple_of_its_phrases():
    t = Triple("dog", "eat", "bone")
    assert t == ("dog", "eat", "bone") and ("dog", "eat", "bone") == t
    assert t.phrases() == ("dog", "eat", "bone")
    s, r, o = t
    assert (s, r, o) == ("dog", "eat", "bone")
    assert Triple("a", "b", "c") < Triple("a", "c", "a") < ("b", "a", "a")
    assert {t: 1}[("dog", "eat", "bone")] == 1


def test_make_triple_normalizes():
    t = make_triple("Dogs", "Eating", "Bones")
    assert t == Triple("dog", "eat", "bone")
    assert str(t) == "<dog, eat, bone>"


# ---------------------------------------------------------------- extraction

def test_extract_what_do_template():
    out = extract_triples_from_qa(["what", "do", "dogs", "eat"], "bone")
    assert out == [Triple("dog", "eat", "bone")]


def test_extract_progressive_template():
    out = extract_triples_from_qa(["what", "is", "the", "dog", "eating"], "bone")
    assert out == [Triple("dog", "eat", "bone")]


def test_extract_purpose_template():
    out = extract_triples_from_qa(
        ["what", "is", "used", "for", "brushing", "teeth"], "toothbrush"
    )
    assert out == [Triple("toothbrush", "use", "brush tooth")]


def test_extract_who_subject_template():
    out = extract_triples_from_qa(["who", "wears", "the", "hat"], "man")
    assert out == [Triple("man", "wear", "hat")]


def test_extract_who_subject_progressive_template():
    # (c) after "is": the answer is the subject of the progressive verb
    out = extract_triples_from_qa(["what", "is", "sitting", "on", "the", "table"], "cat")
    assert out == [Triple("cat", "sit", "on table")]
    out = extract_triples_from_qa(["who", "is", "holding", "the", "umbrella"], "man")
    assert out == [Triple("man", "hold", "umbrella")]


def test_extract_fallback_template():
    # (d) no question template fits: one verb, one contiguous noun phrase
    out = extract_triples_from_qa(["where", "does", "the", "dog", "sleep"], "kennel")
    assert out == [Triple("dog", "sleep", "kennel")]
    # two noun phrases around the verb are not one contiguous phrase
    assert extract_triples_from_qa(["where", "dog", "sleep", "bed"], "x") == []


def test_extract_skips_yes_no():
    assert extract_triples_from_qa(["is", "this", "a", "dog"], "yes") == []
    assert extract_triples_from_qa(["is", "this", "red"], "no") == []


def test_extract_no_match_returns_empty():
    assert extract_triples_from_qa(["hmm"], "dog") == []


def test_extract_rejects_empty_inputs():
    with pytest.raises(ValueError):
        extract_triples_from_qa([], "dog")
    with pytest.raises(ValueError):
        extract_triples_from_qa(["what", "do", "dogs", "eat"], "")


def test_extract_fields_are_lemmatized():
    for t in extract_triples_from_qa(["what", "do", "Dogs", "eat"], "Bones"):
        assert t.subject == lemmatize_phrase(t.subject)
        assert t.relation == lemmatize_phrase(t.relation)
        assert t.target == lemmatize_phrase(t.target)


# ---------------------------------------------------------------- canonicalization

def test_canonicalize_exact_member_kept():
    assert canonicalize_relation("sit on", {"sit on", "eat"}) == "sit on"


def test_canonicalize_jaccard_pick():
    # J("sit on", "sit on top") = 2/3 beats J("sit on", "stand on") = 1/3
    got = canonicalize_relation("sit on", {"sit on top", "stand on"})
    assert got == "sit on top"


def test_canonicalize_zero_overlap_unchanged():
    assert canonicalize_relation("fly", {"sit on", "eat"}) == "fly"


def test_canonicalize_tie_breaks_lexicographic():
    # both candidates share exactly one of two tokens: tie at 1/3
    assert canonicalize_relation("a b", {"b x", "a x"}) == "a x"


def test_canonicalize_empty_set_raises():
    with pytest.raises(ValueError):
        canonicalize_relation("sit on", set())


# ---------------------------------------------------------------- filtering

def _t(s, r, t):
    return Triple(s, r, t)


def test_filter_counts_raw_phrase_occurrences():
    # phrase counts over the raw list: a=4, b=4, c=3, d=1
    triples = [_t("a", "b", "c")] * 3 + [_t("a", "b", "d")]
    out = filter_by_frequency(triples, min_count=3)
    assert out == [_t("a", "b", "c")]


def test_filter_min_count_one_is_dedup():
    triples = [_t("a", "b", "c"), _t("a", "b", "c"), _t("x", "y", "z")]
    assert filter_by_frequency(triples, min_count=1) == dedup_triples(triples)


def test_filter_rejects_bad_min_count():
    with pytest.raises(ValueError):
        filter_by_frequency([], min_count=0)
    with pytest.raises(ValueError, match="min_count must be >= 1, got 0"):
        keep_frequent([], {}, min_count=0)


def test_keep_frequent_filters_in_order_by_the_counts_given():
    # counts of a raw list the triples came from, not of the triples themselves
    triples = [_t("x", "y", "z"), _t("a", "b", "c"), _t("a", "b", "d")]
    counts = collections.Counter({"a": 4, "b": 4, "c": 3, "d": 1, "x": 3, "y": 3, "z": 3})
    assert keep_frequent(triples, counts, min_count=3) == [_t("x", "y", "z"), _t("a", "b", "c")]
    assert keep_frequent(triples, counts, min_count=4) == []


@given(
    st.lists(
        st.tuples(
            st.sampled_from("ab"), st.sampled_from("rq"), st.sampled_from("xy")
        ),
        max_size=30,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=200, deadline=None)
def test_filter_matches_counter_oracle(raw, k):
    triples = [_t(*parts) for parts in raw]
    counts = collections.Counter()
    for t in triples:
        counts.update([t.subject, t.relation, t.target])
    got = filter_by_frequency(triples, min_count=k)
    want = [
        t for t in dedup_triples(triples)
        if min(counts[t.subject], counts[t.relation], counts[t.target]) >= k
    ]
    assert got == want


def test_dedup_keeps_first_occurrence_order():
    triples = [_t("a", "b", "c"), _t("x", "y", "z"), _t("a", "b", "c")]
    assert dedup_triples(triples) == [_t("a", "b", "c"), _t("x", "y", "z")]


# ---------------------------------------------------------------- graph

def test_graph_indices_and_adjacency():
    g = build_graph(
        [_t("dog", "eat", "bone"), _t("cat", "eat", "fish"), _t("dog", "chase", "cat")]
    )
    assert g.entities == {"dog", "bone", "cat", "fish"}
    assert g.relations == {"eat", "chase"}
    # triples 0 and 1 share "eat"; 0 and 2 share "dog"; 1 and 2 share "cat"
    assert g.neighbors(0) == {1, 2}
    assert g.neighbors(1) == {0, 2}
    assert g.neighbors(2) == {0, 1}
    assert g.entry_index["dog"] == (0, 2)
    # per-phrase counts over stored triples
    assert g.frequency["dog"] == 2
    assert g.frequency["eat"] == 2
    assert g.frequency["bone"] == 1
    assert g.frequency_sums[0] == 5


def test_graph_isolated_triple_has_no_neighbors():
    g = build_graph([_t("a", "b", "c"), _t("x", "y", "z")])
    assert g.neighbors(0) == set()
    assert g.neighbors(1) == set()


def test_graph_deduplicates_on_construction():
    g = build_graph([_t("a", "b", "c"), _t("a", "b", "c")])
    assert len(g.triples) == 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["r", "q"]),
            st.sampled_from(["x", "y"]),
        ),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=100, deadline=None)
def test_graph_rebuild_is_identical(raw):
    triples = [_t(*parts) for parts in raw]
    g1 = build_graph(triples)
    g2 = build_graph(list(g1.triples))
    assert g1.triples == g2.triples
    assert g1.entry_index == g2.entry_index
    assert all(g1.neighbors(tid) == g2.neighbors(tid) for tid in range(len(g1)))


# every field drawn from one pool: self-loops such as <a, r, a> and phrases
# that are both entity and relation occur
mixed_triples = st.lists(st.tuples(*[st.sampled_from(["a", "b", "c", "r"])] * 3),
                         min_size=1, max_size=12)


@given(mixed_triples, st.data())
@settings(max_examples=200, deadline=None)
def test_neighbors_of_several_is_union_of_each(raw, data):
    g = build_graph([_t(*p) for p in raw])
    phrases = [set(t.phrases()) for t in g.triples]
    for tid in range(len(g)):
        assert g.neighbors(tid) == {u for u in range(len(g))
                                    if u != tid and phrases[u] & phrases[tid]}
    tids = data.draw(st.lists(st.integers(0, len(g) - 1), max_size=6))  # repeats, or none
    assert g.neighbors(*tids) == set().union(*(g.neighbors(t) for t in tids)) - set(tids)


# ---------------------------------------------------------------- persistence

def test_kb_round_trip(tmp_path):
    triples = [_t("dog", "eat", "bone"), _t("sit on top", "of", "red car")]
    g = build_graph(triples)
    path = tmp_path / "kb.tsv"
    save_kb(g.triples, path)
    g2 = load_kb(path)
    assert g2.triples == g.triples
    assert g2.entry_index == g.entry_index


def test_load_kb_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("dog\teat\tbone\nbroken line\n")
    with pytest.raises(ValueError, match="2"):
        load_kb(path)


def test_load_kb_empty_field_names_line(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text("dog\teat\tbone\ndog\t\tbone\n")
    with pytest.raises(ValueError, match=r"kb\.tsv:2: triple relation must be non-empty"):
        load_kb(path)


@pytest.mark.parametrize("record, why", [
    ({"question": "what do dog eat", "answer": "bone"}, "question must be"),
    ({"question": [], "answer": "bone"}, "question must be"),
    ({"question": ["what", 3], "answer": "bone"}, "question must be"),
    ({"question": ["what"], "answer": None}, "answer must be"),
    ({"question": ["what"], "answer": ""}, "answer must be"),
    ({"question": ["what"], "answer": ["bone"]}, "answer must be"),
    ({"question": ["what"], "answer": True}, "answer must be"),
    (["what", "bone"], "JSON object"),
])
def test_load_qa_pairs_rejects_malformed_fields(tmp_path, record, why):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"question": ["what", "do", "dog", "eat"], "answer": 4}\n'
                    + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=rf"qa\.jsonl:2: .*{why}"):
        load_qa_pairs(path)


def test_load_qa_pairs_reads_numbers_as_answers(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"question": ["how", "many", "dog"], "answer": 4}\n')
    assert load_qa_pairs(path) == [(["how", "many", "dog"], "4")]


def test_load_kb_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    assert load_kb(path).triples == []
