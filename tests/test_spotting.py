"""Retrieval pipeline: greedy matching, >=2-entry spotting, expansion, slots."""

import heapq
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vkmn
from vkmn.kb import KnowledgeGraph, Triple, build_graph
from vkmn.spotting import (
    SlotAssignment,
    expand_neighborhood,
    match_entries,
    select_slots,
    spot_question,
    spot_triples,
)
from vkmn.training import make_synthetic_task


def _graph():
    return build_graph(
        [
            Triple("dog", "eat", "bone"),     # 0
            Triple("cat", "eat", "fish"),     # 1
            Triple("dog", "chase", "cat"),    # 2
            Triple("sit on top", "of", "red car"),  # 3, multi-word entries
        ]
    )


# ---------------------------------------------------------------- matching

def test_match_entries_unigrams():
    g = _graph()
    got = match_entries(["what", "do", "dog", "eat"], g.entry_set())
    assert got == {"dog", "eat"}


def test_match_entries_longest_wins():
    g = _graph()
    # "sit on top" must absorb all three tokens in one jump
    got = match_entries(["sit", "on", "top", "of", "red", "car"], g.entry_set())
    assert got == {"sit on top", "of", "red car"}


def test_match_entries_cursor_jumps_past_match():
    g = build_graph([Triple("a b", "r", "b"), Triple("b", "q", "c")])
    # after matching "a b" at position 0 the scan resumes at position 2,
    # so the "b" inside the bigram is not matched again on its own
    assert match_entries(["a", "b"], g.entry_set()) == {"a b"}
    assert match_entries(["a", "b", "b"], g.entry_set()) == {"a b", "b"}


def test_match_entries_no_tokens():
    assert match_entries([], _graph().entry_set()) == set()


@given(st.lists(st.sampled_from(["dog", "eat", "bone", "zzz", "sit", "on", "top"]),
                max_size=10))
@settings(max_examples=100, deadline=None)
def test_match_entries_subset_of_entry_set(tokens):
    g = _graph()
    entries = g.entry_set()
    assert match_entries(tokens, g.entry_set()) <= entries


# ---------------------------------------------------------------- spotting

def test_spot_requires_two_distinct_entries():
    g = _graph()
    assert spot_triples({"eat"}, g).core == []
    got = spot_triples({"dog", "eat"}, g)
    assert got.core == [0]
    # 1 and 2 cover one entry each: ranked after the core, tied sums by id
    assert select_slots(expand_neighborhood(got, g), g, 4).slots == [0, 1, 2, None]


def test_spot_repeated_phrase_counts_once():
    # subject and target are the same phrase: still a single matched entry
    g = build_graph([Triple("a", "r", "a")])
    assert spot_triples({"a"}, g).core == []
    assert spot_triples({"a", "r"}, g).core == [0]


def test_spot_core_is_sorted_by_tid():
    g = _graph()
    got = spot_triples({"dog", "eat", "cat"}, g)
    assert got.core == [0, 1, 2]
    assert got.core == sorted(got.core)


def test_spot_empty_matched():
    got = spot_triples(set(), _graph())
    assert got.core == [] and got.expanded == []


# ---------------------------------------------------------------- expansion

def test_expand_appends_one_hop_neighbors():
    g = _graph()
    spotted = spot_triples({"dog", "eat"}, g)  # core [0]
    out = expand_neighborhood(spotted, g)
    # triple 0 shares "eat" with 1 and "dog" with 2; 3 is disconnected
    assert out.core == [0]
    assert out.expanded == [0, 1, 2]
    assert out.matched_entries == {"dog", "eat"} and out.graph is g


def test_expand_no_core_no_neighbors():
    g = _graph()
    out = expand_neighborhood(spot_triples(set(), g), g)
    assert out.expanded == []


def test_expand_isolated_core():
    g = _graph()
    spotted = spot_triples({"sit on top", "red car"}, g)
    out = expand_neighborhood(spotted, g)
    assert out.expanded == [3]


def test_expand_neighbors_within_one_hop():
    g = _graph()
    out = expand_neighborhood(spot_triples({"dog", "eat"}, g), g)
    core = set(out.core)
    for tid in out.expanded:
        assert tid in core or any(tid in g.neighbors(c) for c in core)


# ---------------------------------------------------------------- slots

def test_select_slots_pads_with_none():
    g = _graph()
    spotted = expand_neighborhood(spot_triples({"dog", "eat"}, g), g)
    sa = select_slots(spotted, g, m_slots=8)
    assert len(sa.slots) == 8
    assert sa.n_real == 3
    assert sa.slots[3:] == [None] * 5
    assert sa.mask == [True] * 3 + [False] * 5


def test_select_slots_truncates_by_rank():
    g = _graph()
    spotted = expand_neighborhood(spot_triples({"dog", "eat"}, g), g)
    sa = select_slots(spotted, g, m_slots=2)
    # core triple 0 (match 2) first; then neighbor with higher frequency-sum:
    # tid 1 <cat,eat,fish> sums eat=2+cat=2+fish=1 = 5,
    # tid 2 <dog,chase,cat> sums dog=2+chase=1+cat=2 = 5 -> tie, lower tid wins
    assert sa.slots == [0, 1]


def test_select_slots_rank_ordering():
    g = build_graph(
        [
            Triple("a", "r1", "x"),  # 0
            Triple("a", "r2", "y"),  # 1 shares only "a" with 0
            Triple("a", "r1", "z"),  # 2 shares "a" and "r1" with 0
        ]
    )
    spotted = expand_neighborhood(spot_triples({"a", "r1"}, g), g)
    sa = select_slots(spotted, g, m_slots=3)
    # 0 and 2 both cover two entries; 1 covers one. Among {0, 2} the
    # frequency sums are equal (same phrases), so tid breaks the tie.
    assert sa.slots == [0, 2, 1]


def test_select_slots_scans_past_the_head_of_a_posting_outside_the_core():
    g = build_graph(
        [
            Triple("a", "r", "b"),    # 0, the core of {a, r, x}
            Triple("x", "q", "y1"),   # 1-3 hold the matched "x" but share
            Triple("x", "q", "y2"),   #     no phrase with the core, and rank
            Triple("x", "q", "y3"),   #     ahead of 4 by frequency sum
            Triple("x", "s", "b"),    # 4 holds "x" and shares "b" with 0
        ]
    )
    spotted = expand_neighborhood(spot_triples({"a", "r", "x"}, g), g)
    assert spotted.core == [0] and g.entry_index["x"] == (1, 2, 3, 4)
    assert select_slots(spotted, g, m_slots=2).slots == [0, 4]
    assert select_slots(spotted, g, m_slots=3).slots == [0, 4, None]


def test_select_slots_rejects_zero_slots():
    g = _graph()
    with pytest.raises(ValueError):
        select_slots(spot_triples(set(), g), g, m_slots=0)


def test_slot_assignment_validation():
    with pytest.raises(ValueError):
        SlotAssignment(slots=[1, 1])


# ---------------------------------------------------------------- pipeline

def test_spot_question_end_to_end():
    g = _graph()
    sa = spot_question(["what", "do", "dog", "eat"], g, m_slots=4)
    assert sa.slots[0] == 0
    assert set(s for s in sa.slots if s is not None) == {0, 1, 2}


def test_spot_question_unmatched_tokens_only():
    g = _graph()
    sa = spot_question(["quantum", "flux"], g, m_slots=4)
    assert sa.n_real == 0
    assert sa.slots == [None] * 4


pool_triples = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["r", "q"]),
        st.sampled_from(["x", "y", "z"]),
    ),
    min_size=1,
    max_size=15,
)


@given(pool_triples, st.sets(st.sampled_from(["a", "b", "c", "d", "r", "q", "x", "y", "z"]),
                             max_size=6))
@settings(max_examples=200, deadline=None)
def test_spot_matches_brute_force(raw, matched):
    g = build_graph([Triple(*p) for p in raw])
    got = spot_triples(matched, g)
    want = sorted(
        tid for tid, t in enumerate(g.triples)
        if len(matched & set(t.phrases())) >= 2
    )
    assert got.core == want


@given(pool_triples, st.sets(st.sampled_from(["a", "b", "r", "x", "y"]), max_size=4),
       st.sampled_from(["c", "d", "q", "z"]))
@settings(max_examples=100, deadline=None)
def test_spot_core_monotone_in_matched(raw, matched, extra):
    g = build_graph([Triple(*p) for p in raw])
    small = set(spot_triples(matched, g).core)
    big = set(spot_triples(matched | {extra}, g).core)
    assert small <= big


@given(pool_triples, st.lists(st.sampled_from(["a", "b", "r", "x", "what"]), max_size=8),
       st.integers(min_value=1, max_value=6))
@settings(max_examples=100, deadline=None)
def test_spot_question_shape_and_determinism(raw, tokens, m):
    g = build_graph([Triple(*p) for p in raw])
    sa1 = spot_question(tokens, g, m_slots=m)
    sa2 = spot_question(tokens, g, m_slots=m)
    assert len(sa1.slots) == m
    assert sa1.slots == sa2.slots and sa1.mask == sa2.mask
    real = [s for s in sa1.slots if s is not None]
    assert len(real) == len(set(real))


@given(st.lists(st.tuples(*[st.sampled_from(["a", "b", "c", "r"])] * 3), min_size=1, max_size=12),
       st.sets(st.sampled_from(["a", "b", "c", "r", "zzz"]), max_size=4))
@settings(max_examples=200, deadline=None)
def test_expanded_ranks_by_matched_coverage(raw, matched):
    # every field drawn from one pool: self-loops and dual-role phrases occur.
    # Ranking every expanded triple lists them by matched coverage, counted
    # here over each triple's distinct phrases; only the core covers two
    g = build_graph([Triple(*p) for p in raw])
    out = expand_neighborhood(spot_triples(matched, g), g)
    slots = select_slots(out, g, len(out.expanded) + 1).slots
    assert slots[-1] is None and sorted(slots[:-1]) == sorted(out.expanded)
    coverage = [len(matched & set(g.triples[tid].phrases())) for tid in slots[:-1]]
    assert coverage == sorted(coverage, reverse=True)
    assert sorted(slots[:sum(c >= 2 for c in coverage)]) == out.core


# ------------------------------------------- against the set-and-heap reference
#
# expand_neighborhood sorts the core phrases' postings, and select_slots
# counts coverage for the core alone and reads the other triples off the
# heads of the matched postings. The references below are the expressions
# they replace: a set union of postings, coverage counted for every triple,
# and heapq.nsmallest over every expanded triple with the full tuple key.

def _coverage(matched, triple):
    return len(matched & set(triple.phrases()))


def _reference_expand(spotted, graph):
    """The expanded list, and every triple's coverage of the matched entries."""
    phrases = {p for tid in spotted.core for p in graph.triples[tid].phrases()}
    neighbors = set().union(*(set(graph.entry_index[p]) for p in phrases))
    neighbors.difference_update(spotted.core)
    coverage = [_coverage(spotted.matched_entries, t) for t in graph.triples]
    return spotted.core + sorted(neighbors), coverage


def _reference_slots(spotted, graph, m_slots):
    matched, triples, sums = spotted.matched_entries, graph.triples, graph.frequency_sums
    chosen = heapq.nsmallest(m_slots, spotted.expanded,
                             key=lambda tid: (-_coverage(matched, triples[tid]), -sums[tid], tid))
    return chosen + [None] * (m_slots - len(chosen))


# every field drawn from one pool: self-loops, phrases in two roles of one
# triple, and ties in frequency sum all occur
one_pool_triples = st.lists(st.tuples(*[st.sampled_from(["a", "b", "c", "r", "q"])] * 3),
                            min_size=1, max_size=15)


@given(one_pool_triples)
@settings(max_examples=200, deadline=None)
def test_entry_index_postings_are_strictly_ascending_tuples(raw):
    # strictly ascending in prior, the ranking order select_slots reads off
    # the posting heads, over the ids of the triples holding the phrase
    g = build_graph([Triple(*p) for p in raw])
    for phrase, ids in g.entry_index.items():
        assert type(ids) is tuple
        assert all(g.prior[a] < g.prior[b] for a, b in zip(ids, ids[1:]))
        assert sorted(ids) == [tid for tid, t in enumerate(g.triples) if phrase in t.phrases()]


@given(one_pool_triples)
@settings(max_examples=300, deadline=None)
def test_prior_is_the_frequency_sum_then_id_order(raw):
    g = build_graph([Triple(*p) for p in raw])
    assert sorted(g.prior) == list(range(len(g)))
    by_prior = sorted(range(len(g)), key=g.prior.__getitem__)
    assert by_prior == sorted(range(len(g)), key=lambda tid: (-g.frequency_sums[tid], tid))


@given(one_pool_triples, st.sets(st.sampled_from(["a", "b", "c", "r", "q", "zzz"]), max_size=5),
       st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_expand_and_select_match_reference(raw, matched, read_first, data):
    # select_slots ranks from the posting heads and lists the one-hop set
    # only to fill the slots; the result must not depend on whether a reader
    # listed it first
    g = build_graph([Triple(*p) for p in raw])
    spotted = spot_triples(matched, g)
    out = expand_neighborhood(spotted, g)
    expanded, coverage = _reference_expand(spotted, g)
    assert spotted.core == [tid for tid, c in enumerate(coverage) if c >= 2]
    m = data.draw(st.integers(1, len(expanded) + 2))
    if read_first:
        assert out.expanded == expanded
    slots = select_slots(out, g, m).slots
    assert out.expanded == expanded
    assert slots == _reference_slots(out, g, m)
    # a record never widened ranks its core alone
    assert select_slots(spotted, g, m).slots == _reference_slots(spotted, g, m)
    assert spotted.expanded == spotted.core


@given(one_pool_triples, st.sets(st.sampled_from(["a", "b", "c", "r", "q", "zzz"]), max_size=5))
@settings(max_examples=300, deadline=None)
def test_core_is_found_once_and_shared_by_expansion(raw, matched):
    # spot_triples finds the core, the triples covering two matched
    # entries, once; expansion shares it and the matched entries, and only
    # appends ids
    g = build_graph([Triple(*p) for p in raw])
    spotted = spot_triples(matched, g)
    assert spotted.matched_entries == matched and spotted.matched_entries is not matched
    assert spotted.core == [tid for tid, t in enumerate(g.triples) if _coverage(matched, t) >= 2]
    out = expand_neighborhood(spotted, g)
    assert out.core is spotted.core and out.matched_entries is spotted.matched_entries
    assert out.expanded[:len(out.core)] == out.core


def test_select_slots_matches_heapq_on_the_2k_triple_task():
    # about 90 of a question's expanded triples cover a matched entry here,
    # where the seed-7 reference task has a handful
    task = make_synthetic_task(n_entities=200, n_relations=20, n_triples=2000)
    g = task.graph
    covered = 0
    for ex in task.train:
        spotted = spot_question(ex.question_tokens, g).spotted
        covered += sum(1 for tid in spotted.expanded
                       if not spotted.matched_entries.isdisjoint(g.triples[tid]))
        for m in (1, 8, 200):
            assert select_slots(spotted, g, m).slots == _reference_slots(spotted, g, m)
    assert covered > 50 * len(task.train)


# a relation phrase in at least half the triples: its posting is the long
# one, and a bag of a few entries often matches a phrase of no core triple
hub_kbs = st.tuples(
    st.sets(st.tuples(st.integers(0, 11), st.integers(0, 11)), min_size=1, max_size=60),
    st.lists(st.tuples(st.integers(0, 11), st.sampled_from(["r0", "r1", "r2"]),
                       st.integers(0, 11)), max_size=30),
).filter(lambda kb: len(kb[1]) <= len(kb[0]))


@given(hub_kbs, st.data())
@settings(max_examples=200, deadline=None)
def test_select_slots_matches_heapq_when_one_phrase_is_in_half_the_triples(kb, data):
    hub, rest = kb
    g = build_graph([Triple(f"e{s}", "hub", f"e{t}") for s, t in sorted(hub)]
                    + [Triple(f"e{s}", r, f"e{t}") for s, r, t in rest])
    assert 2 * len(g.entry_index["hub"]) >= len(g)
    bag = data.draw(st.sets(st.sampled_from(sorted(g.entry_set())), min_size=1, max_size=5))
    spotted = spot_triples(bag, g)
    out = expand_neighborhood(spotted, g)
    for m in (1, 3, 8, 20, 50):
        assert select_slots(out, g, m).slots == _reference_slots(out, g, m)
        assert select_slots(spotted, g, m).slots == _reference_slots(spotted, g, m)


class _CountedReads(tuple):
    """A posting that records how many ids each read of it touches."""

    def __new__(cls, ids, reads):
        posting = super().__new__(cls, ids)
        posting.reads = reads
        return posting

    def __getitem__(self, key):
        span = range(len(self))[key]
        self.reads.append(len(span) if isinstance(span, range) else 1)
        return tuple.__getitem__(self, key)

    def __iter__(self):
        self.reads.append(len(self))
        return tuple.__iter__(self)

    def __contains__(self, tid):
        self.reads.append(len(self))
        return tuple.__contains__(self, tid)


def test_select_slots_reads_a_core_phrase_posting_only_through_a_short_slice():
    # 5,000 triples share the relation "hub"; targets repeat, so frequency
    # sums and prior differ from id order. One "near" triple shares t53 with
    # triple 4321
    g = build_graph([Triple(f"s{i}", "hub", f"t{i % 97}") for i in range(5000)]
                    + [Triple(f"u{j}", "near", f"t{j}") for j in range(60)])
    questions = [({"s4321", "hub"}, [4321]),           # both are core phrases
                 ({"s4321", "hub", "near"}, [4321]),   # and "near" is not
                 ({"t3", "hub"}, [i for i in range(5000) if i % 97 == 3])]
    full = g.entry_index["hub"]
    for matched, core in questions:
        want = {m: _reference_slots(expand_neighborhood(spot_triples(matched, g), g), g, m)
                for m in (1, 8, 60)}
        out = expand_neighborhood(spot_triples(matched, g), g)
        assert out.core == core
        reads = []
        g.entry_index["hub"] = _CountedReads(full, reads)
        try:
            for m, slots in want.items():
                del reads[:]
                assert select_slots(out, g, m).slots == slots
                assert bool(reads) == (m > len(core))  # the core alone can fill them
                assert max(reads, default=0) <= m + len(core)
        finally:
            g.entry_index["hub"] = full
        assert "expanded" not in vars(out)  # the one-hop list was never built


def test_one_hop_list_is_built_only_when_too_few_triples_cover_an_entry(monkeypatch):
    calls = []
    neighbors = KnowledgeGraph.neighbors

    def counting(self, *tids):
        calls.append(tids)
        return neighbors(self, *tids)

    monkeypatch.setattr(KnowledgeGraph, "neighbors", counting)
    # on the 2k-triple task at least 8 triples of every question's one-hop
    # set cover a matched entry, so the list is never built
    big = make_synthetic_task(n_entities=200, n_relations=20, n_triples=2000)
    for ex in big.train[:500]:
        spot_question(ex.question_tokens, big.graph)
    assert calls == []
    # on the seed-7 reference task many questions fill the slots from the rest
    task = make_synthetic_task(seed=7)
    short = 0
    for ex in task.train + task.test:
        del calls[:]
        sa = spot_question(ex.question_tokens, task.graph)
        expanded, coverage = _reference_expand(sa.spotted, task.graph)
        too_few = sum(1 for tid in expanded if coverage[tid]) < 8
        assert len(calls) == too_few
        for _ in range(3):
            assert sa.spotted.expanded == expanded
        assert len(calls) == 1
        short += too_few
    assert short > 10


_CORES_AND_SLOTS_OF_SEED_7_TASK = """
from vkmn.spotting import spot_question
from vkmn.training import make_synthetic_task
task = make_synthetic_task(seed=7)
for ex in task.train + task.test:
    sa = spot_question(ex.question_tokens, task.graph)
    print(sa.spotted.core, sa.slots)
"""


def test_cores_and_slots_do_not_depend_on_hash_seed():
    src = os.path.dirname(os.path.dirname(vkmn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # each question's core and slots; the slots rank triples covering one
    # entry, read off the posting heads, after the core
    outs = [subprocess.run([sys.executable, "-c", _CORES_AND_SLOTS_OF_SEED_7_TASK],
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                           capture_output=True, text=True, check=True).stdout
            for seed in ("0", "1")]
    assert outs[0].count("\n") == 92
    assert any(line.startswith("[") and "," in line.split("]")[0]  # a core of two triples
               for line in outs[0].splitlines())
    assert outs[0] == outs[1]


def test_widened_records_compare_print_and_replace_without_the_one_hop_list(monkeypatch):
    calls = []
    neighbors = KnowledgeGraph.neighbors

    def counting(self, *tids):
        calls.append(tids)
        return neighbors(self, *tids)

    monkeypatch.setattr(KnowledgeGraph, "neighbors", counting)
    g = _graph()
    a = expand_neighborhood(spot_triples({"dog", "eat"}, g), g)
    b = expand_neighborhood(spot_triples({"dog", "eat"}, g), g)
    assert a == b and a != expand_neighborhood(spot_triples({"cat", "eat"}, g), g)
    assert "graph" not in repr(a) and "expanded" not in repr(a)
    copy = replace(a, core=list(a.core))
    assert calls == []
    assert copy.graph is g and copy == a
    assert select_slots(copy, g, 2).slots == select_slots(a, g, 2).slots == [0, 1]
    assert calls == []
    assert copy.expanded == a.expanded == [0, 1, 2]
    assert len(calls) == 2
