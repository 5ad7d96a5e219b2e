"""Question-to-memory retrieval: entry matching, triple spotting, slot packing.

Pipeline per question: greedy n-gram matching against the KB entry set,
collect triples anchored by at least two matched entries, widen by one hop
to the triples sharing a phrase with them, then rank and pad into exactly M
memory slots.

Each stage works in proportion to what it keeps. One record, SpottedSet,
carries a question through the stages. spot_triples finds the core by set
intersections of the matched entries' postings. The one-hop widening only
gives the record the graph; its `expanded` list is built when first read.
Ranking is by coverage, the number of distinct matched entries among a
triple's phrases, then by the graph's fixed prior order (frequency sum
descending, id ascending) as a one-int key. Coverage is counted for the
core alone: any other triple covers at most one entry and lies in exactly
that entry's posting, which lists its ids in prior order, so the best of
them are read off the posting heads. The one-hop set is listed, to rank
the triples that cover nothing, only when those cannot fill the M slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, filterfalse, islice
from typing import AbstractSet, List, Optional, Sequence, Set

from .kb import KnowledgeGraph

MAX_NGRAM = 4  # longest multi-word KB entry we scan for


@dataclass
class SpottedSet:
    """What retrieval found for one question: the matched entries and the
    core, the ids of the triples covering at least two of them, ascending.
    graph is set once the record is widened by one hop; it takes no part in
    ==, repr or replace, which therefore never list the one-hop set.
    """

    matched_entries: Set[str]
    core: List[int]
    graph: Optional[KnowledgeGraph] = field(default=None, repr=False, compare=False)

    @cached_property
    def expanded(self) -> List[int]:
        """The candidate triples, built on first read and kept: the core, and
        once widened every triple outside it that shares a phrase with a core
        triple, ascending."""
        if self.graph is None:
            return list(self.core)
        return self.core + list(self.graph.neighbors(*self.core))


@dataclass
class SlotAssignment:
    """Exactly M slots, each a triple id or None (`mask` marks the real ones),
    and the spotted set select_slots ranked them from (None if given by hand)."""

    slots: List[Optional[int]]
    spotted: Optional[SpottedSet] = None

    def __post_init__(self):
        real = [s for s in self.slots if s is not None]
        if len(real) != len(set(real)):
            raise ValueError("duplicate triple in slots")

    @property
    def mask(self) -> List[bool]:
        return [s is not None for s in self.slots]

    @property
    def n_real(self) -> int:
        return sum(self.mask)


def match_entries(question_tokens: Sequence[str], entries: AbstractSet[str]) -> Set[str]:
    """Greedy longest-match scan of the token stream against S = E u R.

    At each position the longest n-gram (n <= MAX_NGRAM) present in S wins
    and the cursor jumps past it, so "sit on top" beats "on".
    """
    matched: Set[str] = set()
    i = 0
    n_tokens = len(question_tokens)
    while i < n_tokens:
        for n in range(min(MAX_NGRAM, n_tokens - i), 0, -1):
            phrase = " ".join(question_tokens[i:i + n])
            if phrase in entries:
                matched.add(phrase)
                break
        else:
            n = 1
        i += n
    return matched


def spot_triples(matched: Set[str], graph: KnowledgeGraph) -> SpottedSet:
    """Core retrieval: triples whose fields cover >= 2 distinct matched entries.

    An id is in the core once it turns up in a second matched posting: the
    core is the union of each posting's intersection with the ids of the
    postings read before it, whatever order they are read in.
    """
    index = graph.entry_index
    seen, core = set(), set()
    for ids in filter(None, map(index.get, matched)):
        core |= seen.intersection(ids)
        seen.update(ids)
    return SpottedSet(matched_entries=set(matched), core=sorted(core))


def expand_neighborhood(spotted: SpottedSet, graph: KnowledgeGraph) -> SpottedSet:
    """Widen the core by every 1-hop neighbor of a core triple.

    The returned record keeps the graph. Its expanded list, the core and
    then the neighbors in triple-id order, is built on first read.
    """
    return SpottedSet(spotted.matched_entries, spotted.core, graph)


def select_slots(spotted: SpottedSet, graph: KnowledgeGraph, m_slots: int = 8) -> SlotAssignment:
    """Rank expanded triples into exactly m_slots slots, padding with nulls.

    Rank: coverage desc, then frequency-sum desc (phrases common in the KB
    act as a prior), then triple id for determinism; the last two are the
    graph's prior order. Only core triples cover two entries; a record
    never widened ranks them alone. Any other triple covering one lies in
    exactly one matched posting, held in prior order, and a core triple in
    none but a core phrase's. So the next `need` come from the first
    need + len(core) = m_slots ids of each matched core phrase's posting,
    and from the first `need` ids of any other matched posting that share a
    phrase with a core triple. expanded is read, and its triples that cover
    nothing sorted by prior, only when these cannot fill the slots.
    """
    if m_slots < 1:
        raise ValueError(f"need at least one slot, got {m_slots}")
    matched, triples, prior = spotted.matched_entries, graph.triples, graph.prior.__getitem__
    chosen = sorted(spotted.core, key=lambda tid: (-len(matched.intersection(triples[tid])),
                                                   prior(tid)))
    del chosen[m_slots:]
    need = m_slots - len(chosen)
    if need and chosen and spotted.graph is not None:  # no core: nothing is one hop away
        index, core = graph.entry_index, set(chosen)
        phrases = {p for tid in chosen for p in triples[tid]}
        heads: List[int] = []
        for p in matched:
            if p in phrases:  # every triple holding p shares it with a core triple
                heads += filterfalse(core.__contains__, index[p][:m_slots])
            else:
                heads += islice((tid for tid in index.get(p, ())
                                 if not phrases.isdisjoint(triples[tid])), need)
        heads.sort(key=prior)
        chosen += heads[:need]
        need = m_slots - len(chosen)
    if need:
        expanded = spotted.expanded  # rest: those of its triples that cover nothing
        rest = compress(expanded, map(matched.isdisjoint, map(triples.__getitem__, expanded)))
        chosen += sorted(rest, key=prior)[:need]
    return SlotAssignment(slots=chosen + [None] * (m_slots - len(chosen)), spotted=spotted)


def spot_question(question_tokens: Sequence[str], graph: KnowledgeGraph,
                  m_slots: int = 8) -> SlotAssignment:
    """Full retrieval pipeline for one (already lemmatized) question; the
    slots keep the stages behind them in `spotted`."""
    matched = match_entries(question_tokens, graph.entry_set())
    spotted = expand_neighborhood(spot_triples(matched, graph), graph)
    return select_slots(spotted, graph, m_slots)
