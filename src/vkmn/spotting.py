"""Question-to-memory retrieval: entry matching, triple spotting, slot packing.

Pipeline per question: greedy n-gram matching against the KB entry set,
collect triples anchored by at least two matched entries, widen by one hop
to the triples sharing a phrase with them, then rank and pad into exactly M
memory slots.

Coverage, the number of distinct matched entries among a triple's phrases,
is counted once per question, by spot_triples; that one Counter is the
match_count every later stage reads. Each stage works in proportion to what
it keeps. One record, SpottedSet, carries a question through the stages.
The one-hop widening only gives it the graph; its `expanded` list, one sort
that merges the graph's ascending postings, is built when first read.
Ranking reads the graph's fixed prior order (frequency sum descending, id
ascending) as a one-int key, and sorts only the triples of the one-hop set
that cover a matched entry, found from match_count; it lists the one-hop
set, to rank the rest, only when those cannot fill the M slots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse
from typing import AbstractSet, Dict, List, Optional, Sequence, Set

from .kb import KnowledgeGraph

MAX_NGRAM = 4  # longest multi-word KB entry we scan for


@dataclass
class SpottedSet:
    """What retrieval found for one question. match_count is its coverage:
    triple id -> distinct matched entries among the triple's phrases, for
    every triple that covers one; other ids read 0. graph is set once the
    record is widened by one hop; it takes no part in ==, repr or replace,
    which therefore never list the one-hop set. Stages build new records
    rather than change one's fields, so records may share one match_count.
    """

    matched_entries: Set[str]
    core: List[int]
    match_count: Dict[int, int] = field(default_factory=dict)
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

    The coverage Counter is kept whole as match_count. The entries are read
    in sorted order, so its key order does not depend on string hashing.
    """
    index = graph.entry_index
    counts = Counter(chain.from_iterable(index.get(p, ()) for p in sorted(matched)))
    core = sorted(tid for tid, c in counts.items() if c >= 2)
    return SpottedSet(matched_entries=set(matched), core=core, match_count=counts)


def expand_neighborhood(spotted: SpottedSet, graph: KnowledgeGraph) -> SpottedSet:
    """Widen the core by every 1-hop neighbor of a core triple.

    The returned record keeps the graph. Its expanded list, the core and
    then the neighbors in triple-id order, is built on first read, from one
    sort over the core phrases' ascending postings (KnowledgeGraph.neighbors).
    match_count is left as spot_triples made it and shared with the new
    record: a neighbor covers at most one matched entry (two would have put
    it in the core) and reads 0 if none.
    """
    return SpottedSet(spotted.matched_entries, spotted.core, spotted.match_count, graph)


def select_slots(spotted: SpottedSet, graph: KnowledgeGraph, m_slots: int = 8) -> SlotAssignment:
    """Rank expanded triples into exactly m_slots slots, padding with nulls.

    Rank: match_count desc, then frequency-sum desc (phrases common in the
    KB act as a prior), then triple id for determinism. The last two are
    the graph's fixed prior order, so the triples are sorted by prior and
    then, stably, by match_count: equal counts keep their prior order.
    Only the expanded triples that cover a matched entry are ranked by
    both, and they are found from match_count: a record never widened
    ranks its core; a widened one, every id of match_count when each
    matched entry is a phrase of a core triple, and otherwise the ids that
    share a phrase with a core triple. expanded is read, and its zero-count
    triples sorted by prior, only when fewer than m_slots triples cover an
    entry.
    """
    if m_slots < 1:
        raise ValueError(f"need at least one slot, got {m_slots}")
    counts, prior = spotted.match_count, graph.prior.__getitem__
    if spotted.graph is None:
        chosen = list(spotted.core)
    else:
        # the one-hop set is every triple that shares a phrase with a core
        # triple (a core triple shares all of its own). Each id of
        # match_count holds a matched entry, so when every matched entry is
        # a core phrase, every one of them lies in the set.
        triples = graph.triples
        phrases = {p for tid in spotted.core for p in triples[tid]}
        if spotted.matched_entries <= phrases:
            chosen = list(counts)
        else:
            chosen = [tid for tid in counts if not phrases.isdisjoint(triples[tid])]
    chosen.sort(key=prior)
    chosen.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay in prior order
    del chosen[m_slots:]
    if len(chosen) < m_slots:
        rest = sorted(filterfalse(counts.get, spotted.expanded), key=prior)
        chosen += rest[:m_slots - len(chosen)]
    return SlotAssignment(slots=chosen + [None] * (m_slots - len(chosen)), spotted=spotted)


def spot_question(question_tokens: Sequence[str], graph: KnowledgeGraph,
                  m_slots: int = 8) -> SlotAssignment:
    """Full retrieval pipeline for one (already lemmatized) question; the
    slots keep the stages behind them in `spotted`."""
    matched = match_entries(question_tokens, graph.entry_set())
    spotted = expand_neighborhood(spot_triples(matched, graph), graph)
    return select_slots(spotted, graph, m_slots)
