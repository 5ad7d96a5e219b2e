"""Question-to-memory retrieval: entry matching, triple spotting, slot packing.

Pipeline per question: greedy n-gram matching against the KB entry set,
collect triples anchored by at least two matched entries, widen by one hop
to the triples sharing a phrase with them, then rank and pad into exactly M
memory slots.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import AbstractSet, Dict, List, Optional, Sequence, Set

from .kb import KnowledgeGraph

MAX_NGRAM = 4  # longest multi-word KB entry we scan for


@dataclass
class SpottedSet:
    matched_entries: Set[str]
    core: List[int]
    expanded: List[int]
    match_count: Dict[int, int] = field(default_factory=dict)


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


def _coverage(matched: Set[str], graph: KnowledgeGraph) -> Counter:
    """Triple id -> how many distinct matched entries its fields contain."""
    index = graph.entry_index
    return Counter(chain.from_iterable(index.get(p, ()) for p in matched))


def spot_triples(matched: Set[str], graph: KnowledgeGraph) -> SpottedSet:
    """Core retrieval: triples whose fields cover >= 2 distinct matched entries."""
    counts = _coverage(matched, graph)
    core = sorted(tid for tid, c in counts.items() if c >= 2)
    return SpottedSet(
        matched_entries=set(matched),
        core=core,
        expanded=list(core),
        match_count={tid: counts[tid] for tid in core},
    )


def expand_neighborhood(spotted: SpottedSet, graph: KnowledgeGraph) -> SpottedSet:
    """Append every 1-hop neighbor of a core triple, in triple-id order.

    Neighbor match_count is its own matched-entry coverage (0 or 1; two or
    more would have put it in the core already).
    """
    neighbors = sorted(graph.neighbors(*spotted.core))
    counts = _coverage(spotted.matched_entries, graph)
    match_count = dict(spotted.match_count)
    match_count.update((tid, counts[tid]) for tid in neighbors)
    return replace(spotted, expanded=spotted.core + neighbors, match_count=match_count)


def select_slots(spotted: SpottedSet, graph: KnowledgeGraph, m_slots: int = 8) -> SlotAssignment:
    """Rank expanded triples into exactly m_slots slots, padding with nulls.

    Rank: match_count desc, then frequency-sum desc (phrases common in the
    KB act as a prior), then triple id for determinism.
    """
    if m_slots < 1:
        raise ValueError(f"need at least one slot, got {m_slots}")
    counts, sums = spotted.match_count, graph.frequency_sums
    chosen = heapq.nsmallest(m_slots, spotted.expanded,
                             key=lambda tid: (-counts.get(tid, 0), -sums[tid], tid))
    return SlotAssignment(slots=chosen + [None] * (m_slots - len(chosen)), spotted=spotted)


def spot_question(question_tokens: Sequence[str], graph: KnowledgeGraph,
                  m_slots: int = 8) -> SlotAssignment:
    """Full retrieval pipeline for one (already lemmatized) question; the
    slots keep the stages behind them in `spotted`."""
    matched = match_entries(question_tokens, graph.entry_set())
    spotted = expand_neighborhood(spot_triples(matched, graph), graph)
    return select_slots(spotted, graph, m_slots)
