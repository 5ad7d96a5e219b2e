"""Triple knowledge base: extraction from QA pairs, filtering, indexing, persistence.

Facts are <subject, relation, target> triples of lowercase lemmatized phrases.
Two sources feed the store: rule-based template extraction from QA pairs and
ingestion of relation-annotation triple files. Extracted relations are
canonicalized against the ingested relation vocabulary, then everything is
merged and frequency-filtered.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict, namedtuple
from itertools import chain
from operator import itemgetter
from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, KeysView, List,
                    Mapping, Sequence, Set, Tuple, TypeVar)

import numpy as np

R = TypeVar("R")

# Irregular forms resolved before any suffix rule fires. Kept to forms that
# actually show up in captions/questions about everyday scenes.
IRREGULAR_FORMS = {
    "men": "man", "women": "woman", "children": "child", "people": "person",
    "feet": "foot", "teeth": "tooth", "geese": "goose", "mice": "mouse",
    "leaves": "leaf", "knives": "knife", "wives": "wife", "shelves": "shelf",
    "dishes": "dish", "boxes": "box", "watches": "watch", "buses": "bus",
    "benches": "bench", "sandwiches": "sandwich",
    "is": "be", "are": "be", "was": "be", "were": "be", "am": "be",
    "been": "be", "being": "be",
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "doing": "do", "done": "do",
    "ate": "eat", "eaten": "eat", "eating": "eat",
    "wore": "wear", "worn": "wear", "wearing": "wear",
    "sat": "sit", "sitting": "sit",
    "stood": "stand", "standing": "stand",
    "ran": "run", "running": "run",
    "flew": "fly", "flying": "fly", "flies": "fly",
    "held": "hold", "holding": "hold",
    "rode": "ride", "ridden": "ride", "riding": "ride",
    "drove": "drive", "driven": "drive", "driving": "drive",
    "drank": "drink", "drunk": "drink", "drinking": "drink",
    "swam": "swim", "swimming": "swim",
    "cutting": "cut", "putting": "put", "getting": "get", "got": "get",
    "made": "make", "making": "make",
    "said": "say", "saw": "see", "seen": "see",
    "went": "go", "gone": "go", "going": "go",
    "took": "take", "taken": "take", "taking": "take",
    "gave": "give", "given": "give", "giving": "give",
    "used": "use", "using": "use",
    "lying": "lie", "lay": "lie",
    "coming": "come", "came": "come",
    "living": "live", "loved": "love", "loving": "love",
    "moved": "move", "moving": "move", "smiling": "smile",
}

_VOWELS = set("aeiouy")


def _has_vowel(stem: str) -> bool:
    return any(c in _VOWELS for c in stem)


def _lemmatize_once(token: str) -> str:
    if token in IRREGULAR_FORMS:
        return IRREGULAR_FORMS[token]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if token.endswith("s") and not token.endswith("ss") and len(token) > 3:
        return token[:-1]
    if token.endswith("ing") and len(token) > 4 and _has_vowel(token[:-3]):
        return token[:-3]
    if token.endswith("ed") and len(token) > 3 and _has_vowel(token[:-2]):
        return token[:-2]
    return token


def lemmatize(token: str) -> str:
    """Crude but idempotent lemmatizer: irregular lookup, then suffix rules.

    Rules fire first-match-wins per pass: "ies"->"y", "sses"->"ss", strip a
    final "s" (length > 3, never after "ss"), strip "ing"/"ed" when a vowel
    remains in the stem. Passes repeat to a fixed point so stacked suffixes
    ("sayings") cannot break idempotence. Terminates: every pass either
    shortens the token or lands on an irregular-table value, all of which
    are fixed points.
    """
    token = token.lower()
    while True:
        out = _lemmatize_once(token)
        if out == token:
            return out
        token = out


def lemmatize_phrase(phrase: str) -> str:
    return " ".join(lemmatize(t) for t in phrase.lower().split())


class Triple(namedtuple("Triple", "subject relation target")):
    """One knowledge fact: a named 3-tuple of lowercase lemmatized phrases.

    Immutable and slotted; hashes, compares, orders and unpacks as the plain
    tuple (subject, relation, target). Every way of making one, `_make` and
    `_replace` included, rejects a blank or whitespace-only field.
    """

    __slots__ = ()

    def __new__(cls, subject: str, relation: str, target: str) -> "Triple":
        if not (subject.strip() and relation.strip() and target.strip()):
            for name, value in zip(cls._fields, (subject, relation, target)):
                if not value.strip():
                    raise ValueError(f"triple {name} must be non-empty, got {value!r}")
        return tuple.__new__(cls, (subject, relation, target))

    @classmethod
    def _make(cls, iterable: Iterable[str]) -> "Triple":
        return cls(*iterable)

    def phrases(self) -> "Triple":
        return self

    def __str__(self) -> str:
        return f"<{self.subject}, {self.relation}, {self.target}>"


def make_triple(subject: str, relation: str, target: str) -> Triple:
    """Triple constructor that normalizes all three fields."""
    return Triple(lemmatize_phrase(subject), lemmatize_phrase(relation), lemmatize_phrase(target))


# --- QA-pair template extraction -------------------------------------------
#
# Stands in for full dependency parsing: a handful of positional templates
# over the raw lowercase tokens, with lemmatization applied to the emitted
# fields. Questions that fit no template yield nothing.

QUESTION_WORDS = {"what", "who", "where", "which", "when", "why", "how"}
AUXILIARIES = {"do", "does", "did", "is", "are", "was", "were", "am", "be",
               "can", "could", "will", "would", "should", "may", "might"}
STOPWORDS = {"the", "a", "an", "this", "that", "these", "those", "some", "any",
             "my", "your", "his", "her", "its", "our", "their", "of", "to", "in"}
# Lemma forms treated as verbs by the fallback template.
VERB_LEXICON = {"eat", "wear", "ride", "hold", "use", "sit", "stand", "play",
                "fly", "drive", "carry", "pull", "push", "cut", "drink", "read",
                "watch", "throw", "catch", "hit", "kick", "run", "walk", "jump",
                "sleep", "cover", "contain", "love", "like", "want", "show",
                "feed", "chase", "live", "grow", "make", "say", "see", "have"}


def _content(tokens: Sequence[str]) -> List[str]:
    return [t for t in tokens if t not in STOPWORDS]


def _is_verb_like(raw: str) -> bool:
    if lemmatize(raw) in VERB_LEXICON:
        return True
    if raw.endswith("ing") and len(raw) > 4 and _has_vowel(raw[:-3]):
        return True
    if raw.endswith("ed") and len(raw) > 3 and _has_vowel(raw[:-2]):
        return True
    return False


def extract_triples_from_qa(question_tokens: Sequence[str], answer: str) -> List[Triple]:
    """Template extraction of facts from one QA pair.

    Covered patterns, tried in order:
      (b) "what is <V>-ed/ing for <Y>"  -> <answer, V, Y>
      (a) "what is <X> <V>-ing" / "what do <X> <V>" -> <X, V, answer>
      (c) "who/what [is] <V> <Y>" with the answer as subject -> <answer, V, Y>
      (d) fallback: exactly one verb-like token and one noun phrase -> <X, V, answer>
    Yes/no answers never produce facts.
    """
    if not question_tokens:
        raise ValueError("question must be non-empty")
    if not answer:
        raise ValueError("answer must be non-empty")
    toks = [t.lower() for t in question_tokens]
    answer = answer.lower().strip()
    if answer in ("yes", "no"):
        return []
    ans = lemmatize_phrase(answer)

    def emit(s: str, r: str, t: str) -> List[Triple]:
        s, r, t = (lemmatize_phrase(x) for x in (s, r, t))
        if s and r and t:
            return [Triple(s, r, t)]
        return []

    if toks[0] == "what" and len(toks) >= 3:
        rest = toks[1:]
        if rest[0] in ("is", "are"):
            body = rest[1:]
            # (b) "what is used for brushing teeth" -> <answer, use, brush tooth>
            if len(body) >= 3 and _is_verb_like(body[0]) and body[1] == "for":
                y = " ".join(_content(body[2:]))
                if y:
                    return emit(ans, body[0], y)
            # (a) "what is the dog eating" -> <dog, eat, answer>
            if len(body) >= 2 and body[-1].endswith("ing") and _is_verb_like(body[-1]):
                x = " ".join(_content(body[:-1]))
                if x:
                    return emit(x, body[-1], ans)
        elif rest[0] in ("do", "does", "did") and len(rest) >= 3:
            # (a) "what do dogs eat" -> <dog, eat, answer>
            x = " ".join(_content(rest[1:-1]))
            if x:
                return emit(x, rest[-1], ans)

    if toks[0] in ("who", "what") and len(toks) >= 3:
        body = toks[1:]
        if body[0] in ("is", "are") and len(body) >= 3 and body[1].endswith("ing") and _is_verb_like(body[1]):
            body = body[1:]
        # (c) "who wears the hat" -> <answer, wear, hat>, also with a
        # progressive verb: "what is sitting on the table" -> <answer, sit, on table>
        if body[0] not in AUXILIARIES and _is_verb_like(body[0]):
            y = " ".join(_content(body[1:]))
            if y:
                return emit(ans, body[0], y)

    # (d) fallback: a single verb-like token plus a single contiguous noun phrase.
    body = [t for t in toks if t not in QUESTION_WORDS and t not in AUXILIARIES
            and t not in STOPWORDS and t != "for"]
    verbs = [t for t in body if _is_verb_like(t)]
    nouns = [t for t in body if not _is_verb_like(t)]
    if len(verbs) == 1 and nouns:
        positions = [body.index(n) for n in nouns]
        if positions == list(range(positions[0], positions[0] + len(nouns))):
            return emit(" ".join(nouns), verbs[0], ans)
    return []


def canonicalize_relation(r: str, relation_set: Set[str]) -> str:
    """Snap a relation phrase onto the closest member of relation_set.

    Closeness is token-level Jaccard similarity; ties break to the
    lexicographically smallest member. Zero similarity everywhere leaves r
    untouched.
    """
    if not relation_set:
        raise ValueError("relation_set must be non-empty")
    r_tokens = set(r.split())
    best, best_sim = None, 0.0
    for cand in sorted(relation_set):
        c_tokens = set(cand.split())
        union = r_tokens | c_tokens
        sim = len(r_tokens & c_tokens) / len(union) if union else 0.0
        if sim > best_sim:
            best, best_sim = cand, sim
    return best if best is not None else r


def dedup_triples(triples: Iterable[Triple]) -> List[Triple]:
    """The triples without repeats, each at its first occurrence."""
    return list(dict.fromkeys(triples))


def keep_frequent(triples: Iterable[Triple], counts: Mapping[str, int],
                  min_count: int) -> List[Triple]:
    """The triples, in order, whose every phrase has a count >= min_count."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    return [t for t in triples if all(counts[p] >= min_count for p in t)]


def filter_by_frequency(triples: Sequence[Triple], min_count: int = 3) -> List[Triple]:
    """Drop triples containing any phrase rarer than min_count.

    Counts are taken once over the raw input (duplicates included), not
    iterated to a fixpoint; output is deduplicated in first-seen order.
    """
    return keep_frequent(dedup_triples(triples), Counter(chain.from_iterable(triples)),
                         min_count)


class KnowledgeGraph:
    """Deduplicated triple store indexed by phrase.

    Triple ids are insertion order after dedup. Immutable after build.
    frequency_sums[t] is the summed KB frequency of triple t's three
    phrases; prior[t] is t's place in the graph's fixed ranking order,
    frequency sum descending, then id ascending, so that ranking by prior
    is ranking by (-frequency_sums[t], t) with a one-int key; each posting
    of entry_index lists its ids in that order.
    """

    def __init__(self, triples: Sequence[Triple]):
        triples = dedup_triples(triples)  # each its own phrase tuple
        self.triples: List[Triple] = triples
        self.frequency: Counter = Counter(chain.from_iterable(triples))
        freq = self.frequency
        # packed, 8 bytes a triple rather than a list of int objects
        self.frequency_sums = array("q", [freq[s] + freq[r] + freq[t] for s, r, t in triples])
        # one stable sort: equal sums keep ascending ids
        order = np.argsort(-np.frombuffer(self.frequency_sums, dtype=np.int64), kind="stable")
        self.prior = array("q", bytes(8 * len(order)))
        np.frombuffer(self.prior, dtype=np.int64)[order] = np.arange(len(order))
        postings = defaultdict(list)
        for tid in order.tolist():
            # ids arrive in prior order; a phrase in two roles of one triple is listed once
            s, r, t = triples[tid]
            postings[s].append(tid)
            if r != s:
                postings[r].append(tid)
            if t != s and t != r:
                postings[t].append(tid)
        # phrase -> tuple of the ids of the triples that contain it, in prior
        # order; a plain dict, so that reading an unknown phrase cannot add it
        self.entry_index: Dict[str, Tuple[int, ...]] = {
            p: tuple(ids) for p, ids in postings.items()}
        self.entities: Set[str] = set(chain.from_iterable(map(itemgetter(0, 2), triples)))
        self.relations: Set[str] = set(map(itemgetter(1), triples))
        self._entry_set = frozenset(self.entry_index)

    def __len__(self) -> int:
        return len(self.triples)

    def entry_set(self) -> FrozenSet[str]:
        """S = E u R, every phrase of the graph: the keys of entry_index."""
        return self._entry_set

    def neighbors(self, *tids: int) -> KeysView[int]:
        """Ids of the triples outside tids that share a phrase with one of them.

        Ascending, as the keys of a dict, so that they also compare and
        combine as a set. One sort orders the phrases' postings.
        """
        index = self.entry_index
        phrases = {p for tid in tids for p in self.triples[tid]}
        out = dict.fromkeys(sorted(chain.from_iterable(map(index.__getitem__, phrases))))
        for tid in tids:
            out.pop(tid, None)
        return out.keys()


def build_graph(triples: Sequence[Triple]) -> KnowledgeGraph:
    return KnowledgeGraph(triples)


def save_kb(triples: Iterable[Triple], path: str) -> None:
    """One triple per line: subject<TAB>relation<TAB>target, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for t in triples:
            f.write(f"{t.subject}\t{t.relation}\t{t.target}\n")


def read_records(path: str, parse: Callable[[str], R]) -> Iterator[R]:
    """The one reader of the text formats: `parse` of each non-blank line.

    The file is read as UTF-8 and its lines are numbered from 1. Blank and
    whitespace-only lines are skipped; `parse` gets every other line with
    only its newline removed. Bytes that are not UTF-8, and a ValueError,
    KeyError, TypeError or RecursionError (JSON nested too deep) from
    `parse`, become one ValueError "<path>:<line>: ...".
    """
    # surrogateescape lets a bad byte through as a lone surrogate, so it is
    # reported on its own line, in line order, without reading ahead
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if line.isspace():
                continue
            try:
                if not line.isascii():
                    # raises UnicodeDecodeError at the line's first bad byte
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                record = parse(line.rstrip("\n"))
            except (ValueError, KeyError, TypeError, RecursionError) as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            yield record


def parse_triple(line: str) -> Triple:
    """One KB line: subject<TAB>relation<TAB>target."""
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected 3 tab-separated fields, got {len(fields)}")
    return Triple(*fields)


def load_kb(path: str) -> KnowledgeGraph:
    return build_graph(list(read_records(path, parse_triple)))


def read_question(record) -> List[str]:
    """The `question` of one JSONL record: a non-empty array of strings."""
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    question = record.get("question")
    if not (isinstance(question, list) and question
            and all(isinstance(t, str) for t in question)):
        raise ValueError("question must be a non-empty array of strings")
    return question


def read_answer(record) -> str:
    """The `answer` of one JSONL record: a non-empty string, or a number."""
    answer = record.get("answer")
    if isinstance(answer, bool) or not isinstance(answer, (str, int, float)) or answer == "":
        raise ValueError("answer must be a non-empty string or a number")
    return str(answer)


def _parse_qa_pair(line: str) -> Tuple[List[str], str]:
    record = json.loads(line.strip())
    return read_question(record), read_answer(record)


def load_qa_pairs(path: str) -> List[Tuple[List[str], str]]:
    """QA-pair extraction input: JSONL with `question` (token array) and `answer`."""
    return list(read_records(path, _parse_qa_pair))
