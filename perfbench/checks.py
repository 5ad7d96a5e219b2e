"""Correctness checks of the benchmark, each against an oracle of its own.

No check compares with a stored copy of an earlier output. Each one either
recomputes the result another way (a brute-force retrieval scan, central
finite differences, a vectorised ranking) or tests a property the method
must have (unit entity norms, a falling loss). A failing check raises
CheckFailed; `selftest.py` feeds each check a deliberately wrong output.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

MAX_NGRAM = 4          # longest KB phrase the documented matcher scans for
FD_EPS = 1e-5          # central-difference step
FD_TOL = 1e-4          # max relative error between backward and differences
FD_FLOOR = 1e-6        # |grad| below which an entry counts as zero
FD_ZERO_TOL = 1e-9     # how far from 0 the difference of a zero entry may be
NORM_TOL = 1e-9        # TransE entity norms stay within 1 +- NORM_TOL
RANK_TIE_TOL = 1e-12   # scores this close count as a tie
MIN_ACC_REF = 0.95     # README: >= 95% training accuracy on the synthetic task

Triple = Tuple[str, str, str]


class CheckFailed(AssertionError):
    """An output of the program failed a correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- retrieval ----------------------------------------------------------------

class BruteForceRetrieval:
    """The documented retrieval rules, applied by scanning every triple.

    Greedy longest n-gram matching (n <= 4) against all KB phrases; core =
    triples whose fields cover >= 2 distinct matched phrases; one hop = every
    other triple sharing a phrase with a core triple; rank by coverage desc,
    phrase-frequency sum desc, triple id; keep m slots, pad with None.
    """

    def __init__(self, triples: Sequence[Triple]):
        self.triples = list(triples)
        self.phrases = {p for t in self.triples for p in t}
        freq = Counter(p for t in self.triples for p in t)
        self.freq_sum = [sum(freq[p] for p in t) for t in self.triples]

    def match(self, tokens: Sequence[str]) -> set:
        matched, i = set(), 0
        while i < len(tokens):
            for n in range(min(MAX_NGRAM, len(tokens) - i), 0, -1):
                phrase = " ".join(tokens[i:i + n])
                if phrase in self.phrases:
                    matched.add(phrase)
                    i += n
                    break
            else:
                i += 1
        return matched

    def slots(self, tokens: Sequence[str], m: int) -> List[Optional[int]]:
        matched = self.match(tokens)
        cover = [len(set(t) & matched) for t in self.triples]
        core = [i for i, c in enumerate(cover) if c >= 2]
        core_phrases = {p for i in core for p in self.triples[i]}
        core_set = set(core)
        hop = [i for i, t in enumerate(self.triples)
               if i not in core_set and core_phrases.intersection(t)]
        ranked = sorted(core + hop, key=lambda i: (-cover[i], -self.freq_sum[i], i))
        chosen: List[Optional[int]] = ranked[:m]
        return chosen + [None] * (m - len(chosen))


def check_spotting(got: Sequence[Optional[int]], want: Sequence[Optional[int]],
                   question: Sequence[str]) -> None:
    require(list(got) == list(want),
            f"spot_question({' '.join(question)!r}) gave slots {list(got)}, "
            f"the brute-force scan gives {list(want)}")


def check_gold_in_memory(slots: Sequence[Optional[int]], gold: int,
                         question: Sequence[str]) -> None:
    require(gold in slots,
            f"gold triple {gold} of {' '.join(question)!r} is not in memory {list(slots)}")


# --- gradients ------------------------------------------------------------------

def check_gradients(loss: Callable[[], float], matrices: Dict[str, np.ndarray],
                    grads: Dict[str, np.ndarray], rng: np.random.Generator,
                    per_matrix: int = 6) -> None:
    """Central differences of `loss` at sampled entries against `grads`.

    Samples up to per_matrix entries with |grad| >= FD_FLOOR and two with a
    smaller gradient from each matrix.
    """
    for name, mat in matrices.items():
        g = grads[name].reshape(-1)
        flat = mat.reshape(-1)
        big = np.flatnonzero(np.abs(g) >= FD_FLOOR)
        small = np.flatnonzero(np.abs(g) < FD_FLOOR)
        picks = [(i, True) for i in rng.permutation(big)[:per_matrix]]
        picks += [(i, False) for i in rng.permutation(small)[:2]]
        for i, is_big in picks:
            orig = flat[i]
            flat[i] = orig + FD_EPS
            hi = loss()
            flat[i] = orig - FD_EPS
            lo = loss()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * FD_EPS)
            if is_big:
                err = abs(g[i] - numeric) / max(1e-8, abs(g[i]) + abs(numeric))
                require(err <= FD_TOL,
                        f"{name}[{i}]: backward {g[i]:.9g}, differences {numeric:.9g} "
                        f"(relative error {err:.2e} > {FD_TOL:.0e})")
            else:
                require(abs(numeric - g[i]) <= FD_ZERO_TOL + FD_TOL * abs(g[i]),
                        f"{name}[{i}]: backward {g[i]:.3g}, differences {numeric:.3g}")


# --- knowledge embeddings -------------------------------------------------------------

def check_unit_norms(entity_vectors: Dict[str, np.ndarray]) -> None:
    norms = np.linalg.norm(np.stack(list(entity_vectors.values())), axis=1)
    worst = float(np.max(np.abs(norms - 1.0)))
    require(worst <= NORM_TOL, f"TransE entity norm off 1 by {worst:.3e} > {NORM_TOL:.0e}")


class VectorRanker:
    """Filtered tail ranks by scoring every entity at once.

    Score -||s + r - e||, sorted by score desc then name asc. `bounds` gives
    the range of 1-based ranks the true tail may take when scores within
    RANK_TIE_TOL count as ties.
    """

    def __init__(self, triples: Sequence[Triple], entity_vectors: Dict[str, np.ndarray],
                 relation_vectors: Dict[str, np.ndarray]):
        self.names = sorted({p for s, _, t in triples for p in (s, t)})
        self.row = {n: i for i, n in enumerate(self.names)}
        self.E = np.stack([entity_vectors[n] for n in self.names])
        self.R = relation_vectors
        self.tails: Dict[Tuple[str, str], set] = {}
        for s, r, t in triples:
            self.tails.setdefault((s, r), set()).add(t)

    def bounds(self, s: str, r: str, t: str) -> Tuple[int, int]:
        scores = -np.linalg.norm(self.E[self.row[s]] + self.R[r] - self.E, axis=1)
        keep = np.ones(len(self.names), dtype=bool)
        for other in self.tails.get((s, r), ()):
            if other != t:
                keep[self.row[other]] = False
        keep[self.row[t]] = False
        true = scores[self.row[t]]
        others = scores[keep]
        # candidates scoring within rounding of the true tail may sit either
        # side of it, whatever their names
        lo = 1 + int(np.sum(others > true + RANK_TIE_TOL))
        hi = 1 + int(np.sum(others >= true - RANK_TIE_TOL))
        return lo, hi

    def mean_rank(self, triples: Iterable[Triple]) -> float:
        return float(np.mean([self.bounds(s, r, t)[0] for s, r, t in triples]))


def check_tail_rank(got: int, bounds: Tuple[int, int], triple: Triple) -> None:
    lo, hi = bounds
    require(lo <= got <= hi,
            f"rank_tail{triple} = {got}, the vectorised ranking allows {lo}..{hi}")


def check_rank_improves(trained: float, untrained: float) -> None:
    require(trained < untrained,
            f"mean filtered tail rank {trained:.2f} does not beat the epochs-0 "
            f"table's {untrained:.2f}")


# --- training and evaluation --------------------------------------------------------

def check_loss_falls(curve: Sequence[float]) -> None:
    require(len(curve) >= 2 and curve[-1] < curve[0],
            f"training loss did not fall: first {curve[0]:.6g}, last {curve[-1]:.6g}")


def check_ref_accuracy(acc: float) -> None:
    require(acc >= MIN_ACC_REF,
            f"ref full-mode training accuracy {acc:.4f} < {MIN_ACC_REF}")


def check_eval_matches_query(report_correct: int, query_correct: int, n: int) -> None:
    require(report_correct == query_correct,
            f"evaluate counts {report_correct}/{n} correct, the query path "
            f"answers {query_correct}/{n} with the gold answer")


def check_cli_eval(cli_correct: Optional[Dict[str, int]], library_correct: Dict[str, int]) -> None:
    require(cli_correct == library_correct,
            f"`vkmn eval` counts {cli_correct} correct, evaluate counts {library_correct}")


def check_cli_answers(cli_answers: Optional[List[str]], library_answers: List[str]) -> None:
    require(cli_answers == library_answers,
            f"`vkmn query` answered {cli_answers}, the query path {library_answers}")


def check_same_predictions(before: Sequence[Tuple[str, np.ndarray]],
                           after: Sequence[Tuple[str, np.ndarray]]) -> None:
    require(len(before) == len(after), "round trip changed the number of predictions")
    for i, ((a0, z0), (a1, z1)) in enumerate(zip(before, after)):
        require(a0 == a1 and np.array_equal(z0, z1),
                f"prediction {i} changed across the file round trip: answer {a0!r} -> "
                f"{a1!r}, logits equal: {np.array_equal(z0, z1)}")
