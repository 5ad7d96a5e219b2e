"""Spans and call counts around the program's public functions.

`install` replaces each function listed in TARGETS, in every vkmn module
that holds a reference to it, by a wrapper that records a span: name, start,
end, the span that caused it, and the operation it belongs to. Functions in
COUNTED are too small to time one call at a time; their wrapper only counts.
The returned function puts every original back. Nothing in src/ changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass(slots=True)
class Span:
    id: int
    parent: int        # id of the enclosing span, -1 at the top
    name: str          # "<module>.<function>"
    start: float
    end: float
    op: str            # operation: "<stage>:<round>:<repetition or question>"
    info: Optional[Dict[str, Any]] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _note_spot_question(args, kwargs, result):
    return {"question": " ".join(args[0])}


def _note_expand(args, kwargs, result):
    return {"expanded": len(result.expanded)}


def _note_select(args, kwargs, result):
    return {"filled": result.n_real, "candidates": len(args[0].expanded)}


def _note_forward(args, kwargs, result):
    return {"mode": args[3]}


def _note_train(args, kwargs, result):
    config = args[3]
    return {"mode": config.mode, "epochs": config.epochs}


def _note_transe(args, kwargs, result):
    return {"epochs": args[1].epochs}


def _note_sgd(args, kwargs, result):
    return {"floats": sum(int(p.size) for p in args[0].values())}


# (module, function, note): the note reads sizes off the arguments and result
TARGETS: List[Tuple[str, str, Optional[Callable]]] = [
    ("kb", "load_kb", None),
    ("kb", "build_graph", None),
    ("spotting", "match_entries", None),
    ("spotting", "spot_triples", None),
    ("spotting", "expand_neighborhood", _note_expand),
    ("spotting", "select_slots", _note_select),
    ("spotting", "spot_question", _note_spot_question),
    ("embedding", "train_transe", _note_transe),
    ("embedding", "rank_tail", None),
    ("embedding", "load_embeddings", None),
    ("model", "slot_features", None),
    ("model", "forward", _note_forward),
    ("model", "backward", None),
    ("model", "load_checkpoint", None),
    ("kernel", "sgd_step", _note_sgd),
    ("training", "train", _note_train),
    ("training", "evaluate", None),
]
COUNTED = [("embedding", "embed_entry")]
METHODS = [("kb", "KnowledgeGraph", "entry_set")]


class Tracer:
    """Spans kept in memory for the whole run; single-threaded use only."""

    def __init__(self):
        self.spans: List[Span] = []
        self.calls: Counter = Counter()
        self.op = ""
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = Span(sid, stack[-1] if stack else -1, name, 0.0, 0.0, self.op)
            spans.append(span)
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                try:
                    span.info = note(args, kwargs, result)
                except (IndexError, AttributeError, KeyError, TypeError):
                    span.info = None   # called with another signature
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> Callable[[], None]:
        """Wrap every target everywhere it is referenced; return the undo."""
        import importlib

        modules = [importlib.import_module(m) for m in (
            "vkmn", "vkmn.kb", "vkmn.spotting", "vkmn.embedding", "vkmn.model",
            "vkmn.kernel", "vkmn.training", "vkmn.cli")]
        patched: List[Tuple[Any, str, Any]] = []

        def replace_everywhere(orig, wrapped):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        patched.append((mod, attr, orig))

        for layer, name, note in TARGETS:
            orig = getattr(importlib.import_module(f"vkmn.{layer}"), name)
            replace_everywhere(orig, self.span(f"{layer}.{name}", orig, note))
        for layer, name in COUNTED:
            orig = getattr(importlib.import_module(f"vkmn.{layer}"), name)
            replace_everywhere(orig, self.counted(f"{layer}.{name}", orig))
        for layer, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(f"vkmn.{layer}"), cls_name)
            orig = vars(cls)[name]
            setattr(cls, name, self.span(f"{layer}.{name}", orig))
            patched.append((cls, name, orig))

        def uninstall():
            for obj, attr, orig in reversed(patched):
                setattr(obj, attr, orig)

        return uninstall

    # --- reading the spans back ------------------------------------------------

    def select(self, name: str, op_prefix: str = "") -> List[Span]:
        return [s for s in self.spans if s.name == name and s.op.startswith(op_prefix)]

    def children(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent].append(s)
        return out

    def write(self, path: str, spans: List[Span]) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for s in spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")
