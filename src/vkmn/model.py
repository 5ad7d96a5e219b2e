"""Key-value memory network over spotted knowledge triples.

Pipeline: mean-of-words question encoding t, query q = t * u against the
visual feature, three replicated memory blocks keyed by (s,r), (s,t), (r,t)
with the remaining element as value, softmax key addressing, weighted value
reading, one-step query update q' = q + o, linear answer classifier.
Backward is hand-derived and exact; the knowledge embedding Phi stays
frozen throughout.

Ablation modes: full, bow (bag-of-words Phi), blind (visual feature
replaced by the question encoding everywhere), q_only (memory skipped),
no_replication (single (s,r)-keyed block).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .embedding import EmbeddingTable, embed_entry
from .kb import KnowledgeGraph
from .kernel import (Array, cross_entropy_loss, hadamard, masked_softmax,
                     softmax, tanh_map)
from .spotting import SlotAssignment

MODES = ("full", "bow", "blind", "q_only", "no_replication")
# block name -> (key part 1, key part 2, value part) over (subject, relation, target)
BLOCK_LAYOUT = {
    "sr": ("subject", "relation", "target"),
    "st": ("subject", "target", "relation"),
    "rt": ("relation", "target", "subject"),
}
MATRIX_ORDER = ("word_table", "W_t", "W_e", "W_u", "A_sr", "A_st", "A_rt", "W_o")
CHECKPOINT_MAGIC = b"VKMN0001"


@dataclass
class ModelDims:
    d: int = 64        # query/visual dim
    d_j: int = 64      # joint embedding dim
    d_e: int = 32      # knowledge embedding dim
    d_w: int = 32      # word vector dim
    m_slots: int = 8
    k_answers: int = 50

    def __post_init__(self):
        for name in ("d", "d_j", "d_e", "d_w", "m_slots", "k_answers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def _matrix_shapes(dims: ModelDims, vocab_size: int) -> Dict[str, Tuple[int, int]]:
    return {
        "word_table": (vocab_size, dims.d_w),
        "W_t": (dims.d, dims.d_w),
        "W_e": (dims.d_j, dims.d_e),
        "W_u": (dims.d_j, dims.d),
        "A_sr": (dims.d, dims.d_j),
        "A_st": (dims.d, dims.d_j),
        "A_rt": (dims.d, dims.d_j),
        "W_o": (dims.k_answers, dims.d),
    }


@dataclass
class ModelParams:
    dims: ModelDims
    vocab: List[str]
    answer_vocab: List[str]
    matrices: Dict[str, Array]
    token_index: Dict[str, int] = field(init=False)

    def __post_init__(self):
        if len(self.answer_vocab) != self.dims.k_answers:
            raise ValueError("answer vocab size does not match k_answers")
        shapes = _matrix_shapes(self.dims, len(self.vocab))
        for name, shape in shapes.items():
            if name not in self.matrices:
                raise ValueError(f"missing matrix {name}")
            if self.matrices[name].shape != shape:
                raise ValueError(f"{name}: shape {self.matrices[name].shape}, want {shape}")
        self.token_index = {w: i for i, w in enumerate(self.vocab)}


def init_params(vocab: Sequence[str], answer_vocab: Sequence[str],
                dims: ModelDims, seed: int = 0) -> ModelParams:
    """Uniform +-sqrt(6/(rows+cols)) init, drawn in MATRIX_ORDER so a fixed
    seed pins every matrix."""
    rng = np.random.default_rng(seed)
    matrices = {}
    for name, shape in _matrix_shapes(dims, len(vocab)).items():
        bound = np.sqrt(6.0 / (shape[0] + shape[1]))
        matrices[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(dims=dims, vocab=list(vocab),
                       answer_vocab=list(answer_vocab), matrices=matrices)


# --- forward/backward ------------------------------------------------------------

def _encode(tokens: Sequence[str], params: ModelParams):
    if not tokens:
        raise ValueError("question must have at least one token")
    # sorting the hit rows makes the sum independent of token order, bit for bit
    known_ids = sorted(params.token_index[tok] for tok in tokens
                       if tok in params.token_index)
    wt = params.matrices["word_table"]
    m_bar = np.zeros(params.dims.d_w, dtype=np.float64)
    for tid in known_ids:
        m_bar += wt[tid]
    m_bar /= len(tokens)
    t = tanh_map(params.matrices["W_t"] @ m_bar)
    return t, m_bar, known_ids, len(tokens)


def predict(q_prime: Array, W_o: Array) -> Tuple[int, Array]:
    probs = softmax(W_o @ q_prime)
    return int(np.argmax(probs)), probs


@dataclass
class SlotFeatures:
    """Frozen Phi vectors for the selected slots, one row per slot."""

    subject: Array   # (M, d_e)
    relation: Array  # (M, d_e)
    target: Array    # (M, d_e)
    mask: Array      # (M,) bool


def slot_features(slots: SlotAssignment, table: EmbeddingTable,
                  graph: KnowledgeGraph) -> SlotFeatures:
    m = len(slots.slots)
    subj = np.zeros((m, table.dim))
    rel = np.zeros((m, table.dim))
    targ = np.zeros((m, table.dim))
    for i, tid in enumerate(slots.slots):
        if tid is None:
            continue
        triple = graph.triples[tid]
        subj[i] = embed_entry(triple.subject, table)
        rel[i] = embed_entry(triple.relation, table, is_relation=True)
        targ[i] = embed_entry(triple.target, table)
    return SlotFeatures(subject=subj, relation=rel, target=targ,
                        mask=np.array(slots.mask, dtype=bool))


@dataclass
class BlockTrace:
    kind: str
    param: str
    F1: Array
    F2: Array
    F3: Array
    He1: Array
    He2: Array
    He3: Array
    G: Array
    K: Array
    V: Array
    a: Array
    z: Array
    p: Array
    w: Array
    o: Array


@dataclass
class ForwardTrace:
    mode: str
    known_ids: List[int]
    n_tokens: int
    m_bar: Array
    t: Array
    u_eff: Array
    q: Array
    h_u: Optional[Array]
    blocks: List[BlockTrace]
    q_prime: Array
    logits: Array
    loss: Optional[float]


def forward(tokens: Sequence[str], visual_feature: Array, params: ModelParams,
            mode: str, features: Optional[SlotFeatures] = None,
            label: Optional[int] = None) -> ForwardTrace:
    """Run the whole pipeline for one example, keeping every intermediate.

    features carries the precomputed Phi rows for the chosen slots; None (or
    an all-masked assignment) means the memory contributes nothing. q_only
    ignores features entirely and never touches them.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    t, m_bar, known_ids, n_tokens = _encode(tokens, params)
    if mode == "blind":
        u_eff = t
        q = t
    else:
        u = np.asarray(visual_feature, dtype=np.float64)
        if u.shape != (params.dims.d,):
            raise ValueError(f"visual feature shape {u.shape}, want ({params.dims.d},)")
        u_eff = u
        q = hadamard(t, u)

    blocks: List[BlockTrace] = []
    h_u = None
    use_memory = (mode != "q_only" and features is not None and bool(features.mask.any()))
    if use_memory:
        h_u = tanh_map(params.matrices["W_u"] @ u_eff)
        He = {role: tanh_map(getattr(features, role) @ params.matrices["W_e"].T)
              for role in ("subject", "relation", "target")}
        kinds = ("sr",) if mode == "no_replication" else ("sr", "st", "rt")
        for kind in kinds:
            k1, k2, val = BLOCK_LAYOUT[kind]
            A = params.matrices[f"A_{kind}"]
            G = He[k1] + He[k2]
            K = G * h_u
            V = He[val] * h_u
            a = A.T @ q
            z = K @ a
            p = masked_softmax(z, features.mask)
            w = V.T @ p
            o = A @ w
            blocks.append(BlockTrace(kind=kind, param=f"A_{kind}",
                                     F1=getattr(features, k1),
                                     F2=getattr(features, k2),
                                     F3=getattr(features, val),
                                     He1=He[k1], He2=He[k2], He3=He[val],
                                     G=G, K=K, V=V, a=a, z=z, p=p, w=w, o=o))

    q_prime = q
    for blk in blocks:
        q_prime = q_prime + blk.o
    logits = params.matrices["W_o"] @ q_prime
    loss = cross_entropy_loss(logits, label) if label is not None else None
    return ForwardTrace(mode=mode, known_ids=known_ids, n_tokens=n_tokens,
                        m_bar=m_bar, t=t, u_eff=u_eff, q=q, h_u=h_u,
                        blocks=blocks, q_prime=q_prime, logits=logits, loss=loss)


def backward(trace: ForwardTrace, label: int, params: ModelParams) -> Dict[str, Array]:
    """Exact gradients of the cross-entropy loss for every trainable matrix.

    Phi rows (F1..F3) are constants. Matrices a mode never touches come back
    as exact zeros.
    """
    grads = {name: np.zeros_like(mat) for name, mat in params.matrices.items()}
    probs = softmax(trace.logits)
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    grads["W_o"] += np.outer(dlogits, trace.q_prime)
    dq_prime = params.matrices["W_o"].T @ dlogits

    dq = dq_prime.copy()
    dh_u = np.zeros_like(trace.h_u) if trace.h_u is not None else None
    for blk in trace.blocks:
        A = params.matrices[blk.param]
        do = dq_prime
        # reading path: o = A (V^T p)
        dw = A.T @ do
        grads[blk.param] += np.outer(do, blk.w)
        dp = blk.V @ dw
        dV = np.outer(blk.p, dw)
        # addressing path: p = softmax(z), z = K (A^T q); masked rows have
        # p_i = 0 so their dz vanishes identically
        dz = blk.p * (dp - float(blk.p @ dp))
        da = blk.K.T @ dz
        dK = np.outer(dz, blk.a)
        grads[blk.param] += np.outer(trace.q, da)
        dq += A @ da
        # key/value construction: K = (He1+He2) h_u, V = He3 h_u
        dG = dK * trace.h_u
        dHe3 = dV * trace.h_u
        dh_u += (dK * blk.G).sum(axis=0) + (dV * blk.He3).sum(axis=0)
        for He, F, dHe in ((blk.He1, blk.F1, dG), (blk.He2, blk.F2, dG),
                           (blk.He3, blk.F3, dHe3)):
            grads["W_e"] += (dHe * (1.0 - He * He)).T @ F

    du_eff = None
    if dh_u is not None:
        da_u = dh_u * (1.0 - trace.h_u * trace.h_u)
        grads["W_u"] += np.outer(da_u, trace.u_eff)
        du_eff = params.matrices["W_u"].T @ da_u

    if trace.mode == "blind":
        # q = t and u_eff = t: both paths feed the encoder
        dt = dq if du_eff is None else dq + du_eff
    else:
        dt = dq * trace.u_eff  # q = t * u; the visual feature is an input

    dz_t = dt * (1.0 - trace.t * trace.t)
    grads["W_t"] += np.outer(dz_t, trace.m_bar)
    dm_bar = params.matrices["W_t"].T @ dz_t
    per_token = dm_bar / trace.n_tokens
    wt_grad = grads["word_table"]
    for tid in trace.known_ids:
        wt_grad[tid] += per_token
    return grads


# --- checkpointing -------------------------------------------------------------

def save_checkpoint(params: ModelParams, path: str) -> None:
    """Binary layout: magic, six u32 dims (d, d_j, d_e, d_w, M, K), u32 word
    vocab size, the matrices row-major little-endian f64 in MATRIX_ORDER,
    then word strings and answer strings as u32-length-prefixed UTF-8."""
    dims = params.dims
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<7I", dims.d, dims.d_j, dims.d_e, dims.d_w,
                            dims.m_slots, dims.k_answers, len(params.vocab)))
        for name in MATRIX_ORDER:
            f.write(np.ascontiguousarray(params.matrices[name], dtype="<f8").tobytes())
        for s in list(params.vocab) + list(params.answer_vocab):
            raw = s.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic, not a model checkpoint")
    off = 8
    header = struct.calcsize("<7I")
    if len(data) < off + header:
        raise ValueError(f"{path}: truncated header, {len(data) - off} of its "
                         f"{header} bytes after the magic")
    d, d_j, d_e, d_w, m_slots, k_answers, vocab_size = struct.unpack_from("<7I", data, off)
    off += header
    dims = ModelDims(d=d, d_j=d_j, d_e=d_e, d_w=d_w, m_slots=m_slots, k_answers=k_answers)
    matrices = {}
    for name, shape in _matrix_shapes(dims, vocab_size).items():
        n = shape[0] * shape[1]
        end = off + 8 * n
        if end > len(data):
            raise ValueError(f"{path}: truncated matrix section at {name}")
        matrices[name] = np.frombuffer(data[off:end], dtype="<f8").reshape(shape).copy()
        off = end

    def read_strings(count: int):
        nonlocal off
        out = []
        for _ in range(count):
            if off + 4 > len(data):
                raise ValueError(f"{path}: truncated string section at byte {off}")
            (n,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + n > len(data):
                raise ValueError(f"{path}: truncated string at byte {off}, "
                                 f"{n} bytes declared, {len(data) - off} left")
            out.append(data[off:off + n].decode("utf-8"))
            off += n
        return out

    vocab = read_strings(vocab_size)
    answer_vocab = read_strings(k_answers)
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes")
    return ModelParams(dims=dims, vocab=vocab, answer_vocab=answer_vocab,
                       matrices=matrices)
