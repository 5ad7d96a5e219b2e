"""Key-value memory network over spotted knowledge triples.

Pipeline: mean-of-words question encoding t, query q = t * u against the
visual feature, three replicated memory blocks keyed by (s,r), (s,t), (r,t)
with the remaining element as value, softmax key addressing, weighted value
reading, one-step query update q' = q + o_sr + o_st + o_rt, linear answer
classifier. Backward is hand-derived and exact; the knowledge embedding Phi
stays frozen throughout.

The memory is one stacked core: Phi holds the slots' roles as one
(3, M, d_e) array (subject, relation, target), two constant block-by-role
incidence tables build every block's keys and values from it, and the
blocks' bilinear maps are one (3, d, d_j) stack "A" in BLOCKS order. A mode
runs its n blocks in one batched pass, so each gradient is taken once.

Ablation modes: full, bow (bag-of-words Phi), blind (visual feature
replaced by the question encoding everywhere), q_only (memory skipped),
no_replication (n = 1: only the (s,r)-keyed block, row 0 of the stack).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import reduce
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .embedding import EmbeddingTable, embed_entry
from .kb import KnowledgeGraph
from .kernel import (Array, cross_entropy_grad, cross_entropy_loss, masked_softmax, softmax,
                     tanh_map)
from .spotting import SlotAssignment

MODES = ("full", "bow", "blind", "q_only", "no_replication")
BLOCKS = ("sr", "st", "rt")
# block x role incidence over the roles (subject, relation, target): a block's
# key is the sum of its two key roles, its value the remaining role
KEY_ROLES = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
VALUE_ROLE = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
MATRIX_ORDER = ("word_table", "W_t", "W_e", "W_u", "A", "W_o")
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


def _matrix_shapes(dims: ModelDims, vocab_size: int) -> Dict[str, Tuple[int, ...]]:
    return {
        "word_table": (vocab_size, dims.d_w),
        "W_t": (dims.d, dims.d_w),
        "W_e": (dims.d_j, dims.d_e),
        "W_u": (dims.d_j, dims.d),
        "A": (len(BLOCKS), dims.d, dims.d_j),
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
    """Uniform +-sqrt(6/(rows+cols)) init over each matrix's last two dims,
    drawn in MATRIX_ORDER so a fixed seed pins every matrix."""
    rng = np.random.default_rng(seed)
    matrices = {}
    for name, shape in _matrix_shapes(dims, len(vocab)).items():
        bound = np.sqrt(6.0 / (shape[-2] + shape[-1]))
        matrices[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(dims=dims, vocab=list(vocab),
                       answer_vocab=list(answer_vocab), matrices=matrices)


# --- forward/backward ------------------------------------------------------------

def _mean_words(rows: Sequence, params: ModelParams) -> Tuple[Array, List[List[int]]]:
    """Each row's mean word vector as one (B, d_w) array, and its sorted known
    ids: the known word vectors added one at a time in id order, divided by
    the token count; a question that repeats is summed once."""
    words: Dict[Tuple[str, ...], Tuple[Array, List[int]]] = {}  # question -> mean, ids
    m_bar = np.empty((len(rows), params.dims.d_w))
    known_ids = []
    for b, row in enumerate(map(tuple, rows)):
        if not row:
            raise ValueError("question must have at least one token")
        if row not in words:
            # sorting the hit rows makes the sum independent of token order, bit for bit
            ids = sorted(params.token_index[tok] for tok in row if tok in params.token_index)
            total = np.zeros(params.dims.d_w)  # its own array: += on a view of m_bar is slower
            for tid in ids:
                total += params.matrices["word_table"][tid]
            words[row] = total / len(row), ids
        m_bar[b], ids = words[row]
        known_ids.append(ids)
    return m_bar, known_ids


def _outer_sum(x: Array, y: Array) -> Array:
    """The outer products x_i y_i^T summed over every leading index i, as a
    (k, l) array for x (..., k) and y of l entries per index: one BLAS
    product even for one row, where @ would loop over the entries in C."""
    rows = x.size // x.shape[-1]
    return np.dot(x.reshape(rows, -1).T, y.reshape(rows, -1))


def predict(q_prime: Array, W_o: Array) -> Tuple[int, Array]:
    probs = softmax(W_o @ q_prime)
    return int(np.argmax(probs)), probs


@dataclass
class SlotFeatures:
    """Frozen Phi vectors for the selected slots: phi[r, i] is slot i's
    subject, relation or target phrase for r = 0, 1, 2. A stack of B
    assignments puts a leading B axis on both fields."""

    phi: Array   # (3, M, d_e), or (B, 3, M, d_e)
    mask: Array  # (M,) bool, or (B, M)


def slot_features(slots: Union[SlotAssignment, Sequence[SlotAssignment]],
                  table: EmbeddingTable, graph: KnowledgeGraph) -> SlotFeatures:
    """Phi of one assignment, or of a sequence of B assignments of M slots
    each. Each distinct triple's three roles are embedded once per call,
    into its first slot, and copied to its other slots in one step; padding
    slots keep zero rows."""
    single = isinstance(slots, SlotAssignment)
    rows = [slots] if single else slots
    m = len(rows[0].slots) if rows else 0
    phi = np.zeros((len(rows), 3, m, table.dim))
    first: Dict[int, int] = {}  # triple id -> b * m + i of its first slot
    repeats = []                # (first slot, another slot) of a triple, as b * m + i
    for b, assignment in enumerate(rows):
        if len(assignment.slots) != m:
            raise ValueError("every assignment of a stack needs the same number of slots")
        for i, tid in enumerate(assignment.slots):
            if tid is None:
                continue
            if tid in first:
                repeats.append((first[tid], b * m + i))
                continue
            first[tid] = b * m + i
            subject, relation, target = graph.triples[tid]
            phi[b, :, i] = (embed_entry(subject, table),
                            embed_entry(relation, table, is_relation=True),
                            embed_entry(target, table))
    if repeats:
        b, i = np.divmod(np.array(repeats).T, m)  # row 0: first slots, row 1: the others
        phi[b[1], :, i[1]] = phi[b[0], :, i[0]]
    mask = np.array([a.mask for a in rows], dtype=bool).reshape(len(rows), m)
    return SlotFeatures(phi=phi[0], mask=mask[0]) if single else SlotFeatures(phi=phi, mask=mask)


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass. The shapes below are one
    row's; a call of B rows puts a leading B axis on every array, and its
    known_ids, n_tokens and live (each row's sorted known word ids, token
    count and whether it has a live slot) are lists of B and a (B,) array.
    The memory fields hold one row per block in `blocks`, or are None when
    no row reads the memory."""

    mode: str
    known_ids: Union[List[int], List[List[int]]]
    n_tokens: Union[int, List[int]]
    live: Array                   # () bool
    m_bar: Array
    t: Array
    u_eff: Array
    q: Array
    q_prime: Array
    logits: Array
    loss: Optional[float]
    blocks: Tuple[str, ...] = ()
    h_u: Optional[Array] = None   # (d_j,)
    phi: Optional[Array] = None   # (3, M, d_e) frozen role embeddings
    He: Optional[Array] = None    # (3, M, d_j) tanh(W_e phi)
    K: Optional[Array] = None     # (n, M, d_j) keys
    V: Optional[Array] = None     # (n, M, d_j) values
    a: Optional[Array] = None     # (n, d_j) A^T q
    p: Optional[Array] = None     # (n, M) attention
    w: Optional[Array] = None     # (n, d_j) V^T p
    o: Optional[Array] = None     # (n, d) A w


def forward(tokens: Sequence, visual_feature: Array, params: ModelParams,
            mode: str, features: Optional[SlotFeatures] = None,
            label: Optional[Union[int, Sequence[int], Array]] = None) -> ForwardTrace:
    """Run the whole pipeline on one row or B rows, keeping every intermediate.

    One row: tokens is one question, visual_feature one image (d,), features
    its slots' phi (3, M, d_e) and mask (M,). B rows, run by the same code:
    a question per row, images (B, d), features (B, 3, M, d_e) with mask
    (B, M) as slot_features gives them; rows may repeat a question or an
    image, and each equals the one-row call on it. None features, or a row
    with no live slot, leave that row's q' = q. Features must be d_e wide,
    live slot or not; q_only never touches them. label adds the loss: an int
    for one row; for B rows one label per row, and the loss is the sum of
    the rows' one-row losses.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    d = params.dims.d
    # blind never reads the image; a stack only sets how many rows there are
    u_eff = visual_feature if mode == "blind" else np.asarray(visual_feature, dtype=np.float64)
    shape = np.shape(u_eff)
    if len(shape) > 2 or (mode != "blind" and shape[-1:] != (d,)):
        raise ValueError(f"visual feature shape {shape}, want ({d},) or (B, {d})")
    lead = shape[:-1]
    # per-row lists (tokens in, ids and counts out) are bare on a one-row call
    rows, n_rows = (tokens, lead[0]) if lead else ([tokens], 1)
    if len(rows) != n_rows or any(isinstance(row, str) for row in rows):
        raise ValueError(f"a stack of {n_rows} images takes {n_rows} token lists, one per row")
    m_bar, known_ids = _mean_words(rows, params)
    m_bar = m_bar.reshape(*lead, -1)
    # Matrix-vector products are written W @ x[..., None]: on one row it is
    # the same BLAS call as W @ x, and on a stack it repeats that call per row.
    t = tanh_map((params.matrices["W_t"] @ m_bar[..., None])[..., 0])
    if mode == "blind":
        u_eff = q = t
    else:
        q = t * u_eff

    memory = {}
    q_prime = q
    live = np.zeros(lead, dtype=bool)
    if mode != "q_only" and features is not None:
        if features.phi.shape[-1] != params.dims.d_e:
            raise ValueError(f"slot features are {features.phi.shape[-1]} wide, "
                             f"the model's d_e is {params.dims.d_e}")
        if features.mask.shape[:-1] != lead:
            raise ValueError(f"slot features for {features.mask.shape[:-1]} rows, images {lead}")
        live = features.mask.any(axis=-1)
        n_live = np.count_nonzero(live)
        if n_live:  # some row has a live slot
            n = 1 if mode == "no_replication" else len(BLOCKS)
            A = params.matrices["A"][:n]
            h_u = tanh_map((params.matrices["W_u"] @ u_eff[..., None])[..., 0])
            He = tanh_map(features.phi @ params.matrices["W_e"].T)
            h = h_u[..., None, None, :]
            roles = He.reshape(*lead, 3, -1)
            kv_shape = (*lead, n, *He.shape[-2:])
            K = (KEY_ROLES[:n] @ roles).reshape(kv_shape)
            K *= h  # in place: a stack of rows holds no second copy of K or V
            V = (VALUE_ROLE[:n] @ roles).reshape(kv_shape)
            V *= h
            a = (q[..., None, None, :] @ A)[..., 0, :]
            # a row with no live slot reads every slot, then keeps q' = q; the
            # scores go block axis first, so each row's mask spans its blocks.
            # When every row is live, neither selection changes anything.
            every = n_live == live.size
            mask = features.mask if every else np.where(live[..., None], features.mask, True)
            p = masked_softmax((K @ a[..., None])[..., 0].swapaxes(0, -2), mask).swapaxes(0, -2)
            w = (p[..., None, :] @ V)[..., 0, :]
            o = (A @ w[..., None])[..., 0]
            # a live row's q' adds its blocks' reads to q, in BLOCKS order
            q_prime = reduce(np.add, o.swapaxes(0, -2), q)
            if not every:
                q_prime = np.where(live[..., None], q_prime, q)
            memory = dict(blocks=BLOCKS[:n], h_u=h_u, phi=features.phi, He=He,
                          K=K, V=V, a=a, p=p, w=w, o=o)

    logits = (params.matrices["W_o"] @ q_prime[..., None])[..., 0]
    loss = None
    if label is not None and not lead:
        loss = cross_entropy_loss(logits, label)
    elif label is not None:
        labels = np.asarray(label)
        if labels.shape != lead:
            raise ValueError(f"{labels.size} labels for {n_rows} rows: a stack takes one "
                             f"label per row, got labels of shape {labels.shape}")
        # each row's loss is the one-row call's, summed in row order
        loss = sum(map(cross_entropy_loss, logits, labels.tolist()))
    return ForwardTrace(mode=mode, known_ids=known_ids if lead else known_ids[0],
                        n_tokens=[len(row) for row in rows] if lead else len(tokens),
                        live=live, m_bar=m_bar, t=t, u_eff=u_eff, q=q, q_prime=q_prime,
                        logits=logits, loss=loss, **memory)


def backward(trace: ForwardTrace, label: Union[int, Sequence[int], Array],
             params: ModelParams) -> Dict[str, Array]:
    """Exact gradients of the cross-entropy loss for every trainable matrix,
    from any trace forward returns: label is an int for one row, or one
    index per row, and the gradients are summed over the rows.

    Phi is a constant. Each gradient is built once; matrices a mode never
    touches, and the rows of A past the blocks it runs, are exact zeros. A
    row with no live slot sends nothing through the memory.
    """
    lead = trace.logits.shape[:-1]
    dlogits = cross_entropy_grad(trace.logits, label)
    grads = {"W_o": _outer_sum(dlogits, trace.q_prime)}
    dq = dq_prime = dlogits @ params.matrices["W_o"]

    if trace.blocks:
        n = len(trace.blocks)
        A = params.matrices["A"][:n]
        # reading path: o = A (V^T p), and every live row's o adds into q'
        dq_read = dq_prime
        if np.count_nonzero(trace.live) < trace.live.size:
            dq_read = np.where(trace.live[..., None], dq_prime, 0.0)
        dw = (dq_read[..., None, None, :] @ A)[..., 0, :]
        dp = (trace.V @ dw[..., None])[..., 0]
        dV = trace.p[..., None] * dw[..., None, :]
        # addressing path: p = softmax(z), z = K (A^T q); masked slots have
        # p_i = 0 so their dz vanishes identically
        dz = trace.p * (dp - (trace.p * dp).sum(axis=-1, keepdims=True))
        da = (dz[..., None, :] @ trace.K)[..., 0, :]
        dK = dz[..., None] * trace.a[..., None, :]
        grads["A"] = np.zeros(params.matrices["A"].shape)  # rows past the blocks run stay 0
        grads["A"][:n] = (_outer_sum(dq_read, trace.w) + _outer_sum(trace.q, da)).reshape(
            -1, n, trace.w.shape[-1]).swapaxes(0, 1)
        dq = dq_prime + (A @ da[..., None])[..., 0].sum(axis=-2)
        # K = KEY_ROLES Psi, V = VALUE_ROLE Psi with Psi = He h_u per role:
        # sum each role's gradient over the blocks that read it
        dPsi = ((KEY_ROLES[:n].T @ dK.reshape(*lead, n, -1))
                + (VALUE_ROLE[:n].T @ dV.reshape(*lead, n, -1))).reshape(trace.He.shape)
        dh_u = (dPsi * trace.He).sum(axis=(-3, -2))
        dpre = dPsi * trace.h_u[..., None, None, :] * (1.0 - trace.He * trace.He)
        grads["W_e"] = _outer_sum(dpre, trace.phi)
        da_u = dh_u * (1.0 - trace.h_u * trace.h_u)
        grads["W_u"] = _outer_sum(da_u, trace.u_eff)
        if trace.mode == "blind":  # u_eff = t: the image path feeds the encoder too
            dq = dq + da_u @ params.matrices["W_u"]

    # q = t * u, the visual feature an input; blind's q is t itself
    dt = dq if trace.mode == "blind" else dq * trace.u_eff

    dz_t = dt * (1.0 - trace.t * trace.t)
    grads["W_t"] = _outer_sum(dz_t, trace.m_bar)
    # each row's word gradient, divided by that row's token count
    per_token = ((dz_t @ params.matrices["W_t"]).T / trace.n_tokens).T.reshape(-1, params.dims.d_w)
    grads["word_table"] = wt_grad = np.zeros(params.matrices["word_table"].shape)
    for ids, row in zip(trace.known_ids if lead else [trace.known_ids], per_token):
        for tid in ids:
            wt_grad[tid] += row
    return {name: grads[name] if name in grads else np.zeros(params.matrices[name].shape)
            for name in MATRIX_ORDER}


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
    try:
        dims = ModelDims(d=d, d_j=d_j, d_e=d_e, d_w=d_w, m_slots=m_slots, k_answers=k_answers)
    except ValueError as e:
        raise ValueError(f"{path}: bad header at byte 8: {e}") from None
    matrices = {}
    for name, shape in _matrix_shapes(dims, vocab_size).items():
        end = off + 8 * math.prod(shape)
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
            try:
                out.append(data[off:off + n].decode("utf-8"))
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: string at byte {off} is not UTF-8: {e.reason}") from None
            off += n
        return out

    vocab = read_strings(vocab_size)
    answer_vocab = read_strings(k_answers)
    if off != len(data):
        raise ValueError(f"{path}: {len(data) - off} trailing bytes")
    return ModelParams(dims=dims, vocab=vocab, answer_vocab=answer_vocab,
                       matrices=matrices)
