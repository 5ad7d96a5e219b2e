"""Memory network core: encoder, blocks, forward/backward, checkpoints."""

import hashlib
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmn.embedding import EmbeddingTable, embed_entry, make_bow_table
from vkmn import model
from vkmn.kb import Triple, build_graph
from vkmn.kernel import (cross_entropy_loss, finite_diff_grad, masked_softmax,
                         max_relative_error, softmax, tanh_map)
from vkmn.model import (
    BLOCKS,
    KEY_ROLES,
    MATRIX_ORDER,
    MODES,
    VALUE_ROLE,
    ModelDims,
    ModelParams,
    SlotFeatures,
    backward,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    slot_features,
)
from vkmn.spotting import SlotAssignment

DIMS = ModelDims(d=6, d_j=5, d_e=4, d_w=3, m_slots=3, k_answers=2)
VOCAB = ["alpha", "beta", "gamma", "near"]
ANSWERS = ["yes", "no"]


def _params(seed=0, dims=DIMS):
    return init_params(VOCAB, ANSWERS, dims, seed=seed)


def _setting():
    graph = build_graph(
        [
            Triple("alpha", "near", "beta"),
            Triple("beta", "above", "gamma"),
            Triple("gamma", "near", "alpha"),
        ]
    )
    table = make_bow_table(graph, dim=DIMS.d_e, seed=1)
    slots = SlotAssignment(slots=[0, 1, None])
    return graph, table, slots


# ---------------------------------------------------------------- dims / init

def test_dims_validation():
    with pytest.raises(ValueError):
        ModelDims(d=0, d_j=5, d_e=4, d_w=3, m_slots=3, k_answers=2)
    with pytest.raises(ValueError):
        ModelDims(d=6, d_j=5, d_e=4, d_w=3, m_slots=0, k_answers=2)


def test_init_params_deterministic_and_bounded():
    p1, p2 = _params(3), _params(3)
    for name in MATRIX_ORDER:
        assert np.array_equal(p1.matrices[name], p2.matrices[name])
        r, c = p1.matrices[name].shape[-2:]
        assert np.max(np.abs(p1.matrices[name])) <= math.sqrt(6.0 / (r + c))
    p3 = _params(4)
    assert not np.array_equal(p1.matrices["W_o"], p3.matrices["W_o"])


def test_params_shape_validation():
    p = _params()
    bad = {k: v.copy() for k, v in p.matrices.items()}
    bad["W_t"] = np.zeros((1, 1))
    with pytest.raises(ValueError):
        ModelParams(dims=DIMS, vocab=VOCAB, answer_vocab=ANSWERS, matrices=bad)


# ---------------------------------------------------------------- encoder

def _t(tokens, p):
    """Question encoding t, read off the trace of a memoryless forward pass."""
    return forward(tokens, np.ones(DIMS.d), p, "q_only").t


def test_encode_rejects_empty():
    with pytest.raises(ValueError):
        forward([], np.ones(DIMS.d), _params(), "q_only")


def test_encode_all_unknown_gives_zero():
    t = _t(["zzz", "qqq"], _params())
    assert np.array_equal(t, np.zeros(DIMS.d))  # tanh(W 0) == 0 exactly


def test_encode_unknown_tokens_count_in_denominator():
    p = _params()
    t_half = _t(["alpha", "zzz"], p)
    row = p.matrices["word_table"][p.token_index["alpha"]]
    want = np.tanh(p.matrices["W_t"] @ (row / 2.0))
    assert np.max(np.abs(t_half - want)) < 1e-15


@given(st.permutations(["alpha", "beta", "gamma", "near", "zzz"]))
@settings(max_examples=50, deadline=None)
def test_encode_permutation_invariant_bitwise(perm):
    p = _params()
    base = _t(["alpha", "beta", "gamma", "near", "zzz"], p)
    assert np.array_equal(_t(list(perm), p), base)


def test_build_query_oracle():
    u = np.linspace(-1.0, 1.0, DIMS.d)
    tr = forward(["alpha", "near"], u, _params(), "q_only")
    assert tr.q.tobytes() == (tr.t * u).tobytes()


# ---------------------------------------------------------------- blocks

def _psi(phrase, u, p, table, is_relation=False):
    """Psi(e, u) = tanh(W_e Phi(e)) * tanh(W_u u), computed by hand."""
    phi = embed_entry(phrase, table, is_relation=is_relation)
    return np.tanh(p.matrices["W_e"] @ phi) * np.tanh(p.matrices["W_u"] @ u)


def test_joint_embed_matches_manual():
    graph, table, slots = _setting()
    p = _params()
    u = np.linspace(-1.0, 1.0, DIMS.d)
    tr = forward(["alpha"], u, p, "full", _features(graph, table, slots))
    # the sr block's value row 0 is Psi of triple 0's target "beta"
    assert tr.blocks[0] == "sr"
    assert np.max(np.abs(tr.V[0, 0] - _psi("beta", u, p, table))) < 1e-15


def test_build_memory_layouts():
    graph, table, slots = _setting()
    p = _params()
    u = np.linspace(-0.5, 0.5, DIMS.d)
    psi = {role: _psi(phrase, u, p, table, is_relation=(role == "relation"))
           for role, phrase in (("subject", "alpha"), ("relation", "near"),
                                ("target", "beta"))}
    tr = forward(["alpha"], u, p, "full", _features(graph, table, slots))
    assert tr.blocks == BLOCKS == ("sr", "st", "rt")
    # block -> (key role 1, key role 2, value role)
    layout = {"sr": ("subject", "relation", "target"),
              "st": ("subject", "target", "relation"),
              "rt": ("relation", "target", "subject")}
    for b, name in enumerate(tr.blocks):
        k1, k2, val = layout[name]
        assert np.max(np.abs(tr.K[b, 0] - (psi[k1] + psi[k2]))) < 1e-15
        assert np.max(np.abs(tr.V[b, 0] - psi[val])) < 1e-15
        assert np.array_equal(tr.K[b, 2], np.zeros(DIMS.d_j))  # masked row
        assert np.array_equal(tr.V[b, 2], np.zeros(DIMS.d_j))


def test_address_keys_single_slot_one_hot():
    graph, table, _ = _setting()
    one = SlotAssignment(slots=[0, None, None])
    tr = forward(["alpha"], np.ones(DIMS.d), _params(), "full",
                 _features(graph, table, one))
    assert len(tr.blocks) == 3
    for p in tr.p:
        assert np.array_equal(p, [1.0, 0.0, 0.0])


def test_address_keys_all_masked_zero():
    graph, table, _ = _setting()
    p = _params()
    empty = SlotAssignment(slots=[None, None, None])
    tr = forward(["alpha"], np.ones(DIMS.d), p, "full", _features(graph, table, empty))
    # no slot to address: no block runs and the memory adds nothing
    assert tr.blocks == ()
    assert tr.p is None and tr.o is None
    assert tr.q_prime.tobytes() == tr.q.tobytes()


def test_read_values_one_hot_bit_exact():
    graph, table, _ = _setting()
    p = _params()
    for j in range(3):
        tids = [None, None, None]
        tids[j] = j
        one = SlotAssignment(slots=tids)
        tr = forward(["alpha"], np.ones(DIMS.d), p, "full", _features(graph, table, one))
        assert len(tr.blocks) == 3
        for b in range(len(tr.blocks)):
            A = p.matrices["A"][b]
            assert tr.o[b].tobytes() == (A @ tr.V[b, j]).tobytes()


def test_update_query_additivity():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    u = np.linspace(-1, 1, DIMS.d)
    tr = forward(["alpha", "beta"], u, _params(), "full", feats)
    sr, st_, rt = tr.o
    assert tr.q_prime.tobytes() == (tr.q + sr + st_ + rt).tobytes()
    single = forward(["alpha", "beta"], u, _params(), "no_replication", feats)
    assert single.o.shape == (1, DIMS.d)
    assert single.q_prime.tobytes() == (single.q + single.o[0]).tobytes()


def test_predict_uniform_when_zero_weights():
    idx, probs = predict(np.ones(4), np.zeros((3, 4)))
    assert idx == 0
    assert np.max(np.abs(probs - 1.0 / 3.0)) < 1e-15


# ---------------------------------------------------------------- forward

def _features(graph, table, slots):
    return slot_features(slots, table, graph)


def test_forward_rejects_unknown_mode():
    with pytest.raises(ValueError):
        forward(["alpha"], np.zeros(DIMS.d), _params(), "verbose")


def test_forward_rejects_bad_feature_shape():
    with pytest.raises(ValueError):
        forward(["alpha"], np.zeros(DIMS.d + 1), _params(), "full")
    # a stack is (B, d): no other width, no deeper stack, no scalar
    for bad in (np.zeros((2, DIMS.d + 1)), np.zeros((2, 2, DIMS.d)), np.zeros(())):
        with pytest.raises(ValueError, match="visual feature shape"):
            forward(["alpha"], bad, _params(), "full")


def test_forward_blind_skips_visual_validation():
    # blind never reads the visual input, so its shape is irrelevant
    tr = forward(["alpha"], np.zeros(1), _params(), "blind")
    assert np.array_equal(tr.q, tr.t)


def test_forward_q_only_has_no_blocks():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    tr = forward(["alpha", "near"], np.ones(DIMS.d), _params(), "q_only", feats)
    assert tr.blocks == ()
    assert tr.h_u is None


def test_forward_no_features_equals_q_only():
    p = _params()
    u = np.linspace(0.1, 0.9, DIMS.d)
    a = forward(["alpha", "near"], u, p, "full", features=None)
    b = forward(["alpha", "near"], u, p, "q_only")
    assert np.array_equal(a.logits, b.logits)


def test_forward_no_replication_single_block():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    tr = forward(["alpha"], np.ones(DIMS.d), _params(), "no_replication", feats)
    assert tr.blocks == ("sr",)
    assert tr.p.shape == (1, DIMS.m_slots)
    tr_full = forward(["alpha"], np.ones(DIMS.d), _params(), "full", feats)
    assert tr_full.blocks == ("sr", "st", "rt")
    assert tr_full.p.shape == (3, DIMS.m_slots)


def test_no_replication_is_row_zero_of_full():
    # the batched matmuls may sum in another order for n = 1 than for n = 3,
    # so the rows agree to rounding, not bit for bit
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    p = _params(seed=5)
    for u in (np.ones(DIMS.d), np.linspace(-1, 1, DIMS.d)):
        single = forward(["alpha", "near"], u, p, "no_replication", feats)
        full = forward(["alpha", "near"], u, p, "full", feats)
        for name in ("K", "V", "a", "p", "w", "o"):
            one, row0 = getattr(single, name), getattr(full, name)[:1]
            assert one.shape == row0.shape
            assert np.max(np.abs(one - row0)) <= 1e-12, name


def test_forward_block_probabilities_sum_to_one():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    tr = forward(["alpha", "beta"], np.linspace(-1, 1, DIMS.d), _params(), "full", feats)
    assert len(tr.p) == 3
    for p in tr.p:
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p[~feats.mask] == 0.0)


def test_forward_query_residual_identity():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    tr = forward(["alpha", "beta"], np.linspace(-1, 1, DIMS.d), _params(), "full", feats)
    total = tr.q.copy()
    assert len(tr.o) == 3
    for o in tr.o:
        total = total + o
    assert np.array_equal(tr.q_prime, total)


def test_forward_loss_requires_label():
    tr = forward(["alpha"], np.ones(DIMS.d), _params(), "q_only")
    assert tr.loss is None
    tr = forward(["alpha"], np.ones(DIMS.d), _params(), "q_only", label=1)
    assert tr.loss is not None and tr.loss > 0.0


# ---------------------------------------------------------------- backward

def test_backward_gradients_match_finite_differences():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    p = _params(seed=11)
    u = np.linspace(-0.8, 0.8, DIMS.d)
    tokens = ["alpha", "near", "zzz", "beta"]
    tr = forward(tokens, u, p, "full", feats, label=1)
    analytic = backward(tr, 1, p)
    numeric = finite_diff_grad(
        lambda _m: forward(tokens, u, p, "full", feats, label=1).loss, p.matrices
    )
    assert max_relative_error(analytic, numeric) <= 1e-4


def test_backward_untouched_params_zero():
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    p = _params()
    u = np.ones(DIMS.d)
    tr = forward(["alpha"], u, p, "no_replication", feats, label=0)
    g = backward(tr, 0, p)
    assert np.any(g["A"][0] != 0.0)
    assert np.array_equal(g["A"][1:], np.zeros_like(g["A"][1:]))  # st, rt
    tr = forward(["alpha"], u, p, "q_only", label=0)
    g = backward(tr, 0, p)
    for name in ("W_e", "W_u", "A"):
        assert np.array_equal(g[name], np.zeros_like(g[name]))


def test_backward_word_rows_sparse():
    p = _params()
    tr = forward(["alpha"], np.ones(DIMS.d), p, "q_only", label=0)
    g = backward(tr, 0, p)["word_table"]
    touched = p.token_index["alpha"]
    for i in range(len(VOCAB)):
        if i != touched:
            assert np.array_equal(g[i], np.zeros(DIMS.d_w))


@pytest.mark.parametrize("mode", MODES)
def test_backward_returns_fresh_full_size_gradients(mode):
    # sgd_step and the benchmark's gradient check read every name at full
    # shape, and an update must never write through into a parameter
    graph, table, slots = _setting()
    p = _params(seed=3)
    for feats in (None, _features(graph, table, slots)):
        tr = forward(["alpha", "near", "beta"], np.linspace(-1.0, 1.0, DIMS.d), p, mode,
                     feats, label=1)
        g = backward(tr, 1, p)
        assert tuple(g) == MATRIX_ORDER
        for name, grad in g.items():
            assert grad.dtype == np.float64, name
            assert grad.shape == p.matrices[name].shape, name
            others = list(p.matrices.values()) + [v for k, v in g.items() if k != name]
            assert not any(np.shares_memory(grad, other) for other in others), name


# ---------------------------------------------------------------- bit identity
# The step's products are reshape + @ where they were np.tensordot; these
# compare them with the old forms by equality, not within a tolerance.

@given(st.sampled_from([1, 3]), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=33), st.integers(min_value=1, max_value=17),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_incidence_products_equal_tensordot(n, m, d_j, d_e, seed):
    rng = np.random.default_rng(seed)
    He = np.tanh(rng.standard_normal((3, m, d_j)) * 10.0 ** rng.uniform(-3, 1))
    for roles in (KEY_ROLES, VALUE_ROLE):
        assert np.array_equal((roles[:n] @ He.reshape(3, -1)).reshape(n, m, d_j),
                              np.tensordot(roles[:n], He, axes=1))
    dK, dV = rng.standard_normal((2, n, m, d_j)) * 10.0 ** rng.uniform(-6, 2)
    assert np.array_equal(
        ((KEY_ROLES[:n].T @ dK.reshape(n, -1))
         + (VALUE_ROLE[:n].T @ dV.reshape(n, -1))).reshape(3, m, d_j),
        np.tensordot(KEY_ROLES[:n].T, dK, axes=1) + np.tensordot(VALUE_ROLE[:n].T, dV, axes=1))
    dpre, phi = rng.standard_normal((3, m, d_j)), rng.standard_normal((3, m, d_e))
    assert np.array_equal(dpre.reshape(-1, d_j).T @ phi.reshape(-1, d_e),
                          np.tensordot(dpre, phi, axes=([0, 1], [0, 1])))


def _backward_by_tensordot(trace, label, params):
    """backward as zero-filled buffers, += and np.tensordot."""
    grads = {name: np.zeros_like(mat) for name, mat in params.matrices.items()}
    dlogits = softmax(trace.logits)
    dlogits[label] -= 1.0
    grads["W_o"] += np.outer(dlogits, trace.q_prime)
    dq_prime = params.matrices["W_o"].T @ dlogits
    dq = dq_prime.copy()
    du_eff = None
    if trace.blocks:
        n = len(trace.blocks)
        A = params.matrices["A"][:n]
        dw = dq_prime @ A
        dp = (trace.V @ dw[..., None])[..., 0]
        dV = trace.p[..., None] * dw[:, None, :]
        dz = trace.p * (dp - (trace.p * dp).sum(axis=1, keepdims=True))
        da = (dz[:, None, :] @ trace.K)[:, 0]
        dK = dz[..., None] * trace.a[:, None, :]
        grads["A"][:n] = (dq_prime[:, None] * trace.w[:, None, :]
                          + trace.q[:, None] * da[:, None, :])
        dq += (A @ da[..., None])[..., 0].sum(axis=0)
        dPsi = (np.tensordot(KEY_ROLES[:n].T, dK, axes=1)
                + np.tensordot(VALUE_ROLE[:n].T, dV, axes=1))
        dh_u = (dPsi * trace.He).sum(axis=(0, 1))
        dpre = dPsi * trace.h_u * (1.0 - trace.He * trace.He)
        grads["W_e"] += np.tensordot(dpre, trace.phi, axes=([0, 1], [0, 1]))
        da_u = dh_u * (1.0 - trace.h_u * trace.h_u)
        grads["W_u"] += np.outer(da_u, trace.u_eff)
        du_eff = params.matrices["W_u"].T @ da_u
    if trace.mode == "blind":
        dt = dq if du_eff is None else dq + du_eff
    else:
        dt = dq * trace.u_eff
    dz_t = dt * (1.0 - trace.t * trace.t)
    grads["W_t"] += np.outer(dz_t, trace.m_bar)
    per_token = (params.matrices["W_t"].T @ dz_t) / trace.n_tokens
    for tid in trace.known_ids:
        grads["word_table"][tid] += per_token
    return grads


_BENCH_DIMS = ModelDims(d=32, d_j=32, d_e=16, d_w=16, m_slots=8, k_answers=2)


@given(st.sampled_from(MODES), st.sampled_from([DIMS, _BENCH_DIMS]),
       st.sampled_from(["none", "all-masked", "partly masked", "full"]),
       st.lists(st.sampled_from(VOCAB + ["oov"]), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_step_bits_equal_tensordot_form(mode, dims, memory, tokens, seed):
    graph, _, _ = _setting()
    table = make_bow_table(graph, dim=dims.d_e, seed=seed)
    real = {"none": None, "all-masked": [], "partly masked": [0, 2], "full": [0, 1, 2]}[memory]
    feats = None if real is None else slot_features(
        SlotAssignment(slots=real + [None] * (dims.m_slots - len(real))), table, graph)
    p = _params(seed=seed, dims=dims)
    rng = np.random.default_rng(seed)
    u, label = rng.standard_normal(dims.d) * 3.0, seed % 2
    tr = forward(tokens, u, p, mode, feats, label)
    if tr.blocks:
        n = len(tr.blocks)
        assert np.array_equal(tr.K, np.tensordot(KEY_ROLES[:n], tr.He, axes=1) * tr.h_u)
        assert np.array_equal(tr.V, np.tensordot(VALUE_ROLE[:n], tr.He, axes=1) * tr.h_u)
    got, want = backward(tr, label, p), _backward_by_tensordot(tr, label, p)
    for name in MATRIX_ORDER:
        assert np.array_equal(got[name], want[name]), name


def _forward_one_row_reference(tokens, u, params, mode, features=None, label=None):
    """The one-row forward as it was before forward ran over an optional row
    axis, valid inputs only: the oracle every field of a one-row trace must
    equal byte for byte."""
    known_ids = sorted(params.token_index[tok] for tok in tokens if tok in params.token_index)
    wt = params.matrices["word_table"]
    m_bar = np.zeros(params.dims.d_w, dtype=np.float64)
    for tid in known_ids:
        m_bar += wt[tid]
    m_bar /= len(tokens)
    t = tanh_map(params.matrices["W_t"] @ m_bar)
    if mode == "blind":
        u_eff = q = t
    else:
        u_eff = np.asarray(u, dtype=np.float64)
        q = t * u_eff
    memory = {}
    q_prime = q
    if mode != "q_only" and features is not None and features.mask.any():
        n = 1 if mode == "no_replication" else len(BLOCKS)
        A = params.matrices["A"][:n]
        h_u = tanh_map((params.matrices["W_u"] @ u_eff[..., None])[..., 0])
        He = tanh_map(features.phi @ params.matrices["W_e"].T)
        h = h_u[..., None, None, :]
        roles = He.reshape(3, -1)
        K = (KEY_ROLES[:n] @ roles).reshape(n, *He.shape[-2:])
        K *= h
        V = (VALUE_ROLE[:n] @ roles).reshape(n, *He.shape[-2:])
        V *= h
        a = (q[..., None, None, :] @ A)[..., 0, :]
        p = masked_softmax((K @ a[..., None])[..., 0], features.mask)
        w = (p[..., None, :] @ V)[..., 0, :]
        o = (A @ w[..., None])[..., 0]
        q_prime = reduce(np.add, o.swapaxes(0, -2), q)
        memory = dict(blocks=BLOCKS[:n], h_u=h_u, phi=features.phi, He=He,
                      K=K, V=V, a=a, p=p, w=w, o=o)
    logits = (params.matrices["W_o"] @ q_prime[..., None])[..., 0]
    loss = cross_entropy_loss(logits, label) if label is not None else None
    return {"mode": mode, "known_ids": known_ids, "n_tokens": len(tokens), "m_bar": m_bar,
            "t": t, "u_eff": u_eff, "q": q, "q_prime": q_prime, "logits": logits, "loss": loss,
            "blocks": (), **memory}


# d_w = 1 makes each word sum one contiguous column, which NumPy's own sum
# would add pairwise, not in token order
_WORD_DIMS = ModelDims(d=6, d_j=5, d_e=4, d_w=1, m_slots=3, k_answers=2)


@given(st.sampled_from(MODES), st.sampled_from([DIMS, _BENCH_DIMS, _WORD_DIMS]),
       st.sampled_from(["none", "all-masked", "partly masked", "full"]),
       st.lists(st.sampled_from(VOCAB + ["oov"]), min_size=1, max_size=12),
       st.booleans(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_one_row_trace_bits_equal_reference(mode, dims, memory, tokens, with_label, seed):
    graph, _, _ = _setting()
    table = make_bow_table(graph, dim=dims.d_e, seed=seed)
    real = {"none": None, "all-masked": [], "partly masked": [0, 2], "full": [0, 1, 2]}[memory]
    feats = None if real is None else slot_features(
        SlotAssignment(slots=real + [None] * (dims.m_slots - len(real))), table, graph)
    p = _params(seed=seed, dims=dims)
    u = np.random.default_rng(seed).standard_normal(dims.d) * 3.0
    label = seed % 2 if with_label else None
    got = forward(tokens, u, p, mode, feats, label)
    want = _forward_one_row_reference(tokens, u, p, mode, feats, label)
    for name, value in want.items():
        new = getattr(got, name)
        if isinstance(value, np.ndarray):
            assert (new.shape, new.dtype) == (value.shape, value.dtype), name
            assert new.tobytes() == value.tobytes(), name
        else:
            assert type(new) is type(value) and new == value, name
    for name in ("h_u", "phi", "He", "K", "V", "a", "p", "w", "o"):
        if name not in want:
            assert getattr(got, name) is None, name
    assert got.live.shape == () and bool(got.live) == bool(got.blocks)


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    p = _params(seed=7)
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.vocab == p.vocab
    assert q.answer_vocab == p.answer_vocab
    assert q.dims == p.dims
    for name in MATRIX_ORDER:
        assert np.array_equal(q.matrices[name], p.matrices[name])


def test_checkpoint_bytes_pinned(tmp_path):
    # the VKMN0001 layout: the three blocks' A matrices sit back to back in
    # sr, st, rt order, so files written before A became one stack still load
    path = tmp_path / "model.bin"
    save_checkpoint(_params(seed=7), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "daa9e6b15b83d01c57e9e93cfe1e1775f0edbd92a9c9ddf3f8518c93575386fd")


def test_checkpoint_save_is_deterministic(tmp_path):
    p = _params(seed=7)
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p, a)
    save_checkpoint(p, b)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    p = _params()
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_truncation(tmp_path):
    p = _params()
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize("cut", [1, 2, 3])
def test_checkpoint_truncated_inside_last_string(tmp_path, cut):
    # the last answer string is "no": a cut of 1-2 bytes lands in its body,
    # a cut of 3 in its length prefix
    p = _params()
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - cut])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("kept", [0, 1, 10, 27])
def test_checkpoint_truncated_header(tmp_path, kept):
    # magic intact, then fewer than the header's 28 bytes of dims
    p = _params()
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    path.write_bytes(path.read_bytes()[:8 + kept])
    with pytest.raises(ValueError, match="truncated header") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_trailing_garbage(tmp_path):
    p = _params()
    path = tmp_path / "model.bin"
    save_checkpoint(p, path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ValueError):
        load_checkpoint(path)


@given(st.sampled_from(MODES), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_forward_loss_finite_every_mode(mode, seed):
    graph, table, slots = _setting()
    feats = _features(graph, table, slots)
    p = _params(seed=seed)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(DIMS.d)
    tr = forward(["alpha", "near", "beta"], u, p, mode, feats, label=seed % 2)
    assert math.isfinite(tr.loss)
    assert tr.loss >= 0.0


# ---------------------------------------------------------------- image stacks

_MEMORIES = {
    "none": None,
    "all-masked": SlotAssignment(slots=[None, None, None]),
    "partly masked": SlotAssignment(slots=[0, None, 2]),
}


def _one_image_shapes(n_blocks):
    d, d_j, m = DIMS.d, DIMS.d_j, DIMS.m_slots
    return {"u_eff": (d,), "q": (d,), "q_prime": (d,), "logits": (DIMS.k_answers,),
            "h_u": (d_j,), "K": (n_blocks, m, d_j), "V": (n_blocks, m, d_j),
            "a": (n_blocks, d_j), "p": (n_blocks, m), "w": (n_blocks, d_j),
            "o": (n_blocks, DIMS.d)}


@given(st.sampled_from(MODES), st.sampled_from(sorted(_MEMORIES)),
       st.integers(min_value=1, max_value=6).flatmap(lambda b: st.lists(
           st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                    min_size=DIMS.d, max_size=DIMS.d), min_size=b, max_size=b)),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_image_stack_rows_equal_one_image_calls(mode, memory, images, seed):
    # one question asked about B images: B rows that repeat its tokens and slots
    graph, table, _ = _setting()
    slots = _MEMORIES[memory]
    feats = None if slots is None else slot_features(slots, table, graph)
    p = _params(seed=seed)
    tokens = ["alpha", "near", "beta"]
    b = len(images)
    stacked = None if slots is None else slot_features([slots] * b, table, graph)
    stack = forward([tokens] * b, np.array(images), p, mode, stacked)
    assert stack.logits.shape == (b, DIMS.k_answers)
    for i, u in enumerate(images):
        one = forward(tokens, np.array(u), p, mode, feats)
        assert np.max(np.abs(stack.logits[i] - one.logits)) <= 1e-12
        assert np.argmax(stack.logits[i]) == np.argmax(one.logits)
        # one image keeps the one-image shapes; a stack adds a leading axis
        for name, shape in _one_image_shapes(len(one.blocks)).items():
            if name in ("u_eff", "q", "q_prime", "logits") or one.blocks:
                assert getattr(one, name).shape == shape, name
                assert getattr(stack, name).shape == (b, *shape), name
            else:
                assert getattr(one, name) is None and getattr(stack, name) is None
    assert stack.blocks == one.blocks
    assert one.t.shape == (DIMS.d,) and stack.t.shape == (b, DIMS.d)
    # every trace carries each row's ids, token count and live flag
    assert stack.known_ids == [one.known_ids] * b and stack.n_tokens == [one.n_tokens] * b
    assert stack.live.shape == (b,) and stack.live.tolist() == [bool(one.live)] * b


_QUESTIONS = [["alpha", "near", "beta"], ["gamma", "oov"], ["beta"], ["near", "alpha", "near"],
              ["oov"]]
# triple 0 is read by several assignments; [None] * 3 has no live slot
_ASSIGNMENTS = [[0, 1, None], [None, None, None], [2, 0, 1], [None, 0, None], [1, None, 2]]


@given(st.sampled_from(MODES), st.booleans(),
       st.lists(st.tuples(st.integers(0, len(_QUESTIONS) - 1),
                          st.integers(0, len(_ASSIGNMENTS) - 1),
                          st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                                   min_size=DIMS.d, max_size=DIMS.d)),
                min_size=1, max_size=12),
       st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_mixed_rows_equal_one_row_calls(mode, with_memory, rows, seed):
    graph, table, _ = _setting()
    p = _params(seed=seed)
    tokens = [_QUESTIONS[q] for q, _, _ in rows]
    assignments = [SlotAssignment(slots=_ASSIGNMENTS[s]) for _, s, _ in rows]
    images = np.array([u for _, _, u in rows])
    feats = slot_features(assignments, table, graph) if with_memory else None
    stack = forward(tokens, images, p, mode, feats)
    assert stack.logits.shape == (len(rows), DIMS.k_answers)
    for i, (q, a, u) in enumerate(zip(tokens, assignments, images)):
        one_feats = slot_features(a, table, graph) if with_memory else None
        one = forward(q, u, p, mode, one_feats)
        assert np.max(np.abs(stack.logits[i] - one.logits)) <= 1e-12
        assert np.argmax(stack.logits[i]) == np.argmax(one.logits)
        if with_memory:
            assert feats.phi[i].tobytes() == one_feats.phi.tobytes()
        if not one.blocks:  # no live slot or no memory: q' is q, exactly
            assert stack.q_prime[i].tobytes() == stack.q[i].tobytes()


def _stack(rows, with_memory, table, graph, seed):
    """Tokens, images and slot features of (question, assignment, image)
    rows. Masked slots hold noise, not slot_features' zeros: whatever they
    hold, a row reads nothing from them, and a row with none live nothing
    at all."""
    tokens = [_QUESTIONS[q] for q, _, _ in rows]
    images = np.array([u for _, _, u in rows])
    if not with_memory:
        return tokens, images, None
    feats = slot_features([SlotAssignment(slots=_ASSIGNMENTS[s]) for _, s, _ in rows],
                          table, graph)
    noise = np.random.default_rng(seed).standard_normal(feats.phi.shape)
    return tokens, images, SlotFeatures(
        phi=np.where(feats.mask[:, None, :, None], feats.phi, noise), mask=feats.mask)


@given(st.sampled_from(MODES), st.booleans(),
       st.lists(st.tuples(st.integers(0, len(_QUESTIONS) - 1),
                          st.integers(0, len(_ASSIGNMENTS) - 1),
                          st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False),
                                   min_size=DIMS.d, max_size=DIMS.d)),
                min_size=1, max_size=8),
       st.data(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=150, deadline=None)
def test_stack_backward_is_sum_of_one_row_backwards(mode, with_memory, rows, data, seed):
    graph, table, _ = _setting()
    p = _params(seed=seed)
    # a repeated row and a row with no live slot ride along with the drawn ones
    rows = rows + [rows[0], (data.draw(st.integers(0, len(_QUESTIONS) - 1)), 1, rows[-1][2])]
    labels = data.draw(st.lists(st.integers(0, DIMS.k_answers - 1),
                                min_size=len(rows), max_size=len(rows)))
    tokens, images, feats = _stack(rows, with_memory, table, graph, seed)
    ones = [forward(tokens[i], images[i], p, mode,
                    None if feats is None else SlotFeatures(phi=feats.phi[i], mask=feats.mask[i]),
                    label)
            for i, label in enumerate(labels)]
    # the whole stack, and the stack without its last row, which has no live
    # slot: the rest are often all live
    for n in (len(rows), len(rows) - 1):
        trace = forward(tokens[:n], images[:n], p, mode,
                        None if feats is None else SlotFeatures(phi=feats.phi[:n],
                                                                mask=feats.mask[:n]),
                        labels[:n])
        # the stack's loss is its rows' one-row losses summed in row order
        assert trace.loss == sum(one.loss for one in ones[:n])
        got = backward(trace, labels[:n], p)
        assert tuple(got) == MATRIX_ORDER
        want = {name: np.zeros_like(m) for name, m in p.matrices.items()}
        scale = {name: np.zeros_like(m) for name, m in p.matrices.items()}
        for one, label in zip(ones[:n], labels):
            for name, g in backward(one, label, p).items():
                want[name] += g
                scale[name] += np.abs(g)
        for name in MATRIX_ORDER:
            assert got[name].shape == p.matrices[name].shape, name
            assert np.all(np.abs(got[name] - want[name]) <= 1e-12 * scale[name]), name
    # one row as a stack of one: the one-row call's bits
    one_feats = None if feats is None else SlotFeatures(phi=feats.phi[0], mask=feats.mask[0])
    single = backward(forward(tokens[0], images[0], p, mode, one_feats), labels[0], p)
    stacked = backward(forward(tokens[:1], images[:1], p, mode,
                               None if feats is None else SlotFeatures(phi=feats.phi[:1],
                                                                       mask=feats.mask[:1])),
                       labels[:1], p)
    for name in MATRIX_ORDER:
        assert stacked[name].tobytes() == single[name].tobytes(), name


@pytest.mark.parametrize("mode", MODES)
def test_stack_backward_matches_finite_differences(mode):
    # three rows, the middle one with no live slot; the loss is the rows' sum
    graph, table, _ = _setting()
    p = _params(seed=13)
    rng = np.random.default_rng(13)
    rows = [(0, 0, rng.standard_normal(DIMS.d)), (3, 1, rng.standard_normal(DIMS.d)),
            (1, 2, rng.standard_normal(DIMS.d))]
    labels = [1, 0, 1]
    tokens, images, feats = _stack(rows, True, table, graph, 13)
    trace = forward(tokens, images, p, mode, feats)
    assert trace.live.tolist() == ([False] * 3 if mode == "q_only" else [True, False, True])

    def loss(_m):
        return forward(tokens, images, p, mode, feats, labels).loss

    analytic = backward(trace, labels, p)
    assert max_relative_error(analytic, finite_diff_grad(loss, p.matrices)) <= 1e-4


def test_slot_features_embeds_each_triple_once(monkeypatch):
    graph, table, _ = _setting()
    assignments = [SlotAssignment(slots=s) for s in _ASSIGNMENTS]
    singles = [slot_features(a, table, graph) for a in assignments]
    calls = []

    def counted(entry, *args, **kwargs):
        calls.append(entry)
        return embed_entry(entry, *args, **kwargs)

    monkeypatch.setattr(model, "embed_entry", counted)
    stack = slot_features(assignments, table, graph)
    assert stack.phi.shape == (len(assignments), 3, DIMS.m_slots, DIMS.d_e)
    assert stack.phi.flags.c_contiguous
    for i, (a, one) in enumerate(zip(assignments, singles)):
        assert stack.phi[i].tobytes() == one.phi.tobytes()
        assert stack.mask[i].tolist() == a.mask
    # three roles of each of the 3 distinct triples; padding is not embedded
    assert len(calls) == 3 * len(graph.triples)
    with pytest.raises(ValueError, match="same number of slots"):
        slot_features([SlotAssignment(slots=[0]), SlotAssignment(slots=[0, 1])], table, graph)


def test_forward_rows_reject_mismatched_inputs():
    graph, table, slots = _setting()
    p = _params()
    images = np.zeros((2, DIMS.d))
    # a stack needs one token list per row, not one question
    with pytest.raises(ValueError, match="takes 2 token lists"):
        forward(["alpha", "beta"], images, p, "full")
    with pytest.raises(ValueError, match="takes 2 token lists"):
        forward([["alpha"]], images, p, "full")
    with pytest.raises(ValueError, match="slot features"):
        forward([["alpha"]] * 2, images, p, "full", slot_features([slots] * 3, table, graph))
    # backward takes the stack's trace, with one label per row
    trace = forward([["alpha"]] * 2, images, p, "full", slot_features([slots] * 2, table, graph))
    assert tuple(backward(trace, [0, 1], p)) == MATRIX_ORDER
    for labels in (0, [0], [0, 1, 1], [[0, 1]]):
        with pytest.raises(ValueError, match="one label per row"):
            backward(trace, labels, p)
        # and so does forward, naming both counts
        with pytest.raises(ValueError, match=f"{np.size(labels)} labels for 2 rows"):
            forward([["alpha"]] * 2, images, p, "full",
                    slot_features([slots] * 2, table, graph), labels)
    one = forward(["alpha"], images[0], p, "full", slot_features(slots, table, graph))
    with pytest.raises(ValueError, match="one label per row"):
        backward(one, [0], p)
