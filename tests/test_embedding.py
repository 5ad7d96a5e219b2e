"""Knowledge embeddings: BoW means, translation scoring, margin SGD, ranks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vkmn import embedding
from vkmn.embedding import (
    EmbeddingTable,
    TransEConfig,
    bow_embed,
    embed_entry,
    load_embeddings,
    make_bow_table,
    mean_tail_rank,
    rank_tail,
    save_embeddings,
    train_transe,
    transe_score,
)
from vkmn.kb import KnowledgeGraph, Triple, build_graph


def _chain_graph(n=20, n_rel=5):
    return build_graph(
        [Triple(f"e{i}", f"r{i % n_rel}", f"e{i + 1}") for i in range(n - 1)]
    )


# ---------------------------------------------------------------- bow

def test_bow_embed_unknown_counts_in_denominator():
    table = {"a": np.array([2.0, 4.0])}
    out = bow_embed("a unk", table)
    assert np.array_equal(out, np.array([1.0, 2.0]))


def test_bow_embed_exact_single_token():
    v = np.array([0.5, -1.5, 3.0])
    assert np.array_equal(bow_embed("a", {"a": v}), v)


def test_bow_embed_opposite_vectors_cancel():
    table = {"a": np.array([1.0, 2.0]), "b": np.array([-1.0, -2.0])}
    assert np.array_equal(bow_embed("a b", table), np.zeros(2))


def test_bow_embed_fully_unknown_is_zero():
    assert np.array_equal(bow_embed("x y", {}, dim=3), np.zeros(3))


def test_bow_embed_input_validation():
    with pytest.raises(ValueError):
        bow_embed("", {"a": np.ones(2)})
    with pytest.raises(ValueError):
        bow_embed("a", {})  # no dim and nothing to infer it from


# ---------------------------------------------------------------- scoring

def _dyadic_table():
    # all coordinates are small dyadic rationals so sums are exact in float64
    ents = {
        "s": np.array([0.25, 0.5, -0.75, 1.0]),
        "t": np.array([0.75, 0.25, -0.75, 1.125]),
        "u": np.array([-0.5, 2.0, 0.0, 0.25]),
    }
    rels = {"r": np.array([0.5, -0.25, 0.0, 0.125])}
    return EmbeddingTable(dim=4, entity_vectors=ents, relation_vectors=rels)


def test_transe_score_exact_translation_is_zero():
    # vec(s) + vec(r) == vec(t) coordinate by coordinate
    assert transe_score("s", "r", "t", _dyadic_table()) == 0.0


def test_transe_score_hand_value():
    table = EmbeddingTable(
        dim=2,
        entity_vectors={"a": np.zeros(2), "b": np.array([1.0, 0.0])},
        relation_vectors={"r": np.zeros(2)},
    )
    assert transe_score("a", "r", "b", table) == -1.0


def test_transe_score_translation_invariance_exact():
    table = _dyadic_table()
    c = np.array([0.5, 0.25, -0.125, 2.0])
    shifted = EmbeddingTable(
        dim=4,
        entity_vectors={k: v + c for k, v in table.entity_vectors.items()},
        relation_vectors=dict(table.relation_vectors),
    )
    for t in ("t", "u"):
        assert transe_score("s", "r", t, table) == transe_score("s", "r", t, shifted)


@given(st.lists(st.floats(min_value=-4, max_value=4), min_size=15, max_size=15))
@settings(max_examples=100, deadline=None)
def test_transe_score_is_the_row_norm_bit_for_bit(xs):
    s, r, t = (np.array(xs[i:i + 5]) for i in (0, 5, 10))
    table = EmbeddingTable(dim=5, entity_vectors={"s": s, "t": t}, relation_vectors={"r": r})
    want = -np.linalg.norm((s + r) - t[np.newaxis], axis=1)[0]
    assert transe_score("s", "r", "t", table) == want


def test_transe_score_missing_entry_names_it():
    with pytest.raises(KeyError, match="ghost"):
        transe_score("s", "r", "ghost", _dyadic_table())


# ---------------------------------------------------------------- embed_entry

def test_embed_entry_known_entity_exact():
    table = _dyadic_table()
    assert np.array_equal(embed_entry("s", table), table.entity_vectors["s"])


def test_embed_entry_relation_role_first():
    # a phrase stored under both roles resolves by the requested role
    table = EmbeddingTable(
        dim=2,
        entity_vectors={"x": np.array([1.0, 0.0])},
        relation_vectors={"x": np.array([0.0, 1.0])},
    )
    assert np.array_equal(embed_entry("x", table, is_relation=True), [0.0, 1.0])
    assert np.array_equal(embed_entry("x", table, is_relation=False), [1.0, 0.0])


def test_embed_entry_unknown_falls_back_to_token_mean():
    table = _dyadic_table()
    got = embed_entry("s unknowntoken", table)
    assert np.array_equal(got, table.entity_vectors["s"] / 2.0)


def test_embed_entry_totally_unknown_is_zero():
    assert np.array_equal(embed_entry("zz qq", _dyadic_table()), np.zeros(4))


def test_table_rejects_bad_kind_and_shape():
    with pytest.raises(ValueError):
        EmbeddingTable(dim=2, kind="word2vec")
    with pytest.raises(ValueError):
        EmbeddingTable(dim=2, entity_vectors={"a": np.zeros(3)})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_vectors(value):
    # a = [nan, 0] beside s, c and b once gave <s, r, b> the filtered rank 3,
    # counting a neither ahead of b nor behind it: a rank no sort defines
    ents = {"a": np.array([value, 0.0]), "s": np.zeros(2), "c": np.array([0.1, 0.1]),
            "b": np.array([5.0, 5.0])}
    with pytest.raises(ValueError, match="vector for 'a' holds a non-finite value"):
        EmbeddingTable(dim=2, entity_vectors=ents, relation_vectors={"r": np.zeros(2)})
    with pytest.raises(ValueError, match="vector for 'r' holds a non-finite value"):
        EmbeddingTable(dim=2, entity_vectors={"s": np.zeros(2)},
                       relation_vectors={"r": np.array([0.0, value])})


def test_adopt_indexes_once_without_the_dict_constructor(monkeypatch):
    g = _chain_graph(6, 2)
    made = train_transe(g, TransEConfig(dim=4, epochs=1, seed=1))
    by_dict = EmbeddingTable(dim=4, entity_vectors=dict(made.entity_vectors),
                             relation_vectors=dict(reversed(made.relation_vectors.items())),
                             graph=g)
    indexed = []
    index = EmbeddingTable._index_entities

    def counting(self):
        indexed.append(self)
        index(self)

    monkeypatch.setattr(embedding, "_read_only_rows", None)  # the dict constructor's pass
    monkeypatch.setattr(EmbeddingTable, "_index_entities", counting)
    phrases = sorted(made.entity_vectors)
    relations = dict(reversed(made.relation_vectors.items()))
    adopted = EmbeddingTable.adopt(4, phrases, made.entity_matrix.copy(), relations, graph=g)
    assert indexed == [adopted]
    assert (adopted.dim, adopted.kind, adopted.history, adopted.graph) == (4, "transe", None, g)
    for name in ("entity_matrix", "entity_sq", "graph_rows"):
        assert getattr(adopted, name).tobytes() == getattr(by_dict, name).tobytes()
    assert adopted.entity_row == by_dict.entity_row
    assert list(adopted.relation_vectors) == list(by_dict.relation_vectors) == sorted(relations)
    with pytest.raises(ValueError, match="unknown table kind 'word2vec'"):
        EmbeddingTable.adopt(4, phrases, made.entity_matrix.copy(), {}, kind="word2vec")


# ---------------------------------------------------------------- training

def test_train_transe_epochs_zero_gives_normalized_init():
    g = _chain_graph(6, 2)
    table = train_transe(g, TransEConfig(dim=8, epochs=0, seed=1))
    assert set(table.entity_vectors) == g.entities
    assert set(table.relation_vectors) == g.relations
    for v in table.entity_vectors.values():
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert table.history.epoch_loss == []


def test_train_transe_deterministic():
    g = _chain_graph(8, 3)
    cfg = TransEConfig(dim=6, epochs=20, seed=42)
    t1 = train_transe(g, cfg)
    t2 = train_transe(g, cfg)
    for k in t1.entity_vectors:
        assert np.array_equal(t1.entity_vectors[k], t2.entity_vectors[k])
    for k in t1.relation_vectors:
        assert np.array_equal(t1.relation_vectors[k], t2.relation_vectors[k])
    assert t1.history.epoch_loss == t2.history.epoch_loss


def test_train_transe_keeps_unit_norms():
    g = _chain_graph(10, 3)
    table = train_transe(g, TransEConfig(dim=8, epochs=30, seed=0))
    for v in table.entity_vectors.values():
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert max(table.history.max_norm_error) <= 1e-9


def test_train_transe_losses_finite_nonnegative():
    g = _chain_graph(10, 3)
    table = train_transe(g, TransEConfig(dim=8, epochs=15, seed=2))
    losses = table.history.epoch_loss
    assert len(losses) == 15
    assert all(math.isfinite(x) and x >= 0.0 for x in losses)


def test_train_transe_with_three_negatives_per_positive():
    g = _chain_graph(10, 3)
    cfg = TransEConfig(dim=8, epochs=30, seed=4, negatives_per_positive=3)
    t1, t2 = train_transe(g, cfg), train_transe(g, cfg)
    assert t1.entity_matrix.tobytes() == t2.entity_matrix.tobytes()
    assert all(v.tobytes() == t2.relation_vectors[r].tobytes()
               for r, v in t1.relation_vectors.items())
    assert t1.history.epoch_loss == t2.history.epoch_loss
    assert np.max(np.abs(np.linalg.norm(t1.entity_matrix, axis=1) - 1.0)) <= 1e-9
    assert max(t1.history.max_norm_error) <= 1e-9
    assert t1.history.epoch_loss[-1] < t1.history.epoch_loss[0]
    one = train_transe(g, TransEConfig(dim=8, epochs=30, seed=4))
    assert one.entity_matrix.tobytes() != t1.entity_matrix.tobytes()


def test_train_transe_needs_two_entities():
    g = build_graph([Triple("a", "r", "a")])
    with pytest.raises(ValueError):
        train_transe(g, TransEConfig(dim=4, epochs=1, seed=0))


def test_transe_config_validation():
    with pytest.raises(ValueError):
        TransEConfig(dim=1)
    with pytest.raises(ValueError):
        TransEConfig(margin=0.0)
    with pytest.raises(ValueError):
        TransEConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TransEConfig(epochs=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TransEConfig(seed=-1)
    TransEConfig(epochs=0)  # allowed: normalized init only


def test_train_transe_stops_when_it_diverges():
    # a finite but huge lr overflows the first epoch's updates to inf and NaN
    g = _chain_graph(6)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match=r"TransE diverged: .* after epoch 1 at lr 1e\+308"):
        train_transe(g, TransEConfig(dim=4, lr=1e308, epochs=3, seed=0))


def test_a_diverging_transe_run_raises_without_numpy_warnings():
    # the overflow to inf and NaN is reported by the RuntimeError alone
    g = _chain_graph(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"TransE diverged: .* after epoch 1"):
            train_transe(g, TransEConfig(dim=4, lr=1e308, epochs=3, seed=0))


@pytest.mark.parametrize("field", ["lr", "margin"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_transe_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
        TransEConfig(**{field: value})


def _reference_transe(graph, config):
    """train_transe's loop as first written: np.linalg.norm for every norm,
    ent[idx] indexing for every row and a dissim closure. The oracle its
    row-view loop must match bit for bit."""
    entities = sorted(graph.entities)
    relations = sorted(graph.relations)
    ent_idx = {e: i for i, e in enumerate(entities)}
    rel_idx = {r: i for i, r in enumerate(relations)}
    n_e, dim = len(entities), config.dim

    rng = np.random.default_rng(config.seed)
    bound = 6.0 / np.sqrt(dim)
    ent = rng.uniform(-bound, bound, size=(n_e, dim))
    rel = rng.uniform(-bound, bound, size=(len(relations), dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)

    triples = [(ent_idx[t.subject], rel_idx[t.relation], ent_idx[t.target])
               for t in graph.triples]
    stored = set(triples)
    epoch_loss, max_norm_error = [], []

    def dissim(si, ri, ti):
        v = ent[si] + rel[ri] - ent[ti]
        return v, float(np.linalg.norm(v))

    for _ in range(config.epochs):
        total = 0.0
        for i in rng.permutation(len(triples)):
            si, ri, ti = triples[i]
            for _ in range(config.negatives_per_positive):
                corrupt_head = bool(rng.integers(2))
                neg = None
                for _ in range(100):
                    j = int(rng.integers(n_e))
                    cand = (j, ri, ti) if corrupt_head else (si, ri, j)
                    if cand not in stored:
                        neg = cand
                        break
                if neg is None:
                    continue
                v_pos, d_pos = dissim(si, ri, ti)
                v_neg, d_neg = dissim(*neg)
                loss = config.margin + d_pos - d_neg
                if loss <= 0:
                    continue
                total += loss
                g_pos = v_pos / d_pos if d_pos > 1e-12 else np.zeros(dim)
                g_neg = v_neg / d_neg if d_neg > 1e-12 else np.zeros(dim)
                ent_grads = {}
                for idx, g in ((si, g_pos), (ti, -g_pos), (neg[0], -g_neg), (neg[2], g_neg)):
                    ent_grads[idx] = ent_grads.get(idx, 0) + g
                rel[ri] -= config.lr * (g_pos - g_neg)
                for idx, g in ent_grads.items():
                    ent[idx] -= config.lr * g
                    ent[idx] /= np.linalg.norm(ent[idx])
        epoch_loss.append(total / max(1, len(triples)))
        norms = np.linalg.norm(ent, axis=1)
        max_norm_error.append(float(np.max(np.abs(norms - 1.0))))
    return entities, ent, dict(zip(relations, rel)), epoch_loss, max_norm_error


@st.composite
def _transe_case(draw):
    # "a" is drawn both as an entity and as a relation, and subject and
    # target come from one pool, so self-loops (x r x) are common
    names = ["a", "b", "c", "d", "e"]
    triples = draw(st.lists(st.tuples(st.sampled_from(names),
                                      st.sampled_from(["r", "s", "a"]),
                                      st.sampled_from(names)),
                            min_size=1, max_size=14))
    graph = build_graph([Triple(*t) for t in triples])
    if len(graph.entities) < 2:
        graph = build_graph([Triple(*t) for t in triples] + [Triple("a", "a", "b")])
    config = TransEConfig(
        dim=draw(st.integers(2, 17)),
        margin=draw(st.floats(1e-3, 10)),
        lr=draw(st.floats(1e-3, 1)),
        epochs=draw(st.integers(0, 4)),
        negatives_per_positive=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2 ** 32 - 1)))
    return graph, config


@given(_transe_case())
@settings(max_examples=300, deadline=None)
def test_train_transe_equals_reference_loop_bit_for_bit(case):
    graph, config = case
    table = train_transe(graph, config)
    entities, ent, relations, epoch_loss, max_norm_error = _reference_transe(graph, config)
    assert list(table.entity_vectors) == entities
    assert table.entity_matrix.tobytes() == ent.tobytes()
    assert table.relation_vectors.keys() == relations.keys()
    assert all(v.tobytes() == relations[r].tobytes()
               for r, v in table.relation_vectors.items())
    assert table.history.epoch_loss == epoch_loss
    assert table.history.max_norm_error == max_norm_error


def test_train_transe_skips_a_corruption_slot_nothing_can_fill():
    # every (x, r, y) over {a, b} is stored, so each of the 100 draws of
    # every corruption is a stored triple: no update ever runs
    g = build_graph([Triple(s, "r", t) for s in "ab" for t in "ab"])
    trained = train_transe(g, TransEConfig(dim=5, epochs=3, seed=3, negatives_per_positive=2))
    init = train_transe(g, TransEConfig(dim=5, epochs=0, seed=3))
    assert trained.history.epoch_loss == [0.0, 0.0, 0.0]
    assert trained.entity_matrix.tobytes() == init.entity_matrix.tobytes()
    assert trained.relation_vectors["r"].tobytes() == init.relation_vectors["r"].tobytes()


# ---------------------------------------------------------------- ranking

def test_rank_tail_perfect_line_embedding():
    # entities on a number line, relation = +1: every tail is rank 1
    g = _chain_graph(5, 1)
    ents = {f"e{i}": np.array([float(i)]) for i in range(5)}
    table = EmbeddingTable(dim=1, entity_vectors=ents,
                           relation_vectors={"r0": np.array([1.0])})
    assert mean_tail_rank(g, table) == 1.0


def test_rank_tail_is_filtered():
    # (a, r) has two stored tails b and c; b scores strictly better than c
    # but is excluded from c's candidate pool, so c ranks 2 (behind a only)
    g = build_graph([Triple("a", "r", "b"), Triple("a", "r", "c"),
                     Triple("d", "r", "a")])
    ents = {
        "a": np.array([1.0, 0.0]),
        "b": np.array([1.0, 0.0]),
        "c": np.array([0.0, 1.0]),
        "d": np.array([-1.0, 0.0]),
    }
    table = EmbeddingTable(dim=2, entity_vectors=ents,
                           relation_vectors={"r": np.zeros(2)})
    assert rank_tail("a", "r", "c", table, g) == 2


def test_rank_tail_matches_brute_force():
    g = _chain_graph(12, 4)
    table = train_transe(g, TransEConfig(dim=6, epochs=10, seed=5))
    for t in g.triples:
        true_tails = {x.target for x in g.triples
                      if x.subject == t.subject and x.relation == t.relation}
        pool = [e for e in g.entities if e == t.target or e not in true_tails]
        order = sorted(pool, key=lambda e: (-transe_score(t.subject, t.relation, e, table), e))
        assert rank_tail(t.subject, t.relation, t.target, table, g) == 1 + order.index(t.target)


def _oracle_rank(s, r, t, table, graph):
    """The scalar definition: sort the filtered pool by (-score, name)."""
    true_tails = {x.target for x in graph.triples if x.subject == s and x.relation == r}
    pool = [e for e in graph.entities if e == t or e not in true_tails]
    order = sorted(pool, key=lambda e: (-transe_score(s, r, e, table), e))
    return 1 + order.index(t)


_NAMES = ["a", "a b", "ab", "b", "b a", "ba", "c", "r0", "r1"]
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def _ranking_case(draw):
    """A small graph with several stored tails per (s, r), a table whose
    entity vectors come from a pool of 3 (so exact ties are common), and
    table-only entities that must never count."""
    names = draw(st.permutations(_NAMES))
    n_ent = draw(st.integers(min_value=2, max_value=6))
    ents, extra = names[:n_ent], names[n_ent:n_ent + 2]
    rels = ["r0", "r1"]
    triples = draw(st.lists(
        st.tuples(st.sampled_from(ents), st.sampled_from(rels), st.sampled_from(ents)),
        min_size=1, max_size=12))
    graph = build_graph([Triple(*t) for t in triples])
    dim = 2
    pool = draw(st.lists(st.tuples(_GRID, _GRID), min_size=3, max_size=3))
    ent_vecs = {e: np.array(draw(st.sampled_from(pool)))
                for e in sorted(graph.entities) + extra}
    rel_vecs = {r: np.array(draw(st.tuples(_GRID, _GRID))) for r in rels}
    return graph, EmbeddingTable(dim=dim, entity_vectors=ent_vecs, relation_vectors=rel_vecs)


@given(_ranking_case())
@settings(max_examples=200, deadline=None)
def test_rank_tail_equals_sorted_oracle(case):
    graph, table = case
    oracle = [_oracle_rank(t.subject, t.relation, t.target, table, graph)
              for t in graph.triples]
    got = [rank_tail(t.subject, t.relation, t.target, table, graph) for t in graph.triples]
    assert got == oracle
    assert mean_tail_rank(graph, table) == float(np.mean(oracle))
    # a table made for one graph ranks exactly against any graph: its own,
    # one with fewer entities, and one with more
    part = build_graph(graph.triples[:1 + len(graph.triples) // 2])
    for made_for in (graph, part):
        paired = EmbeddingTable(dim=table.dim, entity_vectors=table.entity_vectors,
                                relation_vectors=table.relation_vectors, graph=made_for)
        assert paired.graph is made_for
        for ranked in (graph, part):
            want = [_oracle_rank(t.subject, t.relation, t.target, table, ranked)
                    for t in ranked.triples]
            assert [rank_tail(t.subject, t.relation, t.target, paired, ranked)
                    for t in ranked.triples] == want
            assert mean_tail_rank(ranked, paired) == float(np.mean(want))


@st.composite
def _near_tie_case(draw):
    """A graph whose triple (s, r, t) has entity rows around t that the
    screen cannot order, or only just: copies of t or of another row, t
    moved by a few ulps, reflections of t about base = vec(s) + vec(r)
    (as far from base in real numbers), and t moved along t - base so that
    its screen value moves by about +-tol. The vectors are not dyadic, at
    dim 1, 3, 16 or 64, scaled by 1e-6, 1 or 1e6."""
    dim = draw(st.sampled_from([1, 3, 16, 64]))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    s, t, *others = draw(st.permutations(_NAMES))[:draw(st.integers(3, len(_NAMES)))]
    rel = {"r": rng.uniform(-1, 1, dim) * scale, "q": rng.uniform(-1, 1, dim) * scale}
    ents = {s: rng.uniform(-1, 1, dim) * scale, t: rng.uniform(-1, 1, dim) * scale}
    base = ents[s] + rel["r"]
    away = ents[t] - base
    norm_max = max(np.linalg.norm(v) for v in ents.values())
    tol = embedding._screen_tolerance(dim, float(np.linalg.norm(base)), 2 * norm_max)
    triples = [Triple(s, "r", t)]
    for name in others:
        kind = draw(st.sampled_from(["duplicate", "ulp", "mirror", "tol", "random"]))
        if kind == "duplicate":
            vec = ents[draw(st.sampled_from(sorted(ents)))].copy()
        elif kind == "ulp":
            vec = ents[t].copy()
            k = draw(st.integers(0, dim - 1))
            for _ in range(draw(st.integers(1, 3))):
                vec[k] = np.nextafter(vec[k], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "mirror":
            vec = base + rng.permutation(away) * rng.choice([-1.0, 1.0], dim)
        elif kind == "tol":
            factor = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
            vec = ents[t] + factor * tol / (2 * away.dot(away)) * away
        else:
            vec = rng.uniform(-1, 1, dim) * scale
        ents[name] = vec
        # some rows are other stored tails of (s, r), which ranking t skips
        triples.append(Triple(s, "r", name) if draw(st.booleans()) else Triple(name, "q", s))
    graph = build_graph(triples)
    return graph, EmbeddingTable(dim=dim, entity_vectors=ents, relation_vectors=rel)


@given(_near_tie_case())
@settings(max_examples=300, deadline=None)
def test_rank_tail_equals_sorted_oracle_on_near_ties(case):
    graph, table = case
    oracle = [_oracle_rank(t.subject, t.relation, t.target, table, graph)
              for t in graph.triples]
    assert [rank_tail(t.subject, t.relation, t.target, table, graph)
            for t in graph.triples] == oracle
    assert mean_tail_rank(graph, table) == float(np.mean(oracle))


def _spy_exact_rows(monkeypatch):
    """The number of rows of every exact scoring rank_tail makes."""
    sizes = []
    scores = embedding._scores

    def spy(base, tails):
        sizes.append(len(tails))
        return scores(base, tails)

    monkeypatch.setattr(embedding, "_scores", spy)
    return sizes


def test_rank_tail_scores_exactly_only_the_rows_the_screen_cannot_order(monkeypatch):
    # a and c copy b, so their screen values are within rounding of b's:
    # ranking b scores all three exactly, and the tie goes by name
    g = build_graph([Triple("s", "r", "b"), Triple("a", "q", "s"),
                     Triple("c", "q", "s"), Triple("d", "q", "s")])
    b = np.array([0.9, 0.4])
    ents = {"a": b, "b": b, "c": b, "d": np.array([-3.0, 2.0]), "s": np.array([0.3, 0.1])}
    table = EmbeddingTable(dim=2, entity_vectors=ents,
                           relation_vectors={"r": np.array([0.2, 0.7]), "q": np.zeros(2)})
    sizes = _spy_exact_rows(monkeypatch)
    assert rank_tail("s", "r", "b", table, g) == 2  # a ahead; c, d and s behind
    assert sizes == [3]
    # d is far from every other row: the screen orders them all, and
    # nothing is scored exactly
    want = _oracle_rank("s", "r", "d", table, g)
    sizes.clear()
    assert rank_tail("s", "r", "d", table, g) == want == 4
    assert sizes == []


def test_rank_tail_scores_every_row_where_the_screen_has_no_bound(monkeypatch):
    # squares of 1e200 overflow, so no tolerance is claimed and every row
    # is scored exactly: s, 1 from base, scores -1 and the others -inf,
    # where a's name puts it ahead of b
    g = build_graph([Triple("s", "r", "b"), Triple("a", "q", "s"), Triple("c", "q", "s")])
    ents = {"a": np.array([1e200, 0.0]), "b": np.array([0.0, 1e200]),
            "c": np.array([-1e200, 0.0]), "s": np.array([0.0, -1e200])}
    table = EmbeddingTable(dim=2, entity_vectors=ents,
                           relation_vectors={"r": np.ones(2), "q": np.ones(2)})
    assert embedding._screen_tolerance(2, 1e200, 1e200) == math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        want = _oracle_rank("s", "r", "b", table, g)
        sizes = _spy_exact_rows(monkeypatch)
        assert rank_tail("s", "r", "b", table, g) == want == 3
    assert sizes == [4]


def test_table_without_entities_indexes_and_ranks_with_an_error():
    for table in (EmbeddingTable(dim=3, relation_vectors={"r": np.ones(3)}),
                  EmbeddingTable.adopt(3, [], np.zeros((0, 3)), {})):
        assert table.entity_sq.shape == (0,) and table.entity_norm_max == 0.0
        g = build_graph([Triple("a", "r", "b")])
        with pytest.raises(KeyError, match="not in embedding table"):
            rank_tail("a", "r", "b", table, g)
        with pytest.raises(KeyError, match="not in embedding table"):
            mean_tail_rank(g, table)


def test_tables_made_for_a_graph_keep_its_entity_rows(tmp_path, monkeypatch):
    g = _chain_graph(8, 2)
    trained = train_transe(g, TransEConfig(dim=4, epochs=2, seed=1))
    path = str(tmp_path / "vec.txt")
    save_embeddings(trained, path)
    loaded = load_embeddings(path, graph=g)
    assert trained.graph is g and loaded.graph is g
    assert load_embeddings(path).graph is None
    ranks = [rank_tail(t.subject, t.relation, t.target, trained, g) for t in g.triples]

    def rebuilt(*args):
        raise AssertionError("the entity-row mask was rebuilt")

    monkeypatch.setattr(embedding, "_graph_rows", rebuilt)
    for table in (trained, loaded):
        assert [rank_tail(t.subject, t.relation, t.target, table, g)
                for t in g.triples] == ranks
        assert mean_tail_rank(g, table) == float(np.mean(ranks))
    monkeypatch.undo()
    # a graph with an entity the file lacks: the table keeps no mask for it,
    # and ranking against it names the missing entity, as without a graph
    bigger = build_graph(g.triples + [Triple("e0", "r0", "ghost")])
    partial = load_embeddings(path, graph=bigger)
    assert partial.graph is None and partial.graph_rows is None
    with pytest.raises(KeyError, match="ghost"):
        rank_tail("e0", "r0", "e1", partial, bigger)


def test_rank_tail_missing_entity_names_it():
    g = build_graph([Triple("a", "r", "b"), Triple("b", "r", "ghost")])
    table = EmbeddingTable(dim=2, entity_vectors={"a": np.zeros(2), "b": np.ones(2)},
                           relation_vectors={"r": np.ones(2)})
    with pytest.raises(KeyError, match="ghost"):
        rank_tail("a", "r", "b", table, g)
    with pytest.raises(KeyError, match="ghost"):
        mean_tail_rank(g, table)
    with pytest.raises(ValueError, match="nowhere"):
        rank_tail("a", "r", "nowhere", table, build_graph([Triple("a", "r", "b")]))


def test_table_vectors_are_read_only_copies():
    caller = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    rel = {"r": np.array([0.5, 0.5])}
    table = EmbeddingTable(dim=2, entity_vectors=caller, relation_vectors=rel)
    for vec in (table.entity_vectors["a"], table.relation_vectors["r"]):
        with pytest.raises(ValueError):
            vec[0] = 9.0
    with pytest.raises(ValueError):
        table.entity_matrix[1, 1] = 9.0
    caller["a"][0] = 9.0  # the table holds its own copy
    assert np.array_equal(table.entity_vectors["a"], [1.0, 2.0])
    assert table.entity_vectors["b"].base is table.entity_matrix
    assert np.array_equal(table.entity_matrix[table.entity_row["b"]], [3.0, 4.0])


def test_tables_compare_by_identity_and_repr_briefly():
    vecs = {f"e{i}": np.full(2, float(i)) for i in range(5000)}
    table = EmbeddingTable(dim=2, entity_vectors=vecs)
    twin = EmbeddingTable(dim=2, entity_vectors=vecs)
    assert table == table
    assert (table == twin) is False and (table != twin) is True
    assert repr(table) == "EmbeddingTable(dim=2, kind='transe')"


# ---------------------------------------------------------------- bow table

def test_make_bow_table_deterministic():
    g = _chain_graph(6, 2)
    t1 = make_bow_table(g, dim=5, seed=3)
    t2 = make_bow_table(g, dim=5, seed=3)
    assert t1.kind == "bow"
    for k in t1.entity_vectors:
        assert np.array_equal(t1.entity_vectors[k], t2.entity_vectors[k])


@pytest.mark.parametrize("maker", ["transe", "bow"])
def test_made_tables_keep_their_makers_matrix(maker, monkeypatch):
    g = _chain_graph(8, 3)
    adopted = []
    adopt = EmbeddingTable.adopt.__func__

    def keeping(cls, dim, phrases, matrix, relation_vectors, **kwargs):
        adopted.append((matrix, relation_vectors))
        return adopt(cls, dim, phrases, matrix, relation_vectors, **kwargs)

    monkeypatch.setattr(EmbeddingTable, "adopt", classmethod(keeping))
    table = (train_transe(g, TransEConfig(dim=4, epochs=3, seed=1)) if maker == "transe"
             else make_bow_table(g, 4, seed=1))
    ((matrix, relations),) = adopted
    assert table.entity_matrix is matrix and not matrix.flags.writeable
    assert all(vec.base is matrix for vec in table.entity_vectors.values())
    assert relations.keys() == table.relation_vectors.keys()
    for phrase, vec in table.relation_vectors.items():
        assert vec is relations[phrase] and not vec.flags.writeable
    # the bytes of a dict-built table of the same vectors
    copied = EmbeddingTable(
        dim=4, kind=table.kind,
        entity_vectors={p: v.copy() for p, v in table.entity_vectors.items()},
        relation_vectors={p: v.copy() for p, v in table.relation_vectors.items()})
    assert copied.entity_matrix.tobytes() == table.entity_matrix.tobytes()
    assert copied.entity_row == table.entity_row
    assert list(copied.relation_vectors) == list(table.relation_vectors)
    assert all(v.tobytes() == table.relation_vectors[p].tobytes()
               for p, v in copied.relation_vectors.items())


# ---------------------------------------------------------------- persistence

def test_save_load_round_trip_bit_exact(tmp_path):
    g = _chain_graph(7, 3)
    table = train_transe(g, TransEConfig(dim=5, epochs=10, seed=9))
    path = tmp_path / "vec.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path, graph=g)
    assert set(loaded.entity_vectors) == set(table.entity_vectors)
    assert set(loaded.relation_vectors) == set(table.relation_vectors)
    for k, v in table.entity_vectors.items():
        assert np.array_equal(loaded.entity_vectors[k], v)  # %.17g survives
    for k, v in table.relation_vectors.items():
        assert np.array_equal(loaded.relation_vectors[k], v)


def test_save_load_multiword_phrases(tmp_path):
    table = EmbeddingTable(
        dim=2,
        entity_vectors={"red car": np.array([0.5, -0.25])},
        relation_vectors={"sit on top": np.array([1.0, 2.0])},
    )
    g = build_graph([Triple("red car", "sit on top", "red car")])
    path = tmp_path / "vec.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path, graph=g)
    assert np.array_equal(loaded.entity_vectors["red car"], [0.5, -0.25])
    assert np.array_equal(loaded.relation_vectors["sit on top"], [1.0, 2.0])


def test_load_embeddings_without_graph_all_entities(tmp_path):
    table = EmbeddingTable(dim=2, entity_vectors={"a": np.array([1.0, 2.0])})
    path = tmp_path / "vec.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert np.array_equal(loaded.entity_vectors["a"], [1.0, 2.0])
    assert loaded.relation_vectors == {}


def test_save_load_underscore_and_backslash_phrases(tmp_path):
    vecs = {"hot_dog": np.array([1.0, 0.0]), "hot dog": np.array([0.0, 1.0]),
            "back\\slash": np.array([2.0, 2.0]), "\\rel:x": np.array([3.0, 3.0])}
    table = EmbeddingTable(dim=2, entity_vectors=vecs)
    path = tmp_path / "vec.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert set(loaded.entity_vectors) == set(vecs)
    for k, v in vecs.items():
        assert np.array_equal(loaded.entity_vectors[k], v)
    assert np.array_equal(embed_entry("hot_dog", loaded), [1.0, 0.0])


@given(st.dictionaries(st.text(alphabet="a_ \\rel:", min_size=1, max_size=6),
                       st.tuples(_GRID, _GRID), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_save_load_any_phrase_round_trips(tmp_path_factory, vecs):
    table = EmbeddingTable(dim=2, entity_vectors={k: np.array(v) for k, v in vecs.items()})
    path = tmp_path_factory.mktemp("vec") / "vec.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path)
    assert set(loaded.entity_vectors) == set(vecs)
    for k, v in vecs.items():
        assert np.array_equal(loaded.entity_vectors[k], v)


def test_save_load_keeps_both_vectors_of_dual_role_phrase(tmp_path):
    g = build_graph([Triple("dog", "part of", "animal"), Triple("part of", "be", "relation"),
                     Triple("cat", "part of", "animal")])
    table = train_transe(g, TransEConfig(dim=4, epochs=5, seed=0))
    assert not np.array_equal(table.entity_vectors["part of"],
                              table.relation_vectors["part of"])
    path = tmp_path / "vec.txt"
    save_embeddings(table, path)
    for graph in (g, None):
        loaded = load_embeddings(path, graph=graph)
        assert np.array_equal(loaded.entity_vectors["part of"], table.entity_vectors["part of"])
        assert np.array_equal(loaded.relation_vectors["part of"],
                              table.relation_vectors["part of"])
    loaded = load_embeddings(path, graph=g)
    for name in ("entity_vectors", "relation_vectors"):
        want, got = getattr(table, name), getattr(loaded, name)
        assert set(got) == set(want)
        assert all(np.array_equal(got[k], want[k]) for k in want)


def test_load_embeddings_reads_files_without_escapes(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 2\nred_car 0.5 -0.25\nsit_on_top 1 2\n")
    g = build_graph([Triple("red car", "sit on top", "red car")])
    loaded = load_embeddings(path, graph=g)
    assert np.array_equal(loaded.entity_vectors["red car"], [0.5, -0.25])
    assert np.array_equal(loaded.relation_vectors["sit on top"], [1.0, 2.0])


@pytest.mark.parametrize("body, where", [
    ("bad\\escape 1 2\n", "vec.txt:2"),
    ("trailing\\ 1 2\n", "vec.txt:2"),
    ("a 1 2\na 3 4\n", "vec.txt:3"),
    ("a 1 x\n", "vec.txt:2"),
    ("\\rel: 1 2\n", "vec.txt:2"),
    ("a nan 2\n", "vec.txt:2: non-finite"),
    ("a 1 2\nb 1 inf\n", "vec.txt:3: non-finite"),
    ("a -Infinity 2\n", "vec.txt:2: non-finite"),
])
def test_load_embeddings_rejects_bad_rows_with_location(tmp_path, body, where):
    path = tmp_path / "vec.txt"
    path.write_text(f"{body.count(chr(10))} 2\n{body}")
    with pytest.raises(ValueError, match=where):
        load_embeddings(path)


def test_load_embeddings_malformed(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("2 3\na 1.0 2.0 3.0\nb 1.0 2.0\n")
    with pytest.raises(ValueError):
        load_embeddings(path)
    path.write_text("5 2\na 1.0 2.0\n")
    with pytest.raises(ValueError):
        load_embeddings(path)


def test_load_embeddings_parses_into_one_adopted_matrix(tmp_path):
    # entity, relation and dual-role phrases interleave in the sorted file
    g = build_graph([Triple("dog", "part of", "animal"), Triple("part of", "be", "relation"),
                     Triple("cat", "bite", "dog")])
    table = train_transe(g, TransEConfig(dim=4, epochs=5, seed=2))
    path = tmp_path / "vec.txt"
    save_embeddings(table, path)
    loaded = load_embeddings(path, graph=g)
    buffer = loaded.entity_matrix.base
    assert buffer is not None and not buffer.flags.writeable
    assert not loaded.entity_matrix.flags.writeable
    for vectors, want in ((loaded.entity_vectors, table.entity_vectors),
                          (loaded.relation_vectors, table.relation_vectors)):
        assert vectors.keys() == want.keys()
        for phrase, vec in vectors.items():
            assert vec.base is buffer and not vec.flags.writeable
            assert vec.tobytes() == want[phrase].tobytes()
    assert list(loaded.entity_vectors) == sorted(table.entity_vectors)


def test_load_embeddings_sorts_entity_rows_given_out_of_order(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("3 2\nb 1 2\nr 5 6\na 3 4\n")
    loaded = load_embeddings(path)
    assert loaded.entity_matrix.tolist() == [[3.0, 4.0], [1.0, 2.0], [5.0, 6.0]]
    assert loaded.entity_row == {"a": 0, "b": 1, "r": 2}
    assert loaded.entity_vectors["b"].tolist() == [1.0, 2.0]
    assert not loaded.entity_matrix.flags.writeable


@pytest.mark.parametrize("text, where", [
    ("1 2\na 1 2\nb 3 4\n", r"vec\.txt:3: more rows than the header's 1"),
    ("-1 2\na 1 2\n", r"vec\.txt:2: more rows than the header's -1"),
    # a header claiming more than the file can hold allocates nothing of that size
    ("99999999999 99999999999\na 1 2\n", r"vec\.txt:2: expected phrase \+ 99999999999"),
    ("99999999999 2\na 1 2\n", r"vec\.txt: header says 99999999999 rows, found 1"),
])
def test_load_embeddings_names_a_header_the_rows_disagree_with(tmp_path, text, where):
    path = tmp_path / "vec.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        load_embeddings(path)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=20, deadline=None)
def test_train_transe_norms_hold_for_any_seed(seed):
    g = _chain_graph(6, 2)
    table = train_transe(g, TransEConfig(dim=4, epochs=5, seed=seed))
    for v in table.entity_vectors.values():
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
