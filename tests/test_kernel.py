"""Numeric kernel: softmax variants, loss, SGD, finite differences."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vkmn.kernel import (
    _log_sum_exp,
    cross_entropy_grad,
    cross_entropy_loss,
    finite_diff_grad,
    masked_softmax,
    max_relative_error,
    sgd_step,
    softmax,
    tanh_map,
)

finite_vecs = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
    min_size=1,
    max_size=12,
).map(lambda xs: np.asarray(xs, dtype=np.float64))


def test_softmax_oracle_values():
    # independent recomputation with math.exp, no max subtraction
    scores = [1.0, 2.0, 3.0]
    z = sum(math.exp(s) for s in scores)
    expected = np.array([math.exp(s) / z for s in scores])
    got = softmax(np.array(scores))
    assert np.max(np.abs(got - expected)) < 1e-8
    # frozen values for the canonical example
    assert abs(got[0] - 0.09003057317038046) < 1e-12
    assert abs(got[1] - 0.24472847105479767) < 1e-12
    assert abs(got[2] - 0.66524095577482183) < 1e-12


def test_softmax_overflow_safe():
    p = softmax(np.array([1000.0, 1000.0]))
    assert np.all(np.isfinite(p))
    assert abs(p[0] - 0.5) < 1e-12


@given(finite_vecs)
@settings(max_examples=200, deadline=None)
def test_softmax_is_distribution(v):
    p = softmax(v)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p > 0.0)
    assert np.all(p <= 1.0)


@given(finite_vecs, st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance(v, c):
    assert np.max(np.abs(softmax(v) - softmax(v + c))) < 1e-12


def test_masked_softmax_excludes_before_exponentiation():
    # a huge masked score must not leak mass into the result
    scores = np.array([1.0, 2.0, 1e6])
    mask = np.array([True, True, False])
    p = masked_softmax(scores, mask)
    assert np.all(np.isfinite(p))
    assert p[2] == 0.0
    ref = softmax(np.array([1.0, 2.0]))
    assert abs(p[0] - ref[0]) < 1e-12
    assert abs(p[1] - ref[1]) < 1e-12


def test_masked_softmax_all_masked_raises():
    with pytest.raises(ValueError):
        masked_softmax(np.array([1.0, 2.0]), np.array([False, False]))


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                min_size=n,
                max_size=n,
            ),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_masked_softmax_properties(pair):
    scores, mask = np.asarray(pair[0]), np.asarray(pair[1], dtype=bool)
    if not mask.any():
        with pytest.raises(ValueError):
            masked_softmax(scores, mask)
        return
    p = masked_softmax(scores, mask)
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p[~mask] == 0.0)  # exact zeros, not tiny values
    assert np.all(p[mask] > 0.0)


@given(
    # a stack of shape (n, M) or (B, n, M) and its (M,) mask
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2).flatmap(
        lambda lead: st.integers(min_value=1, max_value=10).flatmap(
            lambda m: st.tuples(
                st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                         min_size=math.prod(lead) * m, max_size=math.prod(lead) * m).map(
                    lambda xs: np.reshape(xs, (*lead, m))),
                st.lists(st.booleans(), min_size=m, max_size=m).filter(any),
            )
        )
    )
)
@settings(max_examples=200, deadline=None)
@example(pair=([[0.0] * 10, [0.0] * 6 + [48.0, 11.0, 31.5, 0.0]],
               [False] + [True] * 8 + [False]))  # a stacked sum once differed here
def test_masked_softmax_rows_match_one_d_calls(pair):
    scores, mask = np.asarray(pair[0]), np.asarray(pair[1], dtype=bool)
    p = masked_softmax(scores, mask)
    assert p.shape == scores.shape
    for row, p_row in zip(scores.reshape(-1, mask.size), p.reshape(-1, mask.size)):
        assert p_row.tobytes() == masked_softmax(row, mask).tobytes()
    with pytest.raises(ValueError):
        masked_softmax(scores, np.append(mask, True))
    with pytest.raises(ValueError):
        masked_softmax(scores, mask[:-1])


@given(
    # scores (B, n, M) and a per-row mask (B, 1, M), (B, n, M) or (n, M)
    st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 8),
              st.sampled_from(["B1M", "BnM", "nM"])).flatmap(
        lambda dims: st.tuples(
            st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False),
                     min_size=math.prod(dims[:3]), max_size=math.prod(dims[:3])).map(
                lambda xs: np.reshape(xs, dims[:3])),
            st.lists(st.booleans(), min_size=math.prod(dims[:3]),
                     max_size=math.prod(dims[:3])).map(
                lambda bs: np.reshape(bs, dims[:3])[
                    {"B1M": (slice(None), slice(0, 1)), "BnM": (), "nM": 0}[dims[3]]]),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_masked_softmax_per_row_masks(pair):
    scores, mask = pair
    rows = np.broadcast_to(mask, scores.shape).reshape(-1, scores.shape[-1])
    if not rows.any(axis=-1).all():  # a row with no live slot
        with pytest.raises(ValueError, match="at least one unmasked slot in every row"):
            masked_softmax(scores, mask)
        return
    p = masked_softmax(scores, mask)
    assert p.shape == scores.shape
    for row, row_mask, p_row in zip(scores.reshape(rows.shape), rows, p.reshape(rows.shape)):
        assert p_row.tobytes() == masked_softmax(row, row_mask).tobytes()
    # the mask broadcasts as (..., M) or not at all
    for bad in (np.ones((scores.shape[0] + 1, 1, scores.shape[-1]), dtype=bool),
                np.ones((1,) + scores.shape, dtype=bool),
                np.ones(scores.shape[:-1] + (scores.shape[-1] + 1,), dtype=bool)):
        with pytest.raises(ValueError, match="does not broadcast"):
            masked_softmax(scores, bad)


def _masked_softmax_by_index(scores, mask):
    """masked_softmax as a boolean scatter into a zero-filled output."""
    out = np.zeros_like(scores)
    live = scores[..., mask]
    live = np.exp(live - live.max(axis=-1, keepdims=True))
    out[..., mask] = live / np.cumsum(live, axis=-1)[..., -1:]
    return out


@given(
    # one row (M,) or a stack (B, n, M) of any finite scores, and its mask
    st.sampled_from([(), (1, 1), (2, 3), (4, 1)]).flatmap(
        lambda lead: st.integers(min_value=1, max_value=12).flatmap(
            lambda m: st.tuples(
                st.lists(st.one_of(st.floats(min_value=-50, max_value=50),
                                   st.floats(allow_nan=False, allow_infinity=False)),
                         min_size=math.prod(lead) * m, max_size=math.prod(lead) * m).map(
                    lambda xs: np.reshape(np.asarray(xs, dtype=np.float64), (*lead, m))),
                st.lists(st.booleans(), min_size=m, max_size=m).filter(any),
            )
        )
    )
)
@settings(max_examples=300, deadline=None)
@example(pair=([1e308, -1e308, 0.0, -0.0], [True, True, False, True]))
@example(pair=([0.1, 4.5, -3.6, 4.5, -1.9, -0.8, 3.3, -0.9, 0.5, 9.0],
               [True] * 9 + [False]))  # a pairwise sum differs from cumsum here
@example(pair=([[[0.0] * 10, [0.0] * 6 + [48.0, 11.0, 31.5, 0.0]]],
               [False] + [True] * 8 + [False]))
def test_masked_softmax_bits_equal_boolean_index_form(pair):
    scores, mask = np.asarray(pair[0]), np.asarray(pair[1], dtype=bool)
    with np.errstate(over="ignore"):  # -1e308 - 1e308 is -inf, exp'd to 0
        got, want = masked_softmax(scores, mask), _masked_softmax_by_index(scores, mask)
    assert got.tobytes() == want.tobytes()


_ONE_MINUS = np.nextafter(1.0, 0.0)


@given(st.lists(st.one_of(st.floats(allow_nan=False),
                          st.sampled_from([19.0, -19.0, 19.5, -19.5, math.inf, -math.inf,
                                           -0.0, 0.0, 5e-324, -5e-324])),
                min_size=1, max_size=24),
       st.sampled_from([(-1,), (2, -1), (2, 1, -1)]))
@settings(max_examples=300, deadline=None)
@example(values=[19.0, -19.0, math.inf, -math.inf, -0.0, 0.0], shape=(-1,))
def test_tanh_map_bits_equal_clip_form(values, shape):
    v = np.asarray(values * math.prod(shape[:-1]), dtype=np.float64).reshape(shape)
    got = tanh_map(v)
    assert got.shape == v.shape
    assert got.tobytes() == np.clip(np.tanh(v), -_ONE_MINUS, _ONE_MINUS).tobytes()


def test_tanh_map_strictly_inside_unit_interval():
    x = tanh_map(np.array([1e9, -1e9, 0.0]))
    assert x[0] < 1.0
    assert x[1] > -1.0
    assert x[2] == 0.0


@given(finite_vecs)
@settings(max_examples=200, deadline=None)
def test_tanh_map_bounds(v):
    x = tanh_map(v)
    assert np.all(np.abs(x) < 1.0)


def test_tanh_map_preserves_matrix_shape():
    m = np.arange(6.0).reshape(2, 3)
    assert tanh_map(m).shape == (2, 3)
    # a 0-d input is clamped too, though np.tanh gives it back as a scalar
    for x in (30.0, np.float64(-30.0), np.array(0.5)):
        assert tanh_map(x).shape == ()
        assert tanh_map(x).tobytes() == np.clip(np.tanh(x), -_ONE_MINUS, _ONE_MINUS).tobytes()


def test_log_sum_exp_stable():
    big = np.array([1000.0, 1000.0])
    assert abs(_log_sum_exp(big) - (1000.0 + math.log(2.0))) < 1e-9
    assert abs(cross_entropy_loss(big, 0) - math.log(2.0)) < 1e-12


def test_cross_entropy_matches_log_softmax():
    logits = np.array([0.0, 0.0])
    assert abs(cross_entropy_loss(logits, 0) - math.log(2.0)) < 1e-12
    logits = np.array([2.0, -1.0, 0.5])
    for k in range(3):
        fused = cross_entropy_loss(logits, k)
        naive = -math.log(softmax(logits)[k])
        assert abs(fused - naive) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises((IndexError, ValueError)):
        cross_entropy_loss(np.array([0.0, 1.0]), 5)


@given(finite_vecs, st.integers(min_value=0, max_value=11))
@settings(max_examples=100, deadline=None)
def test_cross_entropy_loss_and_grad_keep_their_bits(v, k):
    # one conversion of the logits: the same bits as _log_sum_exp, and as
    # softmax minus the one-hot label
    k %= len(v)
    assert cross_entropy_loss(v, k) == _log_sum_exp(v) - float(v[k])
    want = softmax(v)
    want[k] -= 1.0
    before = v.tobytes()
    assert cross_entropy_grad(v, k).tobytes() == want.tobytes()
    assert v.tobytes() == before


@given(st.integers(min_value=1, max_value=12).flatmap(lambda k: st.lists(
           st.tuples(st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                              min_size=k, max_size=k),
                     st.integers(min_value=0, max_value=k - 1)),
           min_size=1, max_size=6)))
@settings(max_examples=100, deadline=None)
def test_cross_entropy_grad_rows_equal_one_row_calls(rows):
    logits = np.array([v for v, _ in rows])
    labels = np.array([k for _, k in rows])
    got = cross_entropy_grad(logits, labels)
    assert got.shape == logits.shape
    for row, v, k in zip(got, logits, labels):
        assert row.tobytes() == cross_entropy_grad(v, int(k)).tobytes()


def test_sgd_step_in_place():
    params = {"w": np.array([1.0, 2.0])}
    grads = {"w": np.array([0.5, -1.0])}
    ref = params["w"]
    sgd_step(params, grads, lr=0.1)
    assert params["w"] is ref  # updated in place, not replaced
    assert np.allclose(params["w"], [0.95, 2.1])
    sgd_step(params, grads, lr=0.0)
    assert np.allclose(params["w"], [0.95, 2.1])


def test_finite_diff_grad_quadratic():
    # f(x) = sum(c * x^2) has exact gradient 2*c*x
    c = np.array([1.0, 2.0, 3.0])
    params = {"x": np.array([0.3, -0.7, 1.1])}
    before = params["x"].copy()

    def loss(ps):
        return float(np.sum(c * ps["x"] ** 2))

    num = finite_diff_grad(loss, params)
    assert np.max(np.abs(num["x"] - 2.0 * c * params["x"])) < 1e-6
    assert np.array_equal(params["x"], before)  # params restored


def test_max_relative_error_known_value():
    a = {"w": np.array([1.0, 0.0])}
    b = {"w": np.array([1.0, 0.0])}
    assert max_relative_error(a, b) == 0.0
    b = {"w": np.array([1.1, 0.0])}
    err = max_relative_error(a, b)
    assert abs(err - 0.1 / 2.1) < 1e-12
