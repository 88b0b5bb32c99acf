"""Tape autodiff: op gradients vs central differences; Adam and clipping over
named gradients; store IO."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selprover import autodiff as ad


def make_store(**arrays):
    store = ad.ParameterStore()
    for k, v in arrays.items():
        store.add(k, np.asarray(v, dtype=np.float64))
    return store


class TestPrimitiveGradients:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_composite_expression(self, seed):
        """Random composite of the core ops agrees with central differences."""
        rng = np.random.default_rng(seed)
        store = make_store(a=rng.normal(size=(3, 4)), b=rng.normal(size=(4, 2)),
                           c=rng.normal(size=2))

        def f(s, tape):
            h = ad.matmul(tape.leaf("a"), tape.leaf("b"))
            h = ad.add(h, tape.leaf("c"))
            h = ad.tanh(h)
            g = ad.sigmoid(ad.mul(h, 0.5))
            return ad.vsum(ad.mul(g, h))

        assert ad.finite_difference_check(f, store, rng=rng) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_log_exp(self, seed):
        # sigmoid is the tape's exponential op
        rng = np.random.default_rng(seed)
        store = make_store(x=rng.uniform(0.5, 2.0, size=5))

        def f(s, tape):
            x = tape.leaf("x")
            return ad.vsum(ad.add(ad.log(x), ad.sigmoid(ad.mul(x, -1.0))))

        assert ad.finite_difference_check(f, store, rng=rng) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_concat_gather(self, seed):
        rng = np.random.default_rng(seed)
        store = make_store(e=rng.normal(size=(6, 3)))
        idx = rng.integers(0, 6, size=4)

        def f(s, tape):
            rows = tape.rows("e", idx)
            both = ad.concat_cols(rows, ad.mul(rows, 2.0))
            return ad.vsum(ad.mul(both, both))

        assert ad.finite_difference_check(f, store, rng=rng) < 1e-4

    def test_broadcast_add_bias(self):
        store = make_store(w=np.ones((3, 2)), b=np.array([1.0, 2.0]))
        tape = ad.Tape(store)
        out = ad.vsum(ad.add(tape.leaf("w"), tape.leaf("b")))
        tape.backward(out)
        np.testing.assert_array_equal(tape.leaves["b"].grad, [3.0, 3.0])

    def test_sum_list_empty_is_zero(self):
        assert ad.sum_list([]).item() == 0.0


class TestSoftmaxCE:
    def test_softmax_normalizes(self):
        rng = np.random.default_rng(3)
        x = ad.Value(rng.normal(size=(4, 7)))
        s = ad.softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=1), 1.0, rtol=1e-9)
        assert np.all(s.data > 0)

    def test_ce_matches_manual(self):
        logits = np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        targets = [1, 2]
        out = ad.cross_entropy_logits(ad.Value(logits), targets)
        expect = 0.0
        for row, t in zip(logits, targets):
            expect += -(row[t] - np.log(np.exp(row).sum()))
        assert out.item() == pytest.approx(expect / 2, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_ce_gradient(self, seed):
        rng = np.random.default_rng(seed)
        store = make_store(W=rng.normal(size=(3, 5)))
        targets = rng.integers(0, 5, size=3)

        def f(s, tape):
            return ad.cross_entropy_logits(tape.leaf("W"), targets)

        assert ad.finite_difference_check(f, store, rng=rng) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_softmax_gradient(self, seed):
        rng = np.random.default_rng(seed)
        store = make_store(W=rng.normal(size=(2, 4)))
        pick = np.zeros((4, 1))
        pick[int(rng.integers(4))] = 1.0

        def f(s, tape):
            probs = ad.softmax(tape.leaf("W"))
            return ad.vsum(ad.matmul(probs, ad.Value(pick)))

        assert ad.finite_difference_check(f, store, rng=rng) < 1e-4


class TestAdam:
    def test_first_step_magnitude(self):
        # single scalar parameter, grad 1, lr 0.1: bias-corrected step moves ~lr
        store = make_store(w=np.zeros(1))
        ad.adam_step(store, {"w": np.ones(1)}, lr=0.1)
        assert store["w"][0] == pytest.approx(-0.1, rel=1e-6)
        assert store.step_count == 1

    def test_zero_gradients_no_move(self):
        store = make_store(w=np.array([1.0, 2.0]))
        before = store["w"].copy()
        ad.adam_step(store, {"w": np.zeros(2)}, lr=0.1)
        np.testing.assert_array_equal(store["w"], before)

    def test_statefulness_across_calls(self):
        store = make_store(w=np.zeros(1))
        grads = {"w": np.ones(1)}
        ad.adam_step(store, grads, lr=0.1)
        first = store["w"].copy()
        ad.adam_step(store, grads, lr=0.1)
        second = store["w"] - first
        assert store.step_count == 2
        assert not np.array_equal(first, second)

    def test_nonfinite_gradient_rejected(self):
        store = make_store(w=np.zeros(2), u=np.zeros(1))
        ad.adam_step(store, {"w": np.array([np.nan, 1.0]), "u": np.ones(1)},
                     lr=0.1)
        np.testing.assert_array_equal(store["w"], np.zeros(2))  # rejected
        assert store["u"][0] != 0.0  # healthy parameter still moved
        assert store.rejected_updates == 1

    def test_param_filter(self):
        store = make_store(a=np.zeros(1), b=np.zeros(1))
        ad.adam_step(store, {"a": np.ones(1), "b": np.ones(1)}, lr=0.1,
                     param_filter=lambda n: n == "a")
        assert store["a"][0] != 0.0 and store["b"][0] == 0.0

    def test_determinism(self):
        def run():
            store = make_store(w=np.full(3, 0.5))
            for _ in range(5):
                ad.adam_step(store, {"w": 2.0 * store["w"]}, lr=0.01)
            return store["w"].copy()

        np.testing.assert_array_equal(run(), run())

    def test_tape_gradients_feed_adam(self):
        # the generator's path: gradients read off a tape after backward
        store = make_store(w=np.zeros(1))
        tape = ad.Tape(store)
        tape.backward(ad.vsum(tape.leaf("w")))  # d/dw = 1
        ad.adam_step(store, tape.gradients(), lr=0.1)
        assert store["w"][0] == pytest.approx(-0.1, rel=1e-6)


class TestClip:
    def test_clip_scales_to_max_norm(self):
        grads = {"w": np.full(4, 10.0), "b": np.zeros(2)}
        norm = ad.clip_gradients(grads, max_norm=5.0)
        assert norm == pytest.approx(20.0)
        np.testing.assert_allclose(grads["w"], 2.5, rtol=1e-12)
        np.testing.assert_array_equal(grads["b"], 0.0)

    def test_no_scaling_below_max(self):
        grads = {"w": np.ones(4)}
        assert ad.clip_gradients(grads, max_norm=5.0) == pytest.approx(2.0)
        np.testing.assert_array_equal(grads["w"], 1.0)

    def test_global_norm_spans_every_parameter(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert ad.clip_gradients(grads, max_norm=1.0) == pytest.approx(5.0)
        np.testing.assert_allclose([grads["a"][0], grads["b"][0]], [0.6, 0.8],
                                   rtol=1e-12)


class TestFiniteDifference:
    def test_sum_of_squares_tight(self):
        store = make_store(x=np.array([0.5, -1.5, 2.0]))

        def f(s, tape):
            x = tape.leaf("x")
            return ad.vsum(ad.mul(x, x))

        assert ad.finite_difference_check(f, store) < 1e-6

    def test_constant_function_zero_error(self):
        store = make_store(x=np.ones(3))

        def f(s, tape):
            tape.leaf("x")  # touched but unused
            return ad.Value(3.14)

        assert ad.finite_difference_check(f, store) == 0.0


class TestParameterStore:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        store = make_store(a=rng.normal(size=(3, 4)), b=rng.normal(size=7))
        ad.adam_step(store, {"a": np.full((3, 4), 2.0)}, lr=0.1)
        path = tmp_path / "store.npz"
        store.save(path)
        back = ad.ParameterStore.load(path)
        assert back.step_count == store.step_count
        assert sorted(back.names()) == sorted(store.names())
        for name in store.names():
            np.testing.assert_array_equal(back[name], store[name])
        # optimizer state must survive so training resumes identically
        ad.adam_step(store, {"a": np.full((3, 4), 2.0)}, lr=0.1)
        ad.adam_step(back, {"a": np.full((3, 4), 2.0)}, lr=0.1)
        np.testing.assert_array_equal(back["a"], store["a"])

    def test_duplicate_name_rejected(self):
        store = make_store(a=np.zeros(1))
        with pytest.raises(ValueError):
            store.add("a", np.zeros(1))

    def test_unknown_lookup(self):
        store = make_store(a=np.zeros(1))
        with pytest.raises(KeyError):
            store["missing"]
