"""Optimizer tests: Adam/SGD convergence, global-norm clipping."""

import numpy as np
import pytest

from repro.rl.optim import Adam, Sgd, clip_grads_by_global_norm, global_norm


class TestGlobalNorm:
    def test_norm_of_known_vectors(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        assert global_norm(grads) == pytest.approx(5.0)

    def test_clip_no_op_below_threshold(self):
        grads = {"a": np.array([0.3, 0.4])}
        clipped, norm = clip_grads_by_global_norm(grads, 1.0)
        assert norm == pytest.approx(0.5)
        assert clipped is grads

    def test_clip_scales_to_max_norm(self):
        grads = {"a": np.array([30.0]), "b": np.array([40.0])}
        clipped, norm = clip_grads_by_global_norm(grads, 5.0)
        assert norm == pytest.approx(50.0)
        assert global_norm(clipped) == pytest.approx(5.0)
        # direction preserved
        assert clipped["a"][0] / clipped["b"][0] == pytest.approx(3 / 4)

    def test_clip_rejects_bad_max(self):
        with pytest.raises(ValueError):
            clip_grads_by_global_norm({"a": np.ones(1)}, 0.0)

    def test_zero_gradient_untouched(self):
        grads = {"a": np.zeros(3)}
        clipped, norm = clip_grads_by_global_norm(grads, 1.0)
        assert norm == 0.0
        assert np.all(clipped["a"] == 0)


class TestAdam:
    def test_minimizes_quadratic(self):
        params = {"x": np.array([5.0, -3.0])}
        adam = Adam({"x": (2,)}, learning_rate=0.1)
        for _ in range(500):
            grads = {"x": 2 * params["x"]}
            updates = adam.step(grads)
            params["x"] += updates["x"]
        assert np.allclose(params["x"], 0.0, atol=1e-3)

    def test_minimizes_rosenbrock_slowly(self):
        params = {"p": np.array([-1.0, 1.0])}
        adam = Adam({"p": (2,)}, learning_rate=0.02)
        def grad(p):
            x, y = p
            return np.array([
                -2 * (1 - x) - 400 * x * (y - x**2),
                200 * (y - x**2),
            ])
        for _ in range(5000):
            updates = adam.step({"p": grad(params["p"])})
            params["p"] += updates["p"]
        assert np.allclose(params["p"], [1.0, 1.0], atol=0.05)

    def test_first_step_magnitude_is_lr(self):
        """Bias correction makes the very first Adam step ≈ lr·sign(g)."""
        adam = Adam({"x": (1,)}, learning_rate=0.5)
        update = adam.step({"x": np.array([123.0])})
        assert update["x"][0] == pytest.approx(-0.5, rel=1e-4)

    def test_rejects_unknown_keys(self):
        adam = Adam({"x": (1,)}, learning_rate=0.1)
        with pytest.raises(KeyError):
            adam.step({"y": np.zeros(1)})

    def test_rejects_shape_mismatch(self):
        adam = Adam({"x": (2,)}, learning_rate=0.1)
        with pytest.raises(ValueError):
            adam.step({"x": np.zeros(3)})

    def test_for_params_constructor(self, rng):
        params = {"w": rng.random((3, 4)), "b": rng.random(4)}
        adam = Adam.for_params(params, learning_rate=0.1)
        updates = adam.step({"w": np.ones((3, 4)), "b": np.ones(4)})
        assert updates["w"].shape == (3, 4)
        assert adam.step_count == 1

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            Adam({"x": (1,)}, learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam({"x": (1,)}, learning_rate=0.1, beta1=1.0)

    def test_partial_update_only_touches_given_keys(self):
        adam = Adam({"x": (1,), "y": (1,)}, learning_rate=0.1)
        updates = adam.step({"x": np.ones(1)})
        assert set(updates) == {"x"}

    def test_matches_textbook_formula_bit_for_bit(self, rng):
        """The buffered step equals the allocating formula exactly."""
        shapes = {"w": (7, 5), "b": (5,)}
        lr, b1, b2, eps = 3e-4, 0.9, 0.999, 1e-7
        adam = Adam(shapes, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        for t in range(1, 51):
            grads = {k: rng.normal(scale=10.0 ** rng.integers(-4, 3), size=s)
                     for k, s in shapes.items()}
            updates = adam.step(grads)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * np.square(g)
                m_hat = m[k] / (1.0 - b1**t)
                v_hat = v[k] / (1.0 - b2**t)
                expected = -lr * m_hat / (np.sqrt(v_hat) + eps)
                np.testing.assert_array_equal(updates[k], expected)


class TestSgd:
    def test_minimizes_quadratic(self):
        params = {"x": np.array([4.0])}
        sgd = Sgd({"x": (1,)}, learning_rate=0.1)
        for _ in range(200):
            params["x"] += sgd.step({"x": 2 * params["x"]})["x"]
        assert abs(params["x"][0]) < 1e-3

    def test_momentum_accelerates(self):
        def loss_after(momentum, steps=50):
            params = np.array([10.0])
            opt = Sgd({"x": (1,)}, learning_rate=0.01, momentum=momentum)
            for _ in range(steps):
                params += opt.step({"x": 2 * params})["x"]
            return abs(params[0])

        assert loss_after(0.9) < loss_after(0.0)

    def test_rejects_unknown_key(self):
        sgd = Sgd({"x": (1,)})
        with pytest.raises(KeyError):
            sgd.step({"z": np.zeros(1)})

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            Sgd({"x": (1,)}, learning_rate=-1.0)
        with pytest.raises(ValueError):
            Sgd({"x": (1,)}, momentum=1.0)
