from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from faultcast.autoencoder import (
    AutoencoderModel,
    TrainingConfig,
    bottleneck_layer_sizes,
    forward,
    init_autoencoder,
    loss_and_gradients,
    random_model,
    train,
)
from faultcast.errors import DimensionMismatch, NonFiniteLoss
from helpers import (
    batch_loss,
    copy_model,
    linear_model,
    reference_loss_and_gradients,
    reference_train,
    zero_model,
)


@pytest.mark.parametrize(
    "n,expected",
    [
        (8, [8, 4, 2, 4, 8]),
        (3, [3, 2, 2, 2, 3]),
        (12, [12, 6, 3, 6, 12]),
        (1, [1, 1, 2, 1, 1]),
        (2, [2, 1, 2, 1, 2]),
    ],
)
def test_bottleneck_layer_sizes(n, expected):
    assert bottleneck_layer_sizes(n) == expected


def test_bottleneck_layer_sizes_rejects_non_positive():
    with pytest.raises(ValueError):
        bottleneck_layer_sizes(0)


@given(n=st.integers(min_value=1, max_value=64))
def test_bottleneck_layer_sizes_shape(n):
    sizes = bottleneck_layer_sizes(n)
    assert len(sizes) == 5
    assert sizes[0] == sizes[-1] == n
    assert sizes == sizes[::-1]
    assert sizes[1] == math.ceil(n / 2)
    assert sizes[2] == max(2, math.ceil(n / 4))


def test_model_validation():
    with pytest.raises(ValueError):
        AutoencoderModel(layer_sizes=[4], weights=[], biases=[])
    with pytest.raises(ValueError):
        AutoencoderModel(
            layer_sizes=[4, 2, 4, 2],  # not a palindrome
            weights=[np.zeros((4, 2)), np.zeros((2, 4)), np.zeros((4, 2))],
            biases=[np.zeros(2), np.zeros(4), np.zeros(2)],
        )
    with pytest.raises(DimensionMismatch):
        AutoencoderModel(
            layer_sizes=[2, 1, 2],
            weights=[np.zeros((2, 1))],  # one matrix missing
            biases=[np.zeros(1)],
        )
    with pytest.raises(DimensionMismatch):
        AutoencoderModel(
            layer_sizes=[2, 1, 2],
            weights=[np.zeros((2, 2)), np.zeros((2, 2))],  # wrong shapes
            biases=[np.zeros(1), np.zeros(2)],
        )


def test_random_model_glorot_bounds_and_zero_biases():
    sizes = [8, 4, 2, 4, 8]
    model = random_model(sizes, seed=7)
    for weight, bias, fan_in, fan_out in zip(
        model.weights, model.biases, sizes, sizes[1:]
    ):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert weight.shape == (fan_in, fan_out)
        assert np.all(np.abs(weight) <= limit)
        assert np.all(bias == 0.0)


def test_random_model_is_deterministic_per_seed():
    a = random_model([4, 2, 2, 2, 4], seed=3)
    b = random_model([4, 2, 2, 2, 4], seed=3)
    c = random_model([4, 2, 2, 2, 4], seed=4)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_init_autoencoder_uses_standard_sizes():
    model = init_autoencoder(8, seed=0)
    assert model.layer_sizes == [8, 4, 2, 4, 8]
    assert model.n_inputs == 8


def test_forward_zero_model_outputs_zero():
    model = zero_model(3)
    out = forward(model, np.array([1.0, -2.0, 5.0]))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_forward_single_linear_layer_is_affine():
    """With one layer there is no hidden activation: y = x @ W + b."""
    model = linear_model(np.array([[2.0, 0.0], [0.0, -1.0]]), np.array([0.5, 0.25]))
    out = forward(model, np.array([3.0, 4.0]))
    np.testing.assert_allclose(out, [6.5, -3.75], rtol=0, atol=0)


def test_forward_hand_computed_two_layer_network():
    """One tanh hidden unit then a linear read-out, checked to 1e-12."""
    model = AutoencoderModel(
        layer_sizes=[1, 1, 1],
        weights=[np.array([[0.7]]), np.array([[1.3]])],
        biases=[np.array([0.1]), np.array([-0.2])],
    )
    x = 0.9
    expected = 1.3 * np.tanh(0.7 * x + 0.1) - 0.2
    out = forward(model, np.array([x]))
    assert abs(out[0] - expected) <= 1e-12


def test_forward_batch_matches_row_by_row():
    model = random_model([3, 2, 2, 2, 3], seed=5)
    batch = np.random.default_rng(0).normal(size=(6, 3))
    out = forward(model, batch)
    assert out.shape == (6, 3)
    for i in range(6):
        np.testing.assert_allclose(out[i], forward(model, batch[i]), atol=1e-15)


def test_forward_rejects_wrong_width():
    model = zero_model(3)
    with pytest.raises(DimensionMismatch):
        forward(model, np.zeros(4))


def test_loss_matches_reference_objective():
    model = random_model([4, 2, 2, 2, 4], seed=9)
    batch = np.random.default_rng(1).normal(size=(10, 4))
    loss, _, _ = loss_and_gradients(model, batch)
    assert loss == pytest.approx(batch_loss(model, batch), rel=1e-12)


def finite_difference_gradients(model, batch, h=1e-5):
    grad_w = [np.zeros_like(w) for w in model.weights]
    grad_b = [np.zeros_like(b) for b in model.biases]
    for layer, weight in enumerate(model.weights):
        for idx in np.ndindex(weight.shape):
            probe = copy_model(model)
            probe.weights[layer][idx] += h
            up = batch_loss(probe, batch)
            probe.weights[layer][idx] -= 2 * h
            down = batch_loss(probe, batch)
            grad_w[layer][idx] = (up - down) / (2 * h)
    for layer, bias in enumerate(model.biases):
        for idx in np.ndindex(bias.shape):
            probe = copy_model(model)
            probe.biases[layer][idx] += h
            up = batch_loss(probe, batch)
            probe.biases[layer][idx] -= 2 * h
            down = batch_loss(probe, batch)
            grad_b[layer][idx] = (up - down) / (2 * h)
    return grad_w, grad_b


def test_analytic_gradients_match_finite_differences():
    model = random_model([4, 3, 2, 3, 4], seed=21)
    batch = np.random.default_rng(2).normal(size=(5, 4))
    _, grad_w, grad_b = loss_and_gradients(model, batch)
    fd_w, fd_b = finite_difference_gradients(model, batch)
    for analytic, numeric in zip(grad_w + grad_b, fd_w + fd_b):
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)


def test_train_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(120, 1))
    data = np.hstack([base, 0.5 * base])  # a learnable 1-D structure
    model = init_autoencoder(2, seed=0)
    config = TrainingConfig(epochs=40, learning_rate=0.05, seed=5)
    trained, curve = train(model, data, config)
    assert len(curve) == 40
    assert curve[-1] <= curve[0]
    # the input model is untouched
    np.testing.assert_array_equal(model.weights[0], init_autoencoder(2, seed=0).weights[0])
    again, curve2 = train(model, data, config)
    assert curve2 == curve
    for w1, w2 in zip(trained.weights, again.weights):
        np.testing.assert_array_equal(w1, w2)


def test_train_constant_dataset_reaches_tiny_loss():
    data = np.zeros((50, 3))
    model = init_autoencoder(3, seed=1)
    trained, curve = train(model, data, TrainingConfig(epochs=30, seed=0))
    assert curve[-1] < 1e-3
    errors = np.mean((data - forward(trained, data)) ** 2, axis=1)
    assert float(np.std(errors)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_raises_on_divergence():
    data = np.random.default_rng(4).normal(scale=100.0, size=(40, 3))
    model = init_autoencoder(3, seed=2)
    with pytest.raises(NonFiniteLoss):
        train(model, data, TrainingConfig(epochs=50, learning_rate=1e6, seed=0))


def _parameter_bytes(model):
    return [a.tobytes() for a in model.weights + model.biases]


@pytest.mark.parametrize("batch_size", [None, 1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 12, 50])
def test_train_keeps_the_bits_of_per_array_updates(n, batch_size):
    """Rows that do not divide the batch, and fewer rows than 32, over several seeds."""
    for rows in (5, 31, 45, 100):
        for seed in (0, 1, 2):
            data = np.random.default_rng(seed).normal(size=(rows, n))
            model = init_autoencoder(n, seed=seed)
            config = TrainingConfig(epochs=3, learning_rate=0.05, batch_size=batch_size, seed=seed)
            trained, curve = train(model, data, config)
            expected, expected_curve = reference_train(model, data, config)
            assert curve == expected_curve
            assert _parameter_bytes(trained) == _parameter_bytes(expected)
            loss, grads_w, grads_b = loss_and_gradients(trained, data)
            expected_loss, expected_w, expected_b = reference_loss_and_gradients(trained, data)
            assert loss == expected_loss
            assert [g.tobytes() for g in grads_w + grads_b] == [g.tobytes() for g in expected_w + expected_b]


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("learning_rate", [30.0, 100.0, 1e6])
def test_divergence_is_raised_at_the_epoch_of_per_array_updates(learning_rate):
    data = np.random.default_rng(4).normal(scale=3.0, size=(40, 3))
    model = init_autoencoder(3, seed=2)
    config = TrainingConfig(epochs=60, learning_rate=learning_rate, seed=0)
    with pytest.raises(NonFiniteLoss) as expected:
        reference_train(model, data, config)
    with pytest.raises(NonFiniteLoss, match=f"^{expected.value}$"):
        train(model, data, config)


def test_train_leaves_its_input_alone_and_returns_arrays_of_their_own():
    model = init_autoencoder(12, seed=3)
    before = _parameter_bytes(model)
    trained, _ = train(model, np.random.default_rng(5).normal(size=(70, 12)), TrainingConfig(epochs=2))
    assert _parameter_bytes(model) == before
    for array in trained.weights + trained.biases:
        assert array.base is None and array.flags.owndata
        assert array.flags.c_contiguous and array.flags.writeable
        assert array.dtype == np.float64


def test_training_config_validation_and_batch_resolution():
    with pytest.raises(ValueError):
        TrainingConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainingConfig(batch_size=0)
    assert TrainingConfig().resolve_batch_size(10) == 10
    assert TrainingConfig().resolve_batch_size(100) == 32
    assert TrainingConfig(batch_size=8).resolve_batch_size(100) == 8
