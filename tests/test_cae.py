"""Auto-encoder tests: forward passes against hand-evaluated cases, analytic
gradients against central finite differences, trainer behavior."""

import copy
import math
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from oracles import central_diff_grad, max_rel_error
from zbcae import cae, ops
from zbcae.cae import (
    BIAS_ALWAYS_ZERO,
    BIAS_TRAIN_THEN_ZERO,
    CaeGradients,
    CaeModel,
    CaeTrainConfig,
    encode,
    extract_features,
    init_model,
    loss_gradients,
    reconstruction_loss,
    sgd_step,
    train,
)
from zbcae.errors import NonFiniteLossError, ShapeError
from zbcae.ops import (
    conv2d,
    conv2d_bias_grad,
    conv2d_input_grad,
    conv2d_weight_grad,
    relu,
    tied_decoder_weights,
)


def identity_center_model(bias=0.0):
    """K=C=1 model whose 3x3 kernel is 1 at the center: encode is
    relu(x + b)."""
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    return CaeModel(w_e=w, b_e=np.array([bias]), b_d=np.zeros(1))


def bias_mode_of(zero_bias):
    return BIAS_ALWAYS_ZERO if zero_bias else BIAS_TRAIN_THEN_ZERO


def decode(model, z, zero_bias=False):
    """Per-sample reference decoder: relu(conv2d(z, tied(W_e)) + b_d) through
    the explicit tied bank."""
    b = np.zeros(model.n_channels) if zero_bias else model.b_d
    return relu(conv2d(z, tied_decoder_weights(model.w_e), b))


def workspace(model, x):
    """A step workspace for the (B, C, H, W) batch x."""
    return cae._Workspace(model, x.shape[1:], len(x))


def biases(model, bias_mode):
    """(b_e, b_d) of the forward pass under ``bias_mode``: the model's, or
    zeros when always-zero pins them."""
    if bias_mode == BIAS_TRAIN_THEN_ZERO:
        return model.b_e, model.b_d
    return np.zeros(model.n_filters), np.zeros(model.n_channels)


def forward(model, x, zero_bias=False):
    """The reconstruction of a (B, C, H, W) batch by the batched forward pass."""
    b_e, b_d = biases(model, bias_mode_of(zero_bias))
    return relu(cae._forward(model, x, b_e, b_d, workspace(model, x))[1])


def one_sample_chunks(monkeypatch):
    """Make every training chunk a single sample."""
    monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", 1)


def random_model(rng, k=3, c=2, kernel=3, bias_scale=0.1):
    model = init_model(k, c, kernel, seed=int(rng.integers(0, 2**31)))
    model.b_e = rng.normal(0.0, bias_scale, size=k)
    model.b_d = rng.normal(0.0, bias_scale, size=c)
    return model


class TestInitModel:
    def test_same_seed_is_bit_identical(self):
        a = init_model(4, 3, 3, seed=99)
        b = init_model(4, 3, 3, seed=99)
        npt.assert_array_equal(a.w_e, b.w_e)
        npt.assert_array_equal(a.b_e, b.b_e)

    def test_paper_scale_shape(self):
        model = init_model(4096, 256, 3, seed=0)
        assert model.w_e.shape == (4096, 256, 3, 3)
        assert model.b_e.shape == (4096,)
        assert model.b_d.shape == (256,)

    def test_bounds_follow_fan_balance(self):
        model = init_model(8, 4, 3, seed=1)
        s = np.sqrt(6.0 / (4 * 9 + 8 * 9))
        assert np.abs(model.w_e).max() <= s
        # with 288 draws the empirical max should get close to the bound
        assert np.abs(model.w_e).max() > 0.5 * s

    def test_fresh_model_encodes_without_bias(self):
        rng = np.random.default_rng(2)
        model = init_model(3, 2, 3, seed=5)
        x = rng.normal(size=(2, 4, 4))
        npt.assert_array_equal(encode(model, x), encode(model, x, zero_bias=True))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ShapeError):
            init_model(0, 1, 3, seed=0)

    @pytest.mark.parametrize("kernel", [2, 4])
    def test_rejects_even_kernel(self, kernel):
        # an even kernel has no same-size padding
        with pytest.raises(ShapeError, match="odd"):
            init_model(2, 2, kernel, seed=0)


class TestEncodeDecode:
    def test_zero_input_zero_bias_gives_zero_code(self):
        model = random_model(np.random.default_rng(3))
        z = encode(model, np.zeros((2, 5, 5)), zero_bias=True)
        npt.assert_array_equal(z, np.zeros_like(z))

    def test_negative_bias_suppression_and_zero_bias_rescue(self):
        # encode(x)=relu(x + b): b=-5 kills an all-ones input, zero-bias
        # encoding recovers it.
        model = identity_center_model(bias=-5.0)
        x = np.ones((1, 3, 3))
        npt.assert_array_equal(encode(model, x, zero_bias=False), np.zeros((1, 3, 3)))
        npt.assert_array_equal(encode(model, x, zero_bias=True), np.ones((1, 3, 3)))

    def test_paper_geometry_roundtrip_shapes(self):
        model = init_model(64, 256, 3, seed=7)
        x = np.abs(np.random.default_rng(8).normal(size=(1, 256, 6, 6)))
        z = encode(model, x, zero_bias=True)
        assert z.shape == (1, 64, 6, 6)
        y = forward(model, x, zero_bias=True)
        assert y.shape == (1, 256, 6, 6)

    def test_full_scale_geometry(self):
        # 256-channel 6x6 maps through 4096 filters: code 4096x6x6 and a
        # pooled-and-flattened feature vector of length 36864
        model = init_model(4096, 256, 3, seed=9)
        x = np.abs(np.random.default_rng(10).normal(size=(256, 6, 6)))
        z = encode(model, x, zero_bias=True)
        assert z.shape == (4096, 6, 6)
        assert extract_features(model, x).shape == (36864,)

    def test_decode_of_zero_code_is_zero(self):
        model = random_model(np.random.default_rng(9))
        y = decode(model, np.zeros((3, 4, 4)), zero_bias=True)
        npt.assert_array_equal(y, np.zeros_like(y))

    def test_decode_uses_tied_flipped_weights(self):
        # the batched forward pass decodes through the tied, flipped filters
        rng = np.random.default_rng(10)
        model = random_model(rng)
        x = rng.normal(size=(2, 2, 5, 5))
        expected = np.stack([decode(model, encode(model, xb)) for xb in x])
        assert_rel_close(forward(model, x), expected)

    def test_symmetric_kernel_composition(self):
        # flip-invariant single kernel: the reconstruction is relu(z)
        model = identity_center_model()
        x = np.abs(np.random.default_rng(11).normal(size=(1, 1, 4, 4)))
        z = encode(model, x, zero_bias=True)
        npt.assert_array_equal(forward(model, x, zero_bias=True), relu(z))

    def test_channel_mismatch_raises(self):
        model = random_model(np.random.default_rng(12))
        with pytest.raises(ShapeError, match="channels"):
            encode(model, np.zeros((5, 4, 4)))


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        model = identity_center_model()
        batch = [np.abs(np.random.default_rng(13).normal(size=(1, 4, 4))) for _ in range(3)]
        assert reconstruction_loss(model, batch) == 0.0

    def test_single_element_forced_zero(self):
        # zero weights force y = 0, so the loss on x = [2] is 0.5 * 4 = 2
        model = CaeModel(
            w_e=np.zeros((1, 1, 1, 1)),
            b_e=np.zeros(1),
            b_d=np.zeros(1),
        )
        assert reconstruction_loss(model, [np.full((1, 1, 1), 2.0)]) == 2.0

    def test_batch_order_invariance(self):
        rng = np.random.default_rng(14)
        model = random_model(rng)
        batch = [rng.normal(size=(2, 5, 5)) for _ in range(4)]
        assert reconstruction_loss(model, batch) == reconstruction_loss(model, batch[::-1])

    def test_empty_batch_raises(self):
        model = identity_center_model()
        with pytest.raises(ShapeError, match="at least one"):
            reconstruction_loss(model, [])

    @pytest.mark.parametrize("zero_bias", [False, True])
    @pytest.mark.parametrize("chunked", [True, False])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_per_sample_tied_decoder_reference(self, monkeypatch, zero_bias, chunked, kernel):
        rng = np.random.default_rng(130 + kernel)
        model = random_model(rng, k=4, c=3, kernel=kernel, bias_scale=0.5)
        batch = rng.normal(size=(5, 3, 6, 5))
        if chunked:  # two samples per chunk, so the batch spans three chunks
            monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", 2 * 8 * 6 * 5 * max(4, 3 * kernel * kernel))
        step = cae.chunk_size(model, batch.shape[1:], cae.TRAIN_CHUNK_BYTES)
        assert step == 2 if chunked else step >= len(batch)
        expected = sum(0.5 * float(((decode(model, encode(model, x, zero_bias), zero_bias) - x) ** 2).sum())
                       for x in batch)
        assert_rel_close(reconstruction_loss(model, batch, bias_mode_of(zero_bias)), expected)

    @pytest.mark.parametrize("batch, message", [
        (np.zeros((2, 4, 4)), "B x C x H x W"),
        (np.zeros((1, 1, 2, 4, 4)), "B x C x H x W"),
        (np.zeros((2, 3, 4, 4)), "channels"),
        (np.zeros((0, 2, 4, 4)), "at least one"),
        ([np.zeros((2, 4, 4)), np.zeros((2, 4, 5))], "do not stack"),
        ([np.zeros((2, 4, 4)), np.zeros((3, 4, 4))], "do not stack"),
    ], ids=["rank-3", "rank-5", "channels", "empty", "ragged-width", "ragged-channels"])
    def test_malformed_batch_is_shape_error(self, batch, message):
        model = random_model(np.random.default_rng(131))
        with pytest.raises(ShapeError, match=message):
            reconstruction_loss(model, batch)


class TestLossGradients:
    def test_perfect_reconstruction_gives_zero_gradients(self):
        model = identity_center_model()
        batch = [np.abs(np.random.default_rng(15).normal(size=(1, 4, 4))) + 0.5]
        grads = loss_gradients(model, batch, BIAS_TRAIN_THEN_ZERO)
        npt.assert_allclose(grads.dw_e, 0.0, atol=1e-15)
        npt.assert_allclose(grads.db_e, 0.0, atol=1e-15)
        npt.assert_allclose(grads.db_d, 0.0, atol=1e-15)

    @pytest.mark.parametrize("chunked", [True, False])
    def test_matches_finite_differences(self, monkeypatch, chunked):
        rng = np.random.default_rng(1601)
        model = random_model(rng, k=3, c=2)
        batch = rng.normal(size=(2, 2, 5, 5))
        if chunked:
            one_sample_chunks(monkeypatch)
        grads = loss_gradients(model, batch, BIAS_TRAIN_THEN_ZERO)

        def loss():
            return reconstruction_loss(model, batch, BIAS_TRAIN_THEN_ZERO)

        for analytic, arr in ((grads.dw_e, model.w_e), (grads.db_e, model.b_e), (grads.db_d, model.b_d)):
            numeric = central_diff_grad(loss, arr, eps=1e-6)
            assert max_rel_error(analytic, numeric) < 1e-4

    def test_always_zero_mode_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, k=2, c=2, bias_scale=0.5)
        batch = [rng.normal(size=(2, 4, 4)) for _ in range(2)]
        grads = loss_gradients(model, batch, BIAS_ALWAYS_ZERO)
        npt.assert_array_equal(grads.db_e, np.zeros(2))
        npt.assert_array_equal(grads.db_d, np.zeros(2))

        def loss():
            return reconstruction_loss(model, batch, BIAS_ALWAYS_ZERO)

        numeric = central_diff_grad(loss, model.w_e, eps=1e-6)
        assert max_rel_error(grads.dw_e, numeric) < 1e-4

    def test_split_paths_sum_to_full_gradient(self):
        """Freezing the decoder filters isolates the encoder-path term of
        the W_e gradient; finite differences on that frozen loss must match
        the per-sample reference's encoder-path term, and the two reference
        terms must sum to the implementation's W_e gradient."""
        rng = np.random.default_rng(18)
        model = random_model(rng, k=3, c=2)
        batch = [rng.normal(size=(2, 5, 5)) for _ in range(2)]

        _, dw_enc, dw_dec, _, _ = per_sample_reference_step(model, batch, BIAS_TRAIN_THEN_ZERO)
        grads = loss_gradients(model, batch, BIAS_TRAIN_THEN_ZERO)
        assert_rel_close(grads.dw_e, dw_enc + dw_dec)

        w_d_frozen = tied_decoder_weights(model.w_e).copy()

        def frozen_decoder_loss():
            total = 0.0
            for x in batch:
                z = encode(model, x)
                g = conv2d(z, w_d_frozen, model.b_d)
                y = relu(g)
                total += 0.5 * float(((y - x) ** 2).sum())
            return total

        numeric_enc = central_diff_grad(frozen_decoder_loss, model.w_e, eps=1e-6)
        assert max_rel_error(dw_enc, numeric_enc) < 1e-4

    def test_rejects_unknown_bias_mode(self):
        model = identity_center_model()
        with pytest.raises(ValueError, match="bias_mode"):
            loss_gradients(model, [np.ones((1, 3, 3))], "sometimes-zero")


def per_sample_reference_step(model, batch, bias_mode):
    """(loss, dw_enc, dw_dec, db_e, db_d) summed over samples, with the
    decoder run as conv2d with the explicit tied bank."""
    use_bias = bias_mode == BIAS_TRAIN_THEN_ZERO
    k, c, kh, _ = model.w_e.shape
    b_e = model.b_e if use_bias else np.zeros(k)
    b_d = model.b_d if use_bias else np.zeros(c)
    w_d = tied_decoder_weights(model.w_e)
    loss, dw_enc, dw_dec = 0.0, np.zeros_like(model.w_e), np.zeros_like(model.w_e)
    db_e, db_d = np.zeros(k), np.zeros(c)
    for x in batch:
        a = conv2d(x, model.w_e, b_e)
        z = relu(a)
        g = conv2d(z, w_d, b_d)
        r = relu(g) - x
        loss += 0.5 * float((r * r).sum())
        dg = r * (g > 0.0)
        db_d += conv2d_bias_grad(dg)
        dw_dec += tied_decoder_weights(conv2d_weight_grad(z, dg, kh, kh))
        da = conv2d_input_grad(dg, w_d) * (a > 0.0)
        db_e += conv2d_bias_grad(da)
        dw_enc += conv2d_weight_grad(x, da, kh, kh)
    if not use_bias:
        db_e, db_d = np.zeros(k), np.zeros(c)
    return loss, dw_enc, dw_dec, db_e, db_d


def assert_rel_close(actual, expected, tol=1e-12):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = max(float(np.abs(expected).max()), 1e-300)
    assert float(np.abs(actual - expected).max()) <= tol * scale


def batched_step(model, batch, bias_mode):
    """(loss, dw_e, db_e, db_d) of the batched step, for elementwise comparison."""
    x = cae._as_batch(model, batch)
    loss, grads = cae._forward_backward(model, x, bias_mode, workspace(model, x))
    return loss, grads.dw_e, grads.db_e, grads.db_d


class TestBatchedStep:
    """The batched step (tied decoder as a transposed conv) against the
    per-sample reference built from conv2d and tied_decoder_weights."""

    @pytest.mark.parametrize("bias_mode", [BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO])
    @pytest.mark.parametrize("chunked", [True, False])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_per_sample_reference(self, monkeypatch, bias_mode, chunked, kernel):
        rng = np.random.default_rng(100 + kernel)
        model = random_model(rng, k=5, c=3, kernel=kernel)
        batch = rng.normal(size=(4, 3, 6, 5))
        if chunked:
            one_sample_chunks(monkeypatch)
        got = batched_step(model, batch, bias_mode)
        loss, dw_enc, dw_dec, db_e, db_d = per_sample_reference_step(model, batch, bias_mode)
        for g, w in zip(got, (loss, dw_enc + dw_dec, db_e, db_d)):
            assert_rel_close(g, w)

    def test_chunks_sum_to_whole_batch(self, monkeypatch):
        rng = np.random.default_rng(110)
        model = random_model(rng, k=4, c=2)
        batch = np.stack([rng.normal(size=(2, 5, 5)) for _ in range(5)])
        whole = batched_step(model, batch, BIAS_TRAIN_THEN_ZERO)
        one_sample_chunks(monkeypatch)
        assert cae.chunk_size(model, batch.shape[1:], cae.TRAIN_CHUNK_BYTES) == 1
        chunked = batched_step(model, batch, BIAS_TRAIN_THEN_ZERO)
        for g, w in zip(chunked, whole):
            assert_rel_close(g, w)

    def test_array_and_list_batches_agree(self):
        rng = np.random.default_rng(111)
        model = random_model(rng)
        batch = [rng.normal(size=(2, 4, 4)) for _ in range(3)]
        for a, b in zip(batched_step(model, batch, BIAS_TRAIN_THEN_ZERO),
                        batched_step(model, np.stack(batch), BIAS_TRAIN_THEN_ZERO)):
            npt.assert_array_equal(a, b)

    def test_paper_batch_chunks_stay_bounded(self):
        # at K=4096 over 256x14x14 maps a batch of 8 is one chunk, and
        # batch 512 is split so that a chunk's code map fits the budget
        model = CaeModel(w_e=np.zeros((4096, 256, 3, 3)), b_e=np.zeros(4096), b_d=np.zeros(256))
        n = cae.chunk_size(model, (256, 14, 14), cae.TRAIN_CHUNK_BYTES)
        assert 8 <= n < 512
        assert 8 * n * 14 * 14 * 4096 <= cae.TRAIN_CHUNK_BYTES


def chunk_forward_backward_reference(model, x, b_e, b_d):
    """The chunk step from ops calls alone, with fresh arrays throughout:
    the decoder as the transposed convolution, the decoder's and the
    encoder's weight terms formed as whole banks and summed as enc + dec.
    Returns (loss, dw_e, db_e, db_d)."""
    k, _, kh, kw = model.w_e.shape
    z = relu(conv2d(x, model.w_e, b_e))
    g = conv2d_input_grad(z, model.w_e) + b_d[:, None, None]
    r = relu(g) - x
    loss = 0.5 * float((r * r).sum())
    dg = r * (g > 0.0)
    db_d = conv2d_bias_grad(dg)
    dw_dec = conv2d_weight_grad(dg, z, kh, kw)
    da = conv2d(dg, model.w_e, np.zeros(k))
    da *= z > 0.0
    db_e = conv2d_bias_grad(da)
    dw = conv2d_weight_grad(x, da, kh, kw)
    dw += dw_dec
    return loss, dw, db_e, db_d


def forward_backward_reference(model, batch, bias_mode):
    """The replaced batch step: chunk results summed as total + part."""
    x = np.asarray(batch, dtype=np.float64)
    b_e, b_d = biases(model, bias_mode)
    step = cae.chunk_size(model, x.shape[1:], cae.TRAIN_CHUNK_BYTES)
    total = None
    for start in range(0, len(x), step):
        part = chunk_forward_backward_reference(model, x[start : start + step], b_e, b_d)
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    loss, dw_e, db_e, db_d = total
    if bias_mode == BIAS_ALWAYS_ZERO:
        db_e, db_d = np.zeros(model.n_filters), np.zeros(model.n_channels)
    return loss, dw_e, db_e, db_d


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


class TestStepMatchesReference:
    """The step with one weight-gradient buffer, filled a block of filter
    rows at a time, against the whole-bank step it replaced."""

    @pytest.mark.parametrize("bias_mode", [BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO])
    @pytest.mark.parametrize("shape", [(4, 6, 6), (1, 14, 14)], ids=["BHW-0-mod-8", "BHW-4-mod-8"])
    def test_one_chunk_is_bit_identical(self, monkeypatch, bias_mode, shape):
        rng = np.random.default_rng(140)
        model = random_model(rng, k=64, c=32)
        b, h, w = shape
        batch = rng.normal(0.2, 1.0, size=(b, 32, h, w))
        # 24 filter rows per block: blocks of 24, 24 and a trailing 16
        monkeypatch.setattr(cae, "_FILTER_BLOCK_BYTES", 24 * model.w_e[0].nbytes)
        assert [len(model.w_e[rows]) for rows in cae._filter_blocks(model.w_e, cae._FILTER_BLOCK_BYTES)] == [24, 24, 16]
        assert cae.chunk_size(model, batch.shape[1:], cae.TRAIN_CHUNK_BYTES) >= b
        for got, want in zip(batched_step(model, batch, bias_mode),
                             forward_backward_reference(model, batch, bias_mode)):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("bias_mode", [BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO])
    def test_several_chunks_differ_only_in_association(self, monkeypatch, bias_mode):
        # after the first chunk the weight terms add as (total + dec) + enc
        # instead of total + (enc + dec): the last bits of dW may move
        rng = np.random.default_rng(141)
        model = random_model(rng, k=64, c=32)
        batch = rng.normal(0.2, 1.0, size=(5, 32, 6, 6))
        monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", 2 * 8 * 6 * 6 * 32 * 9)
        monkeypatch.setattr(cae, "_FILTER_BLOCK_BYTES", 24 * model.w_e[0].nbytes)
        assert cae.chunk_size(model, batch.shape[1:], cae.TRAIN_CHUNK_BYTES) == 2  # chunks of 2, 2 and 1
        loss, dw_e, db_e, db_d = batched_step(model, batch, bias_mode)
        ref_loss, ref_dw_e, ref_db_e, ref_db_d = forward_backward_reference(model, batch, bias_mode)
        assert loss == ref_loss
        assert_same_bits(db_e, ref_db_e)
        assert_same_bits(db_d, ref_db_d)
        assert_rel_close(dw_e, ref_dw_e, tol=1e-14)

    @pytest.mark.parametrize("bias_mode", [BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO])
    def test_held_and_refilled_cols_x_agree(self, monkeypatch, bias_mode):
        # one chunk of 4 samples: at the default scratch budget the step is
        # small and cols(x) sits in its own buffer through the step; at a
        # one-byte budget it is refilled into the one column buffer
        rng = np.random.default_rng(144)
        model = random_model(rng, k=16, c=12)
        batch = rng.normal(0.2, 1.0, size=(4, 12, 6, 6))
        ws = workspace(model, batch)
        assert ws.cols_x is not ws.cols
        held = batched_step(model, batch, bias_mode)
        monkeypatch.setattr(cae, "_SCRATCH_BYTES", 1)
        ws = workspace(model, batch)
        assert ws.cols_x is ws.cols
        for got, want in zip(batched_step(model, batch, bias_mode), held):
            assert_same_bits(got, want)

    @pytest.mark.parametrize("chunked", [True, False])
    def test_reconstruction_loss_unchanged(self, monkeypatch, chunked):
        rng = np.random.default_rng(142)
        model = random_model(rng, k=64, c=32)
        batch = rng.normal(0.2, 1.0, size=(5, 32, 6, 6))
        if chunked:
            monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", 2 * 8 * 6 * 6 * 32 * 9)
        for bias_mode in (BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO):
            loss = reconstruction_loss(model, batch, bias_mode)
            assert loss == forward_backward_reference(model, batch, bias_mode)[0]
            assert loss == batched_step(model, batch, bias_mode)[0]

    def test_several_chunks_hold_one_chunk_and_one_buffer(self, monkeypatch):
        # numpy reports its buffers to tracemalloc.  The bank and the batch
        # exist before tracing starts, so the traced peak is the step's own:
        # one gradient buffer and the workspace's code map, column matrix and
        # filter block, plus 2 MiB of slack for the input-sized maps (the
        # decoder folds into the padded buffer here, with no col2im index).
        # A second column matrix (1.8 MB) and a bank-sized block do not fit
        # in that slack.
        k, c, hw, per_chunk = 256, 32, 14, 4
        model = init_model(k, c, 3, seed=143)
        batch = relu(np.random.default_rng(143).normal(0.3, 1.0, size=(3 * per_chunk, c, hw, hw)))
        monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", per_chunk * 8 * hw * hw * max(k, c * 9))
        monkeypatch.setattr(cae, "_FILTER_BLOCK_BYTES", 64 * model.w_e[0].nbytes)
        assert cae.chunk_size(model, batch.shape[1:], cae.TRAIN_CHUNK_BYTES) == per_chunk
        n = per_chunk * hw * hw
        bound = model.w_e.nbytes + 8 * c * 9 * n + 8 * k * n + 64 * model.w_e[0].nbytes + 2 * 2**20
        tracemalloc.start()
        try:
            loss_gradients(model, batch, BIAS_TRAIN_THEN_ZERO)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestFoldedDecoder:
    """Where a chunk's col2im index would not fit the scratch budget (the
    step is not small), the decoder folds its column matrix into the padded
    buffer's interior instead of scattering it with a bincount, and cols(x)
    is refilled; the step keeps the small step's bits."""

    @staticmethod
    def steps(model, batch, bias_mode):
        """(small, results): whether the workspace is small, and (loss, dw_e,
        db_e, db_d) of a step over the whole batch and then over its first
        three samples (a trailing short batch) in that one workspace."""
        ws = workspace(model, batch)
        results = []
        for x in (batch, batch[:3]):
            loss, grads = cae._forward_backward(model, x, bias_mode, ws)
            results.append((loss, grads.dw_e.copy(), grads.db_e.copy(), grads.db_d.copy()))
        return ws.small, results

    @pytest.mark.parametrize("bias_mode", [BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO])
    @pytest.mark.parametrize("chunk", [5, 2], ids=["one-chunk", "chunks-of-2"])
    def test_matches_bincount_bits(self, monkeypatch, bias_mode, chunk):
        # chunks of 2 run the batch of 5 as 2, 2 and 1, and the short batch
        # of 3 as 2 and 1
        rng = np.random.default_rng(160)
        model = random_model(rng, k=16, c=4)
        batch = rng.normal(0.2, 1.0, size=(5, 4, 6, 5))
        if chunk == 2:
            monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", 2 * 8 * 6 * 5 * 4 * 9)
        assert min(cae.chunk_size(model, batch.shape[1:], cae.TRAIN_CHUNK_BYTES), len(batch)) == chunk
        small, bincount = self.steps(model, batch, bias_mode)
        monkeypatch.setattr(cae, "_SCRATCH_BYTES", 1)
        large, fold = self.steps(model, batch, bias_mode)
        assert (small, large) == (True, False)
        for got_step, want_step in zip(fold, bincount):
            for got, want in zip(got_step, want_step):
                assert_same_bits(got, want)

    def test_desk_is_small_and_paper_is_not(self):
        # the desk benchmark's step (K=16, 12x6x6, batch 4: a 124,416-byte
        # column matrix) runs the bincount, the paper one (K=4096, 256x14x14,
        # batch 8: 28.9 MB) the fold
        desk = CaeModel(w_e=np.zeros((16, 12, 3, 3)), b_e=np.zeros(16), b_d=np.zeros(12))
        paper = CaeModel(w_e=np.zeros((4096, 256, 3, 3)), b_e=np.zeros(4096), b_d=np.zeros(256))
        assert cae._Workspace(desk, (12, 6, 6), 4).small
        assert not cae._Workspace(paper, (256, 14, 14), 8).small

    def test_fold_leaves_the_padded_border_zero(self, monkeypatch):
        rng = np.random.default_rng(162)
        model = random_model(rng, k=16, c=4)
        x = rng.normal(0.2, 1.0, size=(3, 4, 7, 6))
        monkeypatch.setattr(cae, "_SCRATCH_BYTES", 1)
        ws = workspace(model, x)
        _, g = cae._forward(model, x, model.b_e, model.b_d, ws)
        padded = ws.padded.reshape(3, 4, 9, 8)
        assert np.shares_memory(g, padded) and g.any()  # g is the buffer's interior
        border = padded.copy()
        border[:, :, 1:-1, 1:-1] = 0.0
        assert not border.any()

    def test_builds_no_col2im_index(self, monkeypatch):
        rng = np.random.default_rng(161)
        model = random_model(rng, k=16, c=4)
        batch = rng.normal(0.2, 1.0, size=(3, 4, 7, 6))
        monkeypatch.setattr(cae, "_SCRATCH_BYTES", 1)
        before = ops._col2im_index.cache_info()
        batched_step(model, batch, BIAS_TRAIN_THEN_ZERO)
        assert ops._col2im_index.cache_info() == before


class TestStepCallBudget:
    def test_desk_step_makes_at_most_72_calls(self):
        # Python-visible calls (Python frames and C functions, as
        # sys.setprofile reports them) of one warm step at the desk geometry:
        # K=16, 12x6x6 maps, batch 4.  Per-call overhead bounds a step this
        # small, and the count depends on the code, not on the host.
        rng = np.random.default_rng(150)
        model = random_model(rng, k=16, c=12)
        x = relu(rng.normal(0.2, 1.0, size=(4, 12, 6, 6)))
        ws = workspace(model, x)

        def step():
            _, grads = cae._forward_backward(model, x, BIAS_TRAIN_THEN_ZERO, ws)
            sgd_step(model, grads, 1e-5)

        step()  # builds the chunk's views and the col2im index
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event) if event in ("call", "c_call") else None)
        try:
            step()
        finally:
            sys.setprofile(None)
        assert len(events) <= 72


class TestSgdStep:
    def test_zero_lr_leaves_model_unchanged(self):
        rng = np.random.default_rng(19)
        model = random_model(rng)
        before = copy.deepcopy(model)
        grads = CaeGradients(rng.normal(size=model.w_e.shape), rng.normal(size=3), rng.normal(size=2))
        sgd_step(model, grads, lr=0.0)
        npt.assert_array_equal(model.w_e, before.w_e)

    def test_zero_gradients_leave_model_unchanged(self):
        model = random_model(np.random.default_rng(20))
        before = copy.deepcopy(model)
        grads = CaeGradients(np.zeros_like(model.w_e), np.zeros(3), np.zeros(2))
        sgd_step(model, grads, lr=0.5)
        npt.assert_array_equal(model.w_e, before.w_e)
        npt.assert_array_equal(model.b_e, before.b_e)

    def test_scalar_quadratic_step(self):
        # d/dw [ (w - 3)^2 / 2 ] at w=0 is -3; one step at lr 0.1 gives 0.3
        model = CaeModel(
            w_e=np.zeros((1, 1, 1, 1)),
            b_e=np.zeros(1),
            b_d=np.zeros(1),
        )
        grads = CaeGradients(np.full((1, 1, 1, 1), -3.0), np.zeros(1), np.zeros(1))
        sgd_step(model, grads, lr=0.1)
        npt.assert_allclose(model.w_e, np.full((1, 1, 1, 1), 0.3))


    @pytest.mark.parametrize("name", ["db_e", "db_d"])
    def test_wrong_length_bias_gradient_is_shape_error_before_any_move(self, name):
        # (1,) bias gradients used to broadcast over every bias entry
        rng = np.random.default_rng(22)
        model = random_model(rng)
        before = copy.deepcopy(model)
        grads = CaeGradients(np.ones_like(model.w_e), np.ones(3), np.ones(2))
        setattr(grads, name, np.ones(1))
        with pytest.raises(ShapeError, match="gradient shape"):
            sgd_step(model, grads, lr=0.5)
        for field_name in ("w_e", "b_e", "b_d"):
            assert_same_bits(getattr(model, field_name), getattr(before, field_name))

    def test_blocked_update_matches_whole_bank_bits(self, monkeypatch):
        rng = np.random.default_rng(21)
        model = random_model(rng, k=20, c=3)
        grads = CaeGradients(rng.normal(size=model.w_e.shape), rng.normal(size=20), rng.normal(size=3))
        kept = copy.deepcopy(grads)
        lr = 0.37
        expected = model.w_e.copy()
        expected -= lr * grads.dw_e
        # 8 filter rows per block: blocks of 8, 8 and a trailing 4
        monkeypatch.setattr(cae, "_SCRATCH_BYTES", 8 * model.w_e[0].nbytes)
        assert len(list(cae._filter_blocks(model.w_e, cae._SCRATCH_BYTES))) == 3
        sgd_step(model, grads, lr)
        assert_same_bits(model.w_e, expected)
        for name in ("dw_e", "db_e", "db_d"):
            assert_same_bits(getattr(grads, name), getattr(kept, name))


def tiny_dataset(rng, n=16, c=2, hw=4):
    return [relu(rng.normal(loc=0.5, size=(c, hw, hw))) for _ in range(n)]


class TestTrain:
    def test_zero_epochs_returns_unchanged(self):
        rng = np.random.default_rng(21)
        model = random_model(rng)
        before = copy.deepcopy(model)
        _, history = train(model, tiny_dataset(rng), CaeTrainConfig(epochs=0))
        npt.assert_array_equal(model.w_e, before.w_e)
        assert history.mean_loss == []

    def test_default_config_matches_reference_settings(self):
        config = CaeTrainConfig()
        assert config.epochs == 100
        assert config.batch_size == 512
        assert config.learning_rate == 1e-5
        assert config.anneal_factor == 0.1

    def test_loss_decreases_on_tiny_problem(self):
        rng = np.random.default_rng(22)
        dataset = tiny_dataset(rng, n=16)
        model = init_model(4, 2, 3, seed=1)
        config = CaeTrainConfig(epochs=40, batch_size=16, learning_rate=5e-4, seed=3)
        _, history = train(model, dataset, config)
        assert history.mean_loss[-1] < 0.5 * history.mean_loss[0]

    def test_training_is_bit_reproducible(self):
        rng = np.random.default_rng(23)
        dataset = tiny_dataset(rng, n=10)
        runs = []
        for _ in range(2):
            model = init_model(3, 2, 3, seed=11)
            model, history = train(
                model, dataset, CaeTrainConfig(epochs=5, batch_size=4, learning_rate=1e-3, seed=7)
            )
            runs.append((model.w_e.copy(), list(history.mean_loss)))
        npt.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("n,batch_size", [(5, 4), (8, 8), (7, 2)])
    def test_one_sgd_step_per_batch(self, monkeypatch, n, batch_size):
        calls = []
        monkeypatch.setattr(cae, "sgd_step", lambda model, grads, lr: calls.append(lr))
        rng = np.random.default_rng(27)
        config = CaeTrainConfig(epochs=3, batch_size=batch_size, learning_rate=1e-4, seed=0)
        train(init_model(2, 2, 3, seed=2), tiny_dataset(rng, n=n), config)
        assert len(calls) == config.epochs * math.ceil(n / batch_size)

    def test_one_workspace_per_train_call(self, monkeypatch):
        built = []

        class Spy(cae._Workspace):
            def __init__(self, model, sample_shape, samples):
                built.append((sample_shape, samples))
                super().__init__(model, sample_shape, samples)

        monkeypatch.setattr(cae, "_Workspace", Spy)
        rng = np.random.default_rng(29)
        config = CaeTrainConfig(epochs=2, batch_size=3, learning_rate=1e-4, seed=0)
        train(init_model(2, 2, 3, seed=2), tiny_dataset(rng, n=7), config)
        assert built == [((2, 4, 4), 3)]  # six steps, one workspace

    def test_reused_workspace_matches_fresh_steps(self, monkeypatch):
        # batches of 3, 3 and 1 run in one workspace whose chunk views shrink
        # and grow again: as chunks of 3, 3 and 1 in a small step (cols(x)
        # held, one bincount), or, at a one-byte scratch budget, as chunks
        # of 2, 1, 2, 1 and 1 that refill cols(x) and fold into the padded
        # buffer, whose border must stay zero for the next im2col.  Each
        # view is written before it is read, so the run has the bits of
        # steps that each build a fresh workspace.
        rng = np.random.default_rng(30)
        data = np.stack(tiny_dataset(rng, n=7))
        start_model = random_model(rng, k=4, c=2)
        for scratch, budget in ((cae._SCRATCH_BYTES, cae.TRAIN_CHUNK_BYTES), (1, 2 * 8 * 4 * 4 * 2 * 9)):
            monkeypatch.setattr(cae, "_SCRATCH_BYTES", scratch)
            monkeypatch.setattr(cae, "TRAIN_CHUNK_BYTES", budget)
            assert workspace(start_model, data[:3]).small == (scratch != 1)
            for bias_mode in (BIAS_TRAIN_THEN_ZERO, BIAS_ALWAYS_ZERO):
                model = copy.deepcopy(start_model)
                config = CaeTrainConfig(epochs=2, batch_size=3, learning_rate=1e-3, bias_mode=bias_mode, seed=4)
                trained, history = train(copy.deepcopy(model), data, config)

                order_rng, means = np.random.default_rng(config.seed), []
                for _ in range(config.epochs):
                    order = order_rng.permutation(len(data))
                    total = 0.0
                    for start in range(0, len(data), config.batch_size):
                        batch = data[order[start : start + config.batch_size]]
                        total += reconstruction_loss(model, batch, bias_mode)
                        sgd_step(model, loss_gradients(model, batch, bias_mode), config.learning_rate)
                    means.append(total / len(data))
                assert history.mean_loss == means
                for name in ("w_e", "b_e", "b_d"):
                    assert_same_bits(getattr(trained, name), getattr(model, name))

    def test_short_final_batch_is_used(self):
        rng = np.random.default_rng(24)
        dataset = tiny_dataset(rng, n=5)
        model = init_model(2, 2, 3, seed=2)
        # batch_size 4 leaves a short batch of 1; must not raise and must
        # account for all samples in the mean
        _, history = train(model, dataset, CaeTrainConfig(epochs=1, batch_size=4, learning_rate=1e-4, seed=0))
        direct = reconstruction_loss(init_model(2, 2, 3, seed=2), dataset) / 5
        # first epoch mean is close to the fresh-model loss (one update happens mid-epoch)
        assert history.mean_loss[0] == pytest.approx(direct, rel=0.2)

    def test_anneal_fires_on_plateau(self):
        rng = np.random.default_rng(25)
        dataset = tiny_dataset(rng, n=8)
        model = init_model(3, 2, 3, seed=4)
        config = CaeTrainConfig(
            epochs=200,
            batch_size=8,
            learning_rate=1e-3,
            plateau_rel_tol=1e-3,
            plateau_patience=5,
            max_anneals=3,
            seed=5,
        )
        _, history = train(model, dataset, config)
        assert 1 <= len(history.anneal_events) <= 3
        epoch0, lr0 = history.anneal_events[0]
        assert history.learning_rate[epoch0 + 1] == pytest.approx(lr0)
        assert lr0 == pytest.approx(1e-4)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_names_epoch_and_batch(self):
        # the squared error of 1e200 inputs overflows float64 in the first batch
        dataset = np.full((8, 2, 4, 4), 1e200)
        model = init_model(3, 2, 3, seed=6)
        config = CaeTrainConfig(epochs=2, batch_size=4, learning_rate=1e-4, seed=1)
        with pytest.raises(NonFiniteLossError, match=r"epoch \d+, batch \d+"):
            train(model, dataset, config)

    def test_empty_dataset_raises(self):
        model = identity_center_model()
        with pytest.raises(ShapeError, match="empty"):
            train(model, [], CaeTrainConfig())

    def test_single_small_step_decreases_loss(self):
        """Halving line search: some lr within 20 halvings must strictly
        decrease the batch loss whenever the gradient is nonzero."""
        rng = np.random.default_rng(27)
        for trial in range(3):
            model = random_model(rng)
            batch = [rng.normal(size=(2, 5, 5)) for _ in range(2)]
            base = reconstruction_loss(model, batch)
            grads = loss_gradients(model, batch, BIAS_TRAIN_THEN_ZERO)
            gnorm = np.abs(grads.dw_e).max()
            assert gnorm > 0
            lr = 1e-1
            decreased = False
            for _ in range(20):
                trial_model = copy.deepcopy(model)
                sgd_step(trial_model, grads, lr)
                if reconstruction_loss(trial_model, batch) < base:
                    decreased = True
                    break
                lr *= 0.5
            assert decreased

    def test_tie_preserved_after_updates(self):
        rng = np.random.default_rng(28)
        model = random_model(rng)
        dataset = tiny_dataset(rng, n=6)
        train(model, dataset, CaeTrainConfig(epochs=3, batch_size=3, learning_rate=1e-3, seed=9))
        # the forward pass decodes through the tied bank of the updated W_e
        x = rng.normal(size=(2, 2, 5, 5))
        expected = np.stack([decode(model, encode(model, xb)) for xb in x])
        assert_rel_close(forward(model, x), expected)


class TestExtractFeatures:
    def test_feature_length(self):
        model = init_model(8, 4, 3, seed=30)
        x = np.abs(np.random.default_rng(31).normal(size=(4, 6, 6)))
        assert extract_features(model, x).shape == (8 * 3 * 3,)

    def test_odd_extent_feature_length(self):
        model = init_model(4, 2, 3, seed=32)
        x = np.abs(np.random.default_rng(33).normal(size=(2, 5, 7)))
        assert extract_features(model, x).shape == (4 * 3 * 4,)

    def test_zero_input_gives_zero_features(self):
        model = random_model(np.random.default_rng(34))
        npt.assert_array_equal(extract_features(model, np.zeros((2, 6, 6))), np.zeros(3 * 9))

    def test_features_are_nonnegative(self):
        rng = np.random.default_rng(35)
        model = random_model(rng)
        assert (extract_features(model, rng.normal(size=(2, 6, 6))) >= 0).all()

    @pytest.mark.parametrize("batch,pad", [(1, 1), (2, 0), (1, 0)])
    def test_batch_matches_per_sample(self, batch, pad):
        # kernel 2 * pad + 1 over a batch of ``batch`` samples
        rng = np.random.default_rng(37)
        model = init_model(5, 3, 2 * pad + 1, seed=38)
        x = np.abs(rng.normal(size=(batch, 3, 7, 6)))
        batched = extract_features(model, x)
        assert batched.shape == (batch, extract_features(model, x[0]).size)
        for row, sample in zip(batched, x):
            assert_rel_close(row, extract_features(model, sample))

    def test_bitwise_invariant_under_bias_randomization(self):
        rng = np.random.default_rng(36)
        model = random_model(rng)
        x = rng.normal(size=(2, 6, 6))
        base = extract_features(model, x)
        for _ in range(5):
            model.b_e = rng.normal(size=3) * 100
            model.b_d = rng.normal(size=2) * 100
            npt.assert_array_equal(extract_features(model, x), base)


class TestZeroExtentMaps:
    @pytest.mark.parametrize("call", [
        lambda model, x: train(model, x, CaeTrainConfig(epochs=1)),
        lambda model, x: loss_gradients(model, x),
        lambda model, x: reconstruction_loss(model, x),
        lambda model, x: extract_features(model, x),
    ], ids=["train", "loss_gradients", "reconstruction_loss", "extract_features"])
    @pytest.mark.parametrize("shape", [(3, 2, 0, 3), (3, 2, 3, 0)])
    def test_is_shape_error(self, call, shape):
        # such a batch used to die in chunk_size with a ZeroDivisionError
        with pytest.raises(ShapeError, match="nonzero extent"):
            call(random_model(np.random.default_rng(39)), np.zeros(shape))

    @pytest.mark.parametrize("call", [encode, extract_features], ids=["encode", "extract_features"])
    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0)])
    def test_single_map_is_shape_error(self, call, shape):
        # a single map is checked as a batch of one; it used to give an
        # empty code map or feature vector
        with pytest.raises(ShapeError, match="nonzero extent"):
            call(init_model(3, 2, 3, seed=0), np.zeros(shape))
