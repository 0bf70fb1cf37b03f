"""Tensor-kernel tests: the same-size conv2d against a naive loop oracle,
adjoint identities of the convolution kernels, flips, ReLU, max-pooling."""

import re
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from zbcae import ops
from zbcae.errors import ShapeError
from zbcae.ops import (
    col2im,
    conv2d,
    conv2d_bias_grad,
    conv2d_input_grad,
    conv2d_weight_grad,
    flip180,
    im2col,
    maxpool2,
    relu,
    tied_decoder_weights,
)


def conv2d_loops(x, w, b):
    """Independent nested-loop oracle for conv2d over the input zero-padded
    by (k - 1) / 2 on each side."""
    k, c, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho, wo = x.shape[1:]
    out = np.zeros((k, ho, wo))
    for kk in range(k):
        for i in range(ho):
            for j in range(wo):
                acc = b[kk]
                for cc in range(c):
                    for u in range(kh):
                        for v in range(kw):
                            acc += xp[cc, i + u, j + v] * w[kk, cc, u, v]
                out[kk, i, j] = acc
    return out


def im2col_reference(x, kh, kw):
    """The patch matrix through numpy's window view: the (B, C, H, W) batch
    (or a (C, H, W) map) zero-padded once, windows transposed to
    (C, kh, kw, B, H, W) and flattened."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xb = x if x.ndim == 4 else x[None]
    b, c, h, w = xb.shape
    xp = np.pad(xb, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return windows.transpose(1, 4, 5, 0, 2, 3).reshape(c * kh * kw, b * h * w)


def col2im_reference(cols, shape, kh, kw):
    """The adjoint of the patch matrix as kh*kw shifted slice adds into a
    zero-padded buffer, in (u, v) order, with the padding cropped off."""
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    b, c, h, w = shape if len(shape) == 4 else (1, *shape)
    patches = cols.reshape(c, kh, kw, b, h, w)
    xp = np.zeros((b, c, h + 2 * ph, w + 2 * pw))
    for u in range(kh):
        for v in range(kw):
            xp[:, :, u : u + h, v : v + w] += patches[:, u, v].swapaxes(0, 1)
    out = xp[:, :, ph : ph + h, pw : pw + w]
    return out if len(shape) == 4 else out[0]


def inner(a, b):
    return float((a * b).sum())


class TestConv2d:
    def test_zero_input_zero_bias(self):
        x = np.zeros((1, 3, 3))
        w = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = conv2d(x, w, np.zeros(1))
        npt.assert_array_equal(out, np.zeros((1, 3, 3)))

    def test_all_ones_same_pad(self):
        # Expected values recomputed with the loop oracle before freezing.
        x = np.ones((1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        expected = np.array([[[4, 6, 4], [6, 9, 6], [4, 6, 4]]], dtype=float)
        npt.assert_array_equal(conv2d_loops(x, w, np.zeros(1)), expected)
        npt.assert_array_equal(conv2d(x, w, np.zeros(1)), expected)

    def test_one_by_one_kernel_scales_and_shifts(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        w = np.full((1, 1, 1, 1), 2.0)
        out = conv2d(x, w, np.array([1.0]))
        npt.assert_array_equal(out, np.array([[[3.0, 5.0], [7.0, 9.0]]]))

    @pytest.mark.parametrize("batch,pad", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)])
    def test_matches_loop_oracle_random(self, batch, pad):
        # kernel 2 * pad + 1 over a batch of ``batch`` maps, some smaller than the kernel
        rng = np.random.default_rng(1234 + batch * 10 + pad)
        kh = 2 * pad + 1
        for _ in range(4):
            c, k = rng.integers(1, 4), rng.integers(1, 4)
            h, w = rng.integers(1, kh + 5), rng.integers(1, kh + 5)
            x = rng.normal(size=(batch, c, h, w))
            wt = rng.normal(size=(k, c, kh, kh))
            b = rng.normal(size=k)
            npt.assert_allclose(conv2d(x, wt, b), np.stack([conv2d_loops(xb, wt, b) for xb in x]), rtol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            x1 = rng.normal(size=(2, 4, 4))
            x2 = rng.normal(size=(2, 4, 4))
            w = rng.normal(size=(3, 2, 3, 3))
            a, b = rng.normal(), rng.normal()
            lhs = conv2d(a * x1 + b * x2, w, np.zeros(3))
            rhs = a * conv2d(x1, w, np.zeros(3)) + b * conv2d(x2, w, np.zeros(3))
            npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_identity_kernel_bank(self):
        rng = np.random.default_rng(11)
        c = 3
        w = np.zeros((c, c, 3, 3))
        for k in range(c):
            w[k, k, 1, 1] = 1.0
        x = rng.normal(size=(c, 5, 6))
        out = conv2d(x, w, np.zeros(c))
        npt.assert_allclose(out, x, rtol=0, atol=0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="channels"):
            conv2d(np.zeros((2, 3, 3)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_bias_length_mismatch(self):
        with pytest.raises(ShapeError, match="bias"):
            conv2d(np.zeros((1, 3, 3)), np.zeros((2, 1, 3, 3)), np.zeros(1))

    def test_even_kernel_rejected(self):
        # an even extent has no same-size padding
        with pytest.raises(ShapeError, match="odd"):
            conv2d(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))
        with pytest.raises(ShapeError, match="odd"):
            im2col(np.zeros((1, 4, 4)), 3, 4)
        with pytest.raises(ShapeError, match="odd"):
            col2im(np.zeros((4, 16)), (1, 4, 4), 2, 2)

    def test_non_3d_input(self):
        with pytest.raises(ShapeError, match="C x H x W"):
            conv2d(np.zeros((3, 3)), np.zeros((1, 1, 3, 3)), np.zeros(1))


class TestConvAdjoints:
    """im2col/col2im adjointness and finite-difference checks of the
    backward kernels used by the auto-encoder."""

    def test_col2im_is_adjoint_of_im2col(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 4))
        cols = im2col(x, 3, 3)
        y = rng.normal(size=cols.shape)
        assert abs(inner(cols, y) - inner(x, col2im(y, x.shape, 3, 3))) < 1e-10

    def test_weight_and_input_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        dout = rng.normal(size=(3, 4, 4))

        def loss(xv, wv):
            return float((conv2d(xv, wv, b) * dout).sum())

        dw = conv2d_weight_grad(x, dout, 3, 3)
        dx = conv2d_input_grad(dout, w)
        db = conv2d_bias_grad(dout)

        eps = 1e-6
        for arr, grad in ((w, dw), (x, dx)):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                up = loss(x, w)
                arr[idx] = orig - eps
                dn = loss(x, w)
                arr[idx] = orig
                num[idx] = (up - dn) / (2 * eps)
            npt.assert_allclose(grad, num, rtol=1e-6, atol=1e-8)
        npt.assert_allclose(db, dout.sum(axis=(1, 2)), rtol=1e-12)


class TestBatchedKernels:
    """A leading batch axis: im2col lays the samples' columns side by side,
    the adjoint identities hold over random batches and odd kernels, and the
    convolutions agree with per-sample calls."""

    @staticmethod
    def random_geometry(rng):
        b, c = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        kh = int(rng.choice([1, 3, 5]))
        h, w = (int(v) for v in rng.integers(1, 8, size=2))
        return (b, c, h, w), kh

    @staticmethod
    def assert_same_inner(lhs, rhs):
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_im2col_col2im_adjoint_over_random_geometry(self):
        # <im2col(x), C> == <x, col2im(C)>
        rng = np.random.default_rng(301)
        for _ in range(40):
            shape, kh = self.random_geometry(rng)
            x = rng.normal(size=shape)
            cols = im2col(x, kh, kh)
            y = rng.normal(size=cols.shape)
            self.assert_same_inner(inner(cols, y), inner(x, col2im(y, x.shape, kh, kh)))

    def test_input_grad_is_adjoint_of_conv2d(self):
        # <conv2d(x, W), y> == <x, conv2d_input_grad(y, W)>
        rng = np.random.default_rng(306)
        for _ in range(40):
            (b, c, h, w), kh = self.random_geometry(rng)
            k = int(rng.integers(1, 4))
            x = rng.normal(size=(b, c, h, w))
            wt = rng.normal(size=(k, c, kh, kh))
            y = rng.normal(size=(b, k, h, w))
            self.assert_same_inner(inner(conv2d(x, wt, np.zeros(k)), y), inner(x, conv2d_input_grad(y, wt)))

    def test_weight_grad_is_adjoint_of_conv2d(self):
        # <conv2d_weight_grad(x, dy), W> == <conv2d(x, W), dy>
        rng = np.random.default_rng(307)
        for _ in range(40):
            (b, c, h, w), kh = self.random_geometry(rng)
            k = int(rng.integers(1, 4))
            x = rng.normal(size=(b, c, h, w))
            wt = rng.normal(size=(k, c, kh, kh))
            dy = rng.normal(size=(b, k, h, w))
            self.assert_same_inner(inner(conv2d_weight_grad(x, dy, kh, kh), wt),
                                   inner(conv2d(x, wt, np.zeros(k)), dy))

    def test_batched_columns_are_per_sample_blocks(self):
        rng = np.random.default_rng(302)
        for _ in range(20):
            shape, kh = self.random_geometry(rng)
            x = rng.normal(size=shape)
            per_sample = [im2col(xb, kh, kh) for xb in x]
            npt.assert_array_equal(im2col(x, kh, kh), np.concatenate(per_sample, axis=1))
            y = rng.normal(size=(per_sample[0].shape[0], shape[0] * per_sample[0].shape[1]))
            blocks = np.split(y, shape[0], axis=1)
            npt.assert_array_equal(col2im(y, shape, kh, kh),
                                   np.stack([col2im(yb, shape[1:], kh, kh) for yb in blocks]))

    def test_batched_convolutions_match_per_sample(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            (b, c, h, w), kh = self.random_geometry(rng)
            k = int(rng.integers(1, 4))
            x = rng.normal(size=(b, c, h, w))
            wt = rng.normal(size=(k, c, kh, kh))
            bias = rng.normal(size=k)
            out = conv2d(x, wt, bias)
            npt.assert_allclose(out, np.stack([conv2d(xb, wt, bias) for xb in x]), rtol=1e-12, atol=1e-12)
            dout = rng.normal(size=out.shape)
            npt.assert_allclose(conv2d_weight_grad(x, dout, kh, kh),
                                sum(conv2d_weight_grad(xb, db, kh, kh) for xb, db in zip(x, dout)),
                                rtol=1e-12, atol=1e-12)
            npt.assert_allclose(conv2d_input_grad(dout, wt),
                                np.stack([conv2d_input_grad(db, wt) for db in dout]),
                                rtol=1e-12, atol=1e-12)
            npt.assert_allclose(conv2d_bias_grad(dout), dout.sum(axis=(0, 2, 3)), rtol=1e-12)

    def test_transposed_conv_equals_tied_decoder_at_same_padding(self):
        # conv2d(z, tied(W)) == conv2d_input_grad(z, W) for the same-size convolution
        rng = np.random.default_rng(305)
        for kh in (1, 3, 5):
            wt = rng.normal(size=(4, 3, kh, kh))
            z = rng.normal(size=(2, 4, 6, 5))
            npt.assert_allclose(conv2d_input_grad(z, wt),
                                conv2d(z, tied_decoder_weights(wt), np.zeros(3)),
                                rtol=1e-12, atol=1e-12)


class TestKernelsMatchReference:
    """The strided-view im2col and the fold and bincount col2im kernels give
    the bits of the window-view and slice-add references: the same copies,
    and every output entry summed in the same (u, v) order from 0.0."""

    @staticmethod
    def random_case(rng, b, kh):
        c = int(rng.integers(1, 4))
        h, w = (int(v) for v in rng.integers(1, 8, size=2))
        while h == w:
            w = int(rng.integers(1, 8))
        x = rng.normal(size=(b, c, h, w))
        # entries spread over ten decades, so a changed summation order shows
        # in the low bits; every entry is nonzero, those read from padding too
        cols = rng.normal(size=(c * kh * kh, b * h * w)) * 10.0 ** rng.integers(-5, 5, size=(c * kh * kh, b * h * w))
        return x, cols

    @pytest.mark.parametrize("kh", [1, 3, 5, 7])  # at 7 some (u, v) slices miss a map of extent <= 3
    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
    def test_batches_are_bit_identical(self, b, kh):
        rng = np.random.default_rng(400 + 10 * b + kh)
        for _ in range(8):
            x, cols = self.random_case(rng, b, kh)
            assert np.array_equal(im2col(x, kh, kh), im2col_reference(x, kh, kh))
            folded = col2im_reference(cols, x.shape, kh, kh)
            assert np.array_equal(col2im(cols, x.shape, kh, kh), folded)
            # the training step's whole-batch bincount folds with the same
            # bits, and so does the fold into the interior of a padded
            # buffer of any content, which leaves the buffer's border as it was
            assert np.array_equal(ops._col2im(cols, x.shape, kh, kh), folded)
            _, c, h, w = x.shape
            xp = rng.normal(size=(b, c, h + kh - 1, w + kh - 1))
            before = xp.copy()
            p = (kh - 1) // 2
            interior = xp[:, :, p : p + h, p : p + w]
            assert ops._fold(cols.reshape(c, kh, kh, b, h, w), interior) is interior
            assert np.array_equal(interior, folded)
            interior[...] = before[:, :, p : p + h, p : p + w]
            assert np.array_equal(xp, before)  # the border is untouched

    @pytest.mark.parametrize("kh", [1, 3, 5])
    def test_single_maps_are_bit_identical(self, kh):
        rng = np.random.default_rng(420 + kh)
        for _ in range(8):
            x, cols = self.random_case(rng, 1, kh)
            m = x[0]
            got = im2col(m, kh, kh)
            assert got.shape == (m.shape[0] * kh * kh, m.shape[1] * m.shape[2])
            assert np.array_equal(got, im2col_reference(m, kh, kh))
            back = col2im(cols, m.shape, kh, kh)
            assert back.shape == m.shape
            assert np.array_equal(back, col2im_reference(cols, m.shape, kh, kh))

    def test_entries_read_from_padding_are_dropped(self):
        # ones wherever im2col reads the zero padding, zeros elsewhere
        x = np.ones((2, 3, 4, 5))
        cols = 1.0 - im2col(x, 3, 3)
        assert cols.any()
        npt.assert_array_equal(col2im(cols, x.shape, 3, 3), np.zeros(x.shape))

    def test_cached_index_is_read_only(self):
        index = ops._col2im_index(2, 4, 5, 3, 3)
        assert index is ops._col2im_index(2, 4, 5, 3, 3)
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0] = 0


class TestFlip180:
    def test_two_by_two(self):
        w = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        npt.assert_array_equal(flip180(w), np.array([[[[4.0, 3.0], [2.0, 1.0]]]]))

    def test_involution(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(2, 3, 3, 3))
        npt.assert_array_equal(flip180(flip180(w)), w)

    def test_corner_moves_to_opposite_corner(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 0, 0] = 1.0
        flipped = flip180(w)
        assert flipped[0, 0, 2, 2] == 1.0
        assert flipped.sum() == 1.0

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError, match="4-D"):
            flip180(np.zeros((3, 3)))


class TestTiedDecoderWeights:
    def test_single_filter_reduces_to_flip(self):
        rng = np.random.default_rng(19)
        w = rng.normal(size=(1, 1, 3, 3))
        npt.assert_array_equal(tied_decoder_weights(w), flip180(w))

    def test_index_permutation(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=(2, 3, 3, 3))
        tied = tied_decoder_weights(w)
        assert tied.shape == (3, 2, 3, 3)
        for c in range(3):
            for k in range(2):
                npt.assert_array_equal(tied[c, k], w[k, c, ::-1, ::-1])

    def test_involution(self):
        rng = np.random.default_rng(29)
        w = rng.normal(size=(4, 2, 3, 3))
        npt.assert_array_equal(tied_decoder_weights(tied_decoder_weights(w)), w)

    def test_rejects_non_4d(self):
        with pytest.raises(ShapeError):
            tied_decoder_weights(np.zeros(5))


class TestRelu:
    def test_definition(self):
        npt.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0]))

    def test_fixed_point_on_nonnegative(self):
        x = np.abs(np.random.default_rng(31).normal(size=(2, 3, 3)))
        npt.assert_array_equal(relu(x), x)

    def test_saturates_negative(self):
        x = -np.abs(np.random.default_rng(37).normal(size=(4,))) - 0.1
        npt.assert_array_equal(relu(x), np.zeros(4))

    def test_idempotent_and_nonnegative(self):
        x = np.random.default_rng(41).normal(size=(3, 4, 4))
        r = relu(x)
        assert (r >= 0).all()
        npt.assert_array_equal(relu(r), r)


class TestMaxpool2:
    def test_single_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        npt.assert_array_equal(maxpool2(x), np.array([[[4.0]]]))

    def test_six_by_six_halves(self):
        pooled = maxpool2(np.random.default_rng(43).normal(size=(1, 6, 6)))
        assert pooled.shape == (1, 3, 3)

    @pytest.mark.parametrize("h,w", [(5, 5), (5, 6), (6, 5), (1, 1), (3, 7)])
    def test_odd_extents_truncate_at_border(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        x = rng.normal(size=(2, h, w))
        pooled = maxpool2(x)
        assert pooled.shape == (2, (h + 1) // 2, (w + 1) // 2)
        # every pooled value is the max over its (possibly truncated) window
        for k in range(2):
            for i in range(pooled.shape[1]):
                for j in range(pooled.shape[2]):
                    window = x[k, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                    assert pooled[k, i, j] == window.max()

    @pytest.mark.parametrize("h,w", [(6, 6), (5, 7), (1, 1)])
    def test_batch_equals_stack_of_per_map_results(self, h, w):
        x = np.random.default_rng(h * 10 + w + 1).normal(size=(3, 4, h, w))
        npt.assert_array_equal(maxpool2(x), np.stack([maxpool2(m) for m in x]))

    def test_rejects_non_3d(self):
        with pytest.raises(ShapeError):
            maxpool2(np.zeros((4, 4)))


def test_readme_lists_every_public_kernel():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("`zbcae.ops` exposes", 1)[1].split(". ", 1)[0]
    public = {name for name, fn in vars(ops).items()
              if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == ops.__name__}
    assert set(re.findall(r"`(\w+)`", sentence)) == public
