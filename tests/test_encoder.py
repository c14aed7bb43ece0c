import hashlib
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d import encoder
from pseudo3d.cloud import to_coordinate_map
from pseudo3d.encoder import (
    EncoderParams,
    HIDDEN_CHANNELS,
    _col2im,
    _columns,
    encode,
    encode_backward,
    init_params,
    load_params,
    normalize_coordinate_map,
    output_shape,
    save_params,
)
from pseudo3d.errors import FileError, InvalidInputError, NonFiniteInputError

# ---------------------------------------------------------------------------
# independent oracle: direct six-deep loop convolution with bounds checks


def conv_oracle(x, w, b):
    """Stride-2, zero-pad-1, 3x3 convolution computed pixel by pixel."""
    ci, h, wd = x.shape
    co = w.shape[0]
    ho = (h - 1) // 2 + 1
    wo = (wd - 1) // 2 + 1
    out = np.zeros((co, ho, wo))
    for o in range(co):
        for oy in range(ho):
            for ox in range(wo):
                acc = float(b[o])
                for i in range(ci):
                    for ky in range(3):
                        for kx in range(3):
                            sy = 2 * oy + ky - 1
                            sx = 2 * ox + kx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                acc += w[o, i, ky, kx] * x[i, sy, sx]
                out[o, oy, ox] = acc
    return out


def encode_oracle(x, params):
    z1 = conv_oracle(x, params.w1, params.b1)
    z2 = conv_oracle(np.maximum(z1, 0.0), params.w2, params.b2)
    return z2.transpose(1, 2, 0)


def conv_oracle_backward(x, w, g):
    """Adjoint of conv_oracle: each output gradient flows back along its taps."""
    ci, h, wd = x.shape
    co, ho, wo = g.shape
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    db = np.zeros(co)
    for o in range(co):
        for oy in range(ho):
            for ox in range(wo):
                db[o] += g[o, oy, ox]
                for i in range(ci):
                    for ky in range(3):
                        for kx in range(3):
                            sy = 2 * oy + ky - 1
                            sx = 2 * ox + kx - 1
                            if 0 <= sy < h and 0 <= sx < wd:
                                dw[o, i, ky, kx] += g[o, oy, ox] * x[i, sy, sx]
                                dx[i, sy, sx] += g[o, oy, ox] * w[o, i, ky, kx]
    return dx, dw, db


def encode_backward_oracle(x, params, grad_out):
    z1 = conv_oracle(x, params.w1, params.b1)
    da1, dw2, db2 = conv_oracle_backward(np.maximum(z1, 0.0), params.w2,
                                         grad_out.transpose(2, 0, 1))
    dx, dw1, db1 = conv_oracle_backward(x, params.w1, da1 * (z1 > 0.0))
    return {"dx": dx, "dw1": dw1, "db1": db1, "dw2": dw2, "db2": db2}


# byte oracles for the im2col kernels: a padded copy and its adjoint, nine
# strided adds into a zeroed padded buffer


def columns_oracle(x):
    """(Ci, H, W) -> (Ci*9, Ho*Wo) through a zero-padded copy and 3x3 windows."""
    ci, h, wd = x.shape
    xp = np.zeros((ci, h + 2, wd + 2))
    xp[:, 1:h + 1, 1:wd + 1] = x
    windows = sliding_window_view(xp, (3, 3), axis=(1, 2))[:, ::2, ::2]
    return windows.transpose(0, 3, 4, 1, 2).reshape(ci * 9, -1)


def col2im_oracle(taps, ci, h, wd):
    """Scatter-add each tap plane, in (k, l) order, into a zero-padded buffer."""
    ho, wo = (h - 1) // 2 + 1, (wd - 1) // 2 + 1
    t = taps.reshape(ci, 3, 3, ho, wo)
    dxp = np.zeros((ci, h + 2, wd + 2))
    for k in range(3):
        for l in range(3):
            dxp[:, k:k + 2 * ho - 1:2, l:l + 2 * wo - 1:2] += t[:, k, l]
    return dxp[:, 1:h + 1, 1:wd + 1]


class TestKernels:
    # every parity pair of sides, and Ci from the single channel up
    @pytest.mark.parametrize("ci", [1, 2, 3, 4])
    def test_columns_and_col2im_match_their_oracles_byte_for_byte(self, ci):
        rng = np.random.default_rng(ci)
        for h in range(4, 14):
            for wd in range(4, 14):
                x = rng.standard_normal((ci, h, wd))
                ho = (h - 1) // 2 + 1
                assert _columns(x, 0, ho).tobytes() == columns_oracle(x).tobytes(), (h, wd)
                taps = rng.standard_normal((ci * 9, ho * ((wd - 1) // 2 + 1)))
                dx = np.empty((ci, h, wd))
                assert _col2im(taps, dx) is dx
                assert dx.tobytes() == col2im_oracle(taps, ci, h, wd).tobytes(), (h, wd)


def sides(ci, co):
    """Every parity pair of sides from 4 to 13, with seeded x, w and upstream g."""
    rng = np.random.default_rng(ci * 100 + co)
    for h in range(4, 14):
        for wd in range(4, 14):
            g = rng.standard_normal((co, (h - 1) // 2 + 1, (wd - 1) // 2 + 1))
            yield rng.standard_normal((ci, h, wd)), rng.standard_normal((co, ci, 3, 3)), g


def slab(x, r0, r1):
    """The input rows output rows [r0, r1) read, from the one above the band's
    first (the last band's last) down to the band's last tap, and that top row."""
    top = max(2 * r0 - 1, 0)
    return x[:, top:2 * r1], top


def conv_in_bands(x, w, b, rows):
    """One conv layer as the fused passes run each of theirs: per band, the
    columns of a slab, one matmul into the band of the output, the bias."""
    co = w.shape[0]
    ho, wo = (x.shape[1] - 1) // 2 + 1, (x.shape[2] - 1) // 2 + 1
    out = np.empty((co, ho * wo))
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        band = out[:, r0 * wo:r1 * wo]
        xs, top = slab(x, r0, r1)
        np.matmul(w.reshape(co, -1), _columns(xs, r0, r1, top), out=band)
        band += b[:, np.newaxis]
    return out


def conv_backward_in_bands(x, w, g, rows, carry):
    """One conv layer's (dx, dw, db) as the fused backward runs each of its
    layers.  Per band: its share of dw from its columns, its db by row, and
    tap gradients that complete its rows of dx.  Layer 1 (``carry``) puts
    the last band's last row of tap gradients before the band's own; layer
    2 takes the band's rows and the next band's first."""
    _, h, wd = x.shape
    co, ho, wo = g.shape
    wt = w.reshape(co, -1).T
    dx, dw, row_sums = np.empty(x.shape), np.zeros(wt.shape), np.empty((co, ho))
    for r0 in range(0, ho, rows):
        r1 = min(r0 + rows, ho)
        xs, top = slab(x, r0, r1)
        dw += _columns(xs, r0, r1, top) @ g[:, r0:r1].reshape(co, -1).T
        np.sum(g[:, r0:r1], axis=2, out=row_sums[:, r0:r1])
        if carry:
            taps = wt @ g[:, r0:r1].reshape(co, -1)
            first = max(r0 - 1, 0)
            if r0:
                taps = np.concatenate([last, taps], axis=1)
            last = taps[:, -wo:]
        else:
            taps = wt @ np.ascontiguousarray(g[:, r0:r1 + 1]).reshape(co, -1)
            first = r0
        end = h if r1 == ho else 2 * (first + taps.shape[1] // wo - 1)
        assert _col2im(taps, dx[:, 2 * first:end]).base is dx
    return dx, dw.T.reshape(w.shape), row_sums.sum(axis=1)


class TestBands:
    """Each pass runs in bands of layer-2 output rows.  At these sizes no band
    height changes a byte of either layer's output, dx or db; dw, summed band
    by band, moves by its summation order only."""

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_band_columns_are_row_slices_of_the_oracle(self, rows):
        for x, _, g in sides(3, 1):
            ho, wo = g.shape[1:]
            whole = columns_oracle(x)
            for r0 in range(0, ho, rows):
                r1 = min(r0 + rows, ho)
                band = np.ascontiguousarray(whole[:, r0 * wo:r1 * wo])
                assert _columns(x, r0, r1).tobytes() == band.tobytes(), (x.shape, r0)
                xs, top = slab(x, r0, r1)
                assert _columns(xs, r0, r1, top).tobytes() == band.tobytes(), (x.shape, r0)

    # 3 -> 16 channels as in layer 1, which carries a row of tap gradients;
    # with 16 input channels a band's columns are 144 rows deep, as in layer 2
    @pytest.mark.parametrize("ci, co", [(3, 16), (16, 4)])
    def test_backward_in_bands_of_1_2_3_rows(self, ci, co):
        carry = ci == 3
        for x, w, g in sides(ci, co):
            _, h, wd = x.shape
            taps = w.reshape(co, -1).T @ g.reshape(co, -1)
            oracle_dx = col2im_oracle(taps, ci, h, wd)
            _, oracle_dw, _ = conv_oracle_backward(x, w, g)
            one_band = conv_backward_in_bands(x, w, g, g.shape[1], carry)
            for rows in (1, 2, 3):
                dx, dw, db = conv_backward_in_bands(x, w, g, rows, carry)
                assert dx.tobytes() == one_band[0].tobytes() == oracle_dx.tobytes(), (h, wd, rows)
                assert db.tobytes() == one_band[2].tobytes(), (h, wd, rows)
                assert np.abs(dw - oracle_dw).max() <= 1e-15 * np.abs(oracle_dw).max()

    # OpenBLAS takes a trailing 1-4 columns of a product in another summation
    # order, so a band spans whole multiples of 8 output positions: the
    # smallest such bands, and bands of 8 and 16 rows on taller inputs
    @pytest.mark.parametrize("budget_rows", [0, 8, 16])
    @pytest.mark.parametrize("ci, co", [(3, 16), (16, 4)])
    def test_forward_in_bands(self, budget_rows, ci, co):
        rng = np.random.default_rng(budget_rows + ci)
        w = rng.standard_normal((co, ci, 3, 3))
        b = rng.standard_normal(co)
        for h in [*range(4, 14), 33, 34]:
            for wd in range(4, 14):
                x = rng.standard_normal((ci, h, wd))
                ho, wo = (h - 1) // 2 + 1, (wd - 1) // 2 + 1
                unit = 8 // math.gcd(wo, 8)
                one_band = conv_in_bands(x, w, b, ho)
                expected = w.reshape(co, -1) @ columns_oracle(x) + b[:, np.newaxis]
                out = conv_in_bands(x, w, b, max(unit, budget_rows // unit * unit))
                assert out.tobytes() == one_band.tobytes() == expected.tobytes(), (h, wd)

    # bands of 1-3 layer-2 rows on these sides: a stale carried row would show
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_a_network_in_bands_matches_the_loop_oracles(self, monkeypatch, rows):
        monkeypatch.setattr(encoder, "_band_rows", lambda w1, h2, w2: min(rows, h2))
        params = init_params(out_channels=5, seed=rows)
        for h, w in [(9, 7), (13, 12), (12, 13), (10, 10)]:
            rng = np.random.default_rng(h * 100 + w)
            x = rng.standard_normal((3, h, w))
            r = rng.standard_normal(output_shape(h, w, 5))
            assert_allclose(encode(x, params), encode_oracle(x, params), atol=1e-12)
            grads = encode_backward(x, params, r)
            for name, expected in encode_backward_oracle(x, params, r).items():
                assert_allclose(getattr(grads, name), expected, atol=1e-12, err_msg=name)

    def test_a_frame_in_bands_is_byte_identical_to_one_band(self, monkeypatch):
        rng = np.random.default_rng(18)
        params = init_params(out_channels=32, seed=18)
        x = rng.standard_normal((3, 480, 640))
        r = rng.standard_normal(output_shape(480, 640, 32))
        assert encoder._band_rows(320, 120, 160) < 120
        banded = encode(x, params), encode_backward(x, params, r)
        monkeypatch.setattr(encoder, "_BAND_BYTES", 1 << 40)
        assert encoder._band_rows(320, 120, 160) == 120
        whole = encode(x, params), encode_backward(x, params, r)
        assert whole[0].tobytes() == banded[0].tobytes()
        for name in ("dx", "db1", "db2"):
            assert getattr(whole[1], name).tobytes() == getattr(banded[1], name).tobytes(), name


class TestForward:
    @pytest.mark.parametrize("h,w", [(4, 4), (5, 7), (8, 8), (9, 12), (13, 5)])
    def test_matches_loop_oracle(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        params = init_params(out_channels=5, seed=1)
        x = rng.standard_normal((3, h, w))
        assert_allclose(encode(x, params), encode_oracle(x, params), atol=1e-12)

    @pytest.mark.parametrize("h,w", [(4, 4), (5, 5), (6, 9), (16, 16)])
    def test_output_shape_is_quarter_ceiling(self, h, w):
        params = init_params(out_channels=7, seed=2)
        out = encode(np.zeros((3, h, w)), params)
        expected = (-(-h // 4), -(-w // 4), 7)
        assert out.shape == expected
        assert output_shape(h, w, 7) == expected

    def test_zero_input_yields_bias_only(self):
        params = init_params(out_channels=4, seed=4)
        # biases are zero at init, so the whole output is zero
        assert_array_equal(encode(np.zeros((3, 4, 4)), params), 0.0)

    def test_is_spatial_not_pointwise(self):
        # permuting pixels does not commute with a 3x3 convolution
        rng = np.random.default_rng(10)
        params = init_params(out_channels=4, seed=5)
        x = rng.standard_normal((3, 8, 8))
        perm = rng.permutation(64)
        shuffled = x.reshape(3, 64)[:, perm].reshape(3, 8, 8)
        assert not np.allclose(encode(x, params), encode(shuffled, params))

    # the cloud's (3, H, W) view is read in place: copying its taps changes no byte
    @pytest.mark.parametrize("h, w", [(37, 53), (480, 641)])
    @pytest.mark.parametrize("c", [1, 32])
    def test_a_strided_map_gives_the_bytes_of_its_copy(self, h, w, c):
        points = np.random.default_rng(h + c).standard_normal((h, w, 3))
        view = to_coordinate_map(points)
        assert not view.flags.c_contiguous
        params = init_params(out_channels=c, seed=c)
        out = encode(view, params)
        assert out.flags.c_contiguous
        assert out.tobytes() == encode(np.ascontiguousarray(view), params).tobytes()

    def test_too_small_input(self):
        params = init_params(out_channels=4, seed=6)
        with pytest.raises(InvalidInputError):
            encode(np.zeros((3, 3, 8)), params)

    def test_wrong_channel_count(self):
        params = init_params(out_channels=4, seed=6)
        with pytest.raises(InvalidInputError, match=re.escape("(3, *, *), got (4, 8, 8)")):
            encode(np.zeros((4, 8, 8)), params)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_coordinate_map(self, value):
        params = init_params(out_channels=4, seed=6)
        x = np.zeros((3, 8, 8))
        x[1, 5, 2] = value
        for run in (lambda: encode(x, params),
                    lambda: encode_backward(x, params, np.ones(output_shape(8, 8, 4)))):
            with pytest.raises(NonFiniteInputError, match="coordinate map"):
                run()

    def test_overflow_of_a_finite_map_raises(self):
        # used to return inf and NaN features with a RuntimeWarning
        with pytest.raises(InvalidInputError, match="^encode: finite inputs overflow float64$"):
            encode(np.full((3, 8, 8), 1.7e308), init_params(4, 0))


class TestBackward:
    def test_gradcheck_central_differences(self):
        """Spot-check every tensor's analytic gradient against FD."""
        rng = np.random.default_rng(77)
        params = init_params(out_channels=4, seed=78)
        x = rng.standard_normal((3, 6, 6))
        r = rng.standard_normal(output_shape(6, 6, 4))
        grads = encode_backward(x, params, r)

        def loss(arrays):
            p = EncoderParams(w1=arrays["w1"], b1=arrays["b1"],
                              w2=arrays["w2"], b2=arrays["b2"])
            return float(np.sum(encode(arrays["x"], p) * r))

        current = {"x": x, "w1": params.w1, "b1": params.b1,
                   "w2": params.w2, "b2": params.b2}
        analytic = {"x": grads.dx, "w1": grads.dw1, "b1": grads.db1,
                    "w2": grads.dw2, "b2": grads.db2}
        h = 1e-4
        for name, tensor in current.items():
            for _ in range(12):
                coords = tuple(rng.integers(0, s) for s in tensor.shape)
                arrays = {k: v.copy() for k, v in current.items()}
                arrays[name][coords] += h
                plus = loss(arrays)
                arrays[name][coords] -= 2 * h
                minus = loss(arrays)
                fd = (plus - minus) / (2 * h)
                an = analytic[name][coords]
                denom = max(abs(an), abs(fd), 1e-8)
                assert abs(an - fd) / denom < 1e-4, f"{name}{coords}: {an} vs {fd}"

    # odd sides put the last stride-2 tap on the padding
    @pytest.mark.parametrize("h,w", [(4, 4), (5, 7), (7, 5), (9, 6)])
    def test_matches_loop_adjoint_oracle(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        params = init_params(out_channels=5, seed=3)
        x = rng.standard_normal((3, h, w))
        r = rng.standard_normal(output_shape(h, w, 5))
        grads = encode_backward(x, params, r)
        for name, expected in encode_backward_oracle(x, params, r).items():
            assert_allclose(getattr(grads, name), expected, atol=1e-12, err_msg=name)

    def test_bias_gradient_is_upstream_sum(self):
        # db2 never passes through a nonlinearity: it is exactly sum(grad)
        rng = np.random.default_rng(99)
        params = init_params(out_channels=3, seed=98)
        x = rng.standard_normal((3, 8, 8))
        r = rng.standard_normal(output_shape(8, 8, 3))
        grads = encode_backward(x, params, r)
        assert_allclose(grads.db2, r.sum(axis=(0, 1)), rtol=1e-12)

    def test_grad_shapes_match_parameters(self):
        params = init_params(out_channels=5, seed=1)
        x = np.random.default_rng(2).standard_normal((3, 5, 9))
        grads = encode_backward(x, params, np.ones(output_shape(5, 9, 5)))
        assert grads.dx.shape == x.shape
        assert grads.dw1.shape == params.w1.shape
        assert grads.db1.shape == params.b1.shape
        assert grads.dw2.shape == params.w2.shape
        assert grads.db2.shape == params.b2.shape

    def test_rejects_mismatched_upstream(self):
        params = init_params(out_channels=5, seed=1)
        with pytest.raises(InvalidInputError,
                           match=re.escape("grad_out must have shape (2, 2, 5)")):
            encode_backward(np.zeros((3, 8, 8)), params, np.zeros((2, 2, 4)))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_rejects_non_finite_upstream(self, value):
        params = init_params(out_channels=5, seed=1)
        g = np.ones(output_shape(8, 8, 5))
        g[0, 1, 3] = value
        with pytest.raises(NonFiniteInputError, match="grad_out"):
            encode_backward(np.zeros((3, 8, 8)), params, g)

    def test_overflow_of_finite_inputs_raises(self):
        with pytest.raises(InvalidInputError,
                           match="^encode_backward: finite inputs overflow float64$"):
            encode_backward(np.full((3, 8, 8), 1e308), init_params(4, 0), np.ones((2, 2, 4)))

    def test_input_gradient_is_a_fresh_c_contiguous_array(self):
        x = np.random.default_rng(5).standard_normal((3, 9, 10))
        dx = encode_backward(x, init_params(4, 1), np.ones(output_shape(9, 10, 4))).dx
        assert dx.flags.c_contiguous
        assert dx.base is None


class TestMemory:
    def test_peak_is_a_small_multiple_of_the_input(self):
        """A kept pre-activation, or a (Ci*9, Ho*Wo) column-gradient buffer
        alive beside the columns, pushes a pass over its bound."""
        rng = np.random.default_rng(4)
        params = init_params(out_channels=32, seed=4)
        x = rng.standard_normal((3, 240, 320))
        r = rng.standard_normal(output_shape(240, 320, 32))
        tracemalloc.start()
        try:
            encode(x, params)
            _, encode_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            encode_backward(x, params, r)
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert encode_peak <= 6 * x.nbytes, encode_peak / x.nbytes
        assert backward_peak <= 7 * x.nbytes, backward_peak / x.nbytes

    def test_a_frame_peaks_at_its_activations_and_a_few_bands(self):
        """At 480x640 neither pass holds the hidden layer (9.4 MiB) or its
        gradient whole.  encode holds its channels-last output (4.7 MiB),
        encode_backward its dx (7.0 MiB), and each a few bands of about 1 MiB.
        Measured peaks are 6.85 and 10.8 MiB; a (C, H', W') output beside its
        channels-last copy gave 10.5, a whole hidden layer 18.75 and 20.3, and
        whole-frame columns 35.2 and 44.8."""
        rng = np.random.default_rng(4)
        params = init_params(out_channels=32, seed=4)
        x = rng.standard_normal((3, 480, 640))
        r = rng.standard_normal(output_shape(480, 640, 32))
        tracemalloc.start()
        try:
            encode(x, params)
            _, encode_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            encode_backward(x, params, r)
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert encode_peak <= 8 * 2**20, encode_peak / 2**20
        assert backward_peak <= 12 * 2**20, backward_peak / 2**20


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params(out_channels=6, seed=123)
        b = init_params(out_channels=6, seed=123)
        assert_array_equal(a.w1, b.w1)
        assert_array_equal(a.w2, b.w2)
        assert not np.array_equal(a.w1, init_params(6, seed=124).w1)

    def test_biases_zero_and_weights_bounded(self):
        p = init_params(out_channels=9, seed=0)
        assert_array_equal(p.b1, 0.0)
        assert_array_equal(p.b2, 0.0)
        assert np.abs(p.w1).max() <= 1.0 / np.sqrt(3 * 9)
        assert np.abs(p.w2).max() <= 1.0 / np.sqrt(HIDDEN_CHANNELS * 9)

    def test_param_shape_validation(self):
        with pytest.raises(InvalidInputError, match=re.escape("w1 must have shape (16, 3, 3, 3)")):
            EncoderParams(w1=np.zeros((8, 3, 3, 3)), b1=np.zeros(16),
                          w2=np.zeros((4, 16, 3, 3)), b2=np.zeros(4))
        with pytest.raises(InvalidInputError, match=re.escape("b2 must have shape (4,), got (5,)")):
            EncoderParams(w1=np.zeros((16, 3, 3, 3)), b1=np.zeros(16),
                          w2=np.zeros((4, 16, 3, 3)), b2=np.zeros(5))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(InvalidInputError):
            init_params(out_channels=0, seed=0)

    # 2.5 and True raised numpy's bare TypeError from the weight draw
    def test_channel_count_must_be_an_integer(self):
        for count in (2.5, True):
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"out_channels must be an integer, got {count}")):
                init_params(count, 0)
        assert init_params(np.int64(3), 0).out_channels == 3

    # numpy's default_rng raised its bare ValueError for -1 and TypeError for 1.5
    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
            init_params(4, -1)

    def test_seed_must_be_an_integer(self):
        with pytest.raises(InvalidInputError, match="^seed must be an integer, got 1.5$"):
            init_params(4, 1.5)
        assert_array_equal(init_params(4, np.int64(3)).w2, init_params(4, 3).w2)

    def test_missing_weight_rejected(self):
        p = init_params(out_channels=2, seed=0)
        with pytest.raises(InvalidInputError, match="w1 is required"):
            EncoderParams(w1=None, b1=p.b1, w2=p.w2, b2=p.b2)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# sha256 of each init_params array as little-endian float64 and of the
# save_params file; fixed so a refactor cannot move the RNG stream or layout
GOLDEN_SHA256 = {
    (1, 0): {
        "w1": "7c5fc5259a3d0c64be4365aa413778bd7806e0ec876d4ac4cd7a63d0d94ea641",
        "b1": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "w2": "4d0426c74bc74f5cac2dca262150dc271a37f440e50713743c0e45876469f994",
        "b2": "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "file": "88d3e01fedada64f90387dc903c2acd9af81d7a8a705ffd504da704259947f91",
    },
    (8, 7): {
        "w1": "563f74c883ab7fba94c181f160416557d77b4b2e896953f741ef7955e7d5bb90",
        "b1": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "w2": "f335a6f57ee7b430b7449158c389ecab716106d83292b337990e8f18f763ec89",
        "b2": "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "file": "e823bca015db238f046a2c66994553e1e98213f279aec7d6b82569bdf6474863",
    },
    (32, 11): {
        "w1": "86fbdcf26e49248d277c2a6d0cc4c34df28ec9887f7bdf77065fcda087fda4c7",
        "b1": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "w2": "af21a878865dd6135d370c3c7df8ff4ebbda50fad2b4232940b1ac0b52127ee0",
        "b2": "5341e6b2646979a70e57653007a1f310169421ec9bdd9f1a5648f75ade005af1",
        "file": "72d0fa489dc323bf258959b652603c1e2acd3f460ce404d3ba8a3c3ec1ad3399",
    },
}


class TestGolden:
    @pytest.mark.parametrize("c, seed", list(GOLDEN_SHA256))
    def test_init_and_file_bytes_are_pinned(self, tmp_path, c, seed):
        params = init_params(c, seed)
        path = tmp_path / "p.penc"
        save_params(str(path), params)
        digests = {name: _sha256(np.ascontiguousarray(getattr(params, name), dtype="<f8").tobytes())
                   for name in ("w1", "b1", "w2", "b2")}
        digests["file"] = _sha256(path.read_bytes())
        assert digests == GOLDEN_SHA256[(c, seed)]
        back = load_params(str(path))
        for name in ("w1", "b1", "w2", "b2"):
            assert_array_equal(getattr(back, name), getattr(params, name))


class TestNormalizeCoordinateMap:
    def test_standardizes_each_channel(self):
        rng = np.random.default_rng(55)
        cmap = rng.uniform(-4, 9, (3, 6, 7))
        out, flags = normalize_coordinate_map(cmap)
        assert flags == (False, False, False)
        for c in range(3):
            assert_allclose(out[c].mean(), 0.0, atol=1e-12)
            assert_allclose(out[c].std(), 1.0, rtol=1e-12)

    def test_is_the_plain_expression_byte_for_byte(self):
        rng = np.random.default_rng(21)
        for h, w in [(17, 23), (480, 640)]:
            cmap = rng.standard_normal((3, h, w)) * np.array([2.0, 0.5, 30.0])[:, None, None] + 5.0
            out, flags = normalize_coordinate_map(cmap)
            assert flags == (False, False, False)
            for c in range(3):
                channel = cmap[c]
                assert out[c].tobytes() == ((channel - channel.mean()) / channel.std()).tobytes()

    def test_a_view_and_its_copy_give_the_same_bytes_and_flags(self):
        rng = np.random.default_rng(58)
        for h, w in [(17, 23), (480, 640)]:
            points = rng.standard_normal((h, w, 3)) * np.array([2.0, 0.5, 30.0]) + 5.0
            points[..., 1] = 1.25  # one constant channel, copied through
            view = to_coordinate_map(points)
            out, flags = normalize_coordinate_map(view)
            copy_out, copy_flags = normalize_coordinate_map(np.ascontiguousarray(view))
            assert flags == copy_flags == (False, True, False)
            assert out.flags.c_contiguous and out.flags.writeable
            assert out.tobytes() == copy_out.tobytes()

    def test_constant_channel_flagged_and_untouched(self):
        rng = np.random.default_rng(56)
        data = rng.standard_normal((3, 4, 4))
        data[2] = 2.5  # a constant-depth wall makes Z constant
        out, flags = normalize_coordinate_map(data)
        assert flags == (False, False, True)
        assert_array_equal(out[2], data[2])
        assert_allclose(out[0].std(), 1.0, rtol=1e-12)

    def test_all_constant_passes_through(self):
        cmap = np.ones((3, 2, 2))
        out, flags = normalize_coordinate_map(cmap)
        assert flags == (True, True, True)
        assert_array_equal(out, cmap)

    @pytest.mark.parametrize("channel", [0, 1, 2])
    def test_overflowing_spread_names_channel(self, channel):
        cmap = np.random.default_rng(57).standard_normal((3, 4, 5))
        cmap[channel] *= 1e200
        with pytest.raises(InvalidInputError, match=f"channel {'XYZ'[channel]}"):
            normalize_coordinate_map(cmap)

    def test_rejects_non_finite(self):
        cmap = np.zeros((3, 2, 2))
        cmap[2, 1, 1] = np.nan
        with pytest.raises(NonFiniteInputError, match="coordinate map"):
            normalize_coordinate_map(cmap)

    # a wrong channel count is a shape error like a wrong rank, not a class of its own
    @pytest.mark.parametrize("shape", [(4, 2, 2), (3, 2)], ids=["channels", "rank"])
    @pytest.mark.parametrize("caught", [InvalidInputError, ValueError],
                             ids=lambda cls: cls.__name__)
    def test_wrong_shape_is_a_shape_error(self, shape, caught):
        with pytest.raises(caught, match=re.escape("coordinate map must have shape (3, *, *)")):
            normalize_coordinate_map(np.zeros(shape))


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        params = init_params(out_channels=11, seed=321)
        path = str(tmp_path / "enc.bin")
        save_params(path, params)
        back = load_params(path)
        assert_array_equal(back.w1, params.w1)
        assert_array_equal(back.b1, params.b1)
        assert_array_equal(back.w2, params.w2)
        assert_array_equal(back.b2, params.b2)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FileError, match="not an encoder"):
            load_params(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        params = init_params(out_channels=2, seed=1)
        path = tmp_path / "v9.bin"
        save_params(str(path), params)
        raw = bytearray(path.read_bytes())
        raw[4] = 9  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(FileError, match="version"):
            load_params(str(path))

    def test_rejects_truncation(self, tmp_path):
        params = init_params(out_channels=2, seed=1)
        path = tmp_path / "short.bin"
        save_params(str(path), params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileError, match="bytes"):
            load_params(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_names_path(self, tmp_path, value):
        params = init_params(out_channels=2, seed=1)
        path = tmp_path / "bad.penc"
        save_params(str(path), params)
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<d", value)  # the first w1 weight, after magic and header
        path.write_bytes(bytes(raw))
        with pytest.raises(FileError, match="bad.penc.*w1"):
            load_params(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError, match="cannot read"):
            load_params(str(tmp_path / "absent.bin"))

    def test_unwritable_path_names_path(self, tmp_path):
        with pytest.raises(FileError, match=re.escape(f"{tmp_path}: cannot write")):
            save_params(str(tmp_path), init_params(out_channels=2, seed=1))

    def test_loaded_params_encode_identically(self, tmp_path):
        params = init_params(out_channels=4, seed=5)
        path = str(tmp_path / "enc.bin")
        save_params(path, params)
        x = np.random.default_rng(6).standard_normal((3, 8, 8))
        assert_array_equal(encode(x, load_params(path)), encode(x, params))
