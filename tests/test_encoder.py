import hashlib
import re
import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose, assert_array_equal

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
from pseudo3d.errors import (
    InvalidInputError,
    NonFiniteInputError,
    ParamsIoError,
    ShapeMismatchError,
)

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
                assert _columns(x).tobytes() == columns_oracle(x).tobytes(), (h, wd)
                taps = rng.standard_normal((ci * 9, ((h - 1) // 2 + 1) * ((wd - 1) // 2 + 1)))
                dx = _col2im(taps, ci, h, wd)
                assert dx.shape == (ci, h, wd)
                assert dx.tobytes() == col2im_oracle(taps, ci, h, wd).tobytes(), (h, wd)


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

    def test_too_small_input(self):
        params = init_params(out_channels=4, seed=6)
        with pytest.raises(InvalidInputError):
            encode(np.zeros((3, 3, 8)), params)

    def test_wrong_channel_count(self):
        params = init_params(out_channels=4, seed=6)
        with pytest.raises(ShapeMismatchError):
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
        with pytest.raises(ShapeMismatchError):
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
        with pytest.raises(ShapeMismatchError):
            EncoderParams(w1=np.zeros((8, 3, 3, 3)), b1=np.zeros(16),
                          w2=np.zeros((4, 16, 3, 3)), b2=np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            EncoderParams(w1=np.zeros((16, 3, 3, 3)), b1=np.zeros(16),
                          w2=np.zeros((4, 16, 3, 3)), b2=np.zeros(5))

    def test_rejects_bad_channel_count(self):
        with pytest.raises(InvalidInputError):
            init_params(out_channels=0, seed=0)

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
        cmap = rng.standard_normal((3, 17, 23)) * np.array([2.0, 0.5, 30.0])[:, None, None] + 5.0
        out, flags = normalize_coordinate_map(cmap)
        assert flags == (False, False, False)
        for c in range(3):
            channel = cmap[c]
            assert out[c].tobytes() == ((channel - channel.mean()) / channel.std()).tobytes()

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
    @pytest.mark.parametrize("caught", [ShapeMismatchError, ValueError],
                             ids=lambda cls: cls.__name__)
    def test_wrong_shape_is_a_shape_error(self, shape, caught):
        with pytest.raises(caught, match=r"\(3, H, W\)|exactly 3 channels"):
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
        with pytest.raises(ParamsIoError, match="not an encoder"):
            load_params(str(path))

    def test_rejects_wrong_version(self, tmp_path):
        params = init_params(out_channels=2, seed=1)
        path = tmp_path / "v9.bin"
        save_params(str(path), params)
        raw = bytearray(path.read_bytes())
        raw[4] = 9  # bump the little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ParamsIoError, match="version"):
            load_params(str(path))

    def test_rejects_truncation(self, tmp_path):
        params = init_params(out_channels=2, seed=1)
        path = tmp_path / "short.bin"
        save_params(str(path), params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParamsIoError, match="bytes"):
            load_params(str(path))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_names_path(self, tmp_path, value):
        params = init_params(out_channels=2, seed=1)
        path = tmp_path / "bad.penc"
        save_params(str(path), params)
        raw = bytearray(path.read_bytes())
        raw[12:20] = struct.pack("<d", value)  # the first w1 weight, after magic and header
        path.write_bytes(bytes(raw))
        with pytest.raises(ParamsIoError, match="bad.penc.*w1"):
            load_params(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParamsIoError, match="cannot read"):
            load_params(str(tmp_path / "absent.bin"))

    def test_unwritable_path_names_path(self, tmp_path):
        with pytest.raises(ParamsIoError, match=re.escape(f"{tmp_path}: cannot write")):
            save_params(str(tmp_path), init_params(out_channels=2, seed=1))

    def test_loaded_params_encode_identically(self, tmp_path):
        params = init_params(out_channels=4, seed=5)
        path = str(tmp_path / "enc.bin")
        save_params(path, params)
        x = np.random.default_rng(6).standard_normal((3, 8, 8))
        assert_array_equal(encode(x, load_params(path)), encode(x, params))
