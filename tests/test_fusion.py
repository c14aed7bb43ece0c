import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pseudo3d.errors import InvalidInputError, NonFiniteInputError
from pseudo3d import fusion
from pseudo3d.fusion import (FusionParams, Strategy, _attention, _layer_norm, fuse,
                             init_fusion_params)


def random_pair(h=3, w=4, c=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((h, w, c)), rng.standard_normal((h, w, c))


def add_params(c=8):
    return FusionParams(strategy=Strategy.ADD, channels=c)


class TestLayerNorm:
    def test_zero_mean_unit_spread(self):
        x = np.random.default_rng(3).standard_normal((7, 16)) * 4 + 2
        y = _layer_norm(x)
        assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        # variance slightly below 1 because of the epsilon
        assert_allclose(y.var(axis=-1), 1.0, rtol=1e-4)

    def test_constant_row_maps_to_zero(self):
        y = _layer_norm(np.full((2, 8), 3.7))
        assert_array_equal(y, 0.0)


class TestAdd:
    def test_is_elementwise_sum(self):
        a, b = random_pair()
        assert_array_equal(fuse(a, b, add_params()), a + b)

    def test_commutative(self):
        a, b = random_pair(seed=4)
        assert_array_equal(fuse(a, b, add_params()), fuse(b, a, add_params()))

    def test_locality_exact(self):
        a, b = random_pair(seed=5)
        bumped = a.copy()
        bumped[2, 1, 3] += 1.0
        delta = fuse(bumped, b, add_params()) - fuse(a, b, add_params())
        expected = np.zeros_like(delta)
        expected[2, 1, 3] = delta[2, 1, 3]
        assert_array_equal(delta, expected)
        assert delta[2, 1, 3] != 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match=re.escape("f3d must have shape (2, 2, 4)")):
            fuse(np.zeros((2, 2, 4)), np.zeros((2, 3, 4)), add_params(4))

    @pytest.mark.parametrize("shape", [(4,), (6, 4), (1, 2, 3, 4)], ids=["1d", "2d", "4d"])
    def test_maps_that_are_not_h_w_c_rejected(self, shape):
        with pytest.raises(InvalidInputError, match=re.escape("f2d must have shape (*, *, 4)")):
            fuse(np.zeros(shape), np.zeros(shape), add_params(4))

    def test_channel_count_must_match_params(self):
        a, b = random_pair(c=4, seed=34)
        with pytest.raises(InvalidInputError, match=re.escape("f2d must have shape (*, *, 8)")):
            fuse(a, b, add_params(8))


class TestConcat:
    def test_matches_per_position_matmul(self):
        a, b = random_pair(c=6, seed=6)
        params = init_fusion_params(Strategy.CONCAT, 6, seed=7)
        out = fuse(a, b, params)
        for v in range(a.shape[0]):
            for u in range(a.shape[1]):
                stacked = np.concatenate([a[v, u], b[v, u]])
                expected = params.proj_weight @ stacked + params.proj_bias
                assert_allclose(out[v, u], expected, atol=1e-13)

    def test_identity_pair_collapses_to_add(self):
        a, b = random_pair(c=5, seed=8)
        params = FusionParams(
            strategy=Strategy.CONCAT, channels=5,
            proj_weight=np.hstack([np.eye(5), np.eye(5)]),
            proj_bias=np.zeros(5),
        )
        assert_allclose(fuse(a, b, params), fuse(a, b, add_params(5)), atol=1e-12)

    def test_banded_projection_is_the_whole_product_byte_for_byte(self):
        # 65 x 65 = 4225 positions: two full bands of 2048 and a ragged 129
        a, b = random_pair(h=65, w=65, c=32, seed=12)
        n, rows = 65 * 65, fusion._BAND_BYTES // (16 * 32)
        assert (n // rows, n % rows) == (2, 129)
        rng = np.random.default_rng(13)
        params = FusionParams(strategy=Strategy.CONCAT, channels=32,
                              proj_weight=rng.uniform(-1.0, 1.0, (32, 64)),
                              proj_bias=rng.standard_normal(32))
        cat = np.concatenate([a, b], -1).reshape(n, 64)
        expected = cat @ params.proj_weight.T + params.proj_bias
        assert fuse(a, b, params).tobytes() == expected.tobytes()

    def test_channel_count_must_match_params(self):
        a, b = random_pair(c=4, seed=10)
        params = init_fusion_params(Strategy.CONCAT, 8, seed=11)
        with pytest.raises(InvalidInputError, match=re.escape("f2d must have shape (*, *, 8)")):
            fuse(a, b, params)


def naive_attention(q_in, kv_in, params):
    """Per-position loops; reuses nothing from the library internals."""
    nq, c = q_in.shape
    heads, dk = params.heads, c // params.heads
    out = np.empty((nq, c))
    for i in range(nq):
        merged = []
        for h in range(heads):
            lo, hi = h * dk, (h + 1) * dk
            qh = (params.wq @ q_in[i])[lo:hi]
            logits = np.array([
                qh @ (params.wk @ kv_in[j])[lo:hi] / np.sqrt(dk)
                for j in range(kv_in.shape[0])
            ])
            weights = np.exp(logits - logits.max())
            weights = weights / weights.sum()
            vh = np.array([(params.wv @ kv_in[j])[lo:hi] for j in range(kv_in.shape[0])])
            merged.append(weights @ vh)
        out[i] = params.wo @ np.concatenate(merged)
    return out


class TestCrossAttention:
    def test_matches_naive_oracle(self):
        a, b = random_pair(h=2, w=3, c=6, seed=12)
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 6, seed=13, heads=3)
        n, c = 6, 6
        expected = a.reshape(n, c) + naive_attention(a.reshape(n, c), b.reshape(n, c), params)
        assert_allclose(fuse(a, b, params), expected.reshape(2, 3, 6), atol=1e-12)

    def test_single_position_closed_form(self):
        """One key-value position: softmax collapses to 1, so the output is
        the 2-D feature plus wo @ (wv @ f3d) regardless of wq and wk."""
        rng = np.random.default_rng(14)
        a = rng.standard_normal((1, 1, 4))
        b = rng.standard_normal((1, 1, 4))
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 4, seed=15, heads=2)
        expected = a[0, 0] + params.wo @ (params.wv @ b[0, 0])
        assert_allclose(fuse(a, b, params)[0, 0], expected, atol=1e-12)

    def test_invariant_to_key_value_permutation(self):
        a, b = random_pair(h=2, w=4, c=4, seed=16)
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 4, seed=17, heads=2)
        rng = np.random.default_rng(18)
        perm = rng.permutation(8)
        b_perm = b.reshape(8, 4)[perm].reshape(2, 4, 4)
        assert_allclose(fuse(a, b_perm, params), fuse(a, b, params), atol=1e-12)

    def test_is_global_not_local(self):
        # a single changed 3-D position moves every output position
        a, b = random_pair(h=2, w=2, c=4, seed=19)
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 4, seed=20, heads=2)
        bumped = b.copy()
        bumped[0, 0] += 2.0
        delta = fuse(a, bumped, params) - fuse(a, b, params)
        assert (np.abs(delta) > 0).all()

    def test_head_count_must_divide_channels(self):
        with pytest.raises(InvalidInputError):
            init_fusion_params(Strategy.CROSS_ATTENTION, 6, seed=0, heads=4)


def full_sequence_sattn(a, b, params, attention):
    """The sattn block over all 2N positions, 2-D then 3-D, with ``attention``
    as its MHSA; the first N rows, as an (H, W, C) map."""
    h, w, c = a.shape
    n = h * w
    x = np.concatenate([a.reshape(n, c), b.reshape(n, c)], axis=0)
    normed = _layer_norm(x)
    x1 = x + attention(normed, normed, params)
    hidden = np.maximum(_layer_norm(x1) @ params.w_ff1.T + params.b_ff1, 0.0)
    return (x1 + hidden @ params.w_ff2.T + params.b_ff2)[:n].reshape(h, w, c)


class TestSelfAttention:
    def test_matches_naive_oracle(self):
        a, b = random_pair(h=2, w=2, c=4, seed=21)
        params = init_fusion_params(Strategy.SELF_ATTENTION, 4, seed=22, heads=2)
        expected = full_sequence_sattn(a, b, params, naive_attention)
        assert_allclose(fuse(a, b, params), expected, atol=1e-12)

    def test_invariant_to_3d_position_permutation(self):
        a, b = random_pair(h=2, w=3, c=4, seed=23)
        params = init_fusion_params(Strategy.SELF_ATTENTION, 4, seed=24, heads=2)
        perm = np.random.default_rng(25).permutation(6)
        b_perm = b.reshape(6, 4)[perm].reshape(2, 3, 4)
        assert_allclose(fuse(a, b_perm, params), fuse(a, b, params), atol=1e-12)

    def test_missing_ffn_weights_rejected(self):
        with pytest.raises(InvalidInputError, match="w_ff1"):
            FusionParams(strategy=Strategy.SELF_ATTENTION, channels=4, heads=2,
                         wq=np.eye(4), wk=np.eye(4), wv=np.eye(4), wo=np.eye(4))


class TestMultiHead:
    def test_single_head_equals_direct_formula(self):
        rng = np.random.default_rng(28)
        q = rng.standard_normal((5, 4))
        kv = rng.standard_normal((7, 4))
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 4, seed=29, heads=1)
        scores = (q @ params.wq.T) @ (kv @ params.wk.T).T / 2.0  # sqrt(4)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        expected = weights @ (kv @ params.wv.T) @ params.wo.T
        assert_allclose(_attention(q, kv, params), expected, atol=1e-12)

    def test_heads_partition_channels(self):
        """With wo = I, head h's output occupies its own channel slice."""
        rng = np.random.default_rng(30)
        q = rng.standard_normal((3, 6))
        kv = rng.standard_normal((4, 6))
        base = init_fusion_params(Strategy.CROSS_ATTENTION, 6, seed=31, heads=2)
        params = FusionParams(strategy=Strategy.CROSS_ATTENTION, channels=6, heads=2,
                              wq=base.wq, wk=base.wk, wv=base.wv, wo=np.eye(6))
        out = _attention(q, kv, params)
        assert_allclose(out, naive_attention(q, kv, params), atol=1e-12)

    def test_zero_queries_give_zero_rows(self):
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 8, seed=0, heads=2)
        assert _attention(np.ones((0, 8)), np.ones((2, 8)), params).shape == (0, 8)


def dense_attention(q_in, kv_in, params):
    """The whole (heads, Nq, Nk) score tensor at once, one max-subtracted softmax."""
    def split(x):
        return x.reshape(len(x), params.heads, -1).transpose(1, 0, 2)

    q, k, v = split(q_in @ params.wq.T), split(kv_in @ params.wk.T), split(kv_in @ params.wv.T)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(q.shape[2])
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    return (weights @ v).transpose(1, 0, 2).reshape(len(q_in), -1) @ params.wo.T


class TestBlockedAttention:
    DEFAULT_BLOCKS = (fusion._BLOCK_Q, fusion._BLOCK_K)

    @pytest.mark.parametrize("blocks", [(1, 1), (3, 5), (4, 7), DEFAULT_BLOCKS],
                             ids=["1x1", "3x5", "4x7", "default"])
    @pytest.mark.parametrize("nq, nk", [(23, 37), (12, 35), (2, 3)])
    def test_output_does_not_depend_on_block_size(self, monkeypatch, blocks, nq, nk):
        # 23 and 37 divide by no block size, 12 and 35 by each small one, and
        # (2, 3) is smaller than every block but 1x1
        monkeypatch.setattr(fusion, "_BLOCK_Q", blocks[0])
        monkeypatch.setattr(fusion, "_BLOCK_K", blocks[1])
        rng = np.random.default_rng(nq * 100 + nk)
        q = rng.standard_normal((nq, 8)) * 3.0
        kv = rng.standard_normal((nk, 8)) * 3.0
        params = init_fusion_params(Strategy.CROSS_ATTENTION, 8, seed=35, heads=2)
        assert_allclose(_attention(q, kv, params), dense_attention(q, kv, params),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block_scores", [(0.0, 999.0, 1000.0), (1000.0, 0.0, 999.0)],
                             ids=["rising", "dip"])
    def test_rescale_underflow_to_zero(self, monkeypatch, block_scores):
        """Key blocks of 4 with scores near the three given values.  Rising:
        the first block's running sum and accumulator are rescaled by
        exp(-999) == 0.  Dip: the running max must not fall to the middle
        block's, or the rescale is exp(+1000) == inf."""
        monkeypatch.setattr(fusion, "_BLOCK_Q", 2)
        monkeypatch.setattr(fusion, "_BLOCK_K", 4)
        rng = np.random.default_rng(36)
        offsets = np.repeat(block_scores, 4)
        # with wq = wk = I at C = 2, a query [1, r] scores key [x, y] as (x + r*y)/sqrt(2)
        queries = np.column_stack([np.ones(5), rng.uniform(-1, 1, 5)])
        keys = np.column_stack([np.sqrt(2.0) * offsets + rng.uniform(-1, 1, 12),
                                rng.uniform(-1, 1, 12)])
        base = init_fusion_params(Strategy.CROSS_ATTENTION, 2, seed=37)
        params = FusionParams(strategy=Strategy.CROSS_ATTENTION, channels=2,
                              wq=np.eye(2), wk=np.eye(2), wv=base.wv, wo=base.wo)
        assert np.exp(-999.0 + 2.0) == 0.0  # the premise, with the noise above
        out = _attention(queries, keys, params)
        assert np.isfinite(out).all()
        assert_allclose(out, naive_attention(queries, keys, params), rtol=0, atol=1e-12)

    def test_sattn_ragged_blocks_match_full_sequence(self):
        # 33x33: N = 1089 query rows (eight blocks of 128 and a ragged 65)
        # against 2N = 2178 keys (a block of 2048 and a ragged 130)
        a, b = random_pair(h=33, w=33, c=4, seed=42)
        n = a.shape[0] * a.shape[1]
        assert n > fusion._BLOCK_Q and n % fusion._BLOCK_Q
        assert 2 * n > fusion._BLOCK_K and 2 * n % fusion._BLOCK_K
        params = init_fusion_params(Strategy.SELF_ATTENTION, 4, seed=43)
        expected = full_sequence_sattn(a, b, params, dense_attention)
        assert_allclose(fuse(a, b, params), expected, rtol=0, atol=1e-12)

    @staticmethod
    def fuse_peak(strategy, side):
        """The tracemalloc peak of one fuse call on side x side x 32 maps, 4 heads."""
        a, b = random_pair(h=side, w=side, c=32, seed=38)
        params = init_fusion_params(strategy, 32, seed=39, heads=4)
        tracemalloc.start()
        try:
            fuse(a, b, params)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # measured tracemalloc peaks at 32x32x32, 4 heads: xattn 2.5 MB, sattn 5.0 MB,
    # of which the one reused 128 x 2048 score block is 2 MB; concat at
    # 128x128x32 holds its 4 MiB output and a 1 MiB band: 5.5 MiB, where the
    # whole (N, 2C) concatenation gave 12.5
    @pytest.mark.parametrize("strategy, side, limit_mb", [
        (Strategy.CROSS_ATTENTION, 32, 4), (Strategy.SELF_ATTENTION, 32, 8),
        (Strategy.CONCAT, 128, 6),
    ], ids=["xattn", "sattn", "concat"])
    def test_fuse_peak_memory_is_bounded(self, strategy, side, limit_mb):
        # 32x32 positions: a full (4, N, N) score tensor is 32 MB for xattn
        # and 64 MB for sattn's N queries against 2N keys, before the
        # softmax's temporaries; a score block over all 4 heads at once
        # would be 8 MB
        peak = self.fuse_peak(strategy, side)
        assert peak <= limit_mb * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_sattn_score_memory_does_not_grow_with_n2(self):
        # 4x the positions: the linear terms grow 4x, an N^2 term would grow 16x
        small = self.fuse_peak(Strategy.SELF_ATTENTION, 32)
        large = self.fuse_peak(Strategy.SELF_ATTENTION, 64)
        assert large < 4 * small, f"peaks {small / 2**20:.1f} -> {large / 2**20:.1f} MB"


class TestDispatchAndShapes:
    def test_every_strategy_preserves_shape(self):
        a, b = random_pair(h=3, w=5, c=4, seed=32)
        for strategy in Strategy:
            params = init_fusion_params(strategy, 4, seed=33, heads=2)
            assert fuse(a, b, params).shape == (3, 5, 4)

    # one NaN in a 2x2x4 f3d used to reach 1 (add), 4 (concat) or all 16 (attention) outputs
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("side, value", [("f2d", np.inf), ("f3d", np.nan)])
    def test_non_finite_features_rejected(self, strategy, side, value):
        a, b = random_pair(h=2, w=2, c=4, seed=40)
        (a if side == "f2d" else b)[1, 0, 2] = value
        params = init_fusion_params(strategy, 4, seed=41, heads=2)
        with pytest.raises(NonFiniteInputError, match=side):
            fuse(a, b, params)

    # finite maps near float64's maximum used to give inf or NaN with a RuntimeWarning
    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_overflow_of_finite_features_raises(self, strategy):
        params = init_fusion_params(strategy, 4, seed=0, heads=2)
        a = b = np.full((2, 2, 4), 1e308)
        if strategy is Strategy.CONCAT:  # every product of output channel 0 is +1.7e308 * |w|
            a = np.broadcast_to(1.7e308 * np.sign(params.proj_weight[0, :4]), (2, 2, 4))
            b = np.broadcast_to(1.7e308 * np.sign(params.proj_weight[0, 4:]), (2, 2, 4))
        with pytest.raises(InvalidInputError, match="^fuse: finite inputs overflow float64$"):
            fuse(a, b, params)

    @pytest.mark.parametrize("strategy, extra", [
        (Strategy.ADD, {"proj_weight": np.array([[np.nan]]), "wq": "junk"}),
        (Strategy.CONCAT, {"wq": np.eye(4)}),
        (Strategy.CROSS_ATTENTION, {"w_ff1": np.ones((16, 4))}),
    ], ids=["add", "concat", "xattn"])
    def test_arrays_the_strategy_does_not_use_are_rejected(self, strategy, extra):
        weights = dataclasses.asdict(init_fusion_params(strategy, 4, seed=0, heads=2))
        weights.update(extra)
        with pytest.raises(InvalidInputError, match=next(iter(extra))):
            FusionParams(**weights)

    # "add" was accepted, and fuse then took the sattn branch and failed with
    # AttributeError: 'NoneType' object has no attribute 'T'
    @pytest.mark.parametrize("strategy", ["add", "sattn", None], ids=["add", "sattn", "none"])
    def test_strategy_must_be_a_strategy(self, strategy):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"strategy must be a Strategy, got {strategy!r}")):
            init_fusion_params(strategy, 4, seed=0)

    # float counts were accepted: fuse then raised a bare TypeError (heads) or
    # "must have shape (*, *, 2.5)" (channels), and concat's init numpy's TypeError
    @pytest.mark.parametrize("strategy, channels, heads, message", [
        (Strategy.SELF_ATTENTION, 4, 2.0, "heads must be an integer, got 2.0"),
        (Strategy.CROSS_ATTENTION, 3, 1.5, "heads must be an integer, got 1.5"),
        (Strategy.ADD, 2.5, 1, "channels must be an integer, got 2.5"),
        (Strategy.CONCAT, 2.5, 1, "channels must be an integer, got 2.5"),
        # a bool: concat's draw raised numpy's bare TypeError, sattn took True as 1 head
        (Strategy.CONCAT, True, 1, "channels must be an integer, got True"),
        (Strategy.SELF_ATTENTION, 4, True, "heads must be an integer, got True"),
    ], ids=["sattn-heads", "xattn-heads", "add-channels", "concat-channels",
            "concat-bool-channels", "sattn-bool-heads"])
    def test_counts_must_be_integers(self, strategy, channels, heads, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            init_fusion_params(strategy, channels, seed=0, heads=heads)

    # numpy's default_rng raised its bare ValueError
    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
            init_fusion_params(Strategy.CONCAT, 4, -1)

    def test_numpy_integer_counts_are_accepted(self):
        params = init_fusion_params(Strategy.CROSS_ATTENTION, np.int64(4), seed=0,
                                    heads=np.int32(2))
        a, b = random_pair(c=4, seed=1)
        assert_array_equal(fuse(a, b, params),
                           fuse(a, b, init_fusion_params(Strategy.CROSS_ATTENTION, 4, 0, heads=2)))

    def test_init_deterministic(self):
        p1 = init_fusion_params(Strategy.SELF_ATTENTION, 8, seed=1234, heads=4)
        p2 = init_fusion_params(Strategy.SELF_ATTENTION, 8, seed=1234, heads=4)
        assert_array_equal(p1.wq, p2.wq)
        assert_array_equal(p1.w_ff1, p2.w_ff1)
        assert_array_equal(p1.b_ff1, 0.0)


# sha256 of the float64 bytes of every initialized array and of the output, for
# inputs random_pair(2, 3, 4, seed=5) and init_fusion_params(..., seed=9, heads=2):
# any change to the draw order or to the arithmetic of a strategy shows here.
GOLDEN_SHA256 = {
    Strategy.ADD: {
        "out": "1a5721975bdb8755b98e5bb6cbf2c1732d6d74c1733a342c4777f33fccac49f1",
    },
    Strategy.CONCAT: {
        "out": "e8cd666f8cf32d375f50e2cd16635ce4385432ae986a9cb5d84bfaa6ccd713c0",
        "proj_weight": "c52af7ff850fabd54432e824f627b50c2ada1ab1633ba9fae224d029e6126e57",
        "proj_bias": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    },
    Strategy.CROSS_ATTENTION: {
        "out": "78e2fadc7becfc024aa2157e8fafdef57427899b3dec33e3d74a622753b44020",
        "wq": "36ec76445dc043a6aeb41357b1f3826188fdf12d88b0ad0d151a2246bef70484",
        "wk": "39cbf2e141a354be1516e06a0296a5e341c7d84d2644d3b4b243f1fbc27561a1",
        "wv": "c038be08d7830af91f9d5314232892897d862aa4abb50aeea0a6cbba7ee04ba2",
        "wo": "dd1d89f952709bfc1636821bb4da109c644f384b036d6691e1ee0562ecb4d2e8",
    },
    Strategy.SELF_ATTENTION: {
        "out": "f39c10c756c8baa4ec5b8a634923a9a909b8d20685e5a68daeec73b4cb716124",
        "wq": "36ec76445dc043a6aeb41357b1f3826188fdf12d88b0ad0d151a2246bef70484",
        "wk": "39cbf2e141a354be1516e06a0296a5e341c7d84d2644d3b4b243f1fbc27561a1",
        "wv": "c038be08d7830af91f9d5314232892897d862aa4abb50aeea0a6cbba7ee04ba2",
        "wo": "dd1d89f952709bfc1636821bb4da109c644f384b036d6691e1ee0562ecb4d2e8",
        "w_ff1": "17330adc0140292a814726e04dfb5aea7d7adf3400823b139e8b02591d9666e9",
        "b_ff1": "38723a2e5e8a17aa7950dc008209944e898f69a7bd10a23c839d341e935fd5ca",
        "w_ff2": "3694d0bf1bf23c3344d5c6a13e1d1f06501802ab6cc8eb20fe525d6820a35ad8",
        "b_ff2": "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    },
}


class TestGolden:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_init_and_output_bytes_are_pinned(self, strategy):
        a, b = random_pair(h=2, w=3, c=4, seed=5)
        params = init_fusion_params(strategy, 4, seed=9, heads=2)
        arrays = {"out": fuse(a, b, params)}
        arrays.update((f.name, getattr(params, f.name)) for f in dataclasses.fields(params)
                      if isinstance(getattr(params, f.name), np.ndarray))
        digests = {name: hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").tobytes()).hexdigest()
                   for name, arr in arrays.items()}
        assert digests == GOLDEN_SHA256[strategy]


# sha256 of the output bytes for random_pair(33, 33, 32, seed=44) and
# init_fusion_params(..., seed=45, heads=4): 1089 queries make eight full query
# blocks and a ragged 65, and sattn's 2178 keys a block of 2048 and a ragged
# 130.  Taken under one BLAS thread, as perfbench runs: with two, OpenBLAS
# splits xattn's (128, 8) @ (8, 1089) score matmul differently and its last
# bits move.
MULTI_BLOCK_SHA256 = {
    Strategy.CROSS_ATTENTION: "9f99f3ce2eab190dfeb9bc656e25edcc3761df6ad116ad890903618eae05725f",
    Strategy.SELF_ATTENTION: "a7914a15091a506e73cac299b723db6716f2ed6038cc233da36b5fa72a0adbb3",
}

_MULTI_BLOCK_PROBE = """
import hashlib, sys
import numpy as np
from pseudo3d.fusion import Strategy, fuse, init_fusion_params
rng = np.random.default_rng(44)
a, b = rng.standard_normal((33, 33, 32)), rng.standard_normal((33, 33, 32))
params = init_fusion_params(Strategy(sys.argv[1]), 32, seed=45, heads=4)
print(hashlib.sha256(fuse(a, b, params).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("strategy", fusion._ATTENTION, ids=lambda s: s.value)
def test_multi_block_output_bytes_are_pinned(strategy):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _MULTI_BLOCK_PROBE, strategy.value],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == MULTI_BLOCK_SHA256[strategy] + "\n"
