"""Cosine math, masking, in-batch loss with gradients, toy training."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexforge import training
from lexforge.errors import (
    DegenerateRow,
    FeaturelessText,
    InsufficientData,
    NonFiniteLoss,
    ZeroVector,
)
from lexforge.training import (
    ADAM_BLOCK,
    FEATURIZE_CHUNK,
    INIT_CHUNK,
    Adam,
    FeatureStore,
    LossConfig,
    ToyEmbedder,
    TrainingSet,
    TrainSchedule,
    _batch_gradient,
    _GradientBuffer,
    cosine_matrix,
    false_negative_mask,
    in_batch_loss,
    load_checkpoint,
    lr_at,
    save_checkpoint,
    train_toy,
)

from oracles import (
    AdamOracle,
    batch_gradient_oracle,
    cosine_oracle,
    dense_gradient,
    embed_oracle,
    false_negative_mask_oracle,
    features_oracle,
    fd_gradient,
    filtered_loss_oracle,
    init_oracle,
    scatter_oracle,
    train_toy_oracle,
    training_set,
)


#: Characters at the edges of each UTF-8 width, from 1 to 4 bytes.
UTF8_WIDTH_EDGES = "\x7f\x80\u07ff\u0800\uffff\U00010000\U0010ffff"


class TestCosineMatrix:
    def test_identical_unit_vectors(self):
        v = np.array([[1.0, 0.0], [0.0, 1.0]])
        sim = cosine_matrix(v, v)
        assert sim[0, 0] == pytest.approx(1.0)
        assert sim[1, 1] == pytest.approx(1.0)

    def test_orthogonal(self):
        q = np.array([[1.0, 0.0]])
        c = np.array([[0.0, 2.0]])
        assert cosine_matrix(q, c)[0, 0] == pytest.approx(0.0)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        q = rng.normal(size=(8, 5))
        c = rng.normal(size=(8, 5))
        expected = np.array(cosine_oracle(q.tolist(), c.tolist()))
        np.testing.assert_allclose(cosine_matrix(q, c), expected, atol=1e-12)

    def test_zero_vector_identified(self):
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroVector, match="query row 1"):
            cosine_matrix(q, q[:1])

    def test_range(self):
        rng = np.random.default_rng(7)
        q = rng.normal(size=(20, 3)) * 100
        sim = cosine_matrix(q, q)
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)


class TestFalseNegativeMask:
    def test_shared_charge_pairs(self):
        mask = false_negative_mask([{"盗窃罪"}, {"盗窃罪"}, {"诈骗罪"}])
        expected = np.array([
            [False, True, False],
            [True, False, False],
            [False, False, False],
        ])
        np.testing.assert_array_equal(mask, expected)

    def test_all_distinct(self):
        mask = false_negative_mask([{"a"}, {"b"}, {"c"}])
        assert not mask.any()

    def test_all_identical(self):
        mask = false_negative_mask([{"x"}] * 4)
        assert mask.sum() == 12  # every off-diagonal entry
        assert not mask.diagonal().any()

    def test_overlap_vs_exact(self):
        # unequal charge sets that share one charge are masked
        charges = [{"a", "b"}, {"b", "c"}]
        assert false_negative_mask(charges)[0, 1]

    def test_symmetric_under_overlap(self):
        rng = np.random.default_rng(3)
        pool = ["a", "b", "c", "d"]
        sets = [set(rng.choice(pool, size=rng.integers(1, 3), replace=False))
                for _ in range(10)]
        mask = false_negative_mask(sets)
        np.testing.assert_array_equal(mask, mask.T)

    @given(st.lists(st.sets(st.sampled_from("abcde"), max_size=3), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_double_loop_oracle(self, sets):
        mask = false_negative_mask(sets)
        assert mask.dtype == bool and mask.shape == (len(sets), len(sets))
        np.testing.assert_array_equal(mask, false_negative_mask_oracle(sets))

    @pytest.mark.parametrize("sets", [
        [set(), set()], [{"a"}, set()], [{"a"}, {"a"}], [{"a", "b"}, {"b"}],
        [set(), set(), {"a"}, set()]])
    def test_empty_sets_and_pairs(self, sets):
        np.testing.assert_array_equal(false_negative_mask(sets),
                                      false_negative_mask_oracle(sets))


class TestInBatchLoss:
    def test_uniform_two_rows(self):
        sim = np.full((2, 2), 0.37)
        loss, _ = in_batch_loss(sim)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_masked_single_negative_row_contributes_zero(self):
        sim = np.array([[0.9, 0.1], [0.2, 0.8]])
        mask = np.array([[False, True], [False, False]])
        loss, _ = in_batch_loss(sim, mask)
        # row 0 reduces to a one-element softmax
        row1 = -math.log(math.exp(0.8) / (math.exp(0.2) + math.exp(0.8)))
        assert loss == pytest.approx(row1 / 2, abs=1e-12)

    def test_against_high_precision_oracle(self):
        import mpmath
        mpmath.mp.dps = 50
        rng = np.random.default_rng(11)
        sim = rng.uniform(-1, 1, size=(6, 6))
        tau = 0.2
        loss, _ = in_batch_loss(sim, None, LossConfig(temperature=tau))
        total = mpmath.mpf(0)
        for i in range(6):
            z = mpmath.mpf(0)
            for j in range(6):
                z += mpmath.e ** (mpmath.mpf(sim[i, j]) / tau)
            total += -mpmath.log(mpmath.e ** (mpmath.mpf(sim[i, i]) / tau) / z)
        assert loss == pytest.approx(float(total / 6), abs=1e-12)

    @pytest.mark.parametrize("tau", [0.2, 1.0])
    def test_gradient_matches_finite_differences(self, tau):
        # relative error is the norm-based gradient-check metric
        rng = np.random.default_rng(5)
        cfg = LossConfig(temperature=tau)
        for _ in range(10):
            sim = rng.uniform(-1, 1, size=(8, 8))
            _, grad = in_batch_loss(sim, None, cfg)
            fd = np.array(fd_gradient(
                lambda m: in_batch_loss(np.array(m), None, cfg)[0],
                sim.tolist(), eps=1e-5))
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-6

    def test_masked_entries_zero_gradient_and_filtered_equivalence(self):
        rng = np.random.default_rng(13)
        cfg = LossConfig(temperature=0.7)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            sim = rng.uniform(-1, 1, size=(n, n))
            mask = rng.random((n, n)) < 0.4
            np.fill_diagonal(mask, False)
            loss, grad = in_batch_loss(sim, mask, cfg)
            oracle_loss, oracle_grad = filtered_loss_oracle(
                sim.tolist(), mask.tolist(), cfg.temperature)
            assert loss == pytest.approx(oracle_loss, abs=1e-12)
            np.testing.assert_allclose(grad, np.array(oracle_grad), atol=1e-12)
            assert np.all(grad[mask] == 0.0)

    def test_row_constant_invariance(self):
        rng = np.random.default_rng(17)
        sim = rng.uniform(-1, 1, size=(5, 5))
        base, _ = in_batch_loss(sim)
        shifted = sim.copy()
        shifted[2] += 0.83  # add a constant to one whole row
        after, _ = in_batch_loss(shifted)
        assert after == pytest.approx(base, abs=1e-12)

    def test_large_margin_loss_vanishes(self):
        sim = np.full((4, 4), -100.0)
        np.fill_diagonal(sim, 100.0)
        loss, _ = in_batch_loss(sim)
        assert 0.0 <= loss < 1e-8

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            sim = rng.uniform(-1, 1, size=(4, 4))
            loss, _ = in_batch_loss(sim)
            assert loss >= 0.0

    def test_masked_diagonal_rejected(self):
        sim = np.eye(3)
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        with pytest.raises(DegenerateRow):
            in_batch_loss(sim, mask)

    def test_non_finite_rejected(self):
        sim = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            in_batch_loss(sim)


class TestToyEmbedder:
    def test_shapes_and_determinism(self):
        e1 = ToyEmbedder(dim=16, hash_buckets=512, seed=4)
        e2 = ToyEmbedder(dim=16, hash_buckets=512, seed=4)
        texts = ["被告人盗窃财物", "交通肇事逃逸"]
        np.testing.assert_array_equal(e1.embed(texts), e2.embed(texts))
        assert e1.embed(texts).shape == (2, 16)
        assert e1.weights.shape == (512, 16)

    def test_empty_text_embeds_to_zero(self):
        embedder = ToyEmbedder(dim=8, hash_buckets=64)
        assert np.all(embedder.embed([""])[0] == 0.0)

    def test_featurization_ignores_whitespace(self):
        embedder = ToyEmbedder()
        a = embedder.features("盗窃 财物")
        b = embedder.features("盗窃财物")
        np.testing.assert_array_equal(a[0], b[0])

    def test_checkpoint_roundtrip(self, tmp_path):
        embedder = ToyEmbedder(dim=12, hash_buckets=256, seed=9)
        embedder.weights[...] += 0.123  # make it differ from a fresh init
        path = tmp_path / "toy.ckpt"
        save_checkpoint(embedder, path)
        loaded = load_checkpoint(path)
        assert loaded.dim == 12 and loaded.hash_buckets == 256 and loaded.seed == 9
        np.testing.assert_array_equal(loaded.weights, embedder.weights)

    @given(st.text(alphabet="盗窃财物被告人 \n0１aéßя\U0001F600" + UTF8_WIDTH_EDGES, max_size=60),
           st.sampled_from([(1, 1), (2, 3), (1, 4)]), st.sampled_from([7, 64, 1 << 15]))
    @settings(max_examples=150, deadline=None)
    def test_features_equal_plain_loop(self, text, ngrams, buckets):
        embedder = ToyEmbedder(dim=2, hash_buckets=buckets,
                               ngram_min=ngrams[0], ngram_max=ngrams[1])
        idx, values = embedder.features(text)
        expected_idx, expected_values = features_oracle(text, buckets, *ngrams)
        assert idx.dtype == np.int64 and np.array_equal(idx, expected_idx)
        assert np.array_equal(values, expected_values)

    def test_module_holds_no_mutable_state(self):
        mutable = (dict, list, set, bytearray, np.ndarray)
        names = [name for name, value in vars(training).items()
                 if not name.startswith("__") and isinstance(value, mutable)]
        assert names == []

    def test_checkpoint_write_failing_partway_keeps_old(self, tmp_path, monkeypatch):
        from lexforge import fileio
        path = tmp_path / "toy.ckpt"
        save_checkpoint(ToyEmbedder(dim=4, hash_buckets=32, seed=1), path)
        before = path.read_bytes()

        real_open = open

        class HalfWriter:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(fileio, "open", lambda name, mode: HalfWriter(real_open(name, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space") as raised:
            with fileio.outputs(path) as (temp,):
                save_checkpoint(ToyEmbedder(dim=4, hash_buckets=32, seed=2), temp)
        assert raised.value.filename == str(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["toy.ckpt"]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_checkpoint_mode_follows_umask(self, tmp_path, umask, mode):
        import os
        import stat
        old = os.umask(umask)
        try:
            save_checkpoint(ToyEmbedder(dim=4, hash_buckets=32), tmp_path / "toy.ckpt")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "toy.ckpt").stat().st_mode) == mode

    def test_given_weights_replace_the_seeded_draw(self):
        weights = np.arange(12.0).reshape(4, 3)
        embedder = ToyEmbedder(dim=3, hash_buckets=4, seed=9, weights=weights)
        assert embedder.weights is weights
        with pytest.raises(ValueError, match=r"shape \(4, 3\) for 3 buckets"):
            ToyEmbedder(dim=3, hash_buckets=3, weights=weights)

    @pytest.mark.parametrize("cut,reason", [
        (lambda b: b"NOTMAGIC" + b[8:], "bad magic"),
        (lambda b: b[:3], "bad magic"),
        (lambda b: b[:20], "truncated header"),
        (lambda b: b[:8] + (2).to_bytes(4, "little") + b[12:], "unsupported version 2"),
        (lambda b: b[:20] + (0).to_bytes(4, "little") + b[24:],
         "need 1 <= ngram_min <= ngram_max"),
        (lambda b: b[:-1], "expected 1024 weight bytes, got 1023"),
        (lambda b: b + b"\0" * 8, "expected 1024 weight bytes, got 1032"),
        (lambda b: b[:28] + (-1).to_bytes(8, "little", signed=True) + b[36:],
         "seed = -1: seed must be in [0, 2**63)"),
    ])
    def test_checkpoint_failure_names_the_file_and_reason(self, tmp_path, cut, reason):
        from lexforge.errors import BadCheckpoint
        path = tmp_path / "toy.ckpt"
        save_checkpoint(ToyEmbedder(dim=4, hash_buckets=32, seed=1), path)
        path.write_bytes(cut(path.read_bytes()))
        with pytest.raises(BadCheckpoint) as raised:
            load_checkpoint(path)
        assert str(raised.value) == f"{path}: {reason}"

    def test_checkpoint_io_holds_one_copy_of_the_weights(self, tmp_path):
        import tracemalloc
        embedder = ToyEmbedder(dim=32, hash_buckets=1 << 12, seed=4)
        path = tmp_path / "toy.ckpt"
        size = embedder.weights.nbytes
        tracemalloc.start()
        try:
            save_checkpoint(embedder, path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_checkpoint(path)
            read = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # saving allocates no weight-sized buffer; loading only the array itself
        assert saved < size // 4 and read < size + size // 4
        np.testing.assert_array_equal(loaded.weights, embedder.weights)
        assert loaded.weights.flags.c_contiguous and loaded.weights.flags.writeable

    def test_checkpoint_rejects_corruption(self, tmp_path):
        from lexforge.errors import BadCheckpoint
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(BadCheckpoint):
            load_checkpoint(path)

    def test_weight_gradient_matches_finite_differences(self):
        # end-to-end chain: features -> linear map -> cosine -> loss
        embedder = ToyEmbedder(dim=6, hash_buckets=50, seed=2)
        batch = [("盗窃电动车", "被告人盗窃电动车一辆", frozenset({"a"})),
                 ("醉酒驾驶机动车", "被告人醉酒后驾驶汽车", frozenset({"b"}))]
        cfg = LossConfig()
        data = training_set(batch, embedder)
        reached = data.store.rows
        _, rows, grad_rows = _batch_gradient(embedder.weights[reached], data, [0, 1], cfg,
                                             _GradientBuffer((len(reached), 6)))
        w_grad = dense_gradient(reached[rows], grad_rows, embedder.weights.shape)

        eps = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(25):
            i = int(rng.integers(0, 50))
            j = int(rng.integers(0, 6))
            orig = embedder.weights[i, j]
            embedder.weights[i, j] = orig + eps
            up = batch_gradient_oracle(embedder, batch, cfg)[0]
            embedder.weights[i, j] = orig - eps
            down = batch_gradient_oracle(embedder, batch, cfg)[0]
            embedder.weights[i, j] = orig
            fd = (up - down) / (2 * eps)
            assert w_grad[i, j] == pytest.approx(fd, abs=1e-6)


def _workspace(buffer):
    """Every array of a gradient buffer's workspace: the gradient rows, the
    decoded features, and the per-row marks and positions."""
    return [buffer.grad, buffer.idx, buffer.values, buffer.touched, buffer.position]


def _toy_pairs(n=60):
    charges = ["盗窃罪", "抢劫罪", "诈骗罪"]
    verbs = {"盗窃罪": "窃取财物", "抢劫罪": "持械抢劫", "诈骗罪": "虚构事实骗取钱款"}
    pairs = []
    for i in range(n):
        charge = charges[i % 3]
        pairs.append((f"被告人{verbs[charge]}第{i}起",
                      f"经审理查明被告人{verbs[charge]}，构成{charge}，判处刑罚第{i}起",
                      frozenset({charge})))
    return pairs


#: Whitespace, astral-plane characters, 2-byte letters, a full-width digit
#: and every UTF-8 width edge among CJK.
FEATURE_CHARS = "盗窃财物被告人 \n\t0１aéßя\U0001F600\U00020BB7" + UTF8_WIDTH_EDGES


@st.composite
def feature_batches(draw):
    """Texts with whitespace, texts shorter than any n-gram, empty texts and
    batches, repeated n-grams and the same text twice in one batch."""
    texts = draw(st.lists(st.text(FEATURE_CHARS, max_size=40), max_size=12))
    if texts and draw(st.booleans()):
        texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(texts)))
    return texts


def _decoded(entries):
    """``training._decoded`` of the entries, none or more, into arrays of
    their own."""
    n = sum(len(idx) for idx, _ in entries)
    return training._decoded(entries, np.empty(n, dtype=np.intp), np.empty(n)) if entries else []


#: All that a :class:`ToyEmbedder` holds: its shape, its seed and its weights.
EMBEDDER_STATE = {"dim", "hash_buckets", "ngram_min", "ngram_max", "seed", "_weights"}


class TestFeaturize:
    """Each reader of the chunked pass, ``features``, a store and
    ``embed``, equals the plain per-text loop (``oracles.features_oracle``
    and ``oracles.embed_oracle``) bit for bit, buckets in the same order,
    and leaves no per-text state on the embedder."""

    def test_an_embedder_holds_its_shape_seed_and_weights_alone(self):
        embedder = ToyEmbedder(dim=2, hash_buckets=64, seed=1)
        assert set(vars(embedder)) == EMBEDDER_STATE
        embedder.features("被告人盗窃财物")
        embedder.embed(["被告人盗窃财物", "驾驶车辆"])
        assert set(vars(embedder)) == EMBEDDER_STATE

    def test_two_instances_featurize_alike(self):
        texts = ["被告人盗窃财物", "", "驾驶 车辆", "被告人盗窃财物"]
        a, b = (ToyEmbedder(dim=8, hash_buckets=64, seed=1) for _ in range(2))
        for text in texts:
            (a_idx, a_values), (b_idx, b_values) = a.features(text), b.features(text)
            assert np.array_equal(a_idx, b_idx) and np.array_equal(a_values, b_values)
        assert a.embed(texts).tobytes() == b.embed(texts).tobytes()

    def _assert_equal_oracle(self, embedder, texts):
        """``features`` of each text, each slot of a :class:`FeatureStore`
        of the texts and each row of one ``embed`` of them equal the plain
        per-text loop bit for bit."""
        store = FeatureStore(embedder, texts)
        stored = _decoded(store.entries(np.arange(len(texts))))
        vectors = embedder.embed(texts)
        assert vectors.shape == (len(texts), embedder.dim)
        for text, (store_idx, store_values), row in zip(texts, stored, vectors, strict=True):
            idx, values = embedder.features(text)
            want_idx, want_values = features_oracle(
                text, embedder.hash_buckets, embedder.ngram_min, embedder.ngram_max)
            assert idx.dtype == np.int64 and values.dtype == np.float64
            assert np.array_equal(idx, want_idx) and values.tobytes() == want_values.tobytes()
            assert np.array_equal(store.rows[store_idx], want_idx)
            assert store_values.tobytes() == want_values.tobytes()
            assert row.tobytes() == embed_oracle(embedder, text).tobytes()
        assert set(vars(embedder)) == EMBEDDER_STATE

    @given(feature_batches(), st.sampled_from([(1, 1), (2, 3), (1, 4), (3, 6)]),
           st.sampled_from([7, 64, 1 << 15]))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_plain_loop(self, texts, ngrams, buckets):
        self._assert_equal_oracle(
            ToyEmbedder(dim=2, hash_buckets=buckets, ngram_min=ngrams[0],
                        ngram_max=ngrams[1]), texts)

    @pytest.mark.parametrize("ngrams", [(1, 1), (2, 3), (1, 4)])
    def test_a_batch_of_many_chunks(self, ngrams):
        rng = np.random.default_rng(sum(ngrams))
        chars = list(FEATURE_CHARS)
        texts = ["".join(rng.choice(chars, size=int(n))) for n in rng.integers(0, 600, 150)]
        # a text longer than a chunk, and texts met again in later chunks
        texts += ["".join(rng.choice(chars, size=FEATURIZE_CHUNK + 5))] + texts[:20]
        grams = sum(max(0, len("".join(t.split())) - n + 1)
                    for t in texts for n in range(ngrams[0], ngrams[1] + 1))
        assert grams > 3 * FEATURIZE_CHUNK
        self._assert_equal_oracle(
            ToyEmbedder(dim=2, hash_buckets=512, ngram_min=ngrams[0], ngram_max=ngrams[1]),
            texts)


@st.composite
def store_texts(draw):
    """Texts for a store: among them empty and whitespace-only texts,
    texts with an n-gram counted more than 255 times, the same text in two
    slots and, in one batch of four, a text longer than a featurization
    chunk."""
    texts = draw(st.lists(st.one_of(
        st.text(FEATURE_CHARS, max_size=40),
        st.text(" \n\t\u3000", max_size=4),
        st.builds(str.__mul__, st.sampled_from(["盗", "a１", "\U00020BB7"]),
                  st.integers(200, 700))), max_size=10))
    if texts and draw(st.booleans()):
        texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(texts)))
    if draw(st.integers(0, 3)) == 0:
        rng = np.random.default_rng(draw(st.integers(0, 3)))
        texts.insert(draw(st.integers(0, len(texts))),
                     "".join(rng.choice(list(FEATURE_CHARS), size=FEATURIZE_CHUNK)))
    return texts


class TestFeatureStore:
    """Each slot of the packed store decodes to ``ToyEmbedder.features`` of
    its text, bit for bit, once its renumbered buckets are mapped back
    through ``rows``; ``rows`` is every bucket a text reaches."""

    @given(store_texts(), st.sampled_from([(1, 1), (2, 3), (1, 4)]),
           st.sampled_from([7, 64, 1 << 15]))
    @settings(max_examples=100, deadline=None)
    def test_slots_decode_to_the_features(self, texts, ngrams, buckets):
        shape = {"dim": 2, "hash_buckets": buckets, "ngram_min": ngrams[0],
                 "ngram_max": ngrams[1]}
        store = FeatureStore(ToyEmbedder(**shape), iter(texts))
        plain = ToyEmbedder(**shape)
        assert len(store.offsets) == len(texts) + 1
        reached = set()
        for slots in (np.arange(len(texts)), np.arange(len(texts))[::-1]):
            for slot, (idx, values) in zip(slots.tolist(), _decoded(store.entries(slots))):
                want_idx, want_values = plain.features(texts[slot])
                assert idx.dtype == np.intp and values.dtype == np.float64
                assert np.array_equal(store.rows[idx], want_idx)
                assert values.tobytes() == want_values.tobytes()
                reached.update(want_idx.tolist())
        assert store.rows.tolist() == sorted(reached)

    def test_a_chunk_keeps_narrow_arrays(self):
        """The store keeps each chunk's two arrays as featurization made
        them, in the narrowest dtypes, one pair of arrays per chunk."""
        texts = ["被告人盗窃财物" * 40] * 200 + ["盗" * 300]
        store = FeatureStore(ToyEmbedder(dim=2, hash_buckets=1 << 15), texts)
        grams = sum(2 * len(t) - 3 for t in texts)
        assert len(store._buckets) == len(store._counts) < len(texts) // 10
        assert len(store._buckets) >= grams // FEATURIZE_CHUNK
        assert {a.dtype for a in store._buckets} == {np.dtype(np.uint16)}
        assert {a.dtype for a in store._counts} == {np.dtype(np.uint8), np.dtype(np.uint16)}

    @pytest.mark.parametrize("buckets, texts, idx_dtype, count_dtype", [
        pytest.param(64, ["被告人盗窃财物"], np.uint8, np.uint8, id="64-buckets"),
        pytest.param(1 << 15, ["被告人盗窃财物，盗窃财物"], np.uint16, np.uint8,
                     id="32768-buckets"),
        # one bucket, counted 397 and 79,997 times
        pytest.param(1, ["盗" * 200], np.uint8, np.uint16, id="count-above-255"),
        pytest.param(1, ["盗" * 40_000], np.uint8, np.uint32, id="count-above-65535"),
        pytest.param(1 << 17, ["".join(map(chr, np.random.default_rng(17).integers(
            0x4E00, 0x9FA5, size=400))) for _ in range(3)], np.uint32, np.uint8,
                     id="buckets-above-16-bits"),
    ])
    def test_a_chunk_is_narrow_and_decodes_exactly(self, buckets, texts, idx_dtype,
                                                   count_dtype):
        """A chunk's buckets and raw counts come in the narrowest unsigned
        dtypes that hold them; decoded, they equal the plain loop bit for
        bit."""
        (idx, counts, cuts), = ToyEmbedder(dim=2, hash_buckets=buckets)._featurize_chunks(texts)
        assert idx.dtype == idx_dtype and counts.dtype == count_dtype
        decoded = _decoded([(idx[a:b], counts[a:b]) for a, b in zip(cuts, cuts[1:])])
        assert len(decoded) == len(texts)
        for text, (got_idx, got_values) in zip(texts, decoded):
            want_idx, want_values = features_oracle(text, buckets, 2, 3)
            assert got_idx.dtype == np.intp and got_values.dtype == np.float64
            assert np.array_equal(got_idx, want_idx) and np.array_equal(got_values, want_values)
        if buckets > 1 << 16:
            assert max(int(i.max()) for i, _ in decoded) > np.iinfo(np.uint16).max


class TestTrainToy:
    def test_loss_decreases(self):
        embedder = ToyEmbedder(dim=16, hash_buckets=2048, seed=1)
        schedule = TrainSchedule(epochs=12, batch_size=12, learning_rate=5e-3, seed=1)
        curve = train_toy(training_set(_toy_pairs(48), embedder), embedder, schedule)
        first = np.mean([loss for _, loss in curve[:4]])
        last = np.mean([loss for _, loss in curve[-4:]])
        assert last < first

    @pytest.mark.parametrize("field", ["query_text", "positive_text"])
    def test_featureless_text_raises_before_the_first_step(self, field):
        pairs = _toy_pairs(8)
        query, positive, charges = pairs[5]
        pairs[5] = ((" x ", positive) if field == "query_text" else (query, " x ")) + (charges,)
        embedder = ToyEmbedder(dim=4, hash_buckets=64, seed=0)
        before = embedder.weights.copy()
        with pytest.raises(FeaturelessText, match=f"pair 5: {field} has no") as info:
            train_toy(training_set(pairs, embedder), embedder,
                      TrainSchedule(epochs=1, batch_size=4))
        assert (info.value.pair, info.value.field) == (5, field)
        np.testing.assert_array_equal(embedder.weights, before)

    def test_zero_learning_rate_keeps_parameters(self):
        embedder = ToyEmbedder(dim=8, hash_buckets=256, seed=2)
        before = embedder.weights.copy()
        schedule = TrainSchedule(epochs=2, batch_size=8, learning_rate=0.0, seed=0)
        train_toy(training_set(_toy_pairs(16), embedder), embedder, schedule)
        np.testing.assert_array_equal(embedder.weights, before)

    def test_same_seed_bit_identical_curves(self):
        curves = []
        for _ in range(2):
            embedder = ToyEmbedder(dim=8, hash_buckets=256, seed=3)
            schedule = TrainSchedule(epochs=3, batch_size=8, seed=3)
            curves.append(train_toy(training_set(_toy_pairs(24), embedder), embedder, schedule))
        assert curves[0] == curves[1]

    def test_empty_pairs_rejected(self):
        embedder = ToyEmbedder(dim=4, hash_buckets=32)
        with pytest.raises(ValueError):
            train_toy(training_set([], embedder), embedder)

    def test_too_few_pairs_is_a_data_error_naming_the_count(self):
        embedder = ToyEmbedder(dim=4, hash_buckets=32)
        with pytest.raises(InsufficientData, match="^0 training pairs"):
            train_toy(training_set([], embedder), embedder)
        with pytest.raises(InsufficientData, match="^1 training pair"):
            train_toy(training_set(_toy_pairs(1), embedder), embedder)

    @pytest.mark.parametrize("masking", [True, False])
    def test_matches_oracle_loop_bit_for_bit(self, masking):
        # 3000 x 16 parameters: one full Adam block and a partial one
        schedule = TrainSchedule(epochs=3, batch_size=8, learning_rate=2e-2, seed=4)
        loss_cfg = LossConfig(temperature=0.5, masking_enabled=masking)
        fast = ToyEmbedder(dim=16, hash_buckets=3000, seed=4)
        plain = ToyEmbedder(dim=16, hash_buckets=3000, seed=4)
        curve = train_toy(training_set(_toy_pairs(45), fast), fast, schedule, loss_cfg)
        assert curve == train_toy_oracle(_toy_pairs(45), plain, schedule, loss_cfg)
        assert np.array_equal(fast.weights, plain.weights)

    def test_non_finite_weights_abort_with_diagnostics(self):
        from lexforge.errors import NonFiniteLoss
        embedder = ToyEmbedder(dim=4, hash_buckets=32, seed=0)
        embedder.weights[:] = np.nan
        with pytest.raises(NonFiniteLoss, match="step 0"):
            train_toy(training_set(_toy_pairs(8), embedder), embedder,
                      TrainSchedule(epochs=1, batch_size=4))

    def test_lr_schedule_shape(self):
        schedule = TrainSchedule(learning_rate=1.0)
        total = 100
        rates = [lr_at(t, total, schedule) for t in range(total)]
        peak = max(rates)
        assert rates.index(peak) == 9  # end of warm-up
        assert rates[-1] < rates[50] < peak  # decaying afterwards
        assert rates[0] == pytest.approx(0.1)


#: Texts with at least one bigram, some with whitespace inside.
TRAIN_TEXTS = st.builds(str.__add__, st.text("盗窃抢劫财物被告人驾驶ab", min_size=2, max_size=6),
                        st.text("盗窃财物 b", max_size=6))


@st.composite
def training_runs(draw):
    """Pairs, an embedder shape, a schedule and masking, plus texts the
    embedder has featurized before training. In one run of four, one query
    text is empty: it has no n-gram, so training stops before its first
    step, even when the pair would only land in a dropped singleton batch."""
    pairs = [(draw(TRAIN_TEXTS), draw(TRAIN_TEXTS),
               frozenset(draw(st.sets(st.sampled_from("xyz"), max_size=2))))
             for _ in range(draw(st.integers(2, 11)))]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = ("", *pairs[i][1:])
    shape = {"dim": draw(st.integers(1, 6)),
             "hash_buckets": draw(st.sampled_from([16, 17, 64, 500, 4096])),
             "seed": draw(st.integers(0, 3))}
    # a batch size that leaves a singleton last batch drops it
    schedule = TrainSchedule(epochs=draw(st.integers(1, 3)),
                             batch_size=draw(st.integers(2, 4)),
                             learning_rate=draw(st.sampled_from([0.0, 1e-2, 0.2])),
                             seed=draw(st.integers(0, 3)))
    texts = [t for query, positive, _ in pairs for t in (query, positive)]
    warm = draw(st.lists(st.sampled_from(texts + ["训练以外的文本"]), max_size=4))
    return pairs, shape, schedule, LossConfig(masking_enabled=draw(st.booleans())), warm


class TestCompactTraining:
    """Training over only the reachable weight rows is the full-layout loop
    (``oracles.train_toy_oracle``), bit for bit."""

    @given(training_runs())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_full_layout_loop(self, run):
        pairs, shape, schedule, loss_cfg, warm = run
        fast, plain = ToyEmbedder(**shape), ToyEmbedder(**shape)
        fast.embed(warm)
        empty = [i for i, (query, _, _) in enumerate(pairs) if not query]
        if empty:
            with pytest.raises(FeaturelessText, match=f"^pair {empty[0]}: query_text "):
                train_toy(training_set(pairs, fast), fast, schedule, loss_cfg)
            return
        want = train_toy_oracle(pairs, plain, schedule, loss_cfg)
        assert train_toy(training_set(pairs, fast), fast, schedule, loss_cfg) == want
        assert fast.weights.tobytes() == plain.weights.tobytes()

    @given(training_runs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_any_slot_layout_equals_the_full_layout_loop(self, run, rng):
        """A set that keeps each pair's texts in slots of their own, in any
        order, and a slot no pair names, as a stream of records with
        repeated ids gives it, trains as the plain loop does."""
        pairs, shape, schedule, loss_cfg, warm = run
        texts = [t for query, positive, _ in pairs for t in (query, positive)] + warm
        order = list(range(len(texts)))
        rng.shuffle(order)
        slot = {i: n for n, i in enumerate(order)}
        data = TrainingSet(FeatureStore(ToyEmbedder(**shape), [texts[i] for i in order]),
                           [slot[2 * i] for i in range(len(pairs))],
                           [slot[2 * i + 1] for i in range(len(pairs))],
                           range(len(pairs)), [charges for _, _, charges in pairs])
        fast, plain = ToyEmbedder(**shape), ToyEmbedder(**shape)
        if any(not query for query, _, _ in pairs):
            with pytest.raises(FeaturelessText):
                train_toy(data, fast, schedule, loss_cfg)
            return
        want = train_toy_oracle(pairs, plain, schedule, loss_cfg)
        assert train_toy(data, fast, schedule, loss_cfg) == want
        assert fast.weights.tobytes() == plain.weights.tobytes()

    @pytest.mark.parametrize("buckets", [16, 4096])
    def test_adam_steps_over_the_reachable_rows(self, monkeypatch, buckets):
        seen = []
        real_step = Adam.step

        def step(self, params, rows, grad_rows, lr):
            seen.append((params.shape, self.m.shape, self.v.shape))
            assert grad_rows.shape == (len(rows), 4) and 0 < len(rows) <= len(params)
            return real_step(self, params, rows, grad_rows, lr)

        monkeypatch.setattr(Adam, "step", step)
        pairs = _toy_pairs(30)
        embedder = ToyEmbedder(dim=4, hash_buckets=buckets, seed=7)
        curve = train_toy(training_set(pairs, embedder), embedder,
                          TrainSchedule(epochs=2, batch_size=8, seed=7))
        reach = set()
        for query, positive, _ in pairs:
            for text in (query, positive):
                reach.update(features_oracle(text, buckets, 2, 3)[0].tolist())
        assert len(seen) == len(curve) == 8
        assert set(seen) == {((len(reach), 4),) * 3}
        assert len(reach) == 16 if buckets == 16 else len(reach) < buckets // 2

    def test_the_gradient_buffer_is_allocated_once(self, monkeypatch):
        """Training reserves the largest batch's touched rows and feature
        entries before its first step: every batch works in one workspace,
        each array exactly as large as the largest batch needs, and every
        array keeps its address and size from the first step to the last.
        The buffer holds none of the optimizer's memory, and Adam reads the
        gradient as the buffer wrote it, a transposed view of its rows."""
        seen, held = [], []
        real_gradient = training._batch_gradient
        real_step = Adam.step

        def gradient(weights, data, pairs, cfg, buffer):
            loss, rows, grad = real_gradient(weights, data, pairs, cfg, buffer)
            entries = sum(len(idx) for idx, _ in data.store.entries(data.slots(pairs)))
            seen.append(([(a.ctypes.data, a.size) for a in _workspace(buffer)],
                         len(rows), entries))
            held.append(_workspace(buffer))
            return loss, rows, grad

        def step(self, params, rows, grad_rows, lr):
            workspace = held[-1]
            assert np.shares_memory(grad_rows, workspace[0]) and grad_rows.T.flags.c_contiguous
            assert not any(np.shares_memory(a, b) for a in workspace
                           for b in (params, self.m, self.v, *self._scratch))
            return real_step(self, params, rows, grad_rows, lr)

        monkeypatch.setattr(training, "_batch_gradient", gradient)
        monkeypatch.setattr(Adam, "step", step)
        embedder = ToyEmbedder(dim=4, hash_buckets=4096, seed=7)
        train_toy(training_set(_toy_pairs(30), embedder), embedder,
                  TrainSchedule(epochs=3, batch_size=7, seed=7))
        touched = [n for _, n, _ in seen]
        entries = [n for _, _, n in seen]
        assert len(seen) == 15 and len(set(touched)) > 1 and len(set(entries)) > 1
        workspace = seen[0][0]
        assert all(arrays == workspace for arrays, _, _ in seen)
        grad, idx, values, _, _ = workspace
        assert grad[1] == max(touched) * 4 and idx[1] == values[1] == max(entries)

    def test_caller_embedder_embeds_as_a_fresh_one(self):
        pairs = _toy_pairs(24)
        shape = {"dim": 8, "hash_buckets": 4096, "seed": 8}
        embedder = ToyEmbedder(**shape)
        embedded = [pairs[0][0], pairs[1][1], "与训练无关的文本"]
        embedder.embed(embedded)
        train_toy(training_set(pairs, embedder), embedder,
                  TrainSchedule(epochs=2, batch_size=8, seed=8))
        assert not np.array_equal(ToyEmbedder(**shape).weights, embedder.weights)
        fresh = ToyEmbedder(**shape, weights=embedder.weights.copy())
        texts = (embedded + [query for query, _, _ in pairs]
                 + [positive for _, positive, _ in pairs] + ["训练之后的新文本"])
        assert embedder.embed(texts).tobytes() == fresh.embed(texts).tobytes()
        for text in texts:
            idx, values = embedder.features(text)
            want_idx, want_values = features_oracle(text, 4096, 2, 3)
            assert np.array_equal(idx, want_idx) and np.array_equal(values, want_values)

    def test_a_failed_run_leaves_the_weights_as_before_training(self, monkeypatch):
        """A run that raises in its third epoch leaves the caller's weights as
        they were before training."""
        pairs = _toy_pairs(40)
        shape = {"dim": 8, "hash_buckets": 4096, "seed": 6}
        schedule = TrainSchedule(epochs=3, batch_size=8, learning_rate=0.05, seed=6)
        trained = ToyEmbedder(**shape)
        per_epoch = len(train_toy(training_set(pairs, trained), trained, schedule)) // 3
        calls = []
        real_gradient = training._batch_gradient

        def gradient(weights, data, pairs, cfg, buffer):
            calls.append(1)
            if len(calls) > 2 * per_epoch:
                raise ValueError("injected")
            return real_gradient(weights, data, pairs, cfg, buffer)

        monkeypatch.setattr(training, "_batch_gradient", gradient)
        embedder = ToyEmbedder(**shape)
        with pytest.raises(NonFiniteLoss, match=f"step {2 * per_epoch} "):
            train_toy(training_set(pairs, embedder), embedder, schedule)
        want = ToyEmbedder(**shape).weights
        assert not np.array_equal(trained.weights, want)
        assert embedder.weights.tobytes() == want.tobytes()


#: Seeds at the edges of the seed range and on either side of 2**32.
INIT_SEEDS = [0, 1, (1 << 32) - 1, (1 << 32) + 1, (1 << 63) - 1]


@st.composite
def init_draws(draw):
    """A seed, a dimension, a bucket count that is not a whole number of
    blocks of rows, and row ids in any order, repeats allowed: any, the
    first, the last, or all of them in order, which spans several
    blocks."""
    dim = draw(st.sampled_from([1, 3, 64]))
    per_block = INIT_CHUNK // dim
    buckets = draw(st.integers(1, 3 * per_block).filter(lambda n: n % per_block))
    ends = draw(st.sampled_from([[], [0], [buckets - 1], [buckets - 1, 0]]))
    picked = draw(st.one_of(st.lists(st.integers(0, buckets - 1), max_size=40),
                            st.just(list(range(buckets)))))
    rows = np.array(ends + picked, dtype=np.int64)
    return draw(st.sampled_from(INIT_SEEDS)), dim, buckets, rows


class TestLazyInit:
    """The seeded init is drawn on first read, and ``weight_rows`` draws
    rows of it alone, both bit for bit as the plain loop of
    :func:`init_oracle`."""

    @settings(max_examples=80, deadline=None)
    @given(init_draws())
    def test_rows_equal_the_oracle(self, case):
        seed, dim, buckets, rows = case
        got = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=seed).weight_rows(rows)
        assert got.shape == (len(rows), dim)
        assert got.tobytes() == init_oracle(buckets, dim, seed, rows).tobytes()

    @pytest.mark.parametrize("dim", [1, 5, 64])
    def test_the_block_size_does_not_change_a_value(self, monkeypatch, dim):
        """One row per block, and one block larger than every row, give the
        bytes of the default blocks."""
        buckets = 2 * INIT_CHUNK // dim + 3
        rows = np.arange(buckets)
        want = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=201).weight_rows(rows)
        for values in (1, (buckets + 1) * dim):
            monkeypatch.setattr(training, "INIT_CHUNK", values)
            got = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=201).weight_rows(rows)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [-1, 1 << 63])
    def test_a_seed_outside_the_range_is_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed = {seed}: seed must be in \[0, 2\*\*63\)"):
            ToyEmbedder(seed=seed)

    def test_a_draw_holds_its_output_and_one_chunk(self):
        """Drawing all 2^15 x 64 weights holds, beyond the 16 MiB output,
        only one chunk's working arrays: about 33 bytes per value of the
        chunk."""
        import tracemalloc
        embedder = ToyEmbedder(dim=64, hash_buckets=1 << 15, seed=201)
        rows = np.arange(1 << 15)
        tracemalloc.start()
        try:
            out = embedder.weight_rows(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 16 << 20
        assert peak - out.nbytes < INIT_CHUNK * 48

    @pytest.mark.parametrize("buckets,dim", [
        (1, 3), (512, 2), (3 * 512 + 7, 5), (1 << 12, 16)])
    @pytest.mark.parametrize("pick", ["empty", "first", "last", "sparse", "all"])
    def test_rows_equal_the_eager_draw(self, buckets, dim, pick):
        rows = {"empty": np.empty(0, dtype=np.int64), "first": np.array([0]),
                "last": np.array([buckets - 1]),
                "sparse": np.unique(np.random.default_rng(buckets).integers(0, buckets, 40)),
                "all": np.arange(buckets)}[pick]
        want = init_oracle(buckets, dim, buckets % 7, np.arange(buckets))
        embedder = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=buckets % 7)
        got = embedder.weight_rows(rows)
        assert got.shape == (len(rows), dim)
        assert got.tobytes() == want[rows].tobytes()
        assert embedder.weights.tobytes() == want.tobytes()
        embedder.weights[rows] += 1.0  # once drawn, rows are read from the weights
        assert embedder.weight_rows(rows).tobytes() == embedder.weights[rows].tobytes()

    def test_a_failed_run_draws_no_weights(self):
        embedder = ToyEmbedder(dim=4, hash_buckets=1 << 12, seed=5)
        # an empty query has no n-gram and stops the run before its first step
        pairs = _toy_pairs(8) + [("", "空的查询所对应的正例", frozenset())]
        with pytest.raises(FeaturelessText):
            train_toy(training_set(pairs, embedder), embedder,
                      TrainSchedule(epochs=1, batch_size=9))
        assert embedder._weights is None
        assert embedder.weights.tobytes() == init_oracle(1 << 12, 4, 5, range(1 << 12)).tobytes()

    def test_steps_hold_less_than_the_weight_matrix(self, monkeypatch):
        """With a 2^15 x 64 embedder, the memory traced at every Adam step
        is below the size of its weight matrix, and the only arrays alive
        as large as the reached rows x dim are the compact weights, ``m``
        and ``v``: the batch's gradient covers only the rows it touched.
        No training text, and no pair, made while training reads them, is
        alive at any step, and the features are held in a few arrays, not
        in arrays per text. The matrix is drawn after the last step, as in
        a run on an embedder drawn before training."""
        import inspect
        import tracemalloc
        buckets, dim = 1 << 15, 64
        numpy_domain = np.lib.tracemalloc_domain
        source, first = inspect.getsourcelines(_unheld_pairs)
        made_there = range(first, first + len(source))
        traced, large, numpy_blocks, unheld = [], [], [], []
        real_step = Adam.step

        def step(self, params, rows, grad_rows, lr):
            traced.append(tracemalloc.get_traced_memory()[0])
            traces = tracemalloc.take_snapshot().traces
            large.append((params.nbytes, [t.size for t in traces
                                          if t.domain == numpy_domain
                                          and t.size >= params.nbytes]))
            numpy_blocks.append(sum(t.domain == numpy_domain for t in traces))
            unheld.append(sum(t.size for t in traces if t.traceback[0].filename == __file__
                              and t.traceback[0].lineno in made_there))
            assert len(rows) < len(params)
            return real_step(self, params, rows, grad_rows, lr)

        monkeypatch.setattr(Adam, "step", step)
        schedule = TrainSchedule(epochs=2, batch_size=16, seed=3)
        tracemalloc.start()
        try:
            embedder = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=3)
            train_toy(training_set(_unheld_pairs(64), embedder), embedder, schedule)
        finally:
            tracemalloc.stop()
        assert len(traced) == 8
        assert max(traced) < buckets * dim * 8
        # Adam's block-sized scratch is smaller than the reached rows here
        assert min(reached for reached, _ in large) > ADAM_BLOCK * 8
        assert all(sizes == [reached] * 3 for reached, sizes in large)
        # 128 distinct texts: a memo would hold two arrays for each
        assert max(numpy_blocks) < 32
        assert unheld == [0] * 8
        monkeypatch.undo()
        drawn = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=3)
        drawn.weights  # noqa: B018 - the read draws the seeded init
        train_toy(training_set(_unheld_pairs(64), drawn), drawn, schedule)
        assert embedder.weights.tobytes() == drawn.weights.tobytes()


#: Charge sets for :func:`_unheld_pairs`, made before anything is traced.
UNHELD_CHARGES = tuple(frozenset({charge}) for charge in ("盗窃罪", "抢劫罪", "诈骗罪"))


def _unheld_pairs(n):
    """n pairs with distinct texts, each made as it is drawn, so that only
    the reader holds them."""
    for i in range(n):
        query = f"被告人于{2000 + i}年第{i}次实施犯罪行为"
        positive = f"法院认定被告人第{i}次犯罪事实清楚{i * 7}"
        yield query, positive, UNHELD_CHARGES[i % 3]


def _text_of_buckets(n, first, buckets):
    """A text whose unigrams fall in exactly n distinct buckets: characters
    from code point ``first`` on, each in a bucket of its own, then its
    first characters again, so that some counts are 2."""
    chars, seen = [], set()
    for code in range(first, first + 8 * n):
        bucket = int(features_oracle(chr(code), buckets, 1, 1)[0][0])
        if bucket not in seen and len(chars) < n:
            seen.add(bucket)
            chars.append(chr(code))
    text = "".join(chars + chars[:n // 3])
    assert len(features_oracle(text, buckets, 1, 1)[0]) == n
    return text


def _long_text(rng, n):
    """n characters drawn from 3,000 CJK ideographs, so that nearly every
    n-gram of the text is distinct."""
    return "".join(map(chr, 0x4E00 + rng.integers(0, 3000, n)))


class TestStepWorkspace:
    """A batch's gradient is computed in memory the step already holds: the
    features are decoded into the buffer, each text's weight rows are
    gathered into the gradient rows, and the scatter then writes the
    gradient into that same memory, one weight column at a time. It equals
    the oracle bit for bit."""

    def test_texts_on_either_side_of_an_adam_block_equal_the_oracle(self):
        """Texts with one distinct bucket fewer than an Adam block has rows,
        exactly a block's worth and one more, through a fresh, unreserved
        buffer. The gradient is a transposed view of the buffer's rows."""
        dim, buckets = 64, 1 << 12
        block = ADAM_BLOCK // dim
        embedder = ToyEmbedder(dim=dim, hash_buckets=buckets, ngram_min=1, ngram_max=1, seed=5)
        short, exact, long = (_text_of_buckets(block + extra, first, buckets)
                              for extra, first in ((-1, 0x4E00), (0, 0x5E00), (1, 0x6E00)))
        pairs = [(short, exact, frozenset({"a"})), (long, short[::-1], frozenset({"b"})),
                 (exact[::-1], long[::-1], frozenset({"a"}))]
        data = training_set(pairs, embedder)
        reached = data.store.rows
        assert len(reached) > block + 1
        buffer = _GradientBuffer((len(reached), dim))
        assert len(buffer.grad) == len(buffer.idx) == 0
        for masking in (True, False):
            cfg = LossConfig(masking_enabled=masking)
            loss, rows, grad = _batch_gradient(embedder.weights[reached], data, [0, 1, 2], cfg,
                                               buffer)
            assert grad.T.flags.c_contiguous and np.shares_memory(grad, buffer.grad)
            expected_loss, expected = batch_gradient_oracle(embedder, pairs, cfg)
            assert loss == expected_loss
            assert (dense_gradient(reached[rows], grad, expected.shape).tobytes()
                    == expected.tobytes())

    def test_steps_after_the_first_allocate_less_than_one_text(self, monkeypatch):
        """On the 2^15 x 64 shape, the memory traced while steps 2 to N run
        stays below one text's gradient rows (the most distinct buckets of
        any text x dim x 8 bytes) beyond what is held when step 2 starts:
        no step allocates an array per text."""
        import tracemalloc
        buckets, dim = 1 << 15, 64
        rng = np.random.default_rng(33)
        pairs = [(_long_text(rng, 300), _long_text(rng, 400), UNHELD_CHARGES[i % 3])
                 for i in range(48)]
        largest = max(len(features_oracle(text, buckets, 2, 3)[0])
                      for query, positive, _ in pairs for text in (query, positive))
        embedder = ToyEmbedder(dim=dim, hash_buckets=buckets, seed=33)
        data = training_set(pairs, embedder)
        calls, held, traced = [], [], []
        real_gradient = training._batch_gradient
        real_step = Adam.step

        def gradient(weights, data, pairs, cfg, buffer):
            calls.append(len(calls))
            if len(calls) == 2:
                tracemalloc.reset_peak()
                held.append(tracemalloc.get_traced_memory()[0])
            return real_gradient(weights, data, pairs, cfg, buffer)

        def step(self, params, rows, grad_rows, lr):
            real_step(self, params, rows, grad_rows, lr)
            traced.append(tracemalloc.get_traced_memory())

        monkeypatch.setattr(training, "_batch_gradient", gradient)
        monkeypatch.setattr(Adam, "step", step)
        tracemalloc.start()
        try:
            train_toy(data, embedder, TrainSchedule(epochs=2, batch_size=8, seed=33))
        finally:
            tracemalloc.stop()
        assert len(traced) == 12 and largest > 500
        (held,), (_, peak) = held, traced[-1]
        assert peak - held < largest * dim * 8



#: A character in every text of :func:`_scatter_texts`, so that one
#: weight row takes a term from every text of a batch.
SHARED_CHAR = "的"

#: Text lengths for :func:`_scatter_texts`: 0 is a one-feature text.
SCATTER_LENGTHS = st.sampled_from([0, 1, 7, 40, 700])

#: A batch of 64 texts with more feature entries than ``ADAM_BLOCK``.
FULL_BATCH = [0] * 4 + [700] * 60

#: Signed zeros, subnormals and ordinary values for ``d``.
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                         -1e-310]),
                        st.floats(-1e3, 1e3))


def _scatter_texts(lengths, seed):
    """The shared character, then that many ideographs, for each length."""
    rng = np.random.default_rng(seed)
    return [SHARED_CHAR + _long_text(rng, n) for n in lengths]


class TestColumnScatter:
    """The scatter writes each weight column with one weighted ``bincount``
    over the batch's entries, in text order. It equals the per-text oracle
    bit for bit, signed zeros included, with one row in every text of a
    batch, batches of more entries than an Adam block, and texts of one
    feature."""

    def _batch_equals_the_oracle(self, lengths, seed, dim, masking):
        """Train's batch gradient on the pairs of consecutive texts equals
        :func:`batch_gradient_oracle`; the batch's entry count."""
        texts = _scatter_texts(lengths, seed)
        pairs = [(q, c, frozenset({i % 3})) for i, (q, c) in enumerate(zip(texts[::2],
                                                                            texts[1::2]))]
        embedder = ToyEmbedder(dim=dim, hash_buckets=1 << 12, ngram_min=1, ngram_max=1,
                               seed=seed)
        data = training_set(pairs, embedder)
        reached = data.store.rows
        cfg = LossConfig(masking_enabled=masking)
        loss, rows, grad = _batch_gradient(embedder.weights[reached], data,
                                           list(range(len(pairs))), cfg,
                                           _GradientBuffer((len(reached), dim)))
        expected_loss, expected = batch_gradient_oracle(embedder, pairs, cfg)
        assert loss == expected_loss
        assert (dense_gradient(reached[rows], grad, expected.shape).tobytes()
                == expected.tobytes())
        return sum(len(embedder.features(text)[0]) for text in texts)

    @settings(max_examples=20, deadline=None)
    @given(lengths=st.lists(SCATTER_LENGTHS, min_size=2, max_size=64).filter(
               lambda lengths: len(lengths) % 2 == 0),
           seed=st.integers(0, 1 << 16), dim=st.sampled_from([1, 3, 64]),
           masking=st.booleans())
    @example(lengths=[0, 0], seed=0, dim=3, masking=False)
    def test_batches_equal_the_oracle(self, lengths, seed, dim, masking):
        self._batch_equals_the_oracle(lengths, seed, dim, masking)

    def test_a_full_batch_over_an_adam_block_equals_the_oracle(self):
        """64 texts add to the shared row, four of them with no other
        feature, and the batch has more entries than ``ADAM_BLOCK``."""
        assert self._batch_equals_the_oracle(FULL_BATCH, 0, 64, True) > ADAM_BLOCK

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(SCATTER_LENGTHS, min_size=1, max_size=64),
           seed=st.integers(0, 1 << 16), dim=st.sampled_from([1, 3, 8]),
           d_values=st.lists(EDGE_FLOATS, min_size=1, max_size=6))
    @example(lengths=[0, 1, 7], seed=1, dim=3, d_values=[-0.0])
    @example(lengths=[0, 40, 40], seed=2, dim=8, d_values=[5e-324, -5e-324])
    def test_signed_zeros_and_subnormals_in_d(self, lengths, seed, dim, d_values):
        """``d`` rows drawn from signed zeros, subnormals and ordinary
        values: a row that takes only -0.0 terms is +0.0, as in the
        oracle's array of zeros."""
        texts = _scatter_texts(lengths, seed)
        shape = (1 << 12, dim)
        embedder = ToyEmbedder(dim=dim, hash_buckets=shape[0], ngram_min=1, ngram_max=1,
                               seed=seed)
        store = FeatureStore(embedder, texts)
        buffer = _GradientBuffer((len(store.rows), dim))
        rows, feats = buffer.start(store, np.arange(len(texts)))
        d_rows = np.random.default_rng(seed).choice(d_values, size=(len(texts), dim))
        grad = buffer.scatter(feats, d_rows, len(rows))
        expected = scatter_oracle(shape, [embedder.features(text) for text in texts], d_rows)
        assert dense_gradient(store.rows[rows], grad, shape).tobytes() == expected.tobytes()

    def test_a_nan_in_one_texts_d_stops_the_run(self, monkeypatch):
        """A NaN in one text's ``d`` at step 3, the first of epoch 1, is a
        :class:`NonFiniteLoss` naming the step and the epoch, and the
        caller's weights keep their bytes."""
        real_scatter = _GradientBuffer.scatter
        calls = []

        def scatter(self, feats, d_rows, n_rows):
            calls.append(1)
            if len(calls) == 4:
                d_rows[5, 0] = np.nan
            return real_scatter(self, feats, d_rows, n_rows)

        monkeypatch.setattr(_GradientBuffer, "scatter", scatter)
        embedder = ToyEmbedder(dim=8, hash_buckets=4096, seed=4)
        before = embedder.weights.copy()
        with pytest.raises(NonFiniteLoss, match=r"at step 3 \(epoch 1\)"):
            train_toy(training_set(_toy_pairs(24), embedder), embedder,
                      TrainSchedule(epochs=2, batch_size=8, seed=4))
        assert len(calls) == 4
        assert embedder.weights.tobytes() == before.tobytes()


class TestAdam:
    def test_single_step_matches_formula(self):
        params = np.zeros((2, 2))
        grad = np.array([[1.0, -2.0], [0.5, 0.0]])
        opt = Adam(params.shape)
        opt.step(params, np.arange(2), grad, lr=0.1)
        # after one step m_hat = grad, v_hat = grad^2
        expected = -0.1 * grad / (np.abs(grad) + 1e-8)
        np.testing.assert_allclose(params, expected, atol=1e-9)


class TestFastPathsMatchOracles:
    @pytest.mark.parametrize("shape", [(3, 5), (1000, 37), (1100, 64), (2, ADAM_BLOCK + 3)])
    def test_adam_on_sparse_row_stream(self, shape):
        """Row-sparse steps equal the oracle fed the densified gradient, bit
        for bit, in the parameters, ``m`` and ``v``. The shapes include a
        ``dim`` that does not divide ``ADAM_BLOCK`` and one wider than a
        block; the steps include one with no touched row, rows on both sides
        of a block edge and ``lr`` 0."""
        assert np.prod(shape) % ADAM_BLOCK != 0
        n, dim = shape
        edge = max(1, ADAM_BLOCK // dim)
        rng = np.random.default_rng(n)
        params = rng.normal(size=shape)
        expected = params.copy()
        fast, plain = Adam(shape), AdamOracle(shape)
        for step in range(9):
            if step == 3:
                rows = np.empty(0, dtype=np.intp)
            elif step == 4:
                rows = np.unique(np.clip([edge - 2, edge - 1, edge, edge + 1], 0, n - 1))
            else:
                rows = np.sort(rng.choice(n, size=max(1, n // 5), replace=False))
            grad_rows = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=(len(rows), dim))
            grad_rows[grad_rows > 1] = -0.0
            lr = 1e-2 * (step + 1) if step < 7 else 0.0
            fast.step(params, rows, grad_rows, lr)
            plain.step(expected, dense_gradient(rows, grad_rows, shape), lr)
            assert params.tobytes() == expected.tobytes()
            assert fast.m.tobytes() == plain.m.tobytes()
            assert fast.v.tobytes() == plain.v.tobytes()

    def test_adam_rejects_arrays_it_cannot_update_in_place(self):
        opt = Adam((4, 6))
        rows = np.arange(2)
        with pytest.raises(ValueError, match="shape"):
            opt.step(np.zeros((6, 4)), rows, np.zeros((2, 4)), 0.1)
        with pytest.raises(ValueError, match="shape"):
            opt.step(np.zeros((4, 6)), rows, np.zeros((3, 6)), 0.1)
        with pytest.raises(ValueError, match="contiguous"):
            opt.step(np.zeros((6, 4)).T, rows, np.zeros((2, 6)), 0.1)

    def test_reused_gradient_buffer(self):
        """One fresh, unreserved buffer serves batches of different sizes:
        each batch's rows are sorted, unique and exactly the buckets of its
        texts, and its gradient, a view of the buffer, is the oracle's on
        those rows. A workspace array is replaced only for a batch that
        needs more than it holds, by one of exactly that size."""
        embedder = ToyEmbedder(dim=8, hash_buckets=512, seed=6)
        pairs = _toy_pairs(24)
        data = training_set(pairs, embedder)
        reached = data.store.rows
        buffer = _GradientBuffer((len(reached), 8))
        cfg = LossConfig()
        grown = []
        for start, stop in ((0, 6), (6, 8), (8, 20), (20, 24)):
            chunk = list(range(start, stop))
            held = [(a.ctypes.data, a.size) for a in _workspace(buffer)]
            loss, rows, grad = _batch_gradient(embedder.weights[reached], data, chunk, cfg,
                                               buffer)
            entries = sum(len(idx) for idx, _ in data.store.entries(data.slots(chunk)))
            needs = [len(rows) * 8, entries, entries, 0, 0]
            grown.append([need > size for (_, size), need in zip(held, needs)])
            for (address, size), array, need in zip(held, _workspace(buffer), needs):
                assert (array.ctypes.data, array.size) == (
                    (address, size) if need <= size else (array.ctypes.data, need))
            expected_loss, expected = batch_gradient_oracle(embedder, pairs[start:stop], cfg)
            buckets = set()
            for query, positive, _ in pairs[start:stop]:
                for text in (query, positive):
                    buckets.update(features_oracle(text, 512, 2, 3)[0].tolist())
            assert reached[rows].tolist() == sorted(buckets)
            assert grad.shape == (len(rows), 8) and np.shares_memory(grad, buffer.grad)
            assert loss == expected_loss
            assert (dense_gradient(reached[rows], grad, expected.shape).tobytes()
                    == expected.tobytes())
            assert not buffer.touched.any()
            embedder.weights[...] -= 0.1 * expected  # the next batch sees new weights
        assert [any(g) for g in grown] == [True, False, True, False]
