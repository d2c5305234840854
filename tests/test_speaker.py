import numpy as np
import pytest

from kwscascade.encoder import Activation, EncoderLayer, EncoderModel, ModelKind
from kwscascade.quantize import DimensionError, QuantParams, compute_quant_params, quantize, quantize_bias
from kwscascade.speaker import (
    EmptySegmentError,
    SpeakerProfile,
    SpeakerSignature,
    cosine_similarity,
    embed,
    enroll,
    load_profile,
    serialize_profile,
    verify,
)
from kwscascade.synthetic import make_random_embedding_model, speech_like_noise
import kwscascade as k


def constant_embedding_model(dim=4, channels=8, bias_value=2.0):
    """Zero weights (up to one step), bias-only output: signature == bias."""
    weights = np.zeros((dim, channels))
    weights[0, 0] = 1e-3  # non-degenerate range; negligible contribution
    in_params = QuantParams(-30.0, 30.0)
    w_params = compute_quant_params(weights)
    bias = np.full(dim, bias_value)
    layer = EncoderLayer(
        quantize(weights, w_params),
        quantize_bias(bias, w_params.scale * in_params.scale),
        in_params,
        Activation.NONE,
    )
    return EncoderModel([layer], channels, 1, dim, ModelKind.EMBEDDING)


class TestEmbed:
    def test_deterministic(self):
        cfg = k.FrontendConfig()
        model = make_random_embedding_model(cfg)
        feats = k.compute_features(speech_like_noise(8000, seed=1), cfg)
        a = embed(feats, model)
        b = embed(feats, model)
        assert np.array_equal(a.vector, b.vector)

    def test_constant_network_returns_bias(self):
        model = constant_embedding_model(bias_value=2.0)
        rng = np.random.default_rng(0)
        sig = embed(rng.uniform(-20, 20, size=(10, 8)), model)
        assert np.allclose(sig.vector, 2.0, atol=0.05)

    def test_empty_segment_rejected(self):
        model = constant_embedding_model()
        with pytest.raises(EmptySegmentError):
            embed(np.zeros((0, 8)), model)

    def test_one_dimensional_array_names_the_frame_shape(self):
        with pytest.raises(DimensionError, match=r"shape \(8,\) are not \[T, 8\]"):
            embed(np.zeros(8), constant_embedding_model())

    def test_extra_silence_frame_barely_moves_signature(self):
        cfg = k.FrontendConfig()
        model = make_random_embedding_model(cfg)
        noise = speech_like_noise(8000, seed=2)
        padded = np.concatenate([noise, np.zeros(400, dtype=np.int16)])
        seg = k.compute_features(noise, cfg)
        seg_extra = k.compute_features(padded, cfg)
        assert len(seg_extra) > len(seg)
        a = embed(seg, model)
        b = embed(seg_extra, model)
        assert cosine_similarity(a.vector, b.vector) >= 0.99

    def test_acoustic_model_rejected(self):
        from kwscascade.synthetic import make_tone_acoustic_model

        cfg = k.FrontendConfig()
        with pytest.raises(DimensionError):
            embed(np.zeros((4, 32)), make_tone_acoustic_model(cfg, 3))


class TestEnroll:
    def test_single_signature_normalised(self):
        sig = SpeakerSignature(np.array([3.0, 4.0]))
        profile = enroll([sig], threshold=0.5)
        assert np.allclose(profile.signature.vector, [0.6, 0.8])
        assert np.linalg.norm(profile.signature.vector) == pytest.approx(1.0)

    def test_identical_signatures_average_to_same(self):
        sig = SpeakerSignature(np.array([1.0, 2.0, 2.0]))
        profile = enroll([sig, sig, sig], threshold=0.5)
        assert np.allclose(profile.signature.vector, np.array([1.0, 2.0, 2.0]) / 3.0)
        assert profile.num_enrollment_utterances == 3

    def test_orthogonal_pair_averages_to_diagonal(self):
        a = SpeakerSignature(np.array([1.0, 0.0]))
        b = SpeakerSignature(np.array([0.0, 1.0]))
        profile = enroll([a, b], threshold=0.5)
        assert np.allclose(profile.signature.vector, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            enroll([SpeakerSignature(np.zeros(3) + 1), SpeakerSignature(np.zeros(4) + 1)])

    def test_empty_enrollment_rejected(self):
        with pytest.raises(ValueError):
            enroll([])


class TestVerify:
    def test_self_similarity_is_one(self):
        sig = SpeakerSignature(np.array([0.2, -0.5, 1.0]))
        profile = enroll([sig], threshold=1.0)
        result = verify(sig, profile)
        assert result.score == pytest.approx(1.0)
        assert result.accepted

    def test_orthogonal_scores_zero(self):
        profile = enroll([SpeakerSignature(np.array([1.0, 0.0]))], threshold=0.5)
        result = verify(SpeakerSignature(np.array([0.0, 1.0])), profile)
        assert result.score == pytest.approx(0.0)
        assert not result.accepted

    def test_45_degree_pair(self):
        profile = enroll([SpeakerSignature(np.array([1.0, 0.0]))], threshold=0.5)
        result = verify(SpeakerSignature(np.array([1.0, 1.0])), profile)
        assert result.score == pytest.approx(1 / np.sqrt(2))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        profile = enroll([SpeakerSignature(rng.normal(size=16))], threshold=0.3)
        v = rng.normal(size=16)
        base = verify(SpeakerSignature(v), profile)
        for alpha in (1e-6, 0.5, 3.0, 1e6):
            scaled = verify(SpeakerSignature(alpha * v), profile)
            assert scaled.accepted == base.accepted
            assert scaled.score == pytest.approx(base.score, abs=1e-9)

    def test_score_bounded_and_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = rng.normal(size=8), rng.normal(size=8)
            s = cosine_similarity(a, b)
            assert -1.0 <= s <= 1.0
            assert s == pytest.approx(cosine_similarity(b, a))

    def test_zero_test_vector_rejected(self):
        profile = enroll([SpeakerSignature(np.array([1.0, 0.0]))], threshold=0.5)
        with pytest.raises(ValueError):
            verify(SpeakerSignature(np.zeros(2)), profile)

    def test_dimension_mismatch_rejected(self):
        profile = enroll([SpeakerSignature(np.ones(4))], threshold=0.5)
        with pytest.raises(DimensionError):
            verify(SpeakerSignature(np.ones(5)), profile)


class TestProfileFile:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        profile = enroll(
            [SpeakerSignature(rng.normal(size=64)) for _ in range(3)], threshold=0.62
        )
        data = serialize_profile(profile)
        back = load_profile(data)
        assert back.num_enrollment_utterances == 3
        assert back.threshold == pytest.approx(0.62, abs=1e-6)
        assert np.allclose(back.signature.vector, profile.signature.vector, atol=1e-6)

    def test_bad_magic_rejected(self):
        data = serialize_profile(enroll([SpeakerSignature(np.ones(4))], 0.5))
        with pytest.raises(ValueError):
            load_profile(b"ZZZZ" + data[4:])

    def test_truncation_rejected(self):
        data = serialize_profile(enroll([SpeakerSignature(np.ones(4))], 0.5))
        with pytest.raises(ValueError):
            load_profile(data[:-3])

    def test_threshold_bounds_validated(self):
        with pytest.raises(ValueError):
            SpeakerProfile(SpeakerSignature(np.array([1.0])), 1, threshold=1.5)
