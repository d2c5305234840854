import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwscascade import audio_io, speaker
from kwscascade.frontend import BLOCK_SAMPLES, ConfigError
from kwscascade.synthetic import generate_audio_corpus, load_audio_corpus, speech_like_noise
from conftest import traced_peak_mb


class TestWav:
    def test_round_trip(self, tmp_path):
        samples = speech_like_noise(5000, seed=0)
        path = tmp_path / "a.wav"
        audio_io.write_wav(str(path), samples)
        chunk = audio_io.read_wav(str(path))
        assert np.array_equal(chunk.samples, samples)

    def test_out_of_range_sample_rejected_not_wrapped(self, tmp_path):
        path = tmp_path / "loud.wav"
        with pytest.raises(ConfigError):
            audio_io.write_wav(str(path), [40000, 0])
        assert not path.exists()

    def test_wrong_rate_rejected(self, tmp_path):
        import wave

        path = tmp_path / "bad.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(8000)
            wav.writeframes(b"\x00\x00" * 100)
        with pytest.raises(ConfigError):
            audio_io.read_wav(str(path))

    def test_reads_blocks_into_one_writable_array(self, tmp_path):
        samples = speech_like_noise(2 * BLOCK_SAMPLES + 7, seed=1)
        path = tmp_path / "long.wav"
        audio_io.write_wav(str(path), samples)
        read = audio_io.read_wav(str(path)).samples
        assert read.dtype == np.int16 and read.flags.writeable
        assert np.array_equal(read, samples)

    @pytest.mark.parametrize("cut", [1, 2, 2 * BLOCK_SAMPLES + 3])
    def test_data_cut_anywhere_ends_early(self, tmp_path, cut):
        path = tmp_path / "cut.wav"
        audio_io.write_wav(str(path), speech_like_noise(2 * BLOCK_SAMPLES + 7, seed=1))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        expected = 2 * (2 * BLOCK_SAMPLES + 7)
        with pytest.raises(ConfigError, match=f"WAV data ends early "
                                              rf"\({expected - cut} of {expected} bytes\)"):
            audio_io.read_wav(str(path))

    def test_header_claiming_4_gb_reads_as_ending_early(self, tmp_path):
        # a streaming writer leaves the data size at 0xFFFFFFFF; an array of the
        # header's count would be 4 GB
        path = tmp_path / "streamed.wav"
        audio_io.write_wav(str(path), speech_like_noise(1000, seed=2))
        data = bytearray(path.read_bytes())
        data[40:44] = struct.pack("<I", 0xFFFFFFFE)
        path.write_bytes(bytes(data))

        def read(reader):
            with pytest.raises(ConfigError, match=f"ends early \\(2000 of {0xFFFFFFFE} bytes\\)"):
                reader(str(path))

        assert traced_peak_mb(lambda: read(audio_io.read_wav)) < 1
        assert traced_peak_mb(lambda: read(lambda p: list(audio_io.read_pcm(p)))) < 1


class TestWavCorpus:
    def test_holds_paths_and_header_counts_and_reads_when_asked(self, tmp_path):
        manifest = generate_audio_corpus(3, str(tmp_path), num_positives=1, num_negatives=1,
                                         negative_seconds=2.0)
        corpus = load_audio_corpus(manifest)
        stream = corpus.negatives[0]
        assert stream.num_samples == 2 * 16000 and stream.duration_ms == 2000.0
        assert np.array_equal(np.concatenate(list(stream.blocks())),
                              audio_io.read_wav(stream.path).samples)
        positive = corpus.positives[0].stream
        assert positive.num_samples == len(audio_io.read_wav(positive.path).samples)


class Trickle:
    """A binary stream whose every read returns at most 3 bytes, as a pipe may."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def read(self, size):
        return self._data.read(min(size, 3))


def read_until(source, error, match):
    """The samples ``read_pcm(source)`` yields before it raises ``error`` matching ``match``."""
    blocks = []
    with pytest.raises(error, match=match):
        for block in audio_io.read_pcm(source):
            blocks.append(block)
    return np.concatenate(blocks) if blocks else np.zeros(0, np.int16)


class TestReadPcm:
    @pytest.mark.parametrize("length", [0, 1, BLOCK_SAMPLES - 1, BLOCK_SAMPLES,
                                        BLOCK_SAMPLES + 1, 2 * BLOCK_SAMPLES])
    def test_wav_blocks_concatenate_to_read_wav(self, tmp_path, length):
        samples = speech_like_noise(length, seed=4) if length else np.zeros(0, np.int16)
        path = str(tmp_path / "a.wav")
        audio_io.write_wav(path, samples)
        blocks = list(audio_io.read_pcm(path))
        assert [len(b) for b in blocks] == [min(BLOCK_SAMPLES, length - start)
                                            for start in range(0, length, BLOCK_SAMPLES)]
        assert all(b.dtype == np.int16 for b in blocks)
        whole = np.concatenate(blocks) if blocks else np.zeros(0, np.int16)
        assert np.array_equal(whole, audio_io.read_wav(path).samples)
        assert np.array_equal(whole, samples)

    @pytest.mark.parametrize("cut", [1, 2000, 2 * (BLOCK_SAMPLES + 7)])  # the last: a block edge
    def test_wav_cut_yields_the_samples_before_the_cut_then_ends_early(self, tmp_path, cut):
        samples = speech_like_noise(2 * BLOCK_SAMPLES + 7, seed=1)
        path = tmp_path / "cut.wav"
        audio_io.write_wav(str(path), samples)
        path.write_bytes(path.read_bytes()[:-cut])
        expected = 2 * len(samples)
        got = read_until(str(path), ConfigError,
                         rf"WAV data ends early \({expected - cut} of {expected} bytes\)")
        assert np.array_equal(got, samples[: (expected - cut) // 2])

    def test_a_header_checked_before_the_first_block(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"not a RIFF file\n" * 4)
        assert len(read_until(str(path), ConfigError, "not a WAV file")) == 0

    def test_short_reads_give_the_same_samples(self):
        samples = speech_like_noise(2 * BLOCK_SAMPLES + 5, seed=6)
        data = samples.astype("<i2").tobytes()
        trickled = list(audio_io.read_pcm(Trickle(data)))
        assert [len(b) for b in trickled] == [BLOCK_SAMPLES, BLOCK_SAMPLES, 5]
        assert np.array_equal(np.concatenate(trickled), samples)
        assert np.array_equal(np.concatenate(list(audio_io.read_pcm(io.BytesIO(data)))),
                              samples)

    def test_reads_little_endian_int16(self):
        samples = np.array([1, -2, 300, -32768], dtype=np.int16)
        blocks = list(audio_io.read_pcm(io.BytesIO(samples.astype("<i2").tobytes())))
        assert len(blocks) == 1 and np.array_equal(blocks[0], samples)

    @pytest.mark.parametrize("stream", [io.BytesIO, Trickle])
    def test_odd_total_names_the_total_after_the_whole_samples(self, stream):
        data = speech_like_noise(BLOCK_SAMPLES + 1000, seed=7).astype("<i2").tobytes() + b"\x01"
        got = read_until(stream(data), ValueError,
                         rf"raw PCM has an odd byte count \({len(data)}\)")
        assert got.tobytes() == data[:-1]

    def test_empty_stream_yields_nothing(self):
        assert list(audio_io.read_pcm(io.BytesIO(b""))) == []


def read_whole(read, fileobj):
    """A block reader's whole stream as one [T, M+1] array, and num_units."""
    num_units, blocks = read(fileobj)
    return np.concatenate([np.empty((0, num_units + 1)), *blocks]), num_units


class TestPosteriorStream:
    def test_round_trip(self):
        posteriors = np.random.default_rng(2).uniform(0, 1, size=(30, 4))
        buf = io.BytesIO()
        audio_io.write_posteriors(buf, posteriors, 3)
        buf.seek(0)
        data, units = read_whole(audio_io.posterior_blocks, buf)
        assert units == 3
        assert np.allclose(data, posteriors, atol=1e-6)

    def test_column_count_checked(self):
        with pytest.raises(ValueError):
            audio_io.write_posteriors(io.BytesIO(), np.zeros((5, 3)), 3)

    def test_csv_parsing(self):
        text = io.StringIO("u1,u2,filler\n0.5,0.25,0.25\n0.1,0.2,0.7\n")
        data, units = read_whole(audio_io.posterior_csv_blocks, text)
        assert units == 2
        assert data.shape == (2, 3)
        assert data[0, 0] == 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, bad):
        posteriors = np.full((300, 3), 0.2)
        posteriors[100, 1] = bad
        posteriors[200, 0] = bad
        buf = io.BytesIO()
        audio_io.write_posteriors(buf, posteriors, 2)
        buf.seek(0)
        with pytest.raises(ValueError, match="frame 100 "):
            read_whole(audio_io.posterior_blocks, buf)

    def test_csv_blocks_parse_every_line_as_float_does(self):
        # blank and padded lines across three blocks, cells in several spellings
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, (2 * audio_io.POSTERIOR_BLOCK_FRAMES + 5, 3))
        spell = [repr, lambda v: f"{v:.6g}", lambda v: f" {v:.3e}\t", lambda v: f"{v:.25f}"]
        rows = [",".join(spell[(i + j) % 4](float(v)) for j, v in enumerate(row))
                for i, row in enumerate(values)]
        lines = ["", "u1,u2,filler"] + [f"  {r} " if i % 7 else f"{r}\n" for i, r in enumerate(rows)]
        data, units = read_whole(audio_io.posterior_csv_blocks, io.StringIO("\n".join(lines)))
        want = np.array([[float(c) for c in r.split(",")] for r in rows])
        assert units == 2
        assert data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text", ["", "\n  \n", "u1,filler\n", "u1,filler\n\n \n"])
    def test_csv_without_a_frame_rejected(self, text):
        with pytest.raises(ValueError, match="^empty posterior CSV$"):
            audio_io.posterior_csv_blocks(io.StringIO(text))

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "0x1p-1", "", "0.5#"])
    def test_csv_cell_that_does_not_parse_names_its_line(self, cell):
        text = io.StringIO(f"u1,u2,filler\n0.5,0.25,0.25\n\n0.1,{cell},0.7\n")
        with pytest.raises(ValueError, match=re.escape(
                f"posterior CSV line 4 is not 3 numbers: '0.1,{cell},0.7'")):
            audio_io.posterior_csv_blocks(text)

    def test_csv_block_wider_than_the_first_frame_names_its_line(self, monkeypatch):
        # a whole block one cell wider parses on its own; its first line is named
        monkeypatch.setattr(audio_io, "POSTERIOR_BLOCK_FRAMES", 2)
        text = io.StringIO("u1,filler\n0.5,0.5\n0.5,0.5\n0.2,0.3,0.5\n0.2,0.3,0.5\n")
        with pytest.raises(ValueError, match=re.escape(
                "posterior CSV line 4 is not 2 numbers: '0.2,0.3,0.5'")):
            audio_io.posterior_csv_blocks(text)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_csv_frame_rejected(self, bad):
        text = io.StringIO(f"u1,u2,filler\n0.5,0.25,0.25\n0.1,{bad},0.7\n0.1,0.2,{bad}\n")
        with pytest.raises(ValueError, match="frame 1 "):
            read_whole(audio_io.posterior_csv_blocks, text)


def _posterior_file():
    buf = io.BytesIO()
    audio_io.write_posteriors(buf, np.random.default_rng(4).uniform(0, 1, (12, 4)), 3)
    return buf.getvalue()


def _posterior_csv_file():
    rows = np.random.default_rng(6).uniform(0, 1, (12, 4))
    lines = ["u1,u2,u3,filler"] + [",".join(f"{v:.6g}" for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _profile_file():
    signature = speaker.SpeakerSignature(np.random.default_rng(5).normal(size=16))
    return speaker.serialize_profile(speaker.enroll([signature], 0.6))


def _posterior_blocks(data):
    return read_whole(audio_io.posterior_blocks, io.BytesIO(data))[0]


def _posterior_csv_blocks(data):
    return read_whole(audio_io.posterior_csv_blocks, io.StringIO(data.decode()))[0]


def _load_profile(data):
    profile = speaker.load_profile(data)
    assert -1.0 <= profile.threshold <= 1.0
    return profile.signature.vector


# each reader, a valid file, and what it loads as one array
READERS = {
    "posterior_blocks": (_posterior_blocks, _posterior_file()),
    "posterior_csv_blocks": (_posterior_csv_blocks, _posterior_csv_file()),
    "load_profile": (_load_profile, _profile_file()),
}
# the binary readers, and the offset of their first float32
FLOAT_STARTS = {"posterior_blocks": 12, "load_profile": 14}


class TestCorruptFiles:
    """A damaged file either loads finite values or raises ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(READERS)),
           st.lists(st.integers(0, 2**31), min_size=1, max_size=8))
    def test_bit_flipped_file_loads_finite_or_raises_value_error(self, reader, flips):
        read, valid = READERS[reader]
        data = bytearray(valid)
        for bit in flips:
            data[bit // 8 % len(data)] ^= 1 << (bit % 8)
        try:
            values = read(bytes(data))
        except ValueError:
            return
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_every_truncation_loads_finite_or_raises_value_error(self, reader):
        read, valid = READERS[reader]
        for end in range(len(valid)):
            try:
                values = read(valid[:end])
            except ValueError:
                continue
            assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("reader", sorted(FLOAT_STARTS))
    def test_every_exponent_byte_set_to_nan_is_rejected(self, reader):
        # a little-endian float32 whose top byte is 0xFF and whose next byte
        # has bit 7 set has an all-ones exponent: -inf or a NaN (a signalling
        # one when the quiet bit is clear), whatever the other bits hold
        read, valid = READERS[reader]
        for at in range(FLOAT_STARTS[reader] + 3, len(valid), 4):
            data = bytearray(valid)
            data[at] = 0xFF
            data[at - 1] |= 0x80
            with pytest.raises(ValueError):
                read(bytes(data))


class TestManifest:
    def test_parse_and_relative_paths(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "# corpus\nnegative noise_0.wav\npositive kw_0.wav 1250\n"
        )
        negatives, positives = audio_io.read_manifest(str(manifest))
        assert negatives == [str(tmp_path / "noise_0.wav")]
        assert positives == [(str(tmp_path / "kw_0.wav"), 1250)]

    def test_malformed_line_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("positive missing_end.wav\n")
        with pytest.raises(ValueError):
            audio_io.read_manifest(str(manifest))

    @pytest.mark.parametrize("end_ms", ["12.5", "1e3", "12ms"])
    def test_end_ms_that_is_not_an_integer_names_its_line(self, tmp_path, end_ms):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"negative noise.wav\n\npositive kw.wav {end_ms}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))}:3: bad manifest "
                                             f"line 'positive kw.wav {re.escape(end_ms)}'$"):
            audio_io.read_manifest(str(manifest))
