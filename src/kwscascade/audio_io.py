"""File formats, each read in blocks: PCM in (WAV or a raw stream), posterior streams
(binary or CSV, both checked by one pass).

Posterior stream layout (little-endian):
    0   4  magic b"KWSY"
    4   4  version u32 (currently 1)
    8   4  num_units u32 (M; each frame stores M+1 floats, filler last)
    12  *  frame-major float32 data
"""

import itertools
import os
import struct
import wave

import numpy as np

from .decoder import _check_unit_range
from .frontend import BLOCK_SAMPLES, SAMPLE_RATE_HZ, AudioChunk, ConfigError, _pcm

POSTERIOR_MAGIC = b"KWSY"
STREAM_VERSION = 1

# A posterior stream is checked and decoded this many frames at a time, so its
# reader's memory does not grow with the stream. `score`'s peak RSS at M = 3 read
# 30.1 MB at 1k frames and 31.5 MB at 720k, against 37.3 MB in 16384-frame blocks
# (Linux, Python 3.11, numpy 2.4).
POSTERIOR_BLOCK_FRAMES = 4096


def open_wav(path):
    """Open a WAV file for reading once its header shows 16-bit mono 16 kHz PCM;
    ConfigError naming the path for any other file. ``getnframes()`` is then the
    header's sample count, which ``read_pcm`` checks against the data."""
    try:
        wav = wave.open(path, "rb")
    except (wave.Error, EOFError) as exc:
        raise ConfigError(f"{path}: not a WAV file ({str(exc) or 'it ends early'})") from None
    if wav.getnchannels() != 1:
        problem = f"expected mono audio, got {wav.getnchannels()} channels"
    elif wav.getsampwidth() != 2:
        problem = f"expected 16-bit PCM, got {8 * wav.getsampwidth()}-bit"
    elif wav.getframerate() != SAMPLE_RATE_HZ:
        problem = f"expected {SAMPLE_RATE_HZ} Hz, got {wav.getframerate()} Hz"
    else:
        return wav
    wav.close()
    raise ConfigError(f"{path}: {problem}")


def read_pcm(source):
    """The one PCM reader: int16 blocks of BLOCK_SAMPLES, the last one shorter, from a WAV
    path (its header checked first, see ``open_wav``) or a binary stream of 16-bit
    little-endian samples. A fault at the data's end is raised after every whole sample:
    ConfigError naming the path for WAV data short of its header's count, ValueError for
    an odd byte count. A short read in mid-stream is not the end."""
    if hasattr(source, "read"):
        got = yield from _blocks(source.read)
        if got % 2:
            raise ValueError(f"raw PCM has an odd byte count ({got}); samples are 16-bit")
        return
    with open_wav(source) as wav:
        expected = 2 * wav.getnframes()  # 16-bit mono
        got = yield from _blocks(lambda size: wav.readframes(size // 2))
    if got != expected:
        raise ConfigError(f"{source}: WAV data ends early ({got} of {expected} bytes)")


def _blocks(read):
    """Yield int16 blocks of BLOCK_SAMPLES, the last one shorter, from ``read(size)``,
    which returns at most ``size`` bytes and b"" at the end; return the bytes read.
    A block read whole is used as it is, without a copy."""
    size, got, pieces = 2 * BLOCK_SAMPLES, 0, []  # pieces: the current block's reads
    while raw := read(size - got % size):
        got += len(raw)
        pieces.append(raw)
        if got % size == 0:
            yield np.frombuffer(b"".join(pieces), "<i2")
            pieces = []
    if got % size > 1:
        yield np.frombuffer(b"".join(pieces), "<i2", got % size // 2)
    return got


def read_wav(path):
    """Load a 16-bit mono 16 kHz RIFF file as an AudioChunk; ConfigError naming the
    path for any other file (see ``read_pcm``). The blocks fill one writable int16
    array, the only copy of the audio held, no longer than the file, whatever count
    its header claims."""
    samples = np.empty(os.path.getsize(path) // 2, dtype=np.int16)
    got = 0  # samples read
    for block in read_pcm(path):
        samples[got : got + len(block)] = block
        got += len(block)
    return AudioChunk(samples[:got])


def write_wav(path, samples):
    """Write 16-bit mono 16 kHz PCM; ConfigError for a sample outside int16."""
    samples = _pcm(samples)
    with wave.open(path, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE_HZ)
        wav.writeframes(samples.astype("<i2").tobytes())


def write_posteriors(fileobj, posteriors, num_units):
    """Write a [T, M+1] posterior matrix in the binary stream format."""
    posteriors = np.asarray(posteriors)
    if posteriors.shape[1] != num_units + 1:
        raise ValueError(f"expected {num_units + 1} columns, got {posteriors.shape[1]}")
    fileobj.write(POSTERIOR_MAGIC)
    fileobj.write(struct.pack("<II", STREAM_VERSION, num_units))
    fileobj.write(posteriors.astype("<f4").tobytes())


def posterior_blocks(fileobj):
    """Check a seekable binary posterior stream in one pass over blocks of
    POSTERIOR_BLOCK_FRAMES frames; return num_units and a generator that seeks
    back to the first frame and yields the frames as float64 [n, M+1] blocks.

    ValueError for a bad header, data that is not a whole number of frames, or
    else as ``_checked_blocks``.
    """
    head = fileobj.read(12)
    if len(head) < 12 or head[:4] != POSTERIOR_MAGIC:
        raise ValueError("not a posterior stream (bad magic)")
    version, num_units = struct.unpack("<II", head[4:])
    if version != STREAM_VERSION:
        raise ValueError(f"unsupported posterior stream version {version}")
    start, frame_bytes = fileobj.tell(), 4 * (num_units + 1)
    size = fileobj.seek(0, os.SEEK_END) - start
    if size % frame_bytes:
        raise ValueError("posterior stream data is not a whole number of frames")

    def frames():
        fileobj.seek(start)
        for first in range(0, size // frame_bytes, POSTERIOR_BLOCK_FRAMES):
            count = min(POSTERIOR_BLOCK_FRAMES, size // frame_bytes - first)
            raw = fileobj.read(count * frame_bytes)
            yield np.frombuffer(raw, "<f4").reshape(count, num_units + 1)

    return _checked_blocks(num_units, frames, "posterior stream")


def posterior_csv_blocks(fileobj):
    """``posterior_blocks`` for a seekable CSV text file: its first non-blank line is a
    header, each later one a frame, read POSTERIOR_BLOCK_FRAMES lines at a time. Cells
    parse to ``float()``'s bits but refuse ``_`` and non-ASCII digits. ValueError for no
    frame, the first line not as many numbers as the first frame, or as posterior_blocks."""
    def frames():
        fileobj.seek(0)
        lines = ((n, text) for n, line in enumerate(fileobj, 1) if (text := line.strip()))
        next(lines, None)  # the header
        width = None  # the first frame's cell count
        while block := list(itertools.islice(lines, POSTERIOR_BLOCK_FRAMES)):
            width = width or block[0][1].count(",") + 1
            yield _csv_block(block, width)

    first = next(frames(), None)
    if first is None:
        raise ValueError("empty posterior CSV")
    return _checked_blocks(first.shape[1] - 1, frames, "posterior CSV")


def _csv_block(rows, width):
    """(line number, line) ``rows`` as a float64 [n, width] block, parsed whole or
    else line by line; ValueError naming the first line that is not ``width`` numbers."""
    try:
        block = np.loadtxt([line for _, line in rows], delimiter=",", comments=None, ndmin=2)
        if block.shape[1] == width:
            return block
    except ValueError:
        pass
    if len(rows) > 1:
        return np.concatenate([_csv_block([row], width) for row in rows])
    raise ValueError(f"posterior CSV line {rows[0][0]} is not {width} numbers: {rows[0][1]!r}")


def _checked_blocks(num_units, frames, what):
    """The check both posterior formats run over ``frames()``, a fresh iterator over
    the stream's [n, M+1] blocks on each call: ValueError naming the first frame
    with a NaN or inf, or else the first with a unit posterior outside [0, 1] (the
    decoder's check). Then num_units and the frames as float64 blocks."""
    out_of_range, first = None, 0  # raised once every frame is known to be finite
    for block in frames():  # checked before the cast, which warns on a signalling NaN
        if len(bad := np.flatnonzero(~np.isfinite(block).all(axis=1))):
            raise ValueError(f"{what} frame {first + bad[0]} is not finite")
        if out_of_range is None:
            try:
                _check_unit_range(block[:, :num_units].T, first)
            except ValueError as exc:
                out_of_range = exc
        first += len(block)
    if out_of_range is not None:
        raise out_of_range
    return num_units, (block.astype(np.float64, copy=False) for block in frames())


def read_manifest(path):
    """Corpus manifest: 'negative NAME' / 'positive NAME END_MS' lines.

    Paths are relative to the manifest. Returns (negatives, positives) as
    lists of file paths and (path, end_ms) pairs.
    """
    base = os.path.dirname(os.path.abspath(path))
    negatives, positives = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                if parts[0] == "negative" and len(parts) == 2:
                    negatives.append(os.path.join(base, parts[1]))
                    continue
                if parts[0] == "positive" and len(parts) == 3:
                    positives.append((os.path.join(base, parts[1]), int(parts[2])))
                    continue
            except ValueError:  # END_MS is not an integer
                pass
            raise ValueError(f"{path}:{lineno}: bad manifest line {line!r}")
    return negatives, positives
