"""Multimodal columns: opaque binary payloads + typed metadata.

Images/audio/video travel as ``binary`` columns with metadata columns
(``media_type``, dims/duration). Decode / feature-extract / resize /
frame-sample are callable `map_batches` stages, passed as instances that
Ray Data runs as tasks; small ``batch_size`` because payload rows are
wide (the memory-aware rule: batch_bytes × concurrent tasks must fit the
worker heap).

Decode support in this container (no PIL/ffmpeg):

* **REAL, dependency-free**: BMP (BI_RGB), PPM/PGM (P6/P5) images and
  PCM WAV audio decode via :mod:`filters_ray.pipelines.codecs` — real
  width/height/duration/features from the actual pixels/samples.
* **STUBBED**: compressed formats (JPEG/PNG/MP3/...) and video frames.
  With ``strict=True`` those raise ``NotImplementedError``; the default
  deterministic-fake mode derives stable pseudo-features from the
  payload hash so the Ray-side plumbing — schema, batch sizing, stage
  signature, output layout — stays real and tested end-to-end.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .codecs import (
    decode_bmp,
    decode_ppm,
    decode_wav,
    encode_bmp,
    encode_ppm,
    sniff_format,
)

__all__ = [
    'DecodeImageStage',
    'AudioFeatureStage',
    'ResizeImageStage',
    'VideoFrameSampleStage',
]


def _try_import(name: str):
    try:
        return __import__(name)
    except ImportError:
        return None


def _stable_floats(payload: bytes, n: int) -> np.ndarray:
    """Deterministic pseudo-features from the payload digest (fake mode)."""
    digest = hashlib.sha256(payload or b'').digest()
    seed = int.from_bytes(digest[:8], 'little') % (2**32)
    rng = np.random.RandomState(seed)
    return rng.rand(n).astype(np.float32)


def _block_features(gray: np.ndarray, grid: int = 8) -> np.ndarray:
    """(h, w) grayscale → grid×grid block-mean features (crop remainder)."""
    h, w = gray.shape
    bh, bw = max(1, h // grid), max(1, w // grid)
    cropped = gray[: bh * min(grid, h), : bw * min(grid, w)]
    gh, gw = cropped.shape[0] // bh, cropped.shape[1] // bw
    blocks = cropped.reshape(gh, bh, gw, bw).mean(axis=(1, 3))
    out = np.zeros((grid, grid), dtype=np.float32)
    out[:gh, :gw] = blocks
    return out.ravel()


class DecodeImageStage:
    """payload → decoded dims + embedding-ish feature vector.

    BMP/PPM/PGM payloads decode for REAL (dependency-free header+raw
    parse, :mod:`.codecs`); PIL handles compressed formats when present.
    Otherwise compressed formats take the deterministic fake path, or
    raise with ``strict=True``.
    """

    FEATURE_DIM = 64

    def __init__(self, target_size: int = 224, strict: bool = False) -> None:
        self.target_size = target_size
        self.strict = strict
        # A flag, not the module: an instance is pickled into each task.
        self._pil = _try_import('PIL.Image') is not None

    def _decode(self, payload: bytes):
        kind = sniff_format(payload)
        if kind in ('bmp', 'ppm'):
            try:
                w, h, gray = (
                    decode_bmp(payload) if kind == 'bmp' else decode_ppm(payload)
                )
                return w, h, _block_features(gray, 8).astype(np.float32)
            except ValueError:
                if self.strict:
                    raise
                return self.target_size, self.target_size, \
                    _stable_floats(payload, self.FEATURE_DIM)
        if self._pil:
            import io

            from PIL import Image
            img = Image.open(io.BytesIO(payload)).convert('RGB')
            img = img.resize((self.target_size, self.target_size))
            arr = np.asarray(img, dtype=np.float32) / 255.0
            # Block-mean features over an 8x8 grid, one channel.
            g = arr.mean(axis=2)
            blocks = g.reshape(8, self.target_size // 8, 8, self.target_size // 8)
            return arr.shape[1], arr.shape[0], blocks.mean(axis=(1, 3)).ravel()
        if self.strict:
            raise NotImplementedError(
                'compressed-image decode requires PIL, which is not in this '
                'container (BMP/PPM decode natively); run with strict=False '
                'for the deterministic fake path'
            )
        # STUB: deterministic fake decode (compressed formats only).
        feats = _stable_floats(payload, self.FEATURE_DIM)
        return self.target_size, self.target_size, feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column('payload').to_pylist()
        widths, heights, features = [], [], []
        for payload in payloads:
            w, h, f = self._decode(payload or b'')
            widths.append(w)
            heights.append(h)
            features.append(np.asarray(f, dtype=np.float32)[: self.FEATURE_DIM])
        out = batch.drop_columns(['payload'])  # decoded: drop the heavy bytes
        out = out.append_column('decoded_width', pa.array(widths, type=pa.int32()))
        out = out.append_column('decoded_height', pa.array(heights, type=pa.int32()))
        out = out.append_column(
            'features',
            pa.array([f.tolist() for f in features], type=pa.list_(pa.float32())),
        )
        return out


class ResizeImageStage:
    """payload → RESIZED payload (real pixels for BMP/PPM/PGM).

    Nearest-neighbor resample via one numpy index grid per image (no
    Python pixel loop), re-encoded in the SOURCE container so the
    resized payload round-trips through the same decoders. Compressed
    formats (no PIL in this container) raise with ``strict=True`` or
    pass through untouched with a ``resized=false`` flag — the honest
    stub contract: plumbing (schema, batch flow, output layout) is real
    and tested, the missing codec is declared.
    """

    def __init__(self, target_size: int = 64, strict: bool = False) -> None:
        self.target_size = target_size
        self.strict = strict

    def _resize(self, gray: np.ndarray) -> np.ndarray:
        t = self.target_size
        h, w = gray.shape
        rows = np.minimum((np.arange(t) * h) // t, h - 1)
        cols = np.minimum((np.arange(t) * w) // t, w - 1)
        return gray[rows[:, None], cols[None, :]]

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column('payload').to_pylist()
        out_payload, out_w, out_h, out_flag = [], [], [], []
        for payload in payloads:
            payload = payload or b''
            kind = sniff_format(payload)
            try:
                if kind == 'bmp':
                    _, _, gray = decode_bmp(payload)
                    small = self._resize(gray)
                    out_payload.append(encode_bmp(small))
                elif kind == 'ppm':
                    _, _, gray = decode_ppm(payload)
                    small = self._resize(gray)
                    out_payload.append(encode_ppm(small))
                else:
                    if self.strict:
                        raise NotImplementedError(
                            'compressed-image resize requires PIL, not in '
                            'this container (BMP/PPM resize natively)',
                        )
                    out_payload.append(payload)
                    out_w.append(-1)
                    out_h.append(-1)
                    out_flag.append(False)
                    continue
            except ValueError:
                if self.strict:
                    raise
                out_payload.append(payload)
                out_w.append(-1)
                out_h.append(-1)
                out_flag.append(False)
                continue
            out_w.append(self.target_size)
            out_h.append(self.target_size)
            out_flag.append(True)
        out = batch.set_column(
            batch.column_names.index('payload'), 'payload',
            pa.array(out_payload, type=batch.column('payload').type),
        )
        out = out.append_column('resized_width', pa.array(out_w, type=pa.int32()))
        out = out.append_column('resized_height', pa.array(out_h, type=pa.int32()))
        return out.append_column('resized', pa.array(out_flag, type=pa.bool_()))


class AudioFeatureStage:
    """payload → fixed-size feature vector + decoded duration.

    PCM WAV payloads decode for REAL (RIFF parse, :mod:`.codecs`):
    features are windowed RMS energy over ``FEATURE_DIM`` windows and
    ``decoded_ms`` is the true duration. Compressed audio is stubbed
    (fake features, decoded_ms = -1) or raises with ``strict=True``.
    """

    FEATURE_DIM = 32

    def __init__(self, sample_rate: int = 16_000, strict: bool = False) -> None:
        self.sample_rate = sample_rate
        self.strict = strict

    def _features(self, payload: bytes):
        if sniff_format(payload) == 'wav':
            try:
                rate, _channels, samples = decode_wav(payload)
            except ValueError:
                if self.strict:
                    raise
                return _stable_floats(payload, self.FEATURE_DIM), -1
            dur_ms = int(len(samples) * 1000 / max(1, rate))
            if not len(samples):
                return np.zeros(self.FEATURE_DIM, dtype=np.float32), 0
            win = max(1, len(samples) // self.FEATURE_DIM)
            usable = win * min(self.FEATURE_DIM, len(samples))
            rms = np.sqrt(
                (samples[:usable].reshape(-1, win) ** 2).mean(axis=1),
            )
            out = np.zeros(self.FEATURE_DIM, dtype=np.float32)
            out[: len(rms)] = rms
            return out, dur_ms
        if self.strict:
            raise NotImplementedError(
                'compressed-audio decode requires an audio lib not in this '
                'container (PCM WAV decodes natively)',
            )
        return _stable_floats(payload, self.FEATURE_DIM), -1

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column('payload').to_pylist()
        feats, decoded_ms = [], []
        for p in payloads:
            f, ms = self._features(p or b'')
            feats.append(np.asarray(f, dtype=np.float32).tolist())
            decoded_ms.append(ms)
        out = batch.drop_columns(['payload'])
        out = out.append_column(
            'audio_features', pa.array(feats, type=pa.list_(pa.float32())),
        )
        return out.append_column(
            'decoded_ms', pa.array(decoded_ms, type=pa.int32()),
        )


class VideoFrameSampleStage:
    """payload → N sampled frame digests (stubbed decode).

    Real implementation would seek ``num_frames`` evenly-spaced frames;
    the stub derives one digest per sampled frame index so downstream
    stages (frame dedup, per-frame features) exercise the true layout:
    one output row per (video, frame).
    """

    def __init__(self, num_frames: int = 4, strict: bool = False) -> None:
        self.num_frames = num_frames
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.strict:
            raise NotImplementedError(
                'video decode requires ffmpeg, which is not in this container',
            )
        ids = batch.column('media_id').to_pylist()
        payloads = batch.column('payload').to_pylist()
        durations = (
            batch.column('duration_ms').to_pylist()
            if 'duration_ms' in batch.column_names else [0] * len(ids)
        )
        out_id, out_frame, out_ts, out_digest = [], [], [], []
        for mid, payload, dur in zip(ids, payloads, durations):
            for fi in range(self.num_frames):
                ts = int((dur or 0) * fi / max(1, self.num_frames - 1))
                digest = hashlib.sha256(
                    (payload or b'') + fi.to_bytes(4, 'little'),
                ).hexdigest()[:16]
                out_id.append(mid)
                out_frame.append(fi)
                out_ts.append(ts)
                out_digest.append(digest)
        return pa.table({
            'media_id': pa.array(out_id, type=pa.int64()),
            'frame': pa.array(out_frame, type=pa.int32()),
            'ts_ms': pa.array(out_ts, type=pa.int32()),
            'frame_digest': pa.array(out_digest, type=pa.string()),
        })
