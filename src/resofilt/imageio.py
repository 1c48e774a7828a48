"""Raster I/O: binary PGM/PPM (P5/P6).

Frames are carried as one plane per channel.  ``read_image`` gives 8-bit
(uint8) planes, views of the bytes read (an rgb frame's stay
interleaved), which stay 8-bit up to ``write_image``; consumers that
compute convert only the rows they read to float64.  Planes of any other
dtype are float64, and only those are quantised at write time: rounded
half to even and clipped to 0..255.  Parse failures report the byte
offset that broke the header or payload; any other format, whatever its
file extension, fails on its magic.

The output format follows the channel count alone (PGM for one plane,
PPM for three), never the file extension.  Every output goes through
``write_bytes``, which rewrites an existing file in place instead of
truncating it first.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ImageFormatError
from .filtering import _strip_rows


def _plane(values) -> np.ndarray:
    """An 8-bit (uint8) plane as given; any other values as float64."""
    plane = np.asarray(values)
    return plane if plane.dtype == np.uint8 else plane.astype(float, copy=False)


@dataclass(frozen=True)
class ImageStack:
    """Channel planes of one raster frame: uint8 planes are kept as given,
    views included (the planes ``read_image`` gives of an rgb frame stay
    interleaved), any other values become float64."""

    planes: tuple

    def __post_init__(self):
        planes = tuple(_plane(p) for p in self.planes)
        if not planes:
            raise ValueError("at least one plane is required")
        shape = planes[0].shape
        for p in planes:
            if p.ndim != 2 or p.shape != shape:
                raise ValueError("planes must be 2D and equally shaped")
        object.__setattr__(self, "planes", planes)

    @property
    def shape(self):
        return self.planes[0].shape

    @property
    def channels(self) -> int:
        return len(self.planes)

    def gray(self) -> np.ndarray:
        """Single plane; multi-channel stacks fall back to the channel mean
        (float64)."""
        if self.channels == 1:
            return self.planes[0]
        return np.mean(np.stack(self.planes), axis=0)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def fail(self, message: str):
        raise ImageFormatError(message, offset=self.pos)

    def token(self) -> bytes:
        data, n = self.data, len(self.data)
        while self.pos < n:
            c = data[self.pos : self.pos + 1]
            if c == b"#":
                while self.pos < n and data[self.pos : self.pos + 1] not in (b"\n", b"\r"):
                    self.pos += 1
            elif c.isspace():
                self.pos += 1
            else:
                break
        if self.pos >= n:
            self.fail("truncated header: expected a token")
        start = self.pos
        while self.pos < n and not data[self.pos : self.pos + 1].isspace():
            self.pos += 1
        return data[start : self.pos]

    def integer(self, what: str) -> int:
        tok = self.token()
        try:
            value = int(tok)
        except ValueError:
            self.pos -= len(tok)
            self.fail(f"invalid {what} {tok!r}")
        if value <= 0:
            self.pos -= len(tok)
            self.fail(f"non-positive {what} {value}")
        return value


def read_image(path) -> ImageStack:
    """Read a binary PGM (P5) or PPM (P6) file.

    The planes are uint8, read-only views of the bytes read: a P5 plane is
    C-contiguous, and the three planes of P6 data stay interleaved, each a
    view with a stride of three bytes along its rows.  Consumers gather a
    plane's rows as they convert them (``apply_filter``) or as they copy
    them.  An input that cannot be opened or read raises
    ``ImageFormatError`` naming the path.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ImageFormatError(f"no such file: {path}") from None
    except OSError as exc:
        raise ImageFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    rd = _Reader(data)
    magic = rd.token()
    if magic not in (b"P5", b"P6"):
        rd.pos = 0
        rd.fail(f"unsupported format magic {magic!r} (binary PGM/PPM expected)")
    width = rd.integer("width")
    height = rd.integer("height")
    maxval = rd.integer("maxval")
    if maxval > 255:
        rd.fail(f"unsupported maxval {maxval} (8-bit data expected)")
    if rd.pos >= len(data) or not data[rd.pos : rd.pos + 1].isspace():
        rd.fail("missing single whitespace after maxval")
    rd.pos += 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    if len(data) - rd.pos < need:
        rd.pos = len(data)
        rd.fail(f"truncated pixel data: expected {need} bytes")
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=rd.pos)
    if channels == 1:
        return ImageStack((raw.reshape(height, width),))
    return ImageStack(tuple(raw.reshape(height, width, 3).transpose(2, 0, 1)))


def _quantize(plane: np.ndarray) -> np.ndarray:
    """Round (half to even) and clip to 0..255 into a uint8 plane, in the
    filter's row strips, so float temporaries stay strip-sized."""
    plane = np.asarray(plane, dtype=float)
    out = np.empty(plane.shape, dtype=np.uint8)
    step = _strip_rows(max(1, plane.shape[1]))
    for a in range(0, plane.shape[0], step):
        chunk = np.rint(plane[a : a + step])
        np.clip(chunk, 0, 255, out=chunk)
        out[a : a + step] = chunk
    return out


def write_image(path, stack: ImageStack):
    """Write a stack as binary PGM (1 plane) or PPM (3 planes), whatever
    the extension of ``path``.  uint8 planes are written as they are,
    float planes quantised."""
    h, w = stack.shape
    if stack.channels not in (1, 3):
        raise ImageFormatError(f"cannot write {stack.channels} channels as PGM/PPM")
    planes = [p if p.dtype == np.uint8 else _quantize(p) for p in stack.planes]
    if stack.channels == 1:
        magic, body = "P5", np.ascontiguousarray(planes[0])
    else:
        magic, body = "P6", np.stack(planes, axis=-1)
    write_bytes(path, f"{magic}\n{w} {h}\n255\n".encode(), body)


def write_bytes(path, *chunks):
    """Make ``chunks``, one after the other, the whole content of ``path``,
    rewriting the file in place.

    Each chunk is ``bytes`` or a C-contiguous buffer such as a uint8
    array, written as it is, so no joined copy of them is made.  The file
    is opened without ``O_TRUNC`` and cut to the chunks' total length
    after the write.  Truncating a written file to zero bytes makes ext4
    (``auto_da_alloc``) start its writeback on close, which cost 60-90 ms
    per output file on a 2-vCPU VM with an ext4 root.  Like
    ``open(path, "wb")`` this follows symlinks, keeps the inode, its hard
    links and its mode, creates a new file with mode 0o666 less the umask,
    accepts non-regular targets such as ``os.devnull``, and promises no
    durability: nothing is fsynced and there is no atomic replace, so
    concurrent writers to one path are not safe.  A failure raises
    ``ConfigError`` naming the path.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(path, flags, 0o666)
        try:
            size = 0
            for chunk in chunks:
                view = memoryview(chunk).cast("B")
                size += view.nbytes
                while view:
                    view = view[os.write(fd, view) :]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, size)
        finally:
            os.close(fd)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"output: cannot write {str(path)!r}: {reason}") from exc


def draw_boxes(stack: ImageStack, boxes, intensity: float = 255.0) -> ImageStack:
    """Copy of the stack with one-pixel rectangle outlines drawn on it.

    On uint8 planes the outline is ``intensity`` quantised as
    ``write_image`` quantises float planes, so both give the same bytes.
    """
    planes = [p.copy() for p in stack.planes]
    byte = np.clip(np.rint(intensity), 0, 255)
    for box in boxes:
        x0, y0 = max(0, box.x0), max(0, box.y0)
        x1 = min(stack.shape[0] - 1, box.x1)
        y1 = min(stack.shape[1] - 1, box.y1)
        for p in planes:
            value = byte if p.dtype == np.uint8 else intensity
            p[x0, y0 : y1 + 1] = value
            p[x1, y0 : y1 + 1] = value
            p[x0 : x1 + 1, y0] = value
            p[x0 : x1 + 1, y1] = value
    return ImageStack(tuple(planes))
