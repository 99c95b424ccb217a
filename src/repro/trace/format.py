"""The ``.uoptrace`` container format (version 1).

Layout (all integers little-endian)::

    magic     8s   b"UOPTRACE"
    version   u16  FORMAT_VERSION
    hdr_len   u32  length of the UTF-8 JSON header that follows
    header    ...  arbitrary metadata dict (workload, seed, tool, ...)
    frame*         data frames
    footer    28s  b"UOPTEND!" + count u64 + crc-chain u32 + frames u32 +
                   footer crc u32

Each data frame is::

    comp_len  u32  compressed payload length in bytes
    n_uops    u32  records in this frame (> 0; 0 is reserved)
    crc       u32  CRC-32 of the *compressed* payload
    payload   ...  zlib-compressed concatenation of 32-byte records

One record is ``struct '<QQQHHHBB'``: pc, addr, target, size, src1,
src2, op, flags (bit 0 = branch taken).  Sequence numbers are implicit
-- records are dense from 0 -- so a trace is position-independent and
the reader re-derives ``seq`` while streaming.  Producer distances
(``src1``/``src2``) are clamped to 16 bits at write time; a distance
that large exceeds any in-flight window, so it is behaviourally "no
dependence" anyway.

Integrity: every frame carries a CRC of its payload, and the footer
carries the total record count plus a CRC *chain* (CRC-32 folded over
the uncompressed payload of every frame, in order) that acts as the
content digest.  A file whose footer is missing or unreadable was
truncated mid-write; :class:`TraceReader` either raises
(``strict=True``, the default) or yields every record up to the last
intact frame (``strict=False``), which is the recovery path for
partially written traces.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.isa.opclasses import OP_BY_CODE
from repro.isa.uop import UOp

MAGIC = b"UOPTRACE"
FOOTER_MAGIC = b"UOPTEND!"
FORMAT_VERSION = 1

_HEAD = struct.Struct("<8sHI")            # magic, version, header length
_FRAME = struct.Struct("<III")            # comp_len, n_uops, payload crc
_FOOTER = struct.Struct("<8sQIII")        # magic, count, crc chain, frames, footer crc
_RECORD = struct.Struct("<QQQHHHBB")      # pc, addr, target, size, src1, src2, op, flags

RECORD_BYTES = _RECORD.size
#: records buffered per frame by default (~128 KiB uncompressed)
DEFAULT_FRAME_UOPS = 4096
#: producer distances are stored in 16 bits; anything larger cannot be an
#: in-flight dependence and is recorded as "no dependence"
MAX_SRC_DISTANCE = 0xFFFF

_U64_MASK = (1 << 64) - 1


class TraceError(Exception):
    """Base error for the .uoptrace format."""


class TraceCorruptError(TraceError):
    """The file is truncated, or a frame failed its integrity check."""


@dataclass
class TraceInfo:
    """Summary of one trace file (header + footer, no full scan needed)."""

    path: str
    version: int
    meta: dict
    count: int            #: total records (from the footer, or a scan)
    digest: str           #: content digest ("crc32:<hex>:<count>")
    frames: int
    complete: bool        #: footer present and consistent
    file_bytes: int = 0
    op_counts: dict[str, int] = field(default_factory=dict)  # info --scan only

    def describe(self) -> str:
        """Multi-line human-readable summary (CLI ``trace info``)."""
        lines = [
            f"trace      {self.path}",
            f"version    {self.version}",
            f"records    {self.count}",
            f"frames     {self.frames}",
            f"digest     {self.digest}",
            f"complete   {self.complete}",
            f"file size  {self.file_bytes} bytes"
            + (f" ({self.file_bytes / self.count:.2f} B/record "
               f"vs {RECORD_BYTES} raw)" if self.count else ""),
        ]
        for k in sorted(self.meta):
            lines.append(f"meta       {k} = {self.meta[k]}")
        for k in sorted(self.op_counts):
            lines.append(f"ops        {k:<9} {self.op_counts[k]}")
        return "\n".join(lines)


def _pack(uop: UOp) -> bytes:
    return _RECORD.pack(
        uop.pc & _U64_MASK,
        uop.addr & _U64_MASK,
        uop.target & _U64_MASK,
        uop.size & 0xFFFF,
        min(uop.src1, MAX_SRC_DISTANCE),
        min(uop.src2, MAX_SRC_DISTANCE),
        int(uop.op) & 0xFF,
        1 if uop.taken else 0,
    )



class TraceWriter:
    """Streaming writer; use as a context manager.

    Records are buffered into frames of ``frame_uops`` records and
    deflate-compressed on flush; ``close()`` writes the footer that marks
    the trace complete.  Sequence numbers must be dense from 0 (the
    pipeline's generator contract) -- ``append`` enforces it.
    """

    def __init__(self, path: str, meta: dict | None = None,
                 frame_uops: int = DEFAULT_FRAME_UOPS, level: int = 1):
        if frame_uops <= 0:
            raise ValueError("frame_uops must be positive")
        self.path = path
        self.meta = dict(meta or {})
        self._frame_uops = frame_uops
        self._level = level
        self._buf: list[bytes] = []
        self._count = 0
        self._frames = 0
        self._crc_chain = 0
        self._closed = False
        self.info: TraceInfo | None = None  # set by close()
        header = json.dumps(self.meta, sort_keys=True).encode()
        self._fh = open(path, "wb")
        try:
            self._fh.write(_HEAD.pack(MAGIC, FORMAT_VERSION, len(header)))
            self._fh.write(header)
        except BaseException:
            self._fh.close()
            raise

    def append(self, uop: UOp) -> None:
        """Add one record (sequence numbers must be dense from 0)."""
        if self._closed:
            raise TraceError("writer is closed")
        if uop.seq != self._count:
            raise TraceError(
                f"non-dense trace: got seq {uop.seq}, expected {self._count}"
            )
        self._buf.append(_pack(uop))
        self._count += 1
        if len(self._buf) >= self._frame_uops:
            self._flush_frame()

    def extend(self, uops: Iterable[UOp]) -> None:
        """Append many records."""
        for u in uops:
            self.append(u)

    def _flush_frame(self) -> None:
        if not self._buf:
            return
        raw = b"".join(self._buf)
        self._crc_chain = zlib.crc32(raw, self._crc_chain)
        comp = zlib.compress(raw, self._level)
        self._fh.write(_FRAME.pack(len(comp), len(self._buf), zlib.crc32(comp)))
        self._fh.write(comp)
        self._frames += 1
        self._buf.clear()

    def close(self) -> TraceInfo:
        """Flush, write the footer and return the final :class:`TraceInfo`.

        The info is also kept as :attr:`info`, so ``with``-block users
        can read it after a successful exit without re-parsing the file.
        """
        if self._closed:
            raise TraceError("writer already closed")
        self._flush_frame()
        body = FOOTER_MAGIC + struct.pack(
            "<QII", self._count, self._crc_chain, self._frames
        )
        self._fh.write(body + struct.pack("<I", zlib.crc32(body)))
        self._fh.close()
        self._closed = True
        self.info = TraceInfo(
            path=self.path,
            version=FORMAT_VERSION,
            meta=self.meta,
            count=self._count,
            digest=_digest(self._crc_chain, self._count),
            frames=self._frames,
            complete=True,
            file_bytes=os.path.getsize(self.path),
        )
        return self.info

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave the partial file for post-mortem; it reads as truncated
            self._fh.close()
            self._closed = True


def _digest(crc_chain: int, count: int) -> str:
    return f"crc32:{crc_chain:08x}:{count}"


def _read_header(fh: io.BufferedReader, path: str) -> tuple[int, dict, int]:
    head = fh.read(_HEAD.size)
    if len(head) != _HEAD.size:
        raise TraceCorruptError(f"{path}: too short for a .uoptrace header")
    magic, version, hdr_len = _HEAD.unpack(head)
    if magic != MAGIC:
        raise TraceError(f"{path}: not a .uoptrace file (bad magic)")
    if version > FORMAT_VERSION:
        raise TraceError(
            f"{path}: format version {version} is newer than supported "
            f"({FORMAT_VERSION})"
        )
    raw = fh.read(hdr_len)
    if len(raw) != hdr_len:
        raise TraceCorruptError(f"{path}: truncated inside the meta header")
    try:
        meta = json.loads(raw.decode())
    except ValueError as e:
        raise TraceCorruptError(f"{path}: unreadable meta header: {e}") from None
    return version, meta, _HEAD.size + hdr_len


def _parse_footer(raw: bytes) -> tuple[int, int, int] | None:
    """(count, crc_chain, frames) from footer bytes, or None if not one."""
    if len(raw) != _FOOTER.size:
        return None
    magic, count, crc_chain, frames, foot_crc = _FOOTER.unpack(raw)
    if magic != FOOTER_MAGIC or zlib.crc32(raw[:-4]) != foot_crc:
        return None
    return count, crc_chain, frames


def _read_footer(path: str) -> tuple[int, int, int] | None:
    """Footer of the file at ``path``, or None if absent/bad."""
    try:
        size = os.path.getsize(path)
        if size < _FOOTER.size:
            return None
        with open(path, "rb") as fh:
            fh.seek(size - _FOOTER.size)
            raw = fh.read(_FOOTER.size)
    except OSError:
        return None
    return _parse_footer(raw)


class TraceReader:
    """Streaming reader; iterate to get :class:`~repro.isa.uop.UOp`\\ s.

    ``strict=True`` (default) raises :class:`TraceCorruptError` on a
    truncated or corrupt frame; ``strict=False`` stops cleanly after the
    last intact frame instead (recovery mode).  The meta header is
    available as :attr:`meta` immediately after construction.
    """

    def __init__(self, path: str, strict: bool = True):
        self.path = path
        self.strict = strict
        self._fh = open(path, "rb")
        try:
            self.version, self.meta, self._data_start = _read_header(self._fh, path)
        except BaseException:
            self._fh.close()
            raise
        self._file_size = os.path.getsize(path)
        self.count_read = 0
        self.crc_chain = 0
        #: True once iteration ended at a well-formed footer
        self.complete = False

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _fail(self, msg: str) -> bool:
        """Raise in strict mode; report "stop iterating" otherwise."""
        if self.strict:
            raise TraceCorruptError(f"{self.path}: {msg}")
        return False

    def _next_frame(self) -> bytes | None:
        pos = self._fh.tell()
        remaining = self._file_size - pos
        if remaining == _FOOTER.size:
            foot = _parse_footer(self._fh.read(_FOOTER.size))
            if foot is not None:
                count, crc_chain, _ = foot
                if count != self.count_read or crc_chain != self.crc_chain:
                    self._fail(
                        f"footer mismatch: footer says {count} records "
                        f"(crc {crc_chain:08x}), stream has {self.count_read} "
                        f"(crc {self.crc_chain:08x})"
                    )
                    return None
                self.complete = True
                return None
            self._fh.seek(pos)
        if remaining == 0:
            self._fail("unexpected end of file (no footer): truncated trace")
            return None
        if remaining < _FRAME.size:
            self._fail(f"trailing garbage: {remaining} bytes is no frame")
            return None
        comp_len, n_uops, crc = _FRAME.unpack(self._fh.read(_FRAME.size))
        if n_uops == 0 or comp_len == 0:
            self._fail("empty frame (reserved encoding)")
            return None
        comp = self._fh.read(comp_len)
        if len(comp) != comp_len:
            self._fail(f"truncated frame payload ({len(comp)}/{comp_len} bytes)")
            return None
        if zlib.crc32(comp) != crc:
            self._fail("frame CRC mismatch (corrupt payload)")
            return None
        try:
            raw = zlib.decompress(comp)
        except zlib.error as e:
            self._fail(f"frame decompression failed: {e}")
            return None
        if len(raw) != n_uops * RECORD_BYTES:
            self._fail(
                f"frame length mismatch: {len(raw)} bytes for {n_uops} records"
            )
            return None
        self.crc_chain = zlib.crc32(raw, self.crc_chain)
        return raw

    def __iter__(self) -> Iterator[UOp]:
        ops = OP_BY_CODE
        make = UOp
        while True:
            raw = self._next_frame()
            if raw is None:
                return
            seq = self.count_read
            for pc, addr, target, size, src1, src2, op, flags in _RECORD.iter_unpack(raw):
                yield make(seq, pc, ops[op], src1=src1, src2=src2,
                           addr=addr, size=size, taken=flags == 1, target=target)
                seq += 1
            self.count_read = seq


_RECORD_DTYPE = np.dtype(
    [
        ("pc", "<u8"), ("addr", "<u8"), ("target", "<u8"),
        ("size", "<u2"), ("src1", "<u2"), ("src2", "<u2"),
        ("op", "u1"), ("flags", "u1"),
    ]
)
assert _RECORD_DTYPE.itemsize == RECORD_BYTES


def record_dtype():
    """Numpy structured dtype mirroring one 32-byte ``_RECORD`` struct.

    Field order/widths match ``'<QQQHHHBB'`` exactly, so a frame's raw
    bytes reinterpret as a record array with ``np.frombuffer`` -- the
    zero-copy decode under :meth:`TraceStream.take_batch`.
    """
    return _RECORD_DTYPE


class TraceStream:
    """Coherent scalar + batched reader over one trace file.

    Iterating yields :class:`~repro.isa.uop.UOp`\\ s exactly like
    :class:`TraceReader`; :meth:`take_batch` additionally drains up to
    ``n`` records *from the same cursor* as a numpy record array
    (:func:`record_dtype` layout, zero-copy views of the frame bytes)
    without constructing UOp objects.  The sampled-replay skip path
    uses it, and so does the pipeline's fetch stage, which therefore
    reads a trace up to one batch (256 records) ahead of the
    instructions it has fetched.  The two access styles may be freely
    interleaved; footer integrity checks are inherited from the
    underlying reader.
    """

    def __init__(self, path: str, strict: bool = True):
        self._reader = TraceReader(path, strict)
        self._raw = b""
        self._n = 0          # records in the current frame
        self._idx = 0        # records consumed from the current frame
        self._scalar = None  # iter_unpack cursor aligned with _idx
        self._seq = 0

    @property
    def meta(self) -> dict:
        return self._reader.meta

    @property
    def complete(self) -> bool:
        return self._reader.complete

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "TraceStream":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _load_frame(self) -> bool:
        if self._reader.complete:
            # the footer has been consumed; another _next_frame() would
            # misread EOF as truncation
            return False
        raw = self._reader._next_frame()
        if raw is None:
            return False
        self._raw = raw
        self._n = len(raw) // RECORD_BYTES
        self._reader.count_read += self._n
        self._idx = 0
        self._scalar = None
        return True

    def __iter__(self) -> Iterator[UOp]:
        return self

    def __next__(self) -> UOp:
        if self._idx >= self._n:
            if not self._load_frame():
                self.close()
                raise StopIteration
        if self._scalar is None:
            self._scalar = _RECORD.iter_unpack(
                memoryview(self._raw)[self._idx * RECORD_BYTES:]
            )
        pc, addr, target, size, src1, src2, op, flags = next(self._scalar)
        seq = self._seq
        self._seq = seq + 1
        self._idx += 1
        return UOp(seq, pc, OP_BY_CODE[op], src1=src1, src2=src2,
                   addr=addr, size=size, taken=flags == 1, target=target)

    def take_batch(self, max_records: int):
        """Drain up to ``max_records`` records as a numpy record array.

        Returns fewer (possibly zero) records only at end of trace.  The
        sequence cursor advances as if the records had been iterated, so
        scalar iteration resumes seamlessly afterwards.
        """
        dtype = _RECORD_DTYPE
        chunks = []
        got = 0
        while got < max_records:
            if self._idx >= self._n:
                if not self._load_frame():
                    break
            take = min(max_records - got, self._n - self._idx)
            chunks.append(
                np.frombuffer(self._raw, dtype=dtype, count=take,
                              offset=self._idx * RECORD_BYTES)
            )
            self._idx += take
            self._scalar = None
            self._seq += take
            got += take
        if not chunks:
            return np.empty(0, dtype=dtype)
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def write_trace(path: str, uops: Iterable[UOp], meta: dict | None = None) -> TraceInfo:
    """Write a whole iterable of uops to ``path`` (convenience)."""
    with TraceWriter(path, meta=meta) as w:
        w.extend(uops)
    return w.info


def read_info(path: str, scan: bool = False) -> TraceInfo:
    """Header + footer summary; ``scan=True`` additionally verifies every
    frame and histograms op classes (and is how an incomplete file's
    recoverable record count is found)."""
    with open(path, "rb") as fh:
        version, meta, _ = _read_header(fh, path)
    foot = _read_footer(path)
    info = TraceInfo(
        path=path,
        version=version,
        meta=meta,
        count=foot[0] if foot else 0,
        digest=_digest(foot[1], foot[0]) if foot else "",
        frames=foot[2] if foot else 0,
        complete=foot is not None,
        file_bytes=os.path.getsize(path),
    )
    if scan or foot is None:
        counts: dict[str, int] = {}
        with TraceReader(path, strict=False) as r:
            for u in r:
                counts[u.op.name] = counts.get(u.op.name, 0) + 1
            info.count = r.count_read
            info.complete = r.complete
            if not r.complete:
                info.digest = ""
                info.frames = 0  # unknown for a truncated file
        info.op_counts = counts
    return info


_token_cache: dict[tuple[str, int, float], str] = {}


def trace_token(path: str) -> str:
    """Stable content identity of a trace file (digest from the footer).

    This is what ties a ``trace:`` workload's *content* into the sweep
    engine's cache key: overwriting a trace file invalidates cached
    results even though the path is unchanged.  Memoised by
    ``(path, size, mtime)`` so key construction stays cheap.
    """
    try:
        st = os.stat(path)
    except OSError as e:
        # a vanished/unreadable file is a trace problem to the callers
        # (cache-key construction), not a bare OS traceback
        raise TraceError(f"{path}: {e.strerror or e}") from None
    key = (os.path.abspath(path), st.st_size, st.st_mtime)
    tok = _token_cache.get(key)
    if tok is None:
        foot = _read_footer(path)
        if foot is None:
            raise TraceCorruptError(
                f"{path}: no valid footer; refusing to replay a truncated "
                "trace through the cached runner (use `repro trace info` "
                "to inspect it)"
            )
        tok = _digest(foot[1], foot[0])
        if len(_token_cache) > 256:
            _token_cache.clear()
        _token_cache[key] = tok
    return tok
