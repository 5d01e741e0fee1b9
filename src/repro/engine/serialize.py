"""Binary serialization of Gluon messages.

Gluon aggregates all values exchanged between one host pair in one round
into a single message and compresses the metadata identifying the proxies
(paper §4.1, §5.3).  This module implements that wire format for real:
:func:`encode_message` packs an aggregated message into bytes and
:func:`decode_message` recovers it exactly.  It is the reference the
closed-form byte model of :mod:`repro.engine.gluon` is checked against:
the tests encode a run's pair messages with :func:`encoded_size` and
compare the total with what the plane charged.

Wire format (little-endian)
---------------------------
::

    header:  magic  u16 | version u8 | flags u8
             batch_width u16 | n_vertices u32 | n_items u32
             shared_proxies u32  (bitmap domain size; 0 = index mode)
             reserved 16 B       (field descriptors / MPI envelope stand-in)
    vertex block:
        index mode:  u32 per distinct vertex id
        bitmap mode: ceil(shared_proxies / 8) bytes over the pair's
                     shared-proxy rank space
    per-vertex source block (only if batch_width > 1):
        u8 mode per vertex: 0 = u16 index list (+count u16), 1 = bitvector
        followed by the chosen encoding
    payload block:
        values in (vertex, source) order, each item's payload packed as
        f64/i32 fields per the payload descriptor

The format chooses per component whichever encoding is smaller — the same
choice the size model in :mod:`repro.engine.gluon` makes — so the modelled
sizes and the encoded sizes agree up to alignment padding (asserted in the
tests).
"""

from __future__ import annotations

import struct
from collections import defaultdict
from typing import Any, Sequence

MAGIC = 0x47C7  # "Gluon Compressed"
VERSION = 1
#: Stand-in for MPI envelope + per-field descriptors that a real transport
#: adds around the encoded body (kept consistent with the gluon module).
ENVELOPE_BYTES = 352

_HEADER = struct.Struct("<HBBHIII16x")


def _pack_vertex_block(
    vertices: Sequence[int],
    shared_rank: dict[int, int] | None,
) -> bytes:
    """Index list or bitmap over the shared-proxy rank space."""
    index_cost = 4 * len(vertices)
    if shared_rank is not None and all(v in shared_rank for v in vertices):
        domain = len(shared_rank)
        bitmap_cost = (domain + 7) // 8
        if bitmap_cost < index_cost:
            buf = bytearray(bitmap_cost)
            for v in vertices:
                r = shared_rank[v]
                buf[r >> 3] |= 1 << (r & 7)
            return bytes(buf)
    return b"".join(struct.pack("<I", v) for v in vertices)


def _pack_source_block(sources: Sequence[int], batch_width: int) -> bytes:
    """Per-vertex source set: u16 list or k-bit bitvector, whichever wins."""
    list_cost = 2 + 2 * len(sources)
    vec_cost = (batch_width + 7) // 8
    if vec_cost < list_cost:
        buf = bytearray(vec_cost)
        for s in sources:
            buf[s >> 3] |= 1 << (s & 7)
        return b"\x01" + bytes(buf)
    out = bytearray(b"\x00")
    out += struct.pack("<H", len(sources))
    for s in sources:
        out += struct.pack("<H", s)
    return bytes(out)


def encode_message(
    items: Sequence[tuple[int, int, tuple[Any, ...]]],
    batch_width: int,
    shared_rank: dict[int, int] | None = None,
    payload_format: str = "<if d",
) -> bytes:
    """Encode one aggregated pair message.

    ``items`` are ``(vertex, source_index, payload)`` triples; ``payload``
    fields are packed with ``payload_format`` (a ``struct`` format, spaces
    ignored).  ``shared_rank`` maps vertex id → rank among the pair's
    shared proxies and enables bitmap vertex metadata.
    """
    fmt = struct.Struct(payload_format.replace(" ", ""))
    by_vertex: dict[int, list[tuple[int, tuple[Any, ...]]]] = defaultdict(list)
    for v, si, payload in items:
        if batch_width > 1 and not 0 <= si < batch_width:
            raise ValueError(f"source index {si} outside batch {batch_width}")
        by_vertex[v].append((si, payload))
    vertices = sorted(by_vertex)

    body = bytearray()
    body += _pack_vertex_block(vertices, shared_rank)
    payload_bytes = bytearray()
    for v in vertices:
        entries = sorted(by_vertex[v])
        if batch_width > 1:
            body += _pack_source_block([si for si, _ in entries], batch_width)
        for _si, payload in entries:
            payload_bytes += fmt.pack(*payload)
    body += payload_bytes

    flags = 1 if (shared_rank is not None) else 0
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        flags,
        batch_width,
        len(vertices),
        len(items),
        len(shared_rank) if shared_rank else 0,
    )
    return header + bytes(body)


def decode_message(
    data: bytes,
    shared_vertices: Sequence[int] | None = None,
    payload_format: str = "<if d",
) -> list[tuple[int, int, tuple[Any, ...]]]:
    """Inverse of :func:`encode_message`.

    ``shared_vertices`` must list the pair's shared proxies in rank order
    when the message was encoded with a ``shared_rank`` (bitmap-capable)
    context.
    """
    fmt = struct.Struct(payload_format.replace(" ", ""))
    magic, version, flags, k, n_vertices, n_items, domain = _HEADER.unpack_from(
        data, 0
    )
    if magic != MAGIC or version != VERSION:
        raise ValueError("not a Gluon message (bad magic/version)")
    off = _HEADER.size

    # -- vertex block
    vertices: list[int]
    index_cost = 4 * n_vertices
    bitmap_cost = (domain + 7) // 8 if domain else None
    if flags & 1 and bitmap_cost is not None and bitmap_cost < index_cost:
        if shared_vertices is None:
            raise ValueError("bitmap message needs the shared-proxy list")
        raw = data[off : off + bitmap_cost]
        off += bitmap_cost
        vertices = [
            shared_vertices[r]
            for r in range(domain)
            if raw[r >> 3] & (1 << (r & 7))
        ]
    else:
        vertices = [
            struct.unpack_from("<I", data, off + 4 * i)[0]
            for i in range(n_vertices)
        ]
        off += index_cost
    if len(vertices) != n_vertices:
        raise ValueError("vertex count mismatch")

    # -- per-vertex source blocks
    per_vertex_sources: list[list[int]] = []
    for _v in vertices:
        if k > 1:
            mode = data[off]
            off += 1
            if mode == 1:
                vec_cost = (k + 7) // 8
                raw = data[off : off + vec_cost]
                off += vec_cost
                srcs = [s for s in range(k) if raw[s >> 3] & (1 << (s & 7))]
            else:
                (cnt,) = struct.unpack_from("<H", data, off)
                off += 2
                srcs = [
                    struct.unpack_from("<H", data, off + 2 * i)[0]
                    for i in range(cnt)
                ]
                off += 2 * cnt
        else:
            srcs = [0]
        per_vertex_sources.append(srcs)

    # -- payloads
    out: list[tuple[int, int, tuple[Any, ...]]] = []
    for v, srcs in zip(vertices, per_vertex_sources):
        for si in srcs:
            payload = fmt.unpack_from(data, off)
            off += fmt.size
            out.append((v, si, payload))
    if len(out) != n_items:
        raise ValueError("item count mismatch")
    return out


def encoded_size(
    items: Sequence[tuple[int, int, tuple[Any, ...]]],
    batch_width: int,
    shared_rank: dict[int, int] | None = None,
    payload_format: str = "<if d",
) -> int:
    """Length of the encoding plus the transport envelope."""
    return ENVELOPE_BYTES + len(
        encode_message(items, batch_width, shared_rank, payload_format)
    )
