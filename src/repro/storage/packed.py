"""Binary page images: the page codec of on-disk format version 2.

:func:`encode_page_image` / :func:`decode_page_image` serialize one
page.  An image is self-describing via a leading *page-format byte*:

=======  ==========================================================
byte 0   image body
=======  ==========================================================
0        object fallback: the generic tag codec page of
         :mod:`repro.storage.codec`, verbatim
1        packed ``int64`` keys (one 8-byte little-endian slot each)
2        packed ``float64`` keys (IEEE-754 little-endian)
3        packed string keys (fixed-width UTF-8 prefix slots)
=======  ==========================================================

Packed images (formats 1-3) continue ``<BBHI``: format byte, flags
(bit 0 = a values section follows), reserved, record count — then the
key slots, then, when present, ``count`` little-endian u32 value
lengths (``0xFFFFFFFF`` = ``None``) followed by the concatenated value
bytes.  Only ``bytes``/``None`` values are packable; anything else —
like any page whose keys are not homogeneously int64/float64/short-str
— *demotes to the object format for that write* (format byte 0).  The
fallback is chosen per page per write, so a page that receives a
``Fraction`` key mid-command simply serializes through the generic
codec on its next write-back; nothing above the codec notices.

None of this touches logical page-access accounting: the format byte
lives inside the page payload, which every layer above the raw store
(journal, replication shipping, scrub repair) already treats as opaque
CRC-framed bytes.
"""

from __future__ import annotations

import struct
import sys
from typing import Any, List, Optional

from ..records import Record
from .codec import CodecError, decode_page, encode_page
from .page import Page

PAGE_FORMAT_OBJECT = 0
PAGE_FORMAT_I64 = 1
PAGE_FORMAT_F64 = 2
PAGE_FORMAT_STR = 3

PAGE_FORMATS = (
    PAGE_FORMAT_OBJECT,
    PAGE_FORMAT_I64,
    PAGE_FORMAT_F64,
    PAGE_FORMAT_STR,
)

#: format byte, flags, reserved, record count
_PACKED_HEADER = struct.Struct("<BBHI")
_FLAG_HAS_VALUES = 0x01
_NONE_LENGTH = 0xFFFFFFFF
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
#: Maximum UTF-8 length for a fixed-width string key slot (u8 lengths).
_STR_WIDTH_MAX = 255

_LITTLE_ENDIAN = sys.byteorder == "little"


def _pack_keys(keys: List[Any]) -> "Optional[tuple[int, bytes]]":
    """Classify and pack homogeneous keys; ``(format, bytes)`` or ``None``."""
    kind = type(keys[0])
    if kind is int:
        for key in keys:
            if type(key) is not int or not _I64_MIN <= key <= _I64_MAX:
                return None
        if _LITTLE_ENDIAN:
            from array import array

            return PAGE_FORMAT_I64, array("q", keys).tobytes()
        return PAGE_FORMAT_I64, struct.pack(f"<{len(keys)}q", *keys)
    if kind is float:
        for key in keys:
            if type(key) is not float:
                return None
        if _LITTLE_ENDIAN:
            from array import array

            return PAGE_FORMAT_F64, array("d", keys).tobytes()
        return PAGE_FORMAT_F64, struct.pack(f"<{len(keys)}d", *keys)
    if kind is str:
        encoded = []
        for key in keys:
            if type(key) is not str:
                return None
            try:
                raw = key.encode("utf-8")
            except UnicodeEncodeError:
                return None  # lone surrogates etc.: object codec handles
            if len(raw) > _STR_WIDTH_MAX:
                return None
            encoded.append(raw)
        width = max(len(raw) for raw in encoded)
        out = bytearray([width])
        padding = b"\x00" * width
        for raw in encoded:
            out.append(len(raw))
            out += raw
            out += padding[: width - len(raw)]
        return PAGE_FORMAT_STR, bytes(out)
    return None


def _pack_values(values: List[Any]) -> Optional[bytes]:
    """Pack a ``bytes``/``None`` value column; ``b""`` when all ``None``.

    Returns ``None`` when any value is of another type (the page must
    demote to the object codec for this write).
    """
    any_present = False
    for value in values:
        if value is None:
            continue
        if type(value) is not bytes:
            return None
        any_present = True
    if not any_present:
        return b""
    lengths = [
        _NONE_LENGTH if value is None else len(value) for value in values
    ]
    return struct.pack(f"<{len(values)}I", *lengths) + b"".join(
        value for value in values if value is not None
    )


def _encode_image(keys: List[Any], records: List[Record]) -> bytes:
    """Serialize parallel key / record lists as one format-byte image."""
    if keys:
        packed = _pack_keys(keys)
        if packed is not None:
            value_section = _pack_values([record.value for record in records])
            if value_section is not None:
                format_byte, key_section = packed
                flags = _FLAG_HAS_VALUES if value_section else 0
                return (
                    _PACKED_HEADER.pack(format_byte, flags, 0, len(keys))
                    + key_section
                    + value_section
                )
    return bytes([PAGE_FORMAT_OBJECT]) + encode_page(records)


def encode_page_image(page: Page) -> bytes:
    """Serialize one page as a self-describing format-byte image.

    Homogeneous pages (int64 / float64 / short-str keys, bytes-or-None
    values) become one packed buffer copy; anything else falls back to
    the generic tag codec behind format byte 0.  Decoding with
    :func:`decode_page_image` always reproduces the exact records.
    """
    return _encode_image(page._keys, page._records)


def encode_records_image(records: List[Record]) -> bytes:
    """:func:`encode_page_image` over a plain record list."""
    return _encode_image([record.key for record in records], records)


def _unpack_keys(
    format_byte: int, payload: bytes, offset: int, count: int
) -> "tuple[List[Any], int]":
    """Decode a key section; returns ``(keys, next_offset)``."""
    if format_byte == PAGE_FORMAT_I64:
        end = offset + 8 * count
        if end > len(payload):
            raise CodecError("truncated packed int64 keys")
        return list(struct.unpack_from(f"<{count}q", payload, offset)), end
    if format_byte == PAGE_FORMAT_F64:
        end = offset + 8 * count
        if end > len(payload):
            raise CodecError("truncated packed float64 keys")
        return list(struct.unpack_from(f"<{count}d", payload, offset)), end
    # PAGE_FORMAT_STR: u8 slot width, then count slots of u8 len + width bytes
    if offset >= len(payload):
        raise CodecError("truncated packed string key header")
    width = payload[offset]
    offset += 1
    stride = 1 + width
    end = offset + stride * count
    if end > len(payload):
        raise CodecError("truncated packed string keys")
    keys = []
    view = memoryview(payload)
    for _ in range(count):
        length = payload[offset]
        if length > width:
            raise CodecError("packed string key overflows its slot")
        keys.append(str(view[offset + 1 : offset + 1 + length], "utf-8"))
        offset += stride
    return keys, end


def decode_page_image(payload: bytes) -> List[Record]:
    """Decode a format-byte page image back into its record list."""
    if not payload:
        raise CodecError("empty page image")
    format_byte = payload[0]
    if format_byte == PAGE_FORMAT_OBJECT:
        return decode_page(payload[1:])
    if format_byte not in (PAGE_FORMAT_I64, PAGE_FORMAT_F64, PAGE_FORMAT_STR):
        raise CodecError(f"unknown page format byte {format_byte}")
    if len(payload) < _PACKED_HEADER.size:
        raise CodecError("truncated packed page header")
    _, flags, _, count = _PACKED_HEADER.unpack_from(payload, 0)
    offset = _PACKED_HEADER.size
    keys, offset = _unpack_keys(format_byte, payload, offset, count)
    if flags & _FLAG_HAS_VALUES:
        end = offset + 4 * count
        if end > len(payload):
            raise CodecError("truncated packed value lengths")
        lengths = struct.unpack_from(f"<{count}I", payload, offset)
        offset = end
        values: List[Any] = []
        for length in lengths:
            if length == _NONE_LENGTH:
                values.append(None)
                continue
            chunk = payload[offset : offset + length]
            if len(chunk) != length:
                raise CodecError("truncated packed value bytes")
            values.append(chunk)
            offset += length
        if offset != len(payload):
            raise CodecError("trailing garbage after packed page image")
        return list(map(Record, keys, values))
    if offset != len(payload):
        raise CodecError("trailing garbage after packed page image")
    return [Record(key) for key in keys]
