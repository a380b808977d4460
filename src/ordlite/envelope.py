"""Taproot-style inscription envelope codec, over witness items as bytes.

An envelope is the item sequence
  OP_FALSE OP_IF PUSH("ord") OP_1 PUSH(content type) PUSH("") PUSH(body)... OP_ENDIF
where each opcode is a one-byte item (0x00, 0x63, 0x51, 0x68) and a push is
0x4c || len(2 LE) || data. `push_data` reads one item; `parse_envelope`
matches the pattern against the items themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import errors

OP_FALSE = b"\x00"
OP_IF = b"\x63"
OP_ENDIF = b"\x68"
OP_1 = b"\x51"
OPCODES = (OP_FALSE, OP_IF, OP_ENDIF, OP_1)

ORD_TAG = b"ord"
MAX_PUSH = 520  # per-push limit when building; parsing accepts any length
MAX_ENVELOPE_BYTES = 4_000_000  # block weight cap


@dataclass(frozen=True)
class Envelope:
    content_type: str
    body: bytes


def encode_push(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise errors.MalformedEnvelope("push too long for 2-byte length")
    return b"\x4c" + len(data).to_bytes(2, "little") + data


_ORD_PUSH = encode_push(ORD_TAG)


def push_data(item: bytes) -> bytes | None:
    """The data of a push item, or None if the item is one of OPCODES."""
    if item in OPCODES:
        return None
    if len(item) >= 3 and item[0] == 0x4C:
        data = item[3:]
        if len(data) != int.from_bytes(item[1:3], "little"):
            raise errors.MalformedEnvelope("push length mismatch")
        return data
    raise errors.MalformedEnvelope(f"undecodable witness item {item[:8].hex()}")


def build_envelope(content_type: str, body: bytes) -> list[bytes]:
    ct = content_type.encode()
    overhead = 4 + 3 + len(ORD_TAG) + 3 + len(ct) + 3  # opcodes + push headers
    if overhead + len(body) + 3 * (len(body) // MAX_PUSH + 1) > MAX_ENVELOPE_BYTES:
        raise errors.BodyTooLarge(f"{len(body)} byte body")
    items = [OP_FALSE, OP_IF, _ORD_PUSH, OP_1,
             encode_push(ct), encode_push(b"")]
    for i in range(0, len(body), MAX_PUSH):
        items.append(encode_push(body[i:i + MAX_PUSH]))
    items.append(OP_ENDIF)
    return items


def parse_envelope(witness) -> Envelope | None:
    """Decode a witness into an Envelope.

    Returns None when the "ord" tag is absent; raises MalformedEnvelope (or
    UnbalancedIf) when the tag is present but the pattern is violated.
    """
    if _ORD_PUSH not in witness:
        return None
    data = [push_data(item) for item in witness]
    if OP_IF in witness and OP_ENDIF not in witness:
        raise errors.UnbalancedIf("OP_IF without OP_ENDIF")

    def fail(msg):
        raise errors.MalformedEnvelope(msg)

    if len(witness) < 7:
        fail("envelope too short")
    if witness[0] != OP_FALSE or witness[1] != OP_IF:
        fail("envelope must open with OP_FALSE OP_IF")
    if data[2] != ORD_TAG:
        fail("missing ord tag push")
    if witness[3] != OP_1:
        fail("missing OP_1 before content type")
    if data[4] is None:
        fail("missing content-type push")
    if data[5] != b"":
        fail("missing OP_0 separator")
    if witness[-1] != OP_ENDIF:
        fail("envelope must close with OP_ENDIF")
    body = data[6:-1]
    if None in body:
        fail("body may contain only pushes")
    try:
        ct = data[4].decode("ascii")
    except UnicodeDecodeError:
        fail("content type must be printable ASCII")
    if any(not 0x20 <= ord(c) < 0x7F for c in ct):
        fail("content type must be printable ASCII")
    return Envelope(ct, b"".join(body))
