import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlite import errors
from ordlite.envelope import Envelope, build_envelope, encode_push, parse_envelope

HELLO = ("text/plain;charset=utf-8", b"Hello, world!")


def listing_witness():
    return [b"\x00", b"\x63", encode_push(b"ord"), b"\x51",
            encode_push(HELLO[0].encode()), encode_push(b""),
            encode_push(HELLO[1]), b"\x68"]


def test_parse_listing_stream():
    assert parse_envelope(listing_witness()) == Envelope(*HELLO)


def test_build_matches_listing_stream():
    assert build_envelope(*HELLO) == listing_witness()


def test_round_trip_minimal():
    assert parse_envelope(build_envelope("", b"")) == Envelope("", b"")


def test_non_inscription_witness_is_none():
    assert parse_envelope([b"\x00", b"\x63", encode_push(b"sig"), b"\x68"]) is None
    assert parse_envelope([]) is None
    assert parse_envelope([b"\xff\xfe"]) is None  # undecodable, no ord tag


def test_unbalanced_if():
    items = listing_witness()[:-1]  # drop OP_ENDIF
    with pytest.raises(errors.UnbalancedIf):
        parse_envelope(items)


def test_malformed_with_tag_raises():
    # ord tag present but OP_1 missing
    items = [b"\x00", b"\x63", encode_push(b"ord"),
             encode_push(HELLO[0].encode()), encode_push(b""),
             encode_push(b"x"), b"\x68"]
    with pytest.raises(errors.MalformedEnvelope):
        parse_envelope(items)


def _witness(*items, content_type=HELLO[0].encode()):
    """The listing envelope's opening, then items (the rest of the envelope)."""
    return [b"\x00", b"\x63", encode_push(b"ord"), b"\x51",
            encode_push(content_type), *items]


@pytest.mark.parametrize("items, message", [
    (listing_witness()[:6] + [b"\xff\xfe", b"\x68"], "undecodable witness item fffe"),
    (listing_witness()[:6] + [b"\x4c\x05\x00ab", b"\x68"], "push length mismatch"),
    (_witness(b"\x68"), "envelope too short"),
    ([b"\x51"] + listing_witness()[1:], "envelope must open with OP_FALSE OP_IF"),
    ([b"\x00", b"\x63", encode_push(b"sig"), b"\x51", encode_push(b"text/plain"),
      encode_push(b""), encode_push(b"ord"), b"\x68"], "missing ord tag push"),
    (_witness()[:4] + [b"\x51", encode_push(b""), encode_push(b"x"), b"\x68"],
     "missing content-type push"),
    (_witness(encode_push(b"x"), encode_push(b"y"), b"\x68"), "missing OP_0 separator"),
    (_witness(encode_push(b""), b"\x68", encode_push(b"x")),
     "envelope must close with OP_ENDIF"),
    (_witness(encode_push(b""), encode_push(b"x"), b"\x00", b"\x68"),
     "body may contain only pushes"),
    (_witness(encode_push(b""), b"\x68", content_type="é".encode()),
     "content type must be printable ASCII"),
    (_witness(encode_push(b""), b"\x68", content_type=b"text\x01"),
     "content type must be printable ASCII"),
], ids=["undecodable_item", "push_length_mismatch", "too_short", "wrong_opening",
        "no_ord_tag_push", "no_content_type_push", "no_op0_separator",
        "no_closing_endif", "opcode_in_body", "non_ascii_content_type",
        "non_printable_content_type"])
def test_malformed_envelope_message(items, message):
    for witness in (items, tuple(items)):
        with pytest.raises(errors.MalformedEnvelope) as info:
            parse_envelope(witness)
        assert info.type is errors.MalformedEnvelope
        assert str(info.value) == message


def test_body_spans_multiple_pushes():
    body = bytes(range(256)) * 5  # 1280 bytes > one 520-byte push
    items = build_envelope("application/octet-stream", body)
    pushes = [i for i in items if i[:1] == b"\x4c"]
    assert len(pushes) > 3  # ord, content type, several body chunks
    assert parse_envelope(items) == Envelope("application/octet-stream", body)


def test_body_too_large():
    with pytest.raises(errors.BodyTooLarge):
        build_envelope("application/octet-stream", b"\x00" * 4_100_000)


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
            max_size=60),
    st.binary(max_size=2000),
)
def test_codec_round_trip(content_type, body):
    assert parse_envelope(build_envelope(content_type, body)) == \
        Envelope(content_type, body)
