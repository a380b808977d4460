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
