"""The indexing pipeline and persistent snapshot.

For each block: check its structure; take its UTXO delta, `created`, from
`ordinals.assign_ordinals`, which checks its values, and commit it in one
step that also keeps the UTXO set's derived index of each recipient's unspent
plain outpoints (`from_json` builds that index when it loads a snapshot, and
`trade.funding_outputs` reads it); then, per tx and reading `created`, settle
pending transfers whose inscribed sat moved, extract inscriptions and hand
their BRC-20 operations to the ledger (`Brc20Ledger.apply`), which alone
changes BRC-20 state.
Protocol-level failures are recorded as diagnostics and never abort indexing;
a chain-level failure raises ChainError or RangeValueMismatch before any commit.
Each block ends with the ledger's `check_touched`, which checks the BRC-20
invariants of only the ticks and holders the block changed, so its cost grows
with the holders of those ticks, not with the transfers ever inscribed; the
full `check_invariants` runs in `validate`, when a snapshot is loaded.

Inscriptions are tracked per transaction, in block order, through an
outpoint -> inscriptions index, as ord's InscriptionUpdater does: a tx moves
exactly the inscriptions on the outpoints it spends. An inscription stays on
its genesis sat, so it goes where `ordinals.assign_ordinals`, the only FIFO
and fee-placement rule, put that sat. One `ordinals.find_sat` walk, the one
`sat` queries use, searches the tx's outputs and then the coinbase's (the sat
was spent as fee); if neither holds it, it was burned and the inscription is
lost. Every moved inscription goes to the ledger's `settle` with the
recipient of the output found; only an unused pending transfer settles, so
a transfer inscription that moves twice in one block credits its first
receiver, even when a later tx in the block spends it as fee.

The snapshot is canonical JSON: `chain.canonical_dumps` sorts every key, so
its top-level sections always come in SECTIONS order. `read_sections`, which
checks that layout and nothing more, is the one snapshot decoder of sections:
reads decode the sections they need. The tail, `tip_height` and `utxos`,
holds no key a user chose, so `read_sections` can find it from the end and
skip every section before it. Bytes from outside the data dir enter only
through `IndexState.from_untrusted`, which decodes every section whole and
then validates the state; the data dir then holds only bytes ordlite wrote.
`next_number`, each `genesis_satpoint` and each offer's `inscription_id` are
written from the state, which does not keep them.

`IndexState.to_json` builds every section and `snapshot_bytes` encodes them
all; that full encoding is the spec. A CLI write need not decode or
re-encode what it does not touch. `decode(data)` decodes `btc_deltas`,
`next_number`, `offers`, `tip_height` and the ledger's `balances` and
`ticks` whole, and keeps the UTXO set, the inscriptions, their locations,
the ledger's pendings and the three derived indexes (plain outpoints,
inscriptions by outpoint, unused pendings by tick and owner) as `_Lazy`
maps over the bytes: each finds a key's value there on its first lookup
(`_Source`) and keeps every write in an overlay, its change log. The
`brc20` read commands decode the ledger the same way (`read_ledger`). An
`IndexState()`, as the in-memory index job and the scenario compiler make,
holds plain dicts, and `apply_block` runs the same code on either.
`spliced_bytes` hands data, the spans and the overlays' records to `splice`,
which re-encodes each written record, puts a new one at its key's sorted
place, deletes a spent one, and copies every byte of a record no write
changed. `offers` and `btc_deltas` are re-encoded on every write, and the
ledger's `balances` and `ticks`, `next_number` and `tip_height` once a block
was applied. Each record and section has one builder, `_utxo_json`,
`_inscription_json`, `brc20.pending_json`, `offers_json` and the ledger's
`tables_json`, which `to_json` uses too, so both paths write the same
bytes; `_utxo_from_json`, `_inscription_from_json` and
`brc20.pending_from_json` read a record back on both paths. Only the
commands that print the snapshot's hash, `index`, `snapshot save` and
`snapshot load`, compute it.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
from collections import defaultdict
from collections.abc import MutableMapping, MutableSet
from dataclasses import dataclass

from . import brc20, chain, envelope, errors, ordinals, trade
from .chain import OutPoint
from .ordinals import SatPoint

# The snapshot's top-level keys, in the order `canonical_dumps` writes them.
SECTIONS = ("brc20", "btc_deltas", "inscriptions", "next_number", "offers",
            "tip_height", "utxos")
# The fields of `brc20`, in canonical order, and the heads before each when
# `read_sections` reads them in place of `brc20` (and the one after them)
LEDGER = ("balances", "pendings", "ticks")
_LEDGER_HEADS = {"balances": '{"brc20":{"balances":', "pendings": ',"pendings":',
                 "ticks": ',"ticks":', "btc_deltas": '},"btc_deltas":'}
_DECODER = json.JSONDecoder()


def read_sections(data: bytes, last: str, spans: dict | None = None,
                  first: str = SECTIONS[0], skip=()) -> dict:
    """Decode a snapshot ordlite wrote, section by section, from `first` up to
    and including `last`. A layout that is not SECTIONS in canonical form raises
    CorruptSnapshot; the decoded values are trusted as they are. When `spans`
    is given, it gets each section's (start, end) offsets in data, the slice
    its value is encoded in. Canonical bytes are ASCII, as `canonical_dumps`
    escapes everything else, and other bytes are refused, so an offset in the
    decoded text is the same offset in data.

    `first` is SECTIONS[0], or "tip_height" to find the tail from the end and
    decode nothing before it. After `offers` no key is one a user chose, and a
    `"` inside a string is escaped, so the last `,"utxos":` heads `utxos` and
    the last `,"tip_height":` before it heads `tip_height`. A tail read checks
    that the bytes are ASCII and start with `{"brc20":`, that `tip_height`
    ends at that `utxos` head and, when it reads `utxos`, that the closing
    brace follows it.

    The sections in `skip`, "inscriptions", "pendings" or "utxos", are found
    but not decoded. No key inside `inscriptions` is one a user chose, so the first
    `,"next_number":` after its head ends it; `utxos` ends at the closing
    brace.

    With "pendings" in `skip`, a read from the start reads the fields of
    `brc20`, LEDGER, in its place, as sections of their own, and skips
    `pendings`: a `"` inside a string is escaped, and `]` occurs in that list
    only at its end, so the first `],"ticks":{` after its head ends it."""
    sections: dict = {}
    pos = 0
    from_end = first != SECTIONS[0]
    keys = SECTIONS[SECTIONS.index(first):]
    heads = {key: ("{" if key == SECTIONS[0] else ",") + f'"{key}":' for key in keys}
    if "pendings" in skip:
        keys = LEDGER + keys[1:]
        heads.update(_LEDGER_HEADS)
    try:
        text = data.decode("ascii")
        if from_end:
            if not text.startswith('{"brc20":'):
                raise errors.CorruptSnapshot("expected '{\"brc20\":' at offset 0")
            tail = text.rfind(',"utxos":')
            pos = text.rfind(',"tip_height":', 0, tail)
            if pos < 0:
                raise errors.CorruptSnapshot("no tip_height head")
        for key in keys:
            head = heads[key]
            if not text.startswith(head, pos):
                raise errors.CorruptSnapshot(f"expected {head!r} at offset {pos}")
            start = pos + len(head)
            if key not in skip:
                sections[key], pos = _DECODER.raw_decode(text, start)
            elif key == SECTIONS[-1]:
                pos = len(text) - 1
            elif key == "pendings":
                pos = text.find('],"ticks":{', start) + 1
                if pos <= 0:
                    raise errors.CorruptSnapshot("no ticks head")
            else:
                pos = text.find(',"next_number":', start)
                if pos < 0:
                    raise errors.CorruptSnapshot("no next_number head")
            if spans is not None:
                spans[key] = (start, pos)
            if from_end and key == "tip_height" and pos != tail:
                raise errors.CorruptSnapshot(f"expected the utxos head at offset {pos}")
            if key == last:
                break
    except (ValueError, RecursionError) as exc:  # not ASCII, not JSON, or nested too deep
        raise errors.CorruptSnapshot(str(exc)) from exc
    if key == SECTIONS[-1] and text[pos:] != "}":
        raise errors.CorruptSnapshot(f"expected the closing brace at offset {pos}")
    return sections


# A record head in `utxos` or `inscriptions`: its key, "<txid>:<vout>" or
# "<txid>i<k>", in quotes, then a colon. The byte before it is the `{` or `,`
# that separates the record from what comes before.
_RECORD_HEAD = re.compile(rb'"([0-9a-f]{64}[:i][0-9]+)":')
# The start of a pending's element in `pendings`, `{"amt":"<amt>","id":"<id>"`
# (its fields in sorted order), which holds its key, the id. `{"` occurs in
# no string, where every `"` is escaped, so it matches only there.
_PENDING_HEAD = re.compile(rb'\{"amt":"[0-9.]+","id":"([0-9a-f]{64}i[0-9]+)"')
# section -> what finds the head of each of its records
_HEADS = {"inscriptions": _RECORD_HEAD, "pendings": _PENDING_HEAD, "utxos": _RECORD_HEAD}
# An inscription id, as `_extract_reveals` makes it: "<txid>i<k>"
_INSCRIPTION_ID = re.compile(r"[0-9a-f]{64}i[0-9]+")


def splice(data: bytes, spans: dict, values: dict, records: dict) -> bytes:
    """Snapshot bytes `data`, whose sections (and ledger fields)
    `read_sections` put at `spans`, with the value of each one in `values`
    replaced by its canonical encoding, and in each one in `records`
    (section -> {key: value, or None for no record}) each named record
    re-encoded, put at its key's sorted place or deleted; every other byte
    is copied as it is. A None for a key the bytes do not hold changes
    nothing. The result is the canonical encoding of the snapshot so
    changed, as a value's encoding is the same inside the whole snapshot
    and on its own.

    Only `utxos`, `inscriptions` and the ledger's `pendings` list take
    records, found by their `_HEADS` pattern. In the two objects
    `_RECORD_HEAD` matches only a record's head: every `"` inside a string
    is escaped, so the quote after the key's last digit ends a string, and
    the colon after it makes that string a key; a record key holds no quote,
    so the match is the whole key; and the keys inside a record are field
    names, none of a record key's shape. No user chooses a record key (an
    outpoint or an inscription id). A pending's key is its id. Records are
    in `canonical_dumps` order, Python string order (`pendings` is sorted by
    id), so `<txid>:10` comes before `<txid>:2`, and each key is found by
    bisecting the section's bytes."""
    pieces, pos = [], 0
    view = memoryview(data)
    changed = [key for key in (*values, *records) if key in values or records[key]]
    for key in sorted(changed, key=lambda key: spans[key][0]):
        start, end = spans[key]
        pieces.append(view[pos:start])
        if key in values:
            pieces.append(chain.canonical_dumps(values[key]).encode())
        else:
            pieces += _splice_records(data, start, end, records[key], _HEADS[key])
        pos = end
    pieces.append(view[pos:])
    return b"".join(pieces)


def _splice_records(data: bytes, start: int, end: int, records: dict, pattern) -> list:
    """The pieces that, joined, encode the object, or the list, at
    data[start:end] with records spliced in (see `splice`): each run of old
    records between two named keys is a piece of data, joined once, by
    `splice`. A list's element holds its key, an object's record follows it."""
    close = end - 1  # the closing brace or bracket
    view, runs = memoryview(data), []
    listed = data[start:start + 1] == b"["
    cursor = start  # the separator before the first record not yet copied, or close
    for key in sorted(records):
        k = key.encode()
        head = _seek(data, cursor, close, k, pattern)
        sep = close if head is None else head.start() - 1
        if sep - cursor > 1:
            runs.append(view[cursor + 1:sep])
        cursor = sep
        if head is not None and head.group(1) == k:  # the old record: skip it
            after = pattern.search(data, head.end(), close)
            cursor = close if after is None else after.start() - 1
        if records[key] is not None:
            value = chain.canonical_dumps(records[key]).encode()
            runs.append(value if listed else b'"%s":%s' % (k, value))
    if close - cursor > 1:
        runs.append(view[cursor + 1:close])
    pieces = [view[start:start + 1]]
    for run in runs:
        pieces += (run, b",")
    if runs:
        pieces.pop()  # the separator after the last run
    pieces.append(view[close:end])
    return pieces


def _seek(data: bytes, lo: int, hi: int, key: bytes, pattern=_RECORD_HEAD):
    """The match of `pattern`, a record head, of the first record in
    data[lo:hi] whose key is not below key, or None. Every record head
    before lo is below key. A probe matches the first head after a
    midpoint; once few bytes are left unsearched, the heads after lo are
    tried in turn."""
    found, bound = None, hi  # no head lies in [hi, bound)
    while hi - lo > 256:
        mid = (lo + hi) // 2
        head = pattern.search(data, mid, bound)
        if head is None or head.group(1) >= key:
            if head is not None:
                found, bound = head, head.start()
            hi = mid
        else:
            lo = head.end()
    for head in pattern.finditer(data, lo, bound):
        if head.group(1) >= key:
            return head
    return found


def write_snapshot(path, data: bytes) -> None:
    """Write snapshot bytes to path. They go to `<path>.tmp` first, which
    then replaces path, so a failed write leaves the old snapshot in place."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fp:
        fp.write(data)
    os.replace(tmp, path)


def sat_report(n: int, outputs) -> dict:
    """What `ordlite sat` prints for sat n among (outpoint, ranges) pairs."""
    info = ordinals.sat_info(n)
    point = ordinals.find_sat(n, outputs)
    if point is not None:
        info["satpoint"] = str(point)
    return info


def classify_envelope(env: envelope.Envelope) -> tuple[str, brc20.Brc20Op | None]:
    """The inscription kind of an envelope, with its BRC-20 op if it is one."""
    try:
        op = brc20.parse_brc20(env.body)
        return f"brc20_{op.op}", op
    except errors.Brc20Error:
        pass
    if env.content_type.startswith("text/"):
        return "text", None
    if env.content_type:
        return "file", None
    return "other", None


@dataclass
class Inscription:
    id: str  # "<txid>i<k>", k = envelope index within the tx
    number: int  # chain-wide sequential
    content_type: str
    body: bytes
    kind: str
    genesis_sat: int
    height: int


def _utxo_json(entry: chain.UtxoEntry) -> dict:
    """A UTXO's snapshot record, built in place: a dict merge is ~10% slower."""
    obj = chain.txout_to_json(entry.txout)
    obj["sat_ranges"] = entry.sat_ranges  # its tuples encode as arrays
    return obj


def _inscription_json(ins: Inscription, point: SatPoint | None) -> dict:
    """An inscription's snapshot record, point its location (None: lost)."""
    return {
        "number": ins.number,
        "content_type": ins.content_type,
        "body": ins.body.hex(),
        "kind": ins.kind,
        "genesis_sat": ins.genesis_sat,
        # a reveal binds to the first sat of its tx's first output
        "genesis_satpoint": f"{ins.id.rpartition('i')[0]}:0:0",
        "satpoint": None if point is None else str(point),
        "height": ins.height,
    }


def _utxo_from_json(obj: dict) -> chain.UtxoEntry:
    """The entry of a UTXO's snapshot record; the mirror of `_utxo_json`."""
    return chain.UtxoEntry(chain.txout_from_json(obj), [tuple(r) for r in obj["sat_ranges"]])


def _inscription_from_json(ins_id: str, obj: dict) -> Inscription:
    """The inscription of its snapshot record; the mirror of `_inscription_json`."""
    return Inscription(ins_id, obj["number"], obj["content_type"], bytes.fromhex(obj["body"]),
                       obj["kind"], obj["genesis_sat"], obj["height"])


def _satpoint(text: str, outpoints: dict) -> SatPoint:
    """The SatPoint "<txid>:<vout>:<offset>" names, its outpoint taken from
    outpoints (str -> OutPoint) when it is there."""
    key, _, offset = text.rpartition(":")
    return SatPoint(outpoints.get(key) or OutPoint.parse(key), int(offset))


_ABSENT = object()  # what a `_Lazy` map holds for a key it has no value of


class _Lazy(MutableMapping):
    """A map backed by snapshot bytes, for a state `IndexState.decode` made.
    A key is looked up in the bytes, by `find(key)`, the first time it is
    asked for, and what was found is kept in `found`; `find` gives _ABSENT
    for a key the bytes hold no value of. Every write, a delete included
    (as _ABSENT), goes to `written`, which is so the change log of the map.
    Iteration takes every (key, value) pair the bytes hold, from
    `find_all()`, once; a map with no `find_all` cannot be iterated.
    `count` is the number of keys, when known."""

    def __init__(self, find, find_all, count=None):
        self.find, self.find_all, self.count = find, find_all, count
        self.found: dict = {}
        self.written: dict = {}
        self.complete = False  # whether `found` holds every key the bytes hold

    def __getitem__(self, key):
        value = self.written.get(key)
        if value is None:
            value = self.found.get(key)
            if value is None:
                value = self.found[key] = self.find(key)
        if value is _ABSENT:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value):
        if self.count is not None and key not in self:
            self.count += 1
        self.written[key] = value

    def __delitem__(self, key):
        if key not in self:
            raise KeyError(key)
        self.written[key] = _ABSENT
        if self.count is not None:
            self.count -= 1

    def __iter__(self):
        if not self.complete:
            if self.find_all is None:
                raise TypeError("this map is only looked up by key")
            for key, value in self.find_all():
                self.found.setdefault(key, value)  # a value found or changed earlier stays
            self.find, self.complete = (lambda key: _ABSENT), True
        merged = {**self.found, **self.written}
        return iter([key for key, value in merged.items() if value is not _ABSENT])

    def __len__(self):
        if self.count is None:
            self.count = sum(1 for _ in self)
        return self.count


class _Source:
    """The snapshot bytes a state `IndexState.decode` made, or a ledger
    `read_ledger` made, was read from, with their spans and tip height (None
    if not read), and what finds a `_Lazy` map's values in them. Each finder
    answers as the bytes do; once a key is written, its map answers from its
    overlay instead:
    - a UTXO, an inscription or a pending: `_seek` bisects its section for
      the record's head (see `splice`)
    - the inscriptions on an outpoint: a location is the only place
      `"satpoint":"<txid>:<vout>:` occurs in `inscriptions`, as every `"` in a
      string is escaped and `genesis_satpoint` has no `"` before `satpoint`.
      An outpoint's inscriptions change only when it is spent, which pops it
      from the map, or when it is created, and the bytes locate no
      inscription on an outpoint that is not yet created.
    - a recipient's plain outpoints: `_plain_records` over `utxos`, which
      `_Outpoints` corrects by what was added and removed since.
    - the unused pendings of a (tick, owner): the pendings whose elements
      end in that owner, tick and `"used":false` (see `unused`). A pending is
      written only when it is made, after its owner's unused pendings were
      looked up, or used, after they were looked up to drop it."""

    def __init__(self, data: bytes, spans: dict, tip_height: int | None = None):
        self.data, self.spans, self.tip_height = data, spans, tip_height
        self.text = data.decode("ascii")  # `read_sections` checked that it is
        self.whole: dict = {}  # section -> its records, once `records` decoded them
        self.found: dict = {}  # (section, key) -> its record as `record` found it, or None

    def record(self, section: str, key: str):
        """The decoded record of key in section, or None."""
        if section in self.whole:
            return self.whole[section].get(key)
        found = self.found.get((section, key), _ABSENT)
        if found is _ABSENT:
            start, end = self.spans[section]
            k = key.encode()
            head = _seek(self.data, start, end - 1, k, _HEADS[section])
            found = self.found[section, key] = (
                None if head is None or head.group(1) != k
                # a pending's head starts its element, a record's ends at its value
                else self.value_at(head.start() if section == "pendings" else head.end()))
        return found

    def records(self, section: str) -> dict:
        """Every record of section, decoded."""
        if section not in self.whole:
            self.whole[section] = self.value_at(self.spans[section][0])
        return self.whole[section]

    def value_at(self, pos: int):
        """The JSON value that starts at pos, decoded: a record or a section
        `read_sections` found without decoding it. Bytes that are not JSON
        there raise CorruptSnapshot, as `read_sections` does."""
        try:
            return _DECODER.raw_decode(self.text, pos)[0]
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
            raise errors.CorruptSnapshot(str(exc)) from exc

    # per map: the finder of one key's value, and the finder of every pair
    def utxo(self, op: OutPoint):
        obj = self.record("utxos", str(op))
        return _ABSENT if obj is None else _utxo_from_json(obj)

    def utxos(self):
        return ((OutPoint.parse(key), _utxo_from_json(obj))
                for key, obj in self.records("utxos").items())

    def inscription(self, ins_id: str):
        obj = self.record("inscriptions", ins_id)
        return _ABSENT if obj is None else _inscription_from_json(ins_id, obj)

    def inscriptions(self):
        return ((ins_id, _inscription_from_json(ins_id, obj))
                for ins_id, obj in self.records("inscriptions").items())

    def location(self, ins_id: str):
        obj = self.record("inscriptions", ins_id)
        return _ABSENT if obj is None or obj["satpoint"] is None else _satpoint(obj["satpoint"], {})

    def locations(self):
        return ((ins_id, _satpoint(obj["satpoint"], {}))
                for ins_id, obj in self.records("inscriptions").items() if obj["satpoint"])

    def ids_on(self, op: OutPoint):
        """The ids of the inscriptions located on op, in key order, or _ABSENT.
        The search is for `<txid>:<vout>:`, which is rare, and keeps the hits
        that follow `"satpoint":"`. A hit's record starts at the last
        `":{"body":"` before it: `body`, hex, is a record's first field, and
        `{"` occurs in no string, where every `"` is escaped."""
        data, (start, end) = self.data, self.spans["inscriptions"]
        needle = b"%s:" % str(op).encode()
        ids, pos = [], data.find(needle, start, end)
        while pos >= 0:
            if data.startswith(b'"satpoint":"', pos - 12):
                head = data.rfind(b'":{"body":"', start, pos)  # the end of the record's key
                ids.append(data[data.rfind(b'"', start, head) + 1:head].decode())
            pos = data.find(needle, pos + len(needle), end)
        return ids or _ABSENT

    def pending(self, ins_id: str):
        obj = self.record("pendings", ins_id)
        return _ABSENT if obj is None else brc20.pending_from_json(obj)

    def pendings(self):
        return ((obj["id"], brc20.pending_from_json(obj))
                for obj in self.value_at(self.spans["pendings"][0]))

    def unused(self, key: tuple[str, str], pendings: _Lazy):
        """The unused pendings of key, (tick, owner), by id, or _ABSENT. The
        search is for each element's tail, `,"owner":<owner>,"tick":<tick>,
        "used":false}` (its last fields in sorted order, as JSON), which
        occurs in no string, where every `"` is escaped; the id is the
        string before it. Each pending is taken from pendings, decoded from
        its element if pendings has not found it yet."""
        tick, owner = key
        data, (start, end) = self.data, self.spans["pendings"]
        tail = b',"owner":%s,"tick":%s,"used":false}' % (
            chain.canonical_dumps(owner).encode(), chain.canonical_dumps(tick).encode())
        found, pos = {}, data.find(tail, start, end)
        while pos >= 0:
            ins_id = data[data.rfind(b'"', start, pos - 1) + 1:pos - 1].decode()
            if ins_id not in pendings.found:
                element = data.rfind(b'{"amt":"', start, pos)
                pendings.found[ins_id] = brc20.pending_from_json(self.value_at(element))
            found[ins_id] = pendings[ins_id]
            pos = data.find(tail, pos + len(tail), end)
        return found or _ABSENT

    def ledger(self, obj: dict) -> brc20.Brc20Ledger:
        """The ledger of the `balances` and `ticks` `read_sections` decoded in
        obj: its `pendings` and `unused` are `_Lazy` maps over the bytes,
        which `unused` is only looked up in by key."""
        pendings = _Lazy(self.pending, self.pendings)
        return brc20.Brc20Ledger.from_tables(
            obj, pendings, _Lazy(lambda key: self.unused(key, pendings), None))

    def plain(self, recipient: str) -> set:
        """recipient's plain outpoints: the keys of the records `_plain_records`
        finds, each the string before the record's `:{`."""
        data, (start, end) = self.data, self.spans["utxos"]
        found = set()
        for m in _plain_records(recipient).finditer(data, start, end):
            close = m.start() - 2  # the quote that ends the record's key
            found.add(OutPoint.parse(data[data.rfind(b'"', start, close) + 1:close].decode()))
        return found


class _Outpoints(MutableSet):
    """A recipient's unspent plain outpoints in a state `IndexState.decode`
    made: those the bytes name (`_Source.plain`), with what was added and
    removed since in `changed` (outpoint -> whether it is in the set). A
    membership test reads the outpoint's record; only iteration searches
    `utxos`, so the commit step, which adds and removes, never does."""

    def __init__(self, source: _Source, recipient: str):
        self.source, self.recipient = source, recipient
        self.changed: dict[OutPoint, bool] = {}

    def __contains__(self, op):
        present = self.changed.get(op)
        if present is None:
            obj = self.source.record("utxos", str(op))
            txout = None if obj is None else chain.txout_from_json(obj)
            present = (txout is not None and txout.recipient == self.recipient
                       and txout.script_kind == "plain")
        return present

    def add(self, op):
        self.changed[op] = True

    def discard(self, op):
        self.changed[op] = False

    def __iter__(self):
        ops = self.source.plain(self.recipient)
        for op, present in self.changed.items():
            (ops.add if present else ops.discard)(op)
        return iter(ops)

    def __len__(self):
        return sum(1 for _ in self)


def _plain_records(recipient: str) -> re.Pattern:
    """What matches each plain UTXO record of recipient in `utxos` up to its
    script kind, as `_utxo_json` encodes it. Only a record's value starts
    with `{` there, and every `"` in a string is escaped, so it matches
    nothing else."""
    return re.compile(rb'\{"recipient":%s,"sat_ranges":[\[\],0-9]*,"script_kind":"plain"'
                      % re.escape(chain.canonical_dumps(recipient).encode()))


def read_ledger(data: bytes) -> brc20.Brc20Ledger:
    """The BRC-20 ledger in snapshot bytes ordlite wrote, for a read: decoded
    as `IndexState.decode` decodes it, with its pendings looked up by key."""
    spans: dict = {}
    obj = read_sections(data, LEDGER[-1], spans, skip=("pendings",))
    return _Source(data, spans).ledger(obj)


def _created_outputs(txs, created: dict):
    """(outpoint, ranges) of every output of txs, in order, made as walked."""
    for tx in txs:
        for k in range(len(tx.outputs)):
            outpoint = OutPoint(tx.txid, k)
            yield outpoint, created[outpoint].sat_ranges


class IndexState:
    """The snapshot: chain tip, UTXOs with sat ranges, inscriptions and the
    BRC-20 ledger, which blocks change, and `trade`'s offer book and BTC deltas.

    Two indexes are derived and never serialized: `by_outpoint` (outpoint ->
    inscriptions on it) and `plain_outpoints` (recipient -> its unspent plain
    outpoints). `apply_block` keeps `plain_outpoints` in the step that commits
    the UTXO delta and `from_json` builds it in the loop that loads the UTXO
    set; nothing else writes the UTXO set, so the index cannot drift from it.
    A state `decode` made holds its UTXO set, inscriptions, locations and
    both indexes, which it only looks up by key, and its ledger's pendings
    and their index of unused ones, as `_Lazy` maps over its snapshot bytes,
    which `apply_block` reads and writes as it does dicts."""

    def __init__(self):
        self.tip_height = -1
        self.utxos = chain.UtxoSet()
        # derived from `utxos`, never serialized: recipient -> its unspent plain outpoints
        self.plain_outpoints: defaultdict[str, set[OutPoint]] = defaultdict(set)
        self.inscriptions: dict[str, Inscription] = {}
        self.location: dict[str, SatPoint] = {}  # inscription id -> current satpoint
        # derived from `location`, never serialized: outpoint -> ids located on it
        self.by_outpoint: dict[OutPoint, list[str]] = {}
        self.ledger = brc20.Brc20Ledger()
        self.offers: dict[str, trade.Offer] = {}
        self.btc_deltas: dict[str, int] = {}  # trade settlement accounting
        self.diagnostics: list[str] = []
        # the bytes `decode` made this state from; None for a state built in memory
        self.source: _Source | None = None

    # --- block pipeline ---

    def apply_block(self, block: chain.Block) -> None:
        """Validate and commit the next block; the only code that commits one.
        A chain error raises before anything is changed."""
        chain.validate_block(block, self.tip_height + 1)
        created, burned = ordinals.assign_ordinals(block, self.utxos)

        # the commit: the UTXO set and its plain-outpoint index change together;
        # created first, as a tx may spend an output made in the block
        entries, plain = self.utxos.entries, self.plain_outpoints
        entries.update(created)
        for op, entry in created.items():
            txout = entry.txout
            if txout.script_kind == "plain":
                plain[txout.recipient].add(op)
        for tx in block.txs:
            for tin in tx.inputs:
                txout = entries.pop(tin.prevout).txout
                if txout.script_kind == "plain":
                    plain[txout.recipient].remove(tin.prevout)
        self.tip_height = block.height
        if burned:
            self.diagnostics.append(
                f"height {block.height}: {ordinals.range_total(burned)} sats burned "
                f"(coinbase underclaim)")

        # per tx, in order: settle moved inscriptions, then process reveals
        coinbase = block.txs[0]
        for tx in block.txs:
            if not tx.is_coinbase:
                self._track_moved_inscriptions(tx, coinbase, created)
            self._extract_reveals(tx, block.height, created)

        self.ledger.check_touched()

    def _place(self, ins_id: str, satpoint: SatPoint) -> None:
        self.location[ins_id] = satpoint
        self.by_outpoint.setdefault(satpoint.outpoint, []).append(ins_id)

    def _track_moved_inscriptions(self, tx: chain.Transaction,
                                  coinbase: chain.Transaction, created: dict) -> None:
        moved = [ins_id for tin in tx.inputs
                 for ins_id in self.by_outpoint.pop(tin.prevout, ())]
        for ins_id in sorted(moved, key=lambda i: self.inscriptions[i].number):
            new_point = ordinals.find_sat(self.inscriptions[ins_id].genesis_sat,
                                          _created_outputs((tx, coinbase), created))
            if new_point is None:
                del self.location[ins_id]
                self.diagnostics.append(f"inscription {ins_id} lost (sat burned)")
                self.ledger.cancel_pending(ins_id)
                continue
            self._place(ins_id, new_point)
            # from created: a later tx of the block may have spent the output
            receiver = created[new_point.outpoint].txout.recipient
            if self.ledger.settle(ins_id, receiver) and new_point.outpoint.txid != tx.txid:
                self.diagnostics.append(
                    f"pending {ins_id} spent to fee; settled to sat holder {receiver}")

    def _extract_reveals(self, tx: chain.Transaction, height: int,
                         created: dict) -> None:
        k = 0
        for tin in tx.inputs:
            try:
                env = envelope.parse_envelope(tin.witness)
            except errors.EnvelopeError as exc:
                self.diagnostics.append(
                    f"height {height} tx {tx.txid}: malformed envelope ({exc})")
                continue
            if env is None:
                continue
            ins_id = f"{tx.txid}i{k}"
            k += 1
            first_out = OutPoint(tx.txid, 0)
            first = created.get(first_out)
            if ins_id in self.inscriptions:  # the txid of a tx whose outputs are spent
                reason = "reuses the id of an earlier inscription"
            elif first is None or not first.sat_ranges:
                reason = "has no sat to bind to (no first output, or a zero-sat one)"
            else:
                reason = None
            if reason is not None:
                self.diagnostics.append(f"inscription {ins_id} {reason}; skipped")
                continue
            kind, op = classify_envelope(env)
            # no inscription is ever removed, so the count is the next number
            ins = Inscription(ins_id, len(self.inscriptions), env.content_type,
                              env.body, kind, first.sat_ranges[0][0], height)
            self.inscriptions[ins_id] = ins
            self._place(ins_id, SatPoint(first_out, 0))
            if op is not None:
                self.ledger.apply(op, ins_id, height, first.txout.recipient)

    def index_blocks(self, blocks) -> None:
        for block in blocks:
            self.apply_block(block)

    # --- queries ---

    def sat_report(self, n: int) -> dict:
        return sat_report(n, ((op, e.sat_ranges) for op, e in self.utxos.entries.items()))

    # --- canonical snapshot ---

    def to_json(self) -> dict:
        """The snapshot as plain data; its order is set by `canonical_dumps`,
        which sorts every dict's keys. It is read-only: each UTXO record
        holds its entry's own `sat_ranges` list."""
        location = self.location
        return {
            "tip_height": self.tip_height,
            "next_number": len(self.inscriptions),
            "utxos": {str(op): _utxo_json(e) for op, e in self.utxos.entries.items()},
            "inscriptions": {ins.id: _inscription_json(ins, location.get(ins.id))
                             for ins in self.inscriptions.values()},
            "brc20": self.ledger.to_json(),
            "offers": self.offers_json(),
            "btc_deltas": dict(self.btc_deltas),
        }

    def offers_json(self) -> dict:
        """The snapshot's `offers` section, for `to_json` and `spliced_bytes`."""
        return {oid: o.to_json() for oid, o in self.offers.items()}

    def snapshot_bytes(self) -> bytes:
        return chain.canonical_dumps(self.to_json()).encode()

    def spliced_bytes(self) -> bytes:
        """`snapshot_bytes()` of a state `decode` made, built by `splice`
        from the bytes it was decoded from: `offers` and `btc_deltas`
        are re-encoded; once a block was applied, so are the ledger's
        `ticks` and `balances`, `next_number`, `tip_height` and every
        pending, UTXO and inscription record written since, as the `written`
        overlays of `ledger.pendings`, `utxos.entries`, `inscriptions` and
        `location` name them; every other byte is copied."""
        source = self.source
        values = {"offers": self.offers_json(), "btc_deltas": dict(self.btc_deltas)}
        records = {}
        if self.tip_height != source.tip_height:
            values.update(self.ledger.tables_json(), next_number=len(self.inscriptions),
                          tip_height=self.tip_height)
            records["pendings"] = {ins_id: brc20.pending_json(p)
                                   for ins_id, p in self.ledger.pendings.written.items()}
            records["utxos"] = {str(op): None if e is _ABSENT else _utxo_json(e)
                                for op, e in self.utxos.entries.written.items()}
            location = self.location
            records["inscriptions"] = {
                ins_id: _inscription_json(self.inscriptions[ins_id], location.get(ins_id))
                for ins_id in self.inscriptions.written.keys() | location.written.keys()}
        return splice(source.data, source.spans, values, records)

    def snapshot_hash(self) -> str:
        return hashlib.sha256(self.snapshot_bytes()).hexdigest()

    def _read_whole(self, obj: dict, ledger: brc20.Brc20Ledger) -> None:
        """Take the sections every decode decodes whole from obj, and ledger."""
        self.tip_height = obj["tip_height"]
        self.ledger = ledger
        self.offers = {oid: trade.Offer.from_json(oid, o) for oid, o in obj["offers"].items()}
        self.btc_deltas = dict(obj["btc_deltas"])

    @classmethod
    def from_json(cls, obj: dict) -> "IndexState":
        state = cls()
        state._read_whole(obj, brc20.Brc20Ledger.from_json(obj["brc20"]))
        outpoints: dict[str, OutPoint] = {}  # a location shares its UTXO's key
        plain = state.plain_outpoints
        for key, e in obj["utxos"].items():
            op = outpoints[key] = OutPoint.parse(key)
            entry = state.utxos.entries[op] = _utxo_from_json(e)
            if entry.txout.script_kind == "plain":
                plain[entry.txout.recipient].add(op)
        for ins_id, i in obj["inscriptions"].items():
            state.inscriptions[ins_id] = _inscription_from_json(ins_id, i)
            if i["satpoint"]:
                state._place(ins_id, _satpoint(i["satpoint"], outpoints))
        return state

    @classmethod
    def decode(cls, data: bytes) -> "IndexState":
        """The state in snapshot bytes ordlite wrote, for a CLI write.
        `read_sections` decodes `btc_deltas`, `next_number`, `offers`,
        `tip_height` and the ledger's `balances` and `ticks`, and finds
        `inscriptions`, `utxos` and the ledger's `pendings` without decoding
        them. The UTXO set, the inscriptions, their locations, the pendings
        and the three derived indexes are `_Lazy` maps over the bytes (see
        `_Source`), so a write decodes only the records it reads, and
        `spliced_bytes` writes back only the ones it wrote."""
        spans: dict = {}
        obj = read_sections(data, SECTIONS[-1], spans,
                            skip=("inscriptions", "pendings", "utxos"))
        source = _Source(data, spans, obj["tip_height"])
        state = cls()
        state._read_whole(obj, source.ledger(obj))
        state.source = source
        state.utxos = chain.UtxoSet(_Lazy(source.utxo, source.utxos))
        # the derived indexes are only looked up by key (`trade.funding_outputs`)
        state.plain_outpoints = _Lazy(lambda recipient: _Outpoints(source, recipient), None)
        state.inscriptions = _Lazy(source.inscription, source.inscriptions, obj["next_number"])
        state.location = _Lazy(source.location, source.locations)
        state.by_outpoint = _Lazy(source.ids_on, None)
        return state

    @classmethod
    def from_untrusted(cls, data: bytes) -> "IndexState":
        """The state in snapshot bytes from outside the data dir, every section
        decoded whole and validated. Bytes of the wrong shape, which
        `from_json` or `validate` trip over, raise CorruptSnapshot too."""
        # Decoding allocates the whole state and frees none of it, so cyclic
        # collections during it find nothing; the objects they promote would
        # only bring the next full collection, over the caller's whole heap,
        # sooner. Pause the collector for the decode.
        enabled = gc.isenabled()
        gc.disable()
        try:
            state = cls.from_json(read_sections(data, SECTIONS[-1]))
            state.validate(data)
        except errors.CorruptSnapshot:
            raise
        except (ValueError, RecursionError, LookupError, TypeError, AttributeError,
                errors.OrdliteError) as exc:
            raise errors.CorruptSnapshot(f"{type(exc).__name__}: {exc}") from exc
        finally:
            if enabled:
                gc.enable()
        return state

    def validate(self, data: bytes) -> None:
        """Raise CorruptSnapshot unless this state, decoded from `data`, is one
        indexing could have produced: every UTXO's ranges are non-empty, total
        its value and share no sat with another's; the inscriptions are
        numbered 0..n-1 and every located one is on its genesis sat, in an
        unspent output, and its kind is the one its content type and body
        classify as, and its id is "<txid>i<k>"; their heights do not
        decrease with the number, nor pass the tip; the ledger's invariants hold
        in full, its index of unused pendings included; every pending, used or
        not, names a transfer inscription of its tick and amount
        (`check_pendings`), and every unused one a located inscription
        (`check_located`); every tick's deploy_id names a deploy inscription
        of its tick, max and lim, revealed at its height (`check_deploys`),
        and that inscription is the first deploy of its tick
        (`check_first_deploys`), and every deploy inscription's tick is
        deployed (`check_deployed`);
        every offer passes `trade.check_offer`; and `data` is this state's
        canonical bytes, so no stored value disagrees with what the state
        derives."""
        spans = []
        for op, entry in self.utxos.entries.items():
            for r in entry.sat_ranges:
                if len(r) != 2 or not all(type(x) is int for x in r) or r[0] >= r[1]:
                    raise errors.CorruptSnapshot(f"{op}: bad sat range {list(r)}")
                spans.append((*r, op))
            if ordinals.range_total(entry.sat_ranges) != entry.txout.value:
                raise errors.CorruptSnapshot(
                    f"{op}: sat ranges do not total its value {entry.txout.value}")
        spans.sort()
        for (_, end, op), (start, _, other) in zip(spans, spans[1:]):
            if start < end:
                raise errors.CorruptSnapshot(f"{op} and {other} share sat {start}")
        ordered = sorted(self.inscriptions.values(), key=lambda ins: ins.number)
        numbers = [ins.number for ins in ordered]
        if numbers != list(range(len(numbers))) or any(type(n) is not int for n in numbers):
            raise errors.CorruptSnapshot("inscription numbers are not 0..n-1")
        height = 0
        for ins in ordered:  # numbered in reveal order
            if type(ins.height) is not int or not height <= ins.height <= self.tip_height:
                raise errors.CorruptSnapshot(
                    f"inscription {ins.id} has height {ins.height!r}, not between an earlier "
                    f"one's ({height}) and the tip ({self.tip_height})")
            height = ins.height
        transfers, deploys = {}, {}  # inscription id -> its op (and height), by number
        for ins in ordered:
            if not _INSCRIPTION_ID.fullmatch(ins.id):  # `splice` finds records by key
                raise errors.CorruptSnapshot(f"inscription id {ins.id!r} is not <txid>i<k>")
            kind, op = classify_envelope(envelope.Envelope(ins.content_type, ins.body))
            if ins.kind != kind:
                raise errors.CorruptSnapshot(
                    f"inscription {ins.id} is labelled {ins.kind!r}, its content is {kind!r}")
            if kind == "brc20_transfer":
                transfers[ins.id] = op
            elif kind == "brc20_deploy":
                deploys[ins.id] = (op, ins.height)
        for ins_id, point in self.location.items():
            entry = self.utxos.get(point.outpoint)
            if entry is None:
                raise errors.CorruptSnapshot(
                    f"inscription {ins_id} is on {point.outpoint}, which is not unspent")
            genesis_sat = self.inscriptions[ins_id].genesis_sat
            if ordinals.find_sat(genesis_sat, ((point.outpoint, entry.sat_ranges),)) != point:
                raise errors.CorruptSnapshot(
                    f"inscription {ins_id} at {point} is not on its genesis sat")
        try:
            self.ledger.check_invariants()
        except errors.InvariantViolation as exc:
            raise errors.CorruptSnapshot(f"ledger: {exc}") from exc
        self.ledger.check_pendings(transfers)
        self.ledger.check_located(self.location)
        self.ledger.check_deploys(deploys)
        self.ledger.check_deployed(deploys)
        self.ledger.check_first_deploys(deploys)
        for oid, offer in self.offers.items():
            trade.check_offer(oid, offer)
        if self.snapshot_bytes() != data:
            raise errors.CorruptSnapshot("not in canonical form")

    def save(self, path) -> str:
        """Write the snapshot to path (see `write_snapshot`) and return its
        sha256 hex digest, which equals `snapshot_hash()`: the bytes are
        serialized once, for both."""
        data = self.snapshot_bytes()
        write_snapshot(path, data)
        return hashlib.sha256(data).hexdigest()
