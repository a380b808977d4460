"""The indexing pipeline and persistent snapshot.

For each block: check its structure; take its UTXO delta, `created`, from
`ordinals.assign_ordinals`, which checks its values, and commit it in one
step that keeps the outputs it spends, `spent`, and the UTXO set's derived
index of each recipient's unspent plain outpoints (`from_json` builds that
index when it loads a snapshot, and `trade.funding_outputs` reads it); then,
per tx, settle pending transfers whose inscribed sat moved, extract
inscriptions and hand their BRC-20 operations to the ledger
(`Brc20Ledger.apply`), which alone changes BRC-20 state.
Protocol-level failures are recorded as diagnostics and never abort indexing;
a chain-level failure raises ChainError or RangeValueMismatch before any commit.
Each block ends with the ledger's `check_touched`, which checks the BRC-20
invariants of only the ticks and holders the block changed, so its cost grows
with the holders of those ticks, not with the transfers ever inscribed; the
full `check_invariants` runs in `validate`, when a snapshot is loaded.

Inscriptions are tracked per transaction, in block order, through an
outpoint -> inscriptions index, as ord's InscriptionUpdater does: a tx moves
exactly the inscriptions on the outpoints it spends, each found by its
offset, as FIFO keeps the order of sats. Its sat is at the values of the
inputs before its own (from `spent`) plus its location's offset among the
tx's input sats, so in the output whose running value first passes that;
past the outputs it went to fee, at the start of the tx's fee among the
coinbase's sats (`fee_at`) plus its offset into the fee; past the coinbase's
outputs too it was burned, and the inscription is lost. No range is read.
Every moved inscription goes to the ledger's `settle` with the recipient of
the output found; only an unused pending transfer settles, so a transfer
inscription that moves twice in one block credits its first receiver, even
when a later tx in the block spends it as fee.

The snapshot is canonical JSON: `chain.canonical_dumps` sorts every key, so
its top-level sections always come in SECTIONS order, and the ledger's
fields in LEDGER order. `Snapshot` is its one reader, for the data dir's
bytes and a file's alike: it decodes the bytes to text once, finds every
section and ledger field going forward by one table of heads (HEADS), which
checks the layout and nothing more, and decodes a section (`value`) or a
record only when asked: a record is found by what opens it
(`_RECORD_OPENS`), for its key (`_seek`) or for bytes it holds
(`records_with`; `outputs_holding` for the UTXO records that can hold a
sat, which is sound as every range lies inside one block's subsidy, a rule
`validate` checks), and each is found once: the reader keeps where it lies
with its value, and for a key the bytes do not hold the place its record
would go (`locate`). Bytes from outside the data dir enter only through
`IndexState.from_untrusted`, which decodes every section whole and then
validates the state; the data dir then holds only bytes ordlite wrote.
`next_number`, each `genesis_satpoint` and each offer's `inscription_id` are
written from the state, which does not keep them.

`IndexState.to_json` builds every section and `snapshot_bytes` encodes them
all; that full encoding is the spec. A CLI write need not decode or
re-encode what it does not touch. `decode(data)` decodes `btc_deltas`,
`next_number`, `offers`, `tip_height` and the ledger's `balances` and
`ticks` whole, and keeps the UTXO set, the inscriptions, their locations,
the ledger's pendings and the three derived indexes (plain outpoints,
inscriptions by outpoint, unused pendings by tick and owner) as `_Lazy`
maps over the bytes, which are only looked up by key: each finds a key's
value there on its first lookup (`Snapshot`: a keyed record by `_seek`, a
derived lookup by `records_with`) and keeps every write in an overlay, its
change log, and none can be iterated. The `brc20` read commands decode the
ledger the same way (`Snapshot.ledger`). An `IndexState()`, as the
in-memory index job and the scenario compiler make, holds dicts (its UTXO
set a `chain.UtxoSet`, a dict), and `apply_block` runs the same mapping
operations on either.
`spliced_bytes` hands the reader and the overlays' records to `splice`,
which writes each record where the reader found it: it re-encodes a written
record in its old one's place, puts a new one at the place found for its
key, deletes a spent one, and copies every byte of a record no write
changed, so it seeks only a key the write never read (a new pending).
`offers` and `btc_deltas` are re-encoded on every write, and the ledger's
`balances` and `ticks`, `next_number` and `tip_height` once a block was
applied. Each record and section has one builder, `_utxo_json`,
`_inscription_json`, `brc20.pending_json`, `offers_json` and the ledger's
`tables_json`, which `to_json` uses too, so both paths write the same
bytes; `_utxo_from_json`, `_inscription_from_json` and
`brc20.pending_from_json` read a record back on both paths. Only the
commands that print the snapshot's hash, `index`, `snapshot save` and
`snapshot load`, compute it.
"""

from __future__ import annotations

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

# The snapshot's top-level keys, in the order `canonical_dumps` writes them,
# and the fields of the first, the ledger
SECTIONS = ("brc20", "btc_deltas", "inscriptions", "next_number", "offers",
            "tip_height", "utxos")
LEDGER = ("balances", "pendings", "ticks")
# The head of each ledger field and later section, in the order canonical
# bytes hold them. The first starts the snapshot; each other is the first
# match after the one before it, as it cannot occur in the value before it,
# for the reason its comment gives, and no head occurs in a string, where
# every `"` is escaped. A head starts with the bracket that closes the value
# before it, when that is an object or a list (`}}` closes `brc20` too), and
# ends with the bracket that opens its own; one that ends in `:` heads an
# integer.
HEADS = {
    "balances": '{"brc20":{"balances":{',
    "pendings": '},"pendings":[',  # a balance is a string
    "ticks": '],"ticks":{',  # a pending's keys are its field names
    "btc_deltas": '}},"btc_deltas":{',  # a key in ticks is a 4-byte tick or a field name
    "inscriptions": '},"inscriptions":{',  # a BTC delta is an integer
    "next_number": '},"next_number":',  # a key in inscriptions is an id or a field name
    "offers": ',"offers":{',  # next_number is an integer
    "tip_height": '},"tip_height":',  # in offers a name keys only a signature, a string
    "utxos": ',"utxos":{',  # tip_height is an integer
}
_INTEGER = re.compile(r"-?[0-9]+")
_DECODER = json.JSONDecoder()


# section -> what opens each of its records: a brace, then its first field's
# name (a record's fields are in sorted order). No string holds one, as every
# `"` in a string is escaped and a string's closing quote is followed only by
# `,`, `:`, `}` or `]`, and records are flat, so each one in a section opens
# one of its records, in key order. `_head` reads the key of the record it
# opens: in `utxos` and `inscriptions` the string before it, as no key (an
# outpoint or an inscription id) holds a quote; in `pendings`, a list sorted
# by id, the `id`, its element's second field, after `amt`, a string of
# digits and a point.
_RECORD_OPENS = {"inscriptions": b'{"body":', "pendings": b'{"amt":', "utxos": b'{"recipient":'}
# An inscription id, as `_extract_reveals` makes it: "<txid>i<k>"
_INSCRIPTION_ID = re.compile(r"[0-9a-f]{64}i[0-9]+")


def splice(source: Snapshot, values: dict, records: dict) -> bytes:
    """The bytes `source` read, with the value of each section (and ledger
    field) in `values` replaced by its canonical encoding, and in each one
    in `records` (section -> {key: value, or None for no record}) each
    named record re-encoded, put at its key's sorted place or deleted;
    every other byte is copied as it is. A None for a key the bytes do not
    hold changes nothing. The result is the canonical encoding of the
    snapshot so changed, as a value's encoding is the same inside the whole
    snapshot and on its own.

    Only `utxos`, `inscriptions` and the ledger's `pendings` list take
    records, each written where the reader found it: its old record's
    bytes, or, for a key the bytes do not hold, the place its record goes
    (`Snapshot.locate`), so no key is sought twice. Records are in
    `canonical_dumps` order, Python string order (`pendings` is sorted by
    id), so `<txid>:10` comes before `<txid>:2`."""
    pieces, pos = [], 0
    view, spans = memoryview(source.data), source.spans
    changed = [key for key in (*values, *records) if key in values or records[key]]
    for key in sorted(changed, key=lambda key: spans[key][0]):
        start, end = spans[key]
        pieces.append(view[pos:start])
        if key in values:
            pieces.append(chain.canonical_dumps(values[key]).encode())
        else:
            pieces += _splice_records(source, key, records[key])
        pos = end
    pieces.append(view[pos:])
    return b"".join(pieces)


def _splice_records(source: Snapshot, section: str, records: dict) -> list:
    """The pieces that, joined, encode section, an object or list of the
    bytes `source` read, with records spliced in (see `splice`): each run of
    old records between two named keys' places is a piece of the bytes,
    joined once, by `splice`. A list's element holds its key, an object's
    record follows it."""
    start, end = source.spans[section]
    close = end - 1  # the closing brace or bracket
    view, runs = memoryview(source.data), []
    cursor = start  # the separator before the first record not yet copied, or close
    for key in sorted(records):
        at, stop, old = source.locate(section, key)
        sep = at - 1 if at < close else close  # the separator before its place
        if sep - cursor > 1:
            runs.append(view[cursor + 1:sep])
        cursor = sep if old is None else stop  # past the old record, if there is one
        if records[key] is not None:
            value = chain.canonical_dumps(records[key]).encode()
            runs.append(value if section == "pendings" else b'"%s":%s' % (key.encode(), value))
    if close - cursor > 1:
        runs.append(view[cursor + 1:close])
    separated = [piece for run in runs for piece in (b",", run)][1:]  # none before the first
    return [view[start:start + 1], *separated, view[close:end]]


def _head(data: bytes, lo: int, at: int, section: str) -> tuple:
    """The start and key of the record of section that opens at `at`, which
    starts at or after lo (see `_RECORD_OPENS`): an object's record starts
    at the quote that opens its key, a list's at its opener."""
    if section == "pendings":  # `{"amt":"<amt>","id":"<key>"`
        key = data.index(b'"', at + len(b'{"amt":"')) + len(b'","id":"')
        return at, data[key:data.index(b'"', key)]
    quote = data.rfind(b'"', lo, at - 2)  # `"<key>":` precedes the opener
    return quote, data[quote + 1:at - 2]


def _seek(data: bytes, lo: int, hi: int, key: bytes, section: str) -> tuple:
    """The (start, key) `_head` gives of the first record of section in
    data[lo:hi] whose key is not below key, or (hi, None) if none is. Every
    record that opens before lo is below key. A probe reads the first record
    that opens after a midpoint."""
    opener, found, bound = _RECORD_OPENS[section], (hi, None), hi  # no record opens in [hi, bound)
    while lo < hi:
        mid = (lo + hi) // 2
        at = data.find(opener, mid, bound)
        if at < 0:
            hi = mid
            continue
        head = _head(data, lo, at, section)
        if head[1] < key:
            lo = at + len(opener)
        else:
            found, bound, hi = head, at, mid
    return found


def _range_texts(n: int):
    """The pattern of the range texts `[a,b]` whose a can start a range that
    holds sat n. Every range lies inside the subsidy of one block: indexing
    cuts ranges and never joins them (`assign_ordinals`), and `validate`
    refuses a snapshot that holds another. So a is between the first sat of
    n's block and n, and canonical JSON writes an integer without leading
    zeros: when the two have as many digits, a has that many and starts
    with the digits they share; otherwise, which happens only in block 0, a
    has as many digits as either, or a count between."""
    digits = str(n)
    first = str(ordinals.start_sat_of_block(ordinals.sat_to_decimal(n)[0]))
    if len(first) == len(digits):
        shared = os.path.commonprefix((first, digits))
        start = "%s[0-9]{%d}" % (shared, len(digits) - len(shared))
    else:
        start = "[0-9]{%d,%d}" % (len(first), len(digits))
    return re.compile(rb"\[(%s),([0-9]+)\]" % start.encode())


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


def _satpoint(text: str) -> SatPoint:
    """The SatPoint "<txid>:<vout>:<offset>" names."""
    key, _, offset = text.rpartition(":")
    return SatPoint(OutPoint.parse(key), int(offset))


_ABSENT = object()  # what a `_Lazy` map holds for a key it has no value of


class _Lazy(MutableMapping):
    """A map backed by snapshot bytes, for a state `IndexState.decode` made,
    that is only looked up by key. A key is looked up in the bytes, by
    `find(key)`, the first time it is asked for, and what was found is kept
    in `found`; `find` gives _ABSENT for a key the bytes hold no value of.
    Every write, a delete included (as _ABSENT), goes to `written`, which is
    so the change log of the map. Iterating it raises TypeError, and so
    does its length unless `count`, the number of keys, is given."""

    def __init__(self, find, count=None):
        self.find, self.count = find, count
        self.found: dict = {}
        self.written: dict = {}

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
        raise TypeError("this map is only looked up by key")

    def __len__(self):
        if self.count is None:
            raise TypeError("this map's size is not known")
        return self.count


def _json(value) -> bytes:
    """value's canonical JSON, as the snapshot encodes it."""
    return chain.canonical_dumps(value).encode()


class Snapshot:
    """Snapshot bytes ordlite wrote, read in place: the one reader of the
    data dir's snapshot, and of a file `snapshot load` takes in.

    The bytes are decoded to ASCII text once; canonical bytes are ASCII, as
    `canonical_dumps` escapes everything else, and other bytes are refused,
    so an offset in the text is the same offset in the bytes. `spans` holds
    each ledger field's and later section's (start, end) offsets, the slice
    its value is encoded in, found going forward by HEADS. A layout that is
    not that of canonical bytes raises CorruptSnapshot: a head missing, an
    integer section that does not fill its span, or bytes after `utxos`.
    The values are otherwise trusted until `value` decodes them.

    It is also what finds a `_Lazy` map's values in the bytes, for a state
    `IndexState.decode` made or a ledger `ledger` made, one key at a time:
    no finder decodes a whole section. Each answers as the bytes do; once a
    key is written, its map answers from its overlay instead:
    - a UTXO, an inscription or a pending: `_seek` bisects its section for
      the record's key, read where a record opens (`_head`), unless
      `records_with` decoded it
    - the inscriptions on an outpoint: a location is the only place
      `"satpoint":"<txid>:<vout>:` occurs in `inscriptions`, which is
      searched only for an outpoint whose UTXO record the bytes hold. An
      outpoint's inscriptions change only when it is spent, which pops it
      from the map, or when it is created, and the bytes locate no
      inscription on an outpoint that is not yet created.
    - a recipient's plain outpoints: its records in `utxos`, which start
      `{"recipient":<recipient>,`; `_Outpoints` corrects them by what was
      added and removed since.
    - the unused pendings of a (tick, owner): the elements of `pendings`
      that end `,"owner":<owner>,"tick":<tick>,"used":false}`. A pending is
      written only when it is made, after its owner's unused pendings were
      looked up, or used, after they were looked up to drop it.

    Two reads find records the same way, by bytes they hold: `inscriptions
    --height` (`inscriptions_at`) and `sat` (`outputs_holding`). Every record
    is decoded, and kept with where it lies, by `record_at`, and `splice`
    writes a record where `locate` says it lies."""

    def __init__(self, data: bytes):
        self.data = data
        try:
            self.text = text = data.decode("ascii")
        except ValueError as exc:
            raise errors.CorruptSnapshot(str(exc)) from exc
        if not text.startswith(HEADS["balances"]):
            raise errors.CorruptSnapshot("expected '{\"%s\":' at offset 0" % SECTIONS[0])
        self.spans: dict = {}
        name, pos = None, 0
        for following, head in HEADS.items():
            at = text.find(head, pos)
            if at < 0:
                raise errors.CorruptSnapshot(f"no {head!r} after offset {pos}")
            if name:
                self.spans[name] = (pos, at + (head[0] in "]}"))
            name, pos = following, at + len(head) - (head[-1] != ":")
        if not text.endswith("}}"):
            raise errors.CorruptSnapshot(f"expected the closing braces at offset {len(text) - 2}")
        self.spans[name] = (pos, len(text) - 1)
        for name, head in HEADS.items():
            if head[-1] == ":" and not _INTEGER.fullmatch(text, *self.spans[name]):
                raise errors.CorruptSnapshot(f"{name} at offset {self.spans[name][0]} "
                                             f"is not an integer")
        self.values: dict = {}  # section or field -> its value, once `value` decoded it
        # (section, key) -> where its record lies and its value, once met (see `locate`)
        self.found: dict = {}

    def value(self, name: str):
        """The decoded value of a section or ledger field; `brc20`'s is its
        fields'. A value that does not fill its span raises CorruptSnapshot."""
        if name == SECTIONS[0]:
            return {field: self.value(field) for field in LEDGER}
        if name not in self.values:
            start, end = self.spans[name]
            value, stop = self.value_at(start)
            if stop != end:
                raise errors.CorruptSnapshot(f"{name} does not end at offset {stop}")
            self.values[name] = value
        return self.values[name]

    __getitem__ = value  # so `from_json` and `from_tables` read it as the snapshot's dict

    def value_at(self, pos: int) -> tuple:
        """The JSON value that starts at pos, decoded, and the offset after
        it. Bytes that are not JSON there raise CorruptSnapshot."""
        try:
            return _DECODER.raw_decode(self.text, pos)
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deep
            raise errors.CorruptSnapshot(str(exc)) from exc

    def record(self, section: str, key: str):
        """The decoded record of key in section, or None."""
        return self.locate(section, key)[2]

    def locate(self, section: str, key: str) -> tuple:
        """The `found` entry of key in section: the (start, end, decoded
        value) of its record, or, if the bytes hold none, (place, place,
        None), place the start of the first record whose key is above key,
        or the section's closing bracket. A key is sought (`_seek`) only if
        no lookup met it before."""
        found = self.found.get((section, key))
        if found is None:
            start, end = self.spans[section]
            at, k = _seek(self.data, start, end - 1, key.encode(), section)
            if k == key.encode():
                # its opener is the first at or after its start
                self.record_at(section, self.data.find(_RECORD_OPENS[section], at))
                return self.found[section, key]
            found = self.found[section, key] = (at, at, None)
        return found

    def records_with(self, section: str, needle: bytes) -> dict:
        """The records of section whose bytes hold needle, by key, decoded and
        kept for `record`: each hit's record is the one `record_at` finds."""
        data, (lo, hi) = self.data, self.spans[section]
        found, pos = {}, data.find(needle, lo, hi)
        while pos >= 0:
            key, found[key] = self.record_at(section, pos)
            pos = data.find(needle, pos + len(needle), hi)
        return found

    def record_at(self, section: str, pos: int) -> tuple:
        """The key and decoded value of the record of section whose value
        holds offset pos, decoded once and kept, with where it lies, for
        `locate`: the record that opens at the last `_RECORD_OPENS` of its
        section that starts at or before pos, as records are flat, with its
        start and key from `_head` and its end where its value ends."""
        data, lo = self.data, self.spans[section][0]
        opener = _RECORD_OPENS[section]
        at = data.rfind(opener, lo, pos + len(opener))
        start, key = _head(data, lo, at, section)
        key = key.decode()
        found = self.found.get((section, key))
        if found is None:
            value, end = self.value_at(at)
            found = self.found[section, key] = (start, end, value)
        return key, found[2]

    def inscriptions_at(self, height: int) -> dict:
        """The inscription records revealed at height, by id, decoded: those
        that hold its `height` field, with the quotes of the fields around it,
        which no string holds."""
        return self.records_with("inscriptions", b',"height":%d,"kind":' % height)

    def outputs_holding(self, n: int) -> list:
        """The (key, sat_ranges) pairs of the UTXO records whose bytes hold a
        range text `[a,b]` with a <= n < b, in key order, each decoded once:
        the record that holds sat n, if one does, and any whose recipient
        holds such a text, which `ordinals.find_sat` passes over. One
        pattern finds the texts whose a can start a range holding n
        (`_range_texts`)."""
        lo, hi = self.spans["utxos"]
        found = {}
        for text in _range_texts(n).finditer(self.data, lo, hi):
            if int(text[1]) <= n < int(text[2]):
                key, obj = self.record_at("utxos", text.start())
                found[key] = obj["sat_ranges"]
        return list(found.items())

    # per map: the finder of one key's value
    def utxo(self, op: OutPoint):
        obj = self.record("utxos", str(op))
        return _ABSENT if obj is None else _utxo_from_json(obj)

    def inscription(self, ins_id: str):
        obj = self.record("inscriptions", ins_id)
        return _ABSENT if obj is None else _inscription_from_json(ins_id, obj)

    def location(self, ins_id: str):
        obj = self.record("inscriptions", ins_id)
        return _ABSENT if obj is None or obj["satpoint"] is None else _satpoint(obj["satpoint"])

    def ids_on(self, op: OutPoint):
        """The ids of the inscriptions located on op, in key order, or _ABSENT.
        The bytes locate an inscription only on a UTXO they hold, as
        `validate` refuses any other, so `inscriptions` is searched only for
        an op whose record they hold: never for an output the write created,
        as `assign_ordinals` creates none that is still unspent (BIP30)."""
        if self.record("utxos", str(op)) is None:
            return _ABSENT
        ids = self.records_with("inscriptions", b'"satpoint":"%s:' % str(op).encode())
        return list(ids) or _ABSENT

    def pending(self, ins_id: str):
        obj = self.record("pendings", ins_id)
        return _ABSENT if obj is None else brc20.pending_from_json(obj)

    def unused(self, key: tuple[str, str], pendings: _Lazy):
        """The unused pendings of key, (tick, owner), by id, taken from
        pendings, or _ABSENT."""
        tick, owner = key
        needle = b',"owner":%s,"tick":%s,"used":false}' % (_json(owner), _json(tick))
        found = {ins_id: pendings[ins_id] for ins_id in self.records_with("pendings", needle)}
        return found or _ABSENT

    def ledger(self) -> brc20.Brc20Ledger:
        """The ledger of the bytes: its `balances` and `ticks` decoded, its
        `pendings` and `unused` `_Lazy` maps over the bytes."""
        pendings = _Lazy(self.pending)
        return brc20.Brc20Ledger.from_tables(
            self, pendings, _Lazy(lambda key: self.unused(key, pendings)))

    def plain(self, recipient: str) -> set:
        """recipient's plain outpoints."""
        records = self.records_with("utxos", b'{"recipient":%s,' % _json(recipient))
        return {OutPoint.parse(key) for key, obj in records.items()
                if chain.txout_from_json(obj).script_kind == "plain"}


class _Outpoints(MutableSet):
    """A recipient's unspent plain outpoints in a state `IndexState.decode`
    made: those the bytes name (`Snapshot.plain`), with what was added and
    removed since in `changed` (outpoint -> whether it is in the set). A
    membership test reads the outpoint's record; only iteration searches
    `utxos`, so the commit step, which adds and removes, never does."""

    def __init__(self, source: Snapshot, recipient: str):
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


def _output_at(tx: chain.Transaction, pos: int) -> SatPoint | None:
    """Where sat pos of tx's outputs, in order, lies; None past them."""
    for k, txout in enumerate(tx.outputs):
        if pos < txout.value:
            return SatPoint(OutPoint._make((tx.txid, k)), pos)
        pos -= txout.value
    return None


class IndexState:
    """The snapshot: chain tip, UTXOs with sat ranges, inscriptions and the
    BRC-20 ledger, which blocks change, and `trade`'s offer book and BTC deltas.

    Two indexes are derived and never serialized: `by_outpoint` (outpoint ->
    inscriptions on it) and `plain_outpoints` (recipient -> its unspent plain
    outpoints). `apply_block` keeps `plain_outpoints` in the step that commits
    the UTXO delta and `from_json` builds it in the loop that loads the UTXO
    set; nothing else writes the UTXO set, so the index cannot drift from it.
    A state `decode` made holds its UTXO set, inscriptions, locations, both
    indexes, its ledger's pendings and their index of unused ones as `_Lazy`
    maps over its snapshot bytes, which are only looked up by key;
    `apply_block` reads and writes them with the mapping operations it uses
    on dicts."""

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
        self.source: Snapshot | None = None

    # --- block pipeline ---

    def apply_block(self, block: chain.Block) -> None:
        """Validate and commit the next block; the only code that commits one.
        A chain error raises before anything is changed."""
        chain.validate_block(block, self.tip_height + 1)
        created, burned, fee_at = ordinals.assign_ordinals(block, self.utxos)

        # the commit: the UTXO set and its plain-outpoint index change together;
        # created first, as a tx may spend an output made in the block
        utxos, plain = self.utxos, self.plain_outpoints
        utxos.update(created)
        for op, entry in created.items():
            txout = entry.txout
            if txout.script_kind == "plain":
                plain[txout.recipient].add(op)
        spent = {}  # outpoint -> the output it held, for tracking
        for tx in block.txs:
            for tin in tx.inputs:
                txout = spent[tin.prevout] = utxos.pop(tin.prevout).txout
                if txout.script_kind == "plain":
                    plain[txout.recipient].remove(tin.prevout)
        self.tip_height = block.height
        if burned:
            self.diagnostics.append(
                f"height {block.height}: {ordinals.prefix_sums(burned)[-1]} sats burned "
                f"(coinbase underclaim)")

        # per tx, in order: settle moved inscriptions, then process reveals
        # (a coinbase has no inputs: it moves and reveals nothing)
        for k in range(1, len(block.txs)):
            tx = block.txs[k]
            self._track_moved_inscriptions(tx, spent, block.txs[0], fee_at[k - 1], created)
            self._extract_reveals(tx, block.height, created)

        self.ledger.check_touched()

    def _place(self, ins_id: str, satpoint: SatPoint) -> None:
        self.location[ins_id] = satpoint
        self.by_outpoint.setdefault(satpoint.outpoint, []).append(ins_id)

    def _track_moved_inscriptions(self, tx: chain.Transaction, spent: dict,
                                  coinbase: chain.Transaction, fee_start: int,
                                  created: dict) -> None:
        """Move the inscriptions on tx's inputs by offset (see the module
        docstring); tx's fee starts at fee_start among the coinbase's sats."""
        moved, base = [], 0  # base: where the input's first sat lies among the tx's
        for tin in tx.inputs:
            for ins_id in self.by_outpoint.pop(tin.prevout, ()):
                moved.append((self.inscriptions[ins_id].number, ins_id,
                              base + self.location[ins_id].offset))
            base += spent[tin.prevout].value
        for _, ins_id, pos in sorted(moved):
            point = (_output_at(tx, pos)  # or spent as fee, on into the coinbase's pool
                     or _output_at(coinbase, fee_start + pos - tx.output_total()))
            if point is None:
                del self.location[ins_id]
                self.diagnostics.append(f"inscription {ins_id} lost (sat burned)")
                self.ledger.cancel_pending(ins_id)
                continue
            self._place(ins_id, point)
            # from created: a later tx of the block may have spent the output
            receiver = created[point.outpoint].txout.recipient
            if self.ledger.settle(ins_id, receiver) and point.outpoint.txid != tx.txid:
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
            first_out = OutPoint._make((tx.txid, 0))
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
        return sat_report(n, ((op, e.sat_ranges) for op, e in self.utxos.items()))

    # --- canonical snapshot ---

    def to_json(self) -> dict:
        """The snapshot as plain data; its order is set by `canonical_dumps`,
        which sorts every dict's keys. It is read-only: each UTXO record
        holds its entry's own `sat_ranges` list."""
        location = self.location
        return {
            "tip_height": self.tip_height,
            "next_number": len(self.inscriptions),
            "utxos": {str(op): _utxo_json(e) for op, e in self.utxos.items()},
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
        overlays of `ledger.pendings`, `utxos`, `inscriptions` and
        `location` name them; every other byte is copied."""
        source = self.source
        values = {"offers": self.offers_json(), "btc_deltas": dict(self.btc_deltas)}
        records = {}
        if self.tip_height != source.value("tip_height"):
            values.update(self.ledger.tables_json(), next_number=len(self.inscriptions),
                          tip_height=self.tip_height)
            records["pendings"] = {ins_id: brc20.pending_json(p)
                                   for ins_id, p in self.ledger.pendings.written.items()}
            records["utxos"] = {str(op): None if e is _ABSENT else _utxo_json(e)
                                for op, e in self.utxos.written.items()}
            location = self.location
            records["inscriptions"] = {
                ins_id: _inscription_json(self.inscriptions[ins_id], location.get(ins_id))
                for ins_id in self.inscriptions.written.keys() | location.written.keys()}
        return splice(source, values, records)

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
        plain = state.plain_outpoints
        for key, e in obj["utxos"].items():
            op = OutPoint.parse(key)
            entry = state.utxos[op] = _utxo_from_json(e)
            if entry.txout.script_kind == "plain":
                plain[entry.txout.recipient].add(op)
        for ins_id, i in obj["inscriptions"].items():
            state.inscriptions[ins_id] = _inscription_from_json(ins_id, i)
            if i["satpoint"]:
                state._place(ins_id, _satpoint(i["satpoint"]))
        return state

    @classmethod
    def decode(cls, data: bytes) -> "IndexState":
        """The state in snapshot bytes ordlite wrote, for a CLI write: its
        `btc_deltas`, `next_number`, `offers`, `tip_height` and the ledger's
        `balances` and `ticks` decoded, and its UTXO set, inscriptions,
        locations, the ledger's pendings and the three derived indexes
        `_Lazy` maps over the bytes (see `Snapshot`), so a write decodes only
        the records it reads, and `spliced_bytes` writes back only the ones
        it wrote."""
        source = Snapshot(data)
        state = cls()
        state._read_whole(source, source.ledger())
        state.source = source
        state.utxos = _Lazy(source.utxo)
        state.plain_outpoints = _Lazy(lambda recipient: _Outpoints(source, recipient))
        state.inscriptions = _Lazy(source.inscription, source.value("next_number"))
        state.location = _Lazy(source.location)
        state.by_outpoint = _Lazy(source.ids_on)
        return state

    @classmethod
    def from_untrusted(cls, data: bytes) -> "IndexState":
        """The state in snapshot bytes from outside the data dir, every section
        decoded whole and validated. Bytes of the wrong shape, which
        `from_json` or `validate` trip over, raise CorruptSnapshot too."""
        try:
            state = cls.from_json(Snapshot(data))
            state.validate(data)
        except errors.CorruptSnapshot:
            raise
        except (ValueError, RecursionError, LookupError, TypeError, AttributeError,
                errors.OrdliteError) as exc:
            raise errors.CorruptSnapshot(f"{type(exc).__name__}: {exc}") from exc
        return state

    def validate(self, data: bytes) -> None:
        """Raise CorruptSnapshot unless this state, decoded from `data`, is one
        indexing could have produced: every UTXO's ranges are non-empty, each
        inside the subsidy of one block at or below the tip (`Snapshot`'s
        `outputs_holding` relies on it), total its value and share no sat
        with another's; the inscriptions are
        numbered 0..n-1 and every located one is on its genesis sat, in an
        unspent output, and its kind is the one its content type and body
        classify as, and its id is "<txid>i<k>"; their heights do not
        decrease with the number, nor pass the tip; the ledger's invariants hold
        in full, its index of unused pendings included; every pending, used or
        not, names a transfer inscription of its tick and amount
        (`check_pendings`), and every unused one a located inscription
        (`check_located`); the tick table is the one the deploy and mint
        inscriptions make, applied in number order through
        `Brc20Ledger.apply`, so each tick's max, lim, minted, deploy id and
        height are what indexing would have given it, each height an `int`;
        every offer passes `trade.check_offer`; and `data` is this state's
        canonical bytes, so no stored value disagrees with what the state
        derives."""
        spans = []
        for op, entry in self.utxos.items():
            for r in entry.sat_ranges:
                if len(r) != 2 or not all(type(x) is int for x in r) or not 0 <= r[0] < r[1]:
                    raise errors.CorruptSnapshot(f"{op}: bad sat range {list(r)}")
                height, offset = ordinals.sat_to_decimal(r[0])
                if height > self.tip_height:
                    raise errors.CorruptSnapshot(
                        f"{op}: sat range {list(r)} is of block {height}, above the tip")
                if r[1] - r[0] > chain.block_subsidy(height) - offset:
                    raise errors.CorruptSnapshot(
                        f"{op}: sat range {list(r)} is not inside block {height}'s subsidy")
                spans.append((*r, op))
            if ordinals.prefix_sums(entry.sat_ranges)[-1] != entry.txout.value:
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
        transfers = {}  # inscription id -> its op
        # Numbers follow reveal order, and a tick's fields change only in
        # `apply_deploy` and `apply_mint`, neither of which depends on where
        # sats move, so replaying the deploys and mints in number order makes
        # the tick table indexing made. The actor only moves the replay's
        # balances, which are not compared.
        replayed = brc20.Brc20Ledger()
        for ins in ordered:
            # `_head` reads a key as the string before its record: no quote in it
            if not _INSCRIPTION_ID.fullmatch(ins.id):
                raise errors.CorruptSnapshot(f"inscription id {ins.id!r} is not <txid>i<k>")
            kind, op = classify_envelope(envelope.Envelope(ins.content_type, ins.body))
            if ins.kind != kind:
                raise errors.CorruptSnapshot(
                    f"inscription {ins.id} is labelled {ins.kind!r}, its content is {kind!r}")
            if kind == "brc20_transfer":
                transfers[ins.id] = op
            elif op is not None:  # a deploy or a mint
                replayed.apply(op, ins.id, ins.height, "")
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
        ticks, made = self.ledger.ticks, replayed.ticks
        for tick, state in ticks.items():  # true and 1.0 both equal the replay's 1
            if type(state.deploy_height) is not int:
                raise errors.CorruptSnapshot(
                    f"tick {tick} has height {state.deploy_height!r}, not an integer")
        if ticks != made:
            tick = min(t for t in ticks.keys() | made.keys() if ticks.get(t) != made.get(t))
            raise errors.CorruptSnapshot(
                f"tick {tick} is not what its deploy and mint inscriptions make")
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
