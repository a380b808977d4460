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
checks that layout and nothing more, is the one snapshot decoder: reads decode
the sections they need, `IndexState.decode` all of them. The tail,
`tip_height` and `utxos`, holds no key a user chose, so `read_sections` can
find it from the end and skip every section before it. Bytes from outside
the data dir enter only through `IndexState.from_untrusted`, which decodes
them so and then validates them; the data dir then holds only bytes ordlite
wrote. `next_number`, each `genesis_satpoint` and each offer's
`inscription_id` are written from the state, which does not keep them.

`IndexState.to_json` builds every section and `snapshot_bytes` encodes them
all. A write that changes one section need not re-encode the rest:
`read_sections` reports where each section's value lies in the bytes it
decoded, and `splice_section` replaces one value there with its canonical
encoding and copies every other byte. The `offers` section, the one the CLI
splices, has one builder, `IndexState.offers_json`, which `to_json` uses too,
so both paths write the same bytes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from collections import defaultdict
from dataclasses import dataclass

from . import brc20, chain, envelope, errors, ordinals, trade
from .chain import OutPoint
from .ordinals import SatPoint

# The snapshot's top-level keys, in the order `canonical_dumps` writes them.
SECTIONS = ("brc20", "btc_deltas", "inscriptions", "next_number", "offers",
            "tip_height", "utxos")
_DECODER = json.JSONDecoder()


def read_sections(data: bytes, last: str, spans: dict | None = None,
                  first: str = SECTIONS[0]) -> dict:
    """Decode a snapshot ordlite wrote, section by section, from `first` up to
    and including `last`. A layout that is not SECTIONS in canonical form raises
    CorruptSnapshot; the decoded values are trusted as they are. When `spans`
    is given, it gets each decoded section's (start, end) offsets in data, the
    slice its value is encoded in. Canonical bytes are ASCII, as
    `canonical_dumps` escapes everything else, and other bytes are refused,
    so an offset in the decoded text is the same offset in data.

    `first` is SECTIONS[0], or "tip_height" to find the tail from the end and
    decode nothing before it. After `offers` no key is one a user chose, and a
    `"` inside a string is escaped, so the last `,"utxos":` heads `utxos` and
    the last `,"tip_height":` before it heads `tip_height`. A tail read checks
    that the bytes are ASCII and start with `{"brc20":`, that `tip_height`
    ends at that `utxos` head and, when it reads `utxos`, that the closing
    brace follows it."""
    sections: dict = {}
    pos = 0
    from_end = first != SECTIONS[0]
    try:
        text = data.decode("ascii")
        if from_end:
            if not text.startswith('{"brc20":'):
                raise errors.CorruptSnapshot("expected '{\"brc20\":' at offset 0")
            tail = text.rfind(',"utxos":')
            pos = text.rfind(',"tip_height":', 0, tail)
            if pos < 0:
                raise errors.CorruptSnapshot("no tip_height head")
        for key in SECTIONS[SECTIONS.index(first):]:
            head = ("{" if key == SECTIONS[0] else ",") + f'"{key}":'
            if not text.startswith(head, pos):
                raise errors.CorruptSnapshot(f"expected {head!r} at offset {pos}")
            start = pos + len(head)
            sections[key], pos = _DECODER.raw_decode(text, start)
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


def splice_section(data: bytes, spans: dict, key: str, value) -> bytes:
    """Snapshot bytes `data` with the value of section `key`, which
    `read_sections` put at spans[key], replaced by value's canonical
    encoding; every other byte is copied as it is. The result is the canonical
    encoding of the snapshot whose section `key` is value, as the section's
    encoding is the same inside the whole snapshot and on its own."""
    start, end = spans[key]
    return b"".join((data[:start], chain.canonical_dumps(value).encode(), data[end:]))


def write_snapshot(path, data: bytes) -> str:
    """Write snapshot bytes to path and return their sha256 hex digest. They
    go to `<path>.tmp` first, which then replaces path, so a failed write
    leaves the old snapshot in place."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fp:
        fp.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest()


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
    set; nothing else writes the UTXO set, so the index cannot drift from it."""

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
        return {
            "tip_height": self.tip_height,
            "next_number": len(self.inscriptions),
            "utxos": {str(op): _utxo_json(e) for op, e in self.utxos.entries.items()},
            "inscriptions": {
                ins.id: {
                    "number": ins.number,
                    "content_type": ins.content_type,
                    "body": ins.body.hex(),
                    "kind": ins.kind,
                    "genesis_sat": ins.genesis_sat,
                    # a reveal binds to the first sat of its tx's first output
                    "genesis_satpoint": f"{ins.id.rpartition('i')[0]}:0:0",
                    "satpoint": str(self.location[ins.id]) if ins.id in self.location else None,
                    "height": ins.height,
                }
                for ins in self.inscriptions.values()
            },
            "brc20": self.ledger.to_json(),
            "offers": self.offers_json(),
            "btc_deltas": dict(self.btc_deltas),
        }

    def offers_json(self) -> dict:
        """The snapshot's `offers` section, for `to_json` and for a write that
        splices in only this section (`splice_section`)."""
        return {oid: o.to_json() for oid, o in self.offers.items()}

    def snapshot_bytes(self) -> bytes:
        return chain.canonical_dumps(self.to_json()).encode()

    def snapshot_hash(self) -> str:
        return hashlib.sha256(self.snapshot_bytes()).hexdigest()

    @classmethod
    def from_json(cls, obj: dict) -> "IndexState":
        state = cls()
        state.tip_height = obj["tip_height"]
        outpoints: dict[str, OutPoint] = {}  # a location shares its UTXO's key
        plain = state.plain_outpoints
        for key, e in obj["utxos"].items():
            op = outpoints[key] = OutPoint.parse(key)
            txout = chain.txout_from_json(e)
            state.utxos.entries[op] = chain.UtxoEntry(txout, [tuple(r) for r in e["sat_ranges"]])
            if txout.script_kind == "plain":
                plain[txout.recipient].add(op)
        for ins_id, i in obj["inscriptions"].items():
            state.inscriptions[ins_id] = Inscription(
                ins_id, i["number"], i["content_type"], bytes.fromhex(i["body"]),
                i["kind"], i["genesis_sat"], i["height"])
            if i["satpoint"]:
                key, _, offset = i["satpoint"].rpartition(":")
                state._place(ins_id, SatPoint(outpoints.get(key) or OutPoint.parse(key),
                                              int(offset)))
        state.ledger = brc20.Brc20Ledger.from_json(obj["brc20"])
        state.offers = {oid: trade.Offer.from_json(oid, o)
                        for oid, o in obj["offers"].items()}
        state.btc_deltas = dict(obj["btc_deltas"])
        return state

    @classmethod
    def decode(cls, data: bytes, spans: dict | None = None) -> "IndexState":
        """The state in snapshot bytes, decoded by `read_sections` as reads are
        (which fills `spans`, when given)."""
        # Decoding allocates the whole state and frees none of it, so cyclic
        # collections during it find nothing; the objects they promote would
        # only bring the next full collection, over the caller's whole heap,
        # sooner. Pause the collector for the decode.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls.from_json(read_sections(data, SECTIONS[-1], spans))
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def from_untrusted(cls, data: bytes) -> "IndexState":
        """The state in snapshot bytes from outside the data dir, validated.
        Bytes of the wrong shape, which `from_json` or `validate` trip over,
        raise CorruptSnapshot too."""
        try:
            state = cls.decode(data)
            state.validate(data)
        except errors.CorruptSnapshot:
            raise
        except (ValueError, RecursionError, LookupError, TypeError, AttributeError,
                errors.OrdliteError) as exc:
            raise errors.CorruptSnapshot(f"{type(exc).__name__}: {exc}") from exc
        return state

    def validate(self, data: bytes) -> None:
        """Raise CorruptSnapshot unless this state, decoded from `data`, is one
        indexing could have produced: every UTXO's ranges are non-empty, total
        its value and share no sat with another's; the inscriptions are
        numbered 0..n-1 and every located one is on its genesis sat, in an
        unspent output, and its kind is the one its content type and body
        classify as; the ledger's invariants hold in full, its index of
        unused pendings included; every pending, used or not, names a
        transfer inscription of its tick and amount (`check_pendings`);
        every offer passes `trade.check_offer`;
        and `data` is this state's canonical bytes, so no stored value
        disagrees with what the state derives."""
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
        numbers = sorted(ins.number for ins in self.inscriptions.values())
        if numbers != list(range(len(numbers))) or any(type(n) is not int for n in numbers):
            raise errors.CorruptSnapshot("inscription numbers are not 0..n-1")
        transfers = {}  # inscription id -> its transfer op
        for ins in self.inscriptions.values():
            kind, op = classify_envelope(envelope.Envelope(ins.content_type, ins.body))
            if ins.kind != kind:
                raise errors.CorruptSnapshot(
                    f"inscription {ins.id} is labelled {ins.kind!r}, its content is {kind!r}")
            if kind == "brc20_transfer":
                transfers[ins.id] = op
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
        for oid, offer in self.offers.items():
            trade.check_offer(oid, offer)
        if self.snapshot_bytes() != data:
            raise errors.CorruptSnapshot("not in canonical form")

    def save(self, path) -> str:
        """Write the snapshot to path (see `write_snapshot`) and return its
        sha256 hex digest, which equals `snapshot_hash()`: the bytes are
        serialized once, for both."""
        return write_snapshot(path, self.snapshot_bytes())
