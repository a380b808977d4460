"""The indexing pipeline and persistent snapshot.

For each block: validate and apply to the UTXO set, assign sat ranges (FIFO),
extract inscriptions from witnesses, replay BRC-20 operations, and settle
pending transfers whose inscribed sat moved. Protocol-level failures are
recorded as diagnostics and never abort indexing; chain-level failures abort
with the offending height and leave the state untouched.

Inscriptions are tracked per transaction, in block order, through an
outpoint -> inscriptions index, as ord's InscriptionUpdater does: a tx moves
exactly the inscriptions on the outpoints it spends. An inscribed sat at
`offset` in input i sits at position (values of inputs before i) + offset of
the tx's input stream; FIFO puts it in the output that spans that position.
A position past the outputs is fee: the sat lands in the coinbase's range
pool after the subsidy and the fees of earlier txs, and is burned if that is
past the coinbase's outputs. A pending BRC-20 transfer settles to the
recipient of the first output its sat lands in, so a transfer inscription
that moves twice in one block credits its first receiver.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import brc20, chain, envelope, errors, ordinals, trade
from .chain import OutPoint
from .ordinals import SatPoint

BRC20_KINDS = {
    brc20.DEPLOY: "brc20_deploy",
    brc20.MINT: "brc20_mint",
    brc20.TRANSFER: "brc20_transfer",
}


def classify_envelope(env: envelope.Envelope) -> str:
    try:
        op = brc20.parse_brc20(env.body)
        return BRC20_KINDS[op.op]
    except errors.Brc20Error:
        pass
    if env.content_type.startswith("text/"):
        return "text"
    if env.content_type:
        return "file"
    return "other"


@dataclass
class Inscription:
    id: str  # "<txid>i<k>", k = envelope index within the tx
    number: int  # chain-wide sequential
    content_type: str
    body: bytes
    kind: str
    genesis_sat: int
    genesis_satpoint: SatPoint
    height: int


def _satpoint_at(tx: chain.Transaction, pos: int) -> SatPoint | None:
    """Where FIFO puts the sat at position pos of tx's output stream, if any."""
    for k, txout in enumerate(tx.outputs):
        if pos < txout.value:
            return SatPoint(OutPoint(tx.txid, k), pos)
        pos -= txout.value
    return None


class IndexState:
    """The snapshot: chain tip, UTXOs with sat ranges, inscriptions and the
    BRC-20 ledger, which blocks change, and `trade`'s offer book and BTC deltas."""

    def __init__(self):
        self.tip_height = -1
        self.utxos = chain.UtxoSet()
        self.inscriptions: dict[str, Inscription] = {}
        self.location: dict[str, SatPoint] = {}  # inscription id -> current satpoint
        # derived from `location`, never serialized: outpoint -> ids located on it
        self.by_outpoint: dict[OutPoint, list[str]] = {}
        self.next_number = 0
        self.ledger = brc20.Brc20Ledger()
        self.offers: dict[str, trade.Offer] = {}
        self.btc_deltas: dict[str, int] = {}  # trade settlement accounting
        self.diagnostics: list[str] = []

    # --- block pipeline ---

    def apply_block(self, block: chain.Block) -> None:
        """Validate and commit the next block; the only code that commits one.
        A chain error raises before anything is changed."""
        fees = chain.validate_block(block, self.utxos, self.tip_height + 1)
        assigned, burned = ordinals.assign_ordinals(block, self.utxos)

        # commit chain state; input values are kept per tx because outputs
        # created and spent within this block are gone from the set afterwards
        input_values = []
        for tx in block.txs:
            input_values.append([self.utxos.entries.pop(tin.prevout).txout.value
                                 for tin in tx.inputs])
            for i, txout in enumerate(tx.outputs):
                op = OutPoint(tx.txid, i)
                self.utxos.entries[op] = chain.UtxoEntry(txout, assigned[op])
        self.tip_height = block.height
        if burned:
            self.diagnostics.append(
                f"height {block.height}: {ordinals.range_total(burned)} sats burned "
                f"(coinbase underclaim)")

        # per tx, in order: settle moved inscriptions, then process reveals
        coinbase = block.txs[0]
        fee_start = chain.block_subsidy(block.height)  # coinbase pool: subsidy, then fees
        for tx, values in zip(block.txs, input_values):
            if not tx.is_coinbase:
                self._track_moved_inscriptions(tx, values, coinbase, fee_start)
                fee_start += fees[tx.txid]
            self._extract_reveals(tx, block, assigned)

        self.ledger.check_invariants()

    def _place(self, ins_id: str, satpoint: SatPoint) -> None:
        self.location[ins_id] = satpoint
        self.by_outpoint.setdefault(satpoint.outpoint, []).append(ins_id)

    def _track_moved_inscriptions(self, tx: chain.Transaction, input_values: list,
                                  coinbase: chain.Transaction, fee_start: int) -> None:
        moved = []
        pos = 0  # position of the current input's first sat in the input stream
        for tin, value in zip(tx.inputs, input_values):
            for ins_id in self.by_outpoint.pop(tin.prevout, ()):
                moved.append((self.inscriptions[ins_id].number, ins_id,
                              pos + self.location[ins_id].offset))
            pos += value
        for _, ins_id, sat_pos in sorted(moved):
            holder = tx
            new_point = _satpoint_at(tx, sat_pos)
            if new_point is None:
                holder = coinbase
                new_point = _satpoint_at(coinbase,
                                         fee_start + sat_pos - tx.output_total())
            pending = self.ledger.pendings.get(ins_id)
            if new_point is None:
                del self.location[ins_id]
                self.diagnostics.append(f"inscription {ins_id} lost (sat burned)")
                if pending is not None and not pending.used:
                    self.ledger.cancel_pending(ins_id, "inscribed sat burned")
                continue
            self._place(ins_id, new_point)
            if pending is None or pending.used:
                continue
            receiver = holder.outputs[new_point.outpoint.vout].recipient
            if holder is coinbase:
                self.diagnostics.append(
                    f"pending {ins_id} spent to fee; settled to sat holder {receiver}")
            try:
                self.ledger.settle_transfer(ins_id, pending.owner, receiver)
            except errors.Brc20Error as exc:
                self.diagnostics.append(f"settle {ins_id}: {exc}")

    def _extract_reveals(self, tx: chain.Transaction, block: chain.Block,
                         assigned: dict) -> None:
        if not tx.outputs:
            return
        k = 0
        for tin in tx.inputs:
            try:
                env = envelope.parse_envelope(tin.witness)
            except errors.EnvelopeError as exc:
                self.diagnostics.append(
                    f"height {block.height} tx {tx.txid}: malformed envelope ({exc})")
                continue
            if env is None:
                continue
            ins_id = f"{tx.txid}i{k}"
            k += 1
            first_out = OutPoint(tx.txid, 0)
            ranges = assigned.get(first_out)
            if not ranges:
                self.diagnostics.append(
                    f"inscription {ins_id} bound to a zero-sat output; skipped")
                continue
            genesis_sat = ranges[0][0]
            satpoint = SatPoint(first_out, 0)
            kind = classify_envelope(env)
            ins = Inscription(ins_id, self.next_number, env.content_type,
                              env.body, kind, genesis_sat, satpoint, block.height)
            self.next_number += 1
            self.inscriptions[ins_id] = ins
            self._place(ins_id, satpoint)
            if kind in BRC20_KINDS.values():
                self._apply_brc20(ins, tx)

    def _apply_brc20(self, ins: Inscription, tx: chain.Transaction) -> None:
        op = brc20.parse_brc20(ins.body)
        actor = tx.outputs[0].recipient  # owner of the freshly inscribed sat
        try:
            if op.op == brc20.DEPLOY:
                self.ledger.apply_deploy(op, ins.id, ins.height)
            elif op.op == brc20.MINT:
                self.ledger.apply_mint(op, actor)
            else:
                self.ledger.inscribe_transfer(op, ins.id, actor)
        except errors.Brc20Error as exc:
            self.ledger.diagnostics.append(
                f"{ins.id} {op.op} {op.tick}: {type(exc).__name__}: {exc}")

    def index_blocks(self, blocks) -> None:
        for block in blocks:
            self.apply_block(block)

    # --- queries ---

    def sat_report(self, n: int) -> dict:
        info = ordinals.sat_info(n)
        try:
            info["satpoint"] = str(ordinals.locate_sat(n, self.utxos))
        except errors.SatNotInUtxoSet:
            pass
        return info

    def btc_balance(self, addr: str) -> int:
        """On-chain holdings: sum of unspent outputs paying the address."""
        return sum(e.txout.value for e in self.utxos.entries.values()
                   if e.txout.recipient == addr)

    # --- canonical snapshot ---

    def to_json(self) -> dict:
        return {
            "tip_height": self.tip_height,
            "next_number": self.next_number,
            "utxos": {
                str(op): {
                    "value": e.txout.value,
                    "recipient": e.txout.recipient,
                    "script_kind": e.txout.script_kind,
                    "sat_ranges": [list(r) for r in e.sat_ranges],
                }
                for op, e in sorted(self.utxos.entries.items())
            },
            "inscriptions": {
                ins.id: {
                    "number": ins.number,
                    "content_type": ins.content_type,
                    "body": ins.body.hex(),
                    "kind": ins.kind,
                    "genesis_sat": ins.genesis_sat,
                    "genesis_satpoint": str(ins.genesis_satpoint),
                    "satpoint": str(self.location[ins.id]) if ins.id in self.location else None,
                    "height": ins.height,
                }
                for ins in sorted(self.inscriptions.values(), key=lambda i: i.number)
            },
            "brc20": self.ledger.to_json(),
            "offers": {oid: o.to_json() for oid, o in sorted(self.offers.items())},
            "btc_deltas": dict(sorted(self.btc_deltas.items())),
        }

    def snapshot_bytes(self) -> bytes:
        return chain.canonical_dumps(self.to_json()).encode()

    def snapshot_hash(self) -> str:
        return hashlib.sha256(self.snapshot_bytes()).hexdigest()

    @classmethod
    def from_json(cls, obj: dict) -> "IndexState":
        state = cls()
        state.tip_height = obj["tip_height"]
        state.next_number = obj["next_number"]
        for key, e in obj["utxos"].items():
            op = OutPoint.parse(key)
            state.utxos.entries[op] = chain.UtxoEntry(
                chain.TxOut(e["value"], e["recipient"], e["script_kind"]),
                [tuple(r) for r in e["sat_ranges"]])
        for ins_id, i in obj["inscriptions"].items():
            gsp = i["genesis_satpoint"]
            outpoint, _, off = gsp.rpartition(":")
            ins = Inscription(ins_id, i["number"], i["content_type"],
                              bytes.fromhex(i["body"]), i["kind"],
                              i["genesis_sat"],
                              SatPoint(OutPoint.parse(outpoint), int(off)),
                              i["height"])
            state.inscriptions[ins_id] = ins
            if i.get("satpoint"):
                sp = i["satpoint"]
                outpoint, _, off = sp.rpartition(":")
                state._place(ins_id, SatPoint(OutPoint.parse(outpoint), int(off)))
        state.ledger = brc20.Brc20Ledger.from_json(obj["brc20"])
        state.offers = {oid: trade.Offer.from_json(oid, o)
                        for oid, o in obj.get("offers", {}).items()}
        state.btc_deltas = dict(obj.get("btc_deltas", {}))
        return state

    @classmethod
    def load(cls, path) -> "IndexState":
        with open(path) as fp:
            return cls.from_json(json.load(fp))

    def save(self, path) -> None:
        with open(path, "w") as fp:
            fp.write(chain.canonical_dumps(self.to_json()))
