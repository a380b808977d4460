"""PSBT-style trade lifecycle: offer, accept, broadcast, atomic settlement.

Signatures are hash commitments over the canonical PSBT structure; mutating
inputs or outputs invalidates every signature. The settlement transaction
moves the inscribed sat to the buyer (FIFO: the inscribed UTXO is input 0 and
the buyer's postage output is output 0), pays the ask to the seller, and
returns change to the buyer; the network fee comes out of the buyer's funds.

BTC deltas are accounted at the trade level: seller +ask, buyer -(ask+fee),
miner +fee. The postage riding on the inscribed output travels with the
inscription and is excluded from those deltas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import chain, errors
from .chain import OutPoint, TxOut

if TYPE_CHECKING:  # the indexer stores offers, so it imports this module
    from .indexer import IndexState

DEFAULT_FEE = 10_000  # sats, settlement tx network fee (buyer pays)
MINER = "miner"  # recipient of the settlement block's coinbase


@dataclass
class PsbtInput:
    outpoint: OutPoint
    inscription_id: str | None = None
    signatures: dict = field(default_factory=dict)  # signer -> commitment hex


@dataclass
class Psbt:
    inputs: list
    outputs: list  # TxOut
    finalized: bool = False

    def structure_json(self) -> dict:
        """Signature-free canonical structure; the payload commitments cover."""
        return {
            "inputs": [
                {"outpoint": str(i.outpoint), "inscription_id": i.inscription_id}
                for i in self.inputs
            ],
            "outputs": [
                {"value": o.value, "recipient": o.recipient,
                 "script_kind": o.script_kind}
                for o in self.outputs
            ],
        }

    def to_json(self) -> dict:
        obj = self.structure_json()
        for i, entry in zip(self.inputs, obj["inputs"]):
            entry["signatures"] = dict(sorted(i.signatures.items()))
        obj["finalized"] = self.finalized
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "Psbt":
        inputs = [
            PsbtInput(OutPoint.parse(i["outpoint"]), i.get("inscription_id"),
                      dict(i.get("signatures", {})))
            for i in obj["inputs"]
        ]
        outputs = [TxOut(o["value"], o["recipient"], o["script_kind"])
                   for o in obj["outputs"]]
        return cls(inputs, outputs, bool(obj.get("finalized")))


@dataclass
class Offer:
    id: str
    seller: str
    inscription_id: str
    ask: int
    psbt: Psbt
    status: str  # open | accepted | settled | cancelled | stale

    def to_json(self) -> dict:
        return {"seller": self.seller, "inscription_id": self.inscription_id,
                "ask": self.ask, "psbt": self.psbt.to_json(), "status": self.status}

    @classmethod
    def from_json(cls, oid: str, obj: dict) -> "Offer":
        return cls(oid, obj["seller"], obj["inscription_id"], obj["ask"],
                   Psbt.from_json(obj["psbt"]), obj["status"])


def commitment(psbt: Psbt, signer: str) -> str:
    payload = chain.canonical_dumps(psbt.structure_json()) + "|" + signer
    return hashlib.sha256(payload.encode()).hexdigest()


def sign(psbt: Psbt, signer: str) -> None:
    sig = commitment(psbt, signer)
    for pin in psbt.inputs:
        pin.signatures[signer] = sig


def verify_signatures(psbt: Psbt) -> bool:
    for pin in psbt.inputs:
        if not pin.signatures:
            return False
        for signer, sig in pin.signatures.items():
            if sig != commitment(psbt, signer):
                return False
    return True


def combine_psbts(a: Psbt, b: Psbt) -> Psbt:
    """Union of signature sets over structurally identical PSBTs."""
    if chain.canonical_dumps(a.structure_json()) != chain.canonical_dumps(b.structure_json()):
        raise errors.StructureMismatch("PSBTs describe different transactions")
    return Psbt(
        [PsbtInput(ia.outpoint, ia.inscription_id, {**ia.signatures, **ib.signatures})
         for ia, ib in zip(a.inputs, b.inputs)],
        list(a.outputs),
        a.finalized or b.finalized,
    )


def _offer_id(seller: str, inscription_id: str, ask: int) -> str:
    return hashlib.sha256(f"offer|{seller}|{inscription_id}|{ask}".encode()).hexdigest()[:16]


def get_offer(state: IndexState, offer_id: str) -> Offer:
    if offer_id not in state.offers:
        raise errors.TradeError(f"unknown offer {offer_id}")
    return state.offers[offer_id]


def create_offer(state: IndexState, seller: str, inscription_id: str, ask: int) -> Offer:
    if ask <= 0:
        raise errors.TradeError("ask must be positive")
    pending = state.ledger.pendings.get(inscription_id)
    if pending is None:
        raise errors.NotPendingTransfer(inscription_id)
    if pending.used:
        raise errors.AlreadyUsed(inscription_id)
    if pending.owner != seller:
        raise errors.NotOwner(f"{seller} does not own pending {inscription_id}")
    satpoint = state.location.get(inscription_id)
    if satpoint is None or satpoint.outpoint not in state.utxos:
        raise errors.TradeError(f"inscribed satpoint of {inscription_id} is spent")

    psbt = Psbt([PsbtInput(satpoint.outpoint, inscription_id)],
                [TxOut(ask, seller)])
    sign(psbt, seller)
    offer = Offer(_offer_id(seller, inscription_id, ask), seller,
                  inscription_id, ask, psbt, "open")
    # one open offer per pending inscription; a new one cancels the old
    for other in state.offers.values():
        if other.inscription_id == inscription_id and other.status == "open":
            other.status = "cancelled"
    state.offers[offer.id] = offer
    return offer


def accept_offer(state: IndexState, offer: Offer, buyer: str,
                 funding: list[OutPoint], fee: int = DEFAULT_FEE) -> Psbt:
    if offer.status != "open":
        raise errors.OfferNotOpen(offer.id)
    inscribed_outpoint = offer.psbt.inputs[0].outpoint
    entry = state.utxos.get(inscribed_outpoint)
    if entry is None:
        offer.status = "stale"
        raise errors.OfferNotOpen(f"{offer.id}: inscribed outpoint spent")
    postage = entry.txout.value

    if len(set(funding)) != len(funding):
        raise errors.BadFunding("duplicated funding outpoint")
    funds = 0
    for op in funding:
        fe = state.utxos.get(op)
        if fe is None:
            raise errors.InsufficientFunds(f"funding outpoint {op} unavailable")
        if fe.txout.recipient != buyer or fe.txout.script_kind != "plain":
            raise errors.BadFunding(f"funding outpoint {op} is not a plain output of {buyer}")
        if op in state.by_outpoint:
            raise errors.BadFunding(f"funding outpoint {op} carries an inscription")
        funds += fe.txout.value
    if funds < offer.ask + fee:
        raise errors.InsufficientFunds(
            f"buyer funds {funds} < ask {offer.ask} + fee {fee}")

    change = funds - offer.ask - fee
    outputs = [TxOut(postage, buyer, "p2tr_inscription"),
               TxOut(offer.ask, offer.seller)]
    if change > 0:
        outputs.append(TxOut(change, buyer))
    psbt = Psbt(
        [PsbtInput(inscribed_outpoint, offer.inscription_id)]
        + [PsbtInput(op) for op in funding],
        outputs,
    )
    sign(psbt, offer.seller)  # seller re-commits to the completed structure
    sign(psbt, buyer)
    psbt.finalized = True
    offer.psbt = psbt
    offer.status = "accepted"
    return psbt


def select_funding(state: IndexState, buyer: str, amount: int) -> list[OutPoint]:
    """Pick uninscribed plain unspent outputs of the buyer totalling at least `amount`."""
    plain = [(op, entry) for op, entry in state.utxos.entries.items()
             if entry.txout.recipient == buyer and entry.txout.script_kind == "plain"
             and op not in state.by_outpoint]
    picked, total = [], 0
    for op, entry in sorted(plain):
        picked.append(op)
        total += entry.txout.value
        if total >= amount:
            return picked
    raise errors.InsufficientFunds(f"{buyer} holds {total} sats, needs {amount}")


def broadcast_and_settle(state: IndexState, offer: Offer, buyer: str) -> chain.Block:
    """Mine the finalized PSBT into the next block and settle atomically.

    A raced input marks the offer stale and leaves every balance untouched;
    an input not signed by its spent output's owner raises BadSignature.
    """
    psbt = offer.psbt
    if offer.status != "accepted" or not psbt.finalized:
        raise errors.OfferNotOpen(f"{offer.id}: not accepted")
    if not verify_signatures(psbt):
        raise errors.BadSignature(offer.id)
    for pin in psbt.inputs:
        entry = state.utxos.get(pin.outpoint)
        if entry is None:
            offer.status = "stale"
            raise errors.DoubleSpend(str(pin.outpoint))
        if entry.txout.recipient not in pin.signatures:  # all present are verified above
            raise errors.BadSignature(f"{offer.id}: {pin.outpoint} lacks its owner's signature")

    height = state.tip_height + 1
    settlement = chain.Transaction(
        hashlib.sha256(f"settle|{offer.id}|{height}".encode()).hexdigest(),
        tuple(chain.TxIn(pin.outpoint) for pin in psbt.inputs),
        tuple(psbt.outputs),
    )
    fee = chain.tx_fee(settlement, state.utxos)
    coinbase = chain.Transaction(
        hashlib.sha256(f"coinbase|{height}|{MINER}".encode()).hexdigest(),
        (), (TxOut(chain.block_subsidy(height) + fee, MINER),), is_coinbase=True)
    block = chain.Block(height, (coinbase, settlement))

    state.apply_block(block)  # raises (state unchanged) on any chain error

    pending = state.ledger.pendings.get(offer.inscription_id)
    if pending is None or not pending.used:
        raise errors.TradeError(f"settlement of {offer.inscription_id} did not land")
    for addr, delta in ((offer.seller, offer.ask), (buyer, -(offer.ask + fee)),
                        (MINER, fee)):
        state.btc_deltas[addr] = state.btc_deltas.get(addr, 0) + delta
    offer.status = "settled"
    return block
