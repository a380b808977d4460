"""PSBT-style trade lifecycle: offer, accept, broadcast, atomic settlement.

Signatures are hash commitments over the canonical PSBT structure; mutating
inputs or outputs invalidates every signature. The settlement transaction
moves the inscribed sat to the buyer (FIFO: the inscribed UTXO is input 0 and
the buyer's postage output is output 0), pays the ask to the seller, and
returns change to the buyer; the network fee comes out of the buyer's funds.

BTC deltas are accounted at the trade level: seller +ask, buyer -(ask+fee),
miner +fee. The postage riding on the inscribed output travels with the
inscription and is excluded from those deltas.

Each rule has one owner: `funding_outputs` says which outputs may fund a
buyer, and `chain.tx_fee`, the one fee rule, prices the settlement from the
UTXO set, as `chain.mine_block` prices the block's txs for its coinbase.
The state's UTXO set is read only through mapping operations (`in`, `[]`,
`get`, `chain.require`), so a state `IndexState.decode` made serves as one
built in memory. An offer's inscription is the one its PSBT's input 0
spends (as in BIP-174, the input is the one record of what it spends), so
an offer stores no copy of its id. `settleable` alone says whether an offer can still
settle; every refusal is decided before anything changes, so a dead offer
keeps its status. `funding_outputs` reads the state's derived index of each
recipient's unspent plain outpoints, `IndexState.plain_outpoints`, which
`IndexState.apply_block` keeps as it commits a block and
`IndexState.from_json` builds as it loads the UTXO set (a state
`IndexState.decode` made finds a payer's in the snapshot bytes), so finding a
payer's funding decodes that payer's outputs, not the whole UTXO set.

`create_offer` and `accept_offer` change only `state.offers` (the offers'
statuses and PSBTs), never the chain, the ledger or `btc_deltas`: `ordlite
trade offer` and `trade accept` rely on this, as their write re-encodes
only what the state logged and the `offers` and `btc_deltas` sections.
`broadcast_and_settle` mines a block, which the state logs, and books BTC
deltas, so `trade settle` writes those too.
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
            "outputs": [chain.txout_to_json(o) for o in self.outputs],
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
            PsbtInput(OutPoint.parse(i["outpoint"]), i["inscription_id"],
                      dict(i["signatures"]))
            for i in obj["inputs"]
        ]
        outputs = [chain.txout_from_json(o) for o in obj["outputs"]]
        return cls(inputs, outputs, bool(obj["finalized"]))


STATUSES = ("open", "accepted", "settled", "cancelled")


@dataclass
class Offer:
    id: str
    seller: str
    ask: int
    psbt: Psbt
    status: str  # one of STATUSES

    @property
    def inscription_id(self) -> str:
        """The offered inscription: the one input 0 of the PSBT spends."""
        return self.psbt.inputs[0].inscription_id

    def to_json(self) -> dict:
        return {"seller": self.seller, "inscription_id": self.inscription_id,
                "ask": self.ask, "psbt": self.psbt.to_json(), "status": self.status}

    @classmethod
    def from_json(cls, oid: str, obj: dict) -> "Offer":
        return cls(oid, obj["seller"], obj["ask"], Psbt.from_json(obj["psbt"]),
                   obj["status"])


def commitment(psbt: Psbt, signer: str) -> str:
    payload = chain.canonical_dumps(psbt.structure_json()) + "|" + signer
    return hashlib.sha256(payload.encode()).hexdigest()


def sign(psbt: Psbt, signer: str) -> None:
    sig = commitment(psbt, signer)
    for pin in psbt.inputs:
        pin.signatures[signer] = sig


def signatures_commit(psbt: Psbt) -> bool:
    """True when every signature on every input is its signer's commitment
    to psbt."""
    return all(sig == commitment(psbt, signer)
               for pin in psbt.inputs for signer, sig in pin.signatures.items())


def verify_signatures(psbt: Psbt, utxos) -> bool:
    """True when every input is signed by the recipient of the output in utxos
    that it spends, and every signature present is valid."""
    for pin in psbt.inputs:
        entry = utxos.get(pin.outpoint)
        if entry is None or entry.txout.recipient not in pin.signatures:
            return False
    return signatures_commit(psbt)


def _offer_id(seller: str, inscription_id: str, ask: int) -> str:
    return hashlib.sha256(f"offer|{seller}|{inscription_id}|{ask}".encode()).hexdigest()[:16]


def check_offer(oid: str, offer: Offer) -> None:
    """Raise CorruptSnapshot unless offer, stored under oid, is one trading
    could have made: keyed by the id of its seller, inscription and ask, of a
    known status, signed by its seller on every input and only by signatures
    that commit to its PSBT, and finalized exactly when accepted or settled."""
    psbt = offer.psbt
    if oid != _offer_id(offer.seller, offer.inscription_id, offer.ask):
        problem = "is not the id of its seller, inscription and ask"
    elif offer.status not in STATUSES:
        problem = f"has unknown status {offer.status!r}"
    elif not all(offer.seller in pin.signatures for pin in psbt.inputs):
        problem = "lacks its seller's signature"
    elif not signatures_commit(psbt):
        problem = "carries a signature that does not commit to its PSBT"
    elif psbt.finalized != (offer.status in ("accepted", "settled")):
        problem = f"is {offer.status} but its PSBT is {'' if psbt.finalized else 'not '}finalized"
    else:
        return
    raise errors.CorruptSnapshot(f"offer {oid} {problem}")


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

    # a re-listing at the same ask has the same id: it must not replace the
    # buyer's finalized PSBT while that can still settle
    oid = _offer_id(seller, inscription_id, ask)
    held = state.offers.get(oid)
    if held is not None and held.status == "accepted" and settleable(state, held):
        raise errors.TradeError(f"offer {oid} at this ask is accepted; settle it first")

    psbt = Psbt([PsbtInput(satpoint.outpoint, inscription_id)],
                [TxOut(ask, seller)])
    sign(psbt, seller)
    offer = Offer(oid, seller, ask, psbt, "open")
    # one open offer per pending inscription; a new one cancels the old
    for other in state.offers.values():
        if other.inscription_id == inscription_id and other.status == "open":
            other.status = "cancelled"
    state.offers[offer.id] = offer
    return offer


def settleable(state: IndexState, offer: Offer) -> bool:
    """True while offer's PSBT can still settle: every input is unspent, the
    offered inscription is located on input 0's outpoint, and its pending
    transfer exists and is unused."""
    inputs = offer.psbt.inputs
    point = state.location.get(offer.inscription_id)
    pending = state.ledger.pendings.get(offer.inscription_id)
    return (all(pin.outpoint in state.utxos for pin in inputs)
            and point is not None and point.outpoint == inputs[0].outpoint
            and pending is not None and not pending.used)


def check_acceptable(state: IndexState, offer: Offer, fee: int) -> None:
    """Raise unless a buyer may accept offer at fee: the fee is not negative,
    the offer is open, and it is `settleable`. `accept_offer` checks this
    first, and `ordlite trade accept` checks it before it picks funding."""
    if fee < 0:
        raise errors.TradeError("fee must not be negative")
    if offer.status != "open":
        raise errors.OfferNotOpen(offer.id)
    if not settleable(state, offer):
        raise errors.OfferNotOpen(f"{offer.id}: can no longer settle")


def accept_offer(state: IndexState, offer: Offer, buyer: str,
                 funding: list[OutPoint], fee: int) -> Psbt:
    check_acceptable(state, offer, fee)
    inscribed_outpoint = offer.psbt.inputs[0].outpoint
    postage = chain.require(state.utxos, inscribed_outpoint).txout.value

    if len(set(funding)) != len(funding):
        raise errors.BadFunding("duplicated funding outpoint")
    fundable = dict(funding_outputs(state, buyer))
    funds = 0
    for op in funding:
        if op not in state.utxos:
            raise errors.InsufficientFunds(f"funding outpoint {op} unavailable")
        if op not in fundable:
            raise errors.BadFunding(
                f"funding outpoint {op} is not a plain, uninscribed output of {buyer}")
        funds += fundable[op]
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


def funding_outputs(state: IndexState, addr: str) -> list[tuple[OutPoint, int]]:
    """(outpoint, value) of every output that can fund a payment by addr:
    plain, unspent, paying addr and carrying no inscription, in no set order.
    `state.plain_outpoints`, which `apply_block` keeps and `from_json` builds,
    lists addr's unspent plain outputs, so only addr's UTXO entries are read."""
    utxos = state.utxos
    return [(op, utxos[op].txout.value) for op in state.plain_outpoints.get(addr, ())
            if op not in state.by_outpoint]


def select_funding(state: IndexState, buyer: str, amount: int) -> list[OutPoint]:
    """The buyer's funding outputs in outpoint order, up to the first total
    of at least `amount`."""
    picked, total = [], 0
    for op, value in sorted(funding_outputs(state, buyer)):
        picked.append(op)
        total += value
        if total >= amount:
            return picked
    raise errors.InsufficientFunds(f"{buyer} holds {total} sats, needs {amount}")


def broadcast_and_settle(state: IndexState, offer: Offer, buyer: str) -> chain.Block:
    """Mine the finalized PSBT into the next block and settle atomically.

    Every check runs before the block is mined: an offer that is no longer
    `settleable` raises DoubleSpend, and a PSBT that fails `verify_signatures`
    raises BadSignature, both leaving the state, the offer's status included,
    untouched. `apply_block` raises a chain error before it changes
    anything, but an InvariantViolation from the ledger's per-block check
    (`check_touched`) only after the block is applied: the state then holds
    the block, while the BTC deltas and the offer's status are left as they
    were. The CLI saves no state after an exception, so the data dir keeps
    none of it.
    """
    psbt = offer.psbt
    if offer.status != "accepted" or not psbt.finalized:
        raise errors.OfferNotOpen(f"{offer.id}: not accepted")
    if not settleable(state, offer):
        raise errors.DoubleSpend(f"{offer.id}: can no longer settle")
    if not verify_signatures(psbt, state.utxos):
        raise errors.BadSignature(offer.id)

    height = state.tip_height + 1
    settlement = chain.Transaction(
        hashlib.sha256(f"settle|{offer.id}|{height}".encode()).hexdigest(),
        tuple(chain.TxIn(pin.outpoint) for pin in psbt.inputs),
        tuple(psbt.outputs),
    )
    fee = chain.tx_fee(settlement, state.utxos)
    block = chain.mine_block(
        height, (settlement,), state.utxos,
        hashlib.sha256(f"coinbase|{height}|{MINER}".encode()).hexdigest(), MINER)

    state.apply_block(block)  # a chain error leaves the state unchanged
    for addr, delta in ((offer.seller, offer.ask), (buyer, -(offer.ask + fee)),
                        (MINER, fee)):
        state.btc_deltas[addr] = state.btc_deltas.get(addr, 0) + delta
    offer.status = "settled"
    return block
