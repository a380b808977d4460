"""Seeded input generators for the three benchmark workloads.

Every generator takes a `random.Random` built from the workload name and the
run's seed, so the same seed always yields the same script, blocks and CLI
arguments. The program only ever sees what these functions emit. Alongside
each input the generator keeps a naive model of what the indexer must end up
with, which the benchmark checks against after every index job.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ordlite import brc20, chain, envelope
from ordlite.chain import Block, OutPoint, Transaction, TxIn, TxOut

TICK = "wave"
MINT_AMT = 1000

# Sizes of one chain. transfer_web is sized so that a compile stays under one
# second at the seed commit while its history-dependent costs (funding sort, live
# inscription walk, holders x pendings invariant check) already dominate;
# cli_mix uses a smaller script of the same shape so that CLI ops, not the
# index job, fill its rounds.
TRANSFER_WEB = {"holders": 32, "mints": 64, "rounds": 250}
CLI_MIX = {"holders": 16, "mints": 32, "rounds": 160}
# range_shred: enough blocks that late blocks see ~20+ ranges per UTXO.
RANGE_SHRED = {"blocks": 150, "txs": 8, "wallets": 16}
SEND_SHARE = 0.7
ENVELOPE_SHARE = 0.05


@dataclass
class TokenModel:
    """What the generator expects the BRC-20 ledger to hold, in whole tokens."""

    minted: int = 0
    raw: dict = field(default_factory=dict)  # holder -> balance incl. pendings
    pending: dict = field(default_factory=dict)  # holder -> open pending amount

    def available(self, holder: str) -> int:
        return self.raw.get(holder, 0) - self.pending.get(holder, 0)

    def mismatches(self, ledger: brc20.Brc20Ledger) -> list[str]:
        unit = brc20.AMOUNT_UNIT
        out = []
        state = ledger.ticks.get(TICK)
        if state is None or state.minted != self.minted * unit:
            out.append(f"minted: expected {self.minted}")
        holders = set(self.raw) | set(ledger.balances.get(TICK, {}))
        for h in sorted(holders):
            if ledger.raw_balance(TICK, h) != self.raw.get(h, 0) * unit:
                out.append(f"balance of {h}: expected {self.raw.get(h, 0)}")
            if ledger.pending_outgoing(TICK, h) != self.pending.get(h, 0) * unit:
                out.append(f"pending of {h}: expected {self.pending.get(h, 0)}")
        return out


def transfer_script(rng, holders: int, mints: int, rounds: int):
    """Deploy, bulk-mint over the holders, then `rounds` transfer rounds.

    In each round a random holder with tokens inscribes a transfer; a random
    SEND_SHARE of the rounds send it on to a random holder, the rest leave it
    open. The share is exact, so the block count and the number of open
    pendings (which drive the invariant check's cost) do not vary with the
    seed. Returns (script, TokenModel).
    """
    names = [f"h{i:03d}" for i in range(holders)]
    model = TokenModel()
    script = [{"action": "deploy", "tick": TICK, "max": str(10 ** 9),
               "lim": str(MINT_AMT), "deployer": names[0]}]
    for i in range(mints):
        h = names[i % holders]
        script.append({"action": "mint", "tick": TICK, "amt": str(MINT_AMT),
                       "minter": h})
        model.minted += MINT_AMT
        model.raw[h] = model.raw.get(h, 0) + MINT_AMT
    sends = set(rng.sample(range(rounds), round(rounds * SEND_SHARE)))
    for r in range(rounds):
        funded = [h for h in names if model.available(h) > 0]
        owner = rng.choice(funded)
        amt = rng.randint(1, min(model.available(owner), 200))
        handle = f"t{r}"
        script.append({"action": "transfer_inscribe", "tick": TICK,
                       "amt": str(amt), "owner": owner, "id": handle})
        if r in sends:
            to = rng.choice(names)
            script.append({"action": "transfer_send", "inscription": handle,
                           "to": to})
            model.raw[owner] -= amt
            model.raw[to] = model.raw.get(to, 0) + amt
        else:
            model.pending[owner] = model.pending.get(owner, 0) + amt
    model.raw = {h: v for h, v in model.raw.items() if v}
    model.pending = {h: v for h, v in model.pending.items() if v}
    return script, model


class ShredChain:
    """Generator of fragmenting blocks, built straight from chain/envelope
    constructors. Keeps its own model of the UTXO set (outpoint -> TxOut)."""

    def __init__(self, rng, tag: str, wallets: int):
        self.rng = rng
        self.tag = tag
        self.wallets = [f"w{i:02d}" for i in range(wallets)]
        self.utxos: dict[OutPoint, TxOut] = {}
        self.keys: list[OutPoint] = []  # same members as utxos, for sampling
        self.txs = 0
        self.envelopes = 0  # every 1/ENVELOPE_SHARE-th tx carries one
        self._n = 0

    def _txid(self) -> str:
        self._n += 1
        return hashlib.sha256(f"{self.tag}|{self._n}".encode()).hexdigest()

    def _take(self) -> OutPoint:
        i = self.rng.randrange(len(self.keys))
        self.keys[i], self.keys[-1] = self.keys[-1], self.keys[i]
        return self.keys.pop()

    def _add(self, op: OutPoint, txout: TxOut) -> None:
        self.utxos[op] = txout
        self.keys.append(op)

    def _tx(self, height: int, index: int, n_in: int, n_out: int) -> tuple[Transaction, int]:
        """Spend n_in random UTXOs into n_out outputs of random value plus a fee.

        Outputs of earlier txs in the same block are candidates too.
        """
        rng = self.rng
        spent = [self._take() for _ in range(n_in)]
        total = sum(self.utxos.pop(op).value for op in spent)
        fee = min(rng.randint(200, 2000), total // 2)
        cuts = sorted(rng.sample(range(1, total - fee), min(n_out - 1, total - fee - 1)))
        values = [b - a for a, b in zip([0] + cuts, cuts + [total - fee])]
        witness = ()
        self.txs += 1
        if self.txs * ENVELOPE_SHARE >= self.envelopes + 1:
            witness = tuple(envelope.build_envelope(
                "text/plain;charset=utf-8", f"shred {height}.{index}".encode()))
            self.envelopes += 1
        tx = Transaction(
            self._txid(),
            tuple(TxIn(op, witness if k == 0 else ()) for k, op in enumerate(spent)),
            tuple(TxOut(v, rng.choice(self.wallets)) for v in values))
        for k, out in enumerate(tx.outputs):
            self._add(OutPoint(tx.txid, k), out)
        return tx, fee

    def block(self, height: int, n_txs: int) -> Block:
        """A coinbase plus up to n_txs txs (fewer while the UTXO set is small).

        Input counts are 2-4; the output counts are the same numbers shuffled,
        so every tx keeps its own shape while the block as a whole leaves the
        UTXO count unchanged. The UTXO count then grows by exactly one per
        block, whatever the seed, instead of taking a random walk.
        """
        n_txs = min(n_txs, (len(self.keys) - 1) // 4)
        n_in = [self.rng.randint(2, 4) for _ in range(n_txs)]
        n_out = self.rng.sample(n_in, len(n_in))
        txs, fees = [], 0
        for k in range(n_txs):
            tx, fee = self._tx(height, k, n_in[k], n_out[k])
            txs.append(tx)
            fees += fee
        # the coinbase claims subsidy + fees exactly, so no sats are burned
        coinbase = Transaction(
            self._txid(), (),
            (TxOut(chain.block_subsidy(height) + fees, self.rng.choice(self.wallets)),),
            is_coinbase=True)
        self._add(OutPoint(coinbase.txid, 0), coinbase.outputs[0])
        return Block(height, (coinbase, *txs))

def shred_blocks(rng, tag: str, blocks: int, txs: int, wallets: int):
    """`blocks` blocks from height 0; returns (blocks, ShredChain)."""
    gen = ShredChain(rng, tag, wallets)
    return [gen.block(h, txs) for h in range(blocks)], gen


def utxo_mismatches(expected: dict, utxos: chain.UtxoSet) -> list[str]:
    """Compare the indexer's UTXO set with the generator's (outpoint -> TxOut)."""
    got = {op: e.txout for op, e in utxos.entries.items()}
    if got == expected:
        return []
    missing = len(expected.keys() - got.keys())
    extra = len(got.keys() - expected.keys())
    return [f"utxo set differs: {missing} missing, {extra} unexpected "
            "(0 and 0: same outpoints, other outputs)"]


def price_csv_text(rng, days: int, start_day: int) -> str:
    """A positive random-walk price series with a `date,price` header."""
    lines = ["date,price"]
    price = rng.uniform(5.0, 50.0)
    for d in range(start_day, start_day + days):
        price *= 1.0 + rng.gauss(0.0, 0.04)
        lines.append(f"2024-{1 + d // 28:02d}-{1 + d % 28:02d},{max(price, 0.01):.6f}")
    return "\n".join(lines) + "\n"
