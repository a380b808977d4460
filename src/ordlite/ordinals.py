"""Ordinal theory: satoshi numbering, notations, rarity, FIFO range tracking.

A sat is identified by its mining order, 0 .. LAST_SAT. Ranges are half-open
(start, end) tuples; every unspent output carries the ordered list of ranges
it controls. `assign_ordinals` is the one FIFO rule and the one value check:
it returns a block's UTXO delta, the finished `UtxoEntry` (output and ranges,
fee sats included) of every output the block creates. It checks that every
spent output's ranges hold its value, prices every tx through `chain.tx_fee`,
the one fee rule, which checks that its inputs cover its outputs, and checks
that the coinbase claims at most subsidy + fees. It works on prefix sums: a
tx's input ranges, concatenated, are counted once, in C (`prefix_sums`); an
input holds its value if the count rises by it over the input's ranges, and
each output, which takes the sats from the sum of the values before it on, is
one slice of them, found by bisecting the count, with its first and last range
trimmed (`slice_ranges`). Ranges are cut and never joined, so each lies
inside one block's subsidy. `find_sat` walks ranges for a sat, for `sat`
queries over the candidate UTXO records `indexer.Snapshot.outputs_holding`
finds, which it may pass over (`locate_sat` over a UTXO mapping), and for
`IndexState.validate`; applying a block finds a moved sat by its offset.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import itemgetter, sub

from . import chain, errors
from .chain import (CYCLE_BLOCKS, DIFFICULTY_PERIOD, HALVING_INTERVAL,
                    INITIAL_SUBSIDY, SUBSIDY_EPOCHS, OutPoint, block_subsidy)

# the first sat of each halving epoch, then the total supply
EPOCH_STARTS = tuple(accumulate((HALVING_INTERVAL * (INITIAL_SUBSIDY >> e)
                                 for e in range(SUBSIDY_EPOCHS)), initial=0))
TOTAL_SUPPLY = EPOCH_STARTS[-1]
LAST_SAT = TOTAL_SUPPLY - 1  # 2099999997689999
FINAL_SUPPLY_HEIGHT = SUBSIDY_EPOCHS * HALVING_INTERVAL  # subsidy is 0 from here

_START, _END = itemgetter(0), itemgetter(1)  # of a (start, end) range

RARITIES = ("common", "uncommon", "rare", "epic", "legendary", "mythic")


class SatPoint(namedtuple("SatPoint", "outpoint offset")):
    __slots__ = ()

    def __str__(self):
        return f"{self.outpoint}:{self.offset}"


def check_sat(n: int) -> int:
    if not 0 <= n <= LAST_SAT:
        raise errors.OrdinalError(f"sat {n} out of range")
    return n


def start_sat_of_block(height: int) -> int:
    """Cumulative subsidy of blocks [0, height)."""
    if height < 0 or height > FINAL_SUPPLY_HEIGHT:
        raise errors.HeightBeyondSupply(str(height))
    epoch, k = divmod(height, HALVING_INTERVAL)
    return EPOCH_STARTS[epoch] + k * block_subsidy(height)


def sat_to_decimal(n: int) -> tuple[int, int]:
    """(height, offset-within-block) of a sat."""
    epoch = bisect_right(EPOCH_STARTS, check_sat(n)) - 1
    k, offset = divmod(n - EPOCH_STARTS[epoch], INITIAL_SUBSIDY >> epoch)
    return epoch * HALVING_INTERVAL + k, offset


def sat_from_decimal(height: int, offset: int) -> int:
    subsidy = block_subsidy(height)
    if offset < 0 or offset >= subsidy:
        raise errors.OffsetOutOfBlock(f"offset {offset} at height {height}")
    return start_sat_of_block(height) + offset


DECIMAL_RE = re.compile(r"([0-9]+)\.([0-9]+)")
DEGREE_RE = re.compile(r"([0-9]+)°([0-9]+)′([0-9]+)″([0-9]+)‴")
PERCENTILE_RE = re.compile(r"[0-9]+(\.[0-9]+)?%")


def render_decimal(n: int) -> str:
    height, offset = sat_to_decimal(n)
    return f"{height}.{offset}"


def parse_decimal(s: str) -> int:
    m = DECIMAL_RE.fullmatch(s)
    if not m:
        raise errors.OrdinalError(f"bad decimal notation {s!r}")
    return sat_from_decimal(int(m.group(1)), int(m.group(2)))


def render_degree(n: int) -> str:
    height, offset = sat_to_decimal(n)
    a = height // CYCLE_BLOCKS
    b = height % HALVING_INTERVAL
    c = height % DIFFICULTY_PERIOD
    return f"{a}°{b}′{c}″{offset}‴"


def parse_degree(s: str) -> int:
    m = DEGREE_RE.fullmatch(s)
    if not m:
        raise errors.OrdinalError(f"bad degree notation {s!r}")
    a, b, c, d = (int(g) for g in m.groups())
    # b fixes height mod 210000 but a cycle spans six halving epochs;
    # c (mod 2016) disambiguates which epoch within the cycle.
    for t in range(CYCLE_BLOCKS // HALVING_INTERVAL):
        height = a * CYCLE_BLOCKS + t * HALVING_INTERVAL + b
        if height % DIFFICULTY_PERIOD == c and height % HALVING_INTERVAL == b:
            return sat_from_decimal(height, d)
    raise errors.OrdinalError(f"inconsistent degree notation {s!r}")


def render_percentile(n: int) -> str:
    """Shortest truncated decimal of n/LAST*100 that parses back to n."""
    check_sat(n)
    value = Fraction(n * 100, LAST_SAT)
    for digits in range(0, 40):
        scaled = (value.numerator * 10**digits) // value.denominator
        if round(Fraction(scaled, 10**digits) * LAST_SAT / 100) == n:
            intpart, fracpart = divmod(scaled, 10**digits)
            text = str(intpart) if digits == 0 else f"{intpart}.{fracpart:0{digits}d}"
            return text + "%"
    raise AssertionError("percentile failed to round-trip")


def parse_percentile(s: str) -> int:
    if not PERCENTILE_RE.fullmatch(s):
        raise errors.BadSatQuery(f"bad percentile {s!r}")
    return check_sat(round(Fraction(s[:-1]) * LAST_SAT / 100))


ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def render_name(n: int) -> str:
    """Bijective base-26 of LAST - n + 1; names shorten toward the final sat."""
    check_sat(n)
    m = LAST_SAT - n + 1
    out = []
    while m > 0:
        m, rem = divmod(m - 1, 26)
        out.append(ALPHABET[rem])
    return "".join(reversed(out))


def parse_name(s: str) -> int:
    if not s or any(c not in ALPHABET for c in s):
        raise errors.InvalidNameChar(repr(s))
    m = 0
    for c in s:
        m = m * 26 + ALPHABET.index(c) + 1
    n = LAST_SAT - m + 1
    if n < 0:
        raise errors.NameOutOfRange(s)
    return n


def rarity(n: int) -> str:
    check_sat(n)
    if n == 0:
        return "mythic"
    height, offset = sat_to_decimal(n)
    if offset != 0:
        return "common"
    if height % CYCLE_BLOCKS == 0:
        return "legendary"
    if height % HALVING_INTERVAL == 0:
        return "epic"
    if height % DIFFICULTY_PERIOD == 0:
        return "rare"
    return "uncommon"


def parse_sat_query(s: str) -> int:
    """Accept any of the five notations."""
    s = s.strip()
    if s.isascii() and s.isdigit():
        return check_sat(int(s))
    if DEGREE_RE.fullmatch(s):
        return parse_degree(s)
    if DECIMAL_RE.fullmatch(s):
        return parse_decimal(s)
    if s.endswith("%"):
        return parse_percentile(s)
    if all(c in ALPHABET for c in s) and s:
        return parse_name(s)
    raise errors.BadSatQuery(repr(s))


def sat_info(n: int) -> dict:
    return {
        "n": n,
        "decimal": render_decimal(n),
        "degree": render_degree(n),
        "percentile": render_percentile(n),
        "name": render_name(n),
        "rarity": rarity(n),
    }


# --- FIFO range assignment ---

def prefix_sums(ranges) -> list:
    """prefix[k]: the sats in ranges[:k], for k up to len(ranges)."""
    return [0, *accumulate(map(sub, map(_END, ranges), map(_START, ranges)))]


def slice_ranges(ranges, output_values, prefix=None):
    """FIFO split: concatenated input ranges carved into outputs in order.

    Returns (per-output range lists, remainder ranges). The remainder holds
    the fee sats, in order. An output takes the next sats [lo, hi) of the
    concatenation: bisecting `prefix` (`prefix_sums(ranges)`) for hi, one
    slice of ranges with its first and last range trimmed.
    """
    if prefix is None:
        prefix = prefix_sums(ranges)
    outputs, lo, a = [], 0, 0  # ranges[a] holds sat lo, if any range does
    for value in output_values:
        if not value:
            outputs.append([])
            continue
        hi = lo + value
        b = bisect_left(prefix, hi, a + 1)  # ranges[a:b] hold sats [lo, hi)
        if b == len(prefix):
            raise errors.RangeValueMismatch("ran out of sats")
        start = ranges[a][0] + lo - prefix[a]
        if b - a == 1:
            outputs.append([(start, start + value)])
        else:
            taken = ranges[a:b]
            taken[0] = (start, taken[0][1])
            start, end = taken[-1]
            taken[-1] = (start, end - prefix[b] + hi)
            outputs.append(taken)
        lo, a = hi, b - (prefix[b] > hi)
    remainder = ranges[a:]
    if remainder:
        remainder[0] = (remainder[0][0] + lo - prefix[a], remainder[0][1])
    return outputs, remainder


def assign_ordinals(block: chain.Block, utxos) -> tuple[dict, list, list]:
    """Check a block's values and return its UTXO delta.

    Non-coinbase txs are processed in block order; each tx's fee remainder is
    appended, in order, after the freshly minted subsidy range, if any, in
    the coinbase's range pool. Returns (created, burned, fee_at): created
    maps every outpoint the block creates, spent in it or not, to its
    UtxoEntry; burned ranges arise when the coinbase claims less than
    subsidy + fees; tx k's fee starts at fee_at[k - 1] in the coinbase's
    pool. utxos, the UTXO set before the block, is any mapping of outpoint
    to UtxoEntry. An output whose outpoint is already unspent raises
    ChainError (BIP30).
    """
    subsidy = block_subsidy(block.height)
    created: dict[OutPoint, chain.UtxoEntry] = {}

    def create(tx, out_ranges):
        for i, (txout, ranges) in enumerate(zip(tx.outputs, out_ranges)):
            outpoint = OutPoint._make((tx.txid, i))  # a Transaction checks its txid
            if outpoint in utxos:
                raise errors.ChainError(f"output {outpoint} would overwrite an unspent one")
            created[outpoint] = chain.UtxoEntry(txout, ranges)

    fee_tail: list = []
    fee_at = [subsidy]
    for tx in block.txs[1:]:
        pool, spent, prefix = [], {}, [0]
        for tin in tx.inputs:
            # made earlier in the block, or unspent before it
            entry = created.get(tin.prevout) or chain.require(utxos, tin.prevout)
            ranges = entry.sat_ranges
            pool += ranges
            prefix += accumulate(map(sub, map(_END, ranges), map(_START, ranges)),
                                 initial=prefix.pop())
            if prefix[-1] - prefix[-1 - len(ranges)] != entry.txout.value:
                raise errors.RangeValueMismatch(str(tin.prevout))
            spent[tin.prevout] = entry
        fee_at.append(fee_at[-1] + chain.tx_fee(tx, spent))
        out_ranges, remainder = slice_ranges(pool, [o.value for o in tx.outputs], prefix)
        create(tx, out_ranges)
        fee_tail += remainder

    coinbase = block.txs[0]
    values = [o.value for o in coinbase.outputs]
    if sum(values) > fee_at[-1]:
        raise errors.CoinbaseOverpay(f"coinbase claims {sum(values)}, budget {fee_at[-1]}")
    if subsidy:
        start = start_sat_of_block(block.height)
        fee_tail[:0] = [(start, start + subsidy)]
    out_ranges, burned = slice_ranges(fee_tail, values)
    create(coinbase, out_ranges)
    return created, burned, fee_at


def find_sat(n: int, outputs) -> SatPoint | None:
    """Where sat n is among (outpoint, ranges) pairs, searched in order."""
    for outpoint, ranges in outputs:
        offset = 0
        for start, end in ranges:
            if start <= n < end:
                return SatPoint(outpoint, offset + n - start)
            offset += end - start
    return None


def locate_sat(n: int, utxos) -> SatPoint:
    check_sat(n)
    point = find_sat(n, ((op, e.sat_ranges) for op, e in utxos.items()))
    if point is None:
        raise errors.SatNotInUtxoSet(str(n))
    return point
