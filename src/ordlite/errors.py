"""Exception hierarchy for the indexer.

Every domain failure is a subclass of OrdliteError so callers (CLI, replay
loop) can distinguish user/protocol errors from genuine bugs.
"""


class OrdliteError(Exception):
    """Base class for all domain errors."""


class InvariantViolation(OrdliteError):
    """State broke an invariant that must always hold: a bug, not bad input."""


class CorruptSnapshot(OrdliteError):
    """Snapshot bytes that ordlite could not have written."""


# --- chain model ---

class ChainError(OrdliteError):
    pass


class MissingPrevout(ChainError):
    pass


class NegativeFee(ChainError):
    pass


class DoubleSpend(ChainError):
    pass


class CoinbaseOverpay(ChainError):
    pass


class NonMonotonicHeight(ChainError):
    pass


# --- ordinals ---

class OrdinalError(OrdliteError):
    pass


class HeightBeyondSupply(OrdinalError):
    pass


class OffsetOutOfBlock(OrdinalError):
    pass


class InvalidNameChar(OrdinalError):
    pass


class NameOutOfRange(OrdinalError):
    pass


class RangeValueMismatch(OrdinalError):
    pass


class SatNotInUtxoSet(OrdinalError):
    pass


class BadSatQuery(OrdinalError):
    pass


# --- inscription envelope ---

class EnvelopeError(OrdliteError):
    pass


class MalformedEnvelope(EnvelopeError):
    pass


class UnbalancedIf(MalformedEnvelope):
    pass


class BodyTooLarge(EnvelopeError):
    pass


# --- BRC-20 ---

class Brc20Error(OrdliteError):
    pass


class NotJson(Brc20Error):
    pass


class WrongProtocol(Brc20Error):
    pass


class UnknownOp(Brc20Error):
    pass


class MissingField(Brc20Error):
    pass


class BadAmount(Brc20Error):
    pass


class BadTick(Brc20Error):
    pass


class LimExceedsMax(Brc20Error):
    pass


class TickExists(Brc20Error):
    pass


class UnknownTick(Brc20Error):
    pass


class ExceedsLim(Brc20Error):
    pass


class ExceedsMax(Brc20Error):
    pass


class InsufficientBalance(Brc20Error):
    pass


class AlreadyUsed(Brc20Error):
    pass


class NotOwner(Brc20Error):
    pass


# --- trade / PSBT ---

class TradeError(OrdliteError):
    pass


class NotPendingTransfer(TradeError):
    pass


class InsufficientFunds(TradeError):
    pass


class BadFunding(TradeError):
    """A funding outpoint is duplicated, not the buyer's plain output, or inscribed."""


class OfferNotOpen(TradeError):
    pass


class BadSignature(TradeError):
    pass


# --- market metrics ---

class MetricsError(OrdliteError):
    pass


class TooFewPoints(MetricsError):
    pass


class ZeroVolatility(MetricsError):
    pass


class InsufficientOverlap(MetricsError):
    pass


class ZeroVariance(MetricsError):
    pass


# --- scenario compiler ---

class ActionInvalid(OrdliteError):
    def __init__(self, index, message):
        super().__init__(f"action {index}: {message}")
        self.index = index
