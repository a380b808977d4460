"""Token market statistics: returns, volatility, Sharpe ratio, correlations.

Input price series are CSV files, one per symbol, named by its stem, read as
UTF-8 with or without a byte-order mark. `load_price_csv` refuses a file, naming
it and the line, unless:

- its first row is the header `date,price` (spaces around either name are
  ignored);
- every other row has exactly two fields: a row with more, such as
  `2024-01-02,1,234.5`, is refused, as is a row with no price; blank rows are
  skipped;
- every price is a finite number, and every date, spaces around it ignored,
  is a calendar date written `YYYY-MM-DD`. Rows are checked in file order,
  dates once every price has been read.

`PriceSeries` then refuses dates that do not strictly increase and prices that
are not positive, and `report` refuses two series of one symbol. Series are
aligned by date intersection pairwise when building the correlation matrix.

Sums are `math.fsum` over lists built in the order of operations of the plain
formulas, with `** 2` for squares (libm's `pow` need not equal `x * x`), so
every float is the one those formulas give.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from datetime import date
from operator import itemgetter, le, mul
from pathlib import Path

from . import errors


@dataclass(frozen=True)
class PriceSeries:
    symbol: str
    dates: tuple
    prices: tuple

    def __post_init__(self):
        if any(map(le, self.dates[1:], self.dates)):
            raise errors.MetricsError(f"{self.symbol}: dates must strictly increase")
        if any(p <= 0 for p in self.prices):
            raise errors.MetricsError(f"{self.symbol}: prices must be positive")


@dataclass(frozen=True)
class ReturnSeries:
    symbol: str
    dates: tuple  # end date of each period
    returns: tuple


def load_price_csv(path) -> PriceSeries:
    path = Path(path)
    dates, prices = [], []
    with open(path, newline="", encoding="utf-8-sig") as fp:
        reader = csv.reader(fp)
        if [name.strip() for name in next(reader, ())] != ["date", "price"]:
            raise errors.MetricsError(f"{path}: expected 'date,price' header")
        for row in filter(None, reader):  # a blank row reads as []
            try:
                day, text = row
                price = float(text)
            except ValueError:  # not two fields, or a price float() refuses
                price = math.nan
            if not math.isfinite(price):
                if len(row) > 2:
                    raise errors.MetricsError(f"{path}: line {reader.line_num}: price {row[1]!r}"
                                              f" is followed by {len(row) - 2} more field(s)")
                text = row[1] if len(row) == 2 else None  # None: the row has no price
                raise errors.MetricsError(f"{path}: line {reader.line_num}: "
                                          f"price {text!r} is not a finite number")
            dates.append(day.strip())
            prices.append(price)
    if not _iso_dates(dates):
        index = next(i for i in range(len(dates)) if not _iso_dates(dates[i:i + 1]))
        raise errors.MetricsError(f"{path}: line {_line_of(path, index)}: date {dates[index]!r}"
                                  " is not a calendar date written YYYY-MM-DD")
    return PriceSeries(path.stem, tuple(dates), tuple(prices))


def _iso_dates(texts) -> bool:
    """Whether every text is a calendar date written `YYYY-MM-DD`."""
    try:
        list(map(date.fromisoformat, texts))
    except ValueError:
        return False
    # Of what fromisoformat takes, only YYYY-MM-DD and YYYY-Www-D have ten
    # characters, and only the first has a '-' at index 7.
    return {*map(len, texts)} <= {10} and {*map(itemgetter(7), texts)} <= {"-"}


def _line_of(path: Path, index: int) -> int:
    """The line that ends the index-th row after the header, blank rows not counted."""
    with open(path, newline="", encoding="utf-8-sig") as fp:
        reader = csv.reader(fp)
        for _ in itertools.islice(filter(None, reader), index + 2):
            pass
        return reader.line_num


def daily_returns(series: PriceSeries) -> ReturnSeries:
    if len(series.prices) < 2:
        raise errors.TooFewPoints(series.symbol)
    rets = tuple([(b - a) / a for a, b in zip(series.prices, series.prices[1:])])
    return ReturnSeries(series.symbol, series.dates[1:], rets)


def average_return(rs: ReturnSeries) -> float:
    if not rs.returns:
        raise errors.TooFewPoints(rs.symbol)
    return math.fsum(rs.returns) / len(rs.returns)


def volatility(rs: ReturnSeries, mean: float | None = None) -> float:
    """Sample standard deviation (n-1 denominator) of the returns.

    `mean` is `average_return(rs)`, when the caller has it already.
    """
    n = len(rs.returns)
    if n < 2:
        raise errors.TooFewPoints(rs.symbol)
    if mean is None:
        mean = average_return(rs)
    return math.sqrt(math.fsum([(r - mean) ** 2 for r in rs.returns]) / (n - 1))


def sharpe_ratio(avg: float, risk_free: float, stdev: float) -> float:
    if stdev <= 0:
        raise errors.ZeroVolatility(str(stdev))
    return (avg - risk_free) / stdev


def cumulative_return(series: PriceSeries) -> float:
    if len(series.prices) < 2:
        raise errors.TooFewPoints(series.symbol)
    return series.prices[-1] / series.prices[0] - 1


def pearson(xs, ys) -> float:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    sxx = math.fsum([d ** 2 for d in dx])
    syy = math.fsum([d ** 2 for d in dy])
    if sxx == 0 or syy == 0:
        raise errors.ZeroVariance("constant series has undefined correlation")
    sxy = math.fsum(map(mul, dx, dy))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def correlation_matrix(return_series: list[ReturnSeries]) -> dict:
    """Pairwise-complete Pearson matrix over date intersections.

    Cells with undefined correlation (constant overlap) are None; pairs with
    fewer than 3 shared dates raise InsufficientOverlap.
    """
    matrix = {}
    by_date = [dict(zip(rs.dates, rs.returns)) for rs in return_series]
    for i, a in enumerate(return_series):
        matrix[(a.symbol, a.symbol)] = 1.0
        for j in range(i + 1, len(return_series)):
            b = return_series[j]
            shared = [d for d in a.dates if d in by_date[j]]
            if len(shared) < 3:
                raise errors.InsufficientOverlap(f"{a.symbol}/{b.symbol}")
            xs = [by_date[i][d] for d in shared]
            ys = [by_date[j][d] for d in shared]
            try:
                r = pearson(xs, ys)
            except errors.ZeroVariance:
                r = None
            matrix[(a.symbol, b.symbol)] = r
            matrix[(b.symbol, a.symbol)] = r
    return matrix


def report(series_list: list[PriceSeries], risk_free: float = 0.0) -> dict:
    if not math.isfinite(risk_free):
        raise errors.MetricsError(f"risk-free rate {risk_free!r} is not a finite number")
    per_symbol = {}
    returns = []
    for series in series_list:
        if series.symbol in per_symbol:
            raise errors.MetricsError(f"two series are named {series.symbol!r}")
        rs = daily_returns(series)
        returns.append(rs)
        avg = average_return(rs)
        vol = volatility(rs, avg) if len(rs.returns) >= 2 else None
        per_symbol[series.symbol] = {
            "avg": avg, "cumulative": cumulative_return(series), "vol": vol,
            "sharpe": sharpe_ratio(avg, risk_free, vol) if vol else None}
    correlation = {}
    if len(returns) > 1:
        matrix = correlation_matrix(returns)
        for (a, b), r in sorted(matrix.items()):
            if a < b:
                correlation[f"{a}/{b}"] = r
    return {"risk_free": risk_free, "per_symbol": per_symbol,
            "correlation": correlation}
