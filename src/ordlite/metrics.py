"""Token market statistics: returns, volatility, Sharpe ratio, correlations.

Input price series are CSV files with a `date,price` header (spaces around
either name are ignored), ISO-8601 dates, one file per symbol, named by its
stem; `report` refuses two series of one symbol. Series are aligned by date
intersection pairwise when building the correlation matrix.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from . import errors


@dataclass(frozen=True)
class PriceSeries:
    symbol: str
    dates: tuple
    prices: tuple

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
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
    with open(path, newline="") as fp:
        reader = csv.DictReader(fp)
        names = [f.strip() for f in reader.fieldnames or ()]
        if names != ["date", "price"]:
            raise errors.MetricsError(f"{path}: expected 'date,price' header")
        reader.fieldnames = names  # key rows by the stripped names
        for row in reader:
            try:  # float(None) raises TypeError: the row has no price field
                prices.append(float(row["price"]))
            except (TypeError, ValueError):
                prices.append(math.nan)
            if not math.isfinite(prices[-1]):
                raise errors.MetricsError(f"{path}: line {reader.line_num}: "
                                          f"price {row['price']!r} is not a finite number")
            dates.append(row["date"].strip())
    return PriceSeries(path.stem, tuple(dates), tuple(prices))


def daily_returns(series: PriceSeries) -> ReturnSeries:
    if len(series.prices) < 2:
        raise errors.TooFewPoints(series.symbol)
    rets = tuple((b - a) / a for a, b in zip(series.prices, series.prices[1:]))
    return ReturnSeries(series.symbol, series.dates[1:], rets)


def average_return(rs: ReturnSeries) -> float:
    if not rs.returns:
        raise errors.TooFewPoints(rs.symbol)
    return math.fsum(rs.returns) / len(rs.returns)


def volatility(rs: ReturnSeries) -> float:
    """Sample standard deviation (n-1 denominator) of the returns."""
    n = len(rs.returns)
    if n < 2:
        raise errors.TooFewPoints(rs.symbol)
    mean = average_return(rs)
    return math.sqrt(math.fsum((r - mean) ** 2 for r in rs.returns) / (n - 1))


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
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        raise errors.ZeroVariance("constant series has undefined correlation")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
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
        vol = volatility(rs) if len(rs.returns) >= 2 else None
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
