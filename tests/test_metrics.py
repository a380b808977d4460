import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlite import errors, metrics
from ordlite.metrics import (PriceSeries, ReturnSeries, average_return,
                             correlation_matrix, daily_returns, pearson,
                             sharpe_ratio, volatility)


def series(symbol, prices, start=1):
    dates = [f"2023-05-{d:02d}" for d in range(start, start + len(prices))]
    return PriceSeries(symbol, tuple(dates), tuple(prices))


def test_series_validation():
    with pytest.raises(errors.MetricsError):
        PriceSeries("x", ("2023-05-02", "2023-05-01"), (1.0, 2.0))
    with pytest.raises(errors.MetricsError):
        PriceSeries("x", ("2023-05-01", "2023-05-02"), (1.0, -2.0))


def test_daily_returns():
    rs = daily_returns(series("x", [100, 110]))
    assert rs.returns == (0.10,)
    rs = daily_returns(series("x", [100, 110, 99]))
    assert rs.returns[0] == pytest.approx(0.10)
    assert rs.returns[1] == pytest.approx(-0.10)
    assert daily_returns(series("x", [5, 5, 5])).returns == (0.0, 0.0)
    with pytest.raises(errors.TooFewPoints):
        daily_returns(series("x", [100]))


def test_average_and_volatility():
    rs = ReturnSeries("x", ("a", "b"), (0.10, -0.10))
    assert average_return(rs) == 0.0
    rs2 = ReturnSeries("x", ("a", "b"), (0.01, 0.03))
    assert average_return(rs2) == pytest.approx(0.02)
    # oracle: closed form sqrt(sum((r-mean)^2)/(n-1))
    expected = math.sqrt(((0.01 - 0.02) ** 2 + (0.03 - 0.02) ** 2) / 1)
    assert volatility(rs2) == pytest.approx(expected)
    assert volatility(ReturnSeries("x", ("a", "b"), (0.02, 0.02))) == 0.0
    with pytest.raises(errors.TooFewPoints):
        volatility(ReturnSeries("x", ("a",), (0.01,)))


def test_sharpe_ratio():
    assert sharpe_ratio(0.01, 0, 0.02) == 0.5
    assert sharpe_ratio(0.01, 0.01, 0.02) == 0.0
    with pytest.raises(errors.ZeroVolatility):
        sharpe_ratio(0.01, 0, 0.0)


def test_sharpe_shift_covariance():
    # exact under rational arithmetic; sharpe_ratio is generic over numerics
    from fractions import Fraction as F

    avg, rf, s = F("0.01"), F("0.002"), F("0.03")
    for c in (F("0.001"), F("-0.05"), F(1)):
        assert sharpe_ratio(avg + c, rf + c, s) == sharpe_ratio(avg, rf, s)


def test_correlation_self_and_negation():
    a = daily_returns(series("a", [100, 110, 99, 105, 111]))
    neg = ReturnSeries("b", a.dates, tuple(-r for r in a.returns))
    m = correlation_matrix([a, neg])
    assert m[("a", "a")] == 1.0
    assert m[("b", "b")] == 1.0
    assert m[("a", "b")] == pytest.approx(-1.0)
    assert m[("a", "b")] == m[("b", "a")]


def test_correlation_brute_force_oracle():
    xs = [0.01, -0.02, 0.005, 0.03, -0.01]
    ys = [0.02, 0.01, -0.01, 0.00, 0.015]
    n = len(xs)
    # direct sigma-formula oracle
    sx, sy = sum(xs), sum(ys)
    sxy = sum(x * y for x, y in zip(xs, ys))
    sxx = sum(x * x for x in xs)
    syy = sum(y * y for y in ys)
    expected = (n * sxy - sx * sy) / math.sqrt(
        (n * sxx - sx * sx) * (n * syy - sy * sy))
    assert pearson(xs, ys) == pytest.approx(expected, rel=1e-12)


def test_correlation_alignment_by_intersection():
    a = daily_returns(series("a", [100, 110, 99, 105, 111, 120, 115], start=1))
    b = daily_returns(series("b", [50, 55, 49, 52, 56], start=3))
    m = correlation_matrix([a, b])
    # return dates overlap on days 4..7; oracle over the shared window
    shared_a = a.returns[2:6]
    shared_b = b.returns[:4]
    assert m[("a", "b")] == pytest.approx(pearson(list(shared_a), list(shared_b)))


def test_insufficient_overlap():
    a = daily_returns(series("a", [1, 2, 3], start=1))
    b = daily_returns(series("b", [1, 2, 3], start=20))
    with pytest.raises(errors.InsufficientOverlap):
        correlation_matrix([a, b])


def test_constant_series_reported_missing():
    a = daily_returns(series("a", [100, 110, 99, 105]))
    flat = daily_returns(series("b", [7, 7, 7, 7]))
    m = correlation_matrix([a, flat])
    assert m[("a", "b")] is None


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.001, max_value=1e6),
       st.lists(st.floats(min_value=0.1, max_value=1000), min_size=4,
                max_size=20))
def test_scale_invariance(k, prices):
    base = series("x", prices)
    scaled = series("x", [p * k for p in prices])
    ra, rb = daily_returns(base), daily_returns(scaled)
    for x, y in zip(ra.returns, rb.returns):
        assert x == pytest.approx(y, rel=1e-12, abs=1e-15)
    assert average_return(ra) == pytest.approx(average_return(rb), rel=1e-12,
                                               abs=1e-15)
    assert volatility(ra) == pytest.approx(volatility(rb), rel=1e-12, abs=1e-15)


def test_report_shape(tmp_path):
    f = tmp_path / "tok.csv"
    f.write_text("date,price\n2023-05-01,100\n2023-05-02,110\n2023-05-03,99\n")
    loaded = metrics.load_price_csv(f)
    assert loaded.symbol == "tok"
    rep = metrics.report([loaded], risk_free=0.0)
    entry = rep["per_symbol"]["tok"]
    assert entry["cumulative"] == pytest.approx(-0.01)
    assert entry["sharpe"] == pytest.approx(
        sharpe_ratio(entry["avg"], 0.0, entry["vol"]))


def test_report_without_volatility_or_sharpe():
    two_prices = series("two", [100, 110])  # one return: no sample deviation
    flat = series("flat", [7, 7, 7])  # zero volatility: no Sharpe ratio
    for s, vol in ((two_prices, None), (flat, 0.0)):
        entry = metrics.report([s])["per_symbol"][s.symbol]
        assert (entry["vol"], entry["sharpe"]) == (vol, None)


def test_load_csv_bad_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("day,close\n2023-05-01,100\n")
    with pytest.raises(errors.MetricsError):
        metrics.load_price_csv(f)


def test_load_csv_header_with_spaces(tmp_path):
    rows = "2023-05-01,100\n2023-05-02,110\n"
    for name, header in (("spaced", "date, price"), ("plain", "date,price")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ordi.csv").write_text(f"{header}\n{rows}")
    assert metrics.load_price_csv(tmp_path / "spaced" / "ordi.csv") == \
        metrics.load_price_csv(tmp_path / "plain" / "ordi.csv")


@pytest.mark.parametrize("row", ["2023-05-02", "2023-05-02,abc", "2023-05-02,nan",
                                 "2023-05-02,inf", "2023-05-02,1,234.5"],
                         ids=["no_price", "not_a_number", "nan", "inf", "extra_field"])
def test_load_csv_bad_row_names_file_and_line(tmp_path, row):
    f = tmp_path / "bad.csv"
    f.write_text(f"date,price\n2023-05-01,100\n{row}\n2023-05-03,99\n")
    with pytest.raises(errors.MetricsError, match=r"bad\.csv: line 3: price "):
        metrics.load_price_csv(f)

