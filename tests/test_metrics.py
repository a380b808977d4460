import csv
import datetime
import hashlib
import importlib
import math
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
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



def dictreader_load(path) -> PriceSeries:
    """The `csv.DictReader` loader that `load_price_csv` replaced, kept verbatim
    as the oracle of its rules and messages; it has no date or encoding rule."""
    path = Path(path)
    dates, prices = [], []
    with open(path, newline="") as fp:
        reader = csv.DictReader(fp)
        names = [f.strip() for f in reader.fieldnames or ()]
        if names != ["date", "price"]:
            raise errors.MetricsError(f"{path}: expected 'date,price' header")
        reader.fieldnames = names  # key rows by the stripped names
        for row in reader:
            if None in row:  # DictReader keys the fields past the header's by None
                raise errors.MetricsError(f"{path}: line {reader.line_num}: price {row['price']!r}"
                                          f" is followed by {len(row[None])} more field(s)")
            try:  # float(None) raises TypeError: the row has no price field
                prices.append(float(row["price"]))
            except (TypeError, ValueError):
                prices.append(math.nan)
            if not math.isfinite(prices[-1]):
                raise errors.MetricsError(f"{path}: line {reader.line_num}: "
                                          f"price {row['price']!r} is not a finite number")
            dates.append(row["date"].strip())
    return PriceSeries(path.stem, tuple(dates), tuple(prices))


def outcome(load, path):
    try:
        return load(path)
    except errors.OrdliteError as exc:
        return type(exc), str(exc)


HEADERS = st.sampled_from(["date,price", " date , price ", "date,price,", "price,date",
                           "date", '"date","price"', ""])
PRICES = st.sampled_from(["1", "2.5", " 3.25 ", "1e3", "-1", "0", "nan", "inf", "-inf",
                          "abc", "", "1,5", '"7.5"', '"1\n"'])
# a data row: a date kind, a price, the fields after it, and whether the date
# has spaces around it, is quoted, or is all the row has; or a blank row (None)
ROWS = st.one_of(st.none(), st.tuples(st.sampled_from(["next", "same", "back"]), PRICES,
                                      st.lists(st.sampled_from(["x", "", "9"]), max_size=2),
                                      st.booleans(), st.booleans(), st.booleans()))


def csv_text(header, rows) -> str:
    lines, day = [header], datetime.date(2023, 12, 30)
    for row in rows:
        if row is None:
            lines.append("")
            continue
        kind, price, extra, spaced, quoted, no_price = row
        day += datetime.timedelta(days={"next": 1, "same": 0, "back": -1}[kind])
        text = f" {day.isoformat()} " if spaced else day.isoformat()
        text = f'"{text}"' if quoted else text
        lines.append(text if no_price else ",".join([text, price, *extra]))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(HEADERS, st.lists(ROWS, max_size=8))
def test_loader_agrees_with_the_dictreader_loader(tmp_path, header, rows):
    path = tmp_path / "tok.csv"
    path.write_text(csv_text(header, rows), encoding="ascii")
    assert outcome(metrics.load_price_csv, path) == outcome(dictreader_load, path)


def test_loader_differential_reaches_every_outcome(tmp_path):
    """The generator's rows reach each message of the loader and of PriceSeries."""
    path = tmp_path / "tok.csv"
    cases = {
        "header": ("date", []),
        "accepted": ("date,price", [None, ("next", "1", [], True, True, False),
                                    ("next", '"7.5"', [], False, False, False)]),
        "more fields": ("date,price", [("next", "1", ["x"], False, False, False)]),
        "no price": ("date,price", [None, ("next", "1", [], False, False, True)]),
        "not finite": ("date,price", [("next", "1", [], False, False, False),
                                      ("next", '"1\n"', [], False, False, False),
                                      ("next", "nan", [], False, False, False)]),
        "increase": ("date,price", [("next", "1", [], False, False, False),
                                    ("same", "1", [], False, False, False)]),
        "positive": ("date,price", [("next", "0", [], False, False, False)]),
    }
    seen = {}
    for name, (header, rows) in cases.items():
        path.write_text(csv_text(header, rows), encoding="ascii")
        got = outcome(metrics.load_price_csv, path)
        assert got == outcome(dictreader_load, path)
        seen[name] = got
    assert isinstance(seen.pop("accepted"), PriceSeries)
    assert [message.partition(": ")[2] for _, message in seen.values()] == [
        "expected 'date,price' header", "line 2: price '1' is followed by 1 more field(s)",
        "line 3: price None is not a finite number", "line 5: price 'nan' is not a finite number",
        "dates must strictly increase", "prices must be positive"]


@pytest.mark.parametrize("day", ["2024-1-9", "20240109", "2024-W02-2", "2024W02", "2024-02-30",
                                 "2024-01-09T00", "09/01/2024", ""],
                         ids=["unpadded", "basic", "week_day", "week", "no_such_day",
                              "with_time", "slashed", "empty"])
def test_load_csv_refuses_a_date_that_is_not_iso(tmp_path, day):
    f = tmp_path / "bad.csv"
    f.write_text(f"date,price\n2024-01-08,1\n\n\"2024-01-09\n\",2\n{day},3\n2024-01-11,4\n")
    with pytest.raises(errors.MetricsError) as info:
        metrics.load_price_csv(f)
    # the blank row and the quoted line break both count as lines
    assert str(info.value) == (f"{f}: line 6: date {day!r} is not a calendar date "
                               "written YYYY-MM-DD")


def test_load_csv_unpadded_dates_are_not_iso_before_they_are_out_of_order(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("date,price\n2024-1-9,1\n2024-1-10,2\n2024-1-11,3\n")
    with pytest.raises(errors.MetricsError, match=r"line 2: date '2024-1-9' is not a calendar"):
        metrics.load_price_csv(f)


def test_load_csv_reads_utf8_with_or_without_a_byte_order_mark(tmp_path):
    text = "date,price\n2024-01-08,1\n2024-01-09,2\n"
    for name, data in (("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).mkdir()
        (tmp_path / name / "ordi.csv").write_bytes(data)
    assert metrics.load_price_csv(tmp_path / "bom" / "ordi.csv") == \
        metrics.load_price_csv(tmp_path / "plain" / "ordi.csv")


BENCH = Path(__file__).resolve().parent.parent / "bench"
# sha256 of `ordlite metrics --risk-free 0.0001` on the price CSVs of cli_mix
# seed 1000, chains 0-3, as the DictReader loader and its report printed them
METRICS_OUTPUT_SHA256 = [
    "a99d63ae3613736e625f33428efa5b94db74696ef74031890b29b842e6894c0b",
    "6ec90f3f5edaf40c9cbd59e82589e8b526b28708bcf81590b58790fb5b42d8ce",
    "13347fb183611e86c587ed21c1e06841ab2de76591cb60fd1ec02259926e0558",
    "8341c95815d16ee330e294410014585cbbb4dd3a3602479c2e567bb6e8a52069",
]


def test_metrics_output_on_the_benchmark_csvs_is_pinned(monkeypatch, tmp_path):
    from ordlite.cli import cli
    monkeypatch.syspath_prepend(str(BENCH))
    session = importlib.import_module("session")
    for k, want in enumerate(METRICS_OUTPUT_SHA256):
        inputs = session.setup_chain("cli_mix", 1000, k, tmp_path / f"chain{k}")
        result = CliRunner().invoke(cli, ["metrics", "--risk-free", "0.0001",
                                          *map(str, inputs.csvs)])
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(result.output.encode()).hexdigest() == want, k
