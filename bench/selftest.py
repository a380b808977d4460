"""Tiny-size self-test of the benchmark itself. Run from the repository root:

    python3 bench/selftest.py

Shows that the generators are deterministic for a seed, that a chain's CLI
ops recur exactly, that a tampered snapshot and a wrong CLI answer are
counted as failed, and that the span self-time and speed-scaling arithmetic
are right. Takes a few seconds; exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import session  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from ordlite import cli  # noqa: E402

WORK = ROOT / ".bench_out" / "selftest"
FAILURES = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def tiny_sizes() -> None:
    wl.TRANSFER_WEB = {"holders": 4, "mints": 8, "rounds": 12}
    wl.CLI_MIX = {"holders": 4, "mints": 8, "rounds": 12}
    wl.RANGE_SHRED = {"blocks": 30, "txs": 6, "wallets": 4}


def inputs_bytes(workload: str, seed: int, tag: str) -> bytes:
    out = b""
    for inputs in session.setup(workload, seed, WORK / tag):
        files = [inputs.blocks_path, *(p for p, _ in inputs.extensions), *inputs.csvs]
        out += json.dumps(inputs.script).encode() + b"".join(p.read_bytes() for p in files)
    return out


def test_determinism() -> None:
    for workload in ("transfer_web", "range_shred", "cli_mix"):
        first = inputs_bytes(workload, 7, f"{workload}-a")
        again = inputs_bytes(workload, 7, f"{workload}-b")
        other = inputs_bytes(workload, 8, f"{workload}-c")
        check(first == again, f"{workload}: same seed gives the same inputs")
        check(first != other, f"{workload}: another seed gives other inputs")
        chains = session.setup(workload, 7, WORK / f"{workload}-d")
        blocks = {c.blocks_path.read_bytes() for c in chains}
        check(len(blocks) == len(chains) == session.CHAINS[workload],
              f"{workload}: the {len(chains)} chains of a run differ")


def test_clean_round_passes() -> None:
    for workload in ("transfer_web", "range_shred", "cli_mix"):
        sess = session.Session(session.setup(workload, 3, WORK / workload), WORK / workload)
        sess.round()
        check(sess.failed == 0 and sess.attempted == len(session.OPS[workload]) + 1,
              f"{workload}: an untouched round has no failures ({sess.failures})")


def test_ops_repeat() -> None:
    inputs = session.setup("cli_mix", 3, WORK / "repeat")[:1]
    sess = session.Session(inputs, WORK / "repeat")
    argvs = []
    invoke = sess.runner.invoke
    sess.runner.invoke = lambda command, argv: (argvs.append(argv), invoke(command, argv))[1]
    variants, ops = session.VARIANTS["cli_mix"], len(session.OPS["cli_mix"])
    for _ in range(variants + 1):
        sess.round()
    rounds = [argvs[r * ops:(r + 1) * ops] for r in range(variants + 1)]
    check(rounds[variants] == rounds[0] and rounds[1] != rounds[0] and sess.failed == 0,
          f"a chain's CLI ops recur after {variants} rounds and differ between variants")
    times = {**sess.read_times, **sess.write_times}
    check(len(times) == variants * ops
          and sorted(len(t) for t in times.values()) == [1] * (variants - 1) * ops + [2] * ops,
          "each recurring op is timed under one key")


class TamperedSession(session.Session):
    """Changes one holder's balance in the saved snapshot after indexing."""

    def _index_job(self):
        state = super()._index_job()
        path = cli.snapshot_path(self.data_dir)
        snap = json.loads(path.read_text())
        balances = snap["brc20"]["balances"][wl.TICK]
        holder = sorted(balances)[0]
        balances[holder] = str(int(balances[holder].split(".")[0]) + 1)
        path.write_text(json.dumps(snap))
        return state


def test_tampered_snapshot_fails() -> None:
    inputs = session.setup("cli_mix", 3, WORK / "tamper")
    sess = TamperedSession(inputs, WORK / "tamper")
    sess.round()
    check(sess.failed > 0, f"tampered snapshot: {sess.failed} of {sess.attempted} failed")
    check(any("snapshot hash" in f for f in sess.failures),
          "tampered snapshot: the save -> load hash check catches it")


def test_wrong_answer_fails() -> None:
    inputs = session.setup("cli_mix", 3, WORK / "wrong")
    sess = session.Session(inputs, WORK / "wrong")
    original = cli.emit
    cli.emit = lambda obj: original({"wrong": True})
    try:
        sess.round()
    finally:
        cli.emit = original
    ops = len(session.OPS["cli_mix"])
    check(sess.failed == ops, f"wrong CLI answers: {sess.failed} of {ops} ops failed")

    wrong_model = [session.Inputs(**{**vars(inputs[0]), "check": lambda state: ["no"]})]
    sess = session.Session(wrong_model, WORK / "wrong")
    sess.round()
    check(sess.failed == 1, "a model mismatch after indexing counts as one failed op")


def test_self_time() -> None:
    tracer = spans.Tracer()
    # A [0, 100) holds B [10, 40) and C [50, 60); B holds D [15, 25).
    tracer.spans = [("A", 0, 100, -1, 1), ("B", 10, 40, 0, 1),
                    ("D", 15, 25, 1, 1), ("C", 50, 60, 0, 2), ("B", 70, 80, 0, 2)]
    totals = tracer.totals()
    expect = {"A": 50e-9, "B": 30e-9, "C": 10e-9, "D": 10e-9}
    check(all(abs(totals[k]["self_s"] - v) < 1e-15 for k, v in expect.items())
          and totals["B"]["calls"] == 2, f"self time = span minus children: {totals}")
    only_op2 = tracer.totals(lambda op: op == 2)
    check(set(only_op2) == {"C", "B"} and only_op2["B"]["calls"] == 1,
          "totals can be restricted by op id")

    class Box:
        def method(self, x):
            return x + 1

        @classmethod
        def make(cls, x):
            return cls.method(cls(), x)

    tracer = spans.Tracer()
    tracer.patch(Box, "method", "box.method")
    tracer.patch(Box, "make", "box.make")
    check(Box.make(1) == 2, "wrapped method and classmethod still work")
    spans_seen = [(s[0], s[3]) for s in tracer.spans]
    check(spans_seen == [("box.make", -1), ("box.method", 0)],
          f"nested calls record their parent: {spans_seen}")
    tracer.restore()
    check(Box.__dict__["method"].__name__ == "method"
          and isinstance(Box.__dict__["make"], classmethod), "restore puts originals back")


def test_speed_scale() -> None:
    timings = iter([2e-3, 2e-3, 4e-3])
    original = session.reference_s
    session.reference_s = lambda: next(timings)
    try:
        speed = session.SpeedScale()
        first, second = [], []
        speed.add(0.010, first, second)
        speed.add(0.020, first)
        speed.calibrate()  # between reference timings of 2 ms and 2 ms
        speed.add(0.030, first)
        speed.calibrate()  # between 2 ms and 4 ms
    finally:
        session.reference_s = original
    r = session.REF_S
    expect = [0.010 * r / 2e-3, 0.020 * r / 2e-3, 0.030 * r / 3e-3]
    check(all(abs(g - e) < 1e-12 for g, e in zip(first, expect)) and len(first) == 3
          and second == first[:1],
          f"times are scaled by REF_S over the mean of their two reference timings: {first}")


def test_percentile() -> None:
    value, beyond = session.percentile(range(1, 1001), 99)
    check((value, beyond) == (990, 10), f"p99 of 1..1000 is 990 with 10 above: {value, beyond}")
    value, beyond = session.percentile(range(1, 201), 95)
    check((value, beyond) == (190, 10), f"p95 of 1..200 is 190 with 10 above: {value, beyond}")


def main() -> int:
    tiny_sizes()
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        test_determinism()
        test_clean_round_passes()
        test_ops_repeat()
        test_tampered_snapshot_fails()
        test_wrong_answer_fails()
        test_self_time()
        test_speed_scale()
        test_percentile()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
