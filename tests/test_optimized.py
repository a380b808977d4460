"""The checks that refuse a corrupt snapshot, a block that breaks a chain
rule and a splice that strays from the full encoding hold under `python -O`,
which strips `assert` statements: each is run in a `python -O -m pytest`
subprocess. `pyproject.toml` makes every warning an error, and pytest warns
at start-up under `-O` that assertions outside test modules are ignored, so
that one warning is ignored on the command line."""

import re
import subprocess
import sys
from pathlib import Path

from test_cli import CORRUPTIONS
from test_indexer import BAD_BLOCKS

ROOT = Path(__file__).resolve().parent.parent
WRITES = "tests/test_sectioned_writes.py::"
SPLICE_TESTS = [f"{WRITES}test_multi_block_writes_equal_the_full_encoding",
                f"{WRITES}test_writes_search_inscriptions_only_for_outpoints_the_bytes_hold"]
SPLICE_CASES = 4  # the multi-block test runs once per workload, of three


def test_checks_hold_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-W", "ignore::pytest.PytestConfigWarning",
         "tests/test_cli.py::test_snapshot_load_rejects_corrupt_snapshot",
         "tests/test_indexer.py::test_chain_error_leaves_state_untouched", *SPLICE_TESTS],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    passed = re.search(r"(\d+) passed", proc.stdout)
    assert passed and int(passed[1]) == len(CORRUPTIONS) + len(BAD_BLOCKS) + SPLICE_CASES, \
        proc.stdout[-3000:]
