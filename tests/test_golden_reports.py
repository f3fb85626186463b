"""Byte-for-byte golden reports of `relcr check`.

Each case in tests/data/reports/cases.json names a scenario file
<name>.json, the extra command-line arguments and the expected exit code;
<name>.out holds the expected stdout.  To refresh a case after an intended
report change, run `relcr check tests/data/reports/<name>.json [args] >
tests/data/reports/<name>.out` and review the diff.
"""

import json
from pathlib import Path

from relcr.cli import main

REPORTS = Path(__file__).parent / "data" / "reports"


def test_check_reports_match_golden_bytes(capsys):
    cases = json.loads((REPORTS / "cases.json").read_text())
    mismatches = []
    for name, case in cases.items():
        rc = main(["check", str(REPORTS / f"{name}.json"), *case["args"]])
        out = capsys.readouterr().out.encode()
        if rc != case["exit"] or out != (REPORTS / f"{name}.out").read_bytes():
            mismatches.append(f"{name}: exit {rc} (want {case['exit']})")
    assert not mismatches, mismatches
