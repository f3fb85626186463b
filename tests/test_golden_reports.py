"""Byte-for-byte golden reports of `relcr check` and `relcr flags`.

Each case in tests/data/reports/cases.json names an input file <name>.json,
the command ("check" unless the case gives "command"), the extra
command-line arguments and the expected exit code; <name>.out holds the
expected stdout.  To refresh a case after an intended report change, run
`relcr <command> tests/data/reports/<name>.json [args] >
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
        command = case.get("command", "check")
        rc = main([command, str(REPORTS / f"{name}.json"), *case["args"]])
        out = capsys.readouterr().out.encode()
        same = out == (REPORTS / f"{name}.out").read_bytes()
        if rc != case["exit"] or not same:
            mismatches.append(f"{name} ({command}): exit {rc} (want {case['exit']}), stdout {'same' if same else 'differs'}")
    assert not mismatches, mismatches
