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


def test_reports_unchanged_under_benchmark_tracer(capsys):
    # the benchmark's traced mode wraps relcr functions by name and patches
    # SubspacePool.add; a refactor that deletes or re-signatures a traced name
    # breaks that mode, and this test with it
    import importlib.util

    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("relcr_bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = json.loads((REPORTS / "cases.json").read_text())
    tracer = module.Tracer()
    try:
        tracer.install()
        for name in ("torus_rank3_levi", "g2_parabolic"):
            rc = main(["check", str(REPORTS / f"{name}.json")])
            out = capsys.readouterr().out.encode()
            assert (rc, out) == (cases[name]["exit"], (REPORTS / f"{name}.out").read_bytes())
    finally:
        tracer.uninstall()
    assert tracer.counts()["pool_add_attempts"] > 0
