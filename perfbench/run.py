"""Benchmark of `relcr check`, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports relcr from ./src and writes
scratch files under ./.perfbench_work, which it removes again.

Workloads (see scenarios.py for the generators and their verdicts):
- torus_cli: each op is one cold `relcr check` child on a torus scenario;
- structured_cli: each op is one cold `relcr check` child on a glu,
  classical or g2 scenario;
- torus_batch: one process; each op is one relcr_torus_crosscheck(h, k)
  library call on a fixed torus whose enumeration was warmed in set-up.

Load is a closed loop with one client: at most one relcr child at a time,
and RELCR_THREADS is removed from the environment.  A run makes a seeded
round of scenarios and runs it whole, as many times as fit in --seconds of
op time, at least once.  Every verdict is compared with the verdict its
construction fixes, every repeat of a scenario must print the bytes of its
first op, and classical refutations are rechecked from the emitted JSON with
structcr.recheck_refutation, outside the timed interval.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round untraced
and the same round traced (tracer.py), then prints the per-layer metrics:
totals over that traced round.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import scenarios
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # at least, and at least SETUP_MIN_S of set-up in all
SETUP_MIN_S = 2.0
OP_TIMEOUT_S = 120
PROBE_REF_S = 0.0016  # the speed probe's time at full speed on the reference VM
EXIT_VERDICT = {0: "relcr", 1: "not_relcr", 2: "inconclusive"}

END_TO_END = {
    "check_p50_s": "s",
    "check_tail_s": "s",
    "checks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "jsonio.calls": "count",
    "jsonio.s": "s",
    "jsonio.self_s": "s",
}
for _module, _funcs in tracing.SPANNED.items():
    for _func in _funcs:
        _name = tracing.span_name(_module, _func)
        PER_LAYER[f"{_name}.calls"] = "count"
        PER_LAYER[f"{_name}.s"] = "s"
    PER_LAYER[f"{_module}.self_s"] = "s"
PER_LAYER.update(
    {
        "toruscr.flag_types": "count",
        "toruscr.minimal_types": "count",
        "toruscr.fm_feasible_ratio": "ratio",
        "toruscr.cache_hit_ratio.enumerate_flag_types": "ratio",
        "toruscr.cache_hit_ratio.flag_of_type": "ratio",
        "toruscr.cache_hit_ratio.pieces_of_type": "ratio",
        "toruscr.cache_entries": "count",
        "structcr.seeds": "count",
        "structcr.seed_lines": "count",
        "structcr.acting": "count",
        "structcr.acting_distinct": "count",
        "structcr.pool_members": "count",
        "structcr.family_dim_max": "count",
        "structcr.refutations_unrechecked": "count",
        "structcr.pool_add_ratio": "ratio",
        "structcr.pool_closed_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
        "trace.remainder_s": "s",
    }
)


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    index: int  # position in the round
    wall: float
    rc: int  # exit code; -1 for a crash or timeout
    out: bytes  # the report bytes, dropped once checked
    rss_kb: int = 0
    detail: str = ""
    spans: str = ""  # dump file of a traced child
    speed: float = 1.0  # the machine's slowness around the op, see Speedometer
    out_len: int = 0

    @property
    def time(self) -> float:
        """Wall time scaled to the reference speed."""
        return self.wall / self.speed


def probe_s() -> float:
    """Best of two runs of a fixed loop of Fraction arithmetic, the kind of
    work relcr does.  The garbage collector is paused, so that the probe does
    not pay for a collection of the benchmark's own heap."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 400):
                acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Speedometer:
    """The machine's slowness over each timed interval.

    The host of a small VM runs at changing speed: identical work takes up to
    1.9 times as long, in phases of 1-20 s.  The probe is timed between every
    two intervals, and an interval is divided by the mean of the probes just
    before and just after it, over PROBE_REF_S, to scale it to the reference
    speed.  Each probe serves as the "after" of one interval and the "before"
    of the next.  (Weighting in the run's median probe for long intervals
    made the runs less steady, not more.)"""

    def __init__(self):
        self.last = probe_s()

    def factor(self) -> float:
        now = probe_s()
        f = (self.last + now) / (2 * PROBE_REF_S)
        self.last = now
        return f


# ---------------------------------------------------------------------------
# running ops


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("RELCR_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, workdir: Path, env) -> tuple:
    """Spawn argv and wait for it, killing it after OP_TIMEOUT_S.  Returns
    (seconds from spawn to exit, exit code or -1 on a signal or timeout,
    stdout, stderr, the child's maxrss in KiB)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], OP_TIMEOUT_S)
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:  # interrupted before the child was reaped
                proc.kill()
                proc.wait()
    rc = proc.returncode if ready and proc.returncode >= 0 else -1
    return wall, rc, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


class CliWorkload:
    """Ops are `relcr check` children on scenario files."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.env = child_env()

    def setup(self):
        """A generator: each yield ends a step of the set-up."""
        self.round = scenarios.ROUNDS[self.name](self.seed)
        self.paths = []
        for sc in self.round:
            path = self.workdir / f"{sc['name']}.json"
            path.write_text(json.dumps(sc["scenario"]))
            self.paths.append(path)
        yield
        # one cold child compiles and caches relcr's bytecode, as an
        # installed package would have it
        _, rc, _, err, _ = run_child(self._argv(0), self.workdir, self.env)
        if rc not in EXIT_VERDICT:
            raise SetupError(f"warm-up child failed with exit {rc}: {err.decode(errors='replace')[-500:]}")

    def _argv(self, index):
        return [sys.executable, "-m", "relcr", "check", str(self.paths[index])]

    def run_op(self, index, traced=False) -> Op:
        if traced:
            spans = str(self.workdir / f"spans-{index}.bin")
            argv = [sys.executable, str(HERE / "traced_check.py"), spans, "check", str(self.paths[index])]
        else:
            spans, argv = "", self._argv(index)
        wall, rc, out, err, rss = run_child(argv, self.workdir, self.env)
        detail = "" if rc in EXIT_VERDICT else f"exit {rc} (-1: timeout or signal): {err.decode(errors='replace')[-300:]}"
        return Op(index, wall, rc, out, rss, detail, spans)


class BatchWorkload:
    """Ops are in-process relcr_torus_crosscheck calls."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed = name, seed

    def setup(self):
        """A generator: each yield ends a step of the set-up."""
        from relcr import jsonio
        from relcr.flags import GroupH
        from relcr.toruscr import TorusK, enumerate_flag_types, minimal_flags

        self.round = scenarios.ROUNDS[self.name](self.seed)
        self.cases = []
        for sc in self.round:
            d = sc["scenario"]
            n = d["ambient_dim"]
            h = GroupH(n, tuple(jsonio.matrix_from_json(g) for g in d["h"]["generators"]))
            self.cases.append((h, TorusK.of(n, d["k"]["lattice_basis"])))
        enumerate_flag_types.cache_clear()
        minimal_flags.cache_clear()
        yield
        for lattice in scenarios.BATCH_TORI:
            k = TorusK.of(len(lattice[0]), lattice)
            enumerate_flag_types(k)
            yield
            minimal_flags(k)
            yield

    def run_op(self, index, traced=False) -> Op:
        from relcr.toruscr import relcr_torus_crosscheck

        h, k = self.cases[index]
        t0 = time.perf_counter()
        try:
            rep = relcr_torus_crosscheck(h, k)
        except Exception:  # a crash is a failed op, not a failed run
            return Op(index, time.perf_counter() - t0, -1, b"", detail=traceback.format_exc()[-800:])
        wall = time.perf_counter() - t0
        report = {
            "kind": "torus",
            "verdict": rep.verdict_str,
            "method": "crosscheck",
            "reports": [{"verdict": v.verdict_str, "witness": v.witness, "method": v.method} for v in rep.verdicts],
        }
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Op(index, wall, 0 if rep.relcr else 1, json.dumps(report, indent=2).encode(), rss)


WORKLOADS = {"torus_cli": CliWorkload, "structured_cli": CliWorkload, "torus_batch": BatchWorkload}


# ---------------------------------------------------------------------------
# checking outputs


class Checker:
    """Verdicts against the oracle, byte stability across repeats, and the
    recheck of classical refutations, all outside the timed interval."""

    def __init__(self, round_):
        self.round = round_
        self.first: dict = {}
        self.attempted = self.failed = self.inconclusive = 0
        self.unrechecked: set = set()
        self.problems: list = []

    def check(self, op: Op):
        self.attempted += 1
        self.inconclusive += op.rc == 2
        problem = self._problem(op)
        if problem:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{self.round[op.index]['name']} (op {op.index}): {problem}")

    def _problem(self, op: Op):
        sc = self.round[op.index]
        key = sc["name"]
        if op.rc not in EXIT_VERDICT:
            return op.detail or f"exit {op.rc}"
        try:
            report = json.loads(op.out)
        except ValueError:
            return "report is not JSON"
        verdict = report.get("verdict")
        if verdict != EXIT_VERDICT[op.rc]:
            return f"exit {op.rc} with verdict {verdict!r}"
        if key in self.first:
            if op.out != self.first[key]:
                return "report bytes differ from the first run of this scenario"
            return None
        self.first[key] = op.out
        if verdict == "inconclusive":
            return None
        if verdict != sc["oracle"]:
            return f"verdict {verdict}, expected {sc['oracle']}"
        if sc["kind"] == "torus" and report.get("method") != "crosscheck":
            return "torus check did not crosscheck"
        if verdict == scenarios.NOT_RELCR and sc["kind"] == "classical":
            return self._recheck(sc, report)
        if verdict == scenarios.NOT_RELCR and sc["kind"] in ("glu", "g2"):
            self.unrechecked.add(key)  # no independent recheck path yet
        return None

    @staticmethod
    def _recheck(sc, report):
        from relcr import jsonio
        from relcr.flags import GroupH
        from relcr.structcr import BilinForm, recheck_refutation

        d = sc["scenario"]
        n = d["ambient_dim"]
        h = GroupH(n, tuple(jsonio.matrix_from_json(g) for g in d["h"]["generators"]))
        form = d["k"]["form"]
        b = BilinForm(n, jsonio.matrix_from_json(form["gram"]), form["kind"])
        entries = [e for e in report["witnesses"] if "proof" in e]
        if not entries:
            return "refutation without a proof entry"
        if not all(recheck_refutation(e, h, b) for e in entries):
            return "refutation failed its recheck"
        return None


def run_op_checked(workload, checker, speed, index, traced=False) -> Op:
    """Run, scale and check one op.  Its report is dropped afterwards: kept,
    the reports of a batch run would grow the benchmark's own peak RSS with
    the op count."""
    op = workload.run_op(index, traced)
    op.speed = speed.factor()
    checker.check(op)
    op.out_len, op.out = len(op.out), b""
    return op


# ---------------------------------------------------------------------------
# the two kinds of run


def tail(times):
    """(value, percentile): the highest percentile with ten samples beyond it."""
    s = sorted(times)
    idx = max(0, len(s) - 11)
    return s[idx], 100.0 * (idx + 1) / len(s)


def timed_setup(workload, speed) -> tuple:
    """(wall, scaled) seconds of one set-up, each step scaled on its own, so
    that a multi-second set-up follows the machine's speed changes."""
    wall = scaled = 0.0
    steps = workload.setup()
    done = False
    while not done:
        t0 = time.perf_counter()
        try:
            next(steps)
        except StopIteration:
            done = True
        dt = time.perf_counter() - t0
        wall += dt
        scaled += dt / speed.factor()
    return wall, scaled


def timed_run(workload, seconds):
    """Set up several times, then run whole rounds while the next one,
    taking as long as the last, still ends within `seconds` of op wall time;
    at least one round.  Whole rounds keep the mix of ops, and so the tail's
    percentile, the same from run to run."""
    speed = Speedometer()
    setups, spent = [], 0.0
    while len(setups) < SETUP_REPEATS or spent < SETUP_MIN_S:
        wall, scaled = timed_setup(workload, speed)
        spent += wall
        setups.append(scaled)
    checker = Checker(workload.round)
    ops = []
    elapsed = 0.0
    while True:
        round_ops = [run_op_checked(workload, checker, speed, i) for i in range(len(workload.round))]
        ops.extend(round_ops)
        last = sum(op.wall for op in round_ops)
        elapsed += last
        if elapsed + last > seconds:
            break
    times = [op.time for op in ops]
    walls = [op.wall for op in ops]
    tail_s, tail_pct = tail(times)
    metrics = {
        "check_p50_s": statistics.median(times),
        "check_tail_s": tail_s,
        "checks_per_s": len(ops) / sum(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(op.rss_kb for op in ops) / 1024.0,
    }
    notes = {
        "ops": len(ops),
        "rounds": len(ops) / len(workload.round),
        "check_tail_percentile": tail_pct,
        "failed_ratio": checker.failed / checker.attempted,
        "inconclusive_ratio": checker.inconclusive / checker.attempted,
        "refutations_unrechecked": len(checker.unrechecked),
        "speed_factor_median": statistics.median(op.speed for op in ops),
        "unscaled_check_p50_s": statistics.median(walls),
        "unscaled_check_tail_s": tail(walls)[0],
        "unscaled_checks_per_s": len(ops) / sum(walls),
    }
    return checker, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def trace_run(workload):
    speed = Speedometer()
    for _ in workload.setup():
        pass
    checker = Checker(workload.round)
    indices = range(len(workload.round))

    def untraced_pass():
        return sum(run_op_checked(workload, checker, speed, i).time for i in indices)

    if isinstance(workload, BatchWorkload):
        untraced_pass()  # fill the flag caches, so both passes start warm
    untraced = untraced_pass()
    if isinstance(workload, BatchWorkload):
        # warm passes drift by about 10%: the untraced side is the mean of
        # the passes before and after the traced one
        untraced = (untraced + untraced_pass()) / 2
        tr = tracing.Tracer()
        tr.install()
        ops = []
        try:
            for i in indices:
                tr.op = i
                ops.append(run_op_checked(workload, checker, speed, i))
        finally:
            tr.uninstall()
        summary = tracing.Spans.of(tr).summarize({op.index: op.wall for op in ops},
                                                 {op.index: op.speed for op in ops})
        counts, import_s, report_bytes = tr.counts(), 0.0, 0
    else:
        summary, counts, import_s, report_bytes, ops = None, None, 0.0, 0, []
        for i in indices:
            op = run_op_checked(workload, checker, speed, i, traced=True)
            ops.append(op)
            report_bytes += op.out_len
            if not os.path.exists(op.spans):
                continue  # the failed op is already counted
            header, spans = tracing.load(op.spans)
            os.unlink(op.spans)
            spans.op_id = [i] * len(spans.start)
            part = spans.summarize({i: op.wall}, {i: op.speed})
            summary = part if summary is None else merge(summary, part)
            counts = header["counts"] if counts is None else merge(counts, header["counts"])
            import_s += header["import_s"] / op.speed
        if summary is None:  # every traced child failed, and each is counted
            summary, counts = tracing.Spans.of(tracing.Tracer()).summarize({}, {}), tracing.Tracer().counts()
    traced = sum(op.time for op in ops)
    if summary["min_remainder_s"] < -1e-6 or summary["min_self_s"] < -1e-6 or summary["max_gap_s"] > 1e-6:
        checker.failed += 1
        checker.problems.append(f"spans do not nest inside their ops: {summary}")
    metrics = layer_metrics(summary, counts, import_s, report_bytes, len(checker.unrechecked))
    metrics["trace.overhead_ratio"] = traced / untraced
    notes = {"ops": checker.attempted, "untraced_s": untraced, "traced_s": traced,
             "failed_ratio": checker.failed / checker.attempted}
    return checker, {k: (metrics.get(k, 0), unit) for k, unit in PER_LAYER.items()}, notes


def merge(a, b):
    """Sum two nested dicts of numbers; min for min_*, max for max_*."""
    out = dict(a)
    for key, v in b.items():
        if key not in out:
            out[key] = v
        elif isinstance(v, dict):
            out[key] = merge(out[key], v)
        elif isinstance(v, list):
            out[key] = [x + y for x, y in zip(out[key], v)]
        elif key.startswith("min_"):
            out[key] = min(out[key], v)
        elif key.startswith("max_"):
            out[key] = max(out[key], v)
        else:
            out[key] = out[key] + v
    return out


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, counts, import_s, report_bytes, unrechecked):
    m = {
        "cli.import_s": import_s,
        "cli.main.s": summary["incl"].get("cli.main", 0.0),
        "cli.report_bytes": report_bytes,
        "jsonio.calls": sum(v for k, v in summary["calls"].items() if k.startswith("jsonio.")),
        "jsonio.s": summary["module_incl"].get("jsonio", 0.0),
        "trace.remainder_s": summary["remainder_s"],
    }
    for module in tracing.MODULES:
        m[f"{module}.self_s"] = summary["self"].get(module, 0.0)
    for module, funcs in tracing.SPANNED.items():
        for func in funcs:
            name = tracing.span_name(module, func)
            m[f"{name}.calls"] = summary["calls"].get(name, 0)
            m[f"{name}.s"] = summary["incl"].get(name, 0.0)
    cache = counts["cache"]
    for func in tracing.CACHED:
        hits, misses, _ = cache[func]
        m[f"toruscr.cache_hit_ratio.{func}"] = ratio(hits, hits + misses)
    m.update(
        {
            "toruscr.flag_types": counts["flag_types"],
            "toruscr.minimal_types": counts["minimal_types"],
            "toruscr.fm_feasible_ratio": ratio(counts["fm_feasible"], counts["fm_calls"]),
            "toruscr.cache_entries": sum(cache[f][2] for f in tracing.CACHED),
            "structcr.seeds": counts["seeds"],
            "structcr.seed_lines": counts["seed_lines"],
            "structcr.acting": counts["acting"],
            "structcr.acting_distinct": counts["acting_distinct"],
            "structcr.pool_members": counts["pool_members"],
            "structcr.family_dim_max": counts["max_family_dim"],
            "structcr.refutations_unrechecked": unrechecked,
            "structcr.pool_add_ratio": ratio(counts["pool_add_accepted"], counts["pool_add_attempts"]),
            "structcr.pool_closed_ratio": ratio(counts["pool_closed"], counts["pool_builds"]),
        }
    )
    return m


# ---------------------------------------------------------------------------


def import_relcr():
    """Import relcr from this checkout's src/, and nowhere else."""
    if not (SRC / "relcr" / "cli.py").is_file():
        raise SetupError(f"no relcr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import relcr

    if Path(relcr.__file__).resolve().parent != (SRC / "relcr").resolve():
        raise SetupError(f"relcr was imported from {relcr.__file__}, not from {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("RELCR_THREADS", None)
    try:
        import_relcr()
        WORK_PARENT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=WORK_PARENT))
        try:
            workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
            if args.trace:
                checker, metrics, notes = trace_run(workload)
            else:
                checker, metrics, notes = timed_run(workload, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            if WORK_PARENT.is_dir() and not any(WORK_PARENT.iterdir()):
                WORK_PARENT.rmdir()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in notes.items():
        print(f"  {key} = {value:.6g}" if isinstance(value, float) else f"  {key} = {value}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
