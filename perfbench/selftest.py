"""Self-tests of the benchmark's own parts.

    python3 perfbench/selftest.py        (from the root of a checkout)

They check that scenario generation is a function of the seed, that the
generated torus parabolics are what their oracle says, that span accounting
adds up, and that the tracer leaves `relcr check` output unchanged.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import scenarios  # noqa: E402
import tracer  # noqa: E402


class ScenarioTests(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name, make in scenarios.ROUNDS.items():
            with self.subTest(workload=name):
                self.assertEqual(scenarios.scenario_bytes(make(7)), scenarios.scenario_bytes(make(7)))
                self.assertNotEqual(scenarios.scenario_bytes(make(7)), scenarios.scenario_bytes(make(8)))

    def test_round_leaves_ten_samples_beyond_the_tail(self):
        for name, make in scenarios.ROUNDS.items():
            self.assertGreaterEqual(len(make(1)), 11, name)

    def test_repeats_share_their_scenario(self):
        for name, make in scenarios.ROUNDS.items():
            by_name = {}
            for sc in make(3):
                self.assertEqual(by_name.setdefault(sc["name"], sc), sc, name)

    def test_parabolics_stabilize_their_cocharacter_flag(self):
        from relcr import jsonio
        from relcr.flags import GroupH, is_stable
        from relcr.toruscr import flag_from_weights

        seen = 0
        for seed in range(3):
            for make in (scenarios.torus_cli_round, scenarios.torus_batch_round):
                for sc in make(seed):
                    if not sc["name"].endswith(("parabolic", "parabolic-0", "parabolic-1")):
                        continue
                    w = sc["weights"]
                    self.assertGreaterEqual(len(set(w)), 2, sc["name"])
                    d = sc["scenario"]
                    h = GroupH(d["ambient_dim"], tuple(jsonio.matrix_from_json(g) for g in d["h"]["generators"]))
                    self.assertTrue(is_stable(flag_from_weights(w), h), sc["name"])
                    seen += 1
        self.assertGreater(seen, 10)


class SpanTests(unittest.TestCase):
    def test_self_times_and_remainder_add_up_to_the_wall(self):
        tr = tracer.Tracer()
        inner = tr.wrap("exactlin.rref", lambda: sum(range(20000)))
        outer = tr.wrap("structcr.spin", lambda: [inner() for _ in range(3)])
        tr.op = 5
        t0 = time.perf_counter()
        outer()
        inner()
        wall = time.perf_counter() - t0
        s = tracer.Spans.of(tr).summarize({5: wall}, {5: 1.0})
        self.assertEqual(s["calls"], {"exactlin.rref": 4, "structcr.spin": 1})
        self.assertAlmostEqual(s["self"]["exactlin"] + s["self"]["structcr"] + s["remainder_s"], wall, places=9)
        self.assertGreaterEqual(s["min_remainder_s"], 0.0)
        self.assertGreaterEqual(s["min_self_s"], 0.0)
        self.assertLess(s["max_gap_s"], 1e-9)

    def test_dump_round_trip(self):
        tr = tracer.Tracer()
        tr.wrap("flags.is_stable", lambda: None)()
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "spans.bin")
            tr.install()
            tr.uninstall()
            tr.dump(path, {"import_s": 0.5})
            header, spans = tracer.load(path)
        self.assertEqual(header["import_s"], 0.5)
        self.assertEqual(list(spans.start), list(tr.start))


class TracerTransparencyTests(unittest.TestCase):
    """One scenario per K kind: the traced child, and a CLI run after the
    tracer was installed and removed, print what plain `relcr check` prints."""

    @classmethod
    def setUpClass(cls):
        torus = scenarios.torus_cli_round(1)[0]
        structured = scenarios.structured_cli_round(1)
        picks = [torus] + [next(sc for sc in structured if sc["kind"] == kind) for kind in ("glu", "classical", "g2")]
        cls.tmp = tempfile.TemporaryDirectory()
        cls.cases = []
        for sc in picks:
            path = Path(cls.tmp.name) / f"{sc['name']}.json"
            path.write_text(json.dumps(sc["scenario"]))
            cls.cases.append((sc["kind"], str(path)))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _child(self, argv):
        return subprocess.run(argv, capture_output=True, env=run.child_env(), cwd=run.ROOT, timeout=120)

    def test_traced_child_prints_the_same_bytes(self):
        for kind, path in self.cases:
            with self.subTest(kind=kind):
                plain = self._child([sys.executable, "-m", "relcr", "check", path])
                spans = str(Path(self.tmp.name) / "spans.bin")
                traced = self._child([sys.executable, str(HERE / "traced_check.py"), spans, "check", path])
                self.assertIn(plain.returncode, (0, 1))
                self.assertEqual(traced.returncode, plain.returncode)
                self.assertEqual(traced.stdout, plain.stdout)
                header, spans_read = tracer.load(spans)
                self.assertGreater(header["count"], 0)

    def test_install_then_uninstall_restores_everything(self):
        import relcr.cli

        before = {m.__name__: dict(vars(m)) for m in tracer._relcr_modules()}
        pool_add = relcr.structcr.SubspacePool.add
        span = relcr.exactlin.Subspace.__dict__["span"]
        tr = tracer.Tracer()
        tr.install()
        self.assertIsNot(relcr.structcr.subspace_sum, before["relcr.structcr"]["subspace_sum"])
        tr.uninstall()
        after = {m.__name__: dict(vars(m)) for m in tracer._relcr_modules()}
        for name, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(after[name][attr], value, f"{name}.{attr}")
        self.assertIs(relcr.structcr.SubspacePool.add, pool_add)
        self.assertIs(relcr.exactlin.Subspace.__dict__["span"], span)
        for kind, path in self.cases:
            with self.subTest(kind=kind):
                plain = self._child([sys.executable, "-m", "relcr", "check", path])
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = relcr.cli.main(["check", path])
                self.assertEqual(rc, plain.returncode)
                self.assertEqual(out.getvalue().encode(), plain.stdout)


if __name__ == "__main__":
    unittest.main()
