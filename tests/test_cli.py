import json

import pytest

from relcr.cli import main
from relcr.corpus import subspace_stabilizer
from relcr.jsonio import flag_to_json, group_to_json
from relcr.exactlin import Subspace
from relcr.flags import Flag


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def coord(n, *idxs):
    return Subspace.coordinate(n, [i - 1 for i in idxs])


EX43_K = {"kind": "torus", "lattice_basis": [[1, 0, 0, -1], [0, 1, -1, 0]]}


def scenario_example43():
    h = subspace_stabilizer(4, [0, 1, 2])
    return {"ambient_dim": 4, "h": {"generators": group_to_json(h)["generators"]}, "k": EX43_K}


def scenario_counterexample():
    h = subspace_stabilizer(4, [1, 3])
    return {"ambient_dim": 4, "h": {"generators": group_to_json(h)["generators"]}, "k": EX43_K}


def test_check_example43_exit0(tmp_path, capsys):
    path = write(tmp_path, "s.json", scenario_example43())
    assert main(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "relcr" and out["method"] == "crosscheck"
    assert len(out["reports"]) == 3
    assert [r["method"] for r in out["reports"]] == ["definition", "minimal", "levi"]


def test_check_counterexample_exit1(tmp_path, capsys):
    path = write(tmp_path, "s.json", scenario_counterexample())
    assert main(["check", path, "--mode", "minimal"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "not_relcr"
    assert out["witness"]["flag_type"]["dims"] == [2]


def test_check_malformed_exit3(tmp_path, capsys):
    bad = scenario_example43()
    bad["h"]["generators"][0][0][0] = "not-a-number"
    path = write(tmp_path, "s.json", bad)
    assert main(["check", path]) == 3
    assert "error:" in capsys.readouterr().err


def test_check_missing_file_exit3(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 3


def test_check_classical_scenario(tmp_path, capsys):
    gram = [["0", "0", "0", "1"], ["0", "0", "1", "0"], ["0", "-1", "0", "0"], ["-1", "0", "0", "0"]]
    scenario = {
        "ambient_dim": 4,
        "h": {
            "generators": [
                [["2", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "1/3", "0"], ["0", "0", "0", "1/2"]]
            ]
        },
        "k": {"kind": "classical", "form": {"kind": "symplectic", "gram": gram}},
    }
    path = write(tmp_path, "s.json", scenario)
    assert main(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "relcr" and out["pool_complete"]


def test_check_glu_scenario(tmp_path, capsys):
    scenario = {
        "ambient_dim": 3,
        "h": {"generators": [[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]]]},
        "k": {"kind": "glu", "U": [["1", "0", "0"], ["0", "1", "0"]], "Utilde": [["0", "0", "1"]]},
    }
    path = write(tmp_path, "s.json", scenario)
    assert main(["check", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "not_relcr"


def test_check_glu_large_height_finishes(tmp_path, capsys):
    # the charpoly x^2 + 10^18 + 3 has a constant term too large for divisor
    # trial, which never finished on this 2x2 input
    import time

    scenario = {
        "ambient_dim": 2,
        "h": {"generators": [[["0", "1"], ["-1000000000000000003", "0"]]]},
        "k": {"kind": "glu", "U": [["1", "0"]], "Utilde": [["0", "1"]]},
    }
    path = write(tmp_path, "s.json", scenario)
    start = time.perf_counter()
    assert main(["check", path]) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(capsys.readouterr().out)["verdict"] == "relcr"


def test_check_g2_scenario(tmp_path, capsys):
    from relcr.g2model import torus_element
    from relcr.jsonio import matrix_to_json
    from fractions import Fraction

    scenario = {
        "ambient_dim": 7,
        "h": {"generators": [matrix_to_json(torus_element(Fraction(2), Fraction(3)))]},
        "k": {"kind": "g2"},
    }
    path = write(tmp_path, "s.json", scenario)
    assert main(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "relcr"


def test_flags_example43(tmp_path, capsys):
    path = write(tmp_path, "k.json", {"kind": "torus", "ambient_dim": 4, "lattice_basis": EX43_K["lattice_basis"]})
    assert main(["flags", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 17
    assert main(["flags", path, "--minimal"]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["count"] == 8
    assert all(t["minimal"] for t in out2["types"])


def test_flags_g2(tmp_path, capsys):
    path = write(tmp_path, "k.json", {"kind": "g2"})
    assert main(["flags", path, "--minimal"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {tuple(t["dims"]) for t in out["types"]} == {(2, 5), (1, 3, 4, 6)}


def test_flags_unsupported_kind(tmp_path, capsys):
    path = write(tmp_path, "k.json", {"kind": "classical"})
    assert main(["flags", path]) == 3


def test_verify_certificate(tmp_path, capsys):
    f1 = Flag.of(4, (coord(4, 2, 4),))
    f2 = Flag.of(4, (coord(4, 1, 3),))
    h_triv = {"generators": []}
    cert = {
        "ambient_dim": 4,
        "h": h_triv,
        "k": EX43_K,
        "pairs": [{"flag": flag_to_json(f1), "opposite": flag_to_json(f2)}],
    }
    path = write(tmp_path, "c.json", cert)
    rc = main(["verify", path])
    out = json.loads(capsys.readouterr().out)
    assert rc != 0  # trivial group stabilizes every minimal flag: coverage fails
    assert out["pairs"][0]["opposite_pair"]
    # a diagonal group stabilizes all coordinate flags: the full family of
    # minimal pairs is a valid certificate
    from relcr.toruscr import TorusK, flag_of_type, minimal_flags, opposite_type

    k = TorusK.of(4, EX43_K["lattice_basis"])
    pairs = [
        {
            "flag": flag_to_json(flag_of_type(ft, k)),
            "opposite": flag_to_json(flag_of_type(opposite_type(ft), k)),
        }
        for ft, _ in minimal_flags(k)
    ]
    cert["h"] = {
        "generators": [
            [["2", "0", "0", "0"], ["0", "3", "0", "0"], ["0", "0", "1/3", "0"], ["0", "0", "0", "1/2"]]
        ]
    }
    cert["pairs"] = pairs
    path2 = write(tmp_path, "c2.json", cert)
    assert main(["verify", path2]) == 0
    out2 = json.loads(capsys.readouterr().out)
    assert out2["accepted"] and out2["coverage_checked"] and out2["coverage_ok"]


def test_flag_json_canonicalized_on_load(tmp_path):
    from relcr.jsonio import flag_from_json

    # a scrambled basis presentation loads to the canonical subspace
    data = {"ambient_dim": 3, "chain": [[["2", "2", "0"], ["1", "0", "0"]]]}
    f = flag_from_json(data)
    assert f.chain[0] == coord(3, 1, 2)
    assert flag_to_json(f)["chain"] == [[["1", "0", "0"], ["0", "1", "0"]]]


def test_corpus_filter(capsys):
    assert main(["corpus", "--filter", "example43"]) == 0
    out = capsys.readouterr().out
    assert "example43_flags" in out and "g2_levi" not in out


def test_corpus_bad_filter(capsys):
    assert main(["corpus", "--filter", "zzz-no-such"]) == 3


def test_check_determinism_across_runs(tmp_path, capsys):
    path = write(tmp_path, "s.json", scenario_example43())
    outputs = set()
    for _ in range(6):
        assert main(["check", path]) == 0
        outputs.add(capsys.readouterr().out.encode())
    assert len(outputs) == 1
