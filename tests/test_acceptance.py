"""Acceptance suite: golden-example reproduction and theorem-level property
checks, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from relcr.corpus import (
    block_diagonal_group,
    coordinate_flag_stabilizer,
    diagonal_matrix,
    example43_torus,
    standard_symplectic_q4,
    subspace_stabilizer,
    symplectic_transvection,
)
from relcr.exactlin import RatMatrix, Subspace
from relcr.flags import GroupH, is_stable
from relcr.structcr import (
    NOT_RELCR_WITNESSED,
    RELCR_WITNESSED,
    build_pool,
    form_adjoint,
    recheck_refutation,
    relcr_classical,
    stable_complements,
)
from relcr.toruscr import (
    TorusK,
    common_refinement,
    enumerate_flag_types,
    flag_of_type,
    minimal_flags,
    opposite_type,
    relcr_torus_crosscheck,
    relcr_torus_definition,
    relcr_torus_levi,
    relcr_torus_minimal,
    relcr_torus_product,
    weight_classes,
)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _random_invertible(rng, n):
    while True:
        m = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def _random_torus(rng, n, max_rank):
    while True:
        r = rng.randint(1, max_rank)
        try:
            return TorusK.of(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)])
        except ValueError:
            continue


@lru_cache(maxsize=1)
def random_instances():
    """The shared randomized (H, K) suite: 200 instances, n <= 5, torus rank
    <= 2, at most 3 generators with entries in -2..2."""
    rng = random.Random(20240817)
    out = []
    for _ in range(200):
        n = rng.randint(2, 5)
        k = _random_torus(rng, n, 2)
        gens = tuple(_random_invertible(rng, n) for _ in range(rng.randint(0, 3)))
        out.append((GroupH(n, gens), k))
    return tuple(out)


def test_criterion_1_theorem_equivalence():
    disagreements = 0
    for h, k in random_instances():
        vs = (
            relcr_torus_definition(h, k).relcr,
            relcr_torus_minimal(h, k).relcr,
            relcr_torus_levi(h, k).relcr,
        )
        if len(set(vs)) != 1:
            disagreements += 1
    report(
        1,
        disagreements == 0,
        f"definition/minimal/levi agree on {len(random_instances())} random instances",
    )


def test_criterion_2_example43():
    k = example43_torus()
    counts = Counter(flag_of_type(ft, k).dims() for ft, _ in enumerate_flag_types(k))
    patterns_ok = set(counts) == {(), (2,), (1, 3), (1, 2, 3)}
    lengths = {len(flag_of_type(ft, k).dims()) for ft, _ in minimal_flags(k)}
    h = subspace_stabilizer(4, [0, 1, 2])
    verdicts = (
        relcr_torus_definition(h, k).relcr,
        relcr_torus_minimal(h, k).relcr,
        relcr_torus_levi(h, k).relcr,
    )
    fam = stable_complements(Subspace.coordinate(4, [0, 1, 2]), h)
    ok = patterns_ok and lengths == {1, 2} and verdicts == (True, True, True) and fam.is_empty
    report(
        2,
        ok,
        "flag patterns (2,4),(1,3,4),(1,2,3,4); minimal lengths {1,2}; "
        "Stab(<e1,e2,e3>) relcr by all methods; no stable complement",
    )


def test_criterion_3_section4_product_example():
    k = example43_torus()
    k1 = TorusK.of(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    k2 = TorusK.of(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    h = subspace_stabilizer(4, [1, 3])
    ht = subspace_stabilizer(4, [0])
    got = (
        relcr_torus_crosscheck(h, k).relcr,
        relcr_torus_crosscheck(h, k1).relcr,
        relcr_torus_crosscheck(h, k2).relcr,
        relcr_torus_crosscheck(ht, k1).relcr,
        relcr_torus_crosscheck(ht, k).relcr,
    )
    report(3, got == (False, True, True, False, True), f"section-4 verdicts {got}")


def test_criterion_4_product_positive_direction():
    rng = random.Random(431)
    violations = 0
    for _ in range(50):
        n1 = rng.randint(1, 2)
        n2 = rng.randint(1, 3 if n1 == 2 else 2)
        n = n1 + n2
        a = _random_invertible(rng, n1)
        b = _random_invertible(rng, n2)
        rows = []
        for i in range(n1):
            rows.append(list(a.row(i)) + [0] * n2)
        for i in range(n2):
            rows.append([0] * n1 + list(b.row(i)))
        h = GroupH.of(n, [rows])
        while True:
            try:
                k1rows = [[rng.randint(-2, 2) if j < n1 else 0 for j in range(n)] for _ in range(rng.randint(1, n1))]
                k1 = TorusK.of(n, k1rows)
                break
            except ValueError:
                continue
        while True:
            try:
                k2rows = [[rng.randint(-2, 2) if j >= n1 else 0 for j in range(n)] for _ in range(rng.randint(1, n2))]
                k2 = TorusK.of(n, k2rows)
                break
            except ValueError:
                continue
        rep = relcr_torus_product(h, [k1, k2], blocks=[list(range(n1)), list(range(n1, n))])
        if not rep.equivalence_asserted:
            violations += 1
        elif rep.joint_verdict != (rep.factor_verdicts[0] and rep.factor_verdicts[1]):
            violations += 1
    report(4, violations == 0, "product verdict = conjunction on 50 block-diagonal instances")


def _flag_union_of_minimals(k) -> bool:
    listing = enumerate_flag_types(k)
    minimal_set = {ft.ordered_blocks for ft, _ in minimal_flags(k)}
    for ft, _ in listing:
        if ft.is_trivial:
            continue
        blocks = ft.ordered_blocks
        nblocks = len(blocks)
        chain = set(flag_of_type(ft, k).chain)
        covered = set()
        for mask in range(1, 1 << (nblocks - 1)):
            cuts = [i + 1 for i in range(nblocks - 1) if mask & (1 << i)]
            merged = []
            prev = 0
            for cut in cuts + [nblocks]:
                merged.append(tuple(sorted(x for b in blocks[prev:cut] for x in b)))
                prev = cut
            merged = tuple(merged)
            if merged in minimal_set:
                from relcr.toruscr import FlagType

                covered |= set(flag_of_type(FlagType(merged), k).chain)
        if covered != chain:
            return False
    return True


def _relcr_bruteforce_all_flags(h, k) -> bool:
    """Opposition tested over every member of F_K, not only the minimal ones."""
    for ft, _ in enumerate_flag_types(k):
        if ft.is_trivial:
            continue
        if is_stable(flag_of_type(ft, k), h):
            if not is_stable(flag_of_type(opposite_type(ft), k), h):
                return False
    return True


def test_criterion_5_flag_poset_consistency():
    bad_union = 0
    disagreements = 0
    seen_tori = set()
    for h, k in random_instances():
        if k not in seen_tori:
            seen_tori.add(k)
            if not _flag_union_of_minimals(k):
                bad_union += 1
        if _relcr_bruteforce_all_flags(h, k) != relcr_torus_minimal(h, k).relcr:
            disagreements += 1
    ok = bad_union == 0 and disagreements == 0
    report(
        5,
        ok,
        f"flags rebuild from minimal flags on {len(seen_tori)} tori; "
        "brute-force all-flags checker agrees with the minimal checker",
    )


def test_criterion_6_common_refinement():
    rng = random.Random(2027)
    failures = 0
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(2, 6)
        ws = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        ns, comb = common_refinement(ws, require_compatible=False)
        profiles = {}
        for j in range(n):
            profiles.setdefault(tuple(w[j] for w in ws), set()).add(j)
        classes = {}
        for j in range(n):
            classes.setdefault(comb[j], set()).add(j)
        if sorted(map(sorted, profiles.values())) != sorted(map(sorted, classes.values())):
            failures += 1
    report(6, failures == 0, "combined partition equals the join on 100 random families")


def test_criterion_7_classical_samples():
    b = standard_symplectic_q4()

    def pool_for(h):
        return build_pool(h, extra_gens=tuple(form_adjoint(g, b) for g in h.generators))

    vs = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1])
    h_irr = GroupH(4, tuple(symplectic_transvection(b.gram, v) for v in vs))
    v_irr = relcr_classical(h_irr, b, pool_for(h_irr))

    h_par = coordinate_flag_stabilizer(4, (1, 2, 2, 3))
    v_par = relcr_classical(h_par, b, pool_for(h_par))
    entry = next((e for e in v_par.witnesses if "proof" in e), None)
    recheck_ok = entry is not None and recheck_refutation(entry, h_par, b)
    cert = entry is not None and entry["proof"]["family"].get("farkas_certificate") is not None

    h_diag = GroupH(4, (diagonal_matrix([2, 3, Fraction(1, 3), Fraction(1, 2)]),))
    v_diag = relcr_classical(h_diag, b, pool_for(h_diag))
    witnessed = v_diag.value == RELCR_WITNESSED and all(
        e["checks"]["flags_opposite"] for e in v_diag.witnesses
    )

    ok = (
        v_irr.value == RELCR_WITNESSED
        and not v_irr.witnesses
        and v_par.value == NOT_RELCR_WITNESSED
        and recheck_ok
        and cert
        and witnessed
    )
    report(
        7,
        ok,
        "irreducible vacuous; parabolic refuted with re-verified proof object; "
        "diagonal witnessed with opposite flags",
    )


def test_criterion_8_appendix_a():
    from relcr.g2model import (
        build_g2_data,
        delta,
        fixture_matches_build,
        g2_data,
        is_doubly_singular,
        relcr_g2,
    )

    build_g2_data()  # regenerates and re-verifies every model invariant
    d = g2_data()
    ok_fixture = fixture_matches_build()
    patterns = {
        flag_of_type(ft, d.torus).dims()
        for ft, _ in enumerate_flag_types(d.torus)
        if not ft.is_trivial
    }
    ok_patterns = patterns == {(2, 5), (1, 3, 4, 6), (1, 2, 3, 4, 5, 6)}
    ok_delta = all(
        delta(Subspace.coordinate(7, [i]), d).dim == 3
        for i in range(7)
        if i != 3 and is_doubly_singular(Subspace.coordinate(7, [i]), d)
    )
    h = block_diagonal_group(7, [[0, 1], [2, 3, 4], [5, 6]])
    pool = build_pool(h, extra_gens=tuple(form_adjoint(g, d.bilinear) for g in h.generators))
    verdict = relcr_g2(h, d, pool)
    e12 = [["1", "0", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0", "0"]]
    e67 = [["0", "0", "0", "0", "0", "1", "0"], ["0", "0", "0", "0", "0", "0", "1"]]
    entry = next((e for e in verdict.witnesses if e["u"] == e12), None)
    ok_levi = (
        verdict.value == RELCR_WITNESSED and entry is not None and entry["w"] == e67
    )
    ok = ok_fixture and ok_patterns and ok_delta and ok_levi
    report(
        8,
        ok,
        "fixture regenerated and invariant-checked; torus patterns {2,5},{1,3,4,6},{1..6}; "
        "delta dims 3; Levi example witnessed by the coordinate opposite",
    )


def test_criterion_9_determinism(tmp_path, capsys):
    from relcr.cli import main
    from relcr.jsonio import group_to_json

    h = subspace_stabilizer(4, [0, 1, 2])
    scenario = {
        "ambient_dim": 4,
        "h": {"generators": group_to_json(h)["generators"]},
        "k": {"kind": "torus", "lattice_basis": [[1, 0, 0, -1], [0, 1, -1, 0]]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    outputs = set()
    for _ in range(6):
        rc = main(["check", str(path)])
        assert rc == 0
        outputs.add(capsys.readouterr().out.encode())
    report(9, len(outputs) == 1, "byte-identical cmd_check output across six runs")
