import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcr.corpus import (
    block_diagonal_group,
    coordinate_flag_stabilizer,
    diagonal_matrix,
    elementary,
    subspace_stabilizer,
    symplectic_transvection,
)
from relcr.exactlin import RatMatrix, Subspace, image_under, rat_str, subspace_intersect, subspace_sum
from relcr.flags import Flag, GroupH, subspace_is_stable
from relcr.structcr import (
    INCONCLUSIVE,
    NOT_RELCR_WITNESSED,
    RELCR_WITNESSED,
    BilinForm,
    GLUSplit,
    SubspacePool,
    adjoint_extended,
    build_pool,
    default_seeds,
    form_adjoint,
    is_totally_isotropic,
    isotropy_polys,
    perp,
    recheck_refutation,
    relcr_classical,
    relcr_glu,
    resultant_in_second_var,
    solve_poly_system,
    spin,
    stable_complements,
    univariate_has_no_rational_root,
    verify_certificate,
    verify_emptiness_proof,
)

SPQ4 = BilinForm(
    4,
    RatMatrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]),
    "symplectic",
)


def coord(n, *idxs):
    return Subspace.coordinate(n, [i - 1 for i in idxs])


# ---------------------------------------------------------------------------
# forms, perps, adjoints


def test_perp_extremes():
    assert perp(Subspace.zero(4), SPQ4) == Subspace.full(4)
    assert perp(Subspace.full(4), SPQ4) == Subspace.zero(4)


def test_perp_line():
    assert perp(coord(4, 1), SPQ4) == coord(4, 1, 2, 3)
    assert perp(coord(4, 1, 2), SPQ4) == coord(4, 1, 2)  # Lagrangian


def test_perp_involution_and_dims():
    for s in (coord(4, 1), coord(4, 2, 3), Subspace.span(4, [[1, 2, 0, 0], [0, 0, 1, 1]])):
        p = perp(s, SPQ4)
        assert p.dim == 4 - s.dim
        assert perp(p, SPQ4) == s


def test_perp_order_reversing():
    a = coord(4, 1)
    b = coord(4, 1, 2)
    from relcr.exactlin import subspace_contains

    assert subspace_contains(b, a)
    assert subspace_contains(perp(a, SPQ4), perp(b, SPQ4))


def test_isotropic_chain_extends_to_fk_shape():
    # perps extend any totally isotropic chain to the U_1 < ... < U_r <
    # U_r^perp < ... < U_1^perp shape, which is exactly the classical F_K test
    from relcr.structcr import _flag_in_fk

    u1, u2 = coord(4, 1), coord(4, 1, 2)
    assert is_totally_isotropic(u2, SPQ4)
    ext = Flag.of(4, (u1, u2, perp(u1, SPQ4)))  # u2 is Lagrangian: u2 = u2^perp
    assert _flag_in_fk(ext, "classical", SPQ4)
    skew = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 1, 0]])
    assert is_totally_isotropic(skew, SPQ4)
    ext2 = Flag.of(4, (u1, skew, perp(u1, SPQ4)))
    assert _flag_in_fk(ext2, "classical", SPQ4)
    # a chain that is not perp-paired is rejected
    assert not _flag_in_fk(Flag.of(4, (u1, coord(4, 1, 2))), "classical", SPQ4)


def test_totally_isotropic():
    assert is_totally_isotropic(Subspace.zero(4), SPQ4)
    assert is_totally_isotropic(coord(4, 1), SPQ4)
    assert not is_totally_isotropic(coord(4, 1, 4), SPQ4)  # hyperbolic pair


def test_form_adjoint_identity_and_isometry():
    ident = RatMatrix.identity(4)
    assert form_adjoint(ident, SPQ4) == ident
    t = symplectic_transvection(SPQ4.gram, [1, 2, 0, 1])
    assert form_adjoint(t, SPQ4) == t.inverse()


def test_form_adjoint_diagonal_reverses_weights():
    g = diagonal_matrix([2, 3, 5, 7])
    assert form_adjoint(g, SPQ4) == diagonal_matrix([7, 5, 3, 2])


def test_form_adjoint_antihomomorphism():
    a = symplectic_transvection(SPQ4.gram, [1, 0, 1, 0])
    b = diagonal_matrix([2, 3, Fraction(1, 3), Fraction(1, 2)])
    assert form_adjoint(a * b, SPQ4) == form_adjoint(b, SPQ4) * form_adjoint(a, SPQ4)


def test_bilinform_validation():
    with pytest.raises(ValueError):
        BilinForm(2, RatMatrix.from_rows([[1, 0], [0, 1]]), "symplectic")
    with pytest.raises(ValueError):
        BilinForm(2, RatMatrix.from_rows([[0, 1], [1, 0]]), "weird")
    BilinForm(2, RatMatrix.from_rows([[0, 1], [1, 0]]), "orthogonal")


# ---------------------------------------------------------------------------
# pools


def test_build_pool_trivial_group():
    pool = build_pool(GroupH.trivial(2))
    members = set(pool.members)
    assert Subspace.zero(2) in members
    assert Subspace.full(2) in members
    assert coord(2, 1) in members and coord(2, 2) in members
    assert pool.closed


def test_build_pool_jordan_block():
    h = GroupH.of(2, [[[1, 1], [0, 1]]])
    pool = build_pool(h)
    assert coord(2, 1) in set(pool.members)  # the unique invariant line


def test_build_pool_irreducible():
    h = GroupH.of(2, [[[0, -1], [1, 0]]])
    pool = build_pool(h)
    assert set(pool.members) == {Subspace.zero(2), Subspace.full(2)}


def test_build_pool_cap():
    pool = build_pool(GroupH.trivial(3), cap=3)
    assert not pool.closed
    assert len(pool.members) <= 3


def fixed_point_spin(v, acting, n):
    """Reference spin: re-image the whole subspace until it stops growing."""
    s = Subspace.span(n, [v])
    while True:
        nxt = s
        for g in acting:
            nxt = subspace_sum(nxt, image_under(g, s))
        if nxt.dim == s.dim:
            return s
        s = nxt


def reference_pool(h, extra_gens=(), cap=200, user_seeds=()):
    """build_pool without its shortcuts: every acting matrix as given, every
    seed spun by the fixed-point reference, every pair intersected."""
    n = h.ambient_dim
    acting = list(h.generators) + list(extra_gens)
    pool = SubspacePool(ambient_dim=n, cap=cap)
    pool.add(Subspace.zero(n), "seed")
    pool.add(Subspace.full(n), "seed")
    tag = "adjoint-stable-solve" if extra_gens else "spin"
    for t, vs in ((tag, default_seeds(n, acting)), ("user", user_seeds)):
        for v in vs:
            if any(v):
                pool.add(fixed_point_spin(v, acting, n), t)
    i = 0
    while i < len(pool.members):
        for j in range(i):
            a, b = pool.members[i], pool.members[j]
            pool.add(subspace_sum(a, b), "sum")
            pool.add(subspace_intersect(a, b), "intersect")
            if not pool.closed:
                return pool
        i += 1
    return pool


invertible_sets = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
            .map(RatMatrix.from_rows)
            .filter(lambda g: g.is_invertible()),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any),
    )
)


@given(invertible_sets)
@settings(max_examples=80, deadline=None)
def test_spin_matches_fixed_point(case):
    n, acting, v = case
    assert spin(v, acting + acting[:1], n) == fixed_point_spin(v, acting, n)


def test_spin_singular_generator_raises():
    h = GroupH.of(2, [[[1, 1], [0, 1]]])
    singular = RatMatrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(ValueError, match="singular"):
        build_pool(h, extra_gens=[singular])
    with pytest.raises(ValueError, match="singular"):
        spin((1, 0), [singular], 2)


def test_spin_seed_inside_earlier_member_is_kept():
    # e1 lies in spin(e1 + e2) = <e1, e2>, yet spin(e1) = <e1> is a member
    h = GroupH.of(2, [diagonal_matrix([2, 3])])
    pool = build_pool(h, seeds=[(1, 1), (1, 0)], cap=3)
    assert pool.members == [Subspace.zero(2), Subspace.full(2), coord(2, 1)]


@pytest.mark.parametrize("cap", [200, 4, 6, 9, 13])
@pytest.mark.parametrize(
    "name",
    ["sp4_flag_stabilizer", "so4_levi", "glu_scaled_user_seeds", "g2_unipotent", "four_general_lines"],
)
def test_build_pool_matches_reference(name, cap):
    from relcr.g2model import g2_data

    if name == "sp4_flag_stabilizer":
        h = coordinate_flag_stabilizer(4, (0, 2, 2, 4))
        extra, user = [form_adjoint(g, SPQ4) for g in h.generators], ()
    elif name == "so4_levi":
        so4 = BilinForm(4, RatMatrix.from_rows([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]), "orthogonal")
        h = block_diagonal_group(4, [[0], [1, 2], [3]])
        extra, user = [form_adjoint(g, so4) for g in h.generators], ()
    elif name == "glu_scaled_user_seeds":
        h = GroupH.of(3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]])
        extra = ()
        user = [(1, 0, 1), (2, 0, 2), (0, 1, 1), (Fraction(-1, 2), 0, Fraction(-1, 2)), (0, 3, 3), (0, 0, 5)]
    elif name == "four_general_lines":
        # joins and meets of four lines in general position never close up
        h, extra, user = GroupH.trivial(3), (), [(1, 1, 1)]
    else:
        d = g2_data()
        h = GroupH(7, (elementary(7, 0, 1), elementary(7, 2, 1)))
        extra, user = [form_adjoint(g, d.bilinear) for g in h.generators], ()
    got = build_pool(h, extra_gens=extra, cap=cap, user_seeds=user)
    want = reference_pool(h, extra_gens=extra, cap=cap, user_seeds=user)
    assert got.members == want.members
    assert got.provenance == want.provenance
    assert got.closed == want.closed


def test_build_pool_spins_each_seed_line_once(monkeypatch):
    # the G2 parabolic: 417 default seeds on 7 lines, 66 acting matrices of
    # which 41 are distinct
    from relcr import structcr
    from relcr.g2model import g2_data

    d = g2_data()
    h = coordinate_flag_stabilizer(7, (1, 1, 2, 2, 2, 3, 3))
    calls = []
    real_spin = structcr.spin
    monkeypatch.setattr(structcr, "spin", lambda *args: calls.append(args) or real_spin(*args))
    build_pool(h, extra_gens=[form_adjoint(g, d.bilinear) for g in h.generators])
    assert len(calls) <= 7


# ---------------------------------------------------------------------------
# stable complements


def test_stable_complements_trivial_group():
    fam = stable_complements(coord(2, 1), GroupH.trivial(2))
    assert not fam.is_empty and fam.dimension == 1
    assert fam.particular_subspace() == coord(2, 2)
    w = fam.subspace_at([Fraction(3)])
    assert w == Subspace.span(2, [[3, 1]])


def test_stable_complements_eigenline():
    h = GroupH.of(2, [[[1, 0], [0, 2]]])
    fam = stable_complements(coord(2, 1), h)
    assert fam.dimension == 0
    assert fam.particular_subspace() == coord(2, 2)


def test_stable_complements_example43_empty():
    h = subspace_stabilizer(4, [0, 1, 2])
    fam = stable_complements(coord(4, 1, 2, 3), h)
    assert fam.is_empty
    assert fam.solution.certificate is not None


def test_stable_complements_inside_too_small_is_empty():
    # a complement of a line in Q^3 has dim 2; forcing it inside the plane
    # <e1,e2> would make it the plane itself, which meets <e1>: empty family
    fam = stable_complements(coord(3, 1), GroupH.trivial(3), inside=coord(3, 1, 2))
    assert fam.is_empty


def test_stable_complements_inside_works():
    # complement of <e3> inside <e1, e3> relative to... complements of the
    # plane <e1,e2> inside Q^3 that lie in <e1,e3>: lines <e3 + a e1>
    fam = stable_complements(coord(3, 1, 2), GroupH.trivial(3), inside=coord(3, 1, 3))
    assert not fam.is_empty and fam.dimension == 1
    assert fam.particular_subspace() == coord(3, 3)


def test_stable_complements_containing():
    fam = stable_complements(coord(3, 1), GroupH.trivial(3), containing=coord(3, 3))
    assert not fam.is_empty
    w = fam.particular_subspace()
    assert w.dim == 2
    from relcr.exactlin import subspace_contains

    assert subspace_contains(w, coord(3, 3))


def test_stable_complements_requires_stable_base():
    swap = GroupH.of(2, [[[0, 1], [1, 0]]])
    with pytest.raises(ValueError):
        stable_complements(coord(2, 1), swap)


def test_stable_complements_outside_family_fails():
    # spot check: a graph outside the affine set is not H-stable
    h = GroupH.of(2, [[[1, 0], [0, 2]]])
    fam = stable_complements(coord(2, 1), h)
    assert fam.dimension == 0
    skew = Subspace.span(2, [[1, 1]])
    assert not subspace_is_stable(skew, h)


# ---------------------------------------------------------------------------
# polynomial machinery


def P(d):
    return dict(d)


def test_solve_poly_system_univariate():
    t2_minus_4 = {(2,): Fraction(1), (0,): Fraction(-4)}
    t_minus_2 = {(1,): Fraction(1), (0,): Fraction(-2)}
    t_minus_3 = {(1,): Fraction(1), (0,): Fraction(-3)}
    status, point = solve_poly_system([t2_minus_4, t_minus_2], 1)
    assert status == "solution" and point == (Fraction(2),)
    status, proof = solve_poly_system([t2_minus_4, t_minus_3], 1)
    assert status == "empty"
    assert verify_emptiness_proof(proof, [t2_minus_4, t_minus_3], 1)


def test_solve_poly_system_no_rational_root():
    t2_minus_2 = {(2,): Fraction(1), (0,): Fraction(-2)}
    status, proof = solve_poly_system([t2_minus_2], 1)
    assert status == "empty"
    assert verify_emptiness_proof(proof, [t2_minus_2], 1)
    assert univariate_has_no_rational_root([Fraction(-2), Fraction(0), Fraction(1)])


def test_solve_poly_system_bivariate_resultant():
    # circle and hyperbola with rational intersections
    circ = {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(-2)}
    hyp = {(1, 1): Fraction(1), (0, 0): Fraction(-1)}
    status, point = solve_poly_system([circ, hyp], 2)
    assert status == "solution"
    from relcr.structcr import poly_eval

    assert poly_eval(circ, point) == 0 and poly_eval(hyp, point) == 0


def test_solve_poly_system_bivariate_empty():
    circ = {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(-1)}
    line = {(1, 0): Fraction(1), (0, 0): Fraction(-3)}  # t1 = 3
    status, proof = solve_poly_system([circ, line], 2)
    assert status == "empty"
    assert verify_emptiness_proof(proof, [circ, line], 2)


def test_solve_poly_system_anisotropic_conic_inconclusive():
    conic = {(2, 0): Fraction(1), (0, 2): Fraction(1), (0, 0): Fraction(1)}
    status, reason = solve_poly_system([conic], 2)
    assert status == "inconclusive"


def test_enumerate_zero_parameters_complete():
    from relcr.structcr import enumerate_poly_solutions

    status, pts, _ = enumerate_poly_solutions([], 0)
    assert status == "all" and pts == [()]
    status, proof, _ = enumerate_poly_solutions([{(): Fraction(3)}], 0)
    assert status == "empty" and proof["kind"] == "constant"


POLY_SOLUTIONS = json.loads((Path(__file__).parent / "data" / "poly_solutions.json").read_text())


def _jsonable(x):
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(y) for y in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


@pytest.mark.parametrize("name", sorted(POLY_SOLUTIONS))
def test_enumerate_poly_solutions_golden(name):
    # status, points (with their order), note and proof of every branch of
    # the <= 2-variable solver, as the sampling solver first produced them:
    # no mixed polynomial, one plane curve (whole, constant and horizontal
    # lines), vanishing resultants (whole, empty and solved lines),
    # resultant candidates (whole fibre, solved, refuted), constants
    from relcr.structcr import enumerate_poly_solutions

    case = POLY_SOLUTIONS[name]
    polys = [{tuple(e): Fraction(c) for e, c in terms} for terms in case["polys"]]
    status, payload, note = enumerate_poly_solutions(polys, case["nvars"])
    assert (status, _jsonable(payload), note) == (case["status"], case["payload"], case["note"])
    if status == "empty":
        assert verify_emptiness_proof(payload, polys, case["nvars"])
    else:
        assert all(type(pt) is tuple and len(pt) == case["nvars"] for pt in payload)


def test_resultant_common_root():
    # p = t2^2 - t1, q = t2 - t1: common zeros t1 = t2 with t2^2 = t2
    p = {(0, 2): Fraction(1), (1, 0): Fraction(-1)}
    q = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}
    res = resultant_in_second_var(p, q)
    # res(t1) must vanish at t1 = 0 and t1 = 1
    from relcr.exactlin import rational_roots

    assert set(rational_roots(res)) >= {Fraction(0), Fraction(1)}


# ---------------------------------------------------------------------------
# K = GL(U)


def glu_split_q3():
    return GLUSplit(3, coord(3, 1, 2), coord(3, 3))


def test_relcr_glu_block_diagonal():
    h = block_diagonal_group(3, [[0, 1], [2]])
    pool = build_pool(h)
    verdict = relcr_glu(h, glu_split_q3(), pool)
    assert verdict.value == RELCR_WITNESSED
    assert verdict.pool_complete


def test_relcr_glu_jordan_refuted():
    # one Jordan block on U, identity on Utilde: the fixed line has no
    # H-stable complement on either side of S_K
    h = GroupH.of(3, [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]])
    pool = build_pool(h)
    verdict = relcr_glu(h, glu_split_q3(), pool)
    assert verdict.value == NOT_RELCR_WITNESSED
    refuting = [e for e in verdict.witnesses if "proof" in e]
    assert refuting and refuting[0]["candidate"] == [["1", "0", "0"]]


def test_relcr_glu_trivial_group():
    h = GroupH.trivial(3)
    pool = build_pool(h)
    assert relcr_glu(h, glu_split_q3(), pool).value == RELCR_WITNESSED


# ---------------------------------------------------------------------------
# K = Sp(V): the three golden examples


def test_relcr_classical_irreducible_vacuous():
    vs = ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 1, 1])
    h = GroupH(4, tuple(symplectic_transvection(SPQ4.gram, v) for v in vs))
    pool = build_pool(h, extra_gens=tuple(form_adjoint(g, SPQ4) for g in h.generators))
    verdict = relcr_classical(h, SPQ4, pool)
    assert verdict.value == RELCR_WITNESSED
    assert verdict.witnesses == ()  # vacuous: no H-stable isotropic candidates


def test_relcr_classical_parabolic_refuted():
    h = coordinate_flag_stabilizer(4, (1, 2, 2, 3))  # Stab(<e1> in <e1,e2,e3>)
    pool = build_pool(h, extra_gens=tuple(form_adjoint(g, SPQ4) for g in h.generators))
    verdict = relcr_classical(h, SPQ4, pool)
    assert verdict.value == NOT_RELCR_WITNESSED
    entry = next(e for e in verdict.witnesses if "proof" in e)
    assert entry["u"] == [["1", "0", "0", "0"]]
    assert entry["proof"]["kind"] == "affine_empty"
    assert recheck_refutation(entry, h, SPQ4)


def test_relcr_classical_diagonal_witnessed():
    h = GroupH(4, (diagonal_matrix([2, 3, Fraction(1, 3), Fraction(1, 2)]),))
    pool = build_pool(h, extra_gens=tuple(form_adjoint(g, SPQ4) for g in h.generators))
    verdict = relcr_classical(h, SPQ4, pool)
    assert verdict.value == RELCR_WITNESSED
    assert verdict.witnesses  # every coordinate isotropic candidate witnessed
    for entry in verdict.witnesses:
        assert "w" in entry and entry["checks"]["flags_opposite"]


def test_relcr_classical_inconclusive_on_cap():
    h = GroupH(4, (diagonal_matrix([2, 3, Fraction(1, 3), Fraction(1, 2)]),))
    pool = build_pool(h, extra_gens=tuple(form_adjoint(g, SPQ4) for g in h.generators))
    verdict = relcr_classical(h, SPQ4, pool, elim_dim_cap=-1)
    assert verdict.value == INCONCLUSIVE


# ---------------------------------------------------------------------------
# certificates


def test_certificate_classical_accepted():
    h = GroupH(4, (diagonal_matrix([2, 3, Fraction(1, 3), Fraction(1, 2)]),))
    f1 = Flag.of(4, (coord(4, 1), coord(4, 1, 2, 3)))
    f2 = Flag.of(4, (coord(4, 4), coord(4, 2, 3, 4)))
    rep = verify_certificate(h, [(f1, f2)], "classical", SPQ4)
    assert rep.accepted


def test_certificate_dim_mismatch_rejected():
    h = GroupH.trivial(4)
    f1 = Flag.of(4, (coord(4, 1),))
    f2 = Flag.of(4, (coord(4, 2),))  # dims 1 vs required 3: not opposite
    rep = verify_certificate(h, [(f1, f2)], "classical", SPQ4)
    assert not rep.accepted


def test_certificate_torus_coverage():
    from relcr.toruscr import TorusK

    k = TorusK.of(4, [[1, 0, 0, -1], [0, 1, -1, 0]])
    h = subspace_stabilizer(4, [0, 1, 2])
    rep = verify_certificate(h, [], "torus", k)
    assert rep.accepted and rep.coverage_checked and rep.coverage_ok
    h2 = subspace_stabilizer(4, [1, 3])  # stabilizes the minimal flag <e2,e4>
    rep2 = verify_certificate(h2, [], "torus", k)
    assert not rep2.accepted and not rep2.coverage_ok


def test_certificate_glu_shape():
    h = GroupH.trivial(3)
    split = glu_split_q3()
    good = Flag.of(3, (coord(3, 1),))
    opp_good = Flag.of(3, (coord(3, 2, 3),))  # contains Utilde = <e3>
    rep = verify_certificate(h, [(good, opp_good)], "glu", split)
    assert rep.accepted
    bad = Flag.of(3, (Subspace.span(3, [[1, 0, 1]]),))  # neither inside U nor over Utilde
    rep2 = verify_certificate(h, [(bad, opp_good)], "glu", split)
    assert not rep2.accepted
