import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from relcr.corpus import block_diagonal_group, diagonal_matrix
from relcr.exactlin import Subspace, image_under
from relcr.flags import Flag, GroupH, verify_opposite
from relcr.g2model import (
    G2Data,
    build_g2_data,
    delta,
    fixture_matches_build,
    g2_candidates,
    g2_data,
    g2_flag_shape_ok,
    g2_minimal_flag,
    is_doubly_singular,
    load_fixture,
    oct_mul,
    oct_norm,
    relcr_g2,
    torus_element,
)
from relcr.structcr import (
    NOT_RELCR_WITNESSED,
    RELCR_WITNESSED,
    build_pool,
    form_adjoint,
    perp,
    verify_certificate,
)
from relcr.toruscr import enumerate_flag_types, flag_of_type, minimal_flags, opposite_type


def coord(*idxs):
    return Subspace.coordinate(7, [i - 1 for i in idxs])


D = g2_data()


def test_build_invariants_pass():
    build_g2_data()  # raises G2ModelError on any failed invariant


def test_fixture_matches_build():
    assert fixture_matches_build()
    assert load_fixture() == D


def test_corrupted_fixture_detected():
    from relcr.g2model import data_from_fixture, fixture_payload

    payload = fixture_payload(D)
    broken = json.loads(json.dumps(payload))
    i, j, k, val = broken["trilinear"][0]
    broken["trilinear"][0] = [i, j, k, "17"]
    assert data_from_fixture(broken) != D


def test_norm_multiplicative_random():
    rng = random.Random(2)

    def roct():
        return (
            Fraction(rng.randint(-3, 3)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)),
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3)),
            Fraction(rng.randint(-3, 3)),
        )

    for _ in range(25):
        x, y = roct(), roct()
        assert oct_norm(oct_mul(x, y)) == oct_norm(x) * oct_norm(y)


def test_zero_weight_line_and_gram():
    assert D.torus.column(3) == (0, 0)
    for i in range(7):
        for j in range(7):
            if i + j == 6:
                assert D.bilinear.gram[i, j] != 0
            elif (i, j) != (3, 3):
                assert D.bilinear.gram[i, j] == 0


def test_alternation_random_vectors():
    rng = random.Random(5)
    for _ in range(20):
        x = [Fraction(rng.randint(-2, 2)) for _ in range(7)]
        y = [Fraction(rng.randint(-2, 2)) for _ in range(7)]
        assert D.tri_value(x, x, y) == 0
        assert D.tri_value(x, y, x) == 0
        assert D.tri_value(x, y, y) == 0


def test_doubly_singular_lines():
    assert is_doubly_singular(coord(1), D)
    assert not is_doubly_singular(coord(4), D)  # the zero-weight line
    assert is_doubly_singular(coord(1, 2), D)
    assert is_doubly_singular(coord(6, 7), D)
    with pytest.raises(ValueError):
        is_doubly_singular(coord(1, 2, 3), D)


def test_delta_of_highest_weight_line():
    assert delta(coord(1), D) == coord(1, 2, 3)


def test_delta_dimension_and_containment():
    for i in (1, 2, 3, 5, 6, 7):
        dl = delta(coord(i), D)
        assert dl.dim == 3
        from relcr.exactlin import subspace_contains

        assert subspace_contains(dl, coord(i))


def test_delta_torus_equivariance():
    g = torus_element(Fraction(2), Fraction(5))
    for i in (1, 2, 3, 5, 6, 7):
        u = coord(i)
        assert delta(image_under(g, u), D) == image_under(g, delta(u, D))


def test_delta_equivariance_skew_line():
    # a non-coordinate doubly singular line
    u = Subspace.span(7, [[1, 0, 0, 0, 0, 1, 0]])  # e1 + e6: B = 2 B(e1,e6) = 0
    assert is_doubly_singular(u, D)
    g = torus_element(Fraction(3), Fraction(2))
    assert delta(image_under(g, u), D) == image_under(g, delta(u, D))


def test_minimal_flag_shapes():
    f1 = g2_minimal_flag(coord(1), D)
    assert f1.dims() == (1, 3, 4, 6)
    assert f1.chain[1] == coord(1, 2, 3)
    assert f1.chain[2] == perp(coord(1, 2, 3), D.bilinear)
    f2 = g2_minimal_flag(coord(1, 2), D)
    assert f2.dims() == (2, 5)
    assert g2_flag_shape_ok(f1, D) and g2_flag_shape_ok(f2, D)


# the F_K shape test as it was before it compared with g2_minimal_flag: the
# minimal flag through chain[0], rebuilt member by member


def reference_shape_ok(f, d):
    dims = f.dims()
    if dims == (2, 5):
        u = f.chain[0]
        return is_doubly_singular(u, d) and f.chain[1] == perp(u, d.bilinear)
    if dims == (1, 3, 4, 6):
        u = f.chain[0]
        if not is_doubly_singular(u, d):
            return False
        dl = delta(u, d)
        return f.chain[1] == dl and f.chain[2] == perp(dl, d.bilinear) and f.chain[3] == perp(u, d.bilinear)
    return False


def _singular_vector(rng):
    """A random x with B(x, x) = 0, solved for its last coordinate."""
    while True:
        x = [Fraction(rng.randint(-2, 2)) for _ in range(6)] + [Fraction(0)]
        if x[0]:
            break
    x[6] = -D.bilinear.pair(x, x) / (2 * D.bilinear.gram[0, 6] * x[0])
    assert D.bilinear.pair(x, x) == 0
    return x


def _combination(rng, s):
    """A random small integer combination of the basis of s."""
    cs = [rng.randint(-2, 2) for _ in range(s.dim)]
    return [sum(c * v[t] for c, v in zip(cs, s.vectors())) for t in range(s.ambient_dim)]


def _random_doubly_singular(rng, dim):
    x = _singular_vector(rng)
    if dim == 1:
        return Subspace.span(7, [x])
    dl = delta(Subspace.span(7, [x]), D)
    while True:
        u = Subspace.span(7, [x, _combination(rng, dl)])
        if u.dim == 2 and is_doubly_singular(u, D):
            return u


def _random_chain(rng, dims, first=None):
    """A flag of the given dims through random vectors, optionally through
    the subspace first."""
    while True:
        vs = list(first.vectors()) if first is not None else []
        vs += [[Fraction(rng.choice((0, 0, 1, -1, 2))) for _ in range(7)] for _ in range(7)]
        try:
            return Flag(7, tuple(Subspace.span(7, vs[:k]) for k in dims))
        except ValueError:
            continue


def test_flag_shape_matches_member_by_member_reference():
    rng = random.Random(3)
    flags = [flag_of_type(ft, D.torus) for ft, _ in enumerate_flag_types(D.torus)]
    for _ in range(40):
        dim = rng.choice((1, 2))
        u = _random_doubly_singular(rng, dim)
        f = g2_minimal_flag(u, D)
        dims = f.dims()
        flags.append(f)
        # the same dims through u, and through a random first member
        flags.append(_random_chain(rng, dims, first=u))
        flags.append(_random_chain(rng, dims))
        # one later member of the minimal flag replaced by another subspace
        # between its neighbours
        i = rng.randrange(1, len(dims))
        upper = f.chain[i + 1] if i + 1 < len(dims) else Subspace.full(7)
        while True:
            combos = [_combination(rng, upper) for _ in range(dims[i] - dims[i - 1])]
            other = Subspace.span(7, list(f.chain[i - 1].vectors()) + combos)
            if other.dim == dims[i]:
                break
        flags.append(Flag(7, f.chain[:i] + (other,) + f.chain[i + 1 :]))
    counts = Counter()
    for f in flags:
        got = g2_flag_shape_ok(f, D)
        assert got == reference_shape_ok(f, D), f
        counts[got] += 1
    assert counts[True] >= 40 and counts[False] >= 80


def test_minimal_flag_opposition():
    # the coordinate opposite of the {2,5} flag through <e1,e2> is through <e6,e7>
    f = g2_minimal_flag(coord(1, 2), D)
    g = g2_minimal_flag(coord(6, 7), D)
    assert verify_opposite(f, g) is not None
    f1 = g2_minimal_flag(coord(1), D)
    g1 = g2_minimal_flag(coord(7), D)
    assert verify_opposite(f1, g1) is not None


def test_torus_flag_patterns():
    listing = enumerate_flag_types(D.torus)
    patterns = {flag_of_type(ft, D.torus).dims() for ft, _ in listing if not ft.is_trivial}
    assert patterns == {(2, 5), (1, 3, 4, 6), (1, 2, 3, 4, 5, 6)}
    minimal_patterns = {flag_of_type(ft, D.torus).dims() for ft, _ in minimal_flags(D.torus)}
    assert minimal_patterns == {(2, 5), (1, 3, 4, 6)}


def test_certificate_flags_in_fk_are_minimal_only():
    # g2 certificates name minimal flags: the full flags of the torus listing
    # stem from K too, but read flag_in_fk false
    listing = [ft for ft, _ in enumerate_flag_types(D.torus) if not ft.is_trivial]
    minimal = {ft for ft, _ in minimal_flags(D.torus)}
    claim = [(flag_of_type(ft, D.torus), flag_of_type(opposite_type(ft), D.torus)) for ft in listing]
    rep = verify_certificate(GroupH.trivial(7), claim, "g2", D)
    got = Counter((f.dims(), pr["flag_in_fk"], pr["opposite_in_fk"]) for (f, _), pr in zip(claim, rep.pair_reports))
    assert got == {
        ((1, 2, 3, 4, 5, 6), False, False): 12,
        ((2, 5), True, True): 6,
        ((1, 3, 4, 6), True, True): 6,
    }
    assert {ft for ft in listing if len(ft.ordered_blocks) < 7} == minimal
    assert not rep.accepted


def _pool_for(h):
    return build_pool(h, extra_gens=tuple(form_adjoint(g, D.bilinear) for g in h.generators))


def test_relcr_g2_levi_gl2xgl3xgl2():
    h = block_diagonal_group(7, [[0, 1], [2, 3, 4], [5, 6]])
    pool = _pool_for(h)
    cands = g2_candidates(h, D, pool)
    assert {c.dim for c in cands} == {2}  # no stable doubly singular lines
    verdict = relcr_g2(h, D, pool)
    assert verdict.value == RELCR_WITNESSED
    witnessed = {tuple(e["u"][0]) for e in verdict.witnesses}
    assert witnessed == {("1", "0", "0", "0", "0", "0", "0"), ("0", "0", "0", "0", "0", "1", "0")}


def test_relcr_g2_torus_itself():
    h = GroupH(7, (torus_element(Fraction(2), Fraction(3)), torus_element(Fraction(5), Fraction(7))))
    pool = _pool_for(h)
    verdict = relcr_g2(h, D, pool)
    assert verdict.value == RELCR_WITNESSED
    assert verdict.witnesses  # six singular coordinate lines and several planes


def test_relcr_g2_unipotent_vacuous():
    # a single Jordan block whose fixed line is <e4>, the line where the
    # bilinear form does not vanish: every stable subspace contains e4, so no
    # stable subspace is doubly singular and the criterion holds vacuously
    chain = [7, 6, 5, 3, 2, 1, 4]  # N: e7->e6->e5->e3->e2->e1->e4->0
    rows = [[1 if i == j else 0 for j in range(7)] for i in range(7)]
    for src, dst in zip(chain, chain[1:]):
        rows[dst - 1][src - 1] = 1
    h = GroupH.of(7, [rows])
    pool = _pool_for(h)
    cands = g2_candidates(h, D, pool)
    assert cands == []
    verdict = relcr_g2(h, D, pool)
    assert verdict.value == RELCR_WITNESSED and verdict.witnesses == ()


def test_relcr_g2_parabolic_refuted():
    # the full stabilizer of (U in U^perp): stabilizes the {2,5} flag through
    # <e1,e2> but no complementary partner flag exists for it
    from relcr.corpus import coordinate_flag_stabilizer

    h = coordinate_flag_stabilizer(7, (1, 1, 2, 2, 2, 3, 3))
    pool = _pool_for(h)
    verdict = relcr_g2(h, D, pool)
    assert verdict.value == NOT_RELCR_WITNESSED
    bad = [e for e in verdict.witnesses if "proof" in e]
    assert bad and bad[0]["u"] == [["1", "0", "0", "0", "0", "0", "0"], ["0", "1", "0", "0", "0", "0", "0"]]


def test_certificate_g2_mode():
    h = GroupH(7, (torus_element(Fraction(2), Fraction(3)),))
    f = g2_minimal_flag(coord(1, 2), D)
    g = g2_minimal_flag(coord(6, 7), D)
    rep = verify_certificate(h, [(f, g)], "g2", D)
    assert rep.accepted
    bad = verify_certificate(h, [(f, f)], "g2", D)
    assert not bad.accepted
