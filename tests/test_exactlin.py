from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relcr.exactlin import (
    RatMatrix,
    Subspace,
    charpoly,
    image_under,
    is_complement,
    kernel_basis,
    rat,
    rat_str,
    rational_roots,
    rref,
    solve_affine,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from relcr.structcr import resultant_in_second_var


def M(rows):
    return RatMatrix.from_rows(rows)


def test_rat_parsing_and_printing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat_str(Fraction(5, 1)) == "5"
    assert rat_str(Fraction(-7, 3)) == "-7/3"


def test_rref_identity():
    ident = RatMatrix.identity(3)
    red, rank = rref(ident)
    assert red == ident and rank == 3


def test_rref_zero():
    z = RatMatrix.zero(2, 4)
    red, rank = rref(z)
    assert red == z and rank == 0


def test_rref_rank_one():
    # hand Gaussian elimination: r2 <- r2 - 2 r1
    red, rank = rref(M([[1, 2], [2, 4]]))
    assert red == M([[1, 2], [0, 0]])
    assert rank == 1


def test_sum_intersect_trivial():
    a = Subspace.span(3, [[1, 0, 0]])
    b = Subspace.span(3, [[0, 1, 0]])
    assert subspace_sum(a, b) == Subspace.span(3, [[1, 0, 0], [0, 1, 0]])
    assert subspace_intersect(a, b) == Subspace.zero(3)
    assert not subspace_contains(a, b)


def test_contains_full_space():
    v = Subspace.full(4)
    b = Subspace.span(4, [[1, 2, 3, 4]])
    assert subspace_contains(v, b)


def test_intersect_line_in_plane():
    # direct solve: <e1+e2> lies inside <e1, e2>
    a = Subspace.span(4, [[1, 1, 0, 0]])
    b = Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert subspace_intersect(a, b) == a


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        subspace_sum(Subspace.zero(2), Subspace.zero(3))


def test_solve_affine_point():
    # x + y = 1, x - y = 1  ->  (1, 0)
    sol = solve_affine(M([[1, 1], [1, -1]]), [1, 1])
    assert not sol.is_empty
    assert sol.particular == (Fraction(1), Fraction(0))
    assert sol.dimension == 0


def test_solve_affine_underdetermined():
    sol = solve_affine(M([[0, 0]]), [0])
    assert not sol.is_empty
    assert sol.particular == (Fraction(0), Fraction(0))
    assert sol.dimension == 2


def test_solve_affine_empty_with_certificate():
    a = M([[1], [1]])
    sol = solve_affine(a, [1, 2])
    assert sol.is_empty
    y = sol.certificate
    # y.A = 0 and y.b = 1
    assert sum(y[i] * a[i, 0] for i in range(2)) == 0
    assert y[0] * 1 + y[1] * 2 == 1


def test_image_under_identity_and_permutation():
    s = Subspace.span(2, [[1, 0]])
    assert image_under(RatMatrix.identity(2), s) == s
    swap = M([[0, 1], [1, 0]])
    assert image_under(swap, s) == Subspace.span(2, [[0, 1]])


def test_image_under_diagonal():
    # diag(2,3) . <e1+e2> = <2 e1 + 3 e2> = <e1 + 3/2 e2>
    g = M([[2, 0], [0, 3]])
    s = Subspace.span(2, [[1, 1]])
    assert image_under(g, s) == Subspace.span(2, [[1, Fraction(3, 2)]])


def test_image_under_singular_raises():
    with pytest.raises(ValueError):
        image_under(M([[1, 0], [0, 0]]), Subspace.span(2, [[1, 0]]))


def test_kernel_basis():
    ker = kernel_basis(M([[1, 2, 3]]))
    assert len(ker) == 2
    for v in ker:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_rational_roots():
    # (x - 2)(x + 1/3)(x^2 + 1): rational roots 2 and -1/3
    # (x-2)(x+1/3) = x^2 - 5/3 x - 2/3; times (x^2+1):
    # x^4 - 5/3 x^3 + 1/3 x^2 - 5/3 x - 2/3
    coeffs = [Fraction(-2, 3), Fraction(-5, 3), Fraction(1, 3), Fraction(-5, 3), Fraction(1)]
    assert rational_roots(coeffs) == [Fraction(-1, 3), Fraction(2)]


def test_rational_roots_large_height():
    n = 10**18 + 3
    assert rational_roots([2 * n, -(n + 2), 1]) == [Fraction(2), Fraction(n)]  # (x - n)(x - 2)
    assert rational_roots([n, 0, 1]) == []


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def trial_division_roots(coeffs):
    """Reference: test every +-p/q with p | a_0 and q | a_n, after clearing
    denominators and zero roots.  Cost grows like the square root of the
    coefficients, so it serves small heights only."""

    def divisors(n):
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out += [d, n // d]
            d += 1
        return out

    def value(cs, x):
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    cs = [Fraction(c) for c in coeffs]
    while cs[-1] == 0:
        cs.pop()
    roots = set()
    while cs[0] == 0:
        roots.add(Fraction(0))
        cs = cs[1:]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            roots.update(x for x in (Fraction(p, q), Fraction(-p, q)) if value(cs, x) == 0)
    return sorted(roots)


@st.composite
def polys_with_roots(draw, height=4):
    """(coefficients, built-in roots): a fractional leading coefficient, times
    linear factors with multiplicities up to 3 (zero allowed), times a cofactor
    of small integer coefficients; degree at most 8."""
    lead = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
    coeffs, roots = [lead], []
    for r in draw(st.lists(st.fractions(min_value=-height, max_value=height, max_denominator=height), max_size=4)):
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if len(coeffs) < 9:
                coeffs = poly_mul(coeffs, [-r, Fraction(1)])
                roots.append(r)
    cofactor_deg = draw(st.integers(min_value=0, max_value=9 - len(coeffs)))
    cofactor = draw(st.lists(st.integers(-9, 9), min_size=cofactor_deg, max_size=cofactor_deg))
    coeffs = poly_mul(coeffs, [Fraction(c) for c in cofactor] + [Fraction(draw(st.integers(1, 3)))])
    return coeffs, roots


@given(polys_with_roots())
@settings(max_examples=150, deadline=None)
def test_rational_roots_matches_trial_division(case):
    coeffs, roots = case
    found = rational_roots(coeffs)
    assert set(roots) <= set(found)
    assert found == trial_division_roots(coeffs)


@given(polys_with_roots(height=1000))
@settings(max_examples=60, deadline=None)
def test_rational_roots_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    coeffs, roots = case
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")
    expected = set()
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            c1, c0 = factor.all_coeffs()
            r = -c0 / c1
            expected.add(Fraction(int(r.p), int(r.q)))
    found = rational_roots(coeffs)
    assert set(roots) <= set(found)
    assert found == sorted(expected)


small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def random_subspace(draw, n):
    nvec = draw(st.integers(min_value=0, max_value=n))
    vecs = [[draw(small_rats) for _ in range(n)] for _ in range(nvec)]
    return Subspace.span(n, vecs)


@st.composite
def two_subspaces(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return random_subspace(draw, n), random_subspace(draw, n)


@given(two_subspaces())
@settings(max_examples=60, deadline=None)
def test_modular_law(pair):
    a, b = pair
    s = subspace_sum(a, b)
    i = subspace_intersect(a, b)
    assert a.dim + b.dim == s.dim + i.dim
    assert subspace_contains(s, a) and subspace_contains(s, b)
    assert subspace_contains(a, i) and subspace_contains(b, i)


def test_is_complement_cases():
    n = 3
    e = [Subspace.coordinate(n, [i]) for i in range(n)]
    plane12, plane23 = Subspace.coordinate(n, [0, 1]), Subspace.coordinate(n, [1, 2])
    assert is_complement(e[0], plane23) and is_complement(plane23, e[0])
    assert not is_complement(plane12, plane23)  # the sum is V, but not direct
    assert not is_complement(e[1], plane12)  # the line lies in the plane
    assert not is_complement(e[0], e[1])  # direct, but not all of V
    assert is_complement(Subspace.zero(n), Subspace.full(n))
    with pytest.raises(ValueError):
        is_complement(e[0], Subspace.full(2))


@given(two_subspaces())
@settings(max_examples=80, deadline=None)
def test_is_complement_is_a_direct_sum_of_v(pair):
    a, b = pair
    n = a.ambient_dim
    assert is_complement(a, b) == (subspace_intersect(a, b).dim == 0 and subspace_sum(a, b).dim == n)


@given(two_subspaces(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_canonicity_under_basis_change(pair, rng):
    # sum/intersect results do not depend on how the input bases are presented
    a, b = pair
    n = a.ambient_dim

    def scramble(s):
        vecs = [list(v) for v in s.vectors()]
        if len(vecs) >= 2:
            c = Fraction(rng.randint(-2, 2))
            vecs[0] = [x + c * y for x, y in zip(vecs[0], vecs[1])]
        if vecs:
            vecs[0] = [Fraction(3) * x for x in vecs[0]]
        return Subspace.span(n, vecs)

    assert subspace_sum(scramble(a), scramble(b)) == subspace_sum(a, b)
    assert subspace_intersect(scramble(a), scramble(b)) == subspace_intersect(a, b)


@st.composite
def affine_systems(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=4))
    a = M([[draw(small_rats) for _ in range(n)] for _ in range(m)])
    b = [draw(small_rats) for _ in range(m)]
    return a, b


@given(affine_systems())
@settings(max_examples=60, deadline=None)
def test_solve_affine_residuals(sys_):
    a, b = sys_
    sol = solve_affine(a, b)
    if sol.is_empty:
        y = sol.certificate
        ya = [sum(y[i] * a[i, j] for i in range(a.rows)) for j in range(a.cols)]
        assert not any(ya)
        assert sum(yi * bi for yi, bi in zip(y, b)) == 1
    else:
        assert a.apply(sol.particular) == tuple(b)
        for h in sol.homogeneous:
            assert not any(a.apply(h))
        assert a.apply(sol.point([1] * sol.dimension)) == tuple(b)


# ---------------------------------------------------------------------------
# Subspace construction: any spanning rows in, the canonical RREF basis out


def rows_matrix(n, rows):
    return RatMatrix(len(rows), n, tuple(Fraction(x) for r in rows for x in r))


def rref_span(n, rows):
    """Reference: the RREF of the rows, zero rows dropped."""
    red, rank = rref(rows_matrix(n, rows))
    return RatMatrix(rank, n, red.entries[: rank * n])


@st.composite
def spanning_rows(draw):
    """Random rows plus zero, repeated and scaled copies, in random order."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(small_rats) for _ in range(n)] for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        if not rows or draw(st.booleans()):
            rows.append([Fraction(0)] * n)
        else:
            c = draw(st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5)]))
            rows.append([c * x for x in draw(st.sampled_from(rows))])
    return n, draw(st.permutations(rows))


@given(spanning_rows())
@settings(max_examples=100, deadline=None)
def test_subspace_constructor_is_canonical(case):
    n, rows = case
    s = Subspace(n, rows_matrix(n, rows))
    assert s == Subspace.span(n, rows)
    assert s.basis == rref_span(n, rows)
    again = Subspace(n, s.basis)
    assert again == s and again.basis == s.basis


def test_subspace_width_mismatch_raises():
    with pytest.raises(ValueError):
        Subspace(3, M([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        Subspace(2, RatMatrix(0, 3, ()))
    with pytest.raises(ValueError):
        Subspace.span(3, [[1, 0, 0], [1, 0]])


@given(two_subspaces())
@settings(max_examples=60, deadline=None)
def test_sum_matches_span_of_both_bases(pair):
    a, b = pair
    n = a.ambient_dim
    assert subspace_sum(a, b).basis == rref_span(n, list(a.vectors()) + list(b.vectors()))


@st.composite
def matrix_and_subspace(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    g = M([[draw(small_rats) for _ in range(n)] for _ in range(n)])
    assume(g.is_invertible())
    return g, random_subspace(draw, n)


@given(matrix_and_subspace())
@settings(max_examples=60, deadline=None)
def test_image_under_matches_span_of_images(case):
    g, s = case
    n = s.ambient_dim
    gt = g.transpose()
    images = [(RatMatrix(1, n, v) * gt).row(0) for v in s.vectors()]
    assert image_under(g, s).basis == rref_span(n, images)


# ---------------------------------------------------------------------------
# sympy as an independent oracle (skipped when sympy is not installed)


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


@given(spanning_rows())
@settings(max_examples=80, deadline=None)
def test_rref_and_kernel_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    n, rows = case
    assume(rows)
    m = rows_matrix(n, rows)
    red, rank = rref(m)
    expected, pivots = to_sympy(sympy, m).rref()
    assert [from_sympy(x) for x in expected] == list(red.entries)
    assert rank == len(pivots)
    kernel = [tuple(from_sympy(x) for x in v) for v in to_sympy(sympy, m).nullspace()]
    assert kernel_basis(m) == kernel


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    return M([[draw(small_rats) for _ in range(n)] for _ in range(n)])


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_charpoly_matches_sympy(m):
    sympy = pytest.importorskip("sympy")
    expected = to_sympy(sympy, m).charpoly().all_coeffs()
    assert charpoly(m) == [from_sympy(c) for c in reversed(expected)]


@st.composite
def bivariate_pairs(draw):
    """Two polynomial dicts in (t1, t2), each of positive degree in t2."""

    def poly():
        terms = draw(
            st.dictionaries(
                st.tuples(st.integers(0, 2), st.integers(0, 2)), small_rats.filter(bool), max_size=5
            )
        )
        terms[(draw(st.integers(0, 2)), draw(st.integers(1, 2)))] = draw(small_rats.filter(bool))
        return terms

    return poly(), poly()


@given(bivariate_pairs())
@settings(max_examples=60, deadline=None)
def test_resultant_matches_sympy(pair):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def expr(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i * y**j for (i, j), c in p.items())

    p, q = pair
    expected = sympy.Poly(sympy.resultant(expr(p), expr(q), y), x, domain="QQ")
    want = [] if expected.is_zero else [from_sympy(c) for c in reversed(expected.all_coeffs())]
    assert resultant_in_second_var(p, q) == want


@given(affine_systems())
@settings(max_examples=80, deadline=None)
def test_solve_affine_matches_sympy(sys_):
    sympy = pytest.importorskip("sympy")
    a, b = sys_
    sol = solve_affine(a, b)
    sa = to_sympy(sympy, a)
    sb = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in b])
    assert sol.is_empty == (sa.row_join(sb).rank() > sa.rank())
    if sol.is_empty:
        y = sol.certificate
        assert [sum(y[i] * a[i, j] for i in range(a.rows)) for j in range(a.cols)] == [0] * a.cols
        assert sum(yi * Fraction(bi) for yi, bi in zip(y, b)) == 1
    else:
        assert a.apply(sol.particular) == tuple(b)
        nullspace = [[from_sympy(x) for x in v] for v in sa.nullspace()]
        assert len(sol.homogeneous) == len(nullspace)
        assert Subspace.span(a.cols, sol.homogeneous) == Subspace.span(a.cols, nullspace)
