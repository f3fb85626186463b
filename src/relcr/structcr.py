"""Semi-decision tier for structured non-toral K inside GL(V).

Covers K = GL(U) for a fixed splitting V = U + Utilde, and K = Sp(V) or
SO(V) for an invertible alternating or symmetric form.  The quantifier "for
every H-stable subspace arising from K" runs over a finite pool of subspaces
grown from seeds, so positive verdicts are pool-relative; negative verdicts
carry exact nonexistence proofs (empty linear systems or rational-root
analyses of eliminated polynomial systems) and are sound unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exactlin import (
    AffineSolution,
    ONE,
    RatMatrix,
    Subspace,
    ZERO,
    charpoly,
    is_complement,
    kernel_basis,
    pivot_columns,
    rational_roots,
    solve_affine,
    subspace_contains,
    subspace_intersect,
    subspace_sum,
)
from .flags import Flag, GroupH, is_stable, subspace_is_stable, verify_opposite
from . import jsonio


@dataclass(frozen=True)
class BilinForm:
    """An invertible bilinear form: alternating (symplectic) or symmetric
    (orthogonal).  Coefficients live in Q, so totally singular and totally
    isotropic coincide for the orthogonal kind."""

    ambient_dim: int
    gram: RatMatrix
    kind: str  # "symplectic" | "orthogonal"

    def __post_init__(self):
        n = self.ambient_dim
        if self.gram.rows != n or self.gram.cols != n:
            raise ValueError("gram matrix shape mismatch")
        if self.kind == "symplectic":
            if n % 2:
                raise ValueError("symplectic forms need even dimension")
            for i in range(n):
                if self.gram[i, i] != 0:
                    raise ValueError("symplectic gram must have zero diagonal")
                for j in range(n):
                    if self.gram[i, j] != -self.gram[j, i]:
                        raise ValueError("symplectic gram must be antisymmetric")
        elif self.kind == "orthogonal":
            for i in range(self.gram.rows):
                for j in range(i):
                    if self.gram[i, j] != self.gram[j, i]:
                        raise ValueError("orthogonal gram must be symmetric")
        else:
            raise ValueError("kind must be symplectic or orthogonal")
        if not self.gram.is_invertible():
            raise ValueError("gram matrix must be invertible")

    def pair(self, x, y) -> Fraction:
        return sum(
            (Fraction(a) * v for a, v in zip(x, self.gram.apply([Fraction(b) for b in y]))),
            ZERO,
        )


@dataclass(frozen=True)
class GLUSplit:
    """K = GL(U) embedded block-wise via a fixed splitting V = U + Utilde."""

    ambient_dim: int
    U: Subspace
    Utilde: Subspace

    def __post_init__(self):
        if self.U.ambient_dim != self.ambient_dim or self.Utilde.ambient_dim != self.ambient_dim:
            raise ValueError("split pieces live in the wrong space")
        if subspace_intersect(self.U, self.Utilde).dim != 0:
            raise ValueError("U and Utilde must intersect trivially")
        if self.U.dim + self.Utilde.dim != self.ambient_dim:
            raise ValueError("U and Utilde must be complementary")


def perp(u: Subspace, b: BilinForm) -> Subspace:
    """The annihilator {v : gram(x, v) = 0 for all x in u}."""
    if u.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if u.dim == 0:
        return Subspace.full(u.ambient_dim)
    return Subspace.span(u.ambient_dim, kernel_basis(u.basis * b.gram))


def is_totally_isotropic(u: Subspace, b: BilinForm) -> bool:
    if u.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    vs = u.vectors()
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            if b.pair(vs[i], vs[j]) != 0:
                return False
    return True


def form_adjoint(g: RatMatrix, b: BilinForm) -> RatMatrix:
    """g* with gram(g x, y) = gram(x, g* y):  g* = gram^-1 g^T gram."""
    if not g.is_invertible():
        raise ValueError("adjoint of a singular matrix")
    return b.gram.inverse() * g.transpose() * b.gram


def adjoint_extended(h: GroupH, b: BilinForm) -> GroupH:
    """h's generators together with their form-adjoints; a subspace stable
    under this set has an H-stable annihilator."""
    return GroupH(h.ambient_dim, h.generators + tuple(form_adjoint(g, b) for g in h.generators))


# ---------------------------------------------------------------------------
# subspace pools


@dataclass
class SubspacePool:
    ambient_dim: int
    members: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    closed: bool = True
    cap: int = 200

    def add(self, s: Subspace, tag: str) -> bool:
        if s in self.provenance:
            return False
        if len(self.members) >= self.cap:
            self.closed = False
            return False
        self.members.append(s)
        self.provenance[s] = tag
        return True

    def sorted_members(self) -> list:
        return sorted(self.members, key=lambda s: (s.dim, s.basis.entries))


def spin(v, acting: Sequence[RatMatrix], n: int) -> Subspace:
    """Smallest subspace containing v and stable under the acting matrices.

    Incremental spinning: the basis is kept in echelon form, each acting
    matrix is applied once to each basis vector, and an image joins the basis
    when it does not reduce to zero against it."""
    for g in acting:
        if not g.is_invertible():
            raise ValueError("matrix is singular")
    rows, pivots = [], []

    def absorb(w):
        for p, r in zip(pivots, rows):
            c = w[p]
            if c:
                w = [a - c * b if b else a for a, b in zip(w, r)]
        p = next((j for j, x in enumerate(w) if x), None)
        if p is not None:
            inv = ONE / w[p]
            rows.append([x * inv if x else x for x in w])
            pivots.append(p)

    for w in Subspace.span(n, [v]).vectors():  # v checked and scaled; none when v = 0
        absorb(list(w))
    done = 0
    while done < len(rows) < n:
        for g in acting:
            absorb(list(g.apply(rows[done])))
        done += 1
    return Subspace.span(n, rows)


def default_seeds(n: int, acting: Sequence[RatMatrix]) -> list:
    """Standard basis vectors plus rational-eigenvalue eigenvectors."""
    seeds = [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    ident = RatMatrix.identity(n)
    for g in acting:
        for lam in rational_roots(charpoly(g)):
            eig = g - ident.scale(lam)
            for v in kernel_basis(eig):
                seeds.append(tuple(v))
    return seeds


def build_pool(
    h: GroupH,
    extra_gens: Sequence[RatMatrix] = (),
    seeds: Optional[Sequence] = None,
    cap: int = 200,
    user_seeds: Sequence = (),
) -> SubspacePool:
    """Spin each seed under the generators (and extra generators), then close
    under pairwise sum and intersection up to the cap.  Every member is, by
    construction, stable under the full acting set.  seeds replaces the
    default seed set; user_seeds extends whatever seed set is in force."""
    n = h.ambient_dim
    # a generator that is its own form-adjoint acts twice; once is enough
    acting = list(dict.fromkeys(list(h.generators) + list(extra_gens)))
    replaced = seeds is not None
    if seeds is None:
        seeds = default_seeds(n, acting)
    pool = SubspacePool(ambient_dim=n, cap=cap)
    pool.add(Subspace.zero(n), "seed")
    pool.add(Subspace.full(n), "seed")
    spin_tag = "user" if replaced else ("adjoint-stable-solve" if extra_gens else "spin")
    # spin(c v) = spin(v): each seed line is spun once, at its first seed
    spun = set()
    for tag, vs in ((spin_tag, seeds), ("user", user_seeds)):
        for v in vs:
            vv = tuple(Fraction(x) for x in v)
            lead = next((x for x in vv if x), None)
            if lead is None:
                continue
            line = tuple(x / lead for x in vv)
            if line in spun:
                continue
            spun.add(line)
            pool.add(spin(vv, acting, n), tag)
    # closure under sum and intersection; when a + b is a, b or a direct sum,
    # a & b is b, a or 0, which is already a member
    i = 0
    while i < len(pool.members):
        a = pool.members[i]
        for j in range(i):
            b = pool.members[j]
            s = subspace_sum(a, b)
            pool.add(s, "sum")
            if s != a and s != b and s.dim != a.dim + b.dim:
                pool.add(subspace_intersect(a, b), "intersect")
            if not pool.closed:
                return pool
        i += 1
    return pool


# ---------------------------------------------------------------------------
# affine families of stable complements


@dataclass(frozen=True)
class ComplementFamily:
    """The H-stable complements of a fixed H-stable subspace, as an affine
    family: complements are graphs of linear maps phi from a fixed reference
    complement into the subspace, and all constraints are affine in phi."""

    ambient_dim: int
    base: Subspace
    comp_rows: tuple  # basis of the reference complement C0
    base_rows: tuple  # basis of the complemented subspace u
    solution: AffineSolution

    @property
    def is_empty(self) -> bool:
        return self.solution.is_empty

    @property
    def dimension(self) -> int:
        return self.solution.dimension

    def _graph_rows(self, phi_entries, starts=None) -> list:
        """Row i is starts[i] (by default the i-th reference complement row)
        plus the i-th row of phi applied to the base rows."""
        starts = self.comp_rows if starts is None else starts
        q = len(self.comp_rows)
        p = len(self.base_rows)
        rows = []
        for i in range(q):
            row = list(starts[i])
            for j in range(p):
                c = phi_entries[i * p + j]
                if c:
                    row = [a + c * bb for a, bb in zip(row, self.base_rows[j])]
            rows.append(row)
        return rows

    def subspace_at(self, params: Sequence) -> Subspace:
        if self.is_empty:
            raise ValueError("empty family")
        return Subspace.span(self.ambient_dim, self._graph_rows(self.solution.point(params)))

    def particular_subspace(self) -> Subspace:
        return self.subspace_at([0] * self.dimension)

    def symbolic_rows(self):
        """For each graph basis vector: (constant vector, one vector per
        affine parameter); the vector at parameters t is const + sum t_a dir_a."""
        if self.is_empty:
            raise ValueError("empty family")
        consts = self._graph_rows(self.solution.particular)
        zeros = [[ZERO] * self.ambient_dim] * len(self.comp_rows)
        dirs = [self._graph_rows(hvec, zeros) for hvec in self.solution.homogeneous]
        return consts, dirs


def stable_complements(
    u: Subspace,
    h: GroupH,
    inside: Optional[Subspace] = None,
    containing: Optional[Subspace] = None,
) -> ComplementFamily:
    """All H-stable complements W of u (optionally with W inside a given
    subspace, or containing one), as an affine family over the entries of the
    graph map phi.  Requires u itself to be H-stable."""
    n = u.ambient_dim
    if h.ambient_dim != n:
        raise ValueError("ambient dimension mismatch")
    if not subspace_is_stable(u, h):
        raise ValueError("the complemented subspace must be H-stable")
    pivots = set(pivot_columns(u.basis))
    comp_rows = []
    for j in range(n):
        if j not in pivots:
            comp_rows.append(tuple(Fraction(1 if t == j else 0) for t in range(n)))
    base_rows = [tuple(v) for v in u.vectors()]
    p = len(base_rows)
    q = len(comp_rows)
    nunk = p * q
    # coordinates with respect to the basis (u rows, C0 rows)
    smat = RatMatrix.from_rows([list(r) for r in base_rows] + [list(r) for r in comp_rows])
    sinv = smat.inverse()

    def coords(vec):
        x = (RatMatrix(1, n, tuple(vec)) * sinv).row(0)
        return x[:p], x[p:]  # (u-part, C0-part)

    eq_rows: list = []
    rhs: list = []

    def blank():
        return [ZERO] * nunk

    for g in h.generators:
        gu = []  # D: images of u-basis in u-coordinates
        for bvec in base_rows:
            gu.append(coords(g.apply(bvec))[0])  # u is H-stable: no C0 part
        for i in range(q):
            beta, gamma = coords(g.apply(comp_rows[i]))  # B c_i, A c_i
            for ell in range(p):
                row = blank()
                for j in range(p):
                    row[i * p + j] += gu[j][ell]
                for kk in range(q):
                    row[kk * p + ell] -= gamma[kk]
                eq_rows.append(row)
                rhs.append(-beta[ell])
    if inside is not None:
        if inside.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        ann = kernel_basis(inside.basis)
        for i in range(q):
            for z in ann:
                row = blank()
                for j in range(p):
                    row[i * p + j] = sum((a * bb for a, bb in zip(z, base_rows[j])), ZERO)
                eq_rows.append(row)
                rhs.append(-sum((a * bb for a, bb in zip(z, comp_rows[i])), ZERO))
    if containing is not None:
        if containing.ambient_dim != n:
            raise ValueError("ambient dimension mismatch")
        for bvec in containing.vectors():
            beta, gamma = coords(bvec)
            for ell in range(p):
                row = blank()
                for kk in range(q):
                    row[kk * p + ell] = gamma[kk]
                eq_rows.append(row)
                rhs.append(beta[ell])
    sol = solve_affine(RatMatrix(len(eq_rows), nunk, tuple(x for r in eq_rows for x in r)), rhs)
    return ComplementFamily(n, u, tuple(comp_rows), tuple(base_rows), sol)


# ---------------------------------------------------------------------------
# small multivariate polynomials over Q (for the quadratic witness searches)


def poly_eval(a, point):
    total = ZERO
    for k, v in a.items():
        term = v
        for e, x in zip(k, point):
            for _ in range(e):
                term *= x
        total += term
    return total


def poly_substitute(a, var, value):
    """Substitute one variable by a rational; the variable slot is removed."""
    value = Fraction(value)
    out = {}
    for k, v in a.items():
        term = v * value ** k[var]
        nk = k[:var] + k[var + 1 :]
        s = out.get(nk, ZERO) + term
        if s:
            out[nk] = s
        else:
            out.pop(nk, None)
    return out


def poly_degree_in(a, var):
    return max((k[var] for k in a), default=-1)


def poly_to_univariate(a):
    """Coefficient list (low to high) of a 1-variable polynomial dict."""
    d = poly_degree_in(a, 0)
    out = [ZERO] * (d + 1)
    for k, v in a.items():
        out[k[0]] = v
    return out


def _univ_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _univ_add(a, b):
    out = [ZERO] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _univ_trim(out)


def _univ_mul(a, b):
    if not a or not b:
        return []
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _univ_trim(out)


def _univ_scale(a, c):
    c = Fraction(c)
    return _univ_trim([c * x for x in a]) if c else []


def resultant_in_second_var(p, q):
    """Resultant of two bivariate polynomial dicts with respect to variable 1,
    returned as a univariate coefficient list in variable 0.  Computed as the
    Sylvester determinant with univariate-polynomial entries."""

    def coeff_lists(poly):
        d = poly_degree_in(poly, 1)
        out = [dict() for _ in range(d + 1)]
        for k, v in poly.items():
            out[k[1]][(k[0],)] = v
        return [poly_to_univariate(c) if c else [] for c in out]

    pc = coeff_lists(p)
    qc = coeff_lists(q)
    dp, dq = len(pc) - 1, len(qc) - 1
    if dp < 1 or dq < 1:
        raise ValueError("resultant needs positive degree in the eliminated variable")
    size = dp + dq
    rows = []
    for i in range(dq):
        row = [[] for _ in range(size)]
        for j, c in enumerate(reversed(pc)):
            row[i + j] = c
        rows.append(row)
    for i in range(dp):
        row = [[] for _ in range(size)]
        for j, c in enumerate(reversed(qc)):
            row[i + j] = c
        rows.append(row)
    return _poly_matrix_det(rows)


def _poly_matrix_det(rows):
    n = len(rows)
    if n == 1:
        return _univ_trim(rows[0][0])
    det = []
    for i in range(n):
        entry = rows[i][0]
        if not entry:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = _univ_mul(entry, _poly_matrix_det(minor))
        if i % 2:
            term = _univ_scale(term, -1)
        det = _univ_add(det, term)
    return det


# rational solvability of small polynomial systems -------------------------


def enumerate_poly_solutions(polys, nvars):
    """Rational solutions of a system of polynomials in <= 2 variables.

    Returns a triple (status, payload, note):
      - ("empty", proof, note): provably no rational solution, with a
        machine-checkable proof (a nonzero constant equation, or an
        eliminated univariate polynomial with every rational root refuted);
      - ("all", points, note): the complete, nonempty, finite solution set;
      - ("some", points, note): a possibly-incomplete (even empty) list found
        by sampling; never evidence of emptiness.
    """
    live = [p for p in polys if p]
    if not live:
        # zero parameters means a single point, so the listing is complete
        if nvars == 0:
            return "all", [()], ""
        return "some", [(ZERO,) * nvars], "unconstrained family"
    proof = _constant_proof(live)
    if proof is not None:
        return "empty", proof, "contradictory constant equation"
    if nvars == 1:
        status, payload = _solve_univariate_system(live)
        if status == "empty":
            return "empty", payload, "univariate analysis"
        return "all", payload, ""
    if nvars == 2:
        return _enumerate_bivariate(live)
    return "some", [], f"{nvars} parameters exceed the elimination machinery"


def solve_poly_system(polys, nvars):
    """Decide rational solvability of a system in <= 2 variables: returns
    ("solution", point), ("empty", proof) or ("inconclusive", reason)."""
    status, payload, note = enumerate_poly_solutions(polys, nvars)
    if status == "empty":
        return "empty", payload
    if payload:
        return "solution", payload[0]
    return "inconclusive", note or "no rational point found"


def poly_degree_total(p):
    return max((sum(k) for k in p), default=-1)


def _constant_proof(live):
    """An emptiness proof from the first constant of live (nonzero, as every
    member of live is), or None when live holds no constant."""
    for idx, p in enumerate(live):
        if poly_degree_total(p) == 0:
            return {
                "kind": "constant",
                "value": jsonio.vector_to_json([next(iter(p.values()))])[0],
                "poly_index": idx,
            }
    return None


def _solve_univariate_system(live):
    """live: nonempty list of nonzero 1-variable polynomial dicts.  Returns
    ("empty", proof) or ("all", complete list of common rational zeros)."""
    proof = _constant_proof(live)
    if proof is not None:
        return "empty", proof
    lead = poly_to_univariate(live[0])
    sols = []
    checked = []
    for r in rational_roots(lead):
        bad = None
        for idx, p in enumerate(live):
            if poly_eval(p, (r,)) != 0:
                bad = idx
                break
        if bad is None:
            sols.append((r,))
        else:
            checked.append({"root": jsonio.vector_to_json([r])[0], "refuted_by": bad})
    if sols:
        return "all", sols
    return "empty", {
        "kind": "univariate",
        "poly": jsonio.vector_to_json(lead),
        "roots_checked": checked,
    }


# sample values for a parameter that elimination leaves free: 0, 1, -1, ...,
# 6, -6; a free fibre is sampled at the first five
_SAMPLE_VALUES = (ZERO,) + tuple(Fraction(s * i) for i in range(1, 7) for s in (1, -1))
_FIBRE_SAMPLES = _SAMPLE_VALUES[:5]


def _fibre(live, var, value):
    """The system on the line {t_var = value}: None when every polynomial
    vanishes on the whole line, else _solve_univariate_system's answer in
    the other variable."""
    subs = [q for q in (poly_substitute(p, var, value) for p in live) if q]
    return _solve_univariate_system(subs) if subs else None


def _sample_lines(live, var, values):
    """Rational zeros of the system on the lines {t_var = v}, v in values, in
    order; a line on which every polynomial vanishes gives _FIBRE_SAMPLES."""
    pts = []
    for value in values:
        fibre = _fibre(live, var, value)
        if fibre is None:
            others = _FIBRE_SAMPLES
        else:
            status, payload = fibre
            others = [t[0] for t in payload] if status == "all" else []
        pts.extend((value, o) if var == 0 else (o, value) for o in others)
    return pts


def _enumerate_bivariate(live):
    only_t1 = [p for p in live if poly_degree_in(p, 1) <= 0]
    mixed = [p for p in live if poly_degree_in(p, 1) > 0]
    if not mixed:
        squeezed = [{(k[0],): v for k, v in p.items()} for p in live]
        status, payload = _solve_univariate_system(squeezed)
        if status == "empty":
            return "empty", payload, "first coordinate obstructed"
        pts = [(t1[0], s) for t1 in payload for s in _FIBRE_SAMPLES]
        return "some", pts, "second coordinate unconstrained"
    if len(live) == 1:
        # one plane curve: sample vertical lines, then horizontal ones
        pts = _sample_lines(live, 0, _SAMPLE_VALUES) or _sample_lines(live, 1, _SAMPLE_VALUES)
        return "some", pts, "" if pts else "single plane curve sampled"
    eliminated = [poly_to_univariate({(k[0],): v for k, v in p.items()}) for p in only_t1]
    for i in range(len(mixed)):
        for j in range(i + 1, len(mixed)):
            eliminated.append(resultant_in_second_var(mixed[i], mixed[j]))
    pivot = next((e for e in eliminated if _univ_trim(e)), None)
    if pivot is None:
        # all resultants vanish identically (shared factor): sample for
        # solutions, but never conclude emptiness this way
        note = "vanishing resultants (positive-dimensional common factor)"
        return "some", _sample_lines(live, 0, _SAMPLE_VALUES), note
    # any common rational zero has its first coordinate among the pivot's
    # rational roots: the resultant lies in the elimination ideal
    candidates = rational_roots(pivot)
    pts = []
    per_candidate = []
    complete = True
    for t1 in candidates:
        fibre = _fibre(live, 0, t1)
        if fibre is None:
            complete = False  # a whole fibre of solutions
            pts.extend((t1, s) for s in _FIBRE_SAMPLES)
        elif fibre[0] == "all":
            pts.extend((t1, t2) for (t2,) in fibre[1])
        else:
            per_candidate.append({"t1": jsonio.vector_to_json([t1])[0], "proof": fibre[1]})
    if pts:
        return ("all" if complete else "some"), pts, ""
    return (
        "empty",
        {
            "kind": "resultant",
            "eliminated": jsonio.vector_to_json(pivot),
            "candidates": [jsonio.vector_to_json([c])[0] for c in candidates],
            "per_candidate": per_candidate,
        },
        "resultant elimination",
    )


# independent re-verification of emptiness proofs ---------------------------


def is_rational_square(x: Fraction) -> bool:
    if x < 0:
        return False
    from math import isqrt

    pn, pd = x.numerator, x.denominator
    return isqrt(pn) ** 2 == pn and isqrt(pd) ** 2 == pd


def univariate_has_no_rational_root(coeffs) -> bool:
    """Direct decision: quadratics go through discriminant sign/squareness
    analysis, independent of the root-enumeration path; other degrees through
    rational_roots."""
    cs = _univ_trim([Fraction(c) for c in coeffs])
    if not cs:
        return False
    if len(cs) == 1:
        return True
    if len(cs) == 3:
        a, b, c = cs[2], cs[1], cs[0]
        disc = b * b - 4 * a * c
        return not is_rational_square(disc)
    return not rational_roots(cs)


def _refute_univariate_direct(polys) -> bool:
    """Directly confirm that nonzero 1-variable polynomials have no common
    rational zero: a nonzero constant among them, or a pivot with no rational
    root at all (discriminant analysis for quadratics), or every pivot root
    refuted by some other member."""
    if not polys:
        return False
    if any(poly_degree_total(p) == 0 for p in polys):
        return True
    pivot = poly_to_univariate(polys[0])
    if univariate_has_no_rational_root(pivot):
        return True
    for r in rational_roots(pivot):
        if all(poly_eval(p, (r,)) == 0 for p in polys):
            return False
    return True


def verify_emptiness_proof(proof, polys, nvars) -> bool:
    """Re-check an emptiness proof against the polynomial system it claims to
    refute, by the direct methods (discriminant analysis, substitution)."""
    kind = proof.get("kind")
    live = [p for p in polys if p]
    if kind == "constant":
        return any(poly_degree_total(p) == 0 for p in live)
    if kind == "univariate":
        coeffs = _univ_trim([Fraction(c) for c in proof["poly"]])
        if not coeffs or not any(coeffs == _univ_trim(poly_to_univariate(p)) for p in live):
            return False
        return _refute_univariate_direct(live)
    if kind == "resultant":
        coeffs = _univ_trim([Fraction(c) for c in proof["eliminated"]])
        if not coeffs:
            return False
        # the claimed eliminated polynomial must re-derive from the system
        rederived = [
            _univ_trim(poly_to_univariate({(k[0],): v for k, v in p.items()}))
            for p in live
            if poly_degree_in(p, 1) <= 0
        ]
        mixed = [p for p in live if poly_degree_in(p, 1) > 0]
        for i in range(len(mixed)):
            for j in range(i + 1, len(mixed)):
                rederived.append(_univ_trim(resultant_in_second_var(mixed[i], mixed[j])))
        if coeffs not in rederived:
            return False
        claimed = {Fraction(c) for c in proof["candidates"]}
        if set(rational_roots(coeffs)) != claimed:
            return False
        for t1 in sorted(claimed):
            subs = [q for q in (poly_substitute(p, 0, t1) for p in live) if q]
            if not _refute_univariate_direct(subs):
                return False
        return True
    return False


# ---------------------------------------------------------------------------
# verdicts


RELCR_WITNESSED = "relcr_witnessed"
NOT_RELCR_WITNESSED = "not_relcr_witnessed"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class TriVerdict:
    value: str
    witnesses: tuple  # one entry per examined candidate subspace
    inconclusive_reason: Optional[str]
    pool_complete: bool

    @property
    def exit_style(self) -> int:
        return {RELCR_WITNESSED: 0, NOT_RELCR_WITNESSED: 1, INCONCLUSIVE: 2}[self.value]


def _verdict(entries, pool: SubspacePool) -> TriVerdict:
    """Any entry carrying an exact proof refutes; otherwise the first entry
    whose search stopped short makes the verdict inconclusive."""
    entries = tuple(entries)
    if any("proof" in e for e in entries):
        return TriVerdict(NOT_RELCR_WITNESSED, entries, None, pool.closed)
    reason = next((e["inconclusive"] for e in entries if "inconclusive" in e), None)
    value = RELCR_WITNESSED if reason is None else INCONCLUSIVE
    return TriVerdict(value, entries, reason, pool.closed)


def _family_payload(fam: ComplementFamily) -> dict:
    if fam.is_empty:
        return {
            "empty": True,
            "farkas_certificate": jsonio.vector_to_json(fam.solution.certificate),
        }
    return {
        "empty": False,
        "dimension": fam.dimension,
        "phi_particular": jsonio.vector_to_json(fam.solution.particular),
        "phi_homogeneous": [jsonio.vector_to_json(hv) for hv in fam.solution.homogeneous],
        "reference_complement": [jsonio.vector_to_json(r) for r in fam.comp_rows],
    }


def _poly_payload(polys) -> list:
    out = []
    for p in polys:
        out.append(
            {
                "exponents": [list(k) for k in sorted(p)],
                "coefficients": [jsonio.vector_to_json([p[k]])[0] for k in sorted(p)],
            }
        )
    return out


# ---------------------------------------------------------------------------
# K = GL(U)


def _in_sk(s: Subspace, split: GLUSplit) -> bool:
    """S_K for K = GL(U), up to properness: inside U or containing Utilde."""
    return subspace_contains(split.U, s) or subspace_contains(s, split.Utilde)


def glu_members(split: GLUSplit, pool: SubspacePool) -> list:
    """Pool members lying in S_K: proper nonzero subspaces contained in U or
    containing Utilde."""
    return [s for s in pool.sorted_members() if 0 < s.dim < split.ambient_dim and _in_sk(s, split)]


def glu_flag_in_fk(f: Flag, split: GLUSplit) -> bool:
    return all(_in_sk(s, split) for s in f.chain)


def relcr_glu(h: GroupH, split: GLUSplit, pool: SubspacePool) -> TriVerdict:
    """Complement-existence criterion for K = GL(U): every H-stable member of
    S_K must admit an H-stable complement inside S_K.  Refutations (both
    S_K sides provably empty) are sound regardless of pool completeness."""
    if h.ambient_dim != split.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    entries = []
    for cand in glu_members(split, pool):
        if not subspace_is_stable(cand, h):
            continue
        fam_sup = stable_complements(cand, h, containing=split.Utilde)
        fam_sub = stable_complements(cand, h, inside=split.U)
        entry = {
            "candidate": jsonio.subspace_to_json(cand),
            "candidate_dim": cand.dim,
        }
        entries.append(entry)
        for side, fam in (("containing_utilde", fam_sup), ("inside_u", fam_sub)):
            if not fam.is_empty:
                w = fam.particular_subspace()
                _assert_glu_witness(cand, w, h, split)
                entry.update(
                    {
                        "complement": jsonio.subspace_to_json(w),
                        "side": side,
                        "family": _family_payload(fam),
                    }
                )
                break
        else:
            entry["proof"] = {
                "kind": "affine_empty_both_sides",
                "containing_utilde": _family_payload(fam_sup),
                "inside_u": _family_payload(fam_sub),
            }
    return _verdict(entries, pool)


def _assert_glu_witness(cand: Subspace, w: Subspace, h: GroupH, split: GLUSplit):
    if not (is_complement(cand, w) and subspace_is_stable(w, h) and _in_sk(w, split)):
        raise AssertionError("internal: complement witness failed verification")


# ---------------------------------------------------------------------------
# form-preserving K: one driver for Sp(V), SO(V) and G2 (see g2model)


@dataclass(frozen=True)
class FormFamily:
    """What one form-preserving K plugs into relcr_form_family; every
    callable takes the K data k last."""

    candidates: Callable  # (h, k, pool) -> the members U that need a partner
    polys: Callable  # (family, k) -> polynomials whose rational zeros are the valid W
    witness: Callable  # (u, uperp, w, h, k) -> check record, or None to reject w
    system_key: Optional[str]  # report key for the system next to a witness, if any


def relcr_form_family(
    family: FormFamily,
    h: GroupH,
    k,
    b: BilinForm,
    pool: SubspacePool,
    elim_dim_cap: int = 2,
) -> TriVerdict:
    """Pool-based criterion for a K preserving the form b: every candidate U
    needs a partner W with V = W + U^perp.  The W search space, the
    complements of U^perp stable under the generators and their b-adjoints,
    is exactly the set of H-stable W with H-stable annihilator; the family's
    polynomials cut the valid W out of it.  An exactly exhausted search
    refutes relative complete reducibility unconditionally."""
    if h.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    h_ext = adjoint_extended(h, b)
    entries = [
        _form_family_entry(family, u, perp(u, b), h, h_ext, k, elim_dim_cap)
        for u in family.candidates(h, k, pool)
    ]
    return _verdict(entries, pool)


def _form_family_entry(family, u, uperp, h, h_ext, k, elim_dim_cap) -> dict:
    """The report entry for one candidate U: a witness W, an exact proof that
    none exists ("proof"), or why the search stopped short ("inconclusive")."""
    entry = {"u": jsonio.subspace_to_json(u), "u_dim": u.dim}
    fam = stable_complements(uperp, h_ext)
    if fam.is_empty:
        entry["proof"] = {"kind": "affine_empty", "family": _family_payload(fam)}
        return entry
    if fam.dimension > elim_dim_cap:
        entry["inconclusive"] = (
            f"affine family dimension {fam.dimension} exceeds elimination cap {elim_dim_cap}"
        )
        entry["family"] = _family_payload(fam)
        return entry
    polys = family.polys(fam, k)
    status, points, note = enumerate_poly_solutions(polys, fam.dimension)
    if status == "empty":
        entry["proof"] = {
            "kind": "quadratic_elimination",
            "family": _family_payload(fam),
            "system": _poly_payload(polys),
            "emptiness": points,
        }
        return entry
    rejected = []
    for point in points:
        w = fam.subspace_at(point)
        checks = family.witness(u, uperp, w, h, k)
        if checks is None:
            rejected.append(jsonio.subspace_to_json(w))
            continue
        entry["w"] = jsonio.subspace_to_json(w)
        entry["family"] = _family_payload(fam)
        if family.system_key:
            entry[family.system_key] = _poly_payload(polys)
        entry["checks"] = checks
        return entry
    if status == "all":
        entry["proof"] = {
            "kind": "finite_candidates_exhausted",
            "family": _family_payload(fam),
            "system": _poly_payload(polys),
            "rejected": rejected,
        }
        return entry
    entry["inconclusive"] = note or "sampled family without a qualifying member"
    entry["family"] = _family_payload(fam)
    return entry


def graph_quadratics(fam: ComplementFamily, conditions) -> list:
    """The nonzero polynomials f(x_i(t), x_j(t)) in the family parameters t,
    one per (i, j, f) in conditions, where x_i(t) is the i-th basis vector of
    the graph subspace at t and f is bilinear, so each is at most quadratic."""
    consts, dirs = fam.symbolic_rows()
    d = len(dirs)

    def vec(idx, which):
        return consts[which] if idx == 0 else dirs[idx - 1][which]

    polys = []
    for i, j, f in conditions:
        poly = {}
        for a in range(d + 1):
            for c in range(d + 1):
                val = f(vec(a, i), vec(c, j))
                if not val:
                    continue
                expo = [0] * d
                if a:
                    expo[a - 1] += 1
                if c:
                    expo[c - 1] += 1
                key = tuple(expo)
                s = poly.get(key, ZERO) + val
                if s:
                    poly[key] = s
                else:
                    poly.pop(key, None)
        if poly:
            polys.append(poly)
    return polys


# K = Sp(V) or SO(V)


def classical_candidates(h: GroupH, b: BilinForm, pool: SubspacePool) -> list:
    out = []
    for s in pool.sorted_members():
        if s.dim == 0 or s.dim == b.ambient_dim:
            continue
        if not is_totally_isotropic(s, b):
            continue
        if not subspace_is_stable(s, h):
            continue
        if not subspace_is_stable(perp(s, b), h):
            continue
        out.append(s)
    return out


def classical_flag_in_fk(f: Flag, b: BilinForm) -> bool:
    """F_K for Sp/SO: chains whose j-th member annihilates the j-th from the end."""
    m = f.length
    return all(perp(f.chain[j], b) == f.chain[m - 1 - j] for j in range(m))


def isotropy_polys(fam: ComplementFamily, b: BilinForm) -> list:
    """Quadratic conditions on the family parameters making the graph
    subspace totally isotropic; a vector against itself is automatic for an
    alternating form."""
    q = len(fam.comp_rows)
    return graph_quadratics(
        fam,
        [(i, j, b.pair) for i in range(q) for j in range(i, q) if i != j or b.kind != "symplectic"],
    )


def _isotropic_flag(u: Subspace, uperp: Subspace) -> Flag:
    if u == uperp:
        return Flag(u.ambient_dim, (u,))
    return Flag(u.ambient_dim, (u, uperp))


def relcr_classical(
    h: GroupH,
    b: BilinForm,
    pool: SubspacePool,
    elim_dim_cap: int = 2,
) -> TriVerdict:
    """Cor-style criterion for K = Sp(V) / SO(V): for every H-stable totally
    isotropic U with H-stable annihilator, find a totally isotropic W, stable
    together with its annihilator, with V = W + U^perp = U + W^perp."""
    family = FormFamily(
        classical_candidates, isotropy_polys, _verify_classical_witness, "isotropy_system"
    )
    return relcr_form_family(family, h, b, b, pool, elim_dim_cap)


def _verify_classical_witness(u, uperp, w, h, b) -> dict:
    wperp = perp(w, b)
    checks = {
        "w_totally_isotropic": is_totally_isotropic(w, b),
        "w_stable": subspace_is_stable(w, h),
        "w_perp_stable": subspace_is_stable(wperp, h),
        "w_plus_uperp_direct": is_complement(w, uperp),
        "u_plus_wperp_direct": is_complement(u, wperp),
    }
    checks["flags_opposite"] = (
        verify_opposite(_isotropic_flag(u, uperp), _isotropic_flag(w, wperp)) is not None
    )
    if not all(checks.values()):
        raise AssertionError(f"internal: classical witness failed verification: {checks}")
    return checks


def recheck_refutation(entry, h: GroupH, b: BilinForm, elim_dim_cap: int = 2) -> bool:
    """Independent soundness pass over a NotRelCR witness entry: rebuild the
    affine family and the isotropy system from scratch and confirm the claimed
    emptiness by the direct methods."""
    u = jsonio.subspace_from_json(entry["u"], b.ambient_dim)
    proof = entry["proof"]
    h_ext = adjoint_extended(h, b)
    fam = stable_complements(perp(u, b), h_ext)
    if proof["kind"] == "affine_empty":
        if not fam.is_empty:
            return False
        cert = fam.solution.certificate
        return cert is not None
    if proof["kind"] == "quadratic_elimination":
        if fam.is_empty or fam.dimension > elim_dim_cap:
            return False
        polys = isotropy_polys(fam, b)
        return verify_emptiness_proof(proof["emptiness"], polys, fam.dimension)
    return False


# ---------------------------------------------------------------------------
# certificates (Thm-1.2-style opposite families)


@dataclass(frozen=True)
class CertificateReport:
    accepted: bool
    pair_reports: tuple
    coverage_checked: bool
    coverage_ok: bool
    detail: str


def verify_certificate(h: GroupH, claim, k_kind: str, k_data) -> CertificateReport:
    """Check a claimed family of H-stable opposite flag pairs against the
    flags stemming from K.  Sound verifier: accepts only verified claims;
    completeness of the claimed family is only checked for torus K, where the
    minimal flags can be enumerated."""
    pair_reports = []
    ok = True
    for idx, (f1, f2) in enumerate(claim):
        rep = {"index": idx}
        in1 = _flag_in_fk(f1, k_kind, k_data)
        in2 = _flag_in_fk(f2, k_kind, k_data)
        st1 = is_stable(f1, h)
        st2 = is_stable(f2, h)
        opp = verify_opposite(f1, f2) is not None if (f1.chain and f2.chain) else False
        rep.update(
            {
                "flag_in_fk": in1,
                "opposite_in_fk": in2,
                "flag_stable": st1,
                "opposite_stable": st2,
                "opposite_pair": opp,
            }
        )
        pair_reports.append(rep)
        ok = ok and in1 and in2 and st1 and st2 and opp
    coverage_checked = False
    coverage_ok = True
    detail = ""
    if k_kind == "torus":
        from .toruscr import _class_reach, _flag_stable, flag_of_type, minimal_flags

        coverage_checked = True
        claimed_firsts = {f1 for f1, _ in claim}
        reach = _class_reach(h, k_data)
        for ft, _ in minimal_flags(k_data):
            if not _flag_stable(reach, ft):
                continue
            fl = flag_of_type(ft, k_data)
            if fl not in claimed_firsts:
                coverage_ok = False
                detail = f"H-stable minimal flag of dims {list(fl.dims())} not covered"
                break
        ok = ok and coverage_ok
    return CertificateReport(ok, tuple(pair_reports), coverage_checked, coverage_ok, detail)


def _flag_in_fk(f: Flag, k_kind: str, k_data) -> bool:
    from .kinds import KINDS

    if k_kind not in KINDS:
        raise ValueError(f"unknown K kind: {k_kind}")
    return KINDS[k_kind].in_fk(f, k_data)
