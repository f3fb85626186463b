"""The 7-dimensional G2-module: trace-zero split octonions.

The group of type G2 is realized as the automorphisms of the split octonions
(Zorn vector matrices); it preserves an alternating trilinear form and the
polarized norm form on the trace-zero part.  The basis is chosen so that the
recorded maximal torus acts diagonally with weights
s, t, s t^-1, 1, s^-1 t, t^-1, s^-1 on e_1..e_7, the bilinear form pairs e_i
with e_{8-i}, and both structures have exact rational (in fact integer)
structure constants.  build_g2_data constructs everything from the octonion
product and verifies the invariants before handing the data out; the shipped
JSON fixture is just the frozen result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Optional

from .exactlin import RatMatrix, Subspace, ZERO, is_complement, kernel_basis, rat, rat_str, subspace_contains
from .flags import Flag, GroupH, subspace_is_stable
from .structcr import (
    BilinForm,
    FormFamily,
    SubspacePool,
    TriVerdict,
    graph_quadratics,
    is_totally_isotropic,
    isotropy_polys,
    perp,
    relcr_form_family,
)
from .toruscr import TorusK
from . import jsonio

G2_TORUS_LATTICE = ((1, 0, 1, 0, -1, 0, -1), (0, 1, -1, 0, 1, -1, 0))


# ---------------------------------------------------------------------------
# split octonions (Zorn vector matrices)


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def oct_mul(x, y):
    """Zorn product of (a, v, w, b) pairs of scalars and 3-vectors."""
    a1, v1, w1, b1 = x
    a2, v2, w2, b2 = y
    a = a1 * a2 + _dot(v1, w2)
    v = tuple(a1 * v2[i] + b2 * v1[i] - _cross(w1, w2)[i] for i in range(3))
    w = tuple(a2 * w1[i] + b1 * w2[i] + _cross(v1, v2)[i] for i in range(3))
    b = b1 * b2 + _dot(w1, v2)
    return (a, v, w, b)


def oct_norm(x):
    a, v, w, b = x
    return a * b - _dot(v, w)


def oct_bilinear(x, y):
    """-(N(x+y) - N(x) - N(y)); pairs e_i with e_{8-i} in the chosen basis."""
    a1, v1, w1, b1 = x
    a2, v2, w2, b2 = y
    return -(a1 * b2 + a2 * b1) + _dot(v1, w2) + _dot(v2, w1)


def _e3(i):
    return tuple(Fraction(1 if j == i else 0) for j in range(3))


_Z3 = (ZERO, ZERO, ZERO)

# trace-zero basis ordered by torus weight: s, t, s/t, 1, t/s, 1/t, 1/s
_OCT_BASIS = (
    (ZERO, _e3(0), _Z3, ZERO),  # e1
    (ZERO, _Z3, _e3(1), ZERO),  # e2
    (ZERO, _Z3, _e3(2), ZERO),  # e3
    (Fraction(1), _Z3, _Z3, Fraction(-1)),  # e4
    (ZERO, _e3(2), _Z3, ZERO),  # e5
    (ZERO, _e3(1), _Z3, ZERO),  # e6
    (ZERO, _Z3, _e3(0), ZERO),  # e7
)


def torus_element(s: Fraction, t: Fraction) -> RatMatrix:
    """diag(s, t, s/t, 1, t/s, 1/t, 1/s): the recorded torus at (s, t)."""
    from .corpus import diagonal_matrix

    return diagonal_matrix([s, t, s / t, Fraction(1), t / s, Fraction(1) / t, Fraction(1) / s])


@dataclass(frozen=True)
class G2Data:
    trilinear: tuple  # 7x7x7 nested tuples of Fraction, alternating
    bilinear: BilinForm
    torus: TorusK

    def tri(self, i: int, j: int, k: int) -> Fraction:
        return self.trilinear[i][j][k]

    def tri_value(self, x, y, z) -> Fraction:
        """f(x, y, z) for coordinate vectors x, y, z."""
        total = ZERO
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.trilinear[i][j]
                for k, zk in enumerate(z):
                    if zk and row[k]:
                        total += xi * yj * zk * row[k]
        return total


class G2ModelError(RuntimeError):
    """The octonion model failed one of its defining invariants."""


def build_g2_data() -> G2Data:
    """Construct the model from the split-octonion product and verify the
    invariants: the norm is multiplicative, the trilinear form is alternating
    with integer structure constants, both forms are invariant under the
    recorded torus, and the bilinear gram pairs e_i with e_{8-i}."""
    basis = _OCT_BASIS
    gram_rows = [[oct_bilinear(basis[i], basis[j]) for j in range(7)] for i in range(7)]
    tri = [
        [[oct_bilinear(oct_mul(basis[i], basis[j]), basis[k]) for k in range(7)] for j in range(7)]
        for i in range(7)
    ]
    # composition property on a deterministic sample of octonions
    samples = [
        (Fraction(1), _e3(0), _e3(1), Fraction(-2)),
        (Fraction(2), (Fraction(1), Fraction(-1), ZERO), (ZERO, Fraction(3), Fraction(1)), Fraction(1)),
        (Fraction(-1), (Fraction(2), ZERO, Fraction(1)), (Fraction(1), Fraction(1), Fraction(1)), ZERO),
    ]
    for x in samples:
        for y in samples:
            if oct_norm(oct_mul(x, y)) != oct_norm(x) * oct_norm(y):
                raise G2ModelError("norm is not multiplicative")
    # alternation in all three arguments
    for i in range(7):
        for j in range(7):
            for k in range(7):
                v = tri[i][j][k]
                if tri[j][i][k] != -v or tri[i][k][j] != -v:
                    raise G2ModelError("trilinear form is not alternating")
                if (i == j or j == k or i == k) and v != 0:
                    raise G2ModelError("trilinear form does not vanish on repeats")
    # torus invariance: nonzero structure constants only on zero-weight triples
    weights = list(zip(*G2_TORUS_LATTICE))
    for i in range(7):
        for j in range(7):
            if gram_rows[i][j] != 0 and any(a + b for a, b in zip(weights[i], weights[j])):
                raise G2ModelError("bilinear form is not torus-invariant")
            for k in range(7):
                if tri[i][j][k] != 0 and any(
                    a + b + c for a, b, c in zip(weights[i], weights[j], weights[k])
                ):
                    raise G2ModelError("trilinear form is not torus-invariant")
    # explicit invariance under a generic torus element, as a second check
    g = torus_element(Fraction(2), Fraction(3))
    for i in range(7):
        for j in range(7):
            gi, gj = g[i, i], g[j, j]
            if gram_rows[i][j] * gi * gj != gram_rows[i][j]:
                raise G2ModelError("bilinear form moved by the torus")
            for k in range(7):
                if tri[i][j][k] * gi * gj * g[k, k] != tri[i][j][k]:
                    raise G2ModelError("trilinear form moved by the torus")
    for i in range(7):
        for j in range(7):
            expected_nonzero = (i + j == 6) or (i == j == 3)
            if (gram_rows[i][j] != 0) != expected_nonzero:
                raise G2ModelError("gram matrix does not pair e_i with e_{8-i}")
    bil = BilinForm(7, RatMatrix.from_rows(gram_rows), "orthogonal")
    torus = TorusK.of(7, [list(r) for r in G2_TORUS_LATTICE])
    return G2Data(tuple(tuple(tuple(r) for r in p) for p in tri), bil, torus)


@lru_cache(maxsize=1)
def g2_data() -> G2Data:
    return build_g2_data()


# ---------------------------------------------------------------------------
# fixture round trip


def fixture_payload(d: G2Data) -> dict:
    triples = []
    for i in range(7):
        for j in range(i + 1, 7):
            for k in range(j + 1, 7):
                v = d.tri(i, j, k)
                if v:
                    triples.append([i + 1, j + 1, k + 1, rat_str(v)])
    return {
        "ambient_dim": 7,
        "gram": jsonio.matrix_to_json(d.bilinear.gram),
        "torus_lattice": [list(r) for r in d.torus.lattice_basis],
        "trilinear": triples,
    }


def data_from_fixture(payload: dict) -> G2Data:
    gram = jsonio.matrix_from_json(payload["gram"])
    torus = TorusK.of(7, payload["torus_lattice"])
    tri = [[[ZERO] * 7 for _ in range(7)] for _ in range(7)]
    for i1, j1, k1, val in payload["trilinear"]:
        i, j, k = i1 - 1, j1 - 1, k1 - 1
        v = rat(val)
        for (a, b, c), sign in (
            ((i, j, k), 1), ((j, k, i), 1), ((k, i, j), 1),
            ((j, i, k), -1), ((i, k, j), -1), ((k, j, i), -1),
        ):
            tri[a][b][c] = sign * v
    return G2Data(
        tuple(tuple(tuple(r) for r in p) for p in tri),
        BilinForm(7, gram, "orthogonal"),
        torus,
    )


def load_fixture(path: Optional[str] = None) -> G2Data:
    if path is None:
        text = resources.files("relcr").joinpath("data/g2_fixture.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return data_from_fixture(json.loads(text))


def fixture_matches_build(path: Optional[str] = None) -> bool:
    return load_fixture(path) == g2_data()


# ---------------------------------------------------------------------------
# doubly singular subspaces and their flags


def is_doubly_singular(u: Subspace, d: G2Data) -> bool:
    """Singular for the bilinear form and for the trilinear form (the latter
    is automatic for lines, by alternation; that convention is what makes the
    1-dimensional case a plain bilinear-singularity test)."""
    if u.dim not in (1, 2):
        raise ValueError("doubly singular is defined for dimensions 1 and 2")
    if not is_totally_isotropic(u, d.bilinear):
        return False
    if u.dim == 2:
        vs = u.vectors()
        for k in range(7):
            ek = [Fraction(1 if t == k else 0) for t in range(7)]
            if d.tri_value(vs[0], vs[1], ek) != 0:
                return False
    return True


def delta(u: Subspace, d: G2Data) -> Subspace:
    """The 3-dimensional radical of (y, z) -> f(x, y, z) for U = <x>."""
    if u.dim != 1 or not is_doubly_singular(u, d):
        raise ValueError("delta needs a doubly singular line")
    x = list(u.vectors()[0])
    rows = []
    for j in range(7):
        ej = [Fraction(1 if t == j else 0) for t in range(7)]
        rows.append([d.tri_value(x, ej, [Fraction(1 if t == k else 0) for t in range(7)]) for k in range(7)])
    rad = Subspace.span(7, kernel_basis(RatMatrix.from_rows(rows)))
    if rad.dim != 3 or not subspace_contains(rad, u):
        raise G2ModelError("radical of a doubly singular line is not a 3-space over the line")
    return rad


def g2_minimal_flag(u: Subspace, d: G2Data) -> Flag:
    """The minimal flag through a doubly singular subspace: dims {2,5} for a
    plane (u, u^perp), dims {1,3,4,6} for a line (u, delta, delta^perp, u^perp)."""
    if not is_doubly_singular(u, d):
        raise ValueError("need a doubly singular subspace of dimension 1 or 2")
    if u.dim == 2:
        return Flag(7, (u, perp(u, d.bilinear)))
    dl = delta(u, d)
    return Flag(7, (u, dl, perp(dl, d.bilinear), perp(u, d.bilinear)))


def g2_flag_shape_ok(f: Flag, d: G2Data) -> bool:
    """Shape test for membership in F_K for K of type G2, minimal flags only:
    the minimal flag, dims (2, 5) or (1, 3, 4, 6), through a doubly singular
    first member.  The full flags (dims 1..6) that also stem from K read
    False, so a g2 certificate names minimal flags."""
    return (
        f.dims() in ((2, 5), (1, 3, 4, 6))
        and is_doubly_singular(f.chain[0], d)
        and f == g2_minimal_flag(f.chain[0], d)
    )


# ---------------------------------------------------------------------------
# the Theorem-A.1-style checker


def _doubly_singular_polys(fam, d: G2Data):
    """Constraints on the family parameters making the graph subspace doubly
    singular: bilinear vanishing plus (for planes) trilinear vanishing against
    every basis vector; all quadratic in the parameters."""
    polys = isotropy_polys(fam, d.bilinear)
    if len(fam.comp_rows) == 2:
        units = [[Fraction(1 if t == k else 0) for t in range(7)] for k in range(7)]
        polys += graph_quadratics(
            fam, [(0, 1, lambda x, y, ek=ek: d.tri_value(x, y, ek)) for ek in units]
        )
    return polys


def g2_candidates(h: GroupH, d: G2Data, pool: SubspacePool) -> list:
    """Pool members hypothesis-qualifying for the two minimal-flag shapes:
    doubly singular subspaces whose whole minimal flag is H-stable."""
    out = []
    for s in pool.sorted_members():
        if s.dim not in (1, 2):
            continue
        if not is_doubly_singular(s, d):
            continue
        if not subspace_is_stable(s, h):
            continue
        fl = g2_minimal_flag(s, d)
        if all(subspace_is_stable(m, h) for m in fl.chain):
            out.append(s)
    return out


def _check_g2_witness(
    u: Subspace, uperp: Subspace, w: Subspace, h: GroupH, d: G2Data
) -> Optional[dict]:
    """Full Theorem-A.1 conditions for a candidate witness W; None if any
    check fails, else the check record."""
    b = d.bilinear
    if not is_doubly_singular(w, d):
        return None
    wflag = g2_minimal_flag(w, d)
    if not all(subspace_is_stable(m, h) for m in wflag.chain):
        return None
    wperp = perp(w, b)
    checks = {
        "w_doubly_singular": True,
        "w_flag_stable": True,
        "v_eq_w_plus_uperp": is_complement(w, uperp),
        "v_eq_u_plus_wperp": is_complement(u, wperp),
    }
    if u.dim == 1:
        du, dw = delta(u, d), delta(w, d)
        checks["v_eq_du_plus_dwperp"] = is_complement(du, perp(dw, b))
        checks["v_eq_dw_plus_duperp"] = is_complement(dw, perp(du, b))
    if not all(checks.values()):
        return None
    return checks


def relcr_g2(h: GroupH, d: G2Data, pool: SubspacePool, elim_dim_cap: int = 2) -> TriVerdict:
    """Decide the two minimal-flag conditions over the pool: every qualifying
    doubly singular U needs a partner W of the same dimension, doubly
    singular, with an H-stable minimal flag and the four complementarity
    direct sums.  Refutations require exact exhaustion of the W search."""
    if h.ambient_dim != 7:
        raise ValueError("the G2 module lives on Q^7")
    family = FormFamily(g2_candidates, _doubly_singular_polys, _check_g2_witness, None)
    return relcr_form_family(family, h, d, d.bilinear, pool, elim_dim_cap)
