"""Exact rational linear algebra: dense matrices, canonical subspaces, affine solving.

Everything is built on :class:`fractions.Fraction`, so all results are exact.
A Subspace holds the reduced row echelon form of the row space of whatever
basis it is given, which makes equality of subspaces a plain structural
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

# Arbitrary-precision rationals.  Fraction already maintains the invariants we
# need (reduced, positive denominator), so it *is* our Rational type.
Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings like "3/4" or "-2", and Fractions to Rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise ValueError(f"cannot interpret {x!r} as a rational number")


def rat_str(x: Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix, entries stored row-major and immutable."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "RatMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            entries.extend(rat(x) for x in r)
        return RatMatrix(nrows, ncols, tuple(entries))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols, (ZERO,) * (rows * cols))

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        return RatMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return RatMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scale(self, c) -> "RatMatrix":
        c = rat(c)
        return RatMatrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        n, m, k = self.rows, other.cols, self.cols
        out = []
        for i in range(n):
            ri = self.row(i)
            for j in range(m):
                s = ZERO
                for t in range(k):
                    a = ri[t]
                    if a:
                        s += a * other.entries[t * m + j]
                out.append(s)
        return RatMatrix(n, m, tuple(out))

    def apply(self, v: Sequence[Fraction]) -> tuple:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for i in range(self.rows):
            s = ZERO
            for a, x in zip(self.row(i), v):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def stack(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return RatMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum((self[i, i] for i in range(self.rows)), ZERO)

    def is_invertible(self) -> bool:
        if self.rows != self.cols:
            return False
        return _is_invertible_cached(self)

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = [list(self.row(i)) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        rank = _row_reduce(aug, n)
        if rank != n:
            raise ValueError("matrix is singular")
        return RatMatrix.from_rows([r[n:] for r in aug])


@lru_cache(maxsize=4096)
def _is_invertible_cached(m: "RatMatrix") -> bool:
    return rref(m)[1] == m.rows


def _row_reduce(m: list, pivot_limit: int) -> int:
    """In-place reduced row echelon form, searching pivots only in the first
    pivot_limit columns.  Returns the rank (number of pivots found)."""
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    piv_r = 0
    for col in range(min(pivot_limit, ncols)):
        sel = None
        for i in range(piv_r, nrows):
            if m[i][col]:
                sel = i
                break
        if sel is None:
            continue
        if sel != piv_r:
            m[piv_r], m[sel] = m[sel], m[piv_r]
        prow = m[piv_r]
        inv = ONE / prow[col]
        if inv != 1:
            prow = m[piv_r] = [x * inv if x else x for x in prow]
        support = [j for j, b in enumerate(prow) if b]
        for i in range(nrows):
            if i != piv_r and m[i][col]:
                f = m[i][col]
                row = m[i]
                for j in support:
                    row[j] -= f * prow[j]
        piv_r += 1
        if piv_r == nrows:
            break
    return piv_r


def rref(m: RatMatrix) -> tuple:
    """Reduced row echelon form and rank; the shape is preserved."""
    rows = m.row_list()
    rank = _row_reduce(rows, m.cols)
    return RatMatrix(m.rows, m.cols, tuple(x for r in rows for x in r)), rank


def pivot_columns(m: RatMatrix) -> list:
    """Pivot columns of a matrix already in RREF."""
    pivots = []
    for i in range(m.rows):
        for j in range(m.cols):
            if m[i, j]:
                pivots.append(j)
                break
    return pivots


def kernel_basis(m: RatMatrix) -> list:
    """Basis (list of tuples) of the right null space {x : m x = 0}."""
    red, rank = rref(m)
    pivots = pivot_columns(red)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -red[i, f]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, held as a canonical RREF basis (rows = vectors).

    The constructor accepts any spanning rows (zero and dependent rows
    included) and stores the RREF of their row space without its zero rows.
    Canonicity makes equality structural: two Subspace objects are equal as
    dataclasses exactly when they are equal as subspaces.
    """

    ambient_dim: int
    basis: RatMatrix

    def __post_init__(self):
        n = self.ambient_dim
        if self.basis.cols != n:
            raise ValueError("basis width must equal ambient dimension")
        rows = self.basis.row_list()
        rank = _row_reduce(rows, n)
        object.__setattr__(self, "basis", RatMatrix(rank, n, tuple(x for r in rows[:rank] for x in r)))

    @staticmethod
    def span(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [[rat(x) for x in v] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length must equal ambient dimension")
        return Subspace(ambient_dim, RatMatrix(len(rows), ambient_dim, tuple(x for r in rows for x in r)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim))

    @staticmethod
    def coordinate(ambient_dim: int, coords: Iterable[int]) -> "Subspace":
        """Span of the standard basis vectors with the given 0-based indices."""
        vs = []
        for c in sorted(set(coords)):
            v = [ZERO] * ambient_dim
            v[c] = ONE
            vs.append(v)
        return Subspace.span(ambient_dim, vs)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> list:
        return [self.basis.row(i) for i in range(self.basis.rows)]


def _check_same_ambient(a: Subspace, b: Subspace):
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    _check_same_ambient(a, b)
    return Subspace(a.ambient_dim, a.basis.stack(b.basis))


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: row reduce [A A; B 0]; rows with vanishing left half carry
    an intersection basis in their right half."""
    _check_same_ambient(a, b)
    n = a.ambient_dim
    rows = []
    for v in a.vectors():
        rows.append(list(v) + list(v))
    for v in b.vectors():
        rows.append(list(v) + [ZERO] * n)
    if not rows:
        return Subspace.zero(n)
    _row_reduce(rows, 2 * n)
    out = []
    for r in rows:
        if not any(r[:n]) and any(r[n:]):
            out.append(r[n:])
    return Subspace.span(n, out)


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is contained in a (tested via sum(a, b) == a)."""
    _check_same_ambient(a, b)
    return subspace_sum(a, b) == a


def is_complement(a: Subspace, b: Subspace) -> bool:
    """True iff V = a + b is a direct sum: the dimensions add up to n, and so
    does the dimension of the sum (hence a and b meet in 0)."""
    _check_same_ambient(a, b)
    return a.dim + b.dim == a.ambient_dim == subspace_sum(a, b).dim


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of A x = b.

    Empty solution sets are values, not errors; they carry a Farkas-style
    certificate y with y.A = 0 and y.b = 1, checkable by plain multiplication.
    """

    n_unknowns: int
    particular: Optional[tuple]
    homogeneous: tuple  # rows = basis of the homogeneous solution space
    certificate: Optional[tuple]

    @property
    def is_empty(self) -> bool:
        return self.particular is None

    @property
    def dimension(self) -> int:
        if self.is_empty:
            raise ValueError("empty solution set has no dimension")
        return len(self.homogeneous)

    def point(self, params: Sequence) -> tuple:
        if self.is_empty:
            raise ValueError("empty solution set")
        ps = [rat(p) for p in params]
        if len(ps) != len(self.homogeneous):
            raise ValueError("parameter count mismatch")
        out = list(self.particular)
        for p, h in zip(ps, self.homogeneous):
            if p:
                out = [a + p * c for a, c in zip(out, h)]
        return tuple(out)


def solve_affine(a: RatMatrix, b: Sequence) -> AffineSolution:
    """Exact description of {x : a x = b}: empty (with certificate) or a
    particular solution plus a basis of homogeneous solutions."""
    bvec = [rat(x) for x in b]
    if len(bvec) != a.rows:
        raise ValueError("right-hand side length mismatch")
    m, n = a.rows, a.cols
    # augment with b and an identity block to track the row transformation
    aug = [list(a.row(i)) + [bvec[i]] + [ONE if i == j else ZERO for j in range(m)] for i in range(m)]
    if not aug:
        return AffineSolution(n, (ZERO,) * n, tuple(kernel_basis(a)), None)
    _row_reduce(aug, n)
    for r in aug:
        if not any(r[:n]) and r[n]:
            scalefac = ONE / r[n]
            cert = tuple(scalefac * y for y in r[n + 1 :])
            return AffineSolution(n, None, (), cert)
    red = RatMatrix.from_rows([r[: n + 1] for r in aug])
    pivots = pivot_columns(red)
    particular = [ZERO] * n
    for i, p in enumerate(pivots):
        particular[p] = red[i, n]
    return AffineSolution(n, tuple(particular), tuple(kernel_basis(a)), None)


def image_under(g: RatMatrix, s: Subspace) -> Subspace:
    """Canonical image g . s of a subspace under an invertible matrix."""
    if g.rows != g.cols or g.cols != s.ambient_dim:
        raise ValueError("shape mismatch")
    if not g.is_invertible():
        raise ValueError("matrix is singular")
    return Subspace(s.ambient_dim, s.basis * g.transpose())


def charpoly(a: RatMatrix) -> list:
    """Characteristic polynomial det(xI - a), coefficients low-to-high degree,
    via the Faddeev-LeVerrier recursion."""
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = a.rows
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    m = RatMatrix.zero(n, n)
    ident = RatMatrix.identity(n)
    for k in range(1, n + 1):
        m = a * (m + ident.scale(coeffs[n - k + 1])) if k > 1 else a
        coeffs[n - k] = -m.trace() / k
    return coeffs


def rational_roots(coeffs: Sequence[Fraction]) -> list:
    """All rational roots of a nonzero polynomial (coefficients low-to-high).

    Modular root finding: the square-free part f is scaled to a monic integer
    h(y) = a^(d-1) f(y/a), a the leading coefficient, whose rational roots are
    integers; the roots of h modulo a prime at which all of them are simple
    are Hensel-lifted past twice the Cauchy bound, and the lifts that are
    exact roots of h give the roots y/a of f."""
    cs = [rat(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every rational as a root")
    roots = set()
    while cs[0] == 0:
        roots.add(ZERO)
        cs = cs[1:]
    if len(cs) == 1:
        return sorted(roots)
    f = _poly_divmod(cs, _poly_gcd(cs, _derivative(cs)))[0]
    denlcm = lcm(*(c.denominator for c in f))
    ints = [int(c * denlcm) for c in f]
    d, a = len(ints) - 1, ints[-1]
    h = [c * a ** (d - 1 - i) for i, c in enumerate(ints[:-1])] + [1]
    dh = _derivative(h)
    bound = 1 + max(abs(c) for c in h[:-1])
    p = 2
    while True:
        residues = [r for r in range(p) if _poly_eval(h, r) % p == 0]
        if all(_poly_eval(dh, r) % p for r in residues):
            break
        p = _next_prime(p)
    for r in residues:
        modulus = p
        while modulus <= 2 * bound:
            modulus *= modulus
            r = (r - _poly_eval(h, r) * pow(_poly_eval(dh, r), -1, modulus)) % modulus
        y = r - modulus if r > modulus // 2 else r
        if _poly_eval(h, y) == 0:
            roots.add(Fraction(y, a))
    return sorted(roots)


def _poly_eval(coeffs: Sequence, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _next_prime(p: int) -> int:
    q = p + 1
    while any(q % k == 0 for k in range(2, isqrt(q) + 1)):
        q += 1
    return q


def _derivative(cs: Sequence) -> list:
    return [i * c for i, c in enumerate(cs)][1:]


def _poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]) -> tuple:
    """Quotient and remainder over Q; den has a nonzero leading coefficient."""
    rem = list(num)
    quot = [ZERO] * max(len(num) - len(den) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(den) - 1] / den[-1]
        quot[k] = c
        if c:
            for j, b in enumerate(den):
                rem[k + j] -= c * b
    rem = rem[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    """Monic gcd over Q of a nonzero a and any b (trimmed, low-to-high)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[-1] for c in a]
