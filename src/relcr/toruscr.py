"""Complete decision tier for K a subtorus of the diagonal torus of GL(V).

A cocharacter of K is an integer combination of the rows of K's lattice
basis; it induces a weight on each coordinate and hence an ordered partition
of the weight classes (a flag type).  The finitely many feasible flag types
are exactly the flags stemming from K, so relative complete reducibility of a
matrix group H is decidable here, and is decided by three independent
criteria which provably must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exactlin import RatMatrix, Subspace, ZERO, kernel_basis, pivot_columns, rref
from .flags import Flag, GradedDecomposition, GroupH, is_stable, subspace_is_stable


class InternalInconsistencyError(RuntimeError):
    """Two provably equivalent checkers disagreed: a bug, never an answer."""


@dataclass(frozen=True)
class TorusK:
    """A subtorus of the diagonal torus, given by a basis of its cocharacter
    lattice: rows are diagonal weight vectors, one per basis cocharacter."""

    ambient_dim: int
    lattice_basis: tuple  # tuple of tuples of int, full row rank over Q

    def __post_init__(self):
        for row in self.lattice_basis:
            if len(row) != self.ambient_dim:
                raise ValueError("lattice basis row length must equal ambient dimension")
            if not all(isinstance(x, int) for x in row):
                raise ValueError("lattice basis must be integral")
        if self.lattice_basis:
            m = RatMatrix.from_rows(self.lattice_basis)
            if rref(m)[1] != len(self.lattice_basis):
                raise ValueError("lattice basis rows must be linearly independent")

    @staticmethod
    def of(ambient_dim: int, rows: Sequence[Sequence[int]]) -> "TorusK":
        return TorusK(ambient_dim, tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def rank(self) -> int:
        return len(self.lattice_basis)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.lattice_basis)


@dataclass(frozen=True)
class FlagType:
    """An ordered partition of the weight-class indices; one block means the
    trivial flag."""

    ordered_blocks: tuple  # tuple of sorted tuples of class indices

    def __post_init__(self):
        seen = set()
        if not self.ordered_blocks:
            raise ValueError("flag type needs at least one block")
        for b in self.ordered_blocks:
            if not b:
                raise ValueError("empty block")
            if tuple(sorted(b)) != b:
                raise ValueError("blocks must be sorted tuples")
            if seen & set(b):
                raise ValueError("blocks must be disjoint")
            seen |= set(b)

    @staticmethod
    def of(blocks: Sequence[Sequence[int]]) -> "FlagType":
        return FlagType(tuple(tuple(sorted(int(i) for i in b)) for b in blocks))

    @property
    def num_blocks(self) -> int:
        return len(self.ordered_blocks)

    @property
    def is_trivial(self) -> bool:
        return len(self.ordered_blocks) == 1


@dataclass(frozen=True)
class CocharacterWitness:
    coefficients: tuple  # integers, length = torus rank

    @staticmethod
    def of(cs: Sequence[int]) -> "CocharacterWitness":
        return CocharacterWitness(tuple(int(c) for c in cs))

    def weights(self, k: TorusK) -> tuple:
        """The induced diagonal weight vector c . B."""
        n = k.ambient_dim
        out = []
        for j in range(n):
            out.append(sum(c * row[j] for c, row in zip(self.coefficients, k.lattice_basis)))
        return tuple(out)


def weight_classes(k: TorusK) -> tuple:
    """Coordinates grouped by equal lattice columns, ordered by smallest
    member; 0-based coordinate indices."""
    groups = {}
    for j in range(k.ambient_dim):
        groups.setdefault(k.column(j), []).append(j)
    classes = sorted(groups.values(), key=lambda g: g[0])
    return tuple(tuple(g) for g in classes)


def flag_from_weights(w: Sequence) -> Flag:
    """The flag stabilized by the cocharacter with diagonal weights w: the
    chain of coordinate spans of weights >= t, for descending thresholds t
    (the full space omitted).  A constant w gives the trivial flag."""
    n = len(w)
    vals = sorted(set(w), reverse=True)
    chain = []
    for t in vals[:-1]:
        chain.append(Subspace.coordinate(n, [i for i in range(n) if w[i] >= t]))
    return Flag(n, tuple(chain))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination with strictness tracking


def _normalize_row(coeffs):
    den = 1
    for c in coeffs:
        den = den * c.denominator // _igcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for x in ints:
        g = _igcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def _igcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def fm_witness(rows) -> Optional[tuple]:
    """Feasibility of {a . t > 0 (strict) / >= 0} by Fourier-Motzkin.

    rows: iterable of (coeffs, strict).  Returns an exact rational witness or
    None when infeasible.  Strictness is tracked through eliminations: a
    combination is strict iff either parent is.
    """
    rows = [( _normalize_row(tuple(Fraction(c) for c in coeffs)), bool(strict)) for coeffs, strict in rows]
    if not rows:
        return ()
    nv = len(rows[0][0])
    levels = [None] * (nv + 1)
    levels[nv] = _dedup(rows)
    for d in range(nv, 0, -1):
        cur = levels[d]
        pos, neg, zero = [], [], []
        for coeffs, strict in cur:
            c = coeffs[d - 1]
            if c > 0:
                pos.append((coeffs, strict))
            elif c < 0:
                neg.append((coeffs, strict))
            else:
                zero.append((coeffs[: d - 1], strict))
        new = list(zero)
        for pc, ps in pos:
            for ncf, ns in neg:
                comb = tuple(
                    Fraction(pc[i]) * (-ncf[d - 1]) + Fraction(ncf[i]) * pc[d - 1] for i in range(d - 1)
                )
                new.append((_normalize_row(comb), ps or ns))
        levels[d - 1] = _dedup(new)
    for coeffs, strict in levels[0]:
        if strict:  # "0 > 0"
            return None
    # back-substitute a witness, one variable at a time
    vals = []
    for d in range(1, nv + 1):
        lower = None  # (value, strict)
        upper = None
        for coeffs, strict in levels[d]:
            c = coeffs[d - 1]
            rest = sum((Fraction(coeffs[i]) * vals[i] for i in range(d - 1)), Fraction(0))
            if c == 0:
                if rest < 0 or (strict and rest == 0):
                    raise InternalInconsistencyError("Fourier-Motzkin back-substitution failed")
                continue
            bound = -rest / Fraction(c)
            if c > 0:
                if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                    lower = (bound, strict)
            else:
                if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                    upper = (bound, strict)
        vals.append(_pick_between(lower, upper))
    return tuple(vals)


def _dedup(rows):
    seen = set()
    out = []
    for r in rows:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out


def _pick_between(lower, upper):
    if lower is None and upper is None:
        return Fraction(0)
    if upper is None:
        return lower[0] + 1
    if lower is None:
        return upper[0] - 1
    lo, ls = lower
    up, us = upper
    if lo < up:
        if lo < 0 < up:
            return Fraction(0)
        return (lo + up) / 2
    if lo == up and not ls and not us:
        return lo
    raise InternalInconsistencyError("Fourier-Motzkin produced an empty interval for a feasible system")


# ---------------------------------------------------------------------------
# feasibility and enumeration of flag types


@lru_cache(maxsize=1024)
def _class_columns(k: TorusK):
    classes = weight_classes(k)
    return classes, tuple(k.column(c[0]) for c in classes)


def _feasibility_witness(k: TorusK, prefix_blocks, remaining) -> Optional[tuple]:
    """A cocharacter c realizing: equal weights within each prefix block,
    strictly decreasing across the prefix, and (if remaining is nonempty)
    every remaining class strictly below the last block.  None if infeasible."""
    classes, cols = _class_columns(k)
    r = k.rank
    eq_rows = []
    for block in prefix_blocks:
        base = cols[block[0]]
        for cls in block[1:]:
            eq_rows.append(tuple(Fraction(a - b) for a, b in zip(cols[cls], base)))
    if eq_rows:
        basis = kernel_basis(RatMatrix.from_rows(eq_rows))
    else:
        basis = [tuple(Fraction(1 if i == j else 0) for j in range(r)) for i in range(r)]
    strict = []

    def against(d):
        return tuple(sum(bv[i] * d[i] for i in range(r)) for bv in basis)

    for b1, b2 in zip(prefix_blocks, prefix_blocks[1:]):
        d = tuple(Fraction(a - b) for a, b in zip(cols[b1[0]], cols[b2[0]]))
        strict.append((against(d), True))
    if remaining and prefix_blocks:
        last = cols[prefix_blocks[-1][0]]
        for cls in remaining:
            d = tuple(Fraction(a - b) for a, b in zip(last, cols[cls]))
            strict.append((against(d), True))
    t = fm_witness(strict)
    if t is None:
        return None
    c = [ZERO] * r
    for ti, bv in zip(t, basis):
        if ti:
            c = [a + ti * b for a, b in zip(c, bv)]
    den = 1
    for x in c:
        den = den * x.denominator // _igcd(den, x.denominator)
    ints = [int(x * den) for x in c]
    g = 0
    for x in ints:
        g = _igcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def feasible(ft: FlagType, k: TorusK) -> Optional[CocharacterWitness]:
    """Decide whether some cocharacter of K realizes the flag type; on success
    return an integer witness, already verified against the type."""
    classes, cols = _class_columns(k)
    covered = sorted(i for b in ft.ordered_blocks for i in b)
    if covered != list(range(len(classes))):
        raise ValueError("flag type must partition the weight classes")
    c = _feasibility_witness(k, ft.ordered_blocks, ())
    if c is None:
        return None
    wit = CocharacterWitness.of(c)
    _verify_witness(ft, wit, k)
    return wit


def _verify_witness(ft: FlagType, wit: CocharacterWitness, k: TorusK):
    classes = weight_classes(k)
    w = wit.weights(k)
    vals = []
    for block in ft.ordered_blocks:
        blockvals = {w[coord] for cls in block for coord in classes[cls]}
        if len(blockvals) != 1:
            raise InternalInconsistencyError("witness weight not constant on a block")
        vals.append(blockvals.pop())
    if any(a <= b for a, b in zip(vals, vals[1:])):
        raise InternalInconsistencyError("witness weights not strictly decreasing across blocks")


def _nonempty_subsets(elems):
    elems = sorted(elems)
    n = len(elems)
    for mask in range(1, 1 << n):
        yield tuple(elems[i] for i in range(n) if mask & (1 << i))


DEFAULT_CLASS_BOUND = 9


@lru_cache(maxsize=256)
def enumerate_flag_types(k: TorusK, class_bound: int = DEFAULT_CLASS_BOUND) -> tuple:
    """All feasible flag types of K with witnesses: exactly F_K, finite.

    Ordered partitions are generated recursively and pruned by exact prefix
    feasibility (every extension of an infeasible prefix is infeasible), so
    only a small neighbourhood of the actual face poset is visited.  The
    final listing is sorted canonically.
    """
    classes = weight_classes(k)
    nc = len(classes)
    if nc > class_bound:
        raise ValueError(f"too many weight classes ({nc} > {class_bound})")
    all_cls = tuple(range(nc))

    def extend(prefix, remaining, acc):
        if not remaining:
            c = _feasibility_witness(k, prefix, ())
            if c is not None:
                ft = FlagType(prefix)
                wit = CocharacterWitness.of(c)
                _verify_witness(ft, wit, k)
                acc.append((ft, wit))
            return
        for block in _nonempty_subsets(remaining):
            rest = tuple(x for x in remaining if x not in block)
            new_prefix = prefix + (block,)
            if _feasibility_witness(k, new_prefix, rest) is not None:
                extend(new_prefix, rest, acc)

    results = []
    for first_block in _nonempty_subsets(all_cls):
        rest = tuple(x for x in all_cls if x not in first_block)
        if _feasibility_witness(k, (first_block,), rest) is not None:
            extend((first_block,), rest, results)
    results.sort(key=lambda pair: pair[0].ordered_blocks)
    return tuple(results)


@lru_cache(maxsize=256)
def minimal_flags(k: TorusK, class_bound: int = DEFAULT_CLASS_BOUND) -> tuple:
    """The minimal members of F_K: nontrivial feasible types none of whose
    proper nonempty subchains is again feasible."""
    listing = enumerate_flag_types(k, class_bound)
    feasible_set = {ft.ordered_blocks for ft, _ in listing}
    out = []
    for ft, wit in listing:
        if ft.is_trivial:
            continue
        if not any(
            merged in feasible_set for merged in _proper_coarsenings(ft.ordered_blocks)
        ):
            out.append((ft, wit))
    return tuple(out)


def _proper_coarsenings(blocks):
    """Ordered partitions obtained by keeping a proper nonempty subset of the
    cut positions (equivalently, the proper nonempty subchains of the flag)."""
    kk = len(blocks)
    for cuts in _nonempty_subsets(range(1, kk)):
        if len(cuts) == kk - 1:
            continue
        merged = []
        prev = 0
        for cut in cuts + (kk,):
            merged.append(tuple(sorted(x for b in blocks[prev:cut] for x in b)))
            prev = cut
        yield tuple(merged)


def opposite_type(ft: FlagType) -> FlagType:
    return FlagType(tuple(reversed(ft.ordered_blocks)))


@lru_cache(maxsize=8192)
def flag_of_type(ft: FlagType, k: TorusK) -> Flag:
    """The coordinate flag of a type: chain of leading-block coordinate spans."""
    classes = weight_classes(k)
    n = k.ambient_dim
    chain = []
    coords = []
    for block in ft.ordered_blocks[:-1]:
        for cls in block:
            coords.extend(classes[cls])
        chain.append(Subspace.coordinate(n, coords))
    return Flag(n, tuple(chain))


def torus_flag_in_fk(f: Flag, k: TorusK) -> bool:
    """Membership in F_K: a chain of coordinate subspaces whose steps are
    unions of weight classes, in an order some cocharacter realizes."""
    classes = weight_classes(k)
    owner = {}
    for ci, cls in enumerate(classes):
        for coord in cls:
            owner[coord] = ci
    blocks = []
    prev: set = set()
    for s in f.chain:
        rows = s.vectors()
        coords = set()
        for v in rows:
            nz = [j for j, x in enumerate(v) if x]
            if len(nz) != 1 or v[nz[0]] != 1:
                return False  # not a coordinate subspace
            coords.add(nz[0])
        step = coords - prev
        if not step or (prev - coords):
            return False
        blocks.append(step)
        prev = coords
    blocks.append(set(range(f.ambient_dim)) - prev)
    class_blocks = []
    for blk in blocks:
        cls_ids = {owner[c] for c in blk}
        if set().union(*(set(classes[ci]) for ci in cls_ids)) != blk:
            return False  # block is not a union of weight classes
        class_blocks.append(sorted(cls_ids))
    try:
        ft = FlagType.of(class_blocks)
    except ValueError:
        return False
    return feasible(ft, k) is not None


@lru_cache(maxsize=8192)
def pieces_of_type(ft: FlagType, k: TorusK) -> GradedDecomposition:
    """The weight-space decomposition of any cocharacter realizing the type:
    blockwise coordinate spans.  Its stabilizer is the common Levi."""
    classes = weight_classes(k)
    n = k.ambient_dim
    pieces = []
    for block in ft.ordered_blocks:
        coords = [c for cls in block for c in classes[cls]]
        pieces.append(Subspace.coordinate(n, coords))
    return GradedDecomposition(n, tuple(pieces))


# ---------------------------------------------------------------------------
# common refinement of commuting cocharacters (Borel-compatible families)


def common_refinement(ws: Sequence[Sequence[int]], require_compatible: bool = True):
    """Positive integers n_i and the combined weight vector sum(n_i w_i).

    When the weight vectors admit a common compatible coordinate order (each
    pair of coordinates has componentwise-comparable weight profiles), the
    combined flag's stabilizer is exactly the intersection of the input
    flags' stabilizers.  The returned combination always satisfies the
    partition property: its equal-weight classes are the common refinement of
    the inputs' classes.
    """
    ws = [tuple(int(x) for x in w) for w in ws]
    if not ws:
        raise ValueError("need at least one weight vector")
    n = len(ws[0])
    if any(len(w) != n for w in ws):
        raise ValueError("weight vectors must share a length")
    m = len(ws)
    profiles = [tuple(w[j] for w in ws) for j in range(n)]
    if require_compatible:
        for a in range(n):
            for b in range(a + 1, n):
                pa, pb = profiles[a], profiles[b]
                if any(x > y for x, y in zip(pa, pb)) and any(x < y for x, y in zip(pa, pb)):
                    raise ValueError(
                        f"no common Borel order: coordinates {a} and {b} have incomparable weight profiles"
                    )
    maxabs = max((abs(x) for w in ws for x in w), default=0)
    base = 1 + 2 * m * maxabs
    ns = tuple(base ** (m - i) for i in range(1, m + 1))
    combined = tuple(sum(ni * w[j] for ni, w in zip(ns, ws)) for j in range(n))
    # verify: combined classes = common refinement (join) of input classes
    join = {}
    for j in range(n):
        join.setdefault(profiles[j], []).append(j)
    comb_classes = {}
    for j in range(n):
        comb_classes.setdefault(combined[j], []).append(j)
    if sorted(map(tuple, join.values())) != sorted(map(tuple, comb_classes.values())):
        raise InternalInconsistencyError("combined weights failed the partition-join check")
    if require_compatible:
        for a in range(n):
            for b in range(n):
                lhs = combined[a] < combined[b]
                rhs = any(w[a] < w[b] for w in ws)
                if lhs != rhs:
                    raise InternalInconsistencyError("combined flag stabilizer mismatch")
    return ns, combined


# ---------------------------------------------------------------------------
# the three checkers


@dataclass(frozen=True)
class Verdict:
    relcr: bool
    method: str  # "definition" | "minimal" | "levi"
    witness: dict

    @property
    def verdict_str(self) -> str:
        return "relcr" if self.relcr else "not_relcr"


def _type_payload(ft: FlagType, k: TorusK, wit: Optional[CocharacterWitness] = None) -> dict:
    classes = weight_classes(k)
    blocks = [sorted(c + 1 for cls in b for c in classes[cls]) for b in ft.ordered_blocks]
    out = {
        "blocks": blocks,
        "dims": list(flag_of_type(ft, k).dims()),
    }
    if wit is not None:
        out["cocharacter"] = list(wit.coefficients)
        out["weights"] = list(wit.weights(k))
    return out


def _check_dims(h: GroupH, k: TorusK):
    if h.ambient_dim != k.ambient_dim:
        raise ValueError("group and torus ambient dimensions differ")


def relcr_torus_definition(h: GroupH, k: TorusK) -> Verdict:
    """Definition-level criterion: for a torus K the unipotent radical of
    P_c(K) is trivial, so H must stabilize the weight-space decomposition of
    every feasible type whose flag it stabilizes."""
    _check_dims(h, k)
    stable = []
    for ft, wit in enumerate_flag_types(k):
        if ft.is_trivial:
            continue
        if not is_stable(flag_of_type(ft, k), h):
            continue
        dec = pieces_of_type(ft, k)
        for piece in dec.pieces:
            if not subspace_is_stable(piece, h):
                return Verdict(
                    False,
                    "definition",
                    {
                        "violated": "graded_piece_not_stable",
                        "flag_type": _type_payload(ft, k, wit),
                        "unstable_piece_coords": sorted(
                            j + 1 for j in _piece_coords(piece)
                        ),
                    },
                )
        stable.append(_type_payload(ft, k, wit))
    return Verdict(True, "definition", {"stable_types": stable})


def _piece_coords(piece: Subspace):
    # pieces are coordinate spans; recover the coordinates from the pivots
    return pivot_columns(piece.basis)


def relcr_torus_minimal(h: GroupH, k: TorusK) -> Verdict:
    """Minimal-flag criterion: every H-stable minimal flag must have its
    (unique, reversed-type) opposite within F_K stable as well."""
    _check_dims(h, k)
    pairs = []
    for ft, wit in minimal_flags(k):
        if not is_stable(flag_of_type(ft, k), h):
            continue
        opp = opposite_type(ft)
        if not is_stable(flag_of_type(opp, k), h):
            return Verdict(
                False,
                "minimal",
                {
                    "violated": "opposite_flag_not_stable",
                    "flag_type": _type_payload(ft, k, wit),
                    "opposite_type": _type_payload(opp, k),
                },
            )
        pairs.append({"flag_type": _type_payload(ft, k, wit), "opposite_type": _type_payload(opp, k)})
    return Verdict(True, "minimal", {"stable_minimal_pairs": pairs})


def relcr_torus_levi(h: GroupH, k: TorusK) -> Verdict:
    """Levi criterion: H lies in the Levi of some feasible type and is
    relatively irreducible there, i.e. every feasible type with H-stable flag
    has weights constant on each block of the chosen type."""
    _check_dims(h, k)
    listing = enumerate_flag_types(k)
    hstable = [ft for ft, _ in listing if is_stable(flag_of_type(ft, k), h)]
    for ft, wit in listing:
        dec = pieces_of_type(ft, k)
        if not all(subspace_is_stable(p, h) for p in dec.pieces):
            continue
        if all(_constant_on_blocks(mu, ft) for mu in hstable):
            return Verdict(
                True,
                "levi",
                {"levi_type": _type_payload(ft, k, wit)},
            )
    return Verdict(False, "levi", {"violated": "no_qualifying_levi"})


def _constant_on_blocks(mu: FlagType, lam: FlagType) -> bool:
    """True iff mu's weight function is constant on every block of lam,
    i.e. each lam-block sits inside a single mu-block."""
    owner = {}
    for bi, block in enumerate(mu.ordered_blocks):
        for cls in block:
            owner[cls] = bi
    for block in lam.ordered_blocks:
        owners = {owner[cls] for cls in block}
        if len(owners) > 1:
            return False
    return True


@dataclass(frozen=True)
class CrosscheckReport:
    relcr: bool
    verdicts: tuple  # (definition, minimal, levi)

    @property
    def verdict_str(self) -> str:
        return "relcr" if self.relcr else "not_relcr"


def relcr_torus_crosscheck(h: GroupH, k: TorusK) -> CrosscheckReport:
    """Run all three checkers and insist they agree; disagreement means a bug
    in this library, never a mathematical possibility."""
    vd = relcr_torus_definition(h, k)
    vm = relcr_torus_minimal(h, k)
    vl = relcr_torus_levi(h, k)
    if not (vd.relcr == vm.relcr == vl.relcr):
        raise InternalInconsistencyError(
            f"checker disagreement: definition={vd.relcr} minimal={vm.relcr} levi={vl.relcr}"
        )
    return CrosscheckReport(vd.relcr, (vd, vm, vl))


# ---------------------------------------------------------------------------
# product tori


@dataclass(frozen=True)
class ProductReport:
    joint_verdict: bool
    factor_verdicts: tuple
    h_preserves_blocks: bool
    k_equals_product: bool
    equivalence_asserted: bool


def torus_support(k: TorusK) -> tuple:
    return tuple(j for j in range(k.ambient_dim) if any(k.column(j)))


def product_torus(factors: Sequence[TorusK]) -> TorusK:
    """The direct product: lattice rows of all factors stacked."""
    n = factors[0].ambient_dim
    rows = []
    for f in factors:
        if f.ambient_dim != n:
            raise ValueError("factors must share the ambient dimension")
        rows.extend(f.lattice_basis)
    return TorusK(n, tuple(rows))


def _same_rational_rowspan(a: TorusK, b: TorusK) -> bool:
    sa = Subspace.span(a.ambient_dim, [list(map(Fraction, r)) for r in a.lattice_basis]) if a.lattice_basis else Subspace.zero(a.ambient_dim)
    sb = Subspace.span(b.ambient_dim, [list(map(Fraction, r)) for r in b.lattice_basis]) if b.lattice_basis else Subspace.zero(b.ambient_dim)
    return sa == sb


def relcr_torus_product(
    h: GroupH,
    factors: Sequence[TorusK],
    joint: Optional[TorusK] = None,
    blocks: Optional[Sequence[Sequence[int]]] = None,
) -> ProductReport:
    """Verdicts for the product torus and each factor, with the product
    criterion asserted exactly when its hypotheses hold.

    The factors must act on disjoint coordinate blocks.  The joint torus
    defaults to the direct product of the factors; it may be passed
    explicitly to analyse a subtorus of the product (for which the criterion
    can fail and is therefore not asserted).  When H preserves the block
    decomposition and the joint torus is the full product, the joint verdict
    must equal the conjunction of the factor verdicts.
    """
    supports = [torus_support(f) for f in factors]
    seen = set()
    for s in supports:
        if seen & set(s):
            raise ValueError("factor tori must act on disjoint coordinate blocks")
        seen |= set(s)
    n = factors[0].ambient_dim
    if blocks is None:
        blocks = [list(s) for s in supports]
        leftover = [j for j in range(n) if j not in seen]
        if leftover:
            blocks.append(leftover)
    if joint is None:
        joint = product_torus(factors)
    k_equals_product = _same_rational_rowspan(joint, product_torus(factors))
    h_preserves = all(
        subspace_is_stable(Subspace.coordinate(n, b), h) for b in blocks
    )
    joint_v = relcr_torus_crosscheck(h, joint).relcr
    factor_vs = tuple(relcr_torus_crosscheck(h, f).relcr for f in factors)
    asserted = h_preserves and k_equals_product
    if asserted and joint_v != all(factor_vs):
        raise InternalInconsistencyError(
            "product criterion violated although its hypotheses hold"
        )
    return ProductReport(joint_v, factor_vs, h_preserves, k_equals_product, asserted)
