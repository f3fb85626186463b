import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcr import exactlin, flags
from relcr.corpus import diagonal_matrix, subspace_stabilizer
from relcr.exactlin import RatMatrix, Subspace
from relcr.flags import Flag, GroupH, is_stable, subspace_is_stable, verify_opposite
from relcr.toruscr import (
    CocharacterWitness,
    FlagType,
    InternalInconsistencyError,
    TorusK,
    _class_columns,
    _class_reach,
    _feasibility_witness,
    _flag_stable,
    _union_stable,
    _verify_witness,
    common_refinement,
    enumerate_flag_types,
    flag_from_weights,
    flag_of_type,
    fm_witness,
    minimal_flags,
    opposite_type,
    pieces_of_type,
    relcr_torus_crosscheck,
    relcr_torus_definition,
    relcr_torus_levi,
    relcr_torus_minimal,
    relcr_torus_product,
    torus_flag_in_fk,
    weight_classes,
)

EX43 = TorusK.of(4, [[1, 0, 0, -1], [0, 1, -1, 0]])
G2_TORUS = TorusK.of(7, [[1, 0, 1, 0, -1, 0, -1], [0, 1, -1, 0, 1, -1, 0]])


# ---------------------------------------------------------------------------
# independent oracle: angular sweep over the cocharacter plane (rank <= 2)


def _primitive(v):
    g = 0
    for x in v:
        g = _gcd(g, x)
    return tuple(x // g for x in v) if g else tuple(v)


def _gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


def _induced_type(k, c):
    classes = weight_classes(k)
    vals = []
    for cls in classes:
        col = k.column(cls[0])
        vals.append(sum(ci * x for ci, x in zip(c, col)))
    order = sorted(set(vals), reverse=True)
    blocks = tuple(tuple(i for i, v in enumerate(vals) if v == t) for t in order)
    return blocks


def sweep_flag_types(k):
    """All flag types of a rank <= 2 torus, by sampling every face of the
    central arrangement in the cocharacter plane."""
    r = k.rank
    if r == 0:
        return {_induced_type(k, ())}
    if r == 1:
        return {_induced_type(k, (c,)) for c in (1, 0, -1)}
    assert r == 2
    classes = weight_classes(k)
    cols = [k.column(cls[0]) for cls in classes]
    rays = set()
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            d = tuple(a - b for a, b in zip(cols[i], cols[j]))
            if any(d):
                ray = _primitive((-d[1], d[0]))
                rays.add(ray)
                rays.add((-ray[0], -ray[1]))
    if not rays:
        return {_induced_type(k, (0, 0))}

    def half(u):
        return 0 if (u[1] > 0 or (u[1] == 0 and u[0] > 0)) else 1

    def cmp(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu - hv
        cr = u[0] * v[1] - u[1] * v[0]
        return -1 if cr > 0 else (1 if cr < 0 else 0)

    ordered = sorted(rays, key=functools.cmp_to_key(cmp))
    samples = [(0, 0)]
    samples.extend(ordered)
    for a, b in zip(ordered, ordered[1:] + ordered[:1]):
        mid = (a[0] + b[0], a[1] + b[1])
        if mid == (0, 0):  # antipodal pair: one line only
            mid = (-a[1], a[0])
        samples.append(mid)
    return {_induced_type(k, c) for c in samples}


# ---------------------------------------------------------------------------
# weight classes and weight flags


def test_weight_classes_example43():
    assert weight_classes(EX43) == ((0,), (1,), (2,), (3,))


def test_weight_classes_rank1():
    k = TorusK.of(4, [[1, 1, 0, 0]])
    assert weight_classes(k) == ((0, 1), (2, 3))


def test_weight_classes_g2():
    cls = weight_classes(G2_TORUS)
    assert cls == tuple((i,) for i in range(7))
    assert G2_TORUS.column(3) == (0, 0)


def test_flag_from_weights():
    f = flag_from_weights((1, 0, 0, -1))
    assert f.dims() == (1, 3)
    assert f.chain[0] == Subspace.coordinate(4, [0])
    assert f.chain[1] == Subspace.coordinate(4, [0, 1, 2])
    assert flag_from_weights((1, 1, -1, -1)).dims() == (2,)
    assert flag_from_weights((0, 0, 0, 0)).is_trivial


def test_flag_from_weights_scaling_invariance():
    w = (3, 1, 0, -2)
    assert flag_from_weights(w) == flag_from_weights(tuple(5 * x for x in w))


# ---------------------------------------------------------------------------
# feasibility


def listed_witness(ft, k):
    """The witness F_K's listing keeps for a type, None if it is not listed."""
    return dict(enumerate_flag_types(k)).get(ft)


def test_feasible_example43_dims1_infeasible():
    ft = FlagType.of([[0], [1, 2, 3]])
    assert listed_witness(ft, EX43) is None
    assert not torus_flag_in_fk(flag_of_type(ft, EX43), EX43)


def test_feasible_example43_dims13():
    ft = FlagType.of([[0], [1, 2], [3]])
    wit = listed_witness(ft, EX43)
    assert wit is not None
    w = wit.weights(EX43)
    assert w[0] > w[1] == w[2] > w[3]
    assert torus_flag_in_fk(flag_of_type(ft, EX43), EX43)


def test_feasible_single_block():
    ft = FlagType.of([[0, 1, 2, 3]])
    wit = listed_witness(ft, EX43)
    assert wit == CocharacterWitness.of([0, 0])
    assert torus_flag_in_fk(Flag.trivial(4), EX43)


# the membership test as it was before F_K membership became a lookup in
# enumerate_flag_types: decode the flag into a type, then decide that type's
# feasibility on its own


def reference_feasible(ft, k):
    classes, _ = _class_columns(k)
    covered = sorted(i for b in ft.ordered_blocks for i in b)
    if covered != list(range(len(classes))):
        raise ValueError("flag type must partition the weight classes")
    c = _feasibility_witness(k, ft.ordered_blocks, ())
    if c is None:
        return None
    wit = CocharacterWitness.of(c)
    _verify_witness(ft, wit, k)
    return wit


def reference_flag_in_fk(f, k):
    classes = weight_classes(k)
    owner = {}
    for ci, cls in enumerate(classes):
        for coord in cls:
            owner[coord] = ci
    blocks = []
    prev = set()
    for s in f.chain:
        coords = set()
        for v in s.vectors():
            nz = [j for j, x in enumerate(v) if x]
            if len(nz) != 1 or v[nz[0]] != 1:
                return False
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
            return False
        class_blocks.append(sorted(cls_ids))
    try:
        ft = FlagType.of(class_blocks)
    except ValueError:
        return False
    return reference_feasible(ft, k) is not None


def _random_torus(rng):
    while True:
        n = rng.randint(2, 6)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        try:
            k = TorusK.of(n, rows)
        except ValueError:
            continue
        if len(weight_classes(k)) <= 5:
            return k


def _coordinate_flag(n, ordered_blocks):
    chain, coords = [], []
    for block in ordered_blocks[:-1]:
        coords.extend(block)
        chain.append(Subspace.coordinate(n, coords))
    return Flag(n, tuple(chain))


def _random_ordered_partition(rng, items):
    items = list(items)
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, len(items)), rng.randint(0, len(items) - 1)))
    return [items[a:b] for a, b in zip([0] + cuts, cuts + [len(items)])]


def _random_flag(rng, n):
    """A flag through random integer vectors: rarely a coordinate flag."""
    while True:
        vs = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        dims = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
        chain = [Subspace.span(n, vs[:d]) for d in dims]
        try:
            return Flag(n, tuple(chain))
        except ValueError:
            continue


def test_flag_in_fk_matches_decode_reference():
    rng = random.Random(11)
    counts = Counter()
    for _ in range(40):
        k = _random_torus(rng)
        n = k.ambient_dim
        classes = weight_classes(k)
        listing = enumerate_flag_types(k)
        flags = [flag_of_type(ft, k) for ft, _ in rng.sample(listing, min(len(listing), 8))]
        for _ in range(6):
            # unions of weight classes in a random order, F_K member or not
            blocks = _random_ordered_partition(rng, range(len(classes)))
            flags.append(_coordinate_flag(n, [[c for ci in b for c in classes[ci]] for b in blocks]))
            # coordinate blocks that may split a weight class
            flags.append(_coordinate_flag(n, _random_ordered_partition(rng, range(n))))
            flags.append(_random_flag(rng, n))
        for f in flags:
            got = torus_flag_in_fk(f, k)
            assert got == reference_flag_in_fk(f, k), (k, f)
            counts[got] += 1
    assert counts[True] > 100 and counts[False] > 100


def test_fm_witness_simple():
    assert fm_witness([((1, 0), True), ((0, 1), True)]) is not None
    assert fm_witness([((1,), True), ((-1,), True)]) is None
    # 0 >= 0 fine, 0 > 0 not
    assert fm_witness([((0, 0), False)]) is not None
    assert fm_witness([((0, 0), True)]) is None


# Reference: Fourier-Motzkin over Fraction rows, normalised after every
# combination.  The integer version must return the very same witness.


def _ref_normalize_row(coeffs):
    den = 1
    for c in coeffs:
        den = den * c.denominator // _gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    g = 0
    for x in ints:
        g = _gcd(g, x)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _ref_dedup(rows):
    return list(dict.fromkeys(rows))


def _ref_pick_between(lower, upper):
    if lower is None and upper is None:
        return Fraction(0)
    if upper is None:
        return lower[0] + 1
    if lower is None:
        return upper[0] - 1
    (lo, ls), (up, us) = lower, upper
    if lo < up:
        return Fraction(0) if lo < 0 < up else (lo + up) / 2
    assert lo == up and not ls and not us
    return lo


def reference_fm_witness(rows):
    rows = [(_ref_normalize_row(tuple(Fraction(c) for c in coeffs)), bool(strict)) for coeffs, strict in rows]
    if not rows:
        return ()
    nv = len(rows[0][0])
    levels = [None] * (nv + 1)
    levels[nv] = _ref_dedup(rows)
    for d in range(nv, 0, -1):
        pos, neg, new = [], [], []
        for coeffs, strict in levels[d]:
            c = coeffs[d - 1]
            if c > 0:
                pos.append((coeffs, strict))
            elif c < 0:
                neg.append((coeffs, strict))
            else:
                new.append((coeffs[: d - 1], strict))
        for pc, ps in pos:
            for ncf, ns in neg:
                comb = tuple(
                    Fraction(pc[i]) * (-ncf[d - 1]) + Fraction(ncf[i]) * pc[d - 1] for i in range(d - 1)
                )
                new.append((_ref_normalize_row(comb), ps or ns))
        levels[d - 1] = _ref_dedup(new)
    if any(strict for _, strict in levels[0]):
        return None
    vals = []
    for d in range(1, nv + 1):
        lower = upper = None
        for coeffs, strict in levels[d]:
            c = coeffs[d - 1]
            rest = sum((Fraction(coeffs[i]) * vals[i] for i in range(d - 1)), Fraction(0))
            if c == 0:
                assert rest > 0 or (rest == 0 and not strict)
                continue
            bound = -rest / Fraction(c)
            if c > 0:
                if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                    lower = (bound, strict)
            elif upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
        vals.append(_ref_pick_between(lower, upper))
    return tuple(vals)


fm_coeffs = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def fm_systems(draw):
    nv = draw(st.integers(min_value=1, max_value=4))
    row = st.tuples(st.tuples(*[fm_coeffs] * nv), st.booleans())
    return draw(st.lists(row, max_size=7))


@given(fm_systems())
@settings(max_examples=200, deadline=None)
def test_fm_witness_matches_fraction_reference(rows):
    got = fm_witness(rows)
    assert got == reference_fm_witness(rows)
    if got is not None:
        for coeffs, strict in rows:
            value = sum(Fraction(c) * t for c, t in zip(coeffs, got))
            assert value > 0 if strict else value >= 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_example43_against_sweep():
    listing = enumerate_flag_types(EX43)
    got = {ft.ordered_blocks for ft, _ in listing}
    assert got == sweep_flag_types(EX43)


def test_enumerate_example43_dimension_patterns():
    listing = enumerate_flag_types(EX43)
    counts = Counter(flag_of_type(ft, EX43).dims() for ft, _ in listing)
    assert counts[()] == 1
    assert counts[(2,)] == 4
    assert counts[(1, 3)] == 4
    assert counts[(1, 2, 3)] == 8
    assert sum(counts.values()) == 17


def test_enumerate_gl2_full_torus():
    k = TorusK.of(2, [[1, 0], [0, 1]])
    listing = enumerate_flag_types(k)
    types = {ft.ordered_blocks for ft, _ in listing}
    assert types == {((0, 1),), ((0,), (1,)), ((1,), (0,))}


def test_enumerate_rank1():
    k = TorusK.of(4, [[1, 1, 0, 0]])
    listing = enumerate_flag_types(k)
    nontrivial = {ft.ordered_blocks for ft, _ in listing if not ft.is_trivial}
    assert nontrivial == {((0,), (1,)), ((1,), (0,))}
    assert {ft.ordered_blocks for ft, _ in minimal_flags(k)} == nontrivial


def test_enumerate_g2_against_sweep():
    listing = enumerate_flag_types(G2_TORUS)
    got = {ft.ordered_blocks for ft, _ in listing}
    assert got == sweep_flag_types(G2_TORUS)


def test_enumerate_random_rank2_against_sweep():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 5)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
            try:
                k = TorusK.of(n, rows)
                break
            except ValueError:
                continue
        got = {ft.ordered_blocks for ft, _ in enumerate_flag_types(k)}
        assert got == sweep_flag_types(k), rows


def test_enumerate_witnesses_verify():
    for ft, wit in enumerate_flag_types(EX43):
        w = wit.weights(EX43)
        assert flag_from_weights(w) == flag_of_type(ft, EX43)


# ---------------------------------------------------------------------------
# minimal flags and opposites


def test_minimal_example43():
    mins = minimal_flags(EX43)
    dims = Counter(flag_of_type(ft, EX43).dims() for ft, _ in mins)
    assert dims == Counter({(2,): 4, (1, 3): 4})


def test_minimal_full_torus_gl3():
    k = TorusK.of(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    mins = minimal_flags(k)
    assert all(flag_of_type(ft, k).length == 1 for ft, _ in mins)
    assert len(mins) == 6  # all one-step coordinate flags


def test_opposite_type_basics():
    ft = FlagType.of([[0], [1, 2], [3]])
    assert opposite_type(ft) == FlagType.of([[3], [1, 2], [0]])
    assert opposite_type(opposite_type(ft)) == ft
    triv = FlagType.of([[0, 1, 2, 3]])
    assert opposite_type(triv) == triv


def test_opposite_preserves_feasibility_and_minimality():
    feas = {ft.ordered_blocks for ft, _ in enumerate_flag_types(EX43)}
    mins = {ft.ordered_blocks for ft, _ in minimal_flags(EX43)}
    for ft, wit in enumerate_flag_types(EX43):
        opp = opposite_type(ft)
        assert opp.ordered_blocks in feas
        negw = tuple(-x for x in wit.weights(EX43))
        assert flag_from_weights(negw) == flag_of_type(opp, EX43)
    for m in mins:
        assert opposite_type(FlagType(m)).ordered_blocks in mins


def test_opposite_flags_verify_opposite():
    ft = FlagType.of([[0], [1, 2], [3]])
    f = flag_of_type(ft, EX43)
    g = flag_of_type(opposite_type(ft), EX43)
    assert g.chain[0] == Subspace.coordinate(4, [3])
    assert g.chain[1] == Subspace.coordinate(4, [1, 2, 3])
    assert verify_opposite(f, g) is not None


# ---------------------------------------------------------------------------
# common refinement


def test_common_refinement_incompatible_pair():
    with pytest.raises(ValueError):
        common_refinement([(1, 0), (0, 1)], require_compatible=True)
    ns, comb = common_refinement([(1, 0), (0, 1)], require_compatible=False)
    assert flag_from_weights(comb).dims() == (1,)


def test_common_refinement_two_vectors():
    ns, comb = common_refinement([(1, 1, -1, -1), (1, 0, 0, -1)])
    f = flag_from_weights(comb)
    assert f.dims() == (1, 2, 3)
    assert f.chain[0] == Subspace.coordinate(4, [0])
    assert f.chain[1] == Subspace.coordinate(4, [0, 1])
    assert f.chain[2] == Subspace.coordinate(4, [0, 1, 2])


def test_common_refinement_single():
    ns, comb = common_refinement([(2, 1, 0)])
    assert ns == (1,)
    assert comb == (2, 1, 0)


def test_common_refinement_random_join_property():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(2, 6)
        ws = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        ns, comb = common_refinement(ws, require_compatible=False)
        profiles = {}
        for j in range(n):
            profiles.setdefault(tuple(w[j] for w in ws), set()).add(j)
        comb_classes = {}
        for j in range(n):
            comb_classes.setdefault(comb[j], set()).add(j)
        assert sorted(map(sorted, profiles.values())) == sorted(map(sorted, comb_classes.values()))


# ---------------------------------------------------------------------------
# the three checkers


def stab_u123():
    # parabolic stabilizer of <e1,e2,e3> inside Q^4
    return subspace_stabilizer(4, [0, 1, 2])


def test_example43_all_methods_relcr():
    h = stab_u123()
    rep = relcr_torus_crosscheck(h, EX43)
    assert rep.relcr
    vl = rep.verdicts[2]
    assert vl.witness["levi_type"]["dims"] == []  # the trivial type qualifies


def test_section4_counterexample_not_relcr():
    h = subspace_stabilizer(4, [1, 3])  # Stab <e2, e4>
    assert not relcr_torus_definition(h, EX43).relcr
    assert not relcr_torus_minimal(h, EX43).relcr
    assert not relcr_torus_levi(h, EX43).relcr
    wit = relcr_torus_minimal(h, EX43).witness
    assert wit["flag_type"]["dims"] == [2]


def test_trivial_group_relcr():
    h = GroupH.trivial(4)
    rep = relcr_torus_crosscheck(h, EX43)
    assert rep.relcr
    # the Levi witness for the trivial group is a finest feasible type
    levi = rep.verdicts[2]
    blocks = levi.witness["levi_type"]["blocks"]
    assert all(len(b) == 1 for b in blocks)


def test_stab_line_relcr_wrt_example43():
    h = subspace_stabilizer(4, [0])  # Stab <e1>: stabilizes no flag of F_K
    rep = relcr_torus_crosscheck(h, EX43)
    assert rep.relcr


def test_diagonalizable_group_full_torus():
    h = GroupH(4, (diagonal_matrix([1, 1, 1, 2]),))
    k = TorusK.of(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert relcr_torus_crosscheck(h, k).relcr


def test_unipotent_not_relcr_wrt_full_torus():
    h = GroupH.of(2, [[[1, 1], [0, 1]]])
    k = TorusK.of(2, [[1, 0], [0, 1]])
    assert not relcr_torus_crosscheck(h, k).relcr


def test_crosscheck_agreement_random():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        r = rng.randint(1, 2)
        while True:
            try:
                k = TorusK.of(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)])
                break
            except ValueError:
                continue
        gens = []
        for _ in range(rng.randint(0, 2)):
            from relcr.exactlin import RatMatrix

            m = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if m.is_invertible():
                gens.append(m)
        h = GroupH(n, tuple(gens))
        relcr_torus_crosscheck(h, k)  # raises InternalInconsistencyError on disagreement


# ---------------------------------------------------------------------------
# stability read from the zero pattern on weight classes, against subspace algebra


@st.composite
def tori_with_wide_classes(draw):
    """A torus of rank at most 3 on n <= 6 coordinates whose coordinates
    share a few distinct lattice columns, so that classes hold several
    coordinates.  Rows dependent on earlier ones are dropped."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(min(r + 1, n), n))
    cols = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * r), min_size=m, max_size=m, unique=True))
    owner = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    basis = []
    for i in range(r):
        row = [cols[owner[j]][i] for j in range(n)]
        try:
            TorusK.of(n, basis + [row])
        except ValueError:
            continue
        basis.append(row)
    return TorusK.of(n, basis)


small_rats = st.one_of(st.integers(-2, 2), st.fractions(min_value=-2, max_value=2, max_denominator=3))


@st.composite
def invertible_generators(draw, k):
    """An invertible matrix of one of four shapes: diagonal; block diagonal
    on a partition of the coordinates, into unions of weight classes or at
    random; a diagonal permuted inside each class, plus a few entries inside
    one class and across classes; dense."""
    n = k.ambient_dim
    classes = weight_classes(k)
    nonzero = small_rats.filter(bool)
    while True:
        kind = draw(st.sampled_from(("diagonal", "block", "sparse", "dense")))
        rows = [[Fraction(0)] * n for _ in range(n)]
        if kind == "diagonal":
            for i in range(n):
                rows[i][i] = Fraction(draw(nonzero))
        elif kind == "block":
            if draw(st.booleans()):
                shuffled = draw(st.permutations(classes))
                order = [i for c in shuffled for i in c]
                ends = list(accumulate(len(c) for c in shuffled))[:-1]
            else:
                order = draw(st.permutations(range(n)))
                ends = list(range(1, n))
            cuts = sorted(draw(st.sets(st.sampled_from(ends)))) if ends else []
            for a, b in zip([0] + cuts, cuts + [n]):
                for i in order[a:b]:
                    for j in order[a:b]:
                        rows[i][j] = Fraction(draw(small_rats))
        elif kind == "sparse":
            for c in classes:
                for i, j in zip(c, draw(st.permutations(c))):
                    rows[i][j] = Fraction(draw(nonzero))
            cls = draw(st.sampled_from(classes))
            extra = [(draw(st.sampled_from(cls)), draw(st.sampled_from(cls)))]
            extra += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2))
            for i, j in extra:
                rows[i][j] = Fraction(draw(nonzero))
        else:
            rows = [[Fraction(draw(small_rats)) for _ in range(n)] for _ in range(n)]
        g = RatMatrix.from_rows(rows)
        if g.is_invertible():
            return g


@st.composite
def torus_groups(draw):
    k = draw(tori_with_wide_classes())
    gens = draw(st.lists(invertible_generators(k), min_size=1, max_size=2))
    return GroupH(k.ambient_dim, tuple(gens)), k


@given(torus_groups())
@settings(max_examples=150, deadline=None)
def test_class_reach_stability_matches_subspace_algebra(hk):
    h, k = hk
    reach = _class_reach(h, k)
    for ft, _ in enumerate_flag_types(k):
        assert _flag_stable(reach, ft) == is_stable(flag_of_type(ft, k), h), ft
        pieces = pieces_of_type(ft, k).pieces
        for block, piece in zip(ft.ordered_blocks, pieces, strict=True):
            assert _union_stable(reach, block) == subspace_is_stable(piece, h), (ft, block)


def test_torus_checkers_do_no_subspace_algebra(monkeypatch):
    # a regression to Subspace, Flag or image_under in the checker loops
    # reaches the row reduction, which raises here
    k = TorusK.of(5, [[1, 1, 0, 0, -1], [0, 0, 1, 1, -1]])
    enumerate_flag_types(k)
    minimal_flags(k)
    groups = [
        GroupH.of(5, [[[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 2, 0], [0, 0, 1, 3, 0], [0, 0, 0, 0, 1]]]),
        GroupH.of(5, [[[1, 0, 1, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]]),
        GroupH.trivial(5),
    ]
    expected = [relcr_torus_crosscheck(h, k) for h in groups]
    assert [rep.relcr for rep in expected] == [True, False, True]

    def no_row_reduction(m, pivot_limit):
        raise AssertionError("row reduction inside a torus checker")

    for cached in (flag_of_type, pieces_of_type, flags._stable_under, exactlin._is_invertible_cached):
        cached.cache_clear()
    monkeypatch.setattr(exactlin, "_row_reduce", no_row_reduction)
    assert [relcr_torus_crosscheck(h, k) for h in groups] == expected
    assert relcr_torus_definition(groups[1], k).witness["unstable_piece_coords"] == [3, 4]


# ---------------------------------------------------------------------------
# products


def K1_PROJ():
    return TorusK.of(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


def K2_PROJ():
    return TorusK.of(4, [[0, 0, 1, 0], [0, 0, 0, 1]])


def test_product_section4_stab_e2e4():
    h = subspace_stabilizer(4, [1, 3])
    rep = relcr_torus_product(h, [K1_PROJ(), K2_PROJ()], joint=EX43)
    assert not rep.joint_verdict
    assert rep.factor_verdicts == (True, True)
    assert not rep.h_preserves_blocks
    assert not rep.k_equals_product
    assert not rep.equivalence_asserted


def test_product_section4_stab_e1():
    h = subspace_stabilizer(4, [0])
    rep = relcr_torus_product(h, [K1_PROJ(), K2_PROJ()], joint=EX43)
    assert rep.joint_verdict  # relatively irreducible w.r.t. the paper's K
    assert rep.factor_verdicts[0] is False
    assert not rep.equivalence_asserted


def test_product_equivalence_block_diagonal():
    # H preserving the blocks and K the honest product: the criterion holds
    rng = random.Random(5)
    from relcr.exactlin import RatMatrix

    for _ in range(10):
        while True:
            a = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            b = RatMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if a.is_invertible() and b.is_invertible():
                break
        rows = [list(a.row(0)) + [0, 0], list(a.row(1)) + [0, 0], [0, 0] + list(b.row(0)), [0, 0] + list(b.row(1))]
        h = GroupH.of(4, [rows])
        rep = relcr_torus_product(h, [K1_PROJ(), K2_PROJ()])
        assert rep.equivalence_asserted
        assert rep.joint_verdict == (rep.factor_verdicts[0] and rep.factor_verdicts[1])
