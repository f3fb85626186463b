"""Seeded scenario generation for the benchmark workloads.

Every scenario is a plain JSON-able dict.  Its "scenario" entry is exactly
what `relcr check` reads; the other entries are for the benchmark only:
"oracle" is the verdict the construction fixes, independently of any checker,
and "weights" (torus families) is the cocharacter's diagonal weight vector.

Nothing here imports relcr: the inputs and their expected verdicts are built
from first principles, so a defect in the library cannot hide in the oracle.

Verdicts fixed by construction:
- torus K, H diagonal: H stabilizes every coordinate subspace, so every graded
  piece of every flag in F_K is stable: relcr.
- torus K, H the Levi of a cocharacter c (block diagonal by weight level, each
  block with no zero entry): the H-stable coordinate subspaces are the unions
  of weight levels, so the graded pieces of every H-stable flag of F_K are
  unions of levels too: relcr.
- torus K, H in the parabolic of c (g[i][j] != 0 exactly when w_i >= w_j, at
  least two levels): H stabilizes the weight flag of c, which lies in F_K, but
  moves its lowest-weight piece: not relcr.
- glu/classical/g2 Levi, diagonal and torus-element groups are reductive;
  transvection groups along a spanning set with a connected pairing graph are
  irreducible, so the criterion holds vacuously: relcr.
- full stabilizers of a coordinate flag whose smallest member X is a proper
  nonzero subspace (inside U for glu, totally isotropic for classical/g2)
  stabilize exactly the flag's members, so X has no stable complement: not
  relcr.  A Jordan block on U fixes a line with no stable complement: not relcr.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

RELCR = "relcr"
NOT_RELCR = "not_relcr"

TORUS_FAMILIES = ("diagonal", "levi", "parabolic", "trivial")

# (rank, ambient dimension, weight classes) of the K drawn for torus_cli:
# every H family on each of four shapes, plus a Levi and a parabolic H on
# rank-3 tori with 6 classes (2-4 s cold each at the seed commit).  Each op
# draws its own K.  A random rank-3 torus with 7 classes can take 11 s, which
# would leave a run with too few ops to be steady.
TORUS_CLI_SLOTS = tuple(
    (shape, family) for shape in ((1, 4, 3), (2, 5, 5), (2, 7, 7), (3, 5, 5)) for family in TORUS_FAMILIES
) + (((3, 6, 6), "levi"), ((3, 6, 6), "parabolic"))

# The fixed tori of torus_batch, enumerated during set-up.  The first is a
# rank-3 torus with 8 weight classes (483 flag types, weights on two lines),
# the others have rank 2 with 6 classes and rank 3 with 5.
BATCH_TORI = (
    ((0, 1, 2, 3, 0, 0, 0, 0), (0, 0, 0, 0, 1, 2, 3, 0), (0, 0, 0, 0, 0, 0, 0, 1)),
    ((1, 2, 0, -1, 1, -2), (0, 1, 1, 2, -1, 0)),
    ((1, 0, 0, 1, -1), (0, 1, 0, 1, 1), (0, 0, 1, -1, 1)),
)

# The G2 parabolic refutation of the test suite: the full stabilizer of the
# coordinate flag <e1,e2> < <e1,...,e5>.
G2_PARABOLIC_LEVELS = (1, 1, 2, 2, 2, 3, 3)


# ---------------------------------------------------------------------------
# exact helpers


def rat_str(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def matrix_json(rows) -> list:
    return [[rat_str(x) for x in row] for row in rows]


def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def invertible(rows) -> bool:
    return rank(rows) == len(rows)


def identity(n) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def diagonal(entries) -> list:
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def elementary(n, i, j, c=1) -> list:
    m = identity(n)
    m[i][j] = c
    return m


def dilation(n, i, c=2) -> list:
    m = identity(n)
    m[i][i] = c
    return m


def flag_stabilizer(n, levels, c=1, d=2) -> list:
    """Generators of the full stabilizer of the coordinate flag whose steps
    span the coordinates of level <= t: I + c E_ij wherever level_i <=
    level_j, then the dilations by d."""
    gens = [elementary(n, i, j, c) for i in range(n) for j in range(n) if i != j and levels[i] <= levels[j]]
    return gens + [dilation(n, i, d) for i in range(n)]


def block_diagonal(n, blocks, c=1, d=2) -> list:
    """Generators of GL(block_1) x ... x GL(block_m)."""
    gens = [elementary(n, i, j, c) for b in blocks for i in b for j in b if i != j]
    return gens + [dilation(n, i, d) for i in range(n)]


def antidiagonal_gram(n, kind) -> list:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][n - 1 - i] = 1 if (kind == "orthogonal" or i < n - 1 - i) else -1
    return g


def transvection(gram, v) -> list:
    """x -> x + omega(x, v) v, an isometry of the alternating form."""
    n = len(v)
    jv = [sum(gram[i][k] * v[k] for k in range(n)) for i in range(n)]
    return [[(1 if i == j else 0) + v[i] * jv[j] for j in range(n)] for i in range(n)]


def _nonzero(rng, lo=-3, hi=3):
    while True:
        x = rng.randint(lo, hi)
        if x:
            return x


def _dense_invertible(rng, size):
    while True:
        m = [[_nonzero(rng) for _ in range(size)] for _ in range(size)]
        if invertible(m):
            return m


# ---------------------------------------------------------------------------
# torus scenarios


def weight_classes(lattice) -> int:
    return len({tuple(row[j] for row in lattice) for j in range(len(lattice[0]))})


def random_torus(rng, r, n, classes) -> list:
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
        if rank(rows) == r and weight_classes(rows) == classes:
            return rows


def cocharacter_weights(rng, lattice) -> list:
    """Diagonal weights c . B of a random cocharacter c with >= 2 levels."""
    n = len(lattice[0])
    while True:
        c = [rng.randint(-2, 2) for _ in lattice]
        w = [sum(ci * row[j] for ci, row in zip(c, lattice)) for j in range(n)]
        if len(set(w)) >= 2:
            return w


def torus_h(rng, family, lattice, variant, shape_rng=None):
    """(generators, weights, oracle) for one H family on the torus K.  The
    variant (0 or 1) fixes the number of generators, and shape_rng, when
    given, draws the cocharacter in place of rng, so that the work in a round
    does not hinge on the seed."""
    n = len(lattice[0])
    if family == "diagonal":
        gens = [diagonal([_nonzero(rng, -5, 5) for _ in range(n)]) for _ in range(1 + variant)]
        return gens, None, RELCR
    if family == "trivial":
        return [identity(n)] * variant, None, RELCR
    w = cocharacter_weights(shape_rng or rng, lattice)
    if family == "levi":
        gens = []
        for _ in range(1 + variant):
            g = [[0] * n for _ in range(n)]
            for level in sorted(set(w)):
                coords = [j for j in range(n) if w[j] == level]
                block = _dense_invertible(rng, len(coords))
                for a, i in enumerate(coords):
                    for b, j in enumerate(coords):
                        g[i][j] = block[a][b]
            gens.append(g)
        return gens, w, RELCR
    if family == "parabolic":
        while True:
            g = [[_nonzero(rng) if w[i] >= w[j] else 0 for j in range(n)] for i in range(n)]
            if invertible(g):
                return [g], w, NOT_RELCR
    raise ValueError(f"unknown torus family {family!r}")


def torus_scenario(name, lattice, gens, weights, oracle) -> dict:
    n = len(lattice[0])
    return {
        "name": name,
        "kind": "torus",
        "oracle": oracle,
        "weights": weights,
        "scenario": {
            "ambient_dim": n,
            "h": {"generators": [matrix_json(g) for g in gens]},
            "k": {"kind": "torus", "lattice_basis": [list(r) for r in lattice]},
            "mode": "auto",
        },
    }


def torus_cli_round(seed) -> list:
    """Every scenario twice: the second pass repeats the first, so report
    bytes are compared within every run.

    The seed draws the matrix entries of H.  The tori and the cocharacters
    come from a stream that is the same for every seed, so every run
    enumerates the same 18 tori: random tori would move the round's cost by
    a fifth from seed to seed, more than a regression bound."""
    rng = random.Random(f"torus_cli/{seed}")
    shape_rng = random.Random("torus_cli/shapes")
    out = []
    for i, ((r, n, classes), family) in enumerate(TORUS_CLI_SLOTS):
        lattice = random_torus(shape_rng, r, n, classes)
        gens, w, oracle = torus_h(rng, family, lattice, i // len(TORUS_FAMILIES) % 2, shape_rng)
        out.append(torus_scenario(f"{i:02d}-torus-r{r}n{n}c{classes}-{family}", lattice, gens, w, oracle))
    return out + out


def torus_batch_round(seed) -> list:
    """The seed draws the matrix entries; the cocharacters, and so the
    H-stable flags each check walks through, are the same for every seed.
    Random cocharacters would move the round's cost by a third."""
    rng = random.Random(f"torus_batch/{seed}")
    shape_rng = random.Random("torus_batch/cocharacters")
    out = []
    for t, lattice in enumerate(BATCH_TORI):
        for family in TORUS_FAMILIES:
            for rep in range(2):
                gens, w, oracle = torus_h(rng, family, lattice, rep, shape_rng)
                out.append(torus_scenario(f"{len(out):02d}-batch-t{t}-{family}-{rep}", lattice, gens, w, oracle))
    return out


# ---------------------------------------------------------------------------
# structured scenarios


def _coord_rows(n, coords) -> list:
    return [[1 if j == c else 0 for j in range(n)] for c in coords]


def _structured(name, n, gens, k, oracle) -> dict:
    return {
        "name": name,
        "kind": k["kind"],
        "oracle": oracle,
        "weights": None,
        "scenario": {
            "ambient_dim": n,
            "h": {"generators": [matrix_json(g) for g in gens]},
            "k": k,
            "mode": "auto",
        },
    }


def _glu_k(n, u):
    return {"kind": "glu", "U": _coord_rows(n, range(u)), "Utilde": _coord_rows(n, range(u, n))}


def _classical_k(n, kind):
    return {"kind": "classical", "form": {"kind": kind, "gram": matrix_json(antidiagonal_gram(n, kind))}}


def _primes(lo, hi):
    return [p for p in range(lo, hi) if all(p % d for d in range(2, int(p**0.5) + 1))]


# Each cheap family takes a variant, 0 or 1, that fixes its shape: form kind,
# dimensions, block or flag structure.  The seed draws only the numbers, so
# that the round's cost stays put from seed to seed.


def _coefficients(rng):
    """The off-diagonal coefficient and the dilation of a generator set."""
    return _nonzero(rng), rng.choice((2, 3, 5))


def glu_levi(rng, variant):
    n, u = (3, 2) if variant == 0 else (4, 2)
    gens = block_diagonal(n, [range(u), range(u, n)], *_coefficients(rng))
    return _structured("glu-levi", n, gens, _glu_k(n, u), RELCR)


def glu_jordan(rng, variant):
    n, u = (3, 2) if variant == 0 else (4, 3)
    lam = _nonzero(rng)
    g = identity(n)
    for i in range(u):
        g[i][i] = lam
        if i + 1 < u:
            g[i][i + 1] = 1
    return _structured("glu-jordan", n, [g], _glu_k(n, u), NOT_RELCR)


def glu_flag_stabilizer(rng, variant):
    # the smallest member <e1> is a proper part of U
    n, u = (3, 2) if variant == 0 else (4, 3)
    levels = [1] + [2] * (u - 1) + [3] * (n - u)
    gens = flag_stabilizer(n, levels, *_coefficients(rng))
    return _structured("glu-flagstab", n, gens, _glu_k(n, u), NOT_RELCR)


def glu_height(rng, variant):
    # x^2 + c has no rational root for c > 0: the companion is irreducible.
    # rational_roots trial-divides c, so the cost grows like sqrt(c); c stays
    # below 10^14, where the seed code still answers in about a second.  The
    # band is narrow so that the op's cost barely moves with the seed.
    c = rng.randint(8 * 10**13, 10**14)
    return _structured("glu-height", 2, [[[0, 1], [-c, 0]]], _glu_k(2, 1), RELCR)


_KINDS = ("symplectic", "orthogonal")


def classical_flag_stabilizer(rng, variant):
    # symmetric levels: <e1> < <e1,e2,e3>, or the maximal isotropic <e1,e2>
    levels = (0, 2, 2, 4) if variant == 0 else (0, 0, 4, 4)
    gens = flag_stabilizer(4, levels, *_coefficients(rng))
    return _structured("classical-flagstab", 4, gens, _classical_k(4, _KINDS[variant]), NOT_RELCR)


def classical_diagonal(rng, variant):
    entries = rng.sample([Fraction(p, q) for p in range(1, 12) for q in (1, 2, 3) if Fraction(p, q) != 1], 6)
    return _structured("classical-diagonal", 6, [diagonal(entries)], _classical_k(6, _KINDS[variant]), RELCR)


def classical_height(rng, variant):
    # four primes whose product, the constant term, lies in 1.6e13..2.8e13
    entries = rng.sample(_primes(2000, 2300), 4)
    return _structured("classical-height", 4, [diagonal(entries)], _classical_k(4, _KINDS[variant]), RELCR)


def classical_levi(rng, variant):
    blocks = [[0, 3], [1, 2]] if variant == 0 else [[0], [1, 2], [3]]
    gens = block_diagonal(4, blocks, *_coefficients(rng))
    return _structured("classical-levi", 4, gens, _classical_k(4, _KINDS[variant]), RELCR)


def classical_transvections(rng, variant):
    n = 4
    gram = antidiagonal_gram(n, "symplectic")
    vs = [[_nonzero(rng, 1, 3) if i == j else 0 for j in range(n)] for i in range(n)]
    vs.append([_nonzero(rng) for _ in range(n)])
    gens = [transvection(gram, v) for v in vs]
    return _structured("classical-transvections", n, gens, _classical_k(n, "symplectic"), RELCR)


def g2_torus_element(rng):
    # diag(s, t, s/t, 1, t/s, 1/t, 1/s) with seven distinct weights
    while True:
        s, t = Fraction(_nonzero(rng, 2, 9)), Fraction(_nonzero(rng, 2, 9))
        entries = [s, t, s / t, Fraction(1), t / s, 1 / t, 1 / s]
        if len(set(entries)) == 7:
            return _structured("g2-torus", 7, [diagonal(entries)], {"kind": "g2"}, RELCR)


def g2_parabolic(rng):
    return _structured("g2-parabolic", 7, flag_stabilizer(7, G2_PARABOLIC_LEVELS), {"kind": "g2"}, NOT_RELCR)


CHEAP_STRUCTURED = (
    glu_levi,
    glu_jordan,
    glu_flag_stabilizer,
    glu_height,
    classical_flag_stabilizer,
    classical_levi,
    classical_diagonal,
    classical_height,
    classical_transvections,
)


def structured_cli_round(seed) -> list:
    """Two instances of each cheap family and a third Jordan block, run twice
    (the second pass repeats the same scenarios, so report bytes are compared
    within every run), the G2 torus element between the passes, and the G2
    parabolic, about 20 s of spinning at the seed commit, last.  The third
    Jordan block puts the median inside a cluster of like-priced ops rather
    than at its edge."""
    rng = random.Random(f"structured_cli/{seed}")
    k = len(CHEAP_STRUCTURED)
    families = CHEAP_STRUCTURED * 2 + (glu_jordan,)
    cheap = [_named(family(rng, min(i // k, 1)), i) for i, family in enumerate(families)]
    g2 = [_named(family(rng), len(cheap) + i) for i, family in enumerate((g2_torus_element, g2_parabolic))]
    return cheap + g2[:1] + cheap + g2[1:]


def _named(sc, i) -> dict:
    sc["name"] = f"{i:02d}-{sc['name']}"
    return sc


ROUNDS = {
    "torus_cli": torus_cli_round,
    "structured_cli": structured_cli_round,
    "torus_batch": torus_batch_round,
}


def scenario_bytes(scenarios) -> bytes:
    return json.dumps(scenarios, sort_keys=True).encode()
