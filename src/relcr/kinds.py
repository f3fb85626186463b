"""The supported K kinds, in one table.

Each kind gives the parser of its JSON payload, its invariant bilinear form
(whose adjoints join H's generators when the subspace pool is built), its
pool-based checker, the membership test of a flag in F_K, and, for the kinds
`relcr flags` lists, the torus whose flags it enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import jsonio
from .g2model import g2_data, g2_flag_shape_ok, load_fixture, relcr_g2
from .structcr import (
    BilinForm,
    GLUSplit,
    classical_flag_in_fk,
    glu_flag_in_fk,
    relcr_classical,
    relcr_glu,
)
from .toruscr import TorusK, torus_flag_in_fk


@dataclass(frozen=True)
class KindSpec:
    parse: Callable  # (payload, ambient dim) -> K data; raises KeyError/ValueError/TypeError
    form: Optional[Callable]  # K data -> invariant BilinForm, if K preserves one
    check: Optional[Callable]  # (h, K data, pool, elim cap) -> TriVerdict; None: exact torus tier
    in_fk: Callable  # (flag, K data) -> whether the flag lies in F_K
    flag_torus: Optional[Callable] = None  # `relcr flags` payload -> TorusK


def _parse_g2(data, n):
    if n != 7:
        raise ValueError("the g2 tier needs ambient dimension 7")
    return load_fixture(data["fixture"]) if "fixture" in data else g2_data()


# The checkers are looked up when called, so that wrappers later installed on
# the modules (tracing) see the calls.
KINDS = {
    "torus": KindSpec(
        parse=lambda data, n: TorusK.of(n, data["lattice_basis"]),
        form=None,
        check=None,
        in_fk=torus_flag_in_fk,
        flag_torus=lambda data: TorusK.of(int(data["ambient_dim"]), data["lattice_basis"]),
    ),
    "glu": KindSpec(
        parse=lambda data, n: GLUSplit(
            n,
            jsonio.subspace_from_json(data["U"], n),
            jsonio.subspace_from_json(data["Utilde"], n),
        ),
        form=None,
        check=lambda h, split, pool, elim_cap: relcr_glu(h, split, pool),
        in_fk=glu_flag_in_fk,
    ),
    "classical": KindSpec(
        parse=lambda data, n: BilinForm(
            n, jsonio.matrix_from_json(data["form"]["gram"]), data["form"]["kind"]
        ),
        form=lambda b: b,
        check=lambda h, b, pool, elim_cap: relcr_classical(h, b, pool, elim_dim_cap=elim_cap),
        in_fk=classical_flag_in_fk,
    ),
    "g2": KindSpec(
        parse=_parse_g2,
        form=lambda d: d.bilinear,
        check=lambda h, d, pool, elim_cap: relcr_g2(h, d, pool, elim_dim_cap=elim_cap),
        in_fk=g2_flag_shape_ok,
        flag_torus=lambda data: g2_data().torus,
    ),
}
