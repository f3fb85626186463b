"""Command-line surface: batch decisions over JSON scenarios.

Commands: check, flags, verify, corpus.  Reports go to stdout as JSON with a
deterministic layout; exit codes encode the verdict (0 relcr, 1 not relcr,
2 inconclusive, >= 3 errors).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .flags import GroupH
from .kinds import KINDS
from .structcr import build_pool, form_adjoint, verify_certificate
from .toruscr import (
    InternalInconsistencyError,
    enumerate_flag_types,
    minimal_flags,
    relcr_torus_crosscheck,
    relcr_torus_definition,
    relcr_torus_levi,
    relcr_torus_minimal,
    type_payload,
)

EXIT_RELCR = 0
EXIT_NOT_RELCR = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class ScenarioError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc


def _parse_k(data, ambient_dim: int):
    if not isinstance(data, dict) or "kind" not in data:
        raise ScenarioError("k must be an object with a 'kind' tag")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise ScenarioError(f"unknown K kind {kind!r}")
    try:
        return kind, KINDS[kind].parse(data, ambient_dim)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid K payload: {exc}") from exc


def _object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError(f"{what} must be a JSON object")
    return data


def _parse_scenario(data):
    _object(data, "a scenario")
    gens = _object(data.get("h", {}), "h").get("generators", [])
    try:
        n = int(data["ambient_dim"])
        if n < 1:
            raise ValueError("ambient_dim must be at least 1")
        h = GroupH(n, tuple(jsonio.matrix_from_json(g) for g in gens))
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    kind, k = _parse_k(data.get("k"), n)
    mode = data.get("mode", "auto")
    if not isinstance(mode, str):
        raise ScenarioError(f"mode must be a string, not {mode!r}")
    options = _object(data.get("options", {}), "options")
    return n, h, kind, k, mode, options


def _torus_verdict_json(v):
    return {"verdict": v.verdict_str, "witness": v.witness, "method": v.method}


def _tri_verdict_json(kind, verdict):
    value_map = {
        "relcr_witnessed": "relcr",
        "not_relcr_witnessed": "not_relcr",
        "inconclusive": "inconclusive",
    }
    return {
        "kind": kind,
        "verdict": value_map[verdict.value],
        "value": verdict.value,
        "pool_complete": verdict.pool_complete,
        "inconclusive_reason": verdict.inconclusive_reason,
        "witnesses": list(verdict.witnesses),
    }


def cmd_check(args) -> int:
    scenario = _load_json(args.scenario)
    n, h, kind, k, mode, options = _parse_scenario(scenario)
    if args.mode:
        mode = args.mode
    extra_seeds = _load_json(args.seeds) if args.seeds else []
    # command line overrides the scenario file, which overrides the defaults
    try:
        pool_cap = args.pool_cap if args.pool_cap is not None else int(options.get("pool_cap", 200))
        elim_cap = args.elim_cap if args.elim_cap is not None else int(options.get("elim_dim_cap", 2))
        user_seeds = [jsonio.vector_from_json(v) for v in [*options.get("seeds", []), *extra_seeds]]
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid options: {exc}") from exc
    spec = KINDS[kind]
    if spec.check is None:
        return _check_torus(h, k, mode, args.json_indent)
    if mode not in ("auto",):
        raise ScenarioError(f"unsupported mode {mode!r} for K kind {kind!r}")
    adj = () if spec.form is None else tuple(form_adjoint(g, spec.form(k)) for g in h.generators)
    pool = build_pool(h, extra_gens=adj, cap=pool_cap, user_seeds=user_seeds)
    verdict = spec.check(h, k, pool, elim_cap)
    _emit(_tri_verdict_json(kind, verdict), args.json_indent)
    return verdict.exit_style


def _check_torus(h, k, mode, indent) -> int:
    methods = {
        "definition": relcr_torus_definition,
        "minimal": relcr_torus_minimal,
        "levi": relcr_torus_levi,
    }
    if mode in methods:
        v = methods[mode](h, k)
        report = {"kind": "torus", **_torus_verdict_json(v)}
        verdict_bool = v.relcr
    elif mode in ("auto", "crosscheck"):
        rep = relcr_torus_crosscheck(h, k)
        report = {
            "kind": "torus",
            "verdict": rep.verdict_str,
            "method": "crosscheck",
            "reports": [_torus_verdict_json(v) for v in rep.verdicts],
        }
        verdict_bool = rep.relcr
    else:
        raise ScenarioError(f"unsupported mode {mode!r} for torus K")
    _emit(report, indent)
    return EXIT_RELCR if verdict_bool else EXIT_NOT_RELCR


def cmd_flags(args) -> int:
    data = _object(_load_json(args.kfile), "a K file")
    kind = data.get("kind", "torus")
    spec = KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None or spec.flag_torus is None:
        raise ScenarioError(f"flag enumeration supports torus and g2 K, not {kind!r}")
    try:
        k = spec.flag_torus(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"invalid K payload: {exc}") from exc
    listing = minimal_flags(k) if args.minimal else enumerate_flag_types(k)
    minimal_set = {ft.ordered_blocks for ft, _ in minimal_flags(k)}
    types = [
        {**type_payload(ft, k, wit), "minimal": ft.ordered_blocks in minimal_set} for ft, wit in listing
    ]
    _emit({"kind": kind, "count": len(types), "types": types}, args.json_indent)
    return 0


def cmd_verify(args) -> int:
    data = _load_json(args.certificate)
    n, h, kind, k, _, _ = _parse_scenario(data)
    try:
        pairs = [
            (jsonio.flag_from_json(p["flag"]), jsonio.flag_from_json(p["opposite"]))
            for p in data.get("pairs", [])
        ]
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"malformed certificate: {exc}") from exc
    rep = verify_certificate(h, pairs, kind, k)
    _emit(
        {
            "accepted": rep.accepted,
            "pairs": list(rep.pair_reports),
            "coverage_checked": rep.coverage_checked,
            "coverage_ok": rep.coverage_ok,
            "detail": rep.detail,
        },
        args.json_indent,
    )
    return 0 if rep.accepted else 1


def cmd_corpus(args) -> int:
    from .corpus import run_corpus

    failures = 0
    results = []
    for name, ok, detail in run_corpus(args.filter):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        results.append(ok)
        failures += 0 if ok else 1
    if not results:
        print(f"no corpus items match filter {args.filter!r}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{len(results) - failures}/{len(results)} corpus items passed")
    return 0 if failures == 0 else 1


def _emit(payload, indent):
    sys.stdout.write(json.dumps(payload, indent=indent))
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relcr",
        description="Decide relative complete reducibility of matrix groups "
        "with respect to tori, GL(U), Sp/SO and the G2 module, in exact "
        "rational arithmetic.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="decide a scenario file")
    pc.add_argument("scenario", help="scenario JSON file")
    pc.add_argument("--mode", choices=["auto", "definition", "minimal", "levi", "crosscheck"])
    pc.add_argument("--pool-cap", type=int, default=None, dest="pool_cap")
    pc.add_argument("--elim-cap", type=int, default=None, dest="elim_cap")
    pc.add_argument("--seeds", help="JSON file with extra seed vectors")
    pc.add_argument("--json-indent", type=int, default=2, dest="json_indent")
    pc.set_defaults(fn=cmd_check)

    pf = sub.add_parser("flags", help="enumerate the flags stemming from K")
    pf.add_argument("kfile", help="K JSON file (torus or g2)")
    pf.add_argument("--minimal", action="store_true")
    pf.add_argument("--json-indent", type=int, default=2, dest="json_indent")
    pf.set_defaults(fn=cmd_flags)

    pv = sub.add_parser("verify", help="verify a certificate of opposite flag pairs")
    pv.add_argument("certificate", help="certificate JSON file")
    pv.add_argument("--json-indent", type=int, default=2, dest="json_indent")
    pv.set_defaults(fn=cmd_verify)

    pr = sub.add_parser("corpus", help="run the golden paper-example corpus")
    pr.add_argument("--filter", default="", help="substring filter on item names")
    pr.set_defaults(fn=cmd_corpus)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
