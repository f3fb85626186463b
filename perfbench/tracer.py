"""Outside-in tracing of the relcr library, for the benchmark's traced runs.

The tracer replaces selected public functions of relcr's modules with
wrappers that record one span per call: name, start, end, parent span and op
id.  A wrapper is installed in every relcr module namespace that holds the
wrapped object (structcr imports subspace_sum from exactlin, for example), so
calls made inside the library are caught too.  Spans are kept in flat arrays
in memory and written out at the end; `uninstall` restores every original.

A few wrappers also keep counters at the same boundary: FM feasibility,
SubspacePool.add acceptance, and the raw seed and acting sets of
default_seeds, whose distinct lines and matrices are counted after the op.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (module, function) pairs that get a span; "Subspace.span" is the static
# method.  Every public function of jsonio is wrapped as well.
SPANNED = {
    "exactlin": (
        "rref",
        "kernel_basis",
        "Subspace.span",
        "subspace_sum",
        "subspace_intersect",
        "image_under",
        "solve_affine",
        "charpoly",
        "rational_roots",
    ),
    "flags": ("is_stable", "subspace_is_stable", "verify_opposite"),
    "toruscr": (
        "enumerate_flag_types",
        "minimal_flags",
        "fm_witness",
        "relcr_torus_definition",
        "relcr_torus_minimal",
        "relcr_torus_levi",
    ),
    "structcr": (
        "build_pool",
        "default_seeds",
        "spin",
        "stable_complements",
        "solve_poly_system",
        "enumerate_poly_solutions",
        "resultant_in_second_var",
        "relcr_glu",
        "relcr_classical",
    ),
    "g2model": ("g2_data", "g2_candidates", "is_doubly_singular", "relcr_g2"),
}
JSONIO_FUNCTIONS = (
    "matrix_to_json",
    "matrix_from_json",
    "vector_to_json",
    "vector_from_json",
    "subspace_to_json",
    "subspace_from_json",
    "flag_to_json",
    "flag_from_json",
    "group_to_json",
    "group_from_json",
)
CACHED = ("enumerate_flag_types", "flag_of_type", "pieces_of_type")
MODULES = ("cli", "jsonio", "exactlin", "flags", "toruscr", "structcr", "g2model")


def span_name(module: str, func: str) -> str:
    """Span names drop the class: exactlin.Subspace.span is exactlin.span."""
    return f"{module}.{func.rsplit('.', 1)[-1]}"


def _relcr_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "relcr" or name.startswith("relcr.")]


class Tracer:
    """Spans and counters of one process.  `op` is the id stamped on new
    spans; the benchmark sets it before each op."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.op_id = array("I")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self.start = array("d")
        self.end = array("d")
        self.op = 0
        self._stack = [-1]
        self._active: dict = {}
        self._patches: list = []
        self.counters = {
            "fm_calls": 0,
            "fm_feasible": 0,
            "pool_add_attempts": 0,
            "pool_add_accepted": 0,
        }
        self.seed_sets: list = []  # (op, n, seeds, acting) per default_seeds call
        self.results: list = []  # (op, span name, result) for the count hooks
        from relcr import toruscr

        self._cached = {func: getattr(toruscr, func) for func in CACHED}
        self.cache_base = self.cache_snapshot()

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active[name] = 0
        return self._ids[name]

    def wrap(self, name: str, fn, keep_result=False):
        nid = self._id(name)
        active = self._active
        stack = self._stack
        name_id, parent, op_id, outer = self.name_id, self.parent, self.op_id, self.outer
        start, end = self.start, self.end
        results = self.results

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            outer.append(1 if active[name] == 0 else 0)
            end.append(0.0)
            stack.append(idx)
            active[name] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                active[name] -= 1
                stack.pop()
            if keep_result:
                results.append((self.op, name, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own."""
        return self.wrap(name, fn)(*args)

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, orig, replacement):
        for mod in _relcr_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, replacement)

    def install(self):
        import relcr.cli  # noqa: F401  (loads every module the CLI uses)
        import relcr.g2model  # noqa: F401
        from relcr import exactlin, structcr

        keep = {"toruscr.enumerate_flag_types", "toruscr.minimal_flags", "structcr.build_pool",
                "structcr.stable_complements"}
        mods = {m.__name__.split(".")[-1]: m for m in _relcr_modules()}
        for module, funcs in SPANNED.items():
            for func in funcs:
                name = span_name(module, func)
                if func == "Subspace.span":
                    orig = exactlin.Subspace.__dict__["span"].__func__
                    self._patches.append((exactlin.Subspace, "span", exactlin.Subspace.__dict__["span"]))
                    exactlin.Subspace.span = staticmethod(self.wrap(name, orig))
                    continue
                orig = getattr(mods[module], func)
                if func == "fm_witness":
                    replacement = self._counting_fm(self.wrap(name, orig))
                elif func == "default_seeds":
                    replacement = self._keeping_seeds(self.wrap(name, orig))
                else:
                    replacement = self.wrap(name, orig, keep_result=name in keep)
                self._replace_everywhere(orig, replacement)
        for func in JSONIO_FUNCTIONS:
            orig = getattr(mods["jsonio"], func)
            self._replace_everywhere(orig, self.wrap(f"jsonio.{func}", orig))
        add = structcr.SubspacePool.add
        self._patches.append((structcr.SubspacePool, "add", add))
        counters = self.counters

        def counting_add(pool, s, tag):
            accepted = add(pool, s, tag)
            counters["pool_add_attempts"] += 1
            counters["pool_add_accepted"] += accepted
            return accepted

        structcr.SubspacePool.add = counting_add

    def _counting_fm(self, traced):
        counters = self.counters

        def fm_witness(rows):
            result = traced(rows)
            counters["fm_calls"] += 1
            counters["fm_feasible"] += result is not None
            return result

        return fm_witness

    def _keeping_seeds(self, traced):
        seed_sets = self.seed_sets

        def default_seeds(n, acting):
            result = traced(n, acting)
            seed_sets.append((self.op, n, result, list(acting)))
            return result

        return default_seeds

    def uninstall(self):
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    def cache_snapshot(self) -> dict:
        """[hits, misses, currsize] of toruscr's lru caches."""
        snap = {}
        for func in CACHED:
            info = self._cached[func].cache_info()
            snap[func] = [info.hits, info.misses, info.currsize]
        return snap

    # -- counts after the op --------------------------------------------------

    def counts(self) -> dict:
        """Counters that need the library again (canonical seed lines), computed
        once the traced work is over, with the originals back in place."""
        from relcr.exactlin import Subspace

        c = dict(self.counters)
        c.update(seeds=0, seed_lines=0, acting=0, acting_distinct=0)
        for _, n, seeds, acting in self.seed_sets:
            c["seeds"] += len(seeds)
            c["seed_lines"] += len({Subspace.span(n, [v]) for v in seeds})
            c["acting"] += len(acting)
            c["acting_distinct"] += len(set(acting))
        c.update(pool_builds=0, pool_closed=0, pool_members=0, max_family_dim=0)
        # F_K is listed several times per check (each checker asks for it), so
        # the type counts take the largest listing of each op
        types: dict = {}
        for op, name, result in self.results:
            if name in ("toruscr.enumerate_flag_types", "toruscr.minimal_flags"):
                key = (op, name)
                types[key] = max(types.get(key, 0), len(result))
            elif name == "structcr.build_pool":
                c["pool_builds"] += 1
                c["pool_closed"] += bool(result.closed)
                c["pool_members"] += len(result.members)
            elif name == "structcr.stable_complements" and not result.is_empty:
                c["max_family_dim"] = max(c["max_family_dim"], result.dimension)
        c["flag_types"] = sum(v for (_, name), v in types.items() if name.endswith("enumerate_flag_types"))
        c["minimal_types"] = sum(v for (_, name), v in types.items() if name.endswith("minimal_flags"))
        now = self.cache_snapshot()
        c["cache"] = {f: [a - b for a, b in zip(now[f][:2], self.cache_base[f][:2])] + [now[f][2]] for f in CACHED}
        return c

    # -- serialisation ------------------------------------------------------

    def dump(self, path: str, extra: dict):
        """Write spans and counts: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "counts": self.counts(),
            **extra,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.op_id, self.outer, self.start, self.end):
                arr.tofile(fh)


def load(path: str):
    """Read a dump back as (header, Spans)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("H", "q", "I", "b", "d", "d"):
            a = array(code)
            a.fromfile(fh, n)
            arrays.append(a)
    return header, Spans(header["names"], *arrays)


class Spans:
    """Read-only view of recorded spans, shared by in-process and child dumps."""

    def __init__(self, names, name_id, parent, op_id, outer, start, end):
        self.names = names
        self.name_id, self.parent, self.op_id, self.outer = name_id, parent, op_id, outer
        self.start, self.end = start, end

    @staticmethod
    def of(tracer: Tracer) -> "Spans":
        return Spans(tracer.names, tracer.name_id, tracer.parent, tracer.op_id, tracer.outer,
                     tracer.start, tracer.end)

    def summarize(self, walls: dict, speeds: dict) -> dict:
        """Per-function calls and inclusive seconds, per-module inclusive and
        self seconds, and the untraced remainder per op.

        walls maps op id -> traced wall seconds of that op, and speeds maps it
        to the machine's slowness around the op: every duration is divided by
        it, as the benchmark's op times are.  Inclusive time
        counts a span only when no span of the same name encloses it; self time
        is a span's duration minus its direct children's, which nest properly
        in one thread.  Returns the totals and, per op, the gap between
        (module self times + remainder) and the wall, which must be ~0.
        """
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) / speeds[self.op_id[i]] for i in range(n)]
        walls = {op: wall / speeds[op] for op, wall in walls.items()}
        child = [0.0] * n
        root_cover: dict = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root_cover[self.op_id[i]] = root_cover.get(self.op_id[i], 0.0) + dur[i]
        module_of = [name.split(".", 1)[0] for name in self.names]
        calls: dict = {}
        incl: dict = {}
        module_incl: dict = {}
        self_by_module: dict = {}
        op_self: dict = {}
        worst_self = 0.0
        for i in range(n):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            if self.outer[i]:
                incl[name] = incl.get(name, 0.0) + dur[i]
            module = module_of[self.name_id[i]]
            p = self.parent[i]
            if p < 0 or module_of[self.name_id[p]] != module:
                module_incl[module] = module_incl.get(module, 0.0) + dur[i]
            own = dur[i] - child[i]
            worst_self = min(worst_self, own)
            self_by_module[module] = self_by_module.get(module, 0.0) + own
            op_self[self.op_id[i]] = op_self.get(self.op_id[i], 0.0) + own
        remainder = {op: wall - root_cover.get(op, 0.0) for op, wall in walls.items()}
        gaps = [abs(op_self.get(op, 0.0) + remainder[op] - wall) for op, wall in walls.items()]
        return {
            "calls": calls,
            "incl": incl,
            "module_incl": module_incl,
            "self": self_by_module,
            "remainder_s": sum(remainder.values()),
            "min_remainder_s": min(remainder.values(), default=0.0),
            "min_self_s": worst_self,
            "max_gap_s": max(gaps, default=0.0),
        }
