"""Outside-in span tracing of the mirrorcrit layers.

`install` replaces each traced function or method of the `mirrorcrit`
modules with a wrapper that records a span (name, start, end, parent
span, op id) while an op is running.  Spans stay in memory; `dump`
writes them out once the run is over, and `layer_totals` derives each
layer's call counts and self time from them.  The program itself is not
edited: every wrapper lives here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

SNF = "lattice.snf"
MEASURE = "trace.measure"

# span name -> (module, owner class or None, attribute).  The wrapper is
# installed on the owner and on every other mirrorcrit module binding of
# the same function object.
TRACED = {
    SNF: ("lattice", None, "smith_normal_form"),
    "lattice.matmul": ("lattice", "IntMatrix", "__matmul__"),
    "lattice.solver_contains": ("lattice", "LatticeSolver", "contains"),
    "lattice.well_defined": ("lattice", "GroupHom", "is_well_defined"),
    "lattice.hom_kernel": ("lattice", "GroupHom", "kernel"),
    "lattice.hom_cokernel": ("lattice", "GroupHom", "cokernel"),
    "factorization.build_maps": ("factorization", None, "build_maps"),
    "factorization.verify_lattice_preservation": (
        "factorization", None, "verify_lattice_preservation"),
    "factorization.two_torsion_check": ("factorization", None, "two_torsion_check"),
    "factorization.identify_kernel_cokernel": (
        "factorization", None, "identify_kernel_cokernel"),
    "factorization.g_injection": ("factorization", None, "g_injection"),
    "factorization.snake_dimension_report": (
        "factorization", None, "snake_dimension_report"),
    "factorization.component_linking_cycles": (
        "factorization", None, "component_linking_cycles"),
    "factorization.main_theorem_verdict": ("factorization", None, "main_theorem_verdict"),
    "modp.is_involution": ("modp", "ModpMatrix", "is_involution"),
    "modp.kernel": ("modp", None, "kernel"),
    "modp.intersection": ("modp", "ModpSubspace", "intersection"),
    "modp.fixed_subspace": ("modp", None, "fixed_subspace"),
    "modp.from_rows": ("modp", "ModpSubspace", "from_rows"),
    "critical.forest_count": ("critical", None, "forest_count"),
    "critical.critical_group_via_laplacian": (
        "critical", "AdjointPair", "critical_group_via_laplacian"),
    "critical.duality_order_check": ("critical", None, "duality_order_check"),
    "critical.adjoint_pair": ("critical", "AdjointPair", "__init__"),
    "critical.bicycle_bruteforce": ("critical", None, "bicycle_masks_bruteforce"),
    "critical.forest_bruteforce": ("critical", None, "count_maximal_forests_bruteforce"),
    "graphfile.parse": ("graphfile", None, "parse"),
    "graphs.validate_structural": ("graphs", "SymmetricGraph", "validate_structural"),
    "graphs.canonical_orientation": ("graphs", "SymmetricGraph", "canonical_orientation"),
    "graphs.decompose": ("graphs", "SymmetricGraph", "decompose"),
    "cli.report_document": ("cli", None, "report_document"),
    "cli.main": ("cli", None, "main"),
}

# generator methods: counted per element yielded, without a span, since
# the consumer's work runs between the yields
COUNTED = {
    "modp.enumerate.elements": ("modp", "ModpSubspace", "enumerate_elements"),
}


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _snf_sizes(args, result):
    """(rows, cols, diagonal bits, witness bits) of one SNF call."""
    m, n = result.matrix.shape
    diag_bits = max((abs(d).bit_length() for d in result.diagonal), default=0)
    witness_bits = max(
        _bits(w.rows) for w in (result.left, result.right, result.left_inv, result.right_inv)
    )
    return m, n, diag_bits, witness_bits


def _bicycle_subsets(args, result):
    g = args[0]
    return 2**g.n_vertices + 2**g.n_edges


def _forest_subsets(args, result):
    return 2 ** args[0].n_edges


# measured after the span closes, inside a `trace.measure` span so the
# measuring is charged to the tracer and not to the caller's self time
EXTRAS = {
    SNF: _snf_sizes,
    "critical.bicycle_bruteforce": _bicycle_subsets,
    "critical.forest_bruteforce": _forest_subsets,
}


class Tracer:
    """In-memory span recorder.  Spans are recorded only while `op` is set."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent index or -1, op id]
        self.extras = {}  # span index -> tuple from EXTRAS
        self.counters = Counter()
        self.missing = []
        self.op = None
        self._stack = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name_id, 0.0, 0.0, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = self.name_id(name)
        measure_id = self.name_id(MEASURE)
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self._open(name_id)
            index = len(self.spans) - 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                measure = self._open(measure_id)
                try:
                    self.extras[index] = extra(args, result)
                finally:
                    self._close(measure)
            return result

        return traced

    def wrap_counted(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.op is not None:
                    self.counters[name] += 1
                yield item

        return counted

    def dump(self):
        return {
            "names": self.names,
            "spans": self.spans,
            "extras": {str(k): v for k, v in self.extras.items()},
            "counters": dict(self.counters),
            "missing": self.missing,
        }


def _mirrorcrit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mirrorcrit" or name.startswith("mirrorcrit."))]


def _raw(obj):
    """The plain function behind a classmethod or staticmethod."""
    return obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj


class Patch:
    """The module and class bindings that `install` rebinds to wrappers."""

    def __init__(self):
        self.bindings = []  # (owner, attribute, original value, wrapper value)

    def apply(self):
        for owner, attr, _, new in self.bindings:
            setattr(owner, attr, new)

    def restore(self):
        for owner, attr, old, _ in self.bindings:
            setattr(owner, attr, old)


def install(tracer):
    """Wrap every traced function, rebind each module reference to it,
    and check that none is left unwrapped.  Returns the applied Patch.

    Names that no longer exist are listed in `tracer.missing` and
    reported as zero.
    """
    patch = Patch()
    wrapped = {}  # id(original) -> (original, wrapper)
    for table, make in ((TRACED, tracer.wrap), (COUNTED, tracer.wrap_counted)):
        for name, (module_name, owner_name, attr) in table.items():
            module = importlib.import_module(f"mirrorcrit.{module_name}")
            owner = module if owner_name is None else getattr(module, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                tracer.missing.append(name)
                continue
            fn = _raw(raw)
            wrapper = make(name, fn)
            wrapped[id(fn)] = (fn, wrapper)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(wrapper)
            patch.bindings.append((owner, attr, raw, wrapper))

    bound = {(id(owner), attr) for owner, attr, _, _ in patch.bindings}
    for module in _mirrorcrit_modules():
        for attr, value in vars(module).items():
            if id(value) in wrapped and (id(module), attr) not in bound:
                patch.bindings.append((module, attr, value, wrapped[id(value)][1]))
    patch.apply()
    check_coverage(wrapped)
    return patch


def check_coverage(wrapped):
    """Fail if any mirrorcrit module or class still refers to an original.

    Looks at module globals, class attributes, and one level into
    module-level containers (tables of functions).
    """
    leaks = []

    def visit(where, value):
        if id(_raw(value)) in wrapped:
            leaks.append(where)

    for module in _mirrorcrit_modules():
        for attr, value in vars(module).items():
            where = f"{module.__name__}.{attr}"
            visit(where, value)
            if isinstance(value, dict):
                for k, v in value.items():
                    visit(f"{where}[{k!r}]", v)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for i, v in enumerate(value):
                    visit(f"{where}[{i}]", v)
            elif inspect.isclass(value) and value.__module__.startswith("mirrorcrit"):
                for cattr, cvalue in vars(value).items():
                    visit(f"{where}.{cattr}", cvalue)
    if leaks:
        raise RuntimeError("unwrapped references to traced functions: " + ", ".join(leaks))


def layer_totals(trace, ops):
    """Per-layer totals, the time split and the span problems of a trace.

    `ops` maps the id of every traced op to its (start, end).  Self time
    is a span's duration minus the durations of its direct children.
    Returns (totals, split, problems): totals maps every per-layer metric
    name to its sum (or maximum, for the `max_` sizes) over all ops;
    split maps each span name, plus `outside spans`, to its self time;
    problems maps an op id to the first thing wrong with its spans: a
    span outside its parent's interval (its op's, for a top-level span),
    a span overlapping its previous sibling, a negative self time, or
    top-level spans longer than their op.
    """
    names = trace["names"]
    spans = trace["spans"]
    problems = {}
    child_time = [0.0] * len(spans)
    top_level = defaultdict(float)
    sibling_end = {}  # parent span index, or (op,) for top-level spans
    for name_id, start, end, parent, op in spans:
        if parent >= 0:
            _, lo, hi, _, parent_op = spans[parent]
            child_time[parent] += end - start
            key = parent
        else:
            (lo, hi), parent_op = ops[op], op
            top_level[op] += end - start
            key = (op,)
        if parent_op != op or not lo <= start <= end <= hi:
            problems.setdefault(op, f"span {names[name_id]} [{start}, {end}] of op {op} "
                                    f"outside [{lo}, {hi}] of op {parent_op}")
        if start < sibling_end.get(key, start):
            problems.setdefault(op, f"span {names[name_id]} of op {op} starts before "
                                    f"its previous sibling ends")
        sibling_end[key] = end
    calls = Counter()
    self_s = defaultdict(float)
    for i, (name_id, start, end, _parent, op) in enumerate(spans):
        own = (end - start) - child_time[i]
        if own < -1e-9:
            problems.setdefault(op, f"span {names[name_id]} has self time {own} s")
        calls[names[name_id]] += 1
        self_s[names[name_id]] += own

    split = dict(self_s)
    split["outside spans"] = 0.0
    for op, (start, end) in ops.items():
        outside = (end - start) - top_level[op]
        if outside < 0:
            problems.setdefault(op, f"top-level spans take {top_level[op]} s "
                                    f"of an op of {end - start} s")
        split["outside spans"] += outside

    totals = {}
    for name in TRACED:
        totals[f"{name}.calls"] = calls[name]
        totals[f"{name}.self_s"] = self_s[name]
    for name in COUNTED:
        totals[name] = trace["counters"].get(name, 0)

    extras = defaultdict(list)
    for index, value in trace["extras"].items():
        extras[names[spans[int(index)][0]]].append(value)
    snf = extras[SNF]
    totals[f"{SNF}.entries"] = sum(m * n for m, n, _, _ in snf)
    totals[f"{SNF}.max_rows"] = max((m for m, _, _, _ in snf), default=0)
    totals[f"{SNF}.max_cols"] = max((n for _, n, _, _ in snf), default=0)
    totals[f"{SNF}.max_diag_bits"] = max((d for _, _, d, _ in snf), default=0)
    totals[f"{SNF}.max_witness_bits"] = max((w for _, _, _, w in snf), default=0)
    for name in ("critical.bicycle_bruteforce", "critical.forest_bruteforce"):
        totals[f"{name}.subsets"] = sum(extras[name])
    return totals, split, problems
