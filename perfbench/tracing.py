"""Per-layer tracing from outside the engine.

The tracer replaces each public function of the driftlab modules with a
wrapper that records a span (name, start, end, parent span) and, for a few
functions, facts about the arguments or the result.  Modules import engine
functions by name, so a wrapper is installed on every module attribute that
holds the function, not only on the defining module; the attribute a call
goes through is also how LPs are tagged by caller (`viability.solve_lp` is
the connector search, `oracle.solve_lp` the global oracle).  No engine
source is touched: `install` and `uninstall` only swap module attributes.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from time import perf_counter

LAYERS = ("rational", "linalg", "linfeas", "basis", "calculus", "representation",
          "enlargement", "viability", "oracle", "event_kernels", "models",
          "serialize", "verify", "cli")

# LP call sites, named by the module whose attribute the call goes through.
LP_SITES = {"viability": "connector", "oracle": "oracle"}

# Functions so small and hot that a timed span would mostly measure the
# wrapper: only their calls are counted.
COUNT_ONLY = {"linalg.vec_dot", "linalg.mat_vec", "rational.rat", "rational.rat_str"}

# Metrics that must repeat exactly across traced runs with the same seed.
DETERMINISTIC_SUFFIXES = (".calls", ".rows_max", ".rows_p50", ".cols_max",
                          ".density_mean", ".nonzero_exits", ".dim_max",
                          ".infeasible_ratio", ".found_ratio", ".feasible_ratio")
DETERMINISTIC = ("rational.max_den_bits",)


def is_deterministic(metric: str) -> bool:
    return metric in DETERMINISTIC or metric.endswith(DETERMINISTIC_SUFFIXES)


def _den_bits(values) -> int:
    return max((v.denominator.bit_length() for v in values), default=0)


def _process_den_bits(X) -> int:
    return max((_den_bits(x) for row in X.values for x in row), default=0)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    Spans live in four parallel lists (name id, start, end, parent index)
    until `write_spans` is called; `functions` derives inclusive and self
    time from the parent links.
    """

    def __init__(self):
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self._span_name: list[int] = []
        self._span_start: list[float] = []
        self._span_end: list[float] = []
        self._span_parent: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.lp: dict[str, dict] = {}
        self.outcomes: dict[str, list] = {}  # name -> [calls, true results]
        self.max_den_bits = 0
        self.dim_max = 0
        self.nonzero_exits = 0
        self._sites = [(owner, attr, fn, self._wrap(fn, name))
                       for owner, attr, fn, name in self._collect_sites()]

    # --- installation ---

    @staticmethod
    def _collect_sites():
        """(owner, attribute, original, span name) for every wrapped attribute."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "driftlab" or name.startswith("driftlab.")}
        sites = []
        for mod_name, mod in sorted(mods.items()):
            owner_layer = mod_name.split(".")[-1]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.split(".")[-1]
                if not obj.__module__.startswith("driftlab.") or layer not in LAYERS:
                    continue
                name = f"{layer}.{obj.__name__}"
                if name == "linfeas.solve_lp" and owner_layer in LP_SITES:
                    name += "." + LP_SITES[owner_layer]
                sites.append((mod, attr, obj, name))
        basis = mods["driftlab.basis"]
        sites.append((basis.Process, "jump", basis.Process.jump, "basis.Process.jump"))
        return sites

    def install(self) -> None:
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._sites:
            setattr(owner, attr, fn)

    def _wrap(self, fn, name):
        if name in COUNT_ONLY or name == "basis.Process.jump":
            counts = self.counts
            counts.setdefault(name, 0)

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        if name not in self._name_id:
            self._name_id[name] = len(self._names)
            self._names.append(name)
        nid = self._name_id[name]
        after = self._after_hook(name)
        stack, s_name, s_start = self._stack, self._span_name, self._span_start
        s_end, s_parent = self._span_end, self._span_parent

        def traced(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                s_start[sid] = t0
                s_end[sid] = t1
            if after is not None:
                after(args, out)
            return out
        return traced

    # --- facts taken at the boundary ---

    def _after_hook(self, name):
        if name.startswith("linfeas.solve_lp"):
            stats = self.lp.setdefault(name, {"rows": [], "cols": [], "density": [],
                                              "infeasible": 0})

            def lp_facts(args, res):
                c, A_eq, _, A_ub, _ = args
                rows, cols = len(A_eq) + len(A_ub), len(c)
                nnz = sum(1 for row in A_eq for a in row if a) + \
                    sum(1 for row in A_ub for a in row if a)
                stats["rows"].append(rows)
                stats["cols"].append(cols)
                stats["density"].append(nnz / (rows * cols) if rows * cols else 0.0)
                if res.status == "infeasible":
                    stats["infeasible"] += 1
                vals = list(res.x or ()) + list(res.dual_eq or ()) + list(res.dual_ub or ())
                if res.value is not None:
                    vals.append(res.value)
                self.max_den_bits = max(self.max_den_bits, _den_bits(vals))
            return lp_facts
        if name == "viability.find_structure_connector":
            return lambda args, res: self._count_outcome(name, res.found)
        if name == "oracle.lp_deflator_oracle":
            def oracle_facts(args, res):
                self._count_outcome(name, res.feasible)
                if res.deflator is not None:
                    self.max_den_bits = max(self.max_den_bits,
                                            _process_den_bits(res.deflator))
            return oracle_facts
        if name == "viability.deflator_from_connector":
            def deflator_facts(args, Z):
                self.max_den_bits = max(self.max_den_bits, _process_den_bits(Z))
            return deflator_facts
        if name == "linalg.min_norm_solve":
            def dim_facts(args, _):
                V = args[0]
                self.dim_max = max(self.dim_max, len(V), len(V[0]) if V else 0)
            return dim_facts
        if name == "cli.main":
            def exit_facts(args, code):
                if code != 0:
                    self.nonzero_exits += 1
            return exit_facts
        return None

    def _count_outcome(self, name, ok) -> None:
        tally = self.outcomes.setdefault(name, [0, 0])
        tally[0] += 1
        tally[1] += bool(ok)

    # --- results ---

    def functions(self) -> dict:
        """Per span name: calls, inclusive time and self time (minus child spans)."""
        nspans = len(self._span_name)
        child = [0.0] * nspans
        for sid in range(nspans):
            parent = self._span_parent[sid]
            if parent >= 0:
                child[parent] += self._span_end[sid] - self._span_start[sid]
        out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0} for name in self._names}
        for sid in range(nspans):
            rec = out[self._names[self._span_name[sid]]]
            dur = self._span_end[sid] - self._span_start[sid]
            rec["calls"] += 1
            rec["time_s"] += dur
            rec["self_s"] += dur - child[sid]
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        return out

    def metrics(self, untraced_ips: float, traced_ips: float) -> dict:
        """Every per-layer metric the tracer produces, by name."""
        values = {}
        for name, rec in self.functions().items():
            for key, val in rec.items():
                values[f"{name}.{key}"] = val
        # Shapes and ratios read 0 where no call was made; every LP site
        # has its entry in self.lp from the moment it is wrapped.
        for name, st in self.lp.items():
            rows = st["rows"]
            values[name + ".rows_max"] = max(rows, default=0)
            values[name + ".rows_p50"] = statistics.median(rows) if rows else 0
            values[name + ".cols_max"] = max(st["cols"], default=0)
            values[name + ".density_mean"] = statistics.fmean(st["density"]) if rows else 0
            values[name + ".infeasible_ratio"] = st["infeasible"] / len(rows) if rows else 0
        for name, key in (("viability.find_structure_connector", "found_ratio"),
                          ("oracle.lp_deflator_oracle", "feasible_ratio")):
            calls, true = self.outcomes.get(name, (0, 0))
            values[f"{name}.{key}"] = true / calls if calls else 0
        values["rational.max_den_bits"] = self.max_den_bits
        values["linalg.min_norm_solve.dim_max"] = self.dim_max
        values["cli.main.nonzero_exits"] = self.nonzero_exits
        values["trace.untraced_instances_per_s"] = untraced_ips
        values["trace.traced_instances_per_s"] = traced_ips
        values["trace.traced_over_untraced"] = traced_ips / untraced_ips
        return values

    def write_spans(self, path: str) -> int:
        """One JSON array per line: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self._span_name)):
                fh.write(json.dumps([self._names[self._span_name[sid]],
                                     self._span_start[sid], self._span_end[sid],
                                     self._span_parent[sid]]) + "\n")
        return len(self._span_name)
