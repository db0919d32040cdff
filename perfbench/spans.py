"""In-memory span tracing of the library's layers, from outside the library.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it began (its parent), the root span it belongs to,
and a per-call id.  Spans stay in memory until the run ends.

Wrappers go on the names the *calling* module binds: `hierarchy`
from-imports `cf_split`, `constrained_energymin`, `relax_sweep`, ... and
`experiments` from-imports `setup`, so wrapping the defining module alone
would miss those calls.  `hierarchy.vcycle` recurses through its module
global, so its wrapper yields one span per level.
"""

import functools
import time

from tracemin_amg import energymin, experiments, hierarchy, problems


def _level(args, result):
    return {"level": args[1]}


def _slots(args, result):
    return {"slots": result.nnz}


def _emin(args, result):
    return {"iters": len(result.residuals) - 1, "slots": result.W.nnz}


# (binding module, bound name, span name, attribute hook).  Each row is a
# call path the benchmark reaches; names no path reaches are left out.
BINDINGS = [
    (problems, "assemble", "problems.assemble", None),
    (experiments, "assemble", "problems.assemble", None),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "smoothed_constant", "experiments.smoothed_constant", None),
    (experiments, "measure_report", "experiments.measure_report", None),
    (experiments, "setup", "hierarchy.setup", None),
    (experiments, "relax_sweep", "relaxation.relax_sweep", None),
    (experiments, "auto_jacobi_omega", "relaxation.auto_jacobi_omega", None),
    (hierarchy, "setup", "hierarchy.setup", None),
    (hierarchy, "solve", "hierarchy.solve", None),
    (hierarchy, "vcycle", "hierarchy.vcycle", _level),
    (hierarchy, "galerkin_product", "hierarchy.galerkin_product", None),
    (hierarchy, "cho_factor", "hierarchy.coarse_factor", None),
    (hierarchy, "cho_solve", "hierarchy.coarse_solve", None),
    (hierarchy, "strength_graph", "coarsening.strength_graph", None),
    (hierarchy, "cf_split", "coarsening.cf_split", None),
    (hierarchy, "pattern_distance_k", "coarsening.pattern_distance_k", _slots),
    (hierarchy, "prepare_candidates", "energymin.prepare_candidates", None),
    (hierarchy, "constrained_energymin", "energymin.constrained_energymin", _emin),
    (hierarchy, "weighted_energymin", "energymin.weighted_energymin", _emin),
    (energymin, "build_weighted_system", "energymin.build_weighted_system", None),
    (energymin, "initial_guess", "energymin.initial_guess", None),
    (energymin, "pcg_frobenius", "energymin.pcg_frobenius", None),
    (hierarchy, "relax_sweep", "relaxation.relax_sweep", None),
    (hierarchy, "auto_jacobi_omega", "relaxation.auto_jacobi_omega", None),
]


class Tracer:
    """Records spans in memory and patches module bindings while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = sid if parent is None else self.spans[parent]["root"]
        span = {"id": sid, "name": name, "parent": parent, "root": root,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(sid)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def run(self, name, fn):
        """Call fn with the wrappers installed, under a root span that
        starts a new trace; returns fn's result and the root's id."""
        self.install()
        span = self._open(name)
        try:
            return fn(), span["id"]
        finally:
            self._close(span)
            self.uninstall()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span["attrs"].update(hook(args, result))
            return result
        return traced

    def install(self):
        for module, attr, name, hook in BINDINGS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans):
    """Self time of each span: its duration minus the part of that
    interval its children cover.  Returns a list indexed by span id."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def layer_totals(spans, root_id):
    """Per-name totals over the spans of one root.

    incl and calls count only the outermost span of each name, so the
    recursive V-cycle is counted once per fine-level call; self sums the
    self time of every span of the name.  vcycle_self maps a level to the
    self time of its V-cycle spans.
    """
    selfs = self_times(spans)
    mine = [s for s in spans if s["root"] == root_id and s["id"] != root_id]
    incl, calls, own, vcycle_self = {}, {}, {}, {}
    for span in mine:
        name = span["name"]
        own[name] = own.get(name, 0.0) + selfs[span["id"]]
        if name == "hierarchy.vcycle":
            level = span["attrs"]["level"]
            vcycle_self[level] = vcycle_self.get(level, 0.0) + selfs[span["id"]]
        parent = span["parent"]
        nested = False
        while parent is not None:
            if spans[parent]["name"] == name:
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            incl[name] = incl.get(name, 0.0) + span["end"] - span["start"]
            calls[name] = calls.get(name, 0) + 1
    return {"incl": incl, "calls": calls, "self": own,
            "vcycle_self": vcycle_self,
            "attrs": [(s["name"], s["attrs"]) for s in mine if s["attrs"]]}


# per-layer metric -> span names whose inclusive times and calls it sums
TIMED_LAYERS = {
    "problems.assemble": ["problems.assemble"],
    "experiments.smoothed_constant": ["experiments.smoothed_constant"],
    "experiments.measure_report": ["experiments.measure_report"],
    "coarsening.strength_graph": ["coarsening.strength_graph"],
    "coarsening.cf_split": ["coarsening.cf_split"],
    "coarsening.pattern_distance_k": ["coarsening.pattern_distance_k"],
    "energymin.prepare_candidates": ["energymin.prepare_candidates"],
    "energymin.minimize": ["energymin.constrained_energymin",
                           "energymin.weighted_energymin"],
    "hierarchy.setup": ["hierarchy.setup"],
    "hierarchy.galerkin": ["hierarchy.galerkin_product"],
    "hierarchy.coarse_factor": ["hierarchy.coarse_factor"],
    "hierarchy.solve": ["hierarchy.solve"],
    "hierarchy.vcycle": ["hierarchy.vcycle"],
    "hierarchy.coarse_solve": ["hierarchy.coarse_solve"],
    "relaxation.relax_sweep": ["relaxation.relax_sweep"],
    "relaxation.auto_jacobi_omega": ["relaxation.auto_jacobi_omega"],
}
VCYCLE_LEVELS = 4  # L0..L3 on their own, deeper levels summed as L4plus


def rep_layer_metrics(totals):
    """Per-layer metric values of one rep (no units)."""
    out = {}
    for metric, names in TIMED_LAYERS.items():
        out[metric + "_s"] = sum(totals["incl"].get(n, 0.0) for n in names)
        out[metric + "_calls"] = sum(totals["calls"].get(n, 0) for n in names)
    out["hierarchy.setup_self_s"] = totals["self"].get("hierarchy.setup", 0.0)
    for level in range(VCYCLE_LEVELS):
        out[f"hierarchy.vcycle.L{level}.self_s"] = totals["vcycle_self"].get(level, 0.0)
    out[f"hierarchy.vcycle.L{VCYCLE_LEVELS}plus.self_s"] = sum(
        t for level, t in totals["vcycle_self"].items() if level >= VCYCLE_LEVELS)

    slots = iters_slots = 0
    for name, attrs in totals["attrs"]:
        if name == "coarsening.pattern_distance_k":
            slots += attrs["slots"]
        elif name in ("energymin.constrained_energymin", "energymin.weighted_energymin"):
            iters_slots += attrs["slots"] * (attrs["iters"] + 1)
    out["coarsening.pattern_slots"] = slots
    # busy time over slot-applications: one operator apply per CG iterate
    out["energymin.ns_per_slot_apply"] = (
        1e9 * out["energymin.minimize_s"] / iters_slots if iters_slots else 0.0)
    return out


def table(spans, root_ids):
    """Rows (name, calls, inclusive s, self s) summed over the given roots,
    for the human-readable layer table."""
    rows = {}
    for root_id in root_ids:
        totals = layer_totals(spans, root_id)
        for name in set(totals["self"]):
            calls, incl, own = rows.get(name, (0, 0.0, 0.0))
            rows[name] = (calls + totals["calls"].get(name, 0),
                          incl + totals["incl"].get(name, 0.0),
                          own + totals["self"][name])
    return sorted(((n,) + v for n, v in rows.items()), key=lambda r: -r[2])
