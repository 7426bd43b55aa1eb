"""Per-layer tracing for one workload pass.

Installing a Tracer replaces public functions and methods of the metaice
modules with timing wrappers; nothing in the package itself changes.  A
wrapper on a module attribute also catches the module's own calls, since
globals are resolved at call time, but a name imported into another module
is a separate binding and is wrapped at that import site too.

Every wrapped call updates an aggregate (call count, busy and self time, and any
counters its hook adds).  Self time is the call's duration minus the
time of the wrapped calls it made.  Boundary calls, the ones made a few
hundred times per pass rather than millions, also record a span
(name, start, end, parent span, run id) kept in memory and written out
when the pass ends.  The layer of a statistic is the module named by
the first part of its name.
"""

import collections
import json
import time

from metaice import cli, crystal, lattice, metaplectic, qgroup, rvertex, scalar


def _terms(x):
    if isinstance(x, scalar.Scalar):
        return len(x.terms)
    return 1 if x else 0


def _count_term_pairs(stat, args, result):
    if result is not NotImplemented:
        stat.counts["term_pairs"] += _terms(args[0]) * _terms(args[1])


def _count_zero_weights(stat, args, result):
    stat.counts["zero"] += result.is_zero()


def _count_nodes(stat, args, result):
    stat.counts["nodes"] += len(result)


def _count_boundaries(stat, args, result):
    stat.counts["boundaries"] += result["boundaries"]
    if "inhabited" in result:
        stat.counts["rtt_boundaries"] += result["boundaries"]
        stat.counts["inhabited"] += result["inhabited"]


def _count_bytes(stat, args, result):
    stat.counts["bytes"] += len(result.encode())


# (owner, attribute names, statistic, records spans, hook).  Statistics
# that no metric reports (scalar.construct, qgroup.build, ...) are there
# so that their time counts as their own layer's, not their caller's.
HOOKS = (
    (scalar.Scalar, ("__mul__", "__rmul__"), "scalar.mul", False, _count_term_pairs),
    (scalar.Scalar, ("__add__", "__radd__"), "scalar.add", False, None),
    (scalar.Scalar, ("__sub__", "__rsub__", "__neg__", "__pow__", "__eq__",
                     "inverse", "permute_z"), "scalar.other", False, None),
    (scalar.Frac, ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__truediv__", "__eq__",
                   "permute_z"), "scalar.frac", False, None),
    (scalar, ("integer", "one", "zero", "v_pow", "z_pow", "z_mono",
              "gauss_pow", "gauss", "gauss_eval"), "scalar.construct", False, None),
    (scalar, ("gauss_normalize",), "scalar.gauss_normalize", False, None),
    (scalar, ("frac_eq",), "scalar.frac_eq", False, None),
    (scalar, ("eval_scalar_mod", "eval_frac_mod"), "scalar.eval_mod", False, None),
    (lattice, ("partition_by_class",), "lattice.partition_by_class", True, None),
    (lattice, ("partition_function",), "lattice.partition_function", True, None),
    (rvertex, ("partition_function",), "lattice.partition_function", True, None),
    (lattice, ("boltzmann_weight",), "lattice.boltzmann_weight", False, None),
    (lattice, ("vertex_weight",), "lattice.vertex_weight", False, None),
    (rvertex, ("vertex_weight",), "lattice.vertex_weight", False, None),
    (lattice, ("enumerate_states",), "lattice.enumerate_states", True, None),
    (crystal, ("crystal_enumerate",), "crystal.crystal_enumerate", True, _count_nodes),
    (crystal, ("root_data",), "crystal.root_data", False, None),
    (crystal, ("node_weight",), "crystal.node_weight", False, _count_zero_weights),
    (crystal, ("node_to_gt", "gt_to_node", "gt_to_ice", "ice_to_gt",
               "gt_bijections"), "crystal.bijection", False, None),
    (crystal, ("i_lambda",), "crystal.i_lambda", True, None),
    (crystal, ("coset_piece",), "crystal.coset_piece", True, None),
    (crystal, ("verify_thm82",), "crystal.verify_thm82", True, None),
    (rvertex, ("r_weight",), "rvertex.r_weight", False, None),
    (rvertex, ("grid_vertex_weight",), "rvertex.grid_vertex_weight", False, None),
    (rvertex, ("check_rtt",), "rvertex.check_rtt", False, None),
    (rvertex, ("check_rrr", "check_unitarity"), "rvertex.check_braid", False, None),
    (rvertex, ("rtt_scan", "rrr_scan", "unitarity_scan"), "rvertex.scan", True,
     _count_boundaries),
    (rvertex, ("appendix_regression",), "rvertex.appendix_regression", True, None),
    (rvertex, ("train_functional_equation",), "rvertex.train_functional_equation",
     True, None),
    (qgroup, ("check_graded_ybe",), "qgroup.check_graded_ybe", True, None),
    (qgroup, ("mat_mul",), "qgroup.mat_mul", False, None),
    (qgroup, ("mat_eq",), "qgroup.mat_eq", False, None),
    (qgroup, ("kojima_r", "drinfeld_twist", "signature_adjust", "ice_r_matrix"),
     "qgroup.build", False, None),
    (qgroup, ("compare_to_ice_r",), "qgroup.compare_to_ice_r", True, None),
    (metaplectic, ("lattice_and_cosets",), "metaplectic.lattice_and_cosets", True, None),
    (metaplectic, ("tau",), "metaplectic.tau", False, None),
    (metaplectic, ("prop71_check",), "metaplectic.prop71_check", False, None),
    (metaplectic, ("theorem12_diagram",), "metaplectic.theorem12_diagram", False, None),
    (cli, ("main",), "cli.main", True, None),
    (cli, ("render",), "cli.render", True, _count_bytes),
)

LAYERS = ("scalar", "lattice", "crystal", "rvertex", "qgroup", "metaplectic", "cli")


class Stat:
    """Aggregate for one statistic: calls, busy and self time, hook counters."""

    __slots__ = ["name", "calls", "busy_s", "self_s", "counts"]

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.counts = collections.Counter()


class Tracer:
    """Timing wrappers, aggregates and spans for one pass in one process."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.stats = {}
        self.spans = []
        self._child = [0.0]     # time of finished wrapped calls, per open frame
        self._open = [None]     # ids of open spans, innermost last
        self._enum_states = 0

    def wrap(self, fn, name, span=False, hook=None):
        """Return fn wrapped so that its calls update the statistic name."""
        stat = self.stats.setdefault(name, Stat(name))
        child, opened, spans = self._child, self._open, self.spans
        run_id, clock = self.run_id, time.perf_counter

        def traced(*args, **kw):
            child.append(0.0)
            if span:
                sid = len(spans)
                spans.append(None)
                opened.append(sid)
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                took = end - start
                stat.calls += 1
                stat.busy_s += took
                stat.self_s += took - child.pop()
                child[-1] += took
                if span:
                    opened.pop()
                    spans[sid] = (name, start, end, opened[-1], run_id)
            if hook is not None:
                hook(stat, args, result)
            return result

        return traced

    def install(self):
        for owner, attrs, name, span, hook in HOOKS:
            for attr in attrs:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, span, hook))
        self._install_enumeration_counter()

    def _install_enumeration_counter(self):
        # _enumerate is the lru_cache behind every grid enumeration; count
        # the states its misses produce without timing it, so enumeration
        # time stays with the public caller
        cached = self._enum_cache = lattice._enumerate

        def counted(*args):
            misses = cached.cache_info().misses
            states = cached(*args)
            if cached.cache_info().misses != misses:
                self._enum_states += len(states)
            return states

        lattice._enumerate = counted

    def metrics(self):
        """Calls and self time of every statistic, self time of every
        layer, and the counters and ratios named in layers.json."""
        get = lambda name: self.stats.get(name) or Stat(name)
        ratio = lambda num, den: num / den if den else 0.0
        out = {}
        for stat in self.stats.values():
            out[stat.name + ".calls"] = stat.calls
            out[stat.name + ".self_s"] = stat.self_s
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(stat.self_s for stat in self.stats.values()
                                         if stat.name.split(".")[0] == layer)
        cache = self._enum_cache.cache_info()
        r_weight = get("rvertex.r_weight")
        scan = get("rvertex.scan")
        node_weight = get("crystal.node_weight")
        out["scalar.mul.term_pairs"] = get("scalar.mul").counts["term_pairs"]
        out["lattice.states"] = self._enum_states
        out["lattice.enum_cache.hit_ratio"] = ratio(cache.hits, cache.hits + cache.misses)
        out["crystal.nodes"] = get("crystal.crystal_enumerate").counts["nodes"]
        out["crystal.node_weight.zero_ratio"] = ratio(node_weight.counts["zero"],
                                                      node_weight.calls)
        out["rvertex.r_weight.memo_hit_ratio"] = ratio(
            r_weight.calls - len(rvertex._R_MEMO), r_weight.calls)
        out["rvertex.boundaries"] = scan.counts["boundaries"]
        out["rvertex.inhabited_ratio"] = ratio(scan.counts["inhabited"],
                                               scan.counts["rtt_boundaries"])
        out["cli.render.bytes"] = get("cli.render").counts["bytes"]
        return out

    def write(self, path, extra):
        """Write spans and raw aggregates, with the caller's extra fields."""
        doc = dict(extra)
        doc["spans"] = [{"name": name, "start": start, "end": end,
                         "parent": parent, "run": run}
                        for name, start, end, parent, run in self.spans]
        doc["stats"] = {stat.name: {"calls": stat.calls, "busy_s": stat.busy_s,
                                    "self_s": stat.self_s,
                                    **stat.counts}
                        for stat in self.stats.values()}
        with open(path, "w") as out:
            json.dump(doc, out, indent=1, sort_keys=True)
