"""Spans around the calls into each caylex layer, installed from outside.

The tracer wraps the public entry points of every caylex module and puts
the wrapper in place of the original under every name that refers to it,
in the defining module, in every importing module (``dirichlet.build_ball``,
``geometry.build_ball``, ``verify.build_ball``, ``cli.build_ball``, ...) and
in the package namespace.  Inner-loop helpers such as
``dirichlet.energy_value`` are not wrapped, so their time stays in the
self time of the layer entry point that calls them.  ``GroupModel.multiply``
is counted at class level without a span, and the scipy ``spsolve`` that
``dirichlet`` calls is wrapped in ``scipy.sparse.linalg`` itself.

Spans are kept in memory as (name, start, end, parent) and written out by
``Tracer.write``.  Self time is a span's duration minus the time covered by
its direct children.  Nothing is patched until ``install`` is entered, and
everything is restored when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Public entry points per layer.  cli wraps only ``main``: the cmd_*
# functions are its own body, and their loops count as cli self time.
LAYER_FUNCTIONS = {
    "groups": ["make_group"],
    "cayley": ["build_ball", "vertex_boundary", "vertex_boundary_elements"],
    "funcspace": ["translate", "convolve_diff", "laplacian",
                  "dirichlet_seminorm_pow", "lp_norm", "value_at_identity",
                  "norms", "is_harmonic", "pairing", "harmonicity_via_pairing",
                  "cocycle_view", "cocycle_extend", "check_cocycle",
                  "truncate_min", "modulus", "power", "conjugate_index"],
    "dirichlet": ["solve", "harmonic_extension", "capacity",
                  "parabolicity_scan", "royden_split", "null_sequence",
                  "maximum_principle_check", "trend_verdict"],
    "geometry": ["isoperimetric_profile", "check_ISd", "sobolev_constant",
                 "sobolev_test_set", "sobolev_p2", "lemma61_check",
                 "mean_value_step", "random_nonnegative", "tent_function",
                 "indicator_identities", "is_equivalence_probe"],
    "verify": ["run_suites", "run_suite"],
    "cli": ["main"],
}


class Tracer:
    """In-memory span recorder with per-name totals, self times and calls."""

    def __init__(self):
        self.names = []                 # span name table
        self._name_id = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self._stack = []                # open span indices
        self._child = []                # child time of each open span
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()         # counters that carry no span

    def _open(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        self.starts.append(t0)
        return idx, t0

    def _close(self, name, idx, t0):
        t1 = perf_counter()
        d = t1 - t0
        self.ends[idx] = t1
        self._stack.pop()
        child = self._child.pop()
        if self._child:
            self._child[-1] += d
        self.total[name] += d
        self.self_time[name] += d - child
        self.calls[name] += 1

    def wrap(self, name, fn, after=None):
        """Span-recording wrapper.  ``name`` is a string or a function of
        the call arguments; ``after(result, args)`` may update counters."""
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if fixed else name(*args, **kwargs)
            idx, t0 = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, idx, t0)
            if after is not None:
                after(result, args)
            return result

        return traced

    def count(self, name, fn):
        """Count-only wrapper (no span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def root_time(self):
        """Total duration of the spans that have no parent."""
        return sum(self.ends[i] - self.starts[i]
                   for i in range(len(self.starts)) if self.parents[i] == -1)

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps({"name": self.names[self.name_ids[i]],
                                     "start": self.starts[i],
                                     "end": self.ends[i],
                                     "parent": self.parents[i]}) + "\n")


@contextlib.contextmanager
def install(tracer, caylex):
    """Patch caylex for the duration of the block; restore on exit."""
    modules = [caylex] + [getattr(caylex, layer) for layer in LAYER_FUNCTIONS]
    counts = tracer.counts

    def built(ball, args):
        counts["cayley.vertices_built"] += ball.n_vertices

    def solved(report, args):
        counts["dirichlet.descent.iterations"] += report.iterations

    def factored(x, args):
        counts["dirichlet.linear.unknowns"] += args[0].shape[0]
        counts["dirichlet.linear.nnz"] += args[0].nnz

    hooks = {"cayley.build_ball": built, "dirichlet.solve": solved}
    special = {"verify.run_suite":
               lambda name, seed: f"verify.suite.{name}"}
    wrappers = {}                       # id(original) -> wrapper
    for layer, names in LAYER_FUNCTIONS.items():
        mod = getattr(caylex, layer)
        for fname in names:
            key = f"{layer}.{fname}"
            fn = getattr(mod, fname)
            wrappers[id(fn)] = tracer.wrap(special.get(key, key), fn,
                                           hooks.get(key))
    restore = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, w)
        spla = caylex.dirichlet.spla
        restore.append((spla, "spsolve", spla.spsolve))
        spla.spsolve = tracer.wrap("dirichlet.spsolve", spla.spsolve,
                                   factored)
        for cls in caylex.groups.GroupModel.__subclasses__():
            if "multiply" in vars(cls):
                restore.append((cls, "multiply", vars(cls)["multiply"]))
                cls.multiply = tracer.count("groups.multiply.calls",
                                            vars(cls)["multiply"])
        yield tracer
    finally:
        for obj, attr, value in reversed(restore):
            setattr(obj, attr, value)
