"""Layer tracing from outside the library.

The tracer wraps public functions and methods of the relosplit modules and
records one span per call: name, start, end, parent span and instance id.
Spans are kept in memory in flat integer arrays and written out once, when
the run ends. Self time is a span's duration minus the time its child spans
cover; calls and self time are aggregated per span name as the spans close,
so the counts come from the same wrappers as the timings.

A function imported into several modules (``as_vector`` lives in
``linalg``, ``operators``, ``dr2`` and ``problems``) is rebound under every
module-level name that refers to the same function object, so no call path
escapes the wrapper. ``uninstall`` restores every original binding.
"""

import functools
import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np


def _functions(rs):
    """(module, attribute, span name) of every wrapped module-level function."""
    return [
        (rs.linalg, "as_vector", "linalg.as_vector"),
        (rs.linalg, "solve_linear", "linalg.solve_linear"),
        (rs.linalg, "kron_apply", "linalg.kron_apply"),
        (rs.graphs, "graph_z_sweep", "graphs.sweep"),
        (rs.graphs, "relocation_vector_e", "graphs.relocation_vector_e"),
        (rs.graphs, "graph_relocated_run", "graphs.run"),
        (rs.graphs, "build_graph", "graphs.build_graph"),
        (rs.malitsky_tam, "algorithm2_run", "malitsky_tam.run"),
        (rs.dr2, "algorithm1_run", "dr2.run"),
        (rs.problems, "make_problem", "problems.make_problem"),
        (rs.problems, "solution_residual", "problems.solution_residual"),
        (rs.cli, "parse_config", "cli.parse_config"),
        (rs.cli, "execute_experiment", "cli.execute_experiment"),
    ]


def _methods(rs):
    """(class, method, span name) of every wrapped method."""
    methods = [
        (rs.operators.MonotoneOperator, "resolvent", "operators.resolvent"),
        (rs.linalg.BlockVector, "__init__", "linalg.blockvector"),
        (rs.driver.ConvergenceTrace, "record", "driver.trace_record"),
        (rs.driver.ConvergenceTrace, "write_csv", "driver.write_csv"),
    ]
    for cls in vars(rs.schedules).values():
        if (isinstance(cls, type) and issubclass(cls, rs.schedules.StepsizeSchedule)
                and "gamma_at" in vars(cls)):
            methods.append((cls, "gamma_at", "schedules.gamma_at"))
    return methods


def trace_nbytes(trace):
    """Bytes of the numbers a ConvergenceTrace holds, computed from nbytes."""
    scalars = len(trace.gammas) + len(trace.residuals) + len(trace.solution_residuals)
    scalars += sum(len(series) for series in trace.extra_scalars.values())
    arrays = [p for p in trace.points if p is not None]
    # iterates are arrays (dr2) or BlockVectors holding one
    arrays += [x if isinstance(x, np.ndarray) else x.data
               for x in trace.iterates if x is not None]
    arrays += [v for series in trace.extra_vectors.values() for v in series]
    return 8 * scalars + sum(a.nbytes for a in arrays)


class Tracer:
    """Span recorder plus the per-layer counters the benchmark reports."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_instance = array("q")
        #: id of the problem instance being solved; stamped on every span
        self.instance = -1
        #: span name -> [calls, total ns, self ns]
        self.stats = {}
        #: (span name, key) -> [calls, total ns], e.g. resolvents per kind
        self.by_key = {}
        self.relocating_steps = 0
        self.clamp_hits = 0
        self.csv_bytes = 0
        self.max_trace_bytes = 0
        self._stack = []
        self._restore = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, key=None, before=None, after=None):
        """Return fn wrapped in a span named ``name``.

        ``key(args)`` splits the call statistics by a sub-key; ``before(args)``
        runs ahead of the call and its value reaches ``after(args, result,
        state)``. Hook and bookkeeping time is charged to no span, so a
        parent's self time excludes the cost of tracing its children.
        """
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stats = self.stats.setdefault(name, [0, 0, 0])
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            stack = tracer._stack
            state = before(args) if before is not None else None
            index = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_instance.append(tracer.instance)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            frame = [index, 0]
            stack.append(frame)
            try:
                start = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter_ns()
                    stack.pop()
                    duration = end - start
                    tracer.span_start[index] = start
                    tracer.span_end[index] = end
                    stats[0] += 1
                    stats[1] += duration
                    stats[2] += duration - frame[1]
                    if key is not None:
                        entry = tracer.by_key.setdefault((name, key(args)), [0, 0])
                        entry[0] += 1
                        entry[1] += duration
                if after is not None:
                    after(args, result, state)
            finally:
                # the parent is charged for none of this wrapper's own work
                if stack:
                    stack[-1][1] += perf_counter_ns() - enter
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _after_record(self, args, result, state):
        gammas = args[0].gammas
        if len(gammas) > 1 and gammas[-1] != gammas[-2]:
            self.relocating_steps += 1

    def _after_run(self, args, trace, state):
        self.max_trace_bytes = max(self.max_trace_bytes, trace_nbytes(trace))

    def _after_write_csv(self, args, result, state):
        target = args[1] if len(args) > 1 else None
        if isinstance(target, str):
            self.csv_bytes += os.path.getsize(target)

    @staticmethod
    def _before_gamma_at(args):
        schedule = args[0]
        return getattr(schedule, "_n", None)

    def _after_gamma_at(self, args, gamma, last_index):
        schedule, n = args[0], args[1]
        if not getattr(schedule, "is_adaptive", False) or last_index is None:
            return
        if n == last_index + 1 and gamma in (schedule.clamp_lo, schedule.clamp_hi):
            self.clamp_hits += 1

    # -- installation ------------------------------------------------------

    def install(self, rs):
        """Wrap the layer boundaries of an imported relosplit package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "relosplit" or name.startswith("relosplit."))]
        after = {
            "graphs.run": self._after_run,
            "malitsky_tam.run": self._after_run,
            "dr2.run": self._after_run,
        }
        for module, attr, name in _functions(rs):
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, after=after.get(name))
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, alias, original))
                        setattr(mod, alias, wrapped)
        hooks = {
            "operators.resolvent": {"key": lambda args: args[0].kind},
            "driver.trace_record": {"after": self._after_record},
            "driver.write_csv": {"after": self._after_write_csv},
            "schedules.gamma_at": {"before": self._before_gamma_at,
                                   "after": self._after_gamma_at},
        }
        for cls, attr, name in _methods(rs):
            original = vars(cls)[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original, **hooks.get(name, {})))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0, 0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0, 0])[1] / 1e9

    def self_s(self, name):
        return self.stats.get(name, [0, 0, 0])[2] / 1e9

    def key_calls_us(self, name, key):
        """Calls with a sub-key and their mean inclusive time in microseconds."""
        calls, total_ns = self.by_key.get((name, key), [0, 0])
        return calls, (total_ns / calls / 1e3 if calls else 0.0)

    def write(self, path):
        """Write the spans: names, start, end (ns), parent index, instance id."""
        origin = self.span_start[0] if self.span_start else 0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64) - origin,
            end_ns=np.frombuffer(self.span_end, dtype=np.int64) - origin,
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            instance=np.frombuffer(self.span_instance, dtype=np.int64),
        )
