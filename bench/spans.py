"""Spans around ergodim's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a timing wrapper in
every loaded ``ergodim`` module that holds a reference to it, and puts the
originals back on ``uninstall``.  A span records name, start, end, parent span
and run id (one run id per benchmark pass); spans stay in memory until the
run writes them out.  Counters are computed from each call's arguments and
return value, so they count work the program reports, not work it hides.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_chi(tracer, fn, args, kwargs, out):
    c = tracer.counts
    c["lyapunov.estimate_chi.calls"] += 1
    c["lyapunov.points_excluded"] += sum(out.diagnostics["excluded_counts"].values())
    tracer.chi_calls.append(_bind(fn, args, kwargs))


def _count_lipschitz(tracer, fn, args, kwargs, out):
    a = _bind(fn, args, kwargs)
    drawn = len(a["points"]) * a["probes"]
    c = tracer.counts
    c["geometry.lipschitz_table.calls"] += 1
    c["geometry.probes_drawn"] += drawn
    c["geometry.probe_cells"] += drawn * len(a["n_schedule"])
    c["geometry.probe_cells_accepted"] += int(out[1].sum())


def _count_cloud(tracer, fn, args, kwargs, out):
    c = tracer.counts
    c["dimension.sample_unstable_set.calls"] += 1
    c["dimension.cloud.candidates"] += out.admitted + out.rejected
    c["dimension.cloud.admitted"] += out.admitted
    c["dimension.cloud.budget"] += _bind(fn, args, kwargs)["budget"]


def _count_box(tracer, fn, args, kwargs, out):
    cloud = _bind(fn, args, kwargs)["cloud"]
    reruns = 2 if cloud.kind == "torus" else 1  # torus clouds rerun with an origin shift
    tracer.counts["dimension.box.rows_counted"] += out.n_points * len(out.scales) * reruns


def _count_verify(tracer, fn, args, kwargs, out):
    if out.regime == "ratio":
        asked = _bind(fn, args, kwargs)["base_points"]
        tracer.counts["dimension.base_point_failures"] += asked - len(out.per_point_slopes)


def _count_point(tracer, fn, args, kwargs, out):
    tracer.counts["measures.sample_point.calls"] += 1
    symbols = getattr(out, "symbols", None)
    if symbols is not None:
        tracer.counts["measures.symbols_drawn"] += symbols.size


def _count_tail(tracer, fn, args, kwargs, out):
    tracer.counts["systems.weighted_tail_bound.calls"] += 1


# (module, attribute path, counter); the span name is the module's last part
# plus the attribute path.  Every entry must exist: a renamed or removed
# function stops the run instead of losing its span.
TARGETS = (
    ("ergodim.harness", "ExperimentConfig.from_dict", None),
    ("ergodim.harness", "run_experiment", None),
    ("ergodim.harness", "emit_report", None),
    ("ergodim.lyapunov", "estimate_chi", _count_chi),
    ("ergodim.geometry", "lipschitz_table", _count_lipschitz),
    ("ergodim.dimension", "verify_main_inequality", _count_verify),
    ("ergodim.dimension", "sample_unstable_set", _count_cloud),
    ("ergodim.dimension", "box_counting_dimension", _count_box),
    ("ergodim.dimension", "local_dimension_lower", None),
    ("ergodim.dimension", "unstable_cover_counts", None),
    ("ergodim.measures", "sample_point", _count_point),
    ("ergodim.measures", "sample_points", None),
    ("ergodim.measures", "fixed_coords_log_measure", None),
    ("ergodim.partitions", "local_smb_check", None),
    ("ergodim.partitions", "shift_lemma_check", None),
    ("ergodim.partitions", "construct_subordinate_partition", None),
    ("ergodim.partitions", "check_atom_in_unstable", None),
    ("ergodim.partitions", "hamming_ball_bound_check", None),
    ("ergodim.entropy", "block_entropy_rate", None),
    ("ergodim.entropy", "brin_katok_local", None),
    ("ergodim.systems", "operator_norm_power", None),
    ("ergodim.systems", "weighted_tail_bound", _count_tail),
    ("ergodim.systems", "WeightSequence.check", None),
)


def span_name(module: str, attr: str) -> str:
    name = f"{module.rsplit('.', 1)[-1]}.{attr}"
    return "harness.from_dict" if name == "harness.ExperimentConfig.from_dict" else name


class Tracer:
    """In-memory span recorder with per-run counters."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.run_id = ""
        self.counts: Counter = Counter()
        self.counts_by_run: dict[str, Counter] = defaultdict(Counter)
        self.chi_calls: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, name, parent, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(name, t0, t1, parent, self.run_id)

    @contextmanager
    def span(self, name: str):
        sid, parent, t0 = self._open(name)
        try:
            yield
        finally:
            self._close(sid, name, parent, t0)

    @contextmanager
    def run(self, run_id: str):
        """Group the spans and counters of one pass under ``run_id``."""
        self.run_id = run_id
        self.counts = self.counts_by_run[run_id]
        with self.span("bench.pass"):
            yield

    def wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, t0 = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, parent, t0)
            if counter is not None:
                counter(tracer, fn, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module_name, attr, counter in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = inspect.getattr_static(owner, leaf, None) if owner is not None else None
                if raw is None:
                    self.uninstall()
                    raise RuntimeError(f"traced function {module_name}.{attr} no longer exists")
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(span_name(module_name, attr), fn, counter)
                setattr(owner, leaf, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
                self._restore.append((owner, leaf, raw))
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.uninstall()
                raise RuntimeError(f"traced function {module_name}.{attr} no longer exists")
            wrapped = self.wrap(span_name(module_name, attr), fn, counter)
            # patch every ergodim module that imported the function by name
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "ergodim" or mod_name.startswith("ergodim."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)
                            self._restore.append((mod, key, fn))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Spans come from one thread and nest like the call stack, so the children
    of one span never overlap and their durations add up to what they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def self_by_run(spans: list) -> dict:
    """{run_id: {span name: summed self time}}."""
    table = defaultdict(lambda: defaultdict(float))
    for s, t in zip(spans, self_times(spans)):
        table[s.run_id][s.name] += t
    return table
