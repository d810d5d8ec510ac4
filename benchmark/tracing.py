"""Spans around the package's layer boundaries, recorded from outside it.

``Tracer.install`` replaces each boundary name in the module where its
callers look it up with a wrapper that records one span per call: name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  A boundary that no longer exists is reported as missing, and the
layer metrics that need it are left out rather than guessed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import weakref
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from inputs import concurrence_bytes

#: (span name, module, attribute path) for every wrapped boundary; a name
#: imported into several modules is patched in each of them
BOUNDARIES = (
    ("efficiency.characteristic_polynomial", "rbdesign.efficiency", "characteristic_polynomial"),
    ("efficiency.efficiency_spectrum", "rbdesign.efficiency", "efficiency_spectrum"),
    ("efficiency.a_value", "rbdesign.efficiency", "a_value"),
    ("efficiency.a_value_float", "rbdesign.efficiency", "a_value_float"),
    ("search.a_value", "rbdesign.search", "a_value"),
    ("search.a_value_float", "rbdesign.search", "a_value_float"),
    ("core.concurrence_matrix", "rbdesign.core", "concurrence_matrix"),
    ("core.concurrence_matrix", "rbdesign.efficiency", "concurrence_matrix"),
    ("core.concurrence_matrix", "rbdesign.isomorphism", "concurrence_matrix"),
    ("isomorphism.canonical_labeling", "rbdesign.isomorphism", "canonical_labeling"),
    ("isomorphism.canonical_form", "rbdesign.isomorphism", "canonical_form"),
    ("isomorphism.is_sylvester_design", "rbdesign.isomorphism", "is_sylvester_design"),
    ("search.SearchState.propose", "rbdesign.search", "SearchState.propose"),
    ("search.SearchState.accept", "rbdesign.search", "SearchState.accept"),
    ("search.anneal", "rbdesign.search", "anneal"),
)

OP = "op"


class Tracer:
    """Span recorder; one per process, installed once before the first op."""

    def __init__(self):
        # (name, start, end, parent index, op id); parent -1 marks a root
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self.generators = 0
        self.canonical_form_cache = None
        self._stack: list[int] = []
        self._op = -1
        self._matrix_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._seen_matrices: set[bytes] = set()
        self.charpoly_repeats = 0

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._op))
        self._stack.append(idx)
        self.calls[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, op = self.spans[idx]
        self.spans[idx] = (name, start, perf_counter(), parent, op)

    @contextmanager
    def op(self, op_id: int):
        """The root span of one operation; spans inside it carry op_id."""
        self._op = op_id
        idx = self._enter(OP)
        try:
            yield
        finally:
            self._exit(idx)
            self._op = -1

    def _wrap(self, name: str, fn):
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _after_charpoly(self, args, result) -> None:
        design = args[0]
        try:
            key = self._matrix_keys[design]
        except KeyError:
            # rk*I - Lambda is fixed by Lambda, whose diagonal holds r
            key = self._matrix_keys[design] = concurrence_bytes(design)
        if key in self._seen_matrices:
            self.charpoly_repeats += 1
        self._seen_matrices.add(key)

    def _after_labeling(self, args, result) -> None:
        self.generators += len(result.group.generators())

    _after = {
        "efficiency.characteristic_polynomial": _after_charpoly,
        "isomorphism.canonical_labeling": _after_labeling,
    }

    def install(self, boundaries=BOUNDARIES) -> None:
        """Wrap every boundary that exists; list the others as missing."""
        for name, module_name, path in boundaries:
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            if name == "isomorphism.canonical_form" and hasattr(original, "cache_info"):
                self.canonical_form_cache = original.cache_info
                self.installed.add(CANONICAL_FORM_CACHE)
            setattr(owner, attr, self._wrap(name, original))
            self.installed.add(name)

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


class NullTracer:
    """Stand-in for untraced passes: no wrappers, no spans."""

    calls: dict[str, int] = defaultdict(int)

    def op(self, op_id: int):
        return nullcontext()


def self_times(spans) -> dict[str, list[float]]:
    """Per span name, the self time of each span: its duration minus the
    time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list[float]] = defaultdict(list)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name].append(end - start - child[i])
    return out


CHARPOLY = "efficiency.characteristic_polynomial"
SPECTRUM = "efficiency.efficiency_spectrum"
FLOAT = "efficiency.a_value_float"
CONCURRENCE = "core.concurrence_matrix"
LABELING = "isomorphism.canonical_labeling"
CANONICAL_FORM_CACHE = "isomorphism.canonical_form.cache_info"
SYLVESTER = "isomorphism.is_sylvester_design"
PROPOSE = "search.SearchState.propose"
ACCEPT = "search.SearchState.accept"
ANNEAL = "search.anneal"
SEARCH_EXACT = ("search.a_value", "search.a_value_float")


def layer_metrics(tracer: Tracer, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    counts holds what the workload counted itself: search evaluations and
    A values, isomorphism verdicts and the canonical-labeling-free ones.  A
    metric whose boundary is missing at this commit is left out."""
    selfs = self_times(tracer.spans)
    calls = tracer.calls

    def total(*names):
        return sum(sum(selfs.get(name, ())) for name in names)

    def p50(name):
        values = selfs.get(name)
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio():
        info = tracer.canonical_form_cache()
        return ratio(info.hits, info.hits + info.misses)

    table = (
        ("efficiency.charpoly.calls", (CHARPOLY,), lambda: calls[CHARPOLY]),
        ("efficiency.charpoly.self_s", (CHARPOLY,), lambda: total(CHARPOLY)),
        ("efficiency.charpoly.p50_ms", (CHARPOLY,), lambda: p50(CHARPOLY) * 1e3),
        ("efficiency.charpoly.repeat_share", (CHARPOLY,), lambda: ratio(tracer.charpoly_repeats, calls[CHARPOLY])),
        ("efficiency.roots.calls", (SPECTRUM,), lambda: calls[SPECTRUM]),
        ("efficiency.roots.self_s", (SPECTRUM,), lambda: total(SPECTRUM)),
        ("efficiency.roots.p50_s", (SPECTRUM,), lambda: p50(SPECTRUM)),
        ("efficiency.float.calls", (FLOAT,), lambda: calls[FLOAT]),
        ("efficiency.float.self_s", (FLOAT,), lambda: total(FLOAT)),
        ("core.concurrence.calls", (CONCURRENCE,), lambda: calls[CONCURRENCE]),
        ("core.concurrence.self_s", (CONCURRENCE,), lambda: total(CONCURRENCE)),
        ("canon.labeling.calls", (LABELING,), lambda: calls[LABELING]),
        ("canon.labeling.self_s", (LABELING,), lambda: total(LABELING)),
        ("canon.labeling.p50_ms", (LABELING,), lambda: p50(LABELING) * 1e3),
        ("canon.labeling.max_s", (LABELING,), lambda: max(selfs.get(LABELING, ()), default=0.0)),
        ("canon.generators", (LABELING,), lambda: tracer.generators),
        ("isomorphism.canon_free_share", (LABELING,), lambda: ratio(counts["canon_free"], counts["verdicts"])),
        ("isomorphism.canonical_form.hit_ratio", (CANONICAL_FORM_CACHE,), hit_ratio),
        ("isomorphism.sylvester.self_s", (SYLVESTER,), lambda: total(SYLVESTER)),
        ("search.proposals", (PROPOSE,), lambda: calls[PROPOSE]),
        ("search.evaluations", (), lambda: counts["evaluations"]),
        ("search.propose.self_s", (PROPOSE,), lambda: total(PROPOSE)),
        ("search.propose.p50_us", (PROPOSE,), lambda: p50(PROPOSE) * 1e6),
        ("search.accept_ratio", (PROPOSE, ACCEPT), lambda: ratio(calls[ACCEPT], calls[PROPOSE])),
        ("search.exact.self_s", SEARCH_EXACT, lambda: total(*SEARCH_EXACT)),
        ("search.residual.self_s", (ANNEAL,), lambda: total(ANNEAL)),
        ("search.a_mean", (), lambda: counts["a_mean"]),
        ("trace.ops", (), lambda: calls[OP]),
        ("trace.op_time_s", (), lambda: sum(end - start for name, start, end, _, _ in tracer.spans if name == OP)),
        ("trace.unattributed_s", (), lambda: total(OP)),
    )
    return {
        metric: value()
        for metric, needs, value in table
        if all(name in tracer.installed for name in needs)
    }
