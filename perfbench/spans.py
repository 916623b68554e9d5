"""In-memory spans around hcslab's layer boundaries, and the per-layer metrics.

Spans are recorded from the benchmark's side: each traced function is replaced,
for the length of one traced pass, by a wrapper installed where its caller
looks the name up (``sweep.hm_squeezing``, ``validation.build_hcs``,
``ClosedFormMoments.moment``, ...).  A name that no longer exists after a
refactor is skipped, so it records no span instead of crashing the run.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

# (owner, attribute, span name).  The owner is "<module>" or "<module>.<Class>"
# inside the hcslab package; the span name is "<layer>.<function>".
PATCHES = (
    ("cli", "main", "cli.main"),
    ("cli", "write_sweeps", "sweep.write_sweeps"),
    ("sweep", "write_sweeps", "sweep.write_sweeps"),
    ("sweep", "hm_squeezing", "witnesses.hm_squeezing"),
    ("sweep", "hoa_g", "witnesses.hoa_g"),
    ("validation", "run_validation", "validation.run_validation"),
    ("validation", "hm_squeezing", "witnesses.hm_squeezing"),
    ("validation", "hoa_g", "witnesses.hoa_g"),
    ("validation", "build_hcs", "fock.build_hcs"),
    ("validation", "choose_truncation", "fock.choose_truncation"),
    ("validation", "quadrature_central_moment", "fock.quadrature_central_moment"),
    ("heralding", "simulate_herald", "heralding.simulate_herald"),
    ("heralding", "choose_truncation", "fock.choose_truncation"),
    ("fock", "build_hcs", "fock.build_hcs"),
    ("fock", "fidelity", "fock.fidelity"),
    ("fock", "numeric_moment", "fock.numeric_moment"),
    ("fock.FockMoments", "moment", "fock.provider"),
    ("moments", "moment", "moments.moment"),
    ("moments.ClosedFormMoments", "moment", "moments.provider"),
)

#: Spans whose return value is kept: the truncation dimension chosen.
KEEP_RESULT = frozenset({"fock.choose_truncation"})

#: Raised by hoa_g at the vacuum and handled by its callers (sweep skips the
#: point, validation skips the state), so it is not counted as an error.
HANDLED = "VacuumStateError"

# name, unit, better, end-to-end metric it should move, on which workloads.
LAYER_METRICS = (
    ("witnesses.hm_squeezing.calls", "count", "lower", "items_per_s, item_ms_p50", "sweep-squeezing, validate"),
    ("witnesses.hm_squeezing.busy_s", "s", "lower", "items_per_s, item_ms_p50", "sweep-squeezing (most), validate"),
    ("witnesses.hm_squeezing.self_s", "s", "lower", "items_per_s, item_ms_p50", "sweep-squeezing (most), validate"),
    ("witnesses.hm_squeezing.errors", "count", "lower", "failed", "sweep-squeezing, validate"),
    ("witnesses.hoa_g.calls", "count", "lower", "items_per_s", "sweep-antibunching"),
    ("witnesses.hoa_g.self_s", "s", "lower", "items_per_s", "sweep-antibunching"),
    ("witnesses.hoa_g.errors", "count", "lower", "failed", "sweep-antibunching"),
    ("moments.moment.calls", "count", "lower", "items_per_s", "sweep-antibunching, sweep-squeezing"),
    ("moments.moment.busy_s", "s", "lower", "items_per_s", "sweep-antibunching, sweep-squeezing"),
    ("moments.provider.calls", "count", "lower", "items_per_s", "sweep-antibunching, sweep-squeezing"),
    ("moments.cache_hit_ratio", "1", "higher", "items_per_s", "sweep-antibunching, sweep-squeezing"),
    ("sweep.write_sweeps.busy_s", "s", "lower", "items_per_s, item_ms_p50",
     "sweep-antibunching (most), sweep-squeezing"),
    ("sweep.self_s", "s", "lower", "items_per_s, item_ms_p50", "sweep-antibunching (most), sweep-squeezing (little)"),
    ("sweep.rows", "count", "higher", "items_per_s", "sweep-antibunching, sweep-squeezing"),
    ("sweep.bytes", "B", "higher", "items_per_s", "sweep-antibunching, sweep-squeezing"),
    ("sweep.vacuum_skipped", "count", "lower", "items_per_s", "sweep-antibunching"),
    ("cli.main.calls", "count", "lower", "item_ms_p50", "sweep-squeezing, sweep-antibunching, validate"),
    ("cli.main.busy_s", "s", "lower", "item_ms_p50", "short curves in both sweeps"),
    ("cli.self_s", "s", "lower", "item_ms_p50", "short curves in both sweeps"),
    ("fock.numeric_moment.calls", "count", "lower", "item_ms_p50, items_per_s", "validate"),
    ("fock.numeric_moment.busy_s", "s", "lower", "item_ms_p50, items_per_s", "validate"),
    ("fock.provider.calls", "count", "lower", "item_ms_p50, items_per_s", "validate"),
    ("fock.cache_hit_ratio", "1", "higher", "item_ms_p50, items_per_s", "validate"),
    ("fock.quadrature_central_moment.calls", "count", "lower", "item_ms_p50, items_per_s", "validate"),
    ("fock.quadrature_central_moment.busy_s", "s", "lower", "item_ms_p50, items_per_s", "validate"),
    ("fock.choose_truncation.busy_s", "s", "lower", "items_per_s, peak_rss_mb", "herald, validate"),
    ("fock.build_hcs.calls", "count", "lower", "items_per_s, peak_rss_mb", "herald, validate"),
    ("fock.build_hcs.busy_s", "s", "lower", "items_per_s, peak_rss_mb", "herald, validate"),
    ("fock.fidelity.calls", "count", "lower", "items_per_s", "herald"),
    ("fock.fidelity.busy_s", "s", "lower", "items_per_s", "herald"),
    ("fock.dim_mean", "count", "lower", "items_per_s, peak_rss_mb", "herald, validate"),
    ("validation.run_validation.busy_s", "s", "lower", "item_ms_p50", "validate"),
    ("validation.self_s", "s", "lower", "item_ms_p50", "validate"),
    ("heralding.simulate_herald.calls", "count", "lower", "items_per_s", "herald"),
    ("heralding.simulate_herald.busy_s", "s", "lower", "items_per_s", "herald"),
    ("heralding.self_s", "s", "lower", "items_per_s", "herald"),
    ("trace.overhead_ratio", "1", "lower", "none: traced wall time / untraced wall time", "every workload"),
    ("census.failed_ratio", "1", "lower", "none: share failing over |alpha| <= 4, untimed",
     "sweep-squeezing, sweep-antibunching, validate"),
)

LAYERS = ("cli", "sweep", "witnesses", "moments", "fock", "validation", "heralding")


class Tracer:
    """Spans kept in parallel arrays: name id, start, end, parent span, invocation id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.invocation = array("i")
        self.error: dict[int, str] = {}
        self.result: dict[int, object] = {}
        #: invocation id stamped on every span opened from now on
        self.current = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        keep = name in KEEP_RESULT
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.invocation.append(self.current)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.error[idx] = type(exc).__name__
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if keep:
                self.result[idx] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap every name of PATCHES that exists in the imported hcslab package."""
        for owner_path, attr, name in PATCHES:
            owner = package
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(name, original))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "invocation": np.frombuffer(self.invocation, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        """Write every span, its error and its kept result to one .npz file."""
        errors = sorted(self.error.items())
        results = sorted((i, int(r)) for i, r in self.result.items())
        np.savez_compressed(
            path,
            names=np.array(self.names),
            error_index=np.array([i for i, _ in errors], dtype=np.int64),
            error_class=np.array([e for _, e in errors], dtype=str),
            result_index=np.array([i for i, _ in results], dtype=np.int64),
            result_value=np.array([r for _, r in results], dtype=np.int64),
            **self.arrays(),
        )

    def deepest_error(self) -> tuple[str, str] | None:
        """(span name, exception class) of the innermost span that raised, if any."""
        best, best_depth = None, -1
        for idx, exc in self.error.items():
            if exc == HANDLED:
                continue
            depth, p = 0, self.parent[idx]
            while p >= 0:
                depth, p = depth + 1, self.parent[p]
            if depth > best_depth:
                best, best_depth = (self.names[self.name_id[idx]], exc), depth
        return best


def layer_metrics(
    tracer: Tracer,
    traced_wall: float,
    overhead_ratio: float,
    census_failed_ratio: float,
    csv_rows: int,
    csv_bytes: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of LAYER_METRICS, and each layer's share of the traced wall time.

    Times are raw seconds of the traced pass; ``traced_wall`` is its total.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self time of its spans.
    """
    a = tracer.arrays()
    n_names = len(tracer.names)
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    calls = np.bincount(a["name_id"], minlength=n_names)
    busy = np.bincount(a["name_id"], weights=dur, minlength=n_names)
    own = np.bincount(a["name_id"], weights=dur - child, minlength=n_names)

    def nid(name):
        return tracer.names.index(name) if name in tracer.names else -1

    def stat(name, table):
        i = nid(name)
        return float(table[i]) if i >= 0 else 0.0

    def errors(name):
        i = nid(name)
        return sum(1 for idx, exc in tracer.error.items() if tracer.name_id[idx] == i and exc != HANDLED)

    def hit_ratio(provider, backend):
        """Share of provider calls answered from the provider's cache."""
        p, b = nid(provider), nid(backend)
        if p < 0 or calls[p] == 0:
            return 0.0
        misses = np.count_nonzero((a["name_id"] == b) & has_parent & (a["name_id"][a["parent"]] == p))
        return 1.0 - float(misses) / float(calls[p])

    def under(idx, name):
        i, p = nid(name), tracer.parent[idx]
        while p >= 0:
            if tracer.name_id[p] == i:
                return True
            p = tracer.parent[p]
        return False

    dims = list(tracer.result.values())  # only fock.choose_truncation keeps its result
    layer_self = {
        layer: sum(float(own[i]) for i, s in enumerate(tracer.names) if s.startswith(layer + ".")) for layer in LAYERS
    }
    hoa_g = nid("witnesses.hoa_g")
    vacuum = sum(
        1
        for idx, exc in tracer.error.items()
        if exc == HANDLED and tracer.name_id[idx] == hoa_g and under(idx, "sweep.write_sweeps")
    )
    metrics = {}
    for name, *_ in LAYER_METRICS:
        head, _, field = name.rpartition(".")
        if field == "calls":
            metrics[name] = stat(head, calls)
        elif field == "busy_s":
            metrics[name] = stat(head, busy)
        elif field == "errors":
            metrics[name] = float(errors(head))
        elif field == "self_s":  # of one function, or of every span of a layer
            metrics[name] = stat(head, own) if "." in head else layer_self[head]
    metrics["moments.cache_hit_ratio"] = hit_ratio("moments.provider", "moments.moment")
    metrics["fock.cache_hit_ratio"] = hit_ratio("fock.provider", "fock.numeric_moment")
    metrics["fock.dim_mean"] = float(np.mean(dims)) if dims else 0.0
    metrics["sweep.rows"] = float(csv_rows)
    metrics["sweep.bytes"] = float(csv_bytes)
    metrics["sweep.vacuum_skipped"] = float(vacuum)
    metrics["trace.overhead_ratio"] = overhead_ratio
    metrics["census.failed_ratio"] = census_failed_ratio
    metrics = {name: metrics[name] for name, *_ in LAYER_METRICS}

    shares = {layer: t / traced_wall for layer, t in layer_self.items()}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return metrics, shares
