"""Span recorder that wraps covstine's public functions from outside.

The benchmark never edits the package: it replaces every public function
and public method of the seven layers with a wrapper that opens a span, and
puts the originals back afterwards.  A function imported into another
module (``from .cpmaps import check_covariance``) is patched there too,
because every module namespace of the package is scanned for the original
object.

Spans stay in memory as parallel typed arrays, about 35 bytes a span, so
that the recorder adds little to the peak RSS it measures, and are
aggregated (or written out with ``save``) when the run ends.
"""

from __future__ import annotations

import functools
import inspect
from array import array
import resource
import sys
import time

import numpy as np

PACKAGE = "covstine"
LAYERS = ("numkernel", "cstar", "hilbmod", "cpmaps", "stinespring", "crossed", "cli")

# Eigensolve entry points and the matrix order n of the solve they run;
# numkernel.spectral_n3 sums n**3 over the outermost of these calls.
SPECTRAL = {
    "hermitian_eigendecomposition": lambda m: np.shape(m)[0],
    "gram_factor": lambda m: np.shape(m)[0],
    "psd_check": lambda m: np.shape(m)[0],
    "psd_rank": lambda m: np.shape(m)[0],
    "numerical_rank": lambda m: min(np.shape(m)),
    "orthonormal_range": lambda m: np.shape(m)[0],
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records one span per call into a public function of a layer."""

    def __init__(self):
        self.names: list[str] = []  # span name table, index = name id
        self.name_layer: list[int] = []
        self.scenario = -1  # set by the caller before each scenario
        self._patches: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.scen = array("i")
        self.error = array("b")
        self.layer_top = array("b")  # no enclosing span of the same layer
        self.name_top = array("b")  # no enclosing span of the same name
        self.rss: dict[int, tuple[float, float]] = {}  # layer_top spans only
        self.n3: dict[int, int] = {}  # outermost spectral spans only
        self._stack: list[int] = []
        self._layer_depth = [0] * len(LAYERS)
        self._name_depth: list[int] = []
        self._spectral_depth = 0

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: int, size=None):
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        self._name_depth.append(0)
        error_type = sys.modules[f"{PACKAGE}.errors"].CovstineError
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            layer_depth = tracer._layer_depth
            name_depth = tracer._name_depth
            sid = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.scen.append(tracer.scenario)
            tracer.error.append(False)
            tracer.end.append(0.0)
            layer_top = layer_depth[layer] == 0
            tracer.layer_top.append(layer_top)
            tracer.name_top.append(name_depth[nid] == 0)
            if size is not None:
                if tracer._spectral_depth == 0:
                    n = int(size(args[0] if args else next(iter(kwargs.values()))))
                    tracer.n3[sid] = n * n * n
                tracer._spectral_depth += 1
            rss0 = _maxrss_mb() if layer_top else 0.0
            layer_depth[layer] += 1
            name_depth[nid] += 1
            stack.append(sid)
            tracer.start.append(perf())
            try:
                return fn(*args, **kwargs)
            except error_type:
                tracer.error[sid] = True
                raise
            finally:
                tracer.end[sid] = perf()
                stack.pop()
                layer_depth[layer] -= 1
                name_depth[nid] -= 1
                if size is not None:
                    tracer._spectral_depth -= 1
                if layer_top:
                    tracer.rss[sid] = (rss0, _maxrss_mb())

        traced.__wrapped_original__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        replacement: dict[int, object] = {}
        for layer, short in enumerate(LAYERS):
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    size = SPECTRAL.get(attr) if short == "numkernel" else None
                    replacement[id(obj)] = self._wrapper(obj, f"{short}.{attr}", layer, size)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, f"{short}.{attr}", layer)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replacement and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, replacement[id(obj)])

    def _wrap_methods(self, cls, prefix: str, layer: int) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(raw):
                wrapped = self._wrapper(raw, f"{prefix}.{attr}", layer)
            elif isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(raw.__func__, f"{prefix}.{attr}", layer))
            else:
                continue
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def remove(self) -> None:
        """Put every original function and method back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- aggregation ------------------------------------------------------

    def arrays(self) -> dict:
        """The recorded spans as numpy arrays (one entry per span)."""
        return {
            # np.array copies: a view would pin the buffers and stop appends.
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int64),
            "scenario": np.array(self.scen, dtype=np.int32),
            "error": np.array(self.error, dtype=bool),
            "layer_top": np.array(self.layer_top, dtype=bool),
            "name_top": np.array(self.name_top, dtype=bool),
        }

    def save(self, path) -> None:
        """Write the spans and the name table to an ``.npz`` file."""
        rss_ids = np.fromiter(self.rss.keys(), dtype=np.int64, count=len(self.rss))
        rss = np.array(list(self.rss.values()), dtype=np.float64).reshape(-1, 2)
        np.savez(
            path,
            names=np.asarray(self.names),
            name_layer=np.asarray(self.name_layer, dtype=np.int32),
            layers=np.asarray(LAYERS),
            rss_span=rss_ids,
            rss_mb=rss,
            **self.arrays(),
        )

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per-layer and per-function totals over spans ``first`` to ``last``.

        The range must hold whole root spans (record ``len(tracer.start)``
        between scenarios).  ``self_s`` of a span is its duration minus the
        durations of its direct child spans, so the self times of all spans
        partition the time covered by the root spans.
        """
        last = len(self.start) if last is None else last
        a = {key: value[first:last] for key, value in self.arrays().items()}
        count = last - first
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        child = np.zeros(count)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent] - first, dur[has_parent])
        exclusive = dur - child
        nid = a["name_id"]
        layer = np.asarray(self.name_layer, dtype=np.int64)[nid]

        def per_name(weights):
            return np.bincount(nid, weights=weights, minlength=n_names)

        def per_layer(weights):
            return np.bincount(layer, weights=weights, minlength=len(LAYERS))

        rise = np.zeros(count)
        for sid, (before, after) in self.rss.items():
            if first <= sid < last:
                rise[sid - first] = after - before
        n3 = [value for sid, value in self.n3.items() if first <= sid < last]
        out = {"functions": {}, "layers": {}}
        f_calls = per_name(None)
        f_self = per_name(exclusive)
        f_incl = per_name(np.where(a["name_top"], dur, 0.0))
        for i, name in enumerate(self.names):
            out["functions"][name] = {
                "calls": int(f_calls[i]),
                "s": float(f_incl[i]),
                "self_s": float(f_self[i]),
            }
        l_calls = per_layer(None)
        l_self = per_layer(exclusive)
        l_busy = per_layer(np.where(a["layer_top"], dur, 0.0))
        l_rise = per_layer(rise)
        l_err = per_layer(a["error"].astype(float))
        for i, name in enumerate(LAYERS):
            out["layers"][name] = {
                "calls": int(l_calls[i]),
                "self_s": float(l_self[i]),
                "busy_s": float(l_busy[i]),
                "rss_rise_mb": float(l_rise[i]),
                "errors": int(l_err[i]),
            }
        out["spectral_calls"] = len(n3)
        out["spectral_n3"] = int(sum(n3))
        out["root_s"] = float(dur[~has_parent].sum())
        out["spans"] = count
        return out

    def nesting_violations(self) -> int:
        """Count spans that do not lie inside their parent span."""
        a = self.arrays()
        has_parent = a["parent"] >= 0
        p = a["parent"][has_parent]
        return int(np.count_nonzero(
            (a["start"][has_parent] < a["start"][p])
            | (a["end"][has_parent] > a["end"][p])
            | (a["scenario"][has_parent] != a["scenario"][p])
        ))
