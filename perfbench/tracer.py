"""Span tracer that times the program's layers from outside.

`install` replaces every binding of each public function of the package's
modules (so `pipeline.fit_quantile` is wrapped as well as
`panel_qr.fit_quantile`) and the public `NowcastArchive` methods with one
timing wrapper per function. Calls, total and self time (duration minus the
time of wrapped callees) are summed as calls close; spans (name, start, end,
parent) stay in memory until `write_spans`. Calls made in child processes
are not seen.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import pkgutil
import sys
import time

import numpy as np

PACKAGE = "co2nowcast"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _design_digest(rows, spec):
    h = hashlib.sha256(repr((spec.tau, spec.lam)).encode())
    for r in rows:
        h.update(f"{r.entity}|{r.year}|{r.y!r}|".encode())
        h.update(np.asarray(r.x, dtype=float).tobytes())
    return h.digest()


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


# Per-function counters, keyed by the canonical name "<module>.<function>".
# A hook sees (stats, args, kwargs, result, exception) after the span closes.
def _truncate_hook(st, args, kwargs, result, exc):
    info = _arg(args, kwargs, 1, "info")
    st.setdefault("weeks", set()).add((info.year, info.week))


def _nowcast_energy_hook(st, args, kwargs, result, exc):
    key = (_arg(args, kwargs, 2, "spec").kind, _arg(args, kwargs, 3, "t"),
           _arg(args, kwargs, 4, "v"))
    st.setdefault("distinct", set()).add(key)


def _rows_hook(st, args, kwargs, result, exc):
    st["rows"] = st.get("rows", 0) + len(_arg(args, kwargs, 0, "rows"))


def _fit_quantile_hook(st, args, kwargs, result, exc):
    rows = _arg(args, kwargs, 0, "rows")
    _rows_hook(st, args, kwargs, result, exc)
    limit = getattr(sys.modules.get(PACKAGE + ".panel_qr"), "LP_MAX_ROWS", None)
    if limit is not None and len(rows) > limit:
        st["smooth"] = st.get("smooth", 0) + 1
    st.setdefault("distinct", set()).add(
        _design_digest(rows, _arg(args, kwargs, 1, "spec")))


def _rearrange_hook(st, args, kwargs, result, exc):
    q = [float(v) for v in _arg(args, kwargs, 0, "triple")]
    if q != sorted(q):
        st["crossed"] = st.get("crossed", 0) + 1


def _fit_density_hook(st, args, kwargs, result, exc):
    key = (tuple(_arg(args, kwargs, 0, "levels")),
           tuple(float(v) for v in _arg(args, kwargs, 1, "values")))
    st.setdefault("distinct", set()).add(key)
    if exc is not None:
        st["failed"] = st.get("failed", 0) + 1
        return
    params = result[0] if isinstance(result, tuple) else result
    grid = getattr(sys.modules.get(PACKAGE + ".skew_t"), "_ALPHA_GRID", (32.0,))
    if abs(params.alpha) >= max(abs(a) for a in grid):  # the shape bound
        st["clamped"] = st.get("clamped", 0) + 1


def _load_store_hook(st, args, kwargs, result, exc):
    st["bytes"] = st.get("bytes", 0) + _dir_bytes(_arg(args, kwargs, 0, "store_dir"))


def _text_bytes_hook(st, args, kwargs, result, exc):
    if result is not None:
        st["bytes"] = st.get("bytes", 0) + len(result.encode())


HOOKS = {
    "release_calendar.truncate": _truncate_hook,
    "pipeline.nowcast_energy": _nowcast_energy_hook,
    "panel_ls.fit_within": _rows_hook,
    "panel_qr.fit_quantile": _fit_quantile_hook,
    "panel_qr.rearrange": _rearrange_hook,
    "skew_t.fit_from_quantiles": _fit_density_hook,
    "ingest.load_store": _load_store_hook,
    "pipeline.NowcastArchive.to_csv": _text_bytes_hook,
    "pipeline.NowcastArchive.density_csv": _text_bytes_hook,
    "pipeline.NowcastArchive.diagnostics_csv": _text_bytes_hook,
}
TIMED = ("panel_qr.fit_quantile", "skew_t.fit_from_quantiles")  # get ms_p50/p90
# Period arithmetic runs millions of times per run: it is counted and timed,
# and its time shows in the caller's span, but it keeps no spans of its own.
UNKEPT = ("panel.ordinal", "panel.from_ordinal", "panel.advance",
          "panel.validate_period")


class Tracer:
    def __init__(self):
        self.names = []  # name id -> canonical name
        self.calls, self.total, self.self_s = [], [], []  # per name id
        self.spans = []  # (name id, start, end, parent span index or -1)
        self.stats = {}  # canonical name -> hook counters
        self._stack = []  # open calls: [child seconds, nearest kept span index]

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_s.append(0.0)
        calls, total, self_s = self.calls, self.total, self.self_s
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name not in UNKEPT
        hook = HOOKS.get(name)
        stats = self.stats.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if keep:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            result, error = None, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                calls[nid] += 1
                total[nid] += t1 - t0
                self_s[nid] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if keep:
                    spans[frame[1]] = (nid, t0, t1, parent)
                if hook is not None:
                    hook(stats, args, kwargs, result, error)

        return traced

    def metrics(self) -> dict:
        """Flat `<module>.<function>.<counter>` values for every wrapped name."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.s"] = self.total[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        durations = {name: [] for name in TIMED}
        for nid, t0, t1, _ in self.spans:
            if self.names[nid] in durations:
                durations[self.names[nid]].append(t1 - t0)
        for name, ds in durations.items():
            if ds:
                out[f"{name}.ms_p50"] = 1e3 * float(np.percentile(ds, 50))
                out[f"{name}.ms_p90"] = 1e3 * float(np.percentile(ds, 90))

        def ratio(num, den):
            return num / den if den else 0.0

        for name, st in self.stats.items():
            c = out[f"{name}.calls"]
            if "weeks" in st:
                out[f"{name}.per_week"] = ratio(c, len(st["weeks"]))
            if "distinct" in st:
                out[f"{name}.distinct_ratio"] = ratio(len(st["distinct"]), c)
            if "rows" in st:
                out[f"{name}.rows_mean"] = ratio(st["rows"], c)
            for key, suffix in (("smooth", "smooth_fits"), ("crossed", "crossed"),
                                ("clamped", "clamped"), ("failed", "failed"),
                                ("bytes", "bytes")):
                if key in st:
                    out[f"{name}.{suffix}"] = st[key]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, t0, t1, parent in self.spans:
                fh.write(f"{self.names[nid]},{t0!r},{t1!r},{parent}\n")


def install(tracer: Tracer, package) -> list:
    """Wrap every binding of the package's public functions; returns the
    canonical names wrapped."""
    modules = [importlib.import_module(f"{package.__name__}.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    prefix = package.__name__ + "."
    wrappers = {}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                continue
            origin = getattr(obj, "__module__", None) or ""
            if not origin.startswith(prefix) or obj.__name__.startswith("_"):
                continue
            if id(obj) not in wrappers:
                name = f"{origin[len(prefix):]}.{obj.__name__}"
                wrappers[id(obj)] = tracer.wrap(name, obj)
            setattr(mod, attr, wrappers[id(obj)])
    archive = getattr(importlib.import_module(prefix + "pipeline"), "NowcastArchive", None)
    if archive is not None:
        for attr, obj in list(vars(archive).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                setattr(archive, attr, tracer.wrap(f"pipeline.NowcastArchive.{attr}", obj))
    return list(tracer.names)
