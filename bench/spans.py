"""In-memory span tracer for leolink's public functions.

Wrapping happens from outside the package and only in memory: each public
function of each leolink module is replaced, in every leolink module
namespace that holds it, by one wrapper that records a span (name, start,
end, parent) and the number of work items of the call. The names are
looked up where the caller looks them up, so `pipeline.afd`,
`pipeline.equal_probability_partition` and `channel.confluent_1f1` all
reach the wrapper. `uninstall` puts the original objects back.
"""

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "scenario", "geometry", "special", "channel", "schemes",
           "montecarlo", "pipeline")


def _n_items(name, args, kwargs):
    # Work items of a call, for per-1e6 normalisation.
    if name in ("channel.sr_cdf_many", "montecarlo.ks_statistic"):
        return len(args[1])
    if name == "montecarlo.sample_sr_gain":
        size = args[2] if len(args) > 2 else kwargs.get("size")
        return 1 if size is None else int(size)
    if name in ("montecarlo.simulate_rate_power", "montecarlo.simulate_dor"):
        return int(args[-1].n_samples)
    return 1


def _variant(name, args):
    # tail_mass spans are split by evaluation route: integer m takes the
    # closed form, non-integer m the quadrature.
    return name + ("[int_m]" if args[0].integer_m is not None else "[nonint_m]")


class Tracer:
    """Spans in flat arrays: span i has name_id[i], parent[i] (-1 for a
    root), start[i], end[i] and items[i]."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name, fn):
        tracer = self
        stack = self._stack
        fixed_id = self._intern(name)
        by_route = name == "channel.tail_mass"

        def traced(*args, **kwargs):
            sid = len(tracer.start)
            nid = tracer._intern(_variant(name, args)) if by_route else fixed_id
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.items.append(_n_items(name, args, kwargs))
            tracer.end.append(0.0)
            stack.append(sid)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[sid] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"leolink.{m}") for m in MODULES}
        spaces = list(mods.values()) + [importlib.import_module("leolink")]
        wrappers = {}
        for short, mod in mods.items():
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for space in spaces:
            for attr, value in list(vars(space).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((space, attr, value))
                    setattr(space, attr, wrappers[value])

    def uninstall(self) -> None:
        for space, attr, value in reversed(self._saved):
            setattr(space, attr, value)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "items": np.frombuffer(self.items, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span: arrays plus the name table, one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, items.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap because the run is single-threaded.
        """
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        incl = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        excl = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        items = np.bincount(a["name_id"], weights=a["items"], minlength=n_names)
        return {
            name: {"calls": float(calls[i]), "incl_s": float(incl[i]),
                   "self_s": float(excl[i]), "items": float(items[i])}
            for i, name in enumerate(self.names)
        }
