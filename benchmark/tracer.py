"""Layer tracing from outside the package.

The tracer wraps every public function of the layer modules, under every
name a polycoh module bound it to at import (``polycoh.realizability``'s
``intersect`` as well as ``polycoh.residues.intersect``), and the public
methods of ``Catalog`` on the class.  Each call records a span: name id,
parent span, query id, start and end time.  Spans are kept in flat arrays
while the run lasts and written out at the end; self time is a span's
duration minus the durations of its direct children, which nest inside it
because the worker is single-threaded.

Spans file format (``write``): one JSON header line
``{"names": [...], "spans": N}`` followed by five raw native-endian arrays
of N items each: name id (int32), parent index (int32, -1 at top level),
query id (int32, -1 between queries), start and end (float64 seconds).

Some per-layer counts are computed from call arguments and results (sizes
of lifted residue sets, candidates returned, Molien group orders); those
hooks run inside the span of the call they describe.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "realizability", "decompose", "catalog", "residues", "ntheory", "molien")
CATALOG_METHODS = ("candidates", "degrees_of", "prime_set_of", "occurs_at", "instance", "lookup")
PRIME_SCAN = ("ntheory.first_prime_in_class", "ntheory.primes_below", "ntheory.is_prime")
CLI_PARSE = ("cli.parse_ring", "cli.parse_degrees", "cli.build_parser")

# Per-layer metrics in reporting order, with their units.
METRICS = {
    "catalog.candidates_s": "s",
    "catalog.candidates_calls": "count",
    "catalog.candidates_returned": "count",
    "catalog.prime_set_of_calls": "count",
    "residues.s": "s",
    "residues.normalize_s": "s",
    "residues.ops": "count",
    "residues.max_lcm": "count",
    "residues.lifted": "count",
    "decompose.calls": "count",
    "decompose.self_s": "s",
    "decompose.decompositions": "count",
    "decompose.useful_ratio": "ratio",
    "realizability.self_s": "s",
    "realizability.search_calls_per_query": "ratio",
    "realizability.prime_scan_s": "s",
    "ntheory.divisors_s": "s",
    "ntheory.divisors_calls": "count",
    "ntheory.is_prime_hit_ratio": "ratio",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "molien.series_s": "s",
    "molien.elements": "count",
    "molien.elements_per_s": "1/s",
}


def _is_public_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    if isinstance(obj, functools._lru_cache_wrapper):
        return True
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


class Tracer:
    """Installs span-recording wrappers and computes per-layer metrics."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.query_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self._cache_info = None
        self._cache_start = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            try:
                tracer.name_id.append(nid)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.query.append(tracer.query_id)
                tracer.end.append(0.0)
                tracer.start.append(clock())
            except MemoryError:
                tracer._truncate(idx)
                raise
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            finally:
                tracer.end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _truncate(self, n: int) -> None:
        for arr in (self.name_id, self.parent, self.query, self.end, self.start):
            del arr[n:]

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        """Wrap every layer function under every polycoh binding."""
        import polycoh.catalog
        import polycoh.cli  # noqa: F401  (binds its imports)
        import polycoh.ntheory

        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"polycoh.{layer}"]
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and _is_public_function(obj, module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj, _HOOKS.get(f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "polycoh" or name.startswith("polycoh.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        cls = polycoh.catalog.Catalog
        for attr in CATALOG_METHODS:
            original = cls.__dict__.get(attr)
            if original is None:
                continue
            name = f"catalog.Catalog.{attr}"
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, _HOOKS.get(name)))
        # is_prime's lru_cache counters give the hit ratio, if it has them.
        is_prime = getattr(polycoh.ntheory.is_prime, "__wrapped__", None)
        self._cache_info = getattr(is_prime, "cache_info", None)
        self._cache_start = self._cache_info() if self._cache_info else None

    def begin_query(self, query_id: int) -> None:
        """Tag the spans that follow; drop any span an alarm left open."""
        self.query_id = query_id
        self.stack.clear()

    def uninstall(self) -> None:
        """Put every original object back where it was found."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        header = {"names": self.names, "spans": len(self.start)}
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.query, self.start, self.end):
                arr.tofile(handle)

    def self_times(self) -> array:
        """Per span: duration minus the durations of its direct children."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        out = array("d", [0.0]) * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                out[p] -= end[i] - start[i]
        for i in range(n):
            out[i] += end[i] - start[i]
        return out

    def layer_metrics(self, queries: int) -> dict[str, float]:
        """The per-layer metrics of METRICS, from the recorded spans."""
        names = self.names
        count: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        residues_ops = 0
        prime_scan = 0.0
        selfs = self.self_times()
        for i, s in enumerate(selfs):
            name = names[self.name_id[i]]
            layer = name.split(".", 1)[0]
            p = self.parent[i]
            parent_layer = names[self.name_id[p]].split(".", 1)[0] if p >= 0 else None
            count[name] += 1
            self_s[name] += s
            incl[name] += self.end[i] - self.start[i]
            layer_self[layer] += s
            if layer == "residues" and parent_layer != "residues":
                residues_ops += 1
            if name in PRIME_SCAN and parent_layer == "realizability":
                prime_scan += self.end[i] - self.start[i]

        c = self.counts
        hits = misses = 0
        if self._cache_info is not None:
            info = self._cache_info()
            hits = info.hits - self._cache_start.hits
            misses = info.misses - self._cache_start.misses
        series_s = incl["molien.molien_series"]
        enumerated = c["at_prime_enumerated"]
        return {
            "catalog.candidates_s": self_s["catalog.Catalog.candidates"] + self_s["catalog.candidates"],
            "catalog.candidates_calls": count["catalog.Catalog.candidates"],
            "catalog.candidates_returned": int(c["candidates_returned"]),
            "catalog.prime_set_of_calls": count["catalog.Catalog.prime_set_of"],
            "residues.s": layer_self["residues"],
            "residues.normalize_s": self_s["residues.normalize"],
            "residues.ops": residues_ops,
            "residues.max_lcm": int(c["max_lcm"]),
            "residues.lifted": int(c["lifted"]),
            "decompose.calls": count["decompose.decompose"],
            "decompose.self_s": self_s["decompose.decompose"] + self_s["decompose.decompose_at_prime"],
            "decompose.decompositions": int(c["decompositions"]),
            "decompose.useful_ratio": c["at_prime_kept"] / enumerated if enumerated else 0.0,
            "realizability.self_s": layer_self["realizability"],
            "realizability.search_calls_per_query": count["decompose.decompose"] / queries if queries else 0.0,
            "realizability.prime_scan_s": prime_scan,
            "ntheory.divisors_s": self_s["ntheory.divisors"],
            "ntheory.divisors_calls": count["ntheory.divisors"],
            "ntheory.is_prime_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cli.parse_s": sum(incl[n] for n in CLI_PARSE),
            "cli.self_s": layer_self["cli"],
            "molien.series_s": series_s,
            "molien.elements": int(c["elements"]),
            "molien.elements_per_s": c["elements"] / series_s if series_s else 0.0,
        }


# -- counts computed from arguments and results ----------------------------


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _lift(tracer: Tracer, args, kwargs, result) -> None:
    s, modulus = _arg(args, kwargs, 0, "s"), _arg(args, kwargs, 1, "modulus")
    tracer.counts["lifted"] += len(s.residues) * (modulus // s.modulus)
    tracer.counts["max_lcm"] = max(tracer.counts["max_lcm"], modulus)


def _normalize(tracer: Tracer, args, kwargs, result) -> None:
    modulus = _arg(args, kwargs, 0, "s").modulus
    tracer.counts["max_lcm"] = max(tracer.counts["max_lcm"], modulus)


def _candidates(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["candidates_returned"] += len(result)


def _decompose(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["decompositions"] += len(result)
    stack = tracer.stack
    if len(stack) > 1 and tracer.names[tracer.name_id[stack[-2]]] == "decompose.decompose_at_prime":
        tracer.counts["at_prime_enumerated"] += len(result)


def _decompose_at_prime(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["at_prime_kept"] += len(result)


def _molien_series(tracer: Tracer, args, kwargs, result) -> None:
    m, r, n = (_arg(args, kwargs, i, k) for i, k in enumerate("mrn"))
    tracer.counts["elements"] += m**n * math.factorial(n) // r


_HOOKS = {
    "residues.lift": _lift,
    "residues.normalize": _normalize,
    "catalog.Catalog.candidates": _candidates,
    "decompose.decompose": _decompose,
    "decompose.decompose_at_prime": _decompose_at_prime,
    "molien.molien_series": _molien_series,
}
