"""Span tracing of hardlattice from outside the program.

Run as a script::

    python perfbench/tracing.py SPANS.npz scan --config run.json ...

it imports hardlattice under an ``import`` span, wraps the public
functions of each layer with span recorders, calls
``hardlattice.cli.main(argv)`` in-process and writes the spans to
``SPANS.npz`` when ``main`` returns.  The program itself is not edited.

Imported, it turns a spans file into per-layer totals (:func:`summarize`)
and checks the trace's exact invariants (:func:`selfcheck`).  numpy is
imported inside the functions that need it, so that in the traced
process the ``import`` span includes it.

A span is (name, start, end, parent, tag).  Times are integer
nanoseconds from ``time.perf_counter_ns``, so a span's self time -- its
duration minus the durations of its children -- is exact and never
negative.  ``tag`` is the lattice size ``N`` of the first argument when
it has one (a configuration or a chain), else -1.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import resource
import sys
import time
import tracemalloc
from array import array

LAYERS = ("kernels", "sampler", "configuration", "observables", "geometry", "analysis", "cli")

# Called once per site or per predicate from inside another wrapped
# function; a wrapper would cost more than the work.  Their time is their
# caller's self time.
INNER = frozenset({"kernels.star_ok", "kernels.local_ok", "geometry.orient_sign"})

# Called up to tens of thousands of times per run: counted and timed in
# aggregate, without a span each.  Their time is charged to the geometry
# layer and taken out of their caller's self time.
COUNT_ONLY = frozenset(
    {
        "geometry.triangles_overlap",
        "geometry.dist_so2",
        "geometry.dist_so2_bruteforce",
        "geometry.heron_area",
        "geometry.signed_area",
    }
)

# Public methods traced besides module-level functions.  ``Chain.snapshot``
# stays unwrapped so that snapshot copies count as ``Chain.run`` self time.
METHODS = {"sampler": (("Chain", "run"), ("Chain", "sweep"))}

# Functions whose growth of the process's peak RSS is recorded.
RSS_WATCH = frozenset({"configuration.check_omega2_oracle", "analysis.estimate_rigidity_constant"})

# Functions whose integer results are summed (accepted moves per sweep).
RESULT_SUM = frozenset({"kernels.sweep"})

ORACLE = "configuration.check_omega2_oracle"


def _tag(args) -> int:
    return int(getattr(args[0], "N", -1)) if args else -1


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder that patches hardlattice's layer functions."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.tag = array("q")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("q")  # count-only time spent directly inside each span
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.busy_ns: dict[str, int] = {}
        self.result_sum: dict[str, int] = {}
        self.rss_rise_kb: dict[str, int] = {}
        self.oracle_arg = None  # largest configuration the oracle saw
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        i = self._open(self._id(name), -1)
        try:
            yield
        finally:
            self._close(i)

    def _open(self, nid: int, tag: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.tag.append(tag)
        self.end.append(0)
        self.extra.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._wrap_count(name, fn)
        nid = self._id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            i = open_(nid, _tag(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        if name in RESULT_SUM:
            self.result_sum[name] = 0
            inner_sum = traced

            def traced(*args, **kwargs):
                result = inner_sum(*args, **kwargs)
                self.result_sum[name] += int(result)
                return result

        if name in RSS_WATCH:
            self.rss_rise_kb[name] = 0
            inner_rss = traced

            def traced(*args, **kwargs):
                before = _maxrss_kb()
                try:
                    return inner_rss(*args, **kwargs)
                finally:
                    self.rss_rise_kb[name] += _maxrss_kb() - before

        if name == ORACLE:
            inner_oracle = traced

            def traced(cfg, *args, **kwargs):
                if self.oracle_arg is None or cfg.N > self.oracle_arg.N:
                    self.oracle_arg = cfg
                return inner_oracle(cfg, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_count(self, name: str, fn):
        self.counts[name] = 0
        self.busy_ns[name] = 0
        counts, busy, extra, stack = self.counts, self.busy_ns, self.extra, self._stack
        clock = time.perf_counter_ns

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                counts[name] += 1
                busy[name] += dt
                if stack[-1] >= 0:
                    extra[stack[-1]] += dt

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every public function of each layer and patch every binding.

        One function can be bound under several module names (for example
        ``observables.triangle_gradients`` is ``configuration``'s); every
        binding in every loaded hardlattice module is replaced, or calls
        through the others would escape the trace.
        """
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"hardlattice.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in INNER
                    or not inspect.isroutine(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "hardlattice" and not modname.startswith("hardlattice."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def save(self, path: str, meta: dict) -> None:
        import numpy as np

        meta = dict(
            meta,
            names=self.names,
            counts=self.counts,
            busy_ns=self.busy_ns,
            result_sum=self.result_sum,
            rss_rise_kb=self.rss_rise_kb,
        )
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                tag=np.frombuffer(self.tag, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=np.int64),
                end=np.frombuffer(self.end, dtype=np.int64),
                extra=np.frombuffer(self.extra, dtype=np.int64),
                meta=np.array(json.dumps(meta)),
            )


def oracle_peak_mb(check, cfg) -> tuple[float, int]:
    """tracemalloc peak (MB, 10**6 bytes) of one exact-oracle call, and its pair-test count.

    ``check`` is the untraced oracle; the pair tests are the calls of
    ``geometry.triangles_overlap`` that survive the bounding-box prefilter.
    """
    from hardlattice import geometry

    original = geometry.triangles_overlap
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    geometry.triangles_overlap = counted
    tracemalloc.start()
    try:
        check(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        geometry.triangles_overlap = original
    return peak / 1e6, calls


def main(argv) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("import"):
        import hardlattice.cli
    tracer.install()
    try:
        code = hardlattice.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.uninstall()
    # Post-pass, outside the traced work: the oracle's tracemalloc peak
    # on the largest configuration it checked.  Tracing every call would
    # slow it several-fold.
    post0 = time.perf_counter()
    peak_mb = 0.0
    if tracer.oracle_arg is not None:
        from hardlattice import configuration

        peak_mb = oracle_peak_mb(configuration.check_omega2_oracle, tracer.oracle_arg)[0]
    post_s = time.perf_counter() - post0
    tracer.save(
        spans_path,
        {"exit_code": code, "post_s": post_s, "oracle_peak_mb": peak_mb},
    )
    return code


# ---------------------------------------------------------------------------
# Reading a spans file
# ---------------------------------------------------------------------------


def load(path: str) -> dict:
    import numpy as np

    with np.load(path, allow_pickle=False) as z:
        trace = {k: z[k] for k in ("name_id", "parent", "tag", "start", "end", "extra")}
        trace["meta"] = json.loads(str(z["meta"]))
    return trace


def summarize(trace: dict) -> dict:
    """Per-name calls, busy and self time (seconds), per-layer self time.

    ``busy`` is the summed duration of a name's spans, ``self`` the part
    no child span or counted call covers.  Count-only functions have
    busy = self.  ``min_self_ns`` is the smallest self time of any span.
    """
    import numpy as np

    meta = trace["meta"]
    names = meta["names"]
    nid, parent = trace["name_id"], trace["parent"]
    dur = trace["end"] - trace["start"]
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    # Integer sums: bincount's float weights are exact below 2**53 ns.
    self_ns = dur - children.astype(np.int64) - trace["extra"]
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    busy = np.bincount(nid, weights=dur, minlength=k)
    self_t = np.bincount(nid, weights=self_ns, minlength=k)
    per_name = {
        name: {"calls": int(calls[i]), "busy_s": busy[i] * 1e-9, "self_s": self_t[i] * 1e-9}
        for i, name in enumerate(names)
    }
    for name, n in meta["counts"].items():
        t = meta["busy_ns"][name] * 1e-9
        per_name[name] = {"calls": n, "busy_s": t, "self_s": t}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in per_name.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += row["self_s"]
    return {
        "per_name": per_name,
        "layer_self_s": layer_self,
        "covered_s": float(dur[~has_parent].sum()) * 1e-9,
        "min_self_ns": int(self_ns.min()) if self_ns.size else 0,
        "tags": {name: trace["tag"][nid == i] for i, name in enumerate(names)},
        "meta": meta,
    }


def stat(summary: dict, name: str, key: str):
    row = summary["per_name"].get(name)
    return row[key] if row is not None else 0


def selfcheck(summary: dict, sweep_calls: int, admissible_calls: int) -> list[str]:
    """Exact invariants of a trace; returns the violations.

    ``kernels.sweep`` runs once per burn-in or sampling sweep of every
    chain, and ``is_admissible`` once per chain start plus once per
    emitted sample.  A binding the wrappers missed shows as a count
    below these.
    """
    problems = []
    got = stat(summary, "kernels.sweep", "calls")
    if got != sweep_calls:
        problems.append(f"kernels.sweep.calls = {got}, expected {sweep_calls}")
    got = stat(summary, "configuration.is_admissible", "calls")
    if got != admissible_calls:
        problems.append(f"configuration.is_admissible.calls = {got}, expected {admissible_calls}")
    if summary["min_self_ns"] < 0:
        problems.append(f"negative self time {summary['min_self_ns']} ns")
    return problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
