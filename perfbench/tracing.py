"""Layer-by-layer span recording, installed from outside the package.

A span is ``[name, start, end, parent, request, stats]``: start and end are
``time.perf_counter()`` readings (the system-wide monotonic clock on Linux,
so spans from different processes share one time axis), ``parent`` is the
index of the enclosing span or None, and ``stats`` holds counts taken at the
same boundary (terms used, unconverged results, quadrature evaluations,
cache hits).  Spans stay in memory and are written out when the traced
process ends.

Layers are the package's modules.  Each listed public function is rebound
in every ``stieltjes.*`` namespace that holds it, because
``from .kernels import f`` copies the binding; the suite table entries, the
ResultCache methods and mpmath's ``mp.quad`` (the dependency boundary, with
its integrand wrapped to count evaluations) are wrapped as well.
``combinatorics.binomial`` stays unwrapped: the Hasse head calls it once per
term, so a span there would cost more than the work it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "constants": ("hasse_gamma", "digamma_hasse_series", "bell_series_gamma",
                  "laurent_oracle", "briggs_gamma"),
    "hurwitz": ("zeta_hasse", "zeta_srivastava_choi", "zeta_fourier",
                "poisson_zeta", "zeta_prime0", "zeta_doubleprime0"),
    "kernels": ("hurwitz_zeta_em", "sum_trig_averaged",
                "integrate_oscillatory", "integrate_adaptive",
                "sum_alternating_accelerated"),
    "gammafuncs": ("log_gamma", "digamma", "polygamma"),
    "fourier": ("kummer_log_gamma", "series_316", "wallis_alternating",
                "deninger_f", "landau_f_functional", "gamma1_fourier",
                "series_325_family", "kolbig_check", "sondow_gamma",
                "lerch_transform"),
}

# Spans that run the Hasse binomial double series (hurwitz._hasse_parts).
HASSE_SPANS = ("constants.hasse_gamma", "constants.digamma_hasse_series",
               "hurwitz.zeta_hasse")

NAME, START, END, PARENT, REQUEST, STATS = range(6)


class Recorder:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.request = 0  # the trig worker sets it per operation
        self._stack = []

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.request, {}])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            _note_result(name, self.spans[idx][STATS], result)
            return result
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _note_result(name, stats, result):
    if name == "cache.get":
        stats["hit"] = int(result is not None)
    elif hasattr(result, "terms_used") and hasattr(result, "converged"):
        stats["terms"] = int(result.terms_used)
        stats["unconverged"] = int(not result.converged)


def install(rec):
    """Wrap every layer of the already importable stieltjes package."""
    import stieltjes  # noqa: F401  (imports every module)
    from mpmath import mp
    from stieltjes import cache, suites

    modules = [m for n, m in list(sys.modules.items())
               if n == "stieltjes" or n.startswith("stieltjes.")]
    for modname, names in LAYERS.items():
        module = sys.modules["stieltjes." + modname]
        for fname in names:
            orig = getattr(module, fname)
            traced = rec.wrap(f"{modname}.{fname}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, traced)
    for sid, fn in list(suites.SUITES.items()):
        suites.SUITES[sid] = rec.wrap(f"suites.{sid}", fn)
    cache.ResultCache.get = rec.wrap("cache.get", cache.ResultCache.get)
    cache.ResultCache.put = rec.wrap("cache.put", cache.ResultCache.put)

    orig_quad = mp.quad

    def quad(f, *args, **kwargs):
        idx = rec.open("mpmath.quad")
        stats = rec.spans[idx][STATS]
        stats["evals"] = 0

        def counted(*xs):
            stats["evals"] += 1
            return f(*xs)

        try:
            return orig_quad(counted, *args, **kwargs)
        finally:
            rec.close(idx)

    mp.quad = quad


# ---------------------------------------------------------------------------
# Analysis: self time, accounting check and per-layer aggregation
# ---------------------------------------------------------------------------

def merge(root_spans, child_spans):
    """Hang each child process's spans below its request span.

    ``root_spans`` are the harness-side request spans, one per process;
    ``child_spans[i]`` lists the spans that process i recorded.  Returns one
    flat list with parent indices renumbered.
    """
    out = [list(s) for s in root_spans]
    for req_idx, spans in enumerate(child_spans):
        offset = len(out)
        for s in spans:
            s = list(s)
            s[PARENT] = req_idx if s[PARENT] is None else s[PARENT] + offset
            s[REQUEST] = root_spans[req_idx][REQUEST]
            out.append(s)
    return out


def self_times(spans):
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        edge = s[START]
        for j in sorted(children[i], key=lambda j: spans[j][START]):
            lo = max(spans[j][START], edge, s[START])
            hi = min(spans[j][END], s[END])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append((s[END] - s[START]) - covered)
    return out


def check_accounting(spans, wall_s, rel_tol=1e-9):
    """Summed self times plus the untraced remainder must equal wall_s.

    The remainder is the part of the timed phase that no root span covers.
    The identity holds only if every child lies inside its parent and
    siblings do not overlap; a violation means spans were mis-nested or
    double counted.  Returns (ok, summed_self, remainder).
    """
    selfs = self_times(spans)
    roots = [s for s in spans if s[PARENT] is None]
    remainder = wall_s - sum(s[END] - s[START] for s in roots)
    total = sum(selfs)
    ok = (remainder >= -rel_tol * wall_s
          and all(v >= -1e-9 for v in selfs)
          and abs(total + remainder - wall_s) <= rel_tol * max(wall_s, 1.0))
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p is not None and (s[START] < spans[p][START] - 1e-9
                              or s[END] > spans[p][END] + 1e-9):
            ok = False
    return ok, total, remainder


def _has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def aggregate(spans):
    """Per-name totals: calls, self_s, terms, unconverged, evals, hits."""
    selfs = self_times(spans)
    agg = {}
    for s, self_s in zip(spans, selfs):
        a = agg.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "terms": 0,
                                     "unconverged": 0, "evals": 0, "hits": 0})
        a["calls"] += 1
        a["self_s"] += self_s
        st = s[STATS]
        a["terms"] += st.get("terms", 0)
        a["unconverged"] += st.get("unconverged", 0)
        a["evals"] += st.get("evals", 0)
        a["hits"] += st.get("hit", 0)
    hasse = {"head_s": 0.0, "tail_quad_s": 0.0, "tail_quad_evals": 0}
    for i, (s, self_s) in enumerate(zip(spans, selfs)):
        if s[NAME] in HASSE_SPANS:
            hasse["head_s"] += self_s
        elif s[NAME] == "mpmath.quad" and _has_ancestor(spans, i, HASSE_SPANS):
            hasse["tail_quad_s"] += s[END] - s[START]
            hasse["tail_quad_evals"] += s[STATS].get("evals", 0)
    return agg, hasse


def layer_metrics(spans, names):
    """Values for the per-layer metric ``names`` from a merged span list.

    ``<layer>.<stat>`` reads the aggregate of span ``<layer>``; the few
    derived names (hasse.*, cache.*, cli.startup_s) are computed here.
    A layer that never ran reports 0.
    """
    agg, hasse = aggregate(spans)
    startup = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == "cli.main" and s[PARENT] is not None:
            startup += s[START] - spans[s[PARENT]][START]
    get = agg.get("cache.get", {})
    hits = get.get("hits", 0)
    misses = get.get("calls", 0) - hits
    derived = {
        "hasse.head_s": hasse["head_s"],
        "hasse.tail_quad_s": hasse["tail_quad_s"],
        "hasse.tail_quad_evals": hasse["tail_quad_evals"],
        "cache.get.hits": hits,
        "cache.get.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.put.writes": agg.get("cache.put", {}).get("calls", 0),
        "cli.startup_s": startup,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
            continue
        layer, _, stat = name.rpartition(".")
        out[name] = agg.get(layer, {}).get(stat, 0)
    return out
