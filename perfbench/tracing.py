"""Per-layer tracing by wrapping the program's functions from outside.

``Tracer.install`` replaces each listed function with a wrapper in every
``concord`` module that binds it (``midground`` imports ``is_consistent`` and
friends by name, so patching the defining module alone would miss calls).
A wrapper with a span name records a span: its start, its end, its parent
and its self time (duration minus the time of its child spans). A wrapper
without one only adds to counters from the call's arguments and result.
Spans stay in memory; ``write`` puts them in a JSON-lines file at the end.
Spans of the first three levels (request, CLI, middle-ground) are all kept;
deeper ones only up to ``FINE_SPANS``, since the middle-ground workload makes
about a million of them per round.
Per-value functions such as ``Combiner.compare_values`` are not wrapped:
millions of calls would measure the wrapper instead of the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict


def _hier_cells(args, kwargs, res) -> int:
    """Statements x canonical levels of the comparison table the call built."""
    stmts, space = args[0], args[1]
    cap = kwargs.get("max_level_size", args[4] if len(args) > 4 else None)
    m, n = len(set(stmts)), space.size
    if not m:
        return 0
    k = n if cap is None else min(n, cap)
    return m * sum(math.comb(n, i) for i in range(1, k + 1))


# (module, function, span name or None, {counter: f(args, kwargs, result)})
TARGETS = (
    ("dsl", "parse", "dsl.parse", {
        "dsl.bytes": lambda a, k, r: len(a[0].encode()),
        "dsl.statements": lambda a, k, r: sum(len(b.statements) for b in r.stakeholders),
    }),
    ("dsl", "to_profile", "dsl.to_profile", {}),
    ("cli", "main", "cli.main", {}),
    ("reasoner", "is_consistent_lex", "reasoner.lex", {}),
    ("reasoner", "_lex_consistent_from_signs", "reasoner.lex", {}),
    ("reasoner", "_lex_greedy", None, {"reasoner.lex_nodes": lambda a, k, r: r[2]}),
    ("reasoner", "sign_matrix", "reasoner.sign_matrix", {
        "reasoner.sign_matrix_cells": lambda a, k, r: int(r[0].size),
    }),
    ("reasoner", "is_consistent_hier", "reasoner.hier", {
        "reasoner.hier_nodes": lambda a, k, r: r.stats.nodes,
        "reasoner.hier_levels_tried": lambda a, k, r: r.stats.levels_tried,
        "reasoner.hier_table_cells": _hier_cells,
    }),
    ("reasoner", "classify", "reasoner.classify", {}),
    ("reasoner", "classify_lex", "reasoner.classify", {}),
    ("reasoner", "is_consistent", "reasoner.dispatch", {}),
    ("reasoner", "entails", "reasoner.entails", {}),
    ("reasoner", "equivalent", "reasoner.equivalent", {}),
    ("midground", "exists_mg_lex", "midground.exists_lex", {}),
    ("midground", "exists_mg_hier", "midground.exists_hier", {
        "midground.exists_pool": lambda a, k, r: r.stats.get("pool", 0),
    }),
    ("midground", "hier_candidates", "midground.candidates", {}),
    ("midground", "construct_mgs", "midground.construct", {
        "midground.language": lambda a, k, r: r.stats.get("language", 0),
        "midground.pool": lambda a, k, r: r.stats.get("pool", 0),
        "midground.classes": lambda a, k, r: r.stats.get("classes", 0),
        "midground.search_nodes": lambda a, k, r: r.stats.get("nodes", 0),
    }),
    ("midground", "check_postulates", "midground.postulates", {}),
    ("oracle", "brute_p5", "oracle.brute_p5", {}),
    ("oracle", "universe_for", None, {"oracle.universe_models": lambda a, k, r: len(r.models)}),
    ("models", "satisfies_set", "models.satisfies_set", {}),
)

# Per-layer metrics: name -> (unit, how to read it from self times s,
# call counts c and counters n).
METRICS = {
    "dsl.parse_s": ("s", lambda s, c, n: s["dsl.parse"]),
    "dsl.parse_calls": ("count", lambda s, c, n: c["dsl.parse"]),
    "dsl.bytes": ("bytes", lambda s, c, n: n["dsl.bytes"]),
    "dsl.statements": ("count", lambda s, c, n: n["dsl.statements"]),
    "dsl.build_s": ("s", lambda s, c, n: s["dsl.to_profile"]),
    "cli.self_s": ("s", lambda s, c, n: s["cli.main"]),
    "cli.requests": ("count", lambda s, c, n: c["cli.main"]),
    "reasoner.lex_s": ("s", lambda s, c, n: s["reasoner.lex"]),
    "reasoner.lex_calls": ("count", lambda s, c, n: c["reasoner.lex"]),
    "reasoner.lex_nodes": ("count", lambda s, c, n: n["reasoner.lex_nodes"]),
    "reasoner.sign_matrix_s": ("s", lambda s, c, n: s["reasoner.sign_matrix"]),
    "reasoner.sign_matrix_calls": ("count", lambda s, c, n: c["reasoner.sign_matrix"]),
    "reasoner.sign_matrix_cells": ("count", lambda s, c, n: n["reasoner.sign_matrix_cells"]),
    "reasoner.hier_s": ("s", lambda s, c, n: s["reasoner.hier"]),
    "reasoner.hier_calls": ("count", lambda s, c, n: c["reasoner.hier"]),
    "reasoner.hier_nodes": ("count", lambda s, c, n: n["reasoner.hier_nodes"]),
    "reasoner.hier_levels_tried": ("count", lambda s, c, n: n["reasoner.hier_levels_tried"]),
    "reasoner.hier_table_cells": ("count", lambda s, c, n: n["reasoner.hier_table_cells"]),
    "reasoner.classify_s": ("s", lambda s, c, n: s["reasoner.classify"]),
    "reasoner.classify_calls": ("count", lambda s, c, n: c["reasoner.classify"]),
    "reasoner.entails_calls": ("count", lambda s, c, n: c["reasoner.entails"]),
    "reasoner.equivalent_calls": ("count", lambda s, c, n: c["reasoner.equivalent"]),
    "reasoner.dispatch_s": ("s", lambda s, c, n: s["reasoner.dispatch"]
                            + s["reasoner.entails"] + s["reasoner.equivalent"]),
    "midground.exists_lex_s": ("s", lambda s, c, n: s["midground.exists_lex"]),
    "midground.exists_hier_s": ("s", lambda s, c, n: s["midground.exists_hier"]),
    "midground.candidates_s": ("s", lambda s, c, n: s["midground.candidates"]),
    "midground.construct_s": ("s", lambda s, c, n: s["midground.construct"]),
    "midground.postulates_s": ("s", lambda s, c, n: s["midground.postulates"]),
    "midground.language": ("count", lambda s, c, n: n["midground.language"]),
    "midground.pool": ("count", lambda s, c, n: n["midground.pool"]),
    "midground.classes": ("count", lambda s, c, n: n["midground.classes"]),
    "midground.search_nodes": ("count", lambda s, c, n: n["midground.search_nodes"]),
    "midground.pool_yield": ("ratio", lambda s, c, n: (
        n["midground.pool"] / n["midground.language"] if n["midground.language"] else 0.0)),
    "midground.exists_pool": ("count", lambda s, c, n: n["midground.exists_pool"]),
    "oracle.brute_p5_s": ("s", lambda s, c, n: s["oracle.brute_p5"]),
    "oracle.brute_p5_calls": ("count", lambda s, c, n: c["oracle.brute_p5"]),
    "oracle.universe_models": ("count", lambda s, c, n: n["oracle.universe_models"]),
    "models.satisfies_set_s": ("s", lambda s, c, n: s["models.satisfies_set"]),
    "models.satisfies_set_calls": ("count", lambda s, c, n: c["models.satisfies_set"]),
}


FINE_SPANS = 50_000


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.keep_spans = True
        self.spans: list[tuple] = []
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [self._next_id, 0.0, name, parent, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        span_id, child, name, parent, t0 = frame
        d = t1 - t0
        self.self_s[name] += d - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += d
        if self.keep_spans:
            if len(self._stack) < 3 or len(self.spans) < FINE_SPANS:
                self.spans.append((span_id, parent, name, t0, t1))
            else:
                self.dropped += 1

    def _wrap(self, fn, name, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.begin(name) if name else None
            try:
                res = fn(*args, **kwargs)
            finally:
                if frame is not None:
                    tracer.end(frame)
            for key, f in counters.items():
                tracer.counts[key] += f(args, kwargs, res)
            return res

        return wrapper

    def install(self) -> None:
        for modname in {t[0] for t in TARGETS}:
            importlib.import_module("concord." + modname)
        mods = [m for k, m in sys.modules.items() if k == "concord" or k.startswith("concord.")]
        for modname, fname, span, counters in TARGETS:
            original = getattr(sys.modules["concord." + modname], fname)
            wrapped = self._wrap(original, span, counters)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> tuple[dict, Counter, Counter]:
        return dict(self.self_s), Counter(self.calls), Counter(self.counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def layer_metrics(setup, total, rounds: int) -> dict[str, tuple[float, str]]:
    """Metrics for one set-up plus one round: the set-up's share once, and the
    rounds' share averaged over ``rounds``."""
    def combine(i, zero):
        out = defaultdict(zero)
        for key in set(setup[i]) | set(total[i]):
            once = setup[i].get(key, 0)
            out[key] = once + (total[i].get(key, 0) - once) / rounds
        return out

    s, c, n = combine(0, float), combine(1, float), combine(2, float)
    return {name: (f(s, c, n), unit) for name, (unit, f) in METRICS.items()}
