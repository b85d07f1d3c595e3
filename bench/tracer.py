"""Outside-in tracing of nchilbert's layers, from the benchmark's own code.

`Tracer.install()` replaces each function in `HOOKS` by a wrapper. It
patches every attribute of every loaded `nchilbert` module that binds the
function (so `nchilbert.groebner.eliminate_univariate` and
`nchilbert.csys.eliminate_univariate` both), and the class attribute for a
method. Nothing under `src/` changes. `uninstall()` puts the originals back.

A timed hook opens a span with a name, start, end and parent. When the span
closes, its self time (its duration minus the time its child spans cover) is
added to the per-name total, and its duration is charged to its parent.
Spans are folded into these totals as they close rather than kept, so a pass
with 10^5 reductions costs no memory.

A counting hook only counts calls. It is used for the Q(t) kernel methods,
which run inside every layer: as spans they would take their time out of the
self time of the layer that called them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


def _zero(result):
    return 0 if result else 1


def _states(handle):
    return handle.dfa.n_states


@dataclass(frozen=True)
class Hook:
    name: str  # span or counter name: "<layer>.<function>"
    module: str  # nchilbert submodule that defines the function
    attr: str  # "function" or "Class.method"
    timed: bool = True
    counter: str = None  # counter fed from the result, if any
    measure: object = None  # result -> amount added to `counter`


def _sized(name, module, attr, counter):
    return Hook(name, module, attr, True, counter, len)


HOOKS = (
    _sized("grammar.enumerate_words", "grammar", "enumerate_words", "grammar.words_enumerated"),
    Hook("grammar.count_derivations", "grammar", "count_derivations"),
    Hook("grammar.certify_unambiguous", "grammar", "certify_unambiguous"),
    Hook("csys.gamma_algebraic", "csys", "gamma_algebraic"),
    Hook("csys.build_system", "csys", "build_system"),
    _sized("groebner.buchberger_lex", "groebner", "buchberger_lex", "groebner.basis_size"),
    Hook("groebner.assert_groebner", "groebner", "assert_groebner"),
    Hook("groebner.reduce_poly", "groebner", "reduce_poly", True, "groebner.reduce_poly.zeros", _zero),
    Hook("newton.newton_series", "newton", "newton_series"),
    Hook("homology.hilbert_from_homology", "homology", "hilbert_from_homology"),
    Hook("homology.govorov_chains_trunc", "homology", "govorov_chains_trunc"),
    Hook("homology.chains_finite", "homology", "chains_finite"),
    Hook("homology.hilbert_oracle", "homology", "hilbert_oracle"),
    Hook("homology.count_normal", "homology", "count_normal"),
    _sized("words.trunc_ideal", "words", "trunc_ideal", "words.words_materialised"),
    _sized("words.trunc_product", "words", "trunc_product", "words.words_materialised"),
    _sized("words.full_language", "words", "full_language", "words.words_materialised"),
    _sized("words.trunc_boolean", "words", "trunc_boolean", "words.words_materialised"),
    _sized("gsb.gs_complete", "gsb", "gs_complete", "gsb.basis_size"),
    Hook("gsb.nc_reduce", "gsb", "nc_reduce", True, "gsb.nc_reduce.zeros", _zero),
    Hook("regular.ideal_automaton", "regular", "ideal_automaton", True, "regular.dfa_states", _states),
    Hook("ratfunc.gcd", "ratfunc", "QPoly.gcd", timed=False),
    Hook("ratfunc.series", "ratfunc", "RationalFunction.series", timed=False),
    Hook("multipoly.eval_series", "multipoly", "RatPoly.eval_series", timed=False),
)

_NAMES = {h.name for h in HOOKS}
_TIMED = {h.name for h in HOOKS if h.timed}
_COUNTERS = {h.counter for h in HOOKS if h.counter}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.start = time.perf_counter()
        self.end = None


def _library_namespaces():
    """Every loaded nchilbert module and every class defined in one."""
    mods = [m for n, m in sys.modules.items() if n == "nchilbert" or n.startswith("nchilbert.")]
    classes = {
        id(v): v
        for m in mods
        for v in vars(m).values()
        if isinstance(v, type) and (v.__module__ or "").startswith("nchilbert")
    }
    return mods + list(classes.values())


class Tracer:
    def __init__(self):
        self.current = None  # innermost open span
        self.self_s = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self._patched = []  # (namespace, attribute, original)

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()

    def _wrap(self, hook, fn):
        tracer = self

        if not hook.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[hook.name] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = Span(hook.name, tracer.current)
            tracer.current = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                duration = span.end - span.start
                tracer.current = span.parent
                tracer.self_s[hook.name] += duration - span.child_s
                tracer.calls[hook.name] += 1
                if span.parent is not None:
                    span.parent.child_s += duration
            if hook.counter:
                tracer.counters[hook.counter] += hook.measure(result)
            return result
        return spanned

    def install(self):
        """Wrap every binding of every hooked function in the library."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = _library_namespaces()
        for hook in HOOKS:
            owner = sys.modules["nchilbert." + hook.module]
            *path, leaf = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                self.uninstall()
                raise LookupError("hooked function nchilbert.%s.%s not found" % (hook.module, hook.attr))
            wrapper = self._wrap(hook, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._patched.append((ns, key, original))

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def value(self, metric):
        """One per-layer metric by name: `<span>.self_s`, `<span>.calls`,
        `<span>.zero_frac` (share of calls returning zero) or a counter.
        Raises KeyError for a name that no hook feeds."""
        stem, _, kind = metric.rpartition(".")
        if kind == "self_s" and stem in _TIMED:
            return self.self_s[stem]
        if kind == "calls" and stem in _NAMES:
            return self.calls[stem]
        if kind == "zero_frac" and stem + ".zeros" in _COUNTERS:
            calls = self.calls[stem]
            return self.counters[stem + ".zeros"] / calls if calls else 0.0
        if metric in _COUNTERS:
            return self.counters[metric]
        raise KeyError("no hook feeds the per-layer metric %r" % metric)
