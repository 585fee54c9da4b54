"""Tracing for the benchmark's traced run, installed from outside lsgreen.

Callers hold their own references to lsgreen's functions (``springer``
imports ``solve`` from ``greensolver``, ``RatFunc`` looks ``poly_gcd`` up as
a global of ``exactalg``, ``__rmul__`` is a class-time alias of ``__mul__``),
so a wrapper replaces an original under every name that is bound to it in
every ``lsgreen`` module and class, and ``uninstall`` puts each one back.

Layer boundaries record spans (name, start, end, parent) kept in memory
until the pass ends.  The arithmetic kernel is called about a million
times a pass, so it records counters, a timer for ``poly_gcd`` and a
seeded reservoir sample of operands instead; kernel calls are not spans,
so a layer's self time includes the arithmetic it does inline.  Times are
read from ``clock``: in the worker, the thread's CPU time without the
reference bursts (see ``reference.py``), not scaled.
"""
from __future__ import annotations

import math
import random
import sys
import time
from collections import Counter, defaultdict

from lsgreen import cli, dihedral, exactalg, fakedegree, greensolver, sprefatlas, springer
from lsgreen.errors import SingularBlock

CONDITIONS = ("a-values-from-b", "specials-are-springer", "family-support",
              "integrality", "row-divisibility")
SAMPLE_SIZE = 1000
REPLAY_MIN_S = 0.3

_MARK = "__perfbench_wrapper__"


def _lsgreen_namespaces():
    """Every module and class dict in lsgreen that can hold a binding."""
    for name, mod in list(sys.modules.items()):
        if name == "lsgreen" or name.startswith("lsgreen."):
            yield mod
            for val in list(vars(mod).values()):
                if isinstance(val, type) and val.__module__ == name:
                    yield val


def installed_wrappers() -> list[str]:
    """Names in lsgreen currently bound to a benchmark wrapper."""
    return [
        f"{getattr(ns, '__name__', ns)}.{attr}"
        for ns in _lsgreen_namespaces()
        for attr, val in list(vars(ns).items())
        if getattr(val, _MARK, False)
    ]


def bindings_snapshot() -> dict:
    """(namespace, attribute) -> bound object, for the restoration check."""
    return {
        (f"{ns.__module__}.{ns.__qualname__}" if isinstance(ns, type) else ns.__name__,
         attr): val
        for ns in _lsgreen_namespaces()
        for attr, val in list(vars(ns).items())
        if callable(val)
    }


class Reservoir:
    """Seeded uniform sample of ``size`` items from a stream (Algorithm L),
    which draws random numbers only when it keeps an item."""

    def __init__(self, rng: random.Random, size: int = SAMPLE_SIZE):
        self.rng, self.size = rng, size
        self.items: list = []
        self.seen = 0
        self.next = 0
        self.w = 1.0

    def offer(self, item):
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            if len(self.items) == self.size:
                self._skip()
        elif self.seen == self.next:
            self.items[self.rng.randrange(self.size)] = item
            self._skip()

    def _skip(self):
        self.w *= math.exp(math.log(self.rng.random()) / self.size)
        self.next = self.seen + int(math.log(self.rng.random()) / math.log1p(-self.w)) + 1


class Tracer:
    def __init__(self, seed: int, clock=time.process_time):
        self.clock = clock
        self.active = False
        self.spans: list[tuple[str, float, float, int]] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.gcd_s = 0.0
        rng = random.Random(seed)
        self.samples = {k: Reservoir(rng) for k in ("intpoly_mul", "poly_gcd", "cyclonum_mul")}
        self._patches: list[tuple[object, str, object]] = []
        self._omega_cache0 = None  # omega's lru statistics when start() ran
        self.originals = {
            "intpoly_mul": exactalg.IntPoly.__mul__,
            "cyclonum_mul": exactalg.CycloNum.__mul__,
            "poly_gcd": exactalg.poly_gcd,
        }

    # -- spans ---------------------------------------------------------------

    def _span(self, name: str, fn, on_result=None, on_error=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _enumerate(self, fn):
        """Candidate generator whose every ``next`` is a span."""
        def gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            step = self._span("springer.enumerate", it.__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                if self.active:
                    self.counters["springer.candidates.count"] += 1
                yield item

        setattr(gen, _MARK, True)
        return gen

    # -- kernel counters -----------------------------------------------------

    def _kernel_mul(self, kind: str, fn):
        counters, sample = self.counters, self.samples[kind].offer
        key = f"exactalg.{kind}.calls"

        def wrapper(a, b):
            if self.active:
                counters[key] += 1
                sample((a, b))
            return fn(a, b)

        setattr(wrapper, _MARK, True)
        return wrapper

    def _gcd(self, fn):
        counters, sample, clock = self.counters, self.samples["poly_gcd"].offer, self.clock

        def wrapper(a, b):
            if not self.active:
                return fn(a, b)
            counters["exactalg.poly_gcd.calls"] += 1
            sample((a, b))
            start = clock()
            try:
                return fn(a, b)
            finally:
                self.gcd_s += clock() - start

        setattr(wrapper, _MARK, True)
        return wrapper

    def _ratfunc_init(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            if self.active:
                counters["exactalg.ratfunc_new.calls"] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- outcome hooks -------------------------------------------------------

    def _on_search(self, outcome):
        self.counters["springer.accepted.count"] += len(outcome.hits)

    def _on_report(self, report):
        for check in report.checks:
            if not check.passed:
                self.counters[f"springer.rejected.{check.name}"] += 1

    def _on_solve_error(self, exc):
        if isinstance(exc, SingularBlock):
            self.counters["greensolver.singular.count"] += 1

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, original, wrapper):
        for ns in _lsgreen_namespaces():
            for attr, val in list(vars(ns).items()):
                if val is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def install(self):
        span = self._span
        for name, fn in (
            ("greensolver.matrix_solve", exactalg.matrix_solve),
            ("greensolver.verify_system", greensolver.verify_system),
            ("fakedegree.omega_sum", fakedegree.omega_sum),
            ("fakedegree.omega_closed", fakedegree.omega_closed),
            ("fakedegree.fake_degree_sum", fakedegree.fake_degree_sum),
            ("fakedegree.check_symmetry", fakedegree.check_symmetry),
            ("dihedral.char_table", dihedral.char_table),
            ("sprefatlas.verify_spref_via_induction", sprefatlas.verify_spref_via_induction),
            ("sprefatlas.atlas_check", sprefatlas.atlas_check),
            ("cli.main", cli.main),
            ("cli.render", cli.render_json),
            ("cli.render", greensolver.datum_to_jsonable),
            # computation that system_to_jsonable calls; spans of their own
            # keep it out of cli.render's self time
            ("greensolver.closure_order", greensolver.closure_order),
            ("springer.special_pieces", springer.special_pieces),
            ("springer.rational_smoothness", springer.rational_smoothness),
        ):
            self._patch(fn, span(name, fn))
        for attr, fn in list(vars(cli).items()):
            if attr.endswith("_to_jsonable") and fn.__module__ == cli.__name__:
                self._patch(fn, span("cli.render", fn))
        self._patch(greensolver.solve, span("greensolver.solve", greensolver.solve,
                                            on_error=self._on_solve_error))
        self._patch(springer.search, span("springer.search", springer.search,
                                          on_result=self._on_search))
        self._patch(springer.check_conditions,
                    span("springer.check_conditions", springer.check_conditions,
                         on_result=self._on_report))
        self._patch(springer.enumerate_candidate_data,
                    self._enumerate(springer.enumerate_candidate_data))
        for kind in ("intpoly_mul", "cyclonum_mul"):
            self._patch(self.originals[kind], self._kernel_mul(kind, self.originals[kind]))
        self._patch(exactalg.poly_gcd, self._gcd(exactalg.poly_gcd))
        self._patch(exactalg.RatFunc.__init__, self._ratfunc_init(exactalg.RatFunc.__init__))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def start(self):
        """Record from here on (the wrappers pass calls straight through
        while stopped, so the benchmark's own checks are not counted)."""
        self._omega_cache0 = fakedegree.omega.cache_info()
        self.active = True

    def stop(self):
        self.active = False
        info = fakedegree.omega.cache_info()
        self.counters["fakedegree.omega.cache_hits"] += info.hits - self._omega_cache0.hits
        self.counters["fakedegree.omega.cache_misses"] += info.misses - self._omega_cache0.misses

    # -- results ---------------------------------------------------------------

    def replay(self) -> dict[str, float]:
        """Microseconds per operation of each kernel on its sampled operands,
        run through the originals with the wrappers removed."""
        out = {}
        for kind, res in self.samples.items():
            fn, pairs = self.originals[kind], res.items
            if not pairs:
                out[kind] = 0.0
                continue
            rounds, start = 0, time.process_time()
            while True:
                for a, b in pairs:
                    fn(a, b)
                rounds += 1
                elapsed = time.process_time() - start
                if elapsed >= REPLAY_MIN_S and rounds >= 3:
                    break
            out[kind] = elapsed / (rounds * len(pairs)) * 1e6
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the spans and counters of the pass."""
        child_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: Counter = Counter()
        total_s: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[idx]
            # a span nested in one of the same name is already covered
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total_s[name] += end - start
        c = self.counters
        candidates = c["springer.candidates.count"]
        replay = self.replay()
        metrics = {
            "exactalg.intpoly_mul.calls": c["exactalg.intpoly_mul.calls"],
            "exactalg.ratfunc_new.calls": c["exactalg.ratfunc_new.calls"],
            "exactalg.poly_gcd.calls": c["exactalg.poly_gcd.calls"],
            "exactalg.poly_gcd.s": self.gcd_s,
            "exactalg.cyclonum_mul.calls": c["exactalg.cyclonum_mul.calls"],
            "exactalg.intpoly_mul.us_per_op": replay["intpoly_mul"],
            "exactalg.poly_gcd.us_per_op": replay["poly_gcd"],
            "exactalg.cyclonum_mul.us_per_op": replay["cyclonum_mul"],
            "greensolver.solve.calls": calls["greensolver.solve"],
            "greensolver.solve.s": total_s["greensolver.solve"],
            "greensolver.solve.self_s": self_s["greensolver.solve"],
            "greensolver.matrix_solve.calls": calls["greensolver.matrix_solve"],
            "greensolver.matrix_solve.s": total_s["greensolver.matrix_solve"],
            "greensolver.verify_system.s": total_s["greensolver.verify_system"],
            "greensolver.singular.count": c["greensolver.singular.count"],
            "springer.search.calls": calls["springer.search"],
            "springer.search.self_s": self_s["springer.search"],
            "springer.enumerate.s": total_s["springer.enumerate"],
            "springer.candidates.count": candidates,
            "springer.check_conditions.calls": calls["springer.check_conditions"],
            "springer.check_conditions.s": total_s["springer.check_conditions"],
            **{f"springer.rejected.{n}": c[f"springer.rejected.{n}"] for n in CONDITIONS},
            "springer.accept_ratio": (
                c["springer.accepted.count"] / candidates if candidates else 0.0),
            "fakedegree.omega_sum.s": total_s["fakedegree.omega_sum"],
            "fakedegree.fake_degree_sum.calls": calls["fakedegree.fake_degree_sum"],
            "fakedegree.fake_degree_sum.s": total_s["fakedegree.fake_degree_sum"],
            "fakedegree.check_symmetry.s": total_s["fakedegree.check_symmetry"],
            "fakedegree.omega.cache_hits": c["fakedegree.omega.cache_hits"],
            "fakedegree.omega.cache_misses": c["fakedegree.omega.cache_misses"],
            "fakedegree.omega_closed.s": total_s["fakedegree.omega_closed"],
            "dihedral.char_table.s": total_s["dihedral.char_table"],
            "sprefatlas.verify_spref_via_induction.s":
                total_s["sprefatlas.verify_spref_via_induction"],
            "sprefatlas.atlas_check.s": total_s["sprefatlas.atlas_check"],
            "cli.main.self_s": self_s["cli.main"],
            # render_json and *_to_jsonable without the computation they call
            "cli.render.s": self_s["cli.render"],
        }
        return metrics
