"""Per-layer spans recorded from outside the program.

`Tracer.install` rebinds each traced public function, in every `gtkit`
module that holds it, to a wrapper that records a span: calls, and self time
(the span's duration minus the time its child spans cover). A function
imported by name into several modules must be rebound in each of them, or
the calls made through the other names go uncounted; the cache-consistency
and zero-call guards report such misses. Nothing under `src/` changes.

Wrapping costs time on every call, so traced numbers attribute time between
layers; they do not measure it. End-to-end figures come from untraced runs.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) of every traced function, named "<module>.<attribute>".
FUNCTIONS = (
    ("cli", "main"),
    ("reldim", "link_row"),
    ("qlinks", "q_link_row"),
    ("verify", "bench_table"),
    ("linalg", "det"),
    ("reldim", "A_coeff"),
    ("qlinks", "qA_coeff"),
    ("reldim", "rel_dim_ratio"),
    ("qlinks", "q_rel_dim_ratio"),
    ("qlinks", "q_prefactor"),
    ("patterns", "support_box"),
    ("patterns", "dim_product"),
    ("patterns", "q_dim"),
    ("patterns", "rel_dim_table"),
    ("patterns", "enumerate_trapezoids"),
    ("patterns", "q_dim_oracle"),
    ("patterns", "q_rel_dim_oracle"),
    ("reldim", "bo_coefficient"),
    ("qlinks", "psi_T"),
    ("qlinks", "general_q_ratio"),
    ("schur", "schur_bialternant"),
    ("schur", "h_at_q_powers"),
    ("qtoeplitz", "B_entry"),
    ("qtoeplitz", "qA_infinity"),
    ("qtoeplitz", "b_generating_check"),
    ("boundary", "phi_coeffs"),
    ("boundary", "a_coeff_quadrature"),
    ("boundary", "link_infinity"),
    ("boundary", "uat_gap"),
)
GENERATORS = {"patterns.support_box", "patterns.enumerate_trapezoids"}
CACHED = {"reldim.A_coeff", "qlinks.qA_coeff", "qlinks.psi_T"}
CONSTRUCTORS = (("reldim", "LinkRow"),)  # classes whose __init__ is the span


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "items", "raised", "bits", "entries")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.items = 0  # kappas yielded, weights validated or checks run
        self.raised = 0  # budget refusals
        self.bits = 0  # determinant entry bits
        self.entries = 0  # determinant entries


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list = []  # one [child seconds] cell per open span
        self._undo: list = []
        self._originals: dict = {}
        self._cache_base: dict = {}
        self._suites: list = []
        self.missing: list = []

    # -- span recording -----------------------------------------------------

    def _wrap_call(self, name, fn, before=None, after=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_hook = clock()
            if before is not None:
                before(stat, args)
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if type(err).__name__ == "BudgetExceededError":
                    stat.raised += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                stat.calls += 1
                stat.total_s += t1 - t0
                stat.self_s += t1 - t0 - cell[0]
                if stack:
                    # the hook's cost is charged to no span's self time
                    stack[-1][0] += t1 - t_hook
            if after is not None:
                after(stat, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_generator(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    cell = [0.0]
                    stack.append(cell)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except BaseException as err:
                        if type(err).__name__ == "BudgetExceededError":
                            stat.raised += 1
                        raise
                    finally:
                        t1 = clock()
                        stack.pop()
                        stat.total_s += t1 - t0
                        stat.self_s += t1 - t0 - cell[0]
                        if stack:
                            stack[-1][0] += t1 - t0
                    stat.items += 1
                    yield item
            finally:
                inner.close()

        return functools.update_wrapper(wrapper, fn)

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every gtkit module name bound to `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "gtkit" or mod_name.startswith("gtkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        import gtkit.cli  # noqa: F401  (loads every module that gets rebound)
        import gtkit.verify

        for mod_name, attr in FUNCTIONS:
            name = f"{mod_name}.{attr}"
            original = getattr(sys.modules[f"gtkit.{mod_name}"], attr, None)
            if original is None:
                self.missing.append(name)
                self.stats.setdefault(name, Stat())
                continue
            self._originals[name] = original
            if name in CACHED and hasattr(original, "cache_info"):
                info = original.cache_info()
                self._cache_base[name] = (info.hits, info.misses)
            if name in GENERATORS:
                wrapper = self._wrap_generator(name, original)
            elif name == "linalg.det":
                wrapper = self._wrap_call(name, original, before=_det_shape)
            else:
                wrapper = self._wrap_call(name, original)
            self._rebind(original, wrapper)

        for mod_name, attr in CONSTRUCTORS:
            cls = getattr(sys.modules[f"gtkit.{mod_name}"], attr)
            init = cls.__init__
            cls.__init__ = self._wrap_call(f"{mod_name}.{attr}", init, before=_count_weights)
            self._undo.append((cls, "__init__", init))

        suites = gtkit.verify.SUITES
        for suite, fn in list(suites.items()):
            self._suites.append(f"verify.{suite}")
            suites[suite] = self._wrap_call(f"verify.{suite}", fn, after=_count_checks)
            self._undo.append((suites, suite, fn))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def cache_counts(self) -> dict:
        """{name: (hits, misses)} since install, read from the caches themselves."""
        out = {}
        for name, (hits, misses) in self._cache_base.items():
            info = self._originals[name].cache_info()
            out[name] = (info.hits - hits, info.misses - misses)
        return out

    def metrics(self) -> dict:
        out = {}
        for name, stat in self.stats.items():
            if name in self._suites:
                out[f"{name}.s"] = stat.self_s
                out[f"{name}.total_s"] = stat.total_s
                out[f"{name}.checks"] = stat.items
                continue
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s" if name == "cli.main" else f"{name}.s"] = stat.self_s
        det = self.stats["linalg.det"]
        out["linalg.det.size_mean"] = det.items / det.calls if det.calls else 0.0
        out["linalg.det.entry_bits_mean"] = det.bits / det.entries if det.entries else 0.0
        for name, (hits, misses) in self.cache_counts().items():
            out[f"{name}.misses"] = misses
            out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["patterns.support_box.kappas"] = self.stats["patterns.support_box"].items
        out["reldim.LinkRow.entries"] = self.stats["reldim.LinkRow"].items
        out["patterns.rel_dim_table.refused"] = self.stats["patterns.rel_dim_table"].raised
        return out

    def problems(self, expected_spans) -> list:
        """Missed-call reports: targets absent from the program, cached
        functions called past their wrapper, and expected spans with no calls."""
        out = [f"{name}: not found in gtkit, so it cannot be traced" for name in self.missing]
        for name, (hits, misses) in self.cache_counts().items():
            if hits + misses != self.stats[name].calls:
                out.append(
                    f"{name}: the cache saw {hits + misses} calls but the trace saw "
                    f"{self.stats[name].calls}; a caller holds a name that was not rebound"
                )
        for span in expected_spans:
            stat = self.stats.get(span)
            if span not in self.missing and (stat is None or stat.calls == 0):
                out.append(f"{span}: expected calls on this workload, recorded zero")
        return out


def _det_shape(stat: Stat, args) -> None:
    rows = args[0]
    stat.items += len(rows)
    for row in rows:
        for x in row:
            stat.bits += x.numerator.bit_length() + x.denominator.bit_length()
            stat.entries += 1


def _count_weights(stat: Stat, args) -> None:
    stat.items += len(args[3])  # LinkRow(self, top, K, weights)


def _count_checks(stat: Stat, results) -> None:
    stat.items += sum(r.checks for r in results)
