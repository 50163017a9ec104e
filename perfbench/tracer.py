"""Per-layer tracing from outside the library.

`Tracer.install()` wraps the public functions of each `adelicdyn` module
and rebinds every name that refers to them, in every `adelicdyn.*`
namespace: the modules import each other's functions by name
(`from .exact import is_prime`), so a wrapper installed only where a
function is defined would miss the calls between layers.  Methods are
wrapped on `MoebiusMap`.

Each call records a span (name, start, end, parent, operation id).  Spans
stay in memory and are written out once at the end; calls and self time
(the span's duration minus the time its child spans cover) are summed as
the spans close.  Totals are kept in a plain dict of sums and maxima so
the summaries of several processes merge by addition and `max`.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

#: The traced functions, by layer.  `errors` does no work and `cli` is
#: measured by wall time instead (see run.py).
LAYER_FUNCTIONS = {
    "exact": ("factorize", "is_prime", "primes_upto", "parse_rational"),
    "padic": ("place_norm", "padic_norm", "valuation"),
    "moebius": ("apply", "power", "compose", "derivative_at", "fixed_points"),
    "classification": (
        "adelic_report",
        "case_predicted_report",
        "recognize_case",
        "classify_at_place",
        "audit_cofinite_indifference",
        "exceptional_primes",
    ),
    "dynamics": (
        "iterate_at_place",
        "detect_behavior",
        "basin_sample",
        "step_adele",
        "principal_adele",
        "verify_product_formula",
    ),
}
MOEBIUS_METHODS = ("apply", "power", "compose", "derivative_at")

#: Operand bit-length bins for `moebius.apply`: (label, exclusive upper end).
APPLY_BINS = (
    ("bits_lt_256", 256),
    ("bits_256_2k", 2048),
    ("bits_2k_8k", 8192),
    ("bits_ge_8k", None),
)
TERMINATIONS = ("converged", "max_steps", "pole_hit", "overflow_guard")

#: Spans kept for the written trace; later spans still count in the totals.
MAX_SPANS = 100_000


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.op = 0
        #: off while the benchmark checks outputs with library calls
        self.enabled = True
        self.spans: list[tuple[str, int, int, int, int, int]] = []
        self.dropped = 0
        self.raw: dict[str, dict[str, float]] = {"sum": {}, "max": {}}
        self._stack: list[list] = []
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []
        self._is_prime = None
        self._primes_upto = None

    # -- counters ---------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        sums = self.raw["sum"]
        sums[key] = sums.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        maxima = self.raw["max"]
        if value > maxima.get(key, 0):
            maxima[key] = value

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][3] if stack else -1
            frame = [name, clock(), 0, span_id]
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.add(name + ".calls")
                self.add(name + ".self_ns", duration - frame[2])
                if len(self.spans) < self.max_spans:
                    self.spans.append((name, frame[1], end, parent, span_id, self.op))
                else:
                    self.dropped += 1
                if observe is not None:
                    observe(self, args, result, exc, duration)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function in every loaded adelicdyn namespace."""
        import adelicdyn
        from adelicdyn import exact, moebius

        self._is_prime = exact.is_prime
        self._primes_upto = exact.primes_upto
        namespaces = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "adelicdyn" or key.startswith("adelicdyn.")
        ]
        for layer, names in LAYER_FUNCTIONS.items():
            module = getattr(adelicdyn, layer)
            for fname in names:
                if layer == "moebius" and fname in MOEBIUS_METHODS:
                    continue
                original = getattr(module, fname)
                wrapper = self.wrap(
                    f"{layer}.{fname}", original, _OBSERVERS.get(f"{layer}.{fname}")
                )
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._originals.append((namespace, attr, value))
                            setattr(namespace, attr, wrapper)
        cls = moebius.MoebiusMap
        for fname in MOEBIUS_METHODS:
            original = cls.__dict__[fname]
            self._originals.append((cls, fname, original))
            setattr(
                cls,
                fname,
                self.wrap(f"moebius.{fname}", original, _OBSERVERS.get(f"moebius.{fname}")),
            )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._originals):
            setattr(owner, attr, value)
        self._originals.clear()

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        """Mergeable totals, with the primality caches read at the end."""
        out = {"sum": dict(self.raw["sum"]), "max": dict(self.raw["max"])}
        if self._is_prime is not None:
            for key, cached in (
                ("exact.is_prime", self._is_prime),
                ("exact.primes_upto", self._primes_upto),
            ):
                info = cached.cache_info()
                out["sum"][key + ".cache_hits"] = info.hits
                out["sum"][key + ".cache_misses"] = info.misses
                out["max"][key + ".cache_size"] = info.currsize
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "id", "op"],
            "dropped": self.dropped,
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc))


# -- observers: counts taken where the work happens ------------------------


def _observe_apply(tracer, args, result, exc, duration):
    bits = _bits(args[1]) if hasattr(args[1], "denominator") else 0
    for label, upper in APPLY_BINS:
        if upper is None or bits < upper:
            tracer.add(f"moebius.apply.ns.{label}", duration)
            tracer.add(f"moebius.apply.n.{label}", 1)
            return


def _observe_power(tracer, args, result, exc, duration):
    if result is not None:
        tracer.peak(
            "moebius.power.max_entry_bits",
            max(_bits(x) for x in result.coefficients()),
        )


def _observe_iterate(tracer, args, result, exc, duration):
    if result is None:
        return
    tracer.add("dynamics.orbit.steps", len(result.steps) - 1)
    tracer.peak("dynamics.orbit.max_bits", max(_bits(s.x) for s in result.steps))
    tracer.add(f"dynamics.termination.{result.terminated_by.value}")


def _count_verdicts(tracer, kinds) -> None:
    for kind in kinds:
        tracer.add("dynamics.verdict.points")
        if kind.value != "undetermined":
            tracer.add("dynamics.verdict.decided")


def _observe_detect(tracer, args, result, exc, duration):
    # verdicts inside a sweep are counted once, from the sweep's points
    if result is not None and not tracer.inside("dynamics.basin_sample"):
        _count_verdicts(tracer, [result.kind])


def _observe_basin(tracer, args, result, exc, duration):
    if result is not None:
        _count_verdicts(tracer, [point.verdict.kind for point in result])


def _observe_step_adele(tracer, args, result, exc, duration):
    if exc is not None:
        tracer.add("dynamics.step_adele.failed")
    elif result is not None:
        tracer.peak("dynamics.adele.max_listed_primes", len(result.finite))


def _observe_factorize(tracer, args, result, exc, duration):
    tracer.peak("exact.factorize.max_input_bits", abs(args[0]).bit_length())
    if exc is not None and type(exc).__name__ == "FactorizationIncomplete":
        tracer.add("exact.factorize.incomplete")


_OBSERVERS = {
    "moebius.apply": _observe_apply,
    "moebius.power": _observe_power,
    "dynamics.iterate_at_place": _observe_iterate,
    "dynamics.detect_behavior": _observe_detect,
    "dynamics.basin_sample": _observe_basin,
    "dynamics.step_adele": _observe_step_adele,
    "exact.factorize": _observe_factorize,
}


def merge(summaries) -> dict:
    total = {"sum": {}, "max": {}}
    for summary in summaries:
        for key, value in summary["sum"].items():
            total["sum"][key] = total["sum"].get(key, 0) + value
        for key, value in summary["max"].items():
            total["max"][key] = max(total["max"].get(key, 0), value)
    return total


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from merged totals."""
    sums, maxima = summary["sum"], summary["max"]
    out: dict[str, tuple[float, str]] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for fname in names:
            key = f"{layer}.{fname}"
            out[key + ".calls"] = (sums.get(key + ".calls", 0), "count")
            out[key + ".self_s"] = (sums.get(key + ".self_ns", 0) / 1e9, "s")
    for label, _ in APPLY_BINS:
        n = sums.get(f"moebius.apply.n.{label}", 0)
        ns = sums.get(f"moebius.apply.ns.{label}", 0)
        out[f"moebius.apply.ns_per_call.{label}"] = (ns / n if n else 0.0, "ns")
    out["moebius.power.max_entry_bits"] = (maxima.get("moebius.power.max_entry_bits", 0), "bits")
    out["dynamics.orbit.steps"] = (sums.get("dynamics.orbit.steps", 0), "count")
    out["dynamics.orbit.max_bits"] = (maxima.get("dynamics.orbit.max_bits", 0), "bits")
    for reason in TERMINATIONS:
        key = f"dynamics.termination.{reason}"
        out[key] = (sums.get(key, 0), "count")
    points = sums.get("dynamics.verdict.points", 0)
    decided = sums.get("dynamics.verdict.decided", 0)
    out["dynamics.verdict.decided_ratio"] = (decided / points if points else 0.0, "ratio")
    out["dynamics.step_adele.failed"] = (sums.get("dynamics.step_adele.failed", 0), "count")
    out["dynamics.adele.max_listed_primes"] = (
        maxima.get("dynamics.adele.max_listed_primes", 0),
        "count",
    )
    out["exact.factorize.incomplete"] = (sums.get("exact.factorize.incomplete", 0), "count")
    out["exact.factorize.max_input_bits"] = (
        maxima.get("exact.factorize.max_input_bits", 0),
        "bits",
    )
    hits = sums.get("exact.is_prime.cache_hits", 0)
    lookups = hits + sums.get("exact.is_prime.cache_misses", 0)
    out["exact.is_prime.cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["exact.is_prime.cache_size"] = (maxima.get("exact.is_prime.cache_size", 0), "count")
    out["exact.primes_upto.cache_size"] = (
        maxima.get("exact.primes_upto.cache_size", 0),
        "count",
    )
    return out
