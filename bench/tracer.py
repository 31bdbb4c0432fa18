"""In-memory span tracer that wraps tvcount's public functions from outside.

Nothing in the package is edited: ``install`` replaces each traced function
under every name it is looked up by (the package namespace and each module
that imported it by name), plus ``TruncatedPolynomial.__mul__``/``__rmul__``
and ``to_dict`` on the class.  Spans are kept in memory as
``[name, start, end, parent]`` and summarised once the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

MODULES = ("tvcount", "tvcount.cli", "tvcount.counting", "tvcount.cycles", "tvcount.ring", "tvcount.forms")

COUNT = "counting.degree_of_power_sum_locus"
MUL = "ring.mul"
PRODUCT = "counting.product"  # the gamma*beta product made inside a count

# (span name, module that defines the function, attribute)
FUNCTIONS = (
    ("counting.validate", "tvcount.counting", "validate"),
    ("counting.admissible_tuples", "tvcount.counting", "admissible_tuples"),
    (COUNT, "tvcount.counting", "degree_of_power_sum_locus"),
    ("counting.integrate_chern_polynomial", "tvcount.counting", "integrate_chern_polynomial"),
    ("cycles.alpha_classes", "tvcount.cycles", "alpha_classes"),
    ("cycles.gamma_class", "tvcount.cycles", "gamma_class"),
    ("cycles.beta_pushforward", "tvcount.cycles", "beta_pushforward"),
    ("ring.geometric_inverse", "tvcount.ring", "geometric_inverse"),
    ("forms.transvectant", "tvcount.forms", "transvectant"),
    ("cli.main", "tvcount.cli", "main"),
)

# per-layer metric -> span names whose self time it sums
SELF_METRICS = {
    "cli.main_self_ms": ("cli.main",),
    "counting.pairing_ms": (COUNT, PRODUCT),
    "counting.chern_self_ms": ("counting.integrate_chern_polynomial",),
}

# per-layer metric -> span whose whole duration, children included, it sums
TOTAL_METRICS = {
    "counting.validate_ms": "counting.validate",
    "counting.admissible_tuples_ms": "counting.admissible_tuples",
    "cycles.alpha_ms": "cycles.alpha_classes",
    "cycles.gamma_ms": "cycles.gamma_class",
    "cycles.beta_ms": "cycles.beta_pushforward",
    "ring.mul_ms": MUL,
    "ring.geometric_inverse_ms": "ring.geometric_inverse",
    "ring.to_dict_ms": "ring.to_dict",
    "forms.transvectant_ms": "forms.transvectant",
}

COUNT_METRICS = (
    "cycles.gamma_terms",
    "cycles.gamma_max_bits",
    "cycles.beta_terms",
    "counting.product_pairs",
    "ring.mul_calls",
    "ring.mul_pairs",
    "cli.pool_rows",
    "forms.transvectant_calls",
)

ACTIVE: "Tracer | None" = None


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            parent = self.stack[-1] if self.stack else -1
            if name == MUL and parent >= 0 and self.spans[parent][0] == COUNT:
                span_name = PRODUCT
            idx = len(self.spans)
            record = [span_name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self.counts, span_name, args, result)
            return result

        return wrapper

    def _replace(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        """Wrap every traced function under every name it is looked up by."""
        global ACTIVE
        mods = [importlib.import_module(m) for m in MODULES]
        for span, modname, attr in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapped = self._wrap(span, orig, _AFTER.get(span))
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, key, wrapped)
        poly = importlib.import_module("tvcount.ring").TruncatedPolynomial
        for span, attr in ((MUL, "__mul__"), ("ring.to_dict", "to_dict")):
            orig = vars(poly)[attr]
            wrapped = self._wrap(span, orig, _AFTER.get(span))
            for key, value in list(vars(poly).items()):
                if value is orig:
                    self._replace(poly, key, wrapped)
        from concurrent.futures import ProcessPoolExecutor

        self._replace(ProcessPoolExecutor, "map", _pool_map(self, ProcessPoolExecutor.map))
        ACTIVE = self
        return self

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        ACTIVE = None

    def merge(self, spans, counts) -> None:
        """Add spans recorded in another process as separate root trees."""
        base = len(self.spans)
        for name, t0, t1, parent in spans:
            self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1])
        for key, value in counts.items():
            if key == "cycles.gamma_max_bits":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    # -- summary --------------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per span name: duration minus child spans."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: Counter = Counter()
        for (name, t0, t1, _), child in zip(self.spans, covered):
            out[name] += (t1 - t0) - child
        return out

    def total_times(self) -> Counter:
        """Seconds per span name, each span's whole duration."""
        out: Counter = Counter()
        for name, t0, t1, _ in self.spans:
            out[name] += t1 - t0
        return out

    def metrics(self) -> dict:
        selfs, totals = self.self_times(), self.total_times()
        out = {m: 1e3 * sum(selfs[s] for s in names) for m, names in SELF_METRICS.items()}
        out.update({m: 1e3 * totals[s] for m, s in TOTAL_METRICS.items()})
        out.update({m: self.counts[m] for m in COUNT_METRICS})
        return out


def _after_gamma(counts, _name, _args, result):
    counts["cycles.gamma_terms"] += len(result.terms)
    bits = max((abs(c).bit_length() for c in result.terms.values()), default=0)
    counts["cycles.gamma_max_bits"] = max(counts["cycles.gamma_max_bits"], bits)


def _after_beta(counts, _name, _args, result):
    counts["cycles.beta_terms"] += len(result.terms)


def _after_mul(counts, name, args, result):
    if result is NotImplemented:
        return
    counts["ring.mul_calls"] += 1
    counts["ring.mul_pairs"] += _terms(args[0]) * _terms(args[1])
    if name == PRODUCT:
        counts["counting.product_pairs"] += _terms(args[0]) * _terms(args[1])


def _after_transvectant(counts, _name, _args, _result):
    counts["forms.transvectant_calls"] += 1


_AFTER = {
    "cycles.gamma_class": _after_gamma,
    "cycles.beta_pushforward": _after_beta,
    MUL: _after_mul,
    "forms.transvectant": _after_transvectant,
}


def _pool_map(tracer: Tracer, orig_map):
    """Send each row through ``_traced_row`` so the worker's spans come back."""

    @functools.wraps(orig_map)
    def pool_map(pool, fn, *iterables, **kwargs):
        items = list(iterables[0])
        tracer.counts["cli.pool_rows"] += len(items)
        results = orig_map(pool, functools.partial(_traced_row, fn), items, *iterables[1:], **kwargs)

        def rows():
            for row, spans, counts in results:
                tracer.merge(spans, counts)
                yield row

        return rows()

    return pool_map


def _traced_row(fn, item):
    # runs in a pool worker: a forked worker inherits the parent's wrappers,
    # a spawned one installs its own
    tracer = ACTIVE if ACTIVE is not None else Tracer().install()
    tracer.reset()
    row = fn(item)
    return row, tracer.spans, dict(tracer.counts)
