"""Spans around qsk's public functions, installed from outside the program.

The traced run wraps each timed function in every qsk module namespace
that bound it (``from .linalg import eig_unitary`` makes a second binding
in ``bell`` and ``selftest``), patches methods on their class, and wraps
``cyclotomic_poly`` at its module global so that its recursion goes
through the span.  ``uninstall`` restores every binding and then proves
that no wrapper is left, so untraced runs measure the bare program.

A span is ``[name, start, end, parent, request, error]``, its times in
CPU seconds of the process (``time.process_time``, the clock of the
request latencies); spans stay in memory and are written once, when the
run ends.  Self time is a span's
duration minus the durations of its direct children (a single thread, so
children nest and never overlap).

Layer table: which end-to-end metric each layer should move, on which
workload it is heavy and on which it is about absent.  ``CALLS`` turns
the last column into call counts per function, which the harness test
checks.

| layer | timed public functions | moves | heavy / ~none |
|---|---|---|---|
| bell | correlators_from_realization, expectation, born_probabilities, sample_statistics, local_bound_bruteforce, correlators_from_probabilities, Realization.validate | latency_p50_s, requests_per_s | extract, certify / tables (exact correlators); sampling path: tables / extract |
| sos | sos_residual_bob, sos_residual_alice, stabilizer_residuals, check_trace_conditions, check_intermediate_identities, check_root_identities, check_commutation_relation | latency_p50_s, peak_rss_mb, headroom_digits | certify / extract, tables |
| satwap | bell_operator, evaluate, BellFunctional.satwap, probability_form | latency_p50_s | certify / extract |
| linalg | eig_unitary, spectral_projectors, unitary_powers, haar_random_unitary | latency_p50_s | extract / certify |
| selftest | extract, extract_bob, extract_alice, canonicalize_state, canonicalized_realization, scramble | latency_p50_s, headroom_digits | extract / certify, tables |
| cyclotomic | cyclotomic_poly, poly_divmod, check_product_identity, lemma2_conclude | latency_p50_s | tables / extract |
| canonical | ideal_realization, cglmp_realization, w1_w2 | latency_p50_s | certify / extract |
| randomness | outcome_distribution, ideal_guessing_probability | latency_p50_s | certify / extract, tables |
| cli | main, build_verification_report, realization_from_json, realization_to_json, canonical_dumps | latency_p50_s | extract / certify |
"""

from __future__ import annotations

import json
from time import process_time


LAYERS = {
    "bell": (
        "correlators_from_realization",
        "expectation",
        "born_probabilities",
        "sample_statistics",
        "local_bound_bruteforce",
        "correlators_from_probabilities",
        "Realization.validate",
    ),
    "sos": (
        "sos_residual_bob",
        "sos_residual_alice",
        "stabilizer_residuals",
        "check_trace_conditions",
        "check_intermediate_identities",
        "check_root_identities",
        "check_commutation_relation",
    ),
    "satwap": ("bell_operator", "evaluate", "BellFunctional.satwap", "probability_form"),
    "linalg": ("eig_unitary", "spectral_projectors", "unitary_powers", "haar_random_unitary"),
    "selftest": (
        "extract",
        "extract_bob",
        "extract_alice",
        "canonicalize_state",
        "canonicalized_realization",
        "scramble",
    ),
    "cyclotomic": ("cyclotomic_poly", "poly_divmod", "check_product_identity", "lemma2_conclude"),
    "canonical": ("ideal_realization", "cglmp_realization", "w1_w2"),
    "randomness": ("outcome_distribution", "ideal_guessing_probability"),
    "cli": (
        "main",
        "build_verification_report",
        "realization_from_json",
        "realization_to_json",
        "canonical_dumps",
    ),
}

SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

C, E, T = "certify", "extract", "tables"
# Per function: the workloads that must call it, and the ones that must
# not call it at all.  Where the layer table's "~none" is a small share of
# time rather than zero calls, the function has fewer zero-call workloads:
# ``satwap.evaluate`` gates every extraction, ``eig_unitary`` runs in every
# Born rule, ``sos.check_trace_conditions`` is a stage of ``extract``, and
# ``local_bound_bruteforce`` runs in ``certify`` below d = 13 (the tiny
# harness size) but not at d = 16.
CALLS = {
    "bell.correlators_from_realization": ((E, C), (T,)),
    "bell.expectation": ((E, C), (T,)),
    "bell.born_probabilities": ((T, C), (E,)),
    "bell.sample_statistics": ((T,), (E, C)),
    "bell.local_bound_bruteforce": ((T,), (E,)),
    "bell.correlators_from_probabilities": ((T,), (E, C)),
    "bell.Realization.validate": ((E,), (C, T)),
    "sos.sos_residual_bob": ((C,), (E, T)),
    "sos.sos_residual_alice": ((C,), (E, T)),
    "sos.stabilizer_residuals": ((C,), (E, T)),
    "sos.check_trace_conditions": ((C, E), (T,)),
    "sos.check_intermediate_identities": ((C,), (E, T)),
    "sos.check_root_identities": ((C,), (E, T)),
    "sos.check_commutation_relation": ((C,), (E, T)),
    "satwap.bell_operator": ((C,), (E, T)),
    "satwap.evaluate": ((C, E, T), ()),
    "satwap.BellFunctional.satwap": ((C, E, T), ()),
    "satwap.probability_form": ((T,), (E, C)),
    "linalg.eig_unitary": ((E, C, T), ()),
    "linalg.spectral_projectors": ((E, C, T), ()),
    "linalg.unitary_powers": ((E, C, T), ()),
    "linalg.haar_random_unitary": ((E, C), (T,)),
    "selftest.extract": ((E,), (C, T)),
    "selftest.extract_bob": ((E,), (C, T)),
    "selftest.extract_alice": ((E,), (C, T)),
    "selftest.canonicalize_state": ((E,), (C, T)),
    "selftest.canonicalized_realization": ((E,), (C, T)),
    "selftest.scramble": ((E,), (C, T)),
    "cyclotomic.cyclotomic_poly": ((T, C), (E,)),
    "cyclotomic.poly_divmod": ((T, C), (E,)),
    "cyclotomic.check_product_identity": ((T, C), (E,)),
    "cyclotomic.lemma2_conclude": ((T, C), (E,)),
    "canonical.ideal_realization": ((C, E, T), ()),
    "canonical.cglmp_realization": ((C,), (E, T)),
    "canonical.w1_w2": ((C, E), (T,)),
    "randomness.outcome_distribution": ((C,), (E, T)),
    "randomness.ideal_guessing_probability": ((C,), (E, T)),
    "cli.main": ((C, E, T), ()),
    "cli.build_verification_report": ((C, E), (T,)),
    "cli.realization_from_json": ((E,), (C, T)),
    "cli.realization_to_json": ((E,), (C, T)),
    "cli.canonical_dumps": ((C, E, T), ()),
}

MARK = "__perfbench_span__"


class Tracer:
    """Installs span wrappers into the qsk package and removes them again."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        tracer = self

        def span(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = process_time()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = process_time()
                stack.pop()

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        setattr(span, MARK, name)
        return span

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name in SPANS:
            layer, _, attr = name.partition(".")
            module = getattr(self.package, layer)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            bound = [
                (m, key)
                for m in [self.package, *self.modules]
                for key, value in vars(m).items()
                if value is original
            ]
            for m, key in bound:
                self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        leftover = self.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"span wrappers left installed: {leftover}")

    def leftover_wrappers(self) -> list[str]:
        """Every module global or class attribute in qsk that is still a wrapper."""
        found = []
        for m in [self.package, *self.modules]:
            for key, value in vars(m).items():
                if hasattr(value, MARK):
                    found.append(f"{m.__name__}.{key}")
                if isinstance(value, type) and value.__module__ == m.__name__:
                    for attr, raw in vars(value).items():
                        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                        if hasattr(fn, MARK):
                            found.append(f"{m.__name__}.{key}.{attr}")
        return found

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
