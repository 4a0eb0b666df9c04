"""Command-line surface: bounds table, verification reports, finite-shot
simulation, exact cyclotomic listings, and the realization file format.

JSON conventions: complex numbers are ``[re, im]`` pairs of decimal
doubles, matrices are row-major lists of rows, and serialization is
canonical (sorted keys, fixed separators) so identical inputs produce
byte-identical files.

Exit codes: 0 all selected checks pass, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__, bell, canonical, cyclotomic, randomness, satwap, selftest, sos
from .linalg import dagger, haar_random_unitary, worst

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

BOUNDS_BRUTE_FORCE_MAX_D = 8  # `bounds` enumerates local strategies up to this d
MAX_SCRAMBLED_DIM = 8192  # one (n, n) complex matrix of this size is 1 GiB


# ---------------------------------------------------------------------------
# file formats


def _complex_to_json(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex_from_json(entries, ndim: int, what: str) -> np.ndarray:
    """Read an ndim-deep list of [re, im] pairs whose every leaf is a JSON number."""
    pairs = np.array(entries, dtype=object)
    if pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        kind = "vector" if ndim == 1 else "matrix"
        raise ValueError(f"{what} must be a {kind} of [re, im] pairs")
    # one C-level pass over the leaf types; rejects JSON true/false (bool),
    # strings, null and lists nested deeper than the pairs
    if not set(map(type, pairs.flat)) <= {int, float}:
        raise ValueError(f"{what} has an entry that is not a number")
    try:
        values = pairs.astype(float)
    except OverflowError:
        raise ValueError(f"{what} has an entry too large for a double") from None
    return values.view(complex)[..., 0]


# what json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) builds per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _float_array_json(a: np.ndarray) -> str:
    """``a.tolist()`` as JSON, each distinct double formatted once.

    Sampled frequencies repeat heavily (a d = 40 table holds ~780 distinct
    values in 6400 cells).  Distinct values are taken on the uint64 view,
    so 0.0 and -0.0 stay apart, and formatted by ``float.__repr__``, the
    function ``json`` itself uses, so the text is the stdlib's byte for byte.
    """
    if a.dtype != np.float64 or a.ndim == 0:
        raise TypeError(f"not JSON serializable: {a.ndim}-d ndarray of {a.dtype}")
    bits, index = np.unique(np.ascontiguousarray(a).view(np.uint64), return_inverse=True)
    values = bits.view(np.float64)
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    text = np.array([float.__repr__(v) for v in values.tolist()], dtype=object)
    cells = text[index.reshape(a.shape)]

    def nest(c: np.ndarray) -> str:
        return "[" + ",".join(c.tolist() if c.ndim == 1 else map(nest, c)) + "]"

    return nest(cells)


def canonical_dumps(obj) -> str:
    """Canonical JSON: ``json.dumps`` with sorted keys and no spaces, plus a newline.

    A float64 ndarray may be the value of a top-level key; it is written
    as a nested list by distinct value (:func:`_float_array_json`),
    byte-identical to encoding ``.tolist()``.  Any other ndarray or numpy
    scalar that is not a float is refused with ``TypeError``, as
    ``json.dumps`` refuses it.  NaN and infinities raise ``ValueError``.
    """
    if not (isinstance(obj, dict) and any(isinstance(v, np.ndarray) for v in obj.values())):
        return _ENCODER.encode(obj) + "\n"
    items = (
        # {k: 0} encodes to {KEY:0}: json's own key conversion
        _ENCODER.encode({k: 0})[1:-3]
        + ":"
        + (_float_array_json(v) if isinstance(v, np.ndarray) else _ENCODER.encode(v))
        for k, v in sorted(obj.items())
    )
    return "{" + ",".join(items) + "}\n"


def realization_to_json(r: bell.Realization, metadata: dict | None = None) -> dict:
    return {
        "d": r.d,
        "dims": list(r.dims),
        "state": _complex_to_json(r.state),
        "A": [_complex_to_json(o) for o in r.observables_a],
        "B": [_complex_to_json(o) for o in r.observables_b],
        "metadata": metadata or {},
    }


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def realization_from_json(data: dict) -> bell.Realization:
    try:
        d = _integer(data["d"], "d")
        if len(data["dims"]) != 2:
            raise ValueError(f"dims must be a pair of integers, got {data['dims']!r}")
        dims = (_integer(data["dims"][0], "dims"), _integer(data["dims"][1], "dims"))
        state = _complex_from_json(data["state"], 1, "state")
        obs_a = tuple(_complex_from_json(m, 2, f"A{i + 1}") for i, m in enumerate(data["A"]))
        obs_b = tuple(_complex_from_json(m, 2, f"B{i + 1}") for i, m in enumerate(data["B"]))
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed realization file: {exc}") from exc
    if len(obs_a) != 2 or len(obs_b) != 2:
        raise ValueError("realization file must carry two observables per party")
    r = bell.Realization(d=d, dims=dims, state=state, observables_a=obs_a, observables_b=obs_b)
    r.validate()
    return r


def load_realization(path: str) -> bell.Realization:
    with open(path, encoding="utf-8") as fh:
        return realization_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# verification report


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    d: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    # top-level JSON fields the check groups write, e.g. bell_value, extraction
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "tool": "qsk",
            "version": __version__,
            "d": self.d,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
            **self.summary,
        }

    def print_table(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stdout
        width = max((len(c.name) for c in self.checks), default=10)
        for c in self.checks:
            flag = "pass" if c.passed else "FAIL"
            print(
                f"{c.name:<{width}}  {c.residual:12.3e}  <= {c.tolerance:8.1e}  {flag}",
                file=stream,
            )
        print(f"overall: {'pass' if self.passed else 'FAIL'}", file=stream)


def _bell_value(report: VerificationReport, r: bell.Realization, name: str, tol: float) -> None:
    """Check that ``r`` attains the quantum bound; record its value and both bounds."""
    d = r.d
    value = satwap.evaluate(satwap.BellFunctional.satwap(d), r.correlators)
    beta_q = satwap.quantum_bound(d)
    report.checks.append(CheckResult(name, abs(value - beta_q), tol))
    report.summary.update(
        bell_value=value, classical_bound=satwap.classical_bound(d), quantum_bound=beta_q
    )


def _extraction(
    report: VerificationReport, r: bell.Realization, ideal: bell.Realization | None
) -> None:
    """Extract the canonical form from ``r``, compared against ``ideal`` (built when None)."""
    checks = report.checks
    try:
        result = selftest.extract(r, ideal)
    except selftest.ExtractionError as exc:
        # sentinel failing check; the diagnostic itself rides in the summary
        checks.append(CheckResult(f"extraction-stage-{exc.stage}", 1.0, 0.0))
        report.summary["extraction"] = {"error": str(exc)}
        return
    checks.append(CheckResult("extraction-fidelity", 1.0 - result.fidelity, 1e-7))
    worst_obs = worst(
        *(result.residuals[f"{party}_observable_{i}"] for party in ("bob", "alice") for i in (1, 2))
    )
    checks.append(CheckResult("extraction-observables", worst_obs, 1e-7))
    drift = np.abs(result.canonical.correlators - r.correlators).max()
    checks.append(CheckResult("extraction-preserves-statistics", float(drift), 1e-8))
    report.summary["extraction"] = {
        "fidelity": result.fidelity,
        "aux_dims": list(result.aux_dims),
        "residuals": result.residuals,
    }


# Each check group appends its checks to the report and writes its own
# summary fields; ``ideal`` is the canonical realization for the report's d.


def _bounds_group(report: VerificationReport, ideal: bell.Realization) -> None:
    _bell_value(report, ideal, "quantum-bound-attained", 1e-9)
    if ideal.d <= bell.BRUTE_FORCE_CAP:
        brute = bell.local_bound_bruteforce(satwap.BellFunctional.satwap(ideal.d))
        residual = abs(brute - satwap.classical_bound(ideal.d))
        report.checks.append(CheckResult("classical-bound-brute-force", residual, 1e-9))


def _sos_group(report: VerificationReport, ideal: bell.Realization) -> None:
    d, checks = ideal.d, report.checks
    stab = []
    # one grouping per side, shared by its residual and its stabilizers and
    # dropped before the other side's is built
    for side, residual in (("bob", sos.sos_residual_bob), ("alice", sos.sos_residual_alice)):
        terms = sos.sos_terms(ideal, side)
        checks.append(CheckResult(f"sos-{side}-canonical", residual(ideal, terms), 1e-8))
        stab.extend(sos.stabilizer_residuals(ideal, side, terms).values())
        del terms
    checks.append(CheckResult("sos-stabilizers-canonical", worst(*stab), 1e-9))
    rng = np.random.default_rng(np.random.Philox(report.seed))
    z = ideal.observables_b[0]
    random_obs = []
    for _ in range(4):
        g = haar_random_unitary(d, rng)
        random_obs.append(g @ z @ g.conj().T)
    r = bell.Realization(
        d=d,
        dims=(d, d),
        state=ideal.state,
        observables_a=(random_obs[0], random_obs[1]),
        observables_b=(random_obs[2], random_obs[3]),
    )
    residual = worst(sos.sos_residual_bob(r), sos.sos_residual_alice(r))
    checks.append(CheckResult("sos-operator-identity-random", residual, 1e-8))


def _traces_group(report: VerificationReport, ideal: bell.Realization) -> None:
    d, checks = ideal.d, report.checks
    z, t = ideal.decompositions_b
    traces = worst(*sos.check_trace_conditions(z).values(), *sos.check_trace_conditions(t).values())
    checks.append(CheckResult("trace-conditions-canonical", traces, 1e-8))
    checks.append(CheckResult("twisted-commutation", sos.check_commutation_relation(z, t), 1e-8))
    identities = worst(*sos.check_intermediate_identities(z, t).values())
    checks.append(CheckResult("trace-identities", identities, 1e-8))
    roots = worst(*sos.check_root_identities(d).values())
    checks.append(CheckResult("root-identities", roots, 1e-8))


def _cglmp_group(report: VerificationReport, ideal: bell.Realization) -> None:
    d, checks = ideal.d, report.checks
    z, t = ideal.observables_b
    w1, w2 = canonical.w1_w2(d)
    cglmp = canonical.cglmp_realization(d)
    (a1p, a2p), (b1p, b2p) = cglmp.observables_a, cglmp.observables_b
    conj = worst(
        float(np.linalg.norm(a1p - w1 @ z @ dagger(w1))),
        float(np.linalg.norm(a2p - w1 @ t @ dagger(w1))),
        float(np.linalg.norm(b1p - w2 @ z @ dagger(w2))),
        float(np.linalg.norm(b2p - w2 @ t @ dagger(w2))),
    )
    checks.append(CheckResult("cglmp-conjugations", conj, 1e-8))
    wa = w2.T @ w1  # canonical.w_alice, from the pair already built
    ideal1, ideal2 = ideal.observables_a
    fact2 = worst(
        float(np.linalg.norm(wa @ z @ dagger(wa) - ideal1)),
        float(np.linalg.norm(wa @ t @ dagger(wa) - ideal2)),
    )
    checks.append(CheckResult("alice-rotation", fact2, 1e-8))
    drift = np.abs(cglmp.born - ideal.born).max()
    checks.append(CheckResult("cglmp-vs-canonical-statistics", float(drift), 1e-8))


def _extract_group(report: VerificationReport, ideal: bell.Realization) -> None:
    _extraction(report, selftest.scramble(ideal, 2, 2, report.seed), ideal)


def _randomness_group(report: VerificationReport, ideal: bell.Realization) -> None:
    d, checks = ideal.d, report.checks
    dist = randomness.outcome_distribution(ideal, "B", 1)
    checks.append(CheckResult("uniform-outcomes", float(np.abs(dist - 1.0 / d).max()), 1e-9))
    guess = randomness.ideal_guessing_probability(ideal, "B", 1)
    checks.append(CheckResult("guessing-probability", abs(guess - 1.0 / d), 1e-9))
    # one input bit per round chooses the setting, so the expansion ratio
    # is the certified bits per round
    bits = randomness.certified_bits(d)
    report.summary["randomness"] = {
        "guessing_probability": guess,
        "certified_bits": bits,
        "expansion_ratio": bits,
    }


def _cyclotomic_group(report: VerificationReport, ideal: bell.Realization | None) -> None:
    d, checks = report.d, report.checks
    ok = cyclotomic.check_product_identity(d)
    checks.append(CheckResult("cyclotomic-product-identity", 0.0 if ok else 1.0, 0.5))
    equal = cyclotomic.lemma2_conclude(cyclotomic.IntegerPolynomial((3,) * d), d)
    accept_ok = equal.equal and equal.constant == 3
    unequal = cyclotomic.lemma2_conclude(
        cyclotomic.IntegerPolynomial((1,) + (0,) * (d - 2) + (2,)), d
    )
    reject_ok = not unequal.equal
    checks.append(
        CheckResult(
            "equal-coefficients-classifier",
            0.0 if (accept_ok and reject_ok) else 1.0,
            0.5,
        )
    )


# selector -> check group, in report order
CHECK_GROUPS = {
    "bounds": _bounds_group,
    "sos": _sos_group,
    "traces": _traces_group,
    "cglmp": _cglmp_group,
    "extract": _extract_group,
    "randomness": _randomness_group,
    "cyclotomic": _cyclotomic_group,
}
ALL_SELECTORS = tuple(CHECK_GROUPS)
FILE_SELECTORS = ("bounds", "extract")  # the others read only the canonical realization


def build_verification_report(
    d: int,
    selectors: tuple[str, ...],
    seed: int = 0,
    realization: bell.Realization | None = None,
) -> VerificationReport:
    """Run the selected check groups and collect a report.

    With an explicit ``realization``, the report gates its Bell value at
    ``maximal-violation`` and, when ``extract`` is selected, extracts its
    canonical form; no other group applies to it.  Otherwise the selected
    groups run in :data:`CHECK_GROUPS` order on the canonical realization
    for ``d``, built once and only if a selected group reads it (all but
    cyclotomic).
    """
    report = VerificationReport(d=d, seed=seed)
    if realization is not None:
        _bell_value(report, realization, "maximal-violation", selftest.tol_violation(d))
        if "extract" in selectors:
            _extraction(report, realization, None)
        return report
    ideal = canonical.ideal_realization(d) if set(selectors) - {"cyclotomic"} else None
    for selector, group in CHECK_GROUPS.items():
        if selector in selectors:
            group(report, ideal)
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_bounds(args) -> int:
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        bf = None
        if d <= BOUNDS_BRUTE_FORCE_MAX_D:
            bf = bell.local_bound_bruteforce(satwap.BellFunctional.satwap(d))
        beta_c = satwap.classical_bound(d)
        beta_q = satwap.quantum_bound(d)
        rows.append(
            {
                "d": d,
                "classical_bound": beta_c,
                "classical_bound_brute_force": bf,
                "quantum_bound": beta_q,
                "ratio": beta_q / beta_c,
            }
        )
    if args.format == "json":
        sys.stdout.write(canonical_dumps(rows))
    else:
        print(f"{'d':>3}  {'beta_C':>12}  {'beta_C (brute)':>14}  {'beta_Q':>8}  {'ratio':>10}")
        for row in rows:
            bf = f"{row['classical_bound_brute_force']:.6f}" if row["classical_bound_brute_force"] is not None else "-"
            print(
                f"{row['d']:>3}  {row['classical_bound']:>12.6f}  {bf:>14}  "
                f"{row['quantum_bound']:>8.1f}  {row['ratio']:>10.6f}"
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    selectors = tuple(s for s in ALL_SELECTORS if getattr(args, s))
    realization, d = None, args.d
    if args.file:
        if args.seed is not None:
            raise ValueError("--seed cannot be used with --file: no check of a file reads it")
        canonical_only = [f"--{s}" for s in selectors if s not in FILE_SELECTORS]
        if canonical_only:
            raise ValueError(
                f"{', '.join(canonical_only)} cannot be used with --file: only "
                f"{' and '.join(f'--{s}' for s in FILE_SELECTORS)} read a realization file"
            )
        realization = load_realization(args.file)
        d = realization.d
    if args.all or not selectors:
        selectors = ALL_SELECTORS
    if d is None:
        raise ValueError("provide --d or --file")
    report = build_verification_report(d, selectors, seed=args.seed or 0, realization=realization)
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report.to_json()))
    else:
        report.print_table()
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    r = canonical.ideal_realization(args.d)
    freqs, counts = bell.sample_statistics(r, args.shots, args.seed)
    if not counts.all():  # an all-zero slice would add 0 to the estimate, nothing to its error
        x, y = np.argwhere(counts == 0)[0]
        raise ValueError(f"setting ({x},{y}) drew none of the {args.shots} shots; use more --shots")
    f = satwap.BellFunctional.satwap(args.d)
    estimate = satwap.evaluate(f, bell.correlators_from_probabilities(freqs))
    # per setting, the plug-in variance sum p (w - mean)^2 over its own shots
    p, w = freqs.reshape(4, -1), satwap.probability_form(f).reshape(4, -1)
    mean = np.sum(w * p, axis=1, keepdims=True)
    var = np.sum(p * (w - mean) ** 2, axis=1)
    # each setting's true variance is (d^2 - 1)/12 > 0; shots that all fell on
    # cells of one weight read zero up to rounding, and the error would too
    if (var <= np.finfo(float).eps * np.max(w**2, axis=1)).all():
        raise ValueError(
            f"every setting drew its shots from cells of one weight: zero sample "
            f"variance from {args.shots} shots; use more --shots"
        )
    se = float(np.sqrt(np.sum(var / counts.reshape(-1))))
    payload = {
        "d": args.d,
        "shots": args.shots,
        "seed": args.seed,
        "estimate": estimate,
        "standard_error": se,
        "quantum_bound": satwap.quantum_bound(args.d),
        "setting_counts": counts.tolist(),
        "frequencies": freqs,
    }
    text = canonical_dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(
            f"d={args.d} shots={args.shots} seed={args.seed}: estimate "
            f"{estimate:.6f} +- {se:.6f} (quantum bound {satwap.quantum_bound(args.d)})"
        )
    return EXIT_OK


def cmd_cyclotomic(args) -> int:
    d = args.d
    poly = cyclotomic.cyclotomic_poly(d)
    product_ok = cyclotomic.check_product_identity(d)
    demo_accept = cyclotomic.lemma2_conclude(cyclotomic.IntegerPolynomial((5,) * d), d)
    payload = {
        "d": d,
        "cyclotomic_coefficients": [str(c) for c in poly.coefficients],
        "cyclotomic_polynomial": str(poly),
        "product_identity": product_ok,
        "equal_coefficients_demo": {
            "accepted": demo_accept.equal,
            "constant": str(demo_accept.constant),
        },
    }
    if args.format == "json":
        sys.stdout.write(canonical_dumps(payload))
    else:
        print(f"Phi_{d}(x) = {poly}")
        print(f"coefficients (ascending): {[str(c) for c in poly.coefficients]}")
        print(f"product identity over proper divisors: {'holds' if product_ok else 'FAILS'}")
        print(
            "equal-coefficients demo (5 * all-ones): "
            f"{'accepted' if demo_accept.equal else 'rejected'}, "
            f"constant {demo_accept.constant}"
        )
    return EXIT_OK if product_ok and demo_accept.equal else EXIT_CHECK_FAILED


def cmd_scramble(args) -> int:
    r = canonical.ideal_realization(args.d)
    scrambled = selftest.scramble(r, args.aux_a, args.aux_b, args.seed)
    payload = realization_to_json(
        scrambled,
        metadata={
            "source": "canonical",
            "aux_dims": f"{args.aux_a}x{args.aux_b}",
            "seed": str(args.seed),
        },
    )
    text = canonical_dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote scrambled realization (d={args.d}) to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` keeps no state between calls and help text is
    formatted per call, so one parser serves every :func:`main` call.
    """
    parser = argparse.ArgumentParser(
        prog="qsk",
        description="Verify the d-outcome two-setting SATWAP Bell functional, its "
        "bounds, sum-of-squares certificates, and the self-testing extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="classical/quantum bounds table over a range of d")
    p.add_argument("--d-min", type=int, default=2)
    p.add_argument("--d-max", type=int, default=8)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run verification checks for a dimension or a file")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--d", type=int)
    target.add_argument("--file", help="realization JSON to verify instead of the canonical one")
    p.add_argument("--all", action="store_true", help="run every check group")
    for sel in ALL_SELECTORS:
        p.add_argument(f"--{sel}", action="store_true", help=f"run the {sel} group")
    # None marks an omitted seed, which --file requires: no check of a file reads one
    p.add_argument("--seed", type=int, help="seed of the scrambling and random checks (default 0)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="finite-shot statistics of the canonical realization")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the JSON payload to this path")
    p.add_argument("--format", choices=("summary", "json"), default="summary")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("cyclotomic", help="exact cyclotomic listing and divisibility demo")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_cyclotomic)

    p = sub.add_parser("scramble", help="emit a locally scrambled canonical realization")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--aux-a", type=int, default=2)
    p.add_argument("--aux-b", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_scramble)

    return parser


def _check_arguments(args) -> None:
    """Reject out-of-range numbers on the command line before any command runs."""
    for dest in ("d", "d_min", "d_max"):
        value = getattr(args, dest, None)
        if value is not None and value < 2:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= 2, got {value}")
    if args.command == "bounds" and args.d_min > args.d_max:
        raise ValueError(f"--d-min {args.d_min} exceeds --d-max {args.d_max}")
    if (getattr(args, "seed", None) or 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    max_shots = int(np.iinfo(np.int64).max)  # the sampler counts shots in int64
    if args.command == "simulate" and not 1 <= args.shots <= max_shots:
        raise ValueError(f"--shots must be in 1..{max_shots}, got {args.shots}")
    if args.command == "scramble":
        for option, aux in (("--aux-a", args.aux_a), ("--aux-b", args.aux_b)):
            if args.d * aux > MAX_SCRAMBLED_DIM:
                raise ValueError(
                    f"{option} {aux} at --d {args.d} gives a party of dimension "
                    f"{args.d * aux}, above {MAX_SCRAMBLED_DIM}"
                )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        _check_arguments(args)
        return args.func(args)
    # MemoryError: an input too large to hold; OSError: a file that cannot be read or written
    except (ValueError, MemoryError, OSError) as exc:
        # LAPACK's failed workspace allocation raises a MemoryError with no message
        message = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
