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
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, bell, canonical, cyclotomic, randomness, satwap, selftest, sos
from .linalg import dagger, haar_random_unitary, worst

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

BOUNDS_BRUTE_FORCE_MAX_D = 8  # `bounds` enumerates local strategies up to this d


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
    if not all(type(x) in (int, float) for x in pairs.flat):  # rejects JSON true/false (bool)
        raise ValueError(f"{what} has an entry that is not a number")
    try:
        values = pairs.astype(float)
    except OverflowError:
        raise ValueError(f"{what} has an entry too large for a double") from None
    return values.view(complex)[..., 0]


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)!r}")


def canonical_dumps(obj) -> str:
    kw = dict(sort_keys=True, separators=(",", ":"), allow_nan=False, default=_json_default)
    return json.dumps(obj, **kw) + "\n"


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
        return self.residual <= self.tolerance

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
    checks: list[CheckResult]
    bell_value: float | None = None
    classical_bound: float | None = None
    quantum_bound: float | None = None
    extraction: dict | None = None
    randomness: dict | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        out = {
            "tool": "qsk",
            "version": __version__,
            "d": self.d,
            "seed": self.seed,
            "checks": [c.to_json() for c in self.checks],
            "pass": self.passed,
        }
        for key in ("bell_value", "classical_bound", "quantum_bound"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.extraction is not None:
            out["extraction"] = self.extraction
        if self.randomness is not None:
            out["randomness"] = self.randomness
        return out

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


def _bounds_checks(
    ideal: bell.Realization, checks: list[CheckResult]
) -> tuple[float, float, float]:
    d = ideal.d
    beta_c = satwap.classical_bound(d)
    beta_q = satwap.quantum_bound(d)
    value = satwap.evaluate(satwap.BellFunctional.satwap(d), ideal.correlators)
    checks.append(CheckResult("quantum-bound-attained", abs(value - beta_q), 1e-9))
    if d <= bell.BRUTE_FORCE_CAP:
        brute, _ = bell.local_bound_bruteforce(satwap.BellFunctional.satwap(d))
        checks.append(CheckResult("classical-bound-brute-force", abs(brute - beta_c), 1e-9))
    return value, beta_c, beta_q


def _sos_checks(ideal: bell.Realization, seed: int, checks: list[CheckResult]) -> None:
    d = ideal.d
    checks.append(CheckResult("sos-bob-canonical", sos.sos_residual_bob(ideal), 1e-8))
    checks.append(CheckResult("sos-alice-canonical", sos.sos_residual_alice(ideal), 1e-8))
    stab = worst(
        *sos.stabilizer_residuals(ideal, "bob").values(),
        *sos.stabilizer_residuals(ideal, "alice").values(),
    )
    checks.append(CheckResult("sos-stabilizers-canonical", stab, 1e-9))
    rng = np.random.default_rng(np.random.Philox(seed))
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


def _trace_checks(ideal: bell.Realization, checks: list[CheckResult]) -> None:
    d = ideal.d
    z, t = ideal.observables_b
    traces = worst(*(v for obs in (z, t) for _, v in sos.check_trace_conditions(obs, d).entries))
    checks.append(CheckResult("trace-conditions-canonical", traces, 1e-8))
    checks.append(CheckResult("twisted-commutation", sos.check_commutation_relation(z, t, d), 1e-8))
    identities = sos.check_intermediate_identities(z, t, d).max_residual
    checks.append(CheckResult("trace-identities", identities, 1e-8))
    checks.append(CheckResult("root-identities", sos.check_root_identities(d).max_residual, 1e-8))


def _cglmp_checks(ideal: bell.Realization, checks: list[CheckResult]) -> None:
    d = ideal.d
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
    drift = np.abs(cglmp.born.probabilities - ideal.born.probabilities).max()
    checks.append(CheckResult("cglmp-vs-canonical-statistics", float(drift), 1e-8))


def _extract_checks(
    r: bell.Realization,
    checks: list[CheckResult],
    ideal: bell.Realization | None = None,
) -> dict | None:
    try:
        result = selftest.extract(r, ideal)
    except selftest.ExtractionError as exc:
        # sentinel failing check; the diagnostic itself rides in the summary
        checks.append(CheckResult(f"extraction-stage-{exc.stage}", 1.0, 0.0))
        return {"error": str(exc)}
    checks.append(CheckResult("extraction-fidelity", 1.0 - result.fidelity, 1e-7))
    worst_obs = worst(
        *(
            result.residuals[f"{party}_observable_{i}"]
            for party in ("bob", "alice")
            for i in (1, 2)
        )
    )
    checks.append(CheckResult("extraction-observables", worst_obs, 1e-7))
    canon = selftest.canonicalized_realization(r, result)
    drift = np.abs(canon.correlators.values - r.correlators.values).max()
    checks.append(CheckResult("extraction-preserves-statistics", float(drift), 1e-8))
    return {
        "fidelity": result.fidelity,
        "aux_dims": list(result.aux_dims),
        "residuals": result.residuals,
        "log": list(result.log),
    }


def _randomness_checks(ideal: bell.Realization, checks: list[CheckResult]) -> dict:
    d = ideal.d
    dist = randomness.outcome_distribution(ideal, "B", 1)
    checks.append(CheckResult("uniform-outcomes", float(np.abs(dist - 1.0 / d).max()), 1e-9))
    guess = randomness.ideal_guessing_probability(ideal, "B", 1)
    checks.append(CheckResult("guessing-probability", abs(guess - 1.0 / d), 1e-9))
    ledger = randomness.expansion_ledger(d, rounds=1)
    return {
        "guessing_probability": guess,
        "certified_bits": ledger.certified_bits,
        "expansion_ratio": ledger.expansion_ratio,
    }


def _cyclotomic_checks(d: int, checks: list[CheckResult]) -> None:
    ok = cyclotomic.check_product_identity(d)
    checks.append(CheckResult("cyclotomic-product-identity", 0.0 if ok else 1.0, 0.5))
    equal = cyclotomic.lemma2_conclude(cyclotomic.all_ones_poly(d).scale(3), d)
    accept_ok = equal.equal and equal.constant == 3
    unequal_coeffs = [1] + [0] * (d - 2) + [2] if d > 2 else [1, 2]
    unequal = cyclotomic.lemma2_conclude(
        cyclotomic.RationalPolynomial.from_list(unequal_coeffs), d
    )
    reject_ok = not unequal.equal
    checks.append(
        CheckResult(
            "equal-coefficients-classifier",
            0.0 if (accept_ok and reject_ok) else 1.0,
            0.5,
        )
    )


ALL_SELECTORS = ("bounds", "sos", "traces", "cglmp", "extract", "randomness", "cyclotomic")


def build_verification_report(
    d: int,
    selectors: tuple[str, ...],
    seed: int = 0,
    realization: bell.Realization | None = None,
) -> VerificationReport:
    """Run the selected module check groups and collect a report.

    With an explicit ``realization``, the bounds/extract groups run against
    it; otherwise the canonical realization for ``d`` is used throughout,
    built once and only if a selected group reads it (all but cyclotomic).
    """
    checks: list[CheckResult] = []
    report = VerificationReport(d=d, seed=seed, checks=checks)
    if realization is not None:
        value = satwap.evaluate(satwap.BellFunctional.satwap(d), realization.correlators)
        report.bell_value = value
        report.classical_bound = satwap.classical_bound(d)
        report.quantum_bound = satwap.quantum_bound(d)
        gap = abs(value - report.quantum_bound)
        checks.append(CheckResult("maximal-violation", gap, selftest.tol_violation(d)))
        if "extract" in selectors:
            report.extraction = _extract_checks(realization, checks)
        return report

    ideal = canonical.ideal_realization(d) if set(selectors) - {"cyclotomic"} else None
    if "bounds" in selectors:
        value, beta_c, beta_q = _bounds_checks(ideal, checks)
        report.bell_value = value
        report.classical_bound = beta_c
        report.quantum_bound = beta_q
    if "sos" in selectors:
        _sos_checks(ideal, seed, checks)
    if "traces" in selectors:
        _trace_checks(ideal, checks)
    if "cglmp" in selectors:
        _cglmp_checks(ideal, checks)
    if "extract" in selectors:
        scrambled = selftest.scramble(ideal, 2, 2, seed)
        report.extraction = _extract_checks(scrambled, checks, ideal)
    if "randomness" in selectors:
        report.randomness = _randomness_checks(ideal, checks)
    if "cyclotomic" in selectors:
        _cyclotomic_checks(d, checks)
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_bounds(args) -> int:
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        bf = None
        if d <= BOUNDS_BRUTE_FORCE_MAX_D:
            bf = bell.local_bound_bruteforce(satwap.BellFunctional.satwap(d))[0]
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
    selectors = tuple(s for s in ALL_SELECTORS if getattr(args, s.replace("-", "_")))
    if args.all or not selectors:
        selectors = ALL_SELECTORS
    realization = None
    d = args.d
    if args.file:
        try:
            realization = load_realization(args.file)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        d = realization.d
    if d is None:
        print("error: provide --d or --file", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = build_verification_report(d, selectors, seed=args.seed, realization=realization)
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report.to_json()))
    else:
        report.print_table()
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    r = canonical.ideal_realization(args.d)
    tensor = bell.sample_statistics(r, args.shots, args.seed)
    f = satwap.BellFunctional.satwap(args.d)
    estimate = satwap.evaluate(f, bell.correlators_from_probabilities(tensor))
    weights = satwap.probability_form(f)
    variance = 0.0
    for x in range(2):
        for y in range(2):
            n = int(tensor.setting_counts[x, y])
            if n == 0:
                continue
            p = tensor.probabilities[x, y]
            w = weights[x, y]
            mean = float(np.sum(w * p))
            variance += (float(np.sum(w**2 * p)) - mean**2) / n
    se = float(np.sqrt(variance))
    payload = {
        "d": args.d,
        "shots": args.shots,
        "seed": args.seed,
        "estimate": estimate,
        "standard_error": se,
        "quantum_bound": satwap.quantum_bound(args.d),
        "setting_counts": tensor.setting_counts.tolist(),
        "frequencies": tensor.probabilities.tolist(),
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
    demo_accept = cyclotomic.lemma2_conclude(cyclotomic.all_ones_poly(d).scale(5), d)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--d", type=int)
    p.add_argument("--file", help="realization JSON to verify instead of the canonical one")
    p.add_argument("--all", action="store_true", help="run every check group")
    for sel in ALL_SELECTORS:
        p.add_argument(f"--{sel}", action="store_true", help=f"run the {sel} group")
    p.add_argument("--seed", type=int, default=0)
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
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    max_shots = int(np.iinfo(np.int64).max)  # the sampler counts shots in int64
    if args.command == "simulate" and not 1 <= args.shots <= max_shots:
        raise ValueError(f"--shots must be in 1..{max_shots}, got {args.shots}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or the help
        return exc.code
    try:
        _check_arguments(args)
        return args.func(args)
    except (ValueError, MemoryError) as exc:  # MemoryError: an input too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
