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

from . import __version__, bell, canonical, cyclotomic, randomness, satwap, selftest

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2

BRUTE_FORCE_CAP = 12


# ---------------------------------------------------------------------------
# file formats


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _matrix_to_json(m: np.ndarray) -> list:
    return [[_pair(z) for z in row] for row in m]


def _vector_to_json(v: np.ndarray) -> list:
    return [_pair(z) for z in v]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _vector_from_json(entries: list) -> np.ndarray:
    return np.array([complex(re, im) for re, im in entries])


def _json_default(o):
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.bool_):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)!r}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default) + "\n"


def realization_to_json(r: bell.Realization, metadata: dict | None = None) -> dict:
    return {
        "d": r.d,
        "dims": list(r.dims),
        "state": _vector_to_json(r.state),
        "A": [_matrix_to_json(o) for o in r.observables_a],
        "B": [_matrix_to_json(o) for o in r.observables_b],
        "metadata": metadata or {},
    }


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def realization_from_json(data: dict) -> bell.Realization:
    try:
        d = _integer(data["d"], "d")
        dims = (_integer(data["dims"][0], "dims"), _integer(data["dims"][1], "dims"))
        state = _vector_from_json(data["state"])
        obs_a = tuple(_matrix_from_json(m) for m in data["A"])
        obs_b = tuple(_matrix_from_json(m) for m in data["B"])
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
    tol_scale: float
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
            "tol_scale": self.tol_scale,
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


def _bounds_checks(d: int, tol: float, checks: list[CheckResult]) -> tuple[float, float, float]:
    beta_c = satwap.classical_bound(d)
    beta_q = satwap.quantum_bound(d)
    ideal = canonical.ideal_realization(d)
    value = satwap.evaluate(
        satwap.BellFunctional.satwap(d), bell.correlators_from_realization(ideal)
    )
    checks.append(CheckResult("quantum-bound-attained", abs(value - beta_q), 1e-9 * tol))
    if d <= BRUTE_FORCE_CAP:
        brute, _ = bell.local_bound_bruteforce(satwap.BellFunctional.satwap(d))
        checks.append(CheckResult("classical-bound-brute-force", abs(brute - beta_c), 1e-9 * tol))
    return value, beta_c, beta_q


def _sos_checks(d: int, seed: int, tol: float, checks: list[CheckResult]) -> None:
    from .linalg import haar_random_unitary
    from .sos import sos_residual_alice, sos_residual_bob, stabilizer_residuals

    ideal = canonical.ideal_realization(d)
    checks.append(CheckResult("sos-bob-canonical", sos_residual_bob(ideal), 1e-8 * tol))
    checks.append(CheckResult("sos-alice-canonical", sos_residual_alice(ideal), 1e-8 * tol))
    stab = max(
        max(stabilizer_residuals(ideal, "bob").values()),
        max(stabilizer_residuals(ideal, "alice").values()),
    )
    checks.append(CheckResult("sos-stabilizers-canonical", stab, 1e-9 * tol))
    rng = np.random.default_rng(np.random.Philox(seed))
    z = canonical.z_observable(d)
    random_obs = []
    for _ in range(4):
        g = haar_random_unitary(d, rng)
        random_obs.append(g @ z @ g.conj().T)
    r = bell.Realization(
        d=d,
        dims=(d, d),
        state=canonical.maximally_entangled(d),
        observables_a=(random_obs[0], random_obs[1]),
        observables_b=(random_obs[2], random_obs[3]),
    )
    worst = max(sos_residual_bob(r), sos_residual_alice(r))
    checks.append(CheckResult("sos-operator-identity-random", worst, 1e-8 * tol))


def _trace_checks(d: int, tol: float, checks: list[CheckResult]) -> None:
    from .sos import (
        check_commutation_relation,
        check_intermediate_identities,
        check_root_identities,
        check_trace_conditions,
    )

    z, t = canonical.z_observable(d), canonical.t_observable(d)
    worst = 0.0
    for obs in (z, t):
        worst = max(worst, max((v for _, v in check_trace_conditions(obs, d).entries), default=0.0))
    checks.append(CheckResult("trace-conditions-canonical", worst, 1e-8 * tol))
    checks.append(
        CheckResult("twisted-commutation", check_commutation_relation(z, t, d), 1e-8 * tol)
    )
    checks.append(
        CheckResult(
            "trace-identities", check_intermediate_identities(z, t, d).max_residual, 1e-8 * tol
        )
    )
    checks.append(
        CheckResult("root-identities", check_root_identities(d).max_residual, 1e-8 * tol)
    )


def _cglmp_checks(d: int, tol: float, checks: list[CheckResult]) -> None:
    from .linalg import dagger

    z, t = canonical.z_observable(d), canonical.t_observable(d)
    w1, w2 = canonical.w1_w2(d)
    a1p, a2p, b1p, b2p = canonical.cglmp_observables(d)
    conj = max(
        float(np.linalg.norm(a1p - w1 @ z @ dagger(w1))),
        float(np.linalg.norm(a2p - w1 @ t @ dagger(w1))),
        float(np.linalg.norm(b1p - w2 @ z @ dagger(w2))),
        float(np.linalg.norm(b2p - w2 @ t @ dagger(w2))),
    )
    checks.append(CheckResult("cglmp-conjugations", conj, 1e-8 * tol))
    wa = canonical.w_alice(d)
    ideal1, ideal2 = canonical.ideal_alice_observables(d)
    fact2 = max(
        float(np.linalg.norm(wa @ z @ dagger(wa) - ideal1)),
        float(np.linalg.norm(wa @ t @ dagger(wa) - ideal2)),
    )
    checks.append(CheckResult("alice-rotation", fact2, 1e-8 * tol))
    drift = np.abs(
        bell.born_probabilities(canonical.cglmp_realization(d)).probabilities
        - bell.born_probabilities(canonical.ideal_realization(d)).probabilities
    ).max()
    checks.append(CheckResult("cglmp-vs-canonical-statistics", float(drift), 1e-8 * tol))


def _extract_checks(
    r: bell.Realization, tol: float, checks: list[CheckResult]
) -> dict | None:
    try:
        result = selftest.extract(r)
    except selftest.ExtractionError as exc:
        # sentinel failing check; the diagnostic itself rides in the summary
        checks.append(CheckResult(f"extraction-stage-{exc.stage}", 1.0, 0.0))
        return {"error": str(exc)}
    checks.append(CheckResult("extraction-fidelity", 1.0 - result.fidelity, 1e-7 * tol))
    worst_obs = max(
        result.residuals[k]
        for k in (
            "bob_observable_1",
            "bob_observable_2",
            "alice_observable_1",
            "alice_observable_2",
        )
    )
    checks.append(CheckResult("extraction-observables", worst_obs, 1e-7 * tol))
    canon = selftest.canonicalized_realization(r, result)
    drift = np.abs(
        bell.correlators_from_realization(canon).values
        - bell.correlators_from_realization(r).values
    ).max()
    checks.append(CheckResult("extraction-preserves-statistics", float(drift), 1e-8 * tol))
    return {
        "fidelity": result.fidelity,
        "aux_dims": list(result.aux_dims),
        "residuals": result.residuals,
        "log": list(result.log),
    }


def _randomness_checks(d: int, tol: float, checks: list[CheckResult]) -> dict:
    ideal = canonical.ideal_realization(d)
    dist = randomness.outcome_distribution(ideal, "B", 1)
    checks.append(
        CheckResult("uniform-outcomes", float(np.abs(dist - 1.0 / d).max()), 1e-9 * tol)
    )
    guess = randomness.ideal_guessing_probability(ideal, "B", 1)
    checks.append(CheckResult("guessing-probability", abs(guess - 1.0 / d), 1e-9 * tol))
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
    tol_scale: float = 1.0,
    realization: bell.Realization | None = None,
) -> VerificationReport:
    """Run the selected module check groups and collect a report.

    With an explicit ``realization``, the bounds/extract groups run against
    it; otherwise the canonical realization for ``d`` is used throughout.
    """
    checks: list[CheckResult] = []
    report = VerificationReport(d=d, seed=seed, tol_scale=tol_scale, checks=checks)
    tol = tol_scale
    if realization is not None:
        value = satwap.evaluate(
            satwap.BellFunctional.satwap(d), bell.correlators_from_realization(realization)
        )
        report.bell_value = value
        report.classical_bound = satwap.classical_bound(d)
        report.quantum_bound = satwap.quantum_bound(d)
        checks.append(
            CheckResult(
                "maximal-violation", abs(value - report.quantum_bound), selftest.tol_violation(d) * tol
            )
        )
        if "extract" in selectors:
            report.extraction = _extract_checks(realization, tol, checks)
        return report

    if "bounds" in selectors:
        value, beta_c, beta_q = _bounds_checks(d, tol, checks)
        report.bell_value = value
        report.classical_bound = beta_c
        report.quantum_bound = beta_q
    if "sos" in selectors:
        _sos_checks(d, seed, tol, checks)
    if "traces" in selectors:
        _trace_checks(d, tol, checks)
    if "cglmp" in selectors:
        _cglmp_checks(d, tol, checks)
    if "extract" in selectors:
        scrambled = selftest.scramble(canonical.ideal_realization(d), 2, 2, seed)
        report.extraction = _extract_checks(scrambled, tol, checks)
    if "randomness" in selectors:
        report.randomness = _randomness_checks(d, tol, checks)
    if "cyclotomic" in selectors:
        _cyclotomic_checks(d, checks)
    return report


# ---------------------------------------------------------------------------
# commands


def cmd_bounds(args) -> int:
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        bf = None
        if d <= args.brute_cap:
            bf = bell.local_bound_bruteforce(satwap.BellFunctional.satwap(d), cap=args.brute_cap)[0]
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
    report = build_verification_report(
        d, selectors, seed=args.seed, tol_scale=args.tol_scale, realization=realization
    )
    if args.format == "json":
        sys.stdout.write(canonical_dumps(report.to_json()))
    else:
        report.print_table()
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args) -> int:
    if args.shots < 1:
        print("error: shots must be >= 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
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
    p.add_argument("--brute-cap", type=int, default=8, help="largest d for brute force")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="run verification checks for a dimension or a file")
    p.add_argument("--d", type=int)
    p.add_argument("--file", help="realization JSON to verify instead of the canonical one")
    p.add_argument("--all", action="store_true", help="run every check group")
    for sel in ALL_SELECTORS:
        p.add_argument(f"--{sel}", action="store_true", help=f"run the {sel} group")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol-scale", type=float, default=1.0, help="multiply all tolerances")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
