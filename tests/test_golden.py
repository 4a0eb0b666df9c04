"""Golden bytes for the exact cyclotomic commands, the SOS and trace checks
and the extraction path.

Each case runs a set of commands through ``cli.main`` in process and hashes,
command by command, the exit code and every byte written to stdout.  The
cyclotomic digests were recorded from the rational-coefficient implementation
of :mod:`qsk.cyclotomic` that the integer one replaced, the SOS digest from
the Bell operator grouped by one zero-padded (2d, 2d) coefficient product,
and the extraction digests from the pipeline that verified each party's
conjugation before rotating the realization a second time, so any change to
the arithmetic or its rendering that moves one character or one exit code
fails here.  Three extraction digests were re-recorded when the functional
became its (2, 2, d) table: the Bell value is summed over 4d terms instead
of 4d^2, and moves in its last digit on some scrambles.  The two
``verify-file-extract`` digests were re-recorded again when the spectral
projectors became an in-place FFT of the power stack: the eigenbases of the
scrambled observables move at rounding level, and with them the extraction
residuals and fidelity.  The Bell values come from the powers, not from
eigenbases, so ``perturbed-*`` and ``scramble-json`` did not move.  The
two ``verify-all`` digests were recorded before the check groups returned
their residuals to one table of tolerances: they pin every group's JSON
and the table layout of the report.  ``bounds-json-2..64`` was recorded
before ``bounds`` compared its brute-force column with the closed form.
"""

import hashlib
import json
import math

import pytest

from qsk.cyclotomic import cyclotomic_poly
from qsk.cli import main

GOLDEN = {
    "cyclotomic-json-2..500": (
        [["cyclotomic", "--d", str(n), "--format", "json"] for n in range(2, 501)],
        "f44377163508bac8ca99275259d3f2500298bf67ef3a620121f88cccbd9dcf10",
    ),
    "cyclotomic-table": (
        [["cyclotomic", "--d", str(n)] for n in (2, 3, 6, 12, 30, 105, 420)],
        "fbdcc9c19b25b09ad842e45d2f296784893f334c1ec41db95ebba573820697c9",
    ),
    "verify-cyclotomic-json-2..16": (
        [["verify", "--d", str(n), "--cyclotomic", "--format", "json"] for n in range(2, 17)],
        "4541de3a81bbf4bea85e19e6b0660654b6e15f75ce199f577f6d5bdcde2d5b63",
    ),
    # the same at 1 and 2 BLAS threads
    "verify-sos-traces-json-2..12": (
        [
            ["verify", "--d", str(n), "--sos", "--traces", "--seed", "3", "--format", "json"]
            for n in range(2, 13)
        ],
        "d9b4854773ec29b51854b91a00beb7ebf3b04bebbed99b81f491d60a4de32261",
    ),
    # the `tables` request of the benchmark: its bytes and its exit code
    "bounds-json-2..64": (
        [["bounds", "--d-max", "64", "--format", "json"]],
        "6dfcd59a7868dc51b19a0b89569867472de6361af15d8ba18d0aa26f9168fe3d",
    ),
    # every check group and the table layout; the same at 1 and 2 BLAS threads
    "verify-all-json-2..8": (
        [["verify", "--d", str(n), "--all", "--seed", "3", "--format", "json"] for n in range(2, 9)],
        "854b602d9807b1d6813708b6506c87287f9cfbc0681b4c4fc5fdac1477404712",
    ),
    "verify-all-table-2..8": (
        [["verify", "--d", str(n), "--all", "--seed", "3"] for n in range(2, 9)],
        "61a56f60c113f116f1e3502130ef782f3f82575ebdfe0f43dc5fee8454b47084",
    ),
}


def digest(commands, capsys) -> str:
    h = hashlib.sha256()
    for argv in commands:
        code = main(argv)
        h.update(f"{code}\n".encode())
        h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_command_output_matches_its_golden_digest(name, capsys):
    commands, expected = GOLDEN[name]
    cyclotomic_poly.cache_clear()  # every Phi_n is rebuilt, not read from an earlier test
    assert digest(commands, capsys) == expected


# (d, aux_a, aux_b) with every party dimension d * aux <= 24: at that size
# the digests read the same at 1 and 2 BLAS threads
EXTRACT_CASES = [(6, 4, 2), (2, 1, 1), (3, 2, 3), (5, 3, 1), (4, 3, 2), (8, 2, 2)]
EXTRACT_GOLDEN = {
    "scramble-json": "42299a3fd4982114430fabd8c2e53bfd95e39ee587dc0fb0d8b871a8c7a391dd",
    "verify-file-extract-json": "d35aab461930d1c4e3c8face8d9e6d656c143cf0629a6cdbe46ef43ad86f10d9",
    "verify-file-extract-table": "f0c9db31f4b13f5ed28167b4241b0e9324fb19ef8ae7e29861baf50676919774",
    "perturbed-json": "2dbd1233ad0febea2eea4364a767da12e290a3732afab3364b3129d690390d84",
    "perturbed-table": "62649d69add28d4a39f1008e683c8d2343f2b59a09009124f533be30719bbe73",
}


def _perturbed(text: str) -> str:
    """The realization file with a fixed pattern added to its state, renormalized."""
    data = json.loads(text)
    state = [[re + 0.05 * (k % 7 - 3), im] for k, (re, im) in enumerate(data["state"])]
    norm = math.sqrt(math.fsum(re * re + im * im for re, im in state))
    data["state"] = [[re / norm, im / norm] for re, im in state]
    return json.dumps(data)


def test_extraction_output_matches_its_golden_digests(tmp_path, capsys):
    hashes = {name: hashlib.sha256() for name in EXTRACT_GOLDEN}
    path = tmp_path / "realization.json"

    def run(name, argv, expected_code):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expected_code, (argv, code)
        hashes[name].update(f"{code}\n".encode())
        hashes[name].update(out.encode())
        return out

    for d, aux_a, aux_b in EXTRACT_CASES:
        for seed in range(1, 6):
            argv = ["scramble", "--d", str(d), "--aux-a", str(aux_a), "--aux-b", str(aux_b)]
            text = run("scramble-json", [*argv, "--seed", str(seed)], 0)
            for kind, body, code in (("verify-file-extract", text, 0), ("perturbed", _perturbed(text), 1)):
                path.write_text(body)
                verify = ["verify", "--file", str(path), "--extract"]
                run(f"{kind}-json", [*verify, "--format", "json"], code)
                run(f"{kind}-table", verify, code)
    assert {name: h.hexdigest() for name, h in hashes.items()} == EXTRACT_GOLDEN
