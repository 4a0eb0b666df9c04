"""Golden bytes for the exact cyclotomic commands and the extraction path.

Each case runs a set of commands through ``cli.main`` in process and hashes,
command by command, the exit code and every byte written to stdout.  The
cyclotomic digests were recorded from the rational-coefficient implementation
of :mod:`qsk.cyclotomic` that the integer one replaced, and the extraction
digests from the pipeline that verified each party's conjugation before
rotating the realization a second time, so any change to the arithmetic or
its rendering that moves one character or one exit code fails here.
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
    "verify-file-extract-json": "775bab371148961b3207bb3f13efcb948371b8680f3244baf909f6f89feb5e0a",
    "verify-file-extract-table": "415aaabe784b2e9b8154ebc1aab1f4cc6788c5cfa3b12905ad7e04d4f08216d1",
    "perturbed-json": "47fc1a7e2d1e96e034e07923a2cdd388cd36a252011d9dfe2623cb6ac1da14a0",
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
