"""Golden bytes for the exact cyclotomic commands.

Each case runs a set of commands through ``cli.main`` in process and hashes,
command by command, the exit code and every byte written to stdout.  The
digests were recorded from the rational-coefficient implementation of
:mod:`qsk.cyclotomic` that the integer one replaced, so any change to the
arithmetic or its rendering that moves one character or one exit code fails
here.
"""

import hashlib

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
