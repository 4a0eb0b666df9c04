"""``cli.TOLERANCES`` is the one table of check tolerances, and it is complete.

Every check name that ``verify`` reports has a row, every row but the
extraction-stage sentinels is reported by one of the runs below, every stage
that ``selftest`` can raise has its sentinel row, and README's Tolerances
table lists exactly these rows.  ``maximal-violation`` is the one check with
no row: its tolerance, ``selftest.tol_violation(d)``, depends on d.
"""

import ast
import json
import math
import re
from pathlib import Path

from qsk import cli

ROOT = Path(__file__).resolve().parent.parent
SENTINEL = "extraction-stage-"


def _reported_names(tmp_path, capsys) -> set[str]:
    """Check names of a full report, a report above the enumeration cap, and
    the extraction of a scrambled file and of the same file perturbed."""
    scrambled, perturbed = tmp_path / "scrambled.json", tmp_path / "perturbed.json"
    assert cli.main(["scramble", "--d", "3", "--seed", "1", "--out", str(scrambled)]) == 0
    data = json.loads(scrambled.read_text())
    state = [[x + 0.05 * (k % 7 - 3), y] for k, (x, y) in enumerate(data["state"])]
    norm = math.sqrt(math.fsum(x * x + y * y for x, y in state))
    perturbed.write_text(json.dumps({**data, "state": [[x / norm, y / norm] for x, y in state]}))
    capsys.readouterr()
    names = set()
    for argv, code in (
        (["--d", "3", "--all"], 0),
        (["--d", "13", "--bounds"], 0),
        (["--file", str(scrambled), "--extract"], 0),
        (["--file", str(perturbed), "--extract"], 1),
    ):
        assert cli.main(["verify", *argv, "--format", "json"]) == code
        names |= {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    return names


def test_every_reported_check_has_a_row_and_every_row_is_reported(tmp_path, capsys):
    names = _reported_names(tmp_path, capsys)
    assert names - {"maximal-violation"} <= set(cli.TOLERANCES)
    assert {n for n in cli.TOLERANCES if not n.startswith(SENTINEL)} <= names
    assert any(n.startswith(SENTINEL) for n in names)  # the perturbed file's


def _extraction_stages() -> set[str]:
    """The stage literal of every ``ExtractionError(...)`` in ``selftest.py``."""
    tree = ast.parse((ROOT / "src" / "qsk" / "selftest.py").read_text(encoding="utf-8"))
    stages = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExtractionError":
            stage = node.args[0]
            # a computed stage could name a sentinel with no row
            assert isinstance(stage, ast.Constant) and isinstance(stage.value, str), ast.dump(stage)
            stages.add(stage.value)
    return stages


def test_every_extraction_stage_has_its_sentinel_row():
    stages = _extraction_stages()
    assert len(stages) >= 5
    sentinels = {n for n in cli.TOLERANCES if n.startswith(SENTINEL)}
    assert sentinels == {SENTINEL + stage for stage in stages}
    assert all(cli.TOLERANCES[n] == 0.0 for n in sentinels)


def _readme_tolerances() -> dict[str, str]:
    """README's Tolerances table as check name -> tolerance cell."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Tolerances\n", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = line.strip("|").split("|")
        if not line.startswith("| `") or len(cells) != 2:
            continue
        for name in re.findall(r"`([a-z][a-z-]*)`", cells[0]):
            assert name not in rows, f"{name} is listed twice"
            rows[name] = cells[1].strip().strip("`")
    return rows


def test_readme_tolerances_table_is_the_check_table():
    rows = _readme_tolerances()
    assert rows.pop("maximal-violation") == "1e-6 * d"
    assert {name: float(tol) for name, tol in rows.items()} == cli.TOLERANCES
