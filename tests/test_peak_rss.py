"""bench/peak_rss.py: the one child-RSS gate of the CI memory smoke runs."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parents[1] / "bench" / "peak_rss.py"


def _gate(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True)


@pytest.mark.parametrize(
    "mb,code,rc",
    [("1000", "pass", 0), ("1", "pass", 1), ("1000", "import sys; sys.exit(3)", 1)],
    ids=["under-the-bound", "over-the-bound", "child-failed"],
)
def test_the_gate_passes_only_a_child_that_exits_0_under_the_bound(mb, code, rc):
    proc = _gate(mb, sys.executable, "-c", code)
    assert proc.returncode == rc
    child_rc, peak = proc.stdout.removeprefix("exit ").removesuffix(" MB\n").split(", peak RSS ")
    assert child_rc == ("3" if "exit" in code else "0")
    assert 1 <= int(peak) < 1000


def test_the_gate_reads_the_childs_own_peak():
    # the reading is the child's own: one that holds 64 MiB reads at least 64 MB
    proc = _gate("1000", sys.executable, "-c", "b = bytearray(64 * 2**20); b[::4096] = b'x' * len(b[::4096])")
    assert proc.returncode == 0
    assert int(proc.stdout.split("peak RSS ")[1].split()[0]) >= 64


def test_the_gate_without_a_command_prints_its_usage():
    proc = _gate("250")
    assert proc.returncode == 2
    assert proc.stderr.startswith("Usage: python3 bench/peak_rss.py MB COMMAND")
