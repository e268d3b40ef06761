"""``python -m involute`` with a stdout that cannot be written: one error
line and exit 2, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import involute
from involute.families import cyclic_group, zero_semigroup
from involute.semigroups import dump_table

_SRC = str(Path(involute.__file__).resolve().parents[1])


def _run(argv, stdout, *, unbuffered=False, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "involute", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env, cwd=cwd, text=True)


def _assert_one_write_error(proc, stderr):
    assert proc.returncode == 2, (proc.args, stderr)
    assert stderr.startswith("error: cannot write the output: ")
    assert stderr.count("\n") == 1, stderr


def test_python_m_involute_runs_the_cli(tmp_path):
    proc = _run(["factor", "(0 1 2)"], subprocess.PIPE, cwd=tmp_path)
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")
    assert out.splitlines()[0] == "pi    = (0 1 2)"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_cli_reports_a_full_device_without_a_traceback(tmp_path):
    dump_table(cyclic_group(12), tmp_path / "z12.json")
    runs = [
        (["analyze", "z12.json"], False),
        (["analyze", "z12.json", "--json"], False),
        (["analyze", "z12.json", "--json"], True),
        (["construct", "zero", "300"], False),
        (["verify", "--only", "klein"], False),
        (["factor", "(0 1)"], False),
        (["trace", "nf", "ba", "--edges", "ab"], False),
    ]
    with open("/dev/full", "w") as full:
        # side by side, since each run is mostly interpreter start-up
        procs = [_run(argv, full, unbuffered=unbuffered, cwd=tmp_path) for argv, unbuffered in runs]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            _assert_one_write_error(proc, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["analyze", "--help"]])
def test_help_that_cannot_be_written_exits_2(argv, tmp_path):
    with open("/dev/full", "w") as full:
        procs = [_run(argv, full, unbuffered=unbuffered, cwd=tmp_path) for unbuffered in (False, True)]
        for proc in procs:
            _, err = proc.communicate(timeout=60)
            _assert_one_write_error(proc, err)


def test_cli_reports_a_closed_pipe_without_a_traceback(tmp_path):
    # the report is about 140 KB, more than a pipe holds
    dump_table(zero_semigroup(6), tmp_path / "zero6.json")
    proc = _run(["analyze", "zero6.json", "--json"], subprocess.PIPE, cwd=tmp_path)
    assert proc.stdout.read(8) == '{\n  "che'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    _assert_one_write_error(proc, err)
    assert "Broken pipe" in err
