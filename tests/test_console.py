"""cwkit run as `python -m cwkit.cli` in a child process, for the checks that need a fresh
interpreter: the entry point reads sys.argv as the installed console script does, and an
address-space limit binds a whole process.  Every other command-line check calls cli.main
in-process (test_cli.py); test_records.py holds the one on what importing the CLI loads."""

import os
import subprocess
import sys

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

from cwkit import cli
from cwkit.cli import main

from test_cli import exit_of

ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def cwkit(*argv, limit=None):
    """(exit code, stdout, stderr) of one cwkit call in a child process, whose address
    space is limit bytes if a limit is given."""
    cap = limit and (lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    done = subprocess.run([sys.executable, "-m", "cwkit.cli", *map(str, argv)], env=ENV,
                          capture_output=True, text=True, timeout=120, preexec_fn=cap)
    return done.returncode, done.stdout, done.stderr


def test_console_script_reads_sys_argv(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["qi-check", "-h"], ["generate", "path", "--length", "3"]):
        code, out, err = exit_of(main, argv)
        code = code[1] if isinstance(code, tuple) else code
        assert cwkit(*argv) == (code, out, err)
        assert out


# argv -> what it would build; built, each printed a MemoryError traceback under the limit
# and exited 1, and with no limit it would take the host's memory first
ABOVE_THE_CEILING = {
    "path": (["generate", "path", "--length", "10000000000"], "path", 2 * 10 ** 10 + 1),
    "spider": (["generate", "spider", "--legs", "1,1,9999999999"], "spider", 2 * 10 ** 10 + 3),
    "subdivided-clique": (["generate", "subdivided-clique", "--n", "100000", "--times", "0"],
                          "subdivided clique", 5000050000),
    "minor-model": (["minor-model", "--n", "100000", "--times", "0"], "subdivided clique",
                    5000050000),
    "corpus": (["corpus", "--seed", "1", "--count", "1", "--max-leaves", "10000000000"],
               "corpus", 10 ** 10 + 10 ** 10 + 10 ** 10 * (10 ** 10 - 1) // 2),
}


@pytest.mark.skipif(resource is None, reason="needs resource.setrlimit")
@pytest.mark.parametrize("argv, route, size", ABOVE_THE_CEILING.values(),
                         ids=list(ABOVE_THE_CEILING))
def test_a_size_above_the_ceiling_exits_4_before_it_is_built(tmp_path, argv, route, size):
    # the size is the vertices plus edges the options ask for, known before any is built
    out_dir = tmp_path / "corpus"
    extra = ["--out-dir", out_dir] if argv[0] == "corpus" else []
    assert cwkit(*argv, *extra, limit=1 << 30) == (
        4, "", f"error: {route} would build {size} vertices and edges, capped at 1000000\n")
    assert not out_dir.exists()
