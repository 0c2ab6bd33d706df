"""Start-up and exit of the package, each in a fresh interpreter.

`import twinassets` runs its submodule imports (numpy, scipy) with the
cyclic GC off and freezes what they leave behind (README "Start-up and
exit"). These tests check the GC state it leaves to the caller, and that a
CLI process exiting with that frozen heap still writes the same bytes and
the same diagnostics.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

from test_golden import GOLDEN, fingerprint, path_of

SRC = Path(__file__).resolve().parent.parent / "src"


def python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter with the checkout's src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def probe(code: str) -> str:
    result = python("-c", code)
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout.decode().strip()


class TestImportBracket:
    def test_gc_enabled_again_and_heap_frozen(self):
        out = probe("import gc, twinassets; print(gc.isenabled(), gc.get_freeze_count() > 0)")
        assert out == "True True"

    def test_gc_left_disabled_when_caller_disabled_it(self):
        assert probe("import gc; gc.disable(); import twinassets; print(gc.isenabled())") == "False"

    def test_failed_import_enables_gc_again(self):
        out = probe(
            "import gc, sys\n"
            "sys.modules['scipy.special'] = None\n"
            "try:\n"
            "    import twinassets\n"
            "except ImportError:\n"
            "    print('ImportError', gc.isenabled())\n"
        )
        assert out == "ImportError True"


class TestExit:
    """`python -m twinassets.cli` writing to a pipe, without --out."""

    def cli(self, argv: str) -> subprocess.CompletedProcess:
        return python("-m", "twinassets.cli", *shlex.split(argv))

    def test_stdout_bytes_are_golden(self):
        argv = "price --alpha 1.1 --rho 0.8 --n 10000 --seed 42"
        result = self.cli(argv)
        assert result.returncode == 0, result.stderr.decode()
        expected = GOLDEN[argv][1][path_of(fingerprint())]
        assert hashlib.sha256(result.stdout).hexdigest() == expected
        assert result.stderr == b""

    def test_numerical_error_is_one_clean_line(self):
        argv = "price --alpha 40 --rho 0 --sigma-i 0.05 --sigma-j 3 --maturity 2"
        assert GOLDEN[argv][0] == 4
        result = self.cli(argv)
        assert result.returncode == 4
        assert result.stdout == b""
        assert b"Traceback" not in result.stderr and b"RuntimeWarning" not in result.stderr
        lines = result.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: numerical: ")
