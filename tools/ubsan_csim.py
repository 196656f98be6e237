"""Run the native backends' differential tests on UBSan-built objects.

Both native builds get ``-fsanitize=undefined -fno-sanitize-recover=all``:
the generated RTL simulators (``cbackend._CFLAGS``, the ``csim``
objects) and the gate-level replay kernel (``glcodegen._CFLAGS``, the
``glso`` object).  Undefined behaviour in either (a shift by 64 or
more, an out-of-range index, say) then exits the process instead of
giving a compiler-dependent value.  The flags go in by patching the
modules here, not through a setting of the program.  The artifact cache
is a private temp directory, removed when pytest returns, so no
sanitized object is ever loaded by a normal run.  Test output is
captured at the Python level only (``--capture=sys``), so a sanitizer
report on stderr stays visible.

Usage: ``PYTHONPATH=src python tools/ubsan_csim.py [pytest args]``
"""

import os
import shutil
import sys
import tempfile

TESTS = ["tests/test_sim_backends.py", "tests/test_fame_quiet.py",
         "tests/test_glcodegen.py", "tests/test_power_lanes.py"]
SANITIZE = ("-fsanitize=undefined", "-fno-sanitize-recover=all")


def main(argv):
    cache = tempfile.mkdtemp(prefix="repro_ubsan_cache_")
    os.environ["REPRO_CACHE_DIR"] = cache
    try:
        import pytest
        from repro.gatelevel import glcodegen
        from repro.sim import cbackend

        cbackend._CFLAGS = (*cbackend._CFLAGS, *SANITIZE)
        glcodegen._CFLAGS = (*glcodegen._CFLAGS, *SANITIZE)
        return pytest.main(["-q", "--capture=sys", "-p", "no:cacheprovider",
                            *TESTS, *argv])
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
