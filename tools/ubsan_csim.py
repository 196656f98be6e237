"""Run the RTL C backend's differential tests on UBSan-built simulators.

Every ``csim`` object is compiled with ``-fsanitize=undefined
-fno-sanitize-recover=all`` added to ``cbackend._CFLAGS``, so undefined
behaviour in the generated C (a shift by 64 or more, say) exits the
process instead of giving a compiler-dependent value.  The flags go in
by patching the module here, not through a setting of the program.
The artifact cache is a private temp directory, removed when pytest
returns, so no sanitized object is ever loaded by a normal run.  Test
output is captured at the Python level only (``--capture=sys``), so a
sanitizer report on stderr stays visible.

Usage: ``PYTHONPATH=src python tools/ubsan_csim.py [pytest args]``
"""

import os
import shutil
import sys
import tempfile

TESTS = ["tests/test_sim_backends.py", "tests/test_fame_quiet.py"]


def main(argv):
    cache = tempfile.mkdtemp(prefix="repro_ubsan_cache_")
    os.environ["REPRO_CACHE_DIR"] = cache
    try:
        import pytest
        from repro.sim import cbackend

        cbackend._CFLAGS = (*cbackend._CFLAGS, "-fsanitize=undefined",
                            "-fno-sanitize-recover=all")
        return pytest.main(["-q", "--capture=sys", "-p", "no:cacheprovider",
                            *TESTS, *argv])
    finally:
        shutil.rmtree(cache, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
