#!/usr/bin/env python3
"""Runs the paper's table set from a build tree and checks every table row
and every stdout digest against e2ebench/expected_tables.json.

    python3 tests/run_table_digests.py <bench-dir>

<bench-dir> is the directory that holds the table binaries (build/bench).
The table set, the row oracles and the digests are e2ebench/tables.py's,
so a change to the tables' bits fails here as it fails in the end-to-end
benchmark. Exits 1 and lists every failure.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "e2ebench"))

import tables  # noqa: E402


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: %s <bench-dir>\n" % argv[0])
        return 2
    bench_dir = argv[1]
    expected = tables.load_expected()
    failures = []
    for exp, binary, args in tables.TABLE_SET:
        proc = subprocess.run([os.path.join(bench_dir, binary)] + args,
                              capture_output=True, text=True)
        if proc.returncode != 0 or proc.stderr.strip():
            failures.append("%s (%s) exited %d: %s" %
                            (binary, exp, proc.returncode, proc.stderr[-300:]))
        checked, binary_failures = tables.check_binary(binary, proc.stdout,
                                                       expected)
        failures += binary_failures
        print("%s (%s): %d checks, %d failed" %
              (binary, exp, checked, len(binary_failures)))
    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
