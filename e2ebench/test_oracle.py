"""Tests of the benchmark's own oracles: every injected fault is counted,
and so is every request or table a crashing program leaves unanswered.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Run from the root of a checkout. The served-plan tests use run.py's build
step, so the first run builds the program in Release (a few minutes).
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import unittest

import run
import tables

E1_TABLE = """== E1 / Theorem 9: QO_N YES/NO gap under f_N (costs as log2) ==
+----+------+------+-----------+--------------+------------+-----------+---------------+----------------+
| n  | lg a | lg K | YES wit-K | YES greedy-K | NO floor-K | NO best-K | gap (a units) | paper (d/2)n-1 |
+----+------+------+-----------+--------------+------------+-----------+---------------+----------------+
| 60 | 2    | 990  | -0.6599   | 127.3        | 20         | 21.34     | 11            | 9              |
| 60 | 8    | 3960 | -6.994    | 560          | 80         | 81.01     | 11            | 9              |
+----+------+------+-----------+--------------+------------+-----------+---------------+----------------+
"""

E8_TABLE = """== E8 / Appendix A+B: PARTITION -> SPPCS -> SQO-CP ==
+-------+--------+----------+-------------+-----------+------------+--------------+
| items | trials | yes rate | sppcs agree | sqo agree | max M bits | mean time ms |
+-------+--------+----------+-------------+-----------+------------+--------------+
| 3     | 94     | 64.9%    | 100%        | 100%      | 301        | 0.0443       |
| 4     | 97     | 76.3%    | 100%        | 100%      | 301        | 0.0976       |
+-------+--------+----------+-------------+-----------+------------+--------------+
"""


class TableOracleTest(unittest.TestCase):
    def test_clean_rows_pass(self):
        self.assertEqual(tables.check_rows("qon_gap", E1_TABLE), (2, []))
        self.assertEqual(tables.check_rows("sqocp", E8_TABLE), (2, []))

    def test_no_best_below_floor_is_counted(self):
        text = E1_TABLE.replace("| 81.01     |", "| 79.5      |")
        checked, failures = tables.check_rows("qon_gap", text)
        self.assertEqual(checked, 2)
        self.assertEqual(len(failures), 1)
        self.assertIn("NO best below floor", failures[0])

    def test_yes_witness_above_k_is_counted(self):
        text = E1_TABLE.replace("| -0.6599   |", "| 0.25      |")
        self.assertEqual(len(tables.check_rows("qon_gap", text)[1]), 1)

    def test_disagreeing_reduction_is_counted(self):
        text = E8_TABLE.replace("| 100%      | 301        | 0.0976",
                                "| 98.97%    | 301        | 0.0976")
        self.assertEqual(len(tables.check_rows("sqocp", text)[1]), 1)

    def test_wall_clock_column_is_masked(self):
        slower = E8_TABLE.replace("0.0443      ", "12.75       ")
        self.assertEqual(tables.digest("sqocp", E8_TABLE),
                         tables.digest("sqocp", slower))
        changed = E8_TABLE.replace("| 301        | 0.0443", "| 302        | 0.0443")
        self.assertNotEqual(tables.digest("sqocp", E8_TABLE),
                            tables.digest("sqocp", changed))

    def test_digest_mismatch_is_counted(self):
        expected = {"qon_gap": {"rows": 2, "sha256": tables.digest("qon_gap", E1_TABLE)}}
        self.assertEqual(tables.check_binary("qon_gap", E1_TABLE, expected), (3, []))
        changed = E1_TABLE.replace("| 560 ", "| 561 ")
        checked, failures = tables.check_binary("qon_gap", changed, expected)
        self.assertEqual((checked, len(failures)), (3, 1))


def read_frames(path):
    with open(path, "rb") as f:
        data = f.read()
    frames, at = [], 0
    while at + 4 <= len(data):
        (size,) = struct.unpack("<I", data[at:at + 4])
        frames.append(data[at + 4:at + 4 + size].decode())
        at += 4 + size
    return frames


def write_frames(path, frames):
    with open(path, "wb") as f:
        for frame in frames:
            payload = frame.encode()
            f.write(struct.pack("<I", len(payload)) + payload)


class ServedPlanOracleTest(unittest.TestCase):
    """serve_cold request i is dp (i % 3 == 0), QO_N ii (1) or QO_H ii (2)."""

    SEED = 7

    @classmethod
    def setUpClass(cls):
        cls.bins = run.build()
        os.makedirs(run.BUILD, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="oracle-test-", dir=run.BUILD)
        cls.genuine = os.path.join(cls.tmp, "responses.bin")
        subprocess.run(
            [cls.bins["benchkit"], "serve", "--server=" + cls.bins["serve"],
             "--workload=serve_cold", "--seed=%d" % cls.SEED, "--count=30",
             "--workdir=" + os.path.join(cls.tmp, "work"),
             "--save-responses=" + cls.genuine],
            check=True, stdout=subprocess.DEVNULL)
        cls.frames = read_frames(cls.genuine)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check(self, frames):
        path = os.path.join(self.tmp, "check.bin")
        write_frames(path, frames)
        out = subprocess.run(
            [self.bins["benchkit"], "check", "--workload=serve_cold",
             "--seed=%d" % self.SEED, "--responses=" + path],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        return json.loads(out)

    def replace_cost(self, frame, fn):
        head, rest = frame.split("\n", 1)
        tokens = [("cost_log2=" + fn(t[len("cost_log2="):]))
                  if t.startswith("cost_log2=") else t for t in head.split(" ")]
        return " ".join(tokens) + "\n" + rest

    def test_genuine_responses_pass(self):
        result = self.check(self.frames)
        self.assertEqual(len(self.frames), 30)
        self.assertEqual((result["checked"], result["failed"]), (30, 0))

    def test_corrupted_cost_is_counted(self):
        frames = list(self.frames)
        # One unit in the last place: the neighbouring double.
        frames[1] = self.replace_cost(
            frames[1], lambda c: repr(math.nextafter(float(c), math.inf)))
        result = self.check(frames)
        self.assertEqual(result["failed"], 1)
        self.assertTrue(result["failures"][0].startswith("1: cost_log2"))

    def test_dp_cost_beyond_its_tolerance_is_counted(self):
        frames = list(self.frames)
        frames[0] = self.replace_cost(frames[0], lambda c: repr(float(c) * (1 + 1e-6)))
        result = self.check(frames)
        self.assertEqual(result["failed"], 1)
        self.assertTrue(result["failures"][0].startswith("0: cost_log2"))

    def test_non_permutation_is_counted(self):
        frames = list(self.frames)
        lines = frames[2].split("\n")
        seq = lines[1].split(" ")
        seq[2] = seq[1]  # a relation twice, another never
        lines[1] = " ".join(seq)
        frames[2] = "\n".join(lines)
        result = self.check(frames)
        self.assertEqual(result["failed"], 1)
        self.assertIn("not a permutation", result["failures"][0])

    def test_each_fault_is_counted_once(self):
        frames = list(self.frames)
        frames[4] = self.replace_cost(frames[4], lambda c: repr(float(c) + 0.5))
        frames[5] = frames[5].replace("feasible=1", "feasible=0")
        frames[8] = frames[8].split("\n")[0] + "\n" + "\n".join(frames[8].split("\n")[1:-1])
        result = self.check(frames)
        self.assertEqual((result["checked"], result["failed"]), (30, 3))


# Answers ping like aqo_serve, then aborts on the first real request.
ABORTING_SERVER = """
import os, struct, sys
while True:
    head = sys.stdin.buffer.read(4)
    if len(head) < 4:
        sys.exit(0)
    payload = sys.stdin.buffer.read(struct.unpack("<I", head)[0])
    if not payload.startswith(b"ping"):
        os.abort()
    sys.stdout.buffer.write(struct.pack("<I", 9) + b"ok 0 pong")
    sys.stdout.buffer.flush()
"""


def write_script(path, body):
    with open(path, "w") as f:
        f.write("#!" + sys.executable + "\n" + body)
    os.chmod(path, 0o755)


class CrashAccountingTest(unittest.TestCase):
    """A crash fails every request or table it leaves unanswered, and the
    run still reports every metric."""

    @classmethod
    def setUpClass(cls):
        cls.bins = dict(run.build())
        os.makedirs(run.BUILD, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="crash-test-", dir=run.BUILD)
        cls.bins["serve"] = os.path.join(cls.tmp, "aborting_serve")
        write_script(cls.bins["serve"], ABORTING_SERVER)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def serve(self, workload):
        workdir = os.path.join(self.tmp, workload)
        os.makedirs(workdir)
        attempted, failed, failures, metrics, _ = run.serve(
            self.bins, workload, 3, 0.5, 0, workdir)
        self.assertEqual(set(metrics), {name for name, _ in run.END_TO_END})
        self.assertEqual(metrics["p50_ms"], run.FAILED_VALUE)
        self.assertIn("aqo_serve exited 134", failures)
        return attempted, failed, failures

    def test_crash_in_the_warm_pass_fails_every_request(self):
        attempted, failed, failures = self.serve("serve_hot")
        # 32 warm requests, the planned timed stream, the server's exit.
        self.assertGreater(attempted, 32 + 1)
        self.assertEqual(failed, attempted)
        self.assertTrue(any("died in set-up 0 after 0 warm" in f for f in failures))

    def test_crash_in_the_timed_run_fails_every_request(self):
        attempted, failed, failures = self.serve("serve_cold")
        self.assertGreater(attempted, 1)
        self.assertEqual(failed, attempted)
        self.assertTrue(any("stopped answering at timed request 0" in f
                            for f in failures))

    def test_crash_in_the_table_set_up_is_counted(self):
        bench = os.path.join(self.tmp, "bench")
        os.makedirs(bench)
        for binary in ("qoh_gap", "sparse_qon", "sqocp"):
            write_script(os.path.join(bench, binary), "import os\nos.abort()\n")
        result = run.warmup_pass({"bench": bench}, bench)
        self.assertEqual((result["checked"], len(result["failures"])), (3, 3))


if __name__ == "__main__":
    unittest.main()
