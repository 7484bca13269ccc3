"""The gap_tables oracle: parses the table binaries' text tables and checks
every row against its theorem's inequalities, plus a digest of each
binary's whole stdout against the digest recorded for this repository.

Each row and each digest is one operation; a violation is one failed
operation. The checks never consult the optimizers: they compare columns
the binaries print (witness costs, certified floors, best plans found).
"""

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected_tables.json")

# The table set as shipped, one binary after another. Multi-threaded
# binaries run with --threads=1; the others are serial already.
TABLE_SET = [
    ("E1", "qon_gap", ["--quick=1", "--threads=1"]),
    ("E3", "qoh_gap", ["--threads=1"]),
    ("E5", "sparse_qon", []),
    ("E6", "sparse_qoh", []),
    ("E7", "optimizers", ["--threads=1"]),
    ("E8", "sqocp", []),
]


def parse_tables(text):
    """Returns [(title, header, rows)] for every box-drawn table in text."""
    tables = []
    title = None
    header = None
    rows = None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            title = line[3:-3]
            header = None
            rows = None
        elif line.startswith("|"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if header is None:
                header = cells
                rows = []
                tables.append((title, header, rows))
            else:
                rows.append(cells)
    return tables


def masked_stdout(binary, text):
    """stdout with E8's wall-clock 'mean time ms' column masked."""
    if binary != "sqocp":
        return text
    out = []
    for line in text.splitlines(keepends=True):
        # The column's width follows its values, so borders are cut too.
        if line.startswith(("|", "+")):
            body = line.rstrip()
            cut = max(body.rfind("|", 0, len(body) - 1),
                      body.rfind("+", 0, len(body) - 1))
            line = body[:cut + 1] + "*\n"
        out.append(line)
    return "".join(out)


def digest(binary, text):
    return hashlib.sha256(masked_stdout(binary, text).encode()).hexdigest()


def load_expected():
    with open(EXPECTED_PATH) as f:
        return json.load(f)


def _num(cell):
    return float(cell.rstrip("%"))


def _column(header, name):
    return header.index(name)


def check_rows(binary, text):
    """Checks every table row of one binary's stdout.

    Returns (rows_checked, failures) where failures lists one reason per
    failed row. The inequalities are the theorems' own, with the constant
    factors docs/reductions.md records for them.
    """
    failures = []
    checked = 0
    tables = parse_tables(text)

    def row_check(ok, reason, row):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append("%s row %s: %s" % (binary, " ".join(row), reason))

    for title, header, rows in tables:
        for row in rows:
            try:
                if binary == "qon_gap":
                    # Lemma 6: the clique-first witness costs at most K.
                    # Lemma 8: every plan costs at least the certified floor.
                    wit = _num(row[_column(header, "YES wit-K")])
                    floor = _num(row[_column(header, "NO floor-K")])
                    best = _num(row[_column(header, "NO best-K")])
                    row_check(wit <= 0 and best >= floor,
                              "YES witness above K or NO best below floor", row)
                elif binary == "qoh_gap":
                    # Lemma 12: the 5-pipeline witness costs at most L*2^4.
                    # Lemmas 13/14: every NO plan costs at least G/2^4.
                    wit = _num(row[_column(header, "YES wit-L")])
                    g_floor = _num(row[_column(header, "NO G-L")])
                    best = _num(row[_column(header, "NO best-L")])
                    row_check(wit <= 4 and best >= g_floor - 4,
                              "YES witness above L*2^4 or NO best below G/2^4", row)
                elif binary == "sparse_qon":
                    wit = _num(row[_column(header, "wit-K (lg)")])
                    slack = _num(row[_column(header, "slack (lg)")])
                    floor = _num(row[_column(header, "floor-K (lg)")])
                    gap_ok = row[_column(header, "gap ok")]
                    row_check(wit <= 0 and floor > slack and gap_ok == "yes",
                              "witness above K or floor below slack", row)
                elif binary == "sparse_qoh":
                    forced = row[_column(header, "sentinel forced")]
                    wit = _num(row[_column(header, "YES wit-L (lg)")])
                    cap = _num(row[_column(header, "slack cap (lg)")])
                    above = _num(row[_column(header, "NO sampled-G (lg, min)")])
                    row_check(forced == "yes" and wit <= cap and above >= 0,
                              "sentinel not forced, witness above cap or NO plan below G",
                              row)
                elif binary == "optimizers" and header[0:3] == ["n", "p", "trials"]:
                    # E7a: ratios to the DP optimum; no heuristic beats it
                    # (beyond rounding) and p50 <= p95.
                    ok = True
                    for cell in row[3:]:
                        p50, p95 = (float(v) for v in cell.split("/"))
                        ok = ok and p50 >= -1e-9 and p95 >= -1e-9 and p50 <= p95
                    row_check(ok, "a heuristic below the DP optimum", row)
                elif binary == "optimizers":
                    # E7b: every heuristic plan sits at or above the floor.
                    floor = _num(row[_column(header, "floor/K (a units)")])
                    ok = all(_num(cell) >= floor for cell in row[3:])
                    row_check(ok, "a heuristic below the certified floor", row)
                elif binary == "sqocp":
                    ok = (row[_column(header, "sppcs agree")] == "100%" and
                          row[_column(header, "sqo agree")] == "100%")
                    row_check(ok, "SPPCS or SQO-CP disagrees with PARTITION", row)
                else:
                    row_check(True, "", row)
            except (ValueError, IndexError) as err:
                row_check(False, "unreadable row (%s)" % err, row)
    return checked, failures


def check_binary(binary, text, expected):
    """All operations for one binary's stdout: rows plus the digest."""
    rows, failures = check_rows(binary, text)
    want = expected.get(binary, {})
    if rows != want.get("rows") or digest(binary, text) != want.get("sha256"):
        failures.append("%s stdout differs from expected_tables.json "
                        "(%d table rows, expected %s)" % (binary, rows, want.get("rows")))
    return rows + 1, failures
