#!/usr/bin/env python3
"""Writes requests.bin, the request stream of the serve_parse_golden test.

    python3 tests/serve_parse_golden/make_requests.py > requests.bin

Each request is one aqo_serve frame (a u32 little-endian length, then the
payload; io/framing.h). The stream holds valid QO_N and QO_H instances at
n = 1, 3 and 30, bodies with blank lines, comments and CRLF line ends,
one request per edge of the number and line grammar (io/serialization.h),
an empty body, an unknown family and a `qonx` family token. Then come
one request just outside each registry entry's domain: every entry with
a ceiling at its ceiling + 1, every entry that needs two relations at
n = 1. Each of those is answered `err <id> domain: ...`. Then every
registry entry at n = 2 (all `ok`), a `qon 0` and a `qoh 0` body (both
refused by the reader), and one fresh QO_N instance three times under
`dp`: with a 1e-9 ms header deadline (passed at the first poll, so
`status=deadline_exceeded` and the greedy fallback's plan), with none
(`status=complete`: the cut plan was not cached) and with 1e15 ms (the
same bytes as none). The stream ends with two header tokens that are
neither `optimizer=<name>` nor a number, each answered `err <id>
header: ...`, and one QO_N and one QO_H body whose log2 sizes exceed
kMaxSerializedLog2 (each answered `err <id> parse: bad rel line: ...`).
responses.bin is what `aqo_serve --seed=3` answers, with or without
`--deadline-ms=1e15`; regenerate it only when a response is meant to
change:

    aqo_serve --seed=3 < requests.bin > responses.bin
"""

import random
import struct
import sys


def g17(x):
    return "%.17g" % x


def instance(family, n, edges, rng):
    lines = [f"{family} {n}" + (f" {g17(rng.uniform(1e3, 1e9))} "
                                f"{g17(rng.uniform(0.05, 0.95))}"
                                if family == "qoh" else "")]
    lines += [f"rel {i} {g17(rng.uniform(1.0, 40.0))}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    lines += [f"edge {u} {v} {g17(-rng.uniform(0.0, 20.0))}"
              for u, v in pairs[:edges]]
    return "\n".join(lines) + "\n"


def main():
    rng = random.Random(15)
    # Only QO_N random takes n=1, and dp stops at n=24, so the n=1 and
    # n=30 requests name an entry that runs them. A QO_H n=1 request
    # names no entry at all: it still parses, then gets the
    # unknown-optimizer error instead of a parse or domain error.
    bodies = []
    for family in ("qon", "qoh"):
        for n, edges in ((1, 0), (3, 2), (30, 217)):
            optimizer = {1: " optimizer=random" if family == "qon"
                         else " optimizer=none",
                         3: "", 30: " optimizer=greedy"}[n]
            bodies.append((optimizer, instance(family, n, edges, rng)))

    def rel0(field):
        # Relation 0's size shows in the plan's cost.
        return f"qon 2\nrel 0 {field}\nrel 1 3\nedge 0 1 -1\n"

    three = "rel 0 3\nrel 1 4.5\nrel 2 2\nedge 0 1 -1\nedge 1 2 -2.5\n"
    bodies += [
        ("", "\n\n  \nqon 3\n" + three),
        ("", "\vqon 3\n" + three),
        ("", "qon 3\n# a comment\nc a DIMACS comment\n\t# indented\n" + three),
        ("", "qon 3\r\n" + three.replace("\n", "\r\n")),
        ("", "qoh 3 170 0.5\r\n" + three.replace("\n", "\r\n")),
        ("", "# leading comment\nqon 3\n" + three),
        ("", "c leading comment\nqon 3\n" + three),
        ("", rel0("+1.5")),
        ("", rel0("1e")),
        ("", rel0("1e+")),
        ("", rel0("1e-400")),
        ("", rel0("-1e-400")),
        ("", rel0("1e400")),
        ("", rel0("0x1p3")),
        ("", rel0("inf")),
        ("", rel0("nan")),
        ("", rel0("+-1")),
        ("", "qon 2\nrel 0 3.5 trailing\nedge 0 1 -1 trailing\n"),
        ("", "qon 2x\nrel 1 2\n"),
        ("", "qon 2\n\v\n"),
        ("", "qon 2\nrel 0 1\n\f\n"),
        ("", "qoh 2 170 0.5\n\v\n"),
        ("", "qoh 2 1e-400 0.5\n"),
        ("", "qoh 2 +170 +.5\nedge 0 1 -.5e1\n"),
        ("", "qon 2\nedge 0 1-5\n"),
        ("", rel0("1\0x")),
        ("", "qon"),
        ("", ""),
        (None, ""),
        ("", "foo 3\nrel 0 1\n"),
        ("", "qonx 2\nrel 0 1\n"),
    ]
    # Out-of-domain requests, appended so the responses above stay a
    # prefix: each entry's ceiling + 1, then n=1 for every entry whose
    # floor is two relations.
    ceilings = (("qon", "exhaustive", 11), ("qon", "dp", 25),
                ("qon", "cout", 25), ("qon", "bnb", 63),
                ("qoh", "exhaustive", 10))
    for family, name, n in ceilings:
        bodies.append((f" optimizer={name}",
                       instance(family, n, 2 * n, rng)))
    floors = {"qon": ("exhaustive", "dp", "greedy", "ii", "sa", "genetic",
                      "bnb", "cout", "kbz"),
              "qoh": ("exhaustive", "greedy", "random", "ii", "sa")}
    for family, names in floors.items():
        for name in names:
            bodies.append((f" optimizer={name}", instance(family, 1, 0, rng)))
    # Every entry at n = 2, the smallest size all of them take; with the
    # n = 1 and ceiling + 1 requests above and the n = 0 bodies below this
    # pins each entry at n in {0, 1, 2, max + 1}.
    for family, names in (("qon", floors["qon"] + ("random",)),
                          ("qoh", floors["qoh"])):
        for name in names:
            bodies.append((f" optimizer={name}", instance(family, 2, 1, rng)))
    bodies += [("", instance("qon", 0, 0, rng)),
               ("", instance("qoh", 0, 0, rng))]
    # A header deadline overrides --deadline-ms= for its request only.
    fresh = instance("qon", 8, 12, rng)
    for deadline in (" 1e-9", "", " 1e15"):
        bodies.append((f"{deadline} optimizer=dp", fresh))
    bodies += [(" optimiser=greedy", "qon 3\n" + three),
               (" 5ms", "qon 3\n" + three)]
    # Log2 values past kMaxSerializedLog2: their sums would overflow the
    # cost model, so the reader refuses them.
    huge = "".join(f"rel {i} 1.7e308\n" for i in range(3))
    for header in ("qon 3", "qoh 3 170 0.5"):
        bodies.append((" optimizer=greedy",
                       f"{header}\n{huge}edge 0 1 0\nedge 1 2 0\n"))
    out = sys.stdout.buffer
    for k, (tokens, body) in enumerate(bodies):
        # `tokens` follow the id in the header. None: a header frame with
        # no newline, so no body at all.
        payload = (f"req g{k}{tokens or ''}" +
                   ("" if tokens is None else "\n" + body)).encode()
        out.write(struct.pack("<I", len(payload)) + payload)


if __name__ == "__main__":
    main()
