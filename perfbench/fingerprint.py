"""Compare the determinism fingerprints of two benchmark logs.

    python3 perfbench/fingerprint.py RUN_A.log RUN_B.log

Each `query` line of a log (the standard output of run.py) carries the
query's verdict, cost and result digest, and in traced runs its deterministic
counts.  Queries present in both logs must agree on all of them; timings and
slowdowns are ignored.  Exits 1 on any difference or when the logs share no
query.
"""

import re
import sys

QUERY_TAG = re.compile(r"query(\[\w+\])?")
TIMING = ("seconds=", "slowdown=")


def fingerprints(lines) -> dict[str, str]:
    out = {}
    for line in lines:
        tokens = line.split()
        if not tokens or not QUERY_TAG.fullmatch(tokens[0]):
            continue
        cut = next(i for i, t in enumerate(tokens) if t.startswith("verdict="))
        key = " ".join(tokens[:cut])
        out[key] = " ".join(t for t in tokens[cut:]
                            if not t.startswith(TIMING))
    return out


def compare(a: dict, b: dict) -> list[str]:
    return [f"{k}\n  {a[k]}\n  {b[k]}" for k in sorted(a.keys() & b.keys())
            if a[k] != b[k]]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (fingerprints(open(path).read().splitlines()) for path in argv)
    common = a.keys() & b.keys()
    diffs = compare(a, b)
    for d in diffs:
        print("DIFFERS", d)
    print(f"{len(common)} common queries, {len(diffs)} differ")
    return 1 if diffs or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
