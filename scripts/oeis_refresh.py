#!/usr/bin/env python3
"""Compare the embedded OEIS fixtures against freshly fetched b-files.

Purely optional: the test suite never touches the network.  Downloads go
through the cache in ``--cache-dir`` (or $OEIS_CACHE_DIR, or
``~/.cache/riordan-oeis``), so repeated runs are cheap; point
$OEIS_BASE_URL at a mirror if needed.

usage: python scripts/oeis_refresh.py [--cache-dir DIR] [--offline]
"""

import argparse
import sys

from riordan.bfile import CacheMiss, NetworkUnavailable, fetch_bfile, resolve_cache_dir
from riordan.oeis import FIXTURES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--offline", action="store_true")
    args = parser.parse_args()

    cache_dir = resolve_cache_dir(args.cache_dir)

    failures = 0
    for anumber in sorted(FIXTURES):
        fixture = FIXTURES[anumber]
        try:
            bfile = fetch_bfile(anumber, cache_dir, offline=args.offline)
        except (NetworkUnavailable, CacheMiss) as exc:
            print(f"[skip] {anumber}: {exc}")
            continue
        fetched = bfile.values
        embedded = fixture.values
        n = min(len(fetched), len(embedded))
        if fetched[:n] == embedded[:n]:
            print(f"[  ok] {anumber}: {n} leading values agree")
        else:
            first_bad = next(i for i in range(n) if fetched[i] != embedded[i])
            print(
                f"[FAIL] {anumber}: value {first_bad} differs "
                f"(fetched {fetched[first_bad]}, embedded {embedded[first_bad]})"
            )
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
