"""OEIS b-files: parsing, an optional cached fetcher, and ``fetch-bfile``.

:func:`fetch_bfile` can refresh data from the public OEIS b-file endpoint
into a local cache, but is never consulted implicitly: a cached copy always
wins and the endpoint is only contacted when the cache misses and
``offline`` is not set.  Everything in the default test suite runs offline.

Without cached bytecode a request compiles every module it imports, so
this code is kept out of :mod:`riordan.oeis`, which every ``verify`` and
``oeis-check`` request loads: only ``fetch-bfile`` loads this module.
"""

import os
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

from . import _count
from .oeis import _normalize_anumber

DEFAULT_BASE_URL = "https://oeis.org"
BASE_URL_ENV = "OEIS_BASE_URL"
CACHE_DIR_ENV = "OEIS_CACHE_DIR"


class MalformedLine(ValueError):
    """A b-file line that is neither a comment nor an 'index value' pair."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class NetworkUnavailable(OSError):
    """The OEIS endpoint could not be reached and no cache exists."""


class CacheMiss(FileNotFoundError):
    """Offline fetch requested but the cache has no copy."""


class BFile(namedtuple("BFile", "entries")):
    """Parsed 'index value' lines of an OEIS b-file: ``entries``, a tuple of
    (index, value) pairs of ints."""

    __slots__ = ()

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.entries)


def parse_bfile(text: str) -> BFile:
    """Parse b-file text: 'index value' per line, '#' comments, blanks skipped."""
    entries: list[tuple[int, int]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MalformedLine(f"expected 'index value', got {raw!r}", number)
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine(f"non-integer field in {raw!r}", number) from None
        if entries and index <= entries[-1][0]:
            raise MalformedLine(f"index {index} not strictly increasing", number)
        entries.append((index, value))
    return BFile(tuple(entries))


def render_bfile(bfile: BFile) -> str:
    return "".join(f"{n} {v}\n" for n, v in bfile.entries)


# -- fetching ----------------------------------------------------------------


def bfile_url(anumber: str, base_url: str | None = None) -> str:
    anumber = _normalize_anumber(anumber)
    base = (base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL).rstrip("/")
    return f"{base}/{anumber}/b{anumber[1:]}.txt"


def fetch_bfile(
    anumber: str,
    cache_dir: str | Path,
    *,
    offline: bool = False,
    base_url: str | None = None,
    timeout: float = 30.0,
) -> BFile:
    """Return the b-file for an A-number, downloading at most once.

    The cache (one verbatim file per A-number) always wins; the network is
    only touched on a cache miss with ``offline`` unset.  Downloads are
    written atomically so concurrent fetchers cannot see partial files.
    """
    anumber = _normalize_anumber(anumber)
    cache_dir = Path(cache_dir)
    cached = cache_dir / f"{anumber}.txt"
    if cached.exists():
        return parse_bfile(cached.read_text())
    if offline:
        raise CacheMiss(f"no cached b-file for {anumber} in {cache_dir}")
    import urllib.error  # imported here: only a cache miss needs the network
    import urllib.request

    url = bfile_url(anumber, base_url)
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            payload = response.read()
    except (urllib.error.URLError, OSError) as exc:
        raise NetworkUnavailable(f"could not fetch {url}: {exc}") from exc
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache_dir, prefix=f".{anumber}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, cached)
    except BaseException:
        os.unlink(tmp_name)
        raise
    return parse_bfile(payload.decode())


def resolve_cache_dir(cache_dir: str | Path | None) -> str | Path:
    """The b-file cache: cache_dir if given, else $OEIS_CACHE_DIR, else
    ``~/.cache/riordan-oeis``."""
    return cache_dir or os.environ.get(CACHE_DIR_ENV) or Path.home() / ".cache" / "riordan-oeis"


# -- the command line's fetch-bfile subcommand -------------------------------


def fetch_bfile_options():
    return (
        ("anumber", dict()),
        ("--cache-dir", dict(default=None)),
        ("--offline", dict(action="store_true", help="only use the cache")),
        ("--limit", dict(type=_count, default=12, help="terms to print")),
    )


def cmd_fetch_bfile(args) -> int:
    """Text that is no A-number raises ValueError (exit 2), as in
    ``oeis-check``; a failed fetch or read exits 1."""
    anumber = _normalize_anumber(args.anumber)
    cache_dir = resolve_cache_dir(args.cache_dir)
    try:
        bfile = fetch_bfile(anumber, cache_dir, offline=args.offline)
    except (NetworkUnavailable, CacheMiss, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = bfile.values[: args.limit]
    print(f"{anumber}: {len(bfile.entries)} terms cached in {cache_dir}")
    print(", ".join(str(v) for v in values))
    return 0
