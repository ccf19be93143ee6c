"""Independent reference outputs for the benchmark's requests.

Nothing here calls into ``riordan``'s arithmetic: the reference triangles
come from plain-integer recurrences, and responses are parsed from the
text the CLI printed.

* The ordinary family's rows follow the three-term row recurrences of its
  rational generating functions:
  ``gamma_n = gamma_{n-1} + r y gamma_{n-2}``,
  ``h_n = (1+y) h_{n-1} + r y h_{n-2}`` and
  ``f_n = (y+2) f_{n-1} + r (y+1) f_{n-2}``.
* The exponential chain, the named polytope triples and every ``jf``
  template use the Motzkin-path recurrence of a Jacobi continued fraction,
  ``T[n][k] = T[n-1][k-1] + a_k T[n-1][k] + b_{k+1} T[n-1][k+1]`` with
  moments ``mu_n = T[n][0]``.
* The named triples' leading rows are also held against the OEIS rows
  embedded in the package's fixture table, as far as those rows reach.

Polynomials in r and y are ``{(r_power, y_power): int}`` maps; a table
cell, which is a polynomial in r only, is ``{r_power: int}``.
"""

from __future__ import annotations

import csv
import io
import json
import re

from workloads import TEMPLATES_BY_NAME, Request, poly

# -- polynomials in r, y ---------------------------------------------------------


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


ONE = poly((1, 0, 0))
RY = poly((1, 1, 1))


def three_term(a: dict, b: dict, size: int) -> list[dict]:
    """Coefficients c_0..c_size of 1 / (1 - a x - b x^2)."""
    rows = [ONE, a]
    while len(rows) <= size:
        rows.append(padd(pmul(a, rows[-1]), pmul(b, rows[-2])))
    return rows[: size + 1]


def motzkin(alpha, beta, size: int) -> list[dict]:
    """Moments mu_0..mu_size of the J-fraction with level rules alpha, beta."""
    column = [ONE]  # T[n][k] for the current n, heights k = 0..n
    moments = [ONE]
    for n in range(1, size + 1):
        top = min(n, size - n)  # higher paths cannot return to 0 in time
        nxt = []
        for k in range(top + 1):
            acc: dict = column[k - 1] if 0 < k <= len(column) else {}
            if k < len(column):
                acc = padd(acc, pmul(alpha(k), column[k]))
            if k + 1 < len(column):
                acc = padd(acc, pmul(beta(k + 1), column[k + 1]))
            nxt.append(acc)
        column = nxt
        moments.append(column[0])
    return moments


# -- triangles ------------------------------------------------------------------


def y_coefficients(p: dict, width: int | None = None) -> list[dict]:
    """The polynomial's y^k coefficients (as r-polynomials), k = 0..width-1.

    Without ``width`` the row stops at the y-degree, as ``riordan jf``
    prints it (one zero entry for the zero polynomial).
    """
    if width is None:
        width = max((j for _, j in p), default=0) + 1
    row: list[dict] = [{} for _ in range(width)]
    for (i, j), c in p.items():
        if j >= width:
            raise ValueError(f"y-degree {j} beyond row width {width}")
        row[j][i] = c
    return row


def triangle(moments: list[dict]) -> list[list[dict]]:
    return [y_coefficients(p, n + 1) for n, p in enumerate(moments)]


# (alpha, beta) level rules of the named fraction triples: gamma, h and the
# reversed face form.
NAMED_FRACTIONS = {
    ("associahedron", "gamma"): (lambda i: ONE, lambda i: poly((1, 0, 1))),
    ("associahedron", "h"): (lambda i: poly((1, 0, 0), (1, 0, 1)), lambda i: poly((1, 0, 1))),
    ("associahedron", "f"): (lambda i: poly((1, 0, 0), (2, 0, 1)), lambda i: poly((1, 0, 1), (1, 0, 2))),
    ("permutahedron", "gamma"): (lambda i: poly((i + 1, 0, 0)), lambda i: poly((i * (i + 1), 0, 1))),
    ("permutahedron", "h"): (
        lambda i: poly((i + 1, 0, 0), (i + 1, 0, 1)),
        lambda i: poly((i * (i + 1), 0, 1)),
    ),
    ("permutahedron", "f"): (
        lambda i: poly((i + 1, 0, 0), (2 * (i + 1), 0, 1)),
        lambda i: poly((i * (i + 1), 0, 1), (i * (i + 1), 0, 2)),
    ),
}
NAMED_FIXTURES = {
    ("associahedron", "gamma"): "A055151",
    ("associahedron", "h"): "A001263",
    ("associahedron", "f"): "A033282",
    ("permutahedron", "gamma"): "A101280",
    ("permutahedron", "h"): "A008292",
    ("permutahedron", "f"): "A019538",
}

# The exponential family's chain: level-proportional weights i*r*y for
# gamma and h, i*r*y*(y+1) for the reversed face form.
EXPONENTIAL_FRACTIONS = {
    "gamma": (lambda i: ONE, lambda i: poly((i, 1, 1))),
    "h": (lambda i: poly((1, 0, 0), (1, 0, 1)), lambda i: poly((i, 1, 1))),
    "f": (lambda i: poly((1, 0, 0), (2, 0, 1)), lambda i: poly((i, 1, 1), (i, 1, 2))),
}


def _reverse(rows):
    return [list(reversed(row)) for row in rows]


class Reference:
    """Expected rows for every request, built once before timing starts."""

    def __init__(self, max_sizes: dict[str, int], fixtures=None):
        """``max_sizes`` maps "parametric"/"named"/"jf" to the largest N used.

        ``fixtures`` maps A-numbers to their leading rows; the named
        triples' reference must agree with them where they reach.
        """
        self._tables: dict[tuple, list[list[dict]]] = {}
        n = max_sizes.get("parametric")
        if n is not None:
            ordinary = {
                "gamma": (ONE, RY),
                "h": (poly((1, 0, 0), (1, 0, 1)), RY),
                "f": (poly((2, 0, 0), (1, 0, 1)), poly((1, 1, 0), (1, 1, 1))),
            }
            for which, (a, b) in ordinary.items():
                self._tables["parametric", "ordinary", which] = triangle(three_term(a, b, n))
            for which, (alpha, beta) in EXPONENTIAL_FRACTIONS.items():
                rows = triangle(motzkin(alpha, beta, n))
                self._tables["parametric", "exponential", which] = _reverse(rows) if which == "f" else rows
        n = max_sizes.get("named")
        if n is not None:
            for key, (alpha, beta) in NAMED_FRACTIONS.items():
                rows = triangle(motzkin(alpha, beta, n))
                if fixtures is not None:
                    _agree_with_fixture(rows, fixtures[NAMED_FIXTURES[key]], key)
                self._tables[("named", *key)] = rows
        n = max_sizes.get("jf")
        if n is not None:
            for name, t in TEMPLATES_BY_NAME.items():
                self._tables["jf", name] = [
                    y_coefficients(p) for p in motzkin(t.alpha, t.beta, n)
                ]

    def expected_rows(self, request: Request) -> list[list[dict]] | None:
        """Rows the response must hold, or None for pass/fail commands."""
        if request.expect[0] == "checks":
            return None
        *key, n = request.expect
        rows = self._tables[tuple(key)][: n + 1]
        return _reverse(rows) if request.reversed else rows

    def check(self, request: Request, returncode: int, stdout: str) -> str | None:
        """None if the response is correct, else a one-line reason."""
        if returncode != 0:
            return f"exit code {returncode}"
        want = self.expected_rows(request)
        if want is None:
            return _check_passes(request, stdout)
        try:
            got = parse_rows(stdout, request.fmt)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unparsable {request.fmt} output: {exc}"
        return compare_rows(got, want, padded=request.fmt == "latex")


def _agree_with_fixture(rows, fixture_rows, key):
    for n, want in enumerate(fixture_rows[: len(rows)]):
        got = rows[n]
        padded = list(want) + [0] * (len(got) - len(want))
        if [cell.get(0, 0) if set(cell) <= {0} else None for cell in got] != padded:
            raise AssertionError(f"reference for {key} disagrees with OEIS row {n}")


# -- parsing responses -------------------------------------------------------------

_FACTOR = re.compile(r"(\d+)|r(?:\^(\d+))?")


def parse_cell(text: str) -> dict:
    """An r-polynomial as rendered by the CLI: ``-3*r^2 + r - 1``.

    LaTeX output writes a space instead of ``*``, which parses the same.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty cell")
    parts = re.split(r" ([+-]) ", text)
    out: dict = {}
    for idx in range(0, len(parts), 2):
        term = parts[idx]
        sign = -1 if idx and parts[idx - 1] == "-" else 1
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coeff, power = sign, 0
        for factor in re.split(r"[* ]", term):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
            if m.group(1) is not None:
                coeff *= int(m.group(1))
            else:
                power += int(m.group(2) or 1)
        out[power] = out.get(power, 0) + coeff
    return {p: c for p, c in out.items() if c}


def parse_rows(stdout: str, fmt: str) -> list[list[dict]]:
    if fmt == "table":
        lines = stdout.splitlines()
        return [[parse_cell(c) for c in re.split(r" {2,}", line.strip())] for line in lines]
    if fmt == "json":
        return [[_json_cell(e) for e in row] for row in json.loads(stdout)["rows"]]
    if fmt == "csv":
        return [[parse_cell(c) for c in row] for row in csv.reader(io.StringIO(stdout))]
    if fmt == "latex":
        lines = stdout.splitlines()
        if len(lines) < 4 or lines[0] != "\\left(" or not lines[1].startswith("\\begin{array}"):
            raise ValueError("missing array header")
        if lines[-2:] != ["\\end{array}", "\\right)"]:
            raise ValueError("missing array footer")
        body = []
        for line in lines[2:-2]:
            if not line.endswith(" \\\\"):
                raise ValueError(f"row without line break: {line!r}")
            body.append([parse_cell(c) for c in line[:-3].split("&")])
        return body
    raise ValueError(f"unknown format {fmt!r}")


def _json_cell(entry) -> dict:
    if isinstance(entry, str):
        return parse_cell(entry)
    if type(entry) is int:
        return {0: entry} if entry else {}
    raise TypeError(f"unexpected JSON entry {entry!r}")


def compare_rows(got, want, padded: bool = False) -> str | None:
    """Cell-by-cell comparison; LaTeX rows are zero-padded to the full width."""
    if len(got) != len(want):
        return f"{len(got)} rows, want {len(want)}"
    for n, (g, w) in enumerate(zip(got, want)):
        if padded and len(g) >= len(w):
            w = list(w) + [{}] * (len(g) - len(w))
        if len(g) != len(w):
            return f"row {n} has {len(g)} entries, want {len(w)}"
        for k, (a, b) in enumerate(zip(g, w)):
            if a != b:
                return f"row {n}, column {k} differs"
    return None


def _check_passes(request: Request, stdout: str) -> str | None:
    _, count = request.expect
    lines = stdout.splitlines()
    marks = [line for line in lines if line.startswith("[")]
    if len(marks) != count:
        return f"{len(marks)} check lines, want {count}"
    if any(not m.startswith("[  ok]") for m in marks):
        return "a check did not pass"
    if request.argv[0] == "verify" and lines[-1] != f"{count}/{count} checks passed":
        return f"unexpected summary {lines[-1]!r}"
    return None
