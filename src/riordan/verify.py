"""Self-verification battery: group laws, identities, and OEIS cross-checks.

Every criterion is defined once, as a :class:`Check` in the registry
``CHECKS``; ``riordan verify`` and the pytest acceptance suite both run it
from there.  Checks fall into three suites, all exact and all offline:

* ``group``  -- randomized algebraic laws (Riordan group vs matrix algebra,
  series inversion/reversion/composition, continued-fraction transforms);
  each check draws from its own RNG, seeded from the run's seed and the
  check's name, so runs are reproducible and any check can run on its own;
* ``props``  -- the named identities of the triangle families (face GFs,
  closed forms, fraction triples, the polytope transfer map), with the
  Riordan-product route as a further oracle of the row recurrences;
* ``oeis``   -- every embedded fixture regenerated from its construction.

This module holds the oeis checks (``FIXTURE_CHECKS``), the suite functions
and the ``verify`` and ``oeis-check`` subcommands.  The group and props
checks live in :mod:`riordan.battery`, and the oracles most of them test in
:mod:`riordan.cold`.  Without cached bytecode a request compiles every
module it imports, so the two load only when a check that uses them runs
or ``CHECKS`` is first looked up.  The oeis suite runs ``FIXTURE_CHECKS``,
so ``oeis-check`` and ``verify oeis`` load neither; the group and props
suites run ``CHECKS``.  A fixture check compares the rows of its source's
J-fraction, shaped as ``show`` shapes them
(:func:`riordan.jfraction._triangle_rows`), so it builds no triangle and
loads no :mod:`riordan.arrays`; A001147's rows are one constant each.
Which fixtures read their construction's rows backwards is said only in
``FIXTURE_SOURCES``: every fixture stores its rows as OEIS reads them.

The suite functions filter the registry and return one :class:`CheckResult`
per check; the CLI renders one line per check and fails the run when any
check fails.
"""

from functools import cache, partial
import random
import sys
from typing import Callable, NamedTuple

from . import _lazy_names
from .families import member_fraction
from .jfraction import IndexPoly, JFraction, _triangle_rows
from .oeis import FIXTURES, CheckReport, _normalize_anumber, check_sequence, check_triangle

SUITES = ("group", "props", "oeis")
DEFAULT_SEED = 20240831


class CheckResult(NamedTuple):
    suite: str
    name: str
    ok: bool
    detail: str = ""


class Check(NamedTuple):
    """One criterion of a suite.

    ``fn`` takes a ``random.Random`` seeded from the run's seed and the
    check's name in the group suite, and nothing elsewhere.  It returns a
    bool, or an OEIS :class:`CheckReport` whose message becomes the detail.
    A check that raises fails, with the exception as its detail.
    """

    suite: str
    name: str
    fn: Callable

    def run(self, seed: int = DEFAULT_SEED) -> CheckResult:
        try:
            if self.suite == "group":
                # One stream per check and seed: checks draw independent
                # instances, and each can run on its own.
                outcome = self.fn(random.Random(f"{seed}/{self.name}"))
            else:
                outcome = self.fn()
        except Exception as exc:  # a check that raises has failed; the rest still run
            return CheckResult(self.suite, self.name, False, f"{type(exc).__name__}: {exc}")
        if isinstance(outcome, CheckReport):
            return CheckResult(self.suite, self.name, outcome.ok, outcome.message())
        return CheckResult(self.suite, self.name, bool(outcome))


# -- fixture regeneration -------------------------------------------------------

# Where each embedded fixture comes from: (family, matrix, rows read
# reversed), or None for A001147, the even terms of the aerated double
# factorials.  The order is that of the oeis suite.  This is the one record
# of a fixture's orientation.
FIXTURE_SOURCES: dict[str, tuple[str, str, bool] | None] = {
    "A135278": ("simplex", "f", False),
    "A074909": ("simplex", "f", True),
    "A038207": ("hypercube", "f", False),
    "A013609": ("hypercube", "f", True),
    "A007318": ("hypercube", "h", False),
    "A001147": None,
    "A055151": ("associahedron", "gamma", False),
    "A001263": ("associahedron", "h", False),
    "A033282": ("associahedron", "f", False),
    "A101280": ("permutahedron", "gamma", False),
    "A008292": ("permutahedron", "h", False),
    "A019538": ("permutahedron", "f", False),
}


def _triangle_fixture(anumber: str) -> CheckReport:
    """The rows of the fixture's source fraction, sized to the fixture and
    shaped as a triangle stores them (:func:`_triangle_rows`), compared
    against it."""
    family, which, reversed_rows = FIXTURE_SOURCES[anumber]
    rows = _triangle_rows(member_fraction(family, which).rows(len(FIXTURES[anumber].row_lengths) - 1))
    return check_triangle([row[::-1] for row in rows] if reversed_rows else rows, FIXTURES[anumber])


@cache
def _aerated_double_factorials() -> tuple[int, ...]:
    """The rows 0..20 of the J-fraction (0; i), each one constant:
    1, 0, 1, 0, 3, 0, 15, ..."""
    return tuple(row[0] for row in JFraction(IndexPoly.constant(0), IndexPoly.index()).rows(20))


def _double_factorial_fixture(anumber: str) -> CheckReport:
    return check_sequence(_aerated_double_factorials()[::2], FIXTURES[anumber])


def _fixture_check_name(anumber: str) -> str:
    return f"{anumber} regenerated from its construction"


FIXTURE_CHECKS = [
    Check(
        "oeis",
        _fixture_check_name(anumber),
        partial(_triangle_fixture if source else _double_factorial_fixture, anumber),
    )
    for anumber, source in FIXTURE_SOURCES.items()
]


# -- suites ---------------------------------------------------------------------


def _run(suite: str, seed: int = DEFAULT_SEED, names: set[str] | None = None) -> list[CheckResult]:
    registry = FIXTURE_CHECKS if suite == "oeis" else sys.modules[__name__].CHECKS
    return [
        check.run(seed)
        for check in registry
        if check.suite == suite and (names is None or check.name in names)
    ]


def group_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return _run("group", seed)


def props_suite() -> list[CheckResult]:
    return _run("props")


def oeis_suite(anumbers: list[str] | None = None) -> list[CheckResult]:
    """The fixture checks, optionally only those of the given A-numbers."""
    return _run("oeis", names={_fixture_check_name(a) for a in anumbers} if anumbers else None)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    # The suite functions are looked up by module-level name so that a tracer
    # that rebinds them sees every run.
    if name == "group":
        return group_suite(seed)
    if name == "props":
        return props_suite()
    if name == "oeis":
        return oeis_suite()
    if name == "all":
        return group_suite(seed) + props_suite() + oeis_suite()
    raise ValueError(f"unknown suite {name!r}; pick from {SUITES + ('all',)}")


# -- the command line's check subcommands ------------------------------------------


def verify_options():
    # A --seed of None stands for DEFAULT_SEED, so that cmd_verify can tell a given seed.
    return (("suite", dict(nargs="?", default="all", choices=("all",) + SUITES)), ("--seed", dict(type=int)))


def oeis_check_options():
    return (("anumber", dict(nargs="*", help="A-numbers (default: all fixtures)")),)


def cmd_verify(args) -> int:
    """Only the group suite draws random instances, so a ``--seed`` given
    with the props or oeis suite is an error (exit 2), not ignored."""
    if args.seed is not None and args.suite not in ("group", "all"):
        raise ValueError(f"--seed applies only to the group and all suites, not to {args.suite}")
    results = run_suite(args.suite, seed=DEFAULT_SEED if args.seed is None else args.seed)
    failures = 0
    for res in results:
        mark = "ok" if res.ok else "FAIL"
        line = f"[{mark:>4}] {res.suite} :: {res.name}"
        if not res.ok and res.detail:
            line += f" -- {res.detail}"
        print(line)
        failures += 0 if res.ok else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def cmd_oeis_check(args) -> int:
    """A-numbers are read as ``fetch-bfile`` reads them: 'a55151' is A055151.
    Text that is no A-number, an A-number without a fixture and one given
    more than once raise ValueError (exit 2)."""
    anumbers = [_normalize_anumber(a) for a in args.anumber] or sorted(FIXTURES)
    unknown = [a for a in anumbers if a not in FIXTURES]
    if unknown:
        raise ValueError(f"no fixture for {', '.join(unknown)}")
    repeated = sorted({a for a in anumbers if anumbers.count(a) > 1})
    if repeated:
        raise ValueError(f"{', '.join(repeated)} given more than once")
    results = oeis_suite(anumbers)
    failures = 0
    for res in results:
        print(f"[{'ok' if res.ok else 'FAIL':>4}] {res.detail}")
        failures += 0 if res.ok else 1
    return 0 if failures == 0 else 1


# CHECKS, the full registry in suite order, is built by riordan.battery;
# gamma_from_h is here for perfbench/test_perfbench.py:156, which reads it.
__getattr__ = _lazy_names(globals(), ("battery", "CHECKS"), ("cold", "gamma_from_h"))
