"""Self-verification battery: group laws, identities, and OEIS cross-checks.

Every criterion is defined once, as a :class:`Check` in its suite's
registry; ``riordan verify`` and the pytest acceptance suite (through
``CHECKS``, the three registries in suite order) both run it from there.
Checks fall into three suites, all exact and all offline:

* ``group``  -- randomized algebraic laws (Riordan group vs matrix algebra,
  series inversion/reversion/composition, continued-fraction transforms);
  each check draws from its own RNG, seeded from the run's seed and the
  check's name, so runs are reproducible and any check can run on its own;
* ``props``  -- the named identities of the triangle families (face GFs,
  closed forms, fraction triples, the polytope transfer map), with the
  Riordan-product route as a further oracle of the row recurrences;
* ``oeis``   -- every embedded fixture regenerated from its construction.

This module holds the registry's records, the suite functions and the
``verify`` subcommand; each suite's checks live in a module of their own,
which only that suite's requests load: the group laws in
:mod:`riordan.laws`, the props identities in :mod:`riordan.props` (both
test the oracles of :mod:`riordan.cold`), and the fixture checks in
:mod:`riordan.oeis`, beside the fixtures, where ``oeis-check`` runs them
without this module.  Without cached bytecode a request compiles every
module it imports, so a suite's run imports only its own registry
(:func:`_registry`): ``verify group`` loads no fixture, row recurrence or
props identity, and ``verify props`` no group law.  The oeis suite's
records are built here from :func:`riordan.oeis.fixture_report` when that
suite runs.  ``CHECKS`` (all three suites, in suite order) is built when it
is first looked up, for the tests; no suite reads it.

Each suite function runs its suite's registry and returns one
:class:`CheckResult` per check; the CLI renders one line per check and
fails the run when any check fails.
"""

from functools import partial
import random
from collections import namedtuple

from . import _lazy_names, _submodule

SUITES = ("group", "props", "oeis")
DEFAULT_SEED = 20240831


class CheckResult(namedtuple("CheckResult", "suite name ok detail", defaults=("",))):
    """What one check gave: its suite and name, whether it passed, and a
    detail (by default "")."""

    __slots__ = ()


class Check(namedtuple("Check", "suite name fn")):
    """One criterion of a suite: its suite and name, and the callable ``fn``.

    ``fn`` takes a ``random.Random`` seeded from the run's seed and the
    check's name in the group suite, and nothing elsewhere.  It returns a
    bool, or an OEIS ``CheckReport`` whose message becomes the detail.
    A check that raises fails, with the exception as its detail.
    """

    __slots__ = ()

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
        if isinstance(outcome, tuple):  # an oeis.CheckReport
            return CheckResult(self.suite, self.name, outcome.ok, outcome.message())
        return CheckResult(self.suite, self.name, bool(outcome))


# -- the suites' registries -----------------------------------------------------

# The module that registers each suite's checks, as a list CHECKS in suite
# order; the oeis suite's checks are built here from the fixture checks of
# riordan.oeis.
_SUITE_MODULES = {"group": "laws", "props": "props"}


def _fixture_checks() -> list[Check]:
    from .oeis import FIXTURE_SOURCES, fixture_report

    return [Check("oeis", f"{a} regenerated from its construction", partial(fixture_report, a)) for a in FIXTURE_SOURCES]


def _registry(suite: str) -> list[Check]:
    """The checks the suite runs, from the suite's own module, so that a
    request loads only that."""
    if suite == "oeis":
        return _fixture_checks()
    return _submodule(_SUITE_MODULES[suite]).CHECKS


# -- suites ---------------------------------------------------------------------


def _run(suite: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [check.run(seed) for check in _registry(suite)]


def group_suite(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return _run("group", seed)


def props_suite() -> list[CheckResult]:
    return _run("props")


def oeis_suite() -> list[CheckResult]:
    return _run("oeis")


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


# gamma_from_h is here for perfbench/test_perfbench.py:156, which reads it.
_lazy = _lazy_names(globals(), ("cold", "gamma_from_h"))


def __getattr__(name: str):
    """CHECKS, the full registry in suite order, is built on first lookup
    and then bound here; no suite runs from it."""
    if name != "CHECKS":
        return _lazy(name)
    globals()[name] = [c for suite in SUITES for c in _registry(suite)]
    return CHECKS
