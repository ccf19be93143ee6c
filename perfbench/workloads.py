"""Seeded request streams for the three benchmark workloads.

Every workload is an endless sequence of *decks*.  A deck holds a fixed,
balanced set of request slots.  The seed deals the output formats and
the ``--reversed`` flags evenly over the slots, and draws the ``verify
group`` seeds, the ``oeis-check`` pairings and the order of the slots
within each deck.  Sizes follow a fixed sweep (:class:`_Sizes`).  So every
seed sends different argv to the program while a run costs about the same
for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator

FORMATS = ("table", "json", "csv", "latex")

# Size ranges.  A symbolic N=20 jf request already takes 8-11 s, hence the
# lower jf range; show requests below these sizes mostly time interpreter
# start-up.
SHOW_N = (20, 36)
JF_N = (10, 16)
NAMED_N = (14, 22)


@dataclass(frozen=True)
class JfTemplate:
    """A level-dependent J-fraction, as CLI text and as coefficient rules.

    ``alpha(i)`` and ``beta(i)`` return the level coefficients as
    ``{(r_power, y_power): int}`` maps; the reference evaluates them
    independently of the program's own expression parser.
    """

    name: str
    alpha_text: str
    beta_text: str
    alpha: Callable[[int], dict]
    beta: Callable[[int], dict]


def poly(*terms) -> dict:
    """A polynomial in r, y from ``(coeff, r_power, y_power)`` terms."""
    return {(i, j): c for c, i, j in terms if c}


JF_TEMPLATES = (
    JfTemplate(  # exponential family, reversed face chain
        "exp-face", "2*y+1", "i*r*y*(y+1)",
        lambda i: poly((1, 0, 0), (2, 0, 1)),
        lambda i: poly((i, 1, 1), (i, 1, 2)),
    ),
    JfTemplate(  # exponential family, h chain
        "exp-h", "y+1", "i*r*y",
        lambda i: poly((1, 0, 0), (1, 0, 1)),
        lambda i: poly((i, 1, 1)),
    ),
    JfTemplate(  # permutahedron face fraction
        "perm-face", "(i+1)*(2*y+1)", "i*(i+1)*y*(y+1)",
        lambda i: poly((i + 1, 0, 0), (2 * (i + 1), 0, 1)),
        lambda i: poly((i * (i + 1), 0, 1), (i * (i + 1), 0, 2)),
    ),
    JfTemplate(  # level-independent weights with symbolic r
        "const-face", "2*y+1", "r*y*(y+1)",
        lambda i: poly((1, 0, 0), (2, 0, 1)),
        lambda i: poly((1, 1, 1), (1, 1, 2)),
    ),
    JfTemplate(  # exponential family, gamma chain
        "exp-gamma", "1", "i*r*y",
        lambda i: poly((1, 0, 0)),
        lambda i: poly((i, 1, 1)),
    ),
    JfTemplate(  # permutahedron-weighted gamma chain with symbolic r
        "perm-gamma", "i+1", "i*(i+1)*r*y",
        lambda i: poly((i + 1, 0, 0)),
        lambda i: poly((i * (i + 1), 1, 1)),
    ),
)
TEMPLATES_BY_NAME = {t.name: t for t in JF_TEMPLATES}


@dataclass(frozen=True)
class Request:
    """One CLI request: the argv after ``riordan`` plus what it should print.

    ``expect`` names the triangle the reference must build:
    ``("parametric", flavor, which, N)``, ``("named", family, which, N)``,
    ``("jf", template, N)`` or ``("checks", k)`` for the verify-style
    commands, whose reference is "exit 0 and all k checks passed".
    """

    argv: tuple[str, ...]
    expect: tuple
    reversed: bool = False
    fmt: str = "table"


class _Sizes:
    """Spreads each slot's sizes evenly over its range.

    The m-th size of a slot is ``lo + frac(u + m * golden) * width``, with
    ``u`` fixed per slot: a low-discrepancy sequence, so any prefix of the
    stream covers each range about evenly.  Sizes are not drawn from the
    seed: random sizes moved a run's cost by 5-10% between seeds, more than
    the benchmark's bounds allow.
    """

    GOLDEN = 0.6180339887498949

    def __init__(self):
        self._state: dict = {}

    def draw(self, slot, lo: int, hi: int) -> int:
        u, m = self._state.get(slot) or (random.Random(repr(slot)).random(), 0)
        self._state[slot] = (u, m + 1)
        return lo + int(((u + m * self.GOLDEN) % 1.0) * (hi - lo + 1))


def _dealt(rng, values, n: int) -> list:
    """``n`` values dealt round-robin from ``values`` in a seeded order,
    then shuffled: each value comes up ``n // len(values)`` or one more
    times, so every deck costs about the same whatever the seed."""
    order = rng.sample(values, len(values))
    out = [order[i % len(order)] for i in range(n)]
    rng.shuffle(out)
    return out


def _show(expect, family_args, which, n, fmt, rev) -> Request:
    argv = ("show", *family_args, "--which", which, "--N", str(n), "--format", fmt)
    return Request(argv + (("--reversed",) if rev else ()), expect, rev, fmt)


def _symbolic_show_deck(rng, sizes):
    deck = []
    formats = iter(_dealt(rng, FORMATS, 12))
    for flavor in ("ordinary", "exponential"):
        for which in ("h", "f", "gamma"):
            for rev in (False, True):  # each slot once plain, once reversed
                n = sizes.draw((flavor, which), *SHOW_N)
                family_args = ("--flavor", flavor, "--r", "r")
                deck.append(_show(("parametric", flavor, which, n), family_args, which, n, next(formats), rev))
    return deck


def _jfraction_expand_deck(rng, sizes):
    deck = []
    for t, fmt in zip(JF_TEMPLATES, _dealt(rng, FORMATS, len(JF_TEMPLATES))):
        n = sizes.draw(t.name, *JF_N)
        argv = ("jf", "--alpha", t.alpha_text, "--beta", t.beta_text, "--N", str(n), "--format", fmt)
        deck.append(Request(argv, ("jf", t.name, n), False, fmt))
    formats = iter(_dealt(rng, FORMATS, 6))
    for which in ("h", "f", "gamma"):
        # One family reversed, the other plain; the seed picks which.
        for family, rev in zip(("associahedron", "permutahedron"), rng.sample((False, True), 2)):
            n = sizes.draw((family, which), *NAMED_N)
            deck.append(_show(("named", family, which, n), ("--family", family), which, n, next(formats), rev))
    return deck


# The embedded OEIS fixtures, split by what regenerates them: J-fraction
# expansions of the associahedron and permutahedron triples, and Riordan
# array face matrices or a series exponential for the rest.
FRACTION_FIXTURES = ("A055151", "A001263", "A033282", "A101280", "A008292", "A019538")
OTHER_FIXTURES = ("A135278", "A074909", "A038207", "A013609", "A007318", "A001147")
# Check lines each command printed when the benchmark was written.  A
# response with any other count is failed, so a change that drops checks
# cannot pass as a speed-up.
GROUP_CHECKS = 10
PROPS_CHECKS = 12
OEIS_CHECKS = len(FRACTION_FIXTURES) + len(OTHER_FIXTURES)


def _verify_battery_deck(rng, sizes):
    """One ``verify group``, two ``verify props``, one ``verify oeis`` and
    twelve ``oeis-check`` pairs.

    The counts give each suite a fixed share of the deck's time at the
    measured costs (see DESIGN.md): ``verify group`` about half, the two
    ``verify props`` and the thirteen OEIS requests about a quarter each.
    Each ``oeis-check`` pair joins one fraction fixture with one other
    fixture; the seed draws two such pairings per deck, so every pair
    costs about the same and each fixture is checked twice.
    """
    deck = [
        Request(("verify", "group", "--seed", str(rng.randrange(1, 10**6))), ("checks", GROUP_CHECKS)),
        Request(("verify", "props"), ("checks", PROPS_CHECKS)),
        Request(("verify", "props"), ("checks", PROPS_CHECKS)),
        Request(("verify", "oeis"), ("checks", OEIS_CHECKS)),
    ]
    for _ in range(2):
        others = rng.sample(OTHER_FIXTURES, len(OTHER_FIXTURES))
        for pair in zip(FRACTION_FIXTURES, others):
            deck.append(Request(("oeis-check", *pair), ("checks", len(pair))))
    return deck


DECKS = {
    "symbolic-show": _symbolic_show_deck,
    "jfraction-expand": _jfraction_expand_deck,
    "verify-battery": _verify_battery_deck,
}
WORKLOADS = tuple(DECKS)
# Largest N of each triangle kind a workload asks for; the reference is
# built up to these sizes.
MAX_SIZES = {
    "symbolic-show": {"parametric": SHOW_N[1]},
    "jfraction-expand": {"named": NAMED_N[1], "jf": JF_N[1]},
    "verify-battery": {},
}
# Scaled request time of one deck (see run.py) when the benchmark was
# written.  A run covers ``decks_per_run`` decks, a number set by
# ``--seconds`` alone, so a faster or slower program does the same work
# per run and reports the same percentile as its tail.
DECK_SECONDS = {"symbolic-show": 7.5, "jfraction-expand": 6.9, "verify-battery": 12.1}


def decks_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / DECK_SECONDS[workload]))


def deck_stream(workload: str, seed: int) -> Iterator[list[Request]]:
    """Endless, reproducible sequence of decks of a workload for one seed."""
    make_deck = DECKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    sizes = _Sizes()
    while True:
        deck = make_deck(rng, sizes)
        rng.shuffle(deck)
        yield deck
