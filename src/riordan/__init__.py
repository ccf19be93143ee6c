"""Exact calculus of Pascal-like triangles built from Riordan arrays.

The package computes, entirely in exact arithmetic, the h-, f- (face) and
gamma-matrices attached to two parameterized Pascal-like families -- the
ordinary (1/(1-x), x(1+rx)/(1-x)) and exponential [e^x, x(1+rx/2)] -- plus
the classical simplex/hypercube/associahedron/permutahedron instances.
Every triangle is built by one of two routes -- three-term row recurrences
(the two families, and the simplex and hypercube, which are the ordinary
family at r = -1 and r = 0) or Jacobi continued fractions (associahedron,
permutahedron) -- and cross-checked against closed forms, Riordan group
products and embedded OEIS data.  Each triple stores only its gamma data;
its h and f members are derived by the paper's maps on J-fractions.

Modules: :mod:`~riordan.algebra` (integers, rationals, polynomials in r, y),
:mod:`~riordan.series` (truncated power series; reversion by the rows
of the Riordan array (1, s)), :mod:`~riordan.arrays` (lower-triangular matrices),
:mod:`~riordan.jfraction` (Jacobi continued fractions),
:mod:`~riordan.recurrence` and :mod:`~riordan.walk` (their two engines:
the three-term row recurrence and the Motzkin walk),
:mod:`~riordan.expr` (the expression parser of ``jf``),
:mod:`~riordan.families` (the triangle families), :mod:`~riordan.cold`
(the Riordan group and the other oracles, the cold series operations and
the export reader ``parse_matrix_doc``), :mod:`~riordan.oeis` (the OEIS
fixtures, their checks and the ``oeis-check`` subcommand),
:mod:`~riordan.bfile` (OEIS b-files and the ``fetch-bfile`` subcommand),
:mod:`~riordan.verify` (the check registry, the suites and the ``verify``
subcommand), :mod:`~riordan.laws` (the group suite's laws),
:mod:`~riordan.props` (the props suite's identities),
:mod:`~riordan.render` (the ``show``,
``export`` and ``jf`` subcommands and their output formats),
:mod:`~riordan.cli` (the ``riordan`` command's dispatcher and its
option-table parser), :mod:`~riordan.usage` (the command's argparse
parser, for help texts and usage errors).  The package itself holds
:class:`Frozen`, the base class of the value records, beside the helpers
the modules share (:func:`_count`, :func:`_cold`, :func:`_lazy_names`).

Importing the package imports none of them.  Each name in ``__all__`` is
resolved on first use, from the one submodule that defines it, so a
program (or a ``riordan`` subcommand) loads only the modules it uses.
Without cached bytecode every module loaded is also compiled from source,
so the code that no ``show``, ``export`` or ``jf`` request runs, and no
fixture check either, is kept in :mod:`~riordan.cold`, the checks of
each suite in the module that only that suite loads (:mod:`~riordan.laws`,
:mod:`~riordan.props`, and :mod:`~riordan.oeis`, which ``oeis-check``
runs without :mod:`~riordan.verify`), the b-file code that only
``fetch-bfile`` runs in :mod:`~riordan.bfile`, the code that only
``show``, ``export`` and ``jf`` run in :mod:`~riordan.render`, the parser
that only ``jf`` runs in
:mod:`~riordan.expr`, and argparse, which only help, usage errors and the
spellings that only argparse takes (such as ``--N=6``) need, in
:mod:`~riordan.usage`.  Each moved name imports only from its new module,
except eight that the benchmark reads at their old paths
(``arrays.RiordanArray``, ``arrays.face_matrix``, ``families.family_array``,
``families.gamma_from_h``, ``jfraction.parse_index_poly``,
``jfraction.parse_poly``, ``cli.OutputDoc``, ``cli.h_matrix``): those
modules resolve them on first use (:func:`_lazy_names`), as
:mod:`~riordan.verify` builds ``CHECKS``.  The methods whose bodies moved
delegate to :mod:`~riordan.cold` (:func:`_cold`).
"""

import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  Nothing is imported
# until a name is first looked up (PEP 562); ``from riordan import X`` then
# imports X's module and what that module imports, and nothing else.
_EXPORTS = (
    ("algebra", "MultiPoly R Y"),
    ("arrays", "LowerTriMatrix triangle_from_series"),
    ("bfile", "fetch_bfile parse_bfile"),
    (
        "cold",
        "RiordanArray WeightSequence binomial_array binomial_transform egf_to_ogf "
        "face_array face_matrix family_array gamma_from_h identity_array pascal_matrix",
    ),
    ("expr", "parse_index_poly parse_poly"),
    ("families", "FamilySpec GammaHFTriple Kind named_triple"),
    ("jfraction", "IndexPoly JFraction"),
    ("oeis", "FIXTURES TriangleFixture check_triangle"),
    ("series", "DEFAULT_ORDER TruncatedSeries"),
)

__all__ = sorted(name for _, names in _EXPORTS for name in names.split()) + ["__version__"]


def _submodule(name: str):
    """The submodule ``riordan.<name>``, imported if need be.  ``__import__``
    is the import statement's own machinery: unlike
    ``importlib.import_module``, it shows in ``python -X importtime``."""
    return __import__(f"{__name__}.{name}", fromlist=["*"])


def _lazy_names(namespace: dict, *exports: tuple[str, str]):
    """A module ``__getattr__`` (PEP 562) for the module whose globals are
    ``namespace``.  Each of ``exports`` pairs a submodule with the names,
    separated by spaces, that it defines.  A name is imported from its
    submodule on first lookup and bound in ``namespace`` like an eager
    import, so later lookups find it in the module's ``__dict__``.  Other
    names raise AttributeError."""
    source = {name: module for module, names in exports for name in names.split()}

    def __getattr__(name: str):
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        namespace[name] = getattr(_submodule(module), name)
        return namespace[name]

    return __getattr__


__getattr__ = _lazy_names(globals(), *_EXPORTS)


def _count(text: str) -> int:
    """The type of an option that counts (``--N``, ``--limit``): an integer
    of at least 0, else ValueError with the text of the usage error."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise ValueError(f"must be at least 0, got {value}")
    return value


class Frozen:
    """An immutable record that compares, hashes and prints by its fields.

    The package's records are plain classes rather than standard-library
    data classes, whose module loads ``inspect``, ``ast``, ``dis`` and
    ``tokenize``: a request that compiles its modules from source would
    spend more on that import than on all of its records.  A record class
    lists its fields in ``__slots__`` and writes its own ``__init__``, with
    the signature and defaults that callers see, which sets every field
    once, through :meth:`_init`; assigning or deleting a field afterwards
    raises ``AttributeError``.  Records that validate nothing and define no
    operators, so that acting as tuples does them no harm, subclass a
    ``collections.namedtuple`` with ``__slots__ = ()`` instead, a class
    that is quicker to make than a ``typing.NamedTuple``.
    """

    __slots__ = ()

    def _init(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


def _cold():
    """:mod:`riordan.cold`, imported on first use.  The methods whose bodies
    live there call this thousands of times in one ``verify`` run, so once
    the module is loaded it is read from ``sys.modules``: a relative import
    statement takes about twenty times as long."""
    return sys.modules.get("riordan.cold") or _submodule("cold")


def __dir__():
    return sorted(set(globals()) | set(__all__))
