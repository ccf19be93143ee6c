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
:mod:`~riordan.series` (truncated power series), :mod:`~riordan.arrays`
(lower-triangular matrices), :mod:`~riordan.jfraction` (Jacobi continued
fractions), :mod:`~riordan.families` (the triangle families),
:mod:`~riordan.cold` (the Riordan group and the other oracles, the cold
series operations and the verify-only command-line code),
:mod:`~riordan.oeis` (fixtures and b-files), :mod:`~riordan.verify` (the
check battery), :mod:`~riordan.cli` (the ``riordan`` command).

Importing the package imports none of them.  Each name in ``__all__`` is
resolved on first use, from the one submodule that defines it, so a
program (or a ``riordan`` subcommand) loads only the modules it uses.
Without cached bytecode every module loaded is also compiled from source,
so the code that no ``show``, ``export`` or ``jf`` request runs is kept
in :mod:`~riordan.cold`; the modules it was moved from resolve its names on
first use too (:func:`_lazy_names`), and their methods whose bodies moved
delegate to it (:func:`_cold`).
"""

import sys

__version__ = "0.1.0"

# The verify battery's suites and default seed.  They live here, not in
# riordan.verify, so that the command line can offer them without loading
# the battery.
SUITES = ("group", "props", "oeis")
DEFAULT_SEED = 20240831

# The public names, by the submodule that defines them.  Nothing is imported
# until a name is first looked up (PEP 562); ``from riordan import X`` then
# imports X's module and what that module imports, and nothing else.
_EXPORTS = (
    ("algebra", "MultiPoly R Y"),
    ("arrays", "Kind LowerTriMatrix triangle_from_series"),
    (
        "cold",
        "RiordanArray WeightSequence binomial_array binomial_transform egf_to_ogf "
        "face_array face_matrix family_array gamma_from_h identity_array pascal_matrix",
    ),
    ("families", "FamilySpec GammaHFTriple named_triple"),
    ("jfraction", "IndexPoly JFraction parse_index_poly parse_poly"),
    ("oeis", "FIXTURES TriangleFixture check_triangle fetch_bfile parse_bfile"),
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


def _cold():
    """:mod:`riordan.cold`, imported on first use.  The methods whose bodies
    live there call this thousands of times in one ``verify`` run, so once
    the module is loaded it is read from ``sys.modules``: a relative import
    statement takes about twenty times as long."""
    return sys.modules.get("riordan.cold") or _submodule("cold")


def __dir__():
    return sorted(set(globals()) | set(__all__))
