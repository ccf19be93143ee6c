"""Golden-file cases: CLI argv -> committed table rendering, or help and
usage-error text.

Regenerate with ``python scripts/regenerate_goldens.py`` after a deliberate
rendering change, and review the diff before committing.
"""

import contextlib
import io

from riordan.cli import main

GOLDEN_CASES = {
    # the six classical 7x7 triangles
    "simplex_face.txt": ["show", "--family", "simplex", "--which", "f", "--N", "6"],
    "simplex_face_reversed.txt": ["show", "--family", "simplex", "--which", "f", "--N", "6", "--reversed"],
    "hypercube_face.txt": ["show", "--family", "hypercube", "--which", "f", "--N", "6"],
    "hypercube_face_reversed.txt": ["show", "--family", "hypercube", "--which", "f", "--N", "6", "--reversed"],
    "simplex_h.txt": ["show", "--family", "simplex", "--which", "h", "--N", "6"],
    "hypercube_h.txt": ["show", "--family", "hypercube", "--which", "h", "--N", "6"],
    # ordinary family face matrices: symbolic, both forms, and r = 0, 1, 2
    "ordinary_face_symbolic.txt": ["show", "--flavor", "ordinary", "--r", "r", "--which", "f", "--N", "5"],
    "ordinary_face_symbolic_reversed.txt": ["show", "--flavor", "ordinary", "--r", "r", "--which", "f", "--N", "5", "--reversed"],
    "ordinary_face_r0_reversed.txt": ["show", "--flavor", "ordinary", "--r", "0", "--which", "f", "--N", "5", "--reversed"],
    "ordinary_face_r1_reversed.txt": ["show", "--flavor", "ordinary", "--r", "1", "--which", "f", "--N", "5", "--reversed"],
    "ordinary_face_r2_reversed.txt": ["show", "--flavor", "ordinary", "--r", "2", "--which", "f", "--N", "5", "--reversed"],
    # exponential family face matrices: symbolic, both forms, and r = 0, 1, 2
    "exponential_face_symbolic.txt": ["show", "--flavor", "exponential", "--r", "r", "--which", "f", "--N", "4"],
    "exponential_face_symbolic_reversed.txt": ["show", "--flavor", "exponential", "--r", "r", "--which", "f", "--N", "4", "--reversed"],
    "exponential_face_r0_reversed.txt": ["show", "--flavor", "exponential", "--r", "0", "--which", "f", "--N", "4", "--reversed"],
    "exponential_face_r1_reversed.txt": ["show", "--flavor", "exponential", "--r", "1", "--which", "f", "--N", "4", "--reversed"],
    "exponential_face_r2_reversed.txt": ["show", "--flavor", "exponential", "--r", "2", "--which", "f", "--N", "4", "--reversed"],
}

# jf expansions, one per engine a fraction's shape picks: the Hermite shape
# (exp-face), the Motzkin walk (const-face), a fraction that stops at level 1,
# and a rational Hermite fraction; each in table and latex.
_JF_FRACTIONS = {
    "exp_face": ("2*y+1", "i*r*y*(y+1)"),
    "const_face": ("2*y+1", "r*y*(y+1)"),
    "level_one": ("1-i", "r*y*(2-i)"),
    "rational_hermite": ("1/2*y", "1/3*i*r"),
}
for _name, (_alpha, _beta) in _JF_FRACTIONS.items():
    for _fmt, _suffix in (("table", ""), ("latex", "_latex")):
        GOLDEN_CASES[f"jf_{_name}{_suffix}.txt"] = ["jf", "--alpha", _alpha, "--beta", _beta, "--N", "9", "--format", _fmt]

# Help texts and usage errors, rendered by usage_text at COLUMNS=80 (argparse
# of Python 3.11).
USAGE_CASES = {
    "usage_help.txt": ["--help"],
    "usage_show_help.txt": ["show", "--help"],
    "usage_export_help.txt": ["export", "--help"],
    "usage_jf_help.txt": ["jf", "--help"],
    "usage_verify_help.txt": ["verify", "--help"],
    "usage_oeis_check_help.txt": ["oeis-check", "--help"],
    "usage_fetch_bfile_help.txt": ["fetch-bfile", "--help"],
    "usage_no_command.txt": [],
    "usage_bad_command.txt": ["frobnicate"],
    "usage_show_without_which.txt": ["show", "--N", "3"],
    "usage_verify_bad_suite.txt": ["verify", "everything"],
}


def usage_text(argv: list[str]) -> str:
    """The exit code, stdout and stderr of ``riordan ARGV`` as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
