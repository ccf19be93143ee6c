#!/usr/bin/env python3
"""Which ``riordan`` modules one request loads, and what compiling them costs.

usage: python scripts/request_footprint.py [--repeats K] ARGV...

for example ``python scripts/request_footprint.py show --which f --N 30``.
ARGV is the request's command line after ``riordan``; put ``--`` before it
if it starts with an option of this script.  The request runs once in a
fresh interpreter with ``PYTHONDONTWRITEBYTECODE=1`` (its output is
discarded), as the benchmark runs it: every module it imports is then
compiled from source.  For each ``riordan`` module the request loaded, the
script prints its code lines (lines holding code, not counting blank,
comment and docstring lines) and its cold ``compile()`` time: the first
compile of that source in a fresh interpreter, the median over K fresh
interpreters (default 5).
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = """
import contextlib, io, json, sys
import riordan.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        riordan.cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted((name, m.__file__) for name, m in sys.modules.items()
                        if name.split(".")[0] == "riordan")))
"""

COMPILE = """
import json, sys, time
times = []
for path in sys.argv[1:]:
    source = open(path).read()
    start = time.perf_counter()
    compile(source, path, "exec")
    times.append(time.perf_counter() - start)
print(json.dumps(times))
"""

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """Lines that hold a token other than a comment or a docstring."""
    with open(path, "rb") as f:
        lines = {
            line
            for tok in tokenize.tokenize(f.readline)
            if tok.type not in SKIPPED
            for line in range(tok.start[0], tok.end[0] + 1)
        }
    for node in ast.walk(ast.parse(Path(path).read_text())):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def fresh_python(code: str, args: list[str]) -> str:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="fresh interpreters per compile timing")
    parser.add_argument("request", nargs=argparse.REMAINDER, help="the request's argv after 'riordan'")
    args = parser.parse_args(argv)
    request = args.request[1:] if args.request[:1] == ["--"] else args.request
    if not request or args.repeats < 1:
        parser.error("give the request's argv, and --repeats of at least 1")

    modules = [(name, path) for name, path in json.loads(fresh_python(LOADED, request))]
    paths = [path for _, path in modules]
    runs = [json.loads(fresh_python(COMPILE, paths)) for _ in range(args.repeats)]
    print(f"riordan {' '.join(request)}")
    print(f"{'module':22s} {'code lines':>10s} {'compile ms':>10s}")
    total_lines = total_ms = 0.0
    for i, (name, path) in enumerate(modules):
        lines = code_lines(path)
        ms = 1000 * statistics.median(run[i] for run in runs)
        total_lines += lines
        total_ms += ms
        print(f"{name:22s} {lines:10d} {ms:10.2f}")
    print(f"{'total':22s} {int(total_lines):10d} {total_ms:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
