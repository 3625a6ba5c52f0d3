"""Mutation audit: swap one operator, call or constant at a time, run the tests.

Each mutant is one small change at one site of the named functions:

- a binary operator: ``+``/``-``, ``*``/``/``, ``//`` to ``/``;
- a comparison: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``;
- a unary minus dropped;
- a numpy function swapped for its partner (``maximum``/``minimum``,
  ``add``/``subtract``, ``exp``/``expm1``, ``log1p``/``log``, ...);
- a number constant changed (an integer k to k + 1, 0.0 to 1.0, x to 2x).

The sites are listed in source order, so a site's number is stable while
the functions are; ``--site`` picks sites by number, and ``--sample N
--seed S`` picks N of them reproducibly.
Every mutant gets its own copy of the repository (without its history and
caches) under ``--workdir``, and runs ``python -m pytest -x`` there on ``--tests``.
A mutant is killed when the run fails or outlasts ``TIMEOUT_S`` (a
mutated loop bound may never end), and survives when it passes.  Standard library only; not part of the test suite.

    python tools/mutate.py --list
    python tools/mutate.py --workdir /tmp/mutants --tests tests/test_security.py
    python tools/mutate.py --target receivers:_skellam_chernoff_upper --sample 5 --seed 7
"""

import argparse
import ast
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pnrchan"
# not copied for a mutant: history, caches and benchmark records
SKIP = (".git", ".perfbench", ".hypothesis", ".pytest_cache", ".benchmarks", "__pycache__")
DEFAULT_TARGETS = ("information:_softplus", "security:_eve_mean_softplus",
                   "security:_barycentric")
TIMEOUT_S = 600  # per mutant

BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
          ast.FloorDiv: ast.Div}
COMPARE = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is}
NUMPY = {"maximum": "minimum", "minimum": "maximum", "add": "subtract",
         "subtract": "add", "multiply": "divide", "divide": "multiply", "exp": "expm1",
         "expm1": "exp", "log1p": "log", "log": "log1p", "abs": "negative",
         "negative": "positive", "ones": "zeros", "zeros": "ones", "empty": "zeros",
         "cos": "sin", "sin": "cos", "any": "all", "all": "any", "argmax": "argmin"}


class Site:
    """One mutation: replace ``source[start:end]`` of ``path`` by ``text``."""

    def __init__(self, path, function, node, text, what):
        self.path, self.function, self.what, self.text = path, function, what, text
        self.line, self.col = node.lineno, node.col_offset
        self.end = (node.end_lineno, node.end_col_offset)

    def __str__(self):
        return (f"{self.path.relative_to(ROOT)}:{self.line}:{self.col} "
                f"{self.function}: {self.what}")

    def apply(self, source):
        lines = source.splitlines(keepends=True)
        offset = [0]
        for line in lines:
            offset.append(offset[-1] + len(line.encode()))
        data = source.encode()
        start = offset[self.line - 1] + self.col
        stop = offset[self.end[0] - 1] + self.end[1]
        return (data[:start] + self.text.encode() + data[stop:]).decode()


def _mutants(node):
    """(replacement text, description) for each mutation of one AST node."""
    if isinstance(node, ast.BinOp) and type(node.op) in BINARY:
        new = ast.BinOp(node.left, BINARY[type(node.op)](), node.right)
        yield f"({ast.unparse(new)})", f"{ast.unparse(node)} -> {ast.unparse(new)}"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in COMPARE:
                ops = [*node.ops[:i], COMPARE[type(op)](), *node.ops[i + 1:]]
                new = ast.Compare(node.left, ops, node.comparators)
                yield f"({ast.unparse(new)})", f"{ast.unparse(node)} -> {ast.unparse(new)}"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        yield f"({ast.unparse(node.operand)})", f"{ast.unparse(node)} -> drop the minus"
    elif (isinstance(node, ast.Attribute) and node.attr in NUMPY
          and isinstance(node.value, ast.Name) and node.value.id == "np"):
        yield f"np.{NUMPY[node.attr]}", f"np.{node.attr} -> np.{NUMPY[node.attr]}"
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)
          and not isinstance(node.value, bool)):
        value = node.value
        new = value + 1 if isinstance(value, int) else (1.0 if value == 0.0 else 2.0 * value)
        yield repr(new), f"{value!r} -> {new!r}"


def sites(targets):
    """Every mutation site of the ``module:function`` targets, in source order."""
    found = []
    for target in targets:
        module, _, name = target.partition(":")
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text())
        functions = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name == name]
        if len(functions) != 1:
            raise SystemExit(f"{target}: found {len(functions)} functions of that name")
        nodes = sorted((node for node in ast.walk(functions[0]) if hasattr(node, "lineno")),
                       key=lambda node: (node.lineno, node.col_offset,
                                         node.end_lineno, node.end_col_offset))
        for node in nodes:
            found += [Site(path, name, node, text, what) for text, what in _mutants(node)]
    return found


def run_mutant(site, workdir, tests):
    """('killed', test) or ('survived', '') or ('timeout', '') for one site."""
    copy = Path(tempfile.mkdtemp(prefix="mutant-", dir=workdir)) / "repo"
    try:
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIP))
        target = copy / site.path.relative_to(ROOT)
        target.write_text(site.apply(target.read_text()))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                                  "-p", "no:cacheprovider", *tests],
                                 cwd=copy, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", ""
        if run.returncode == 0:
            return "survived", ""
        failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
        return "killed", failed.group(1) if failed else f"exit {run.returncode}"
    finally:
        shutil.rmtree(copy.parent, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", action="append",
                        help="module:function under src/pnrchan (repeatable; default: "
                             + ", ".join(DEFAULT_TARGETS) + ")")
    parser.add_argument("--tests", nargs="+", default=["tests"],
                        help="pytest arguments naming the tests to run (default: tests)")
    parser.add_argument("--site", type=int, action="append",
                        help="run only this site number of --list (repeatable)")
    parser.add_argument("--sample", type=int, help="run this many sites, drawn with --seed")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", help="where the mutant copies go (default: a temp dir)")
    parser.add_argument("--list", action="store_true", help="print the sites and stop")
    args = parser.parse_args(argv)

    every = sites(args.target or DEFAULT_TARGETS)
    chosen = [(n, site) for n, site in enumerate(every) if not args.site or n in args.site]
    if args.sample is not None:
        chosen = sorted(random.Random(args.seed).sample(chosen, min(args.sample, len(chosen))),
                        key=lambda pair: pair[0])
    if args.list:
        for number, site in chosen:
            print(f"{number:4d} {site}")
        return 0
    workdir = args.workdir or tempfile.mkdtemp(prefix="mutate-")
    Path(workdir).mkdir(parents=True, exist_ok=True)
    survivors = 0
    for number, site in chosen:
        start = time.perf_counter()
        outcome, test = run_mutant(site, workdir, args.tests)
        survivors += outcome == "survived"
        print(f"{number:4d} {site}  => {outcome} {test} "
              f"({time.perf_counter() - start:.0f} s)", flush=True)
    print(f"{len(chosen)} mutants, {survivors} survived", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
