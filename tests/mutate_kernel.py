"""Mutation harness for the proof kernel.

Each `fail(...)` call in `src/epskernel/kernel.py` is made a no-op in turn,
in a temporary copy of the package, and a pytest selection is run against
that copy with `-x`, one run at a time.  A site survives when the selection
still passes without it: no test depends on the side condition it reports.

    python tests/mutate_kernel.py [pytest selection ...]

The default selection is the kernel, differential, acceptance and
proof-script tests.  Each site is printed as it is decided, by the
function it sits in, the rules whose checks reach that function, and its
condition.  The exit code is 0 when every site is killed, 1 when some
survive (they are listed again at the end), and 2 when the selection fails
on the unmutated kernel.  pytest does not collect this file.
"""

import ast
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "epskernel"
SELECTION = ["tests/test_kernel.py", "tests/test_kernel_differential.py",
             "tests/test_acceptance.py", "tests/test_proof_scripts.py"]
NOP = "(lambda *a: None)("


def sites(source):
    """(line, column, top-level function, condition) of each `fail(...)`
    call in `source`, in source order."""
    out = []
    for top in ast.parse(source).body:
        if not isinstance(top, ast.FunctionDef):
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "fail"):
                cond = node.args[0]
                out.append((node.lineno, node.col_offset, top.name,
                            cond.value if isinstance(cond, ast.Constant)
                            else ast.unparse(cond)))
    return sorted(out)


def owners(source):
    """Top-level function name -> the rules whose checker it is or calls,
    directly or through other functions of `source`."""
    sys.path.insert(0, str(PACKAGE.parent))
    from epskernel.kernel import RULES
    calls = {top.name: {n.func.id for n in ast.walk(top) if isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Name)}
             for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)}
    out = {}
    for rule, (_, checker) in RULES.items():
        todo = [checker.__qualname__.split(".")[0]]
        while todo:
            func = todo.pop()
            if rule not in out.setdefault(func, []):
                out[func].append(rule)
                todo.extend(calls.get(func, ()))
    return out


def mutant(source, line, col):
    lines = source.split("\n")
    text = lines[line - 1]
    assert text[col:col + 5] == "fail(", (line, text)
    lines[line - 1] = text[:col] + NOP + text[col + 5:]
    return "\n".join(lines)


def passes(kernel_source, selection):
    """Whether `selection` passes against the package with `kernel_source`
    as its kernel."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp) / "epskernel"
        shutil.copytree(PACKAGE, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "kernel.py").write_text(kernel_source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *selection], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main(argv):
    selection = argv or SELECTION
    source = (PACKAGE / "kernel.py").read_text(encoding="utf-8")
    if not passes(source, selection):
        print("the selection fails on the unmutated kernel")
        return 2
    rules = owners(source)
    survivors = []
    found = sites(source)
    for i, (line, col, func, cond) in enumerate(found, 1):
        used = " [%s]" % ", ".join(rules[func]) if func in rules else ""
        site = "%s%s: %s (line %d)" % (func, used, cond, line)
        killed = not passes(mutant(source, line, col), selection)
        print("[%d/%d] %s %s" % (i, len(found), "killed" if killed else "SURVIVED",
                                 site), flush=True)
        if not killed:
            survivors.append(site)
    print("%d of %d sites survive" % (len(survivors), len(found)))
    for site in survivors:
        print("  " + site)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
