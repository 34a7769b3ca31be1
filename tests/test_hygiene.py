"""Source hygiene: every name a module of the package imports is used in that
module, every local a function of the package assigns is read, every
function, class and public method it defines is used somewhere, every
process-wide memo is keyed by a signature or a size, every engine name the
benchmark scripts use exists and binds its call, and importing the package
loads no third-party package but numpy."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srfield"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b, c as d\nsys.exit(d)\n"
    assert unused_imports(source) == ["os (line 2)", "b (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_locals(source: str) -> list[str]:
    """Names a function assigns and never reads, nested functions' reads included;
    names starting with _ are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored: dict[str, int] = {}
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.Name):
                read.add(node.id)
        out.extend("%s: %s (line %d)" % (fn.name, name, line)
                   for name, line in sorted(stored.items(), key=lambda kv: kv[1])
                   if name not in read and not name.startswith("_"))
    return out


def test_unread_locals_are_found():
    source = ("def f(a):\n    x = a\n    y, _z = a\n    for i in a: pass\n    w = 1\n"
              "    def g():\n        return w\n    return g\n")
    assert unread_locals(source) == ["f: x (line 2)", "f: y (line 3)", "f: i (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, int]]:
    """Module-level functions and classes, and the public methods of those classes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out.extend((item.name, item.lineno) for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def references(source: str) -> set[str]:
    """Names read as variables or attributes; an import alone is not a use."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_definitions_and_references():
    source = ("import x\nclass A:\n    def used(self): pass\n    def idle(self): pass\n"
              "    def _private(self): pass\ndef f(): return A().used\ndef g(): pass\n")
    assert definitions(source) == [("A", 2), ("used", 3), ("idle", 4), ("f", 6), ("g", 7)]
    assert references(source) == {"A", "used"}


def test_no_dead_definitions():
    used: set[str] = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            used |= references(path.read_text())
    dead = ["%s:%d %s" % (path.name, line, name)
            for path in MODULES
            for name, line in definitions(path.read_text())
            if name not in used]
    assert dead == []


def memo_keys(source: str) -> list[tuple[str, list[str]]]:
    """Each function under a functools cache decorator, with its parameters' annotations."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(
                "cache" in ast.unparse(d.func if isinstance(d, ast.Call) else d)
                for d in node.decorator_list):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            out.append((node.name, [ast.unparse(a.annotation) if a.annotation else "?"
                                    for a in args]))
    return out


def test_memo_keys_are_found():
    source = ("import functools\n@functools.lru_cache(maxsize=None)\ndef f(spec: BundleSpec): pass\n"
              "@cache\ndef g(L, n: int): pass\ndef h(x: int): pass\n")
    assert memo_keys(source) == [("f", ["BundleSpec"]), ("g", ["?", "int"])]


def test_memos_are_keyed_by_signature_or_size():
    # a process-wide memo keyed by a Lagrangian or a problem would grow with
    # every input; one keyed by a signature (m, n, k) or an int stays bounded
    # by the signatures and sizes in use
    memos = {name: keys for path in MODULES for name, keys in memo_keys(path.read_text())}
    assert memos == {"_gauss_legendre": ["int"], "_signature": ["BundleSpec"],
                     "_taylor_index": ["int", "int"]}


def engine_uses(source: str) -> list[tuple]:
    """The engine names a script uses: (module, name, call or None, line).

    A module is bound by `from srfield import m` and a name by
    `from srfield.m import name`; each read of m.name or of name is a use, and
    call is the ast.Call when the use is called.
    """
    tree = ast.parse(source)
    modules: dict[str, str] = {}
    names: dict[str, tuple[str, str]] = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "srfield":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("srfield."):
            module = node.module.split(".", 1)[1]
            for alias in node.names:
                names[alias.asname or alias.name] = (module, alias.name)
                out.append((module, alias.name, None, node.lineno))
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            out.append((modules[node.value.id], node.attr, called.get(id(node)), node.lineno))
        elif isinstance(node, ast.Name) and node.id in names and id(node) in called:
            out.append(names[node.id] + (called[id(node)], node.lineno))
    return out


def broken_uses(source: str) -> list[str]:
    """Engine names a script uses that are missing, or called with arguments
    their signatures do not bind (calls that unpack * or ** are not checked)."""
    bad = []
    for module, name, call, line in engine_uses(source):
        target = getattr(importlib.import_module("srfield." + module), name, None)
        if target is None:
            bad.append("line %d: srfield.%s has no %s" % (line, module, name))
            continue
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords):
            continue
        try:
            inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})
        except TypeError as exc:
            bad.append("line %d: %s.%s: %s" % (line, module, name, exc))
    return bad


def test_broken_uses_are_found():
    source = ("from srfield import analysis as an\nfrom srfield.report import run_problem\n"
              "from srfield.report import gone\n"
              "an.highest_hessian(1, 2)\nan.highest_hessian(1, 2, 3)\nan.missing(1)\n"
              "run_problem(1, seed=2)\nrun_problem(1, speed=2)\nan.is_regular_at(*args)\n"
              "x = an.RANK_CUTOFF\n")
    assert [b.split(":")[0] for b in broken_uses(source)] == [
        "line 3", "line 5", "line 6", "line 8"]


@pytest.mark.parametrize("script", ["driver.py", "run.py"])
def test_benchmark_uses_bind(script):
    # perfbench's own tests cannot be collected with these (both import from a
    # module named conftest), so the engine calls the benchmark makes are
    # checked here: a removed function or a changed signature fails this suite
    source = (ROOT / "perfbench" / script).read_text()
    assert len(engine_uses(source)) >= 5
    assert broken_uses(source) == []


def fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter on the package's source, with args as sys.argv[1:]."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)


def test_import_loads_no_third_party_package():
    # a fresh interpreter's import is the benchmark's set-up time; a third-party
    # import, numpy included, would add its load to every run
    code = ("import sys\nbefore = set(sys.modules)\nimport srfield\n"
            "print(sorted({name.split('.')[0] for name in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))\n")
    out = fresh_interpreter(code)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout) == ["srfield"]


EXACT_MODULES = ("assembler", "cli", "corpus", "eleuler", "equations", "errors", "extalg",
                 "jetmodel", "multiindex", "problem", "report", "symexpr")


@pytest.mark.parametrize("command, loads_numpy", [("el", False), ("run", True)])
def test_numpy_loads_only_when_a_numeric_stage_runs(tmp_path, command, loads_numpy):
    # every exact module imports without numpy and `el` derives without it;
    # `run` on the same file loads it, so the check cannot pass by never looking
    path = tmp_path / "problem.txt"
    path.write_text("m = 1\nn = 1\nk = 2\nlagrangian = u[2]^2/2 + u[0]*u[1]^2\n")
    code = ("import sys\nfrom importlib import import_module\n"
            "for name in %r:\n    import_module('srfield.' + name)\n"
            "after_import = 'numpy' in sys.modules\n"
            "from srfield.cli import main\nstatus = main(sys.argv[1:])\n"
            "sys.stderr.write('numpy: %%s %%s\\n' %% (after_import, 'numpy' in sys.modules))\n"
            "sys.exit(status)\n" % (EXACT_MODULES,))
    out = fresh_interpreter(code, command, str(path))
    assert out.returncode == 0, out.stderr
    assert out.stderr.splitlines()[-1] == "numpy: False %s" % loads_numpy
    assert '"euler_lagrange"' in out.stdout


PLATE = ("m = 2\nn = 1\nk = 2\nfield q(x[1],x[2]) = 1\n"
         "lagrangian = 1/2*(u[2,0]^2 + 2*u[1,1]^2 + u[0,2]^2 - 2*q*u[0,0])\n")


@pytest.mark.parametrize("command, status", [("run", 3), ("analyze", 3), ("corpus", 3), ("el", 0)])
def test_missing_numpy_is_a_precondition_error(tmp_path, command, status):
    # with numpy hidden, a numeric stage ends with exit 3 and one error line naming
    # numpy, not the internal-error exit 4; `el` needs no numpy and still runs
    path = tmp_path / "plate.txt"
    path.write_text(PLATE)
    code = ("import sys\nsys.modules['numpy'] = None\nfrom srfield.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    out = fresh_interpreter(code, command, "all" if command == "corpus" else str(path))
    assert out.returncode == status, out.stderr
    if status:
        (line,) = out.stderr.splitlines()
        assert line.startswith("error: the analysis and oracle stages need numpy: "), line
    else:
        assert '"euler_lagrange"' in out.stdout


def test_reexports_resolve():
    # the package's analysis and oracle re-exports, and the names that moved from
    # eleuler to oracle, are read on first use; each must still resolve
    code = ("import srfield\nfrom srfield import analysis, eleuler, oracle\n"
            "from srfield.eleuler import bump_polynomial, gateaux_oracle\n"
            "assert gateaux_oracle is oracle.gateaux_oracle\n"
            "assert bump_polynomial is oracle.bump_polynomial\n"
            "missing = [name for name in srfield.__all__ if getattr(srfield, name, None) is None]\n"
            "missing += ['eleuler.' + name for name in sorted(eleuler._ORACLE_NAMES)\n"
            "            if getattr(eleuler, name) is not getattr(oracle, name)]\n"
            "for name in ('highest_hessian', 'prop31_verify'):\n"
            "    assert getattr(srfield, name) is getattr(analysis, name)\n"
            "for name in ('gateaux_oracle', 'residual_on_section'):\n"
            "    assert getattr(srfield, name) is getattr(oracle, name)\n"
            "print(missing)\n")
    out = fresh_interpreter(code)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout) == []
