"""Static checks over the package source, with the stdlib ``ast`` only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tsal"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from typing import Callable, Iterable\n"
              "def f(g: Callable) -> None:\n    np.zeros(1)\n")
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes of the given modules (sources by
    module name) that no top-level statement of any of them reads, the
    definition itself aside, as ``module.name``. A read is resolved to
    the module that defines the name: a bare name to its own module or
    to the one it was imported from (``from .m import X``), and an
    attribute to the module it is taken of (``ad.X``, ``autodiff.X``),
    whether that module was bound by an import (one under ``if
    TYPE_CHECKING:`` too) or lazily, as ``m = _lazy(".m")``: a call with
    a relative module name as its only argument. An attribute of
    anything else (``np.log``, ``math.sqrt``, ``self.x``) reads no
    definition of these modules."""
    trees = {m: ast.parse(source) for m, source in sources.items()}
    defined = {(m, node.name): (m, i) for m, tree in trees.items()
               for i, node in enumerate(tree.body)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    readers: dict[tuple[str, str], set] = {}
    for m, tree in trees.items():
        modules, names = {}, {}  # local name -> module, (module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name)
                               for a in node.names if a.name in sources)
            elif isinstance(node, ast.ImportFrom):
                origin = (node.module or "").rpartition(".")[2]
                for a in node.names:
                    if origin in sources:
                        names[a.asname or a.name] = (origin, a.name)
                    elif a.name in sources:
                        modules[a.asname or a.name] = a.name
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call) and \
                    len(node.value.args) == 1 and \
                    isinstance(node.value.args[0], ast.Constant):
                origin = str(node.value.args[0].value)
                if origin.startswith(".") and origin[1:] in sources:
                    modules.update((t.id, origin[1:]) for t in node.targets
                                   if isinstance(t, ast.Name))
        for i, statement in enumerate(tree.body):
            for n in ast.walk(statement):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    key = (m, n.id) if (m, n.id) in defined \
                        else names.get(n.id)
                elif isinstance(n, ast.Attribute) and \
                        isinstance(n.value, ast.Name) and \
                        n.value.id in modules:
                    key = (modules[n.value.id], n.attr)
                else:
                    continue
                readers.setdefault(key, set()).add((m, i))
    return sorted(f"{m}.{name}" for (m, name), where in defined.items()
                  if not readers.get((m, name), set()) - {where})


def test_checker_finds_unread_definitions():
    first = ("class Base: pass\nclass Leaf(Base): pass\n"
             "def loop(n):\n    return loop(n - 1)\n"
             "def used(): pass\nused = used\n")
    second = "import first\ndef main():\n    first.used()\n"
    # outside modules' attributes of the same names read nothing here
    maths = ("def log(x): pass\ndef sqrt(x): pass\ndef exp(x): pass\n"
             "def tanh(x): pass\n")
    user = ("import math\nimport numpy as np\nfrom . import maths as m\n"
            "from .maths import tanh\n"
            "y = np.log(m.exp(tanh(math.sqrt(2.0))))\n")
    # a lazily bound module, and one imported for annotations only
    late = "def later(): pass\nclass Hint: pass\n"
    lazy = ("from typing import TYPE_CHECKING\ndef _lazy(name): pass\n"
            "late = _lazy('.late')\nnp = _lazy('numpy')\n"
            "if TYPE_CHECKING:\n    from . import late as hints\n"
            "def go(h: hints.Hint):\n    late.later()\n")
    assert unread_definitions({"first": first, "second": second,
                               "maths": maths, "user": user,
                               "late": late, "lazy": lazy}) == [
        "first.Leaf", "first.loop", "lazy.go", "maths.log", "maths.sqrt",
        "second.main"]


def test_every_definition_is_read():
    unread = unread_definitions({p.stem: p.read_text()
                                 for p in sorted(SRC.glob("*.py"))})
    assert unread == []


def direct_reads(source: str) -> list[str]:
    """Calls that open or read a file without ``fileio.reading``: the
    builtin ``open`` and any ``.open()``, ``.read_text()`` or
    ``.read_bytes()`` method, as ``name@line`` in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and func.attr in (
                "open", "read_text", "read_bytes"):
            found.append((node.lineno, func.attr))
    return [f"{name}@{line}" for line, name in sorted(found)]


def test_checker_finds_direct_reads():
    source = ("import os\nfrom pathlib import Path\n"
              "def f(p):\n    with open(p) as fh:\n        fh.read()\n"
              "    os.fdopen(3)\n    return Path(p).read_text()\n")
    assert direct_reads(source) == ["open@4", "read_text@7"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "fileio.py"))
def test_only_fileio_opens_files(module):
    assert direct_reads((SRC / module).read_text()) == []


def csv_writers(source: str) -> list[int]:
    """Lines that make a ``csv.writer`` or ``csv.DictWriter``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("writer", "DictWriter")
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "csv")


def test_checker_finds_csv_writers():
    source = ("import csv, io\nbuf = io.StringIO()\n"
              "csv.writer(buf).writerow([1])\nw = csv.DictWriter\n"
              "csv.reader(buf)\n")
    assert csv_writers(source) == [3, 4]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "fileio.py"))
def test_only_fileio_writes_csv(module):
    assert csv_writers((SRC / module).read_text()) == []


# the os functions that make, move or remove a path
PATH_CHANGES = ("replace", "makedirs", "mkdir", "rename", "remove", "unlink")


def file_replacements(source: str) -> list[str]:
    """Code that makes, moves or removes paths, which only ``fileio`` may
    do (staged outputs): an import of ``tempfile`` or
    ``shutil`` or from either, a ``PATH_CHANGES`` name imported from
    ``os`` or read as an ``os`` attribute, and any ``.mkdir(`` call, as
    ``name@line`` in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[0]) for a in node.names
                      if a.name.split(".")[0] in ("tempfile", "shutil")]
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("tempfile", "shutil"):
                found.append((node.lineno, node.module))
            elif node.module == "os":
                found += [(node.lineno, f"os.{a.name}") for a in node.names
                          if a.name in PATH_CHANGES]
        elif isinstance(node, ast.Attribute) and node.attr in PATH_CHANGES \
                and isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute) and node.func.attr == "mkdir" \
                and not (isinstance(node.func.value, ast.Name)
                         and node.func.value.id == "os"):
            found.append((node.lineno, ".mkdir"))
    return [f"{name}@{line}" for line, name in sorted(found)]


def test_checker_finds_file_replacements():
    source = ("import os, tempfile\nfrom os import replace, path\n"
              "from tempfile import mkstemp\n"
              "def f(p, text):\n    fd, tmp = mkstemp()\n"
              "    os.replace(tmp, p)\n    return text.replace('a', 'b')\n"
              "import shutil.util\nfrom shutil import rmtree\n"
              "from os import makedirs, unlink, getcwd\n"
              "def g(p):\n    os.makedirs(p)\n    os.mkdir(p)\n"
              "    p.mkdir(parents=True)\n    os.rename(p, p)\n"
              "    os.remove(p)\n    os.unlink(p)\n    os.listdir(p)\n"
              "    p.mkdir_like(p)\n")
    assert file_replacements(source) == [
        "tempfile@1", "os.replace@2", "tempfile@3", "os.replace@6",
        "shutil@8", "shutil@9", "os.makedirs@10", "os.unlink@10",
        "os.makedirs@12", "os.mkdir@13", ".mkdir@14", "os.rename@15",
        "os.remove@16", "os.unlink@17"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "fileio.py"))
def test_only_fileio_replaces_files(module):
    assert file_replacements((SRC / module).read_text()) == []


# the writers besides the ``write_*`` functions that put an artifact on disk
WRITERS = ("save_params", "atomic_write_bytes", "_save_npy", "_write_map")


def direct_output_writes(source: str) -> list[str]:
    """Calls of a writer (a ``write_*`` name or one of ``WRITERS``) with
    an ``args.<name>`` argument: a command writing to a path of its
    command line past ``fileio.staged``, as ``name@line`` in line
    order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", ""))
        arguments = [*node.args, *(k.value for k in node.keywords)]
        if (name.startswith("write_") or name in WRITERS) and any(
                isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
                and a.value.id == "args" for a in arguments):
            found.append((node.lineno, name))
    return [f"{name}@{line}" for line, name in sorted(found)]


def test_checker_finds_direct_output_writes():
    source = ("def cmd(args, h, rows):\n"
              "    gaze.write_fixations_csv(args.out, rows)\n"
              "    write_csv(path=args.loss_csv, header=h, rows=rows)\n"
              "    autodiff.save_params(args.out, rows)\n"
              "    with staged(args.out) as (out,):\n"
              "        write_csv(out, h, rows)\n"
              "    _save_npy(args.out, rows)\n"
              "    _write_map(args.maps, 't0', 'img', rows, h)\n"
              "    atomic_write_bytes(args.out, b'')\n"
              "    read_csv(args.fixations)\n"
              "    writer(args.out)\n"
              "    write_map_tsal(h.out, rows)\n")
    assert direct_output_writes(source) == [
        "write_fixations_csv@2", "write_csv@3", "save_params@4",
        "_save_npy@7", "_write_map@8", "atomic_write_bytes@9"]


def test_every_command_writes_through_staged():
    assert direct_output_writes((SRC / "cli.py").read_text()) == []


# the os names that read the process environment
ENVIRONMENT_READS = ("environ", "getenv")


def environment_reads(source: str) -> list[str]:
    """Code that reads the environment or the home directory, which no
    module may do (a command reads only its arguments and its inputs):
    an ``ENVIRONMENT_READS`` name imported from ``os`` or read as an
    ``os`` attribute, ``Path.home`` and any ``expanduser``, as
    ``name@line`` in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"os.{a.name}") for a in node.names
                      if node.module == "os" and a.name in ENVIRONMENT_READS]
            found += [(node.lineno, "expanduser") for a in node.names
                      if a.name == "expanduser"]
        elif not isinstance(node, ast.Attribute):
            continue
        elif node.attr in ENVIRONMENT_READS and \
                isinstance(node.value, ast.Name) and node.value.id == "os":
            found.append((node.lineno, f"os.{node.attr}"))
        elif node.attr == "home" and (
                isinstance(node.value, ast.Name) and node.value.id == "Path"
                or isinstance(node.value, ast.Attribute)
                and node.value.attr == "Path"):
            found.append((node.lineno, "Path.home"))
        elif node.attr == "expanduser":
            found.append((node.lineno, "expanduser"))
    return [f"{name}@{line}" for line, name in sorted(found)]


def test_checker_finds_environment_reads():
    source = ("import os, pathlib\nfrom os import environ, getenv, path\n"
              "from os.path import expanduser\nfrom pathlib import Path\n"
              "def f(p):\n    os.environ.get('A')\n    os.getenv('B')\n"
              "    Path.home()\n    pathlib.Path.home()\n"
              "    os.path.expanduser(p)\n    Path(p).expanduser()\n"
              "    p.home\n    os.getcwd()\n    os.environment\n")
    assert environment_reads(source) == [
        "os.environ@2", "os.getenv@2", "expanduser@3", "os.environ@6",
        "os.getenv@7", "Path.home@8", "Path.home@9", "expanduser@10",
        "expanduser@11"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_reads_the_environment(module):
    assert environment_reads((SRC / module).read_text()) == []
