"""The package holds what its commands run: every definition in
src/nullfoliate has a reference there and runs under a command, and every
import is used."""

import ast
import sys
from pathlib import Path

from nullfoliate import cli, sphere

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nullfoliate"
MODULES = {p.stem: ast.parse(p.read_text())
           for p in sorted(PACKAGE.glob("*.py"))}

# methods the tests measure with; the package itself never calls them
MEASURING = {"sphere.SpinField.max_abs", "sphere.SpinField.coeff",
             "tensors.MetricRep.round_sphere", "tensors._RealTensor.max_abs"}


def _definitions(node, prefix):
    """(qualified name, node) of every function, class and method below
    node, nested ones included."""
    for child in ast.iter_child_nodes(node):
        qual = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            qual = f"{prefix}.{child.name}"
            yield qual, child
        yield from _definitions(child, qual)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _first_line(node):
    """The first line of a definition's code object: that of its first
    decorator, if it has one."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def test_every_definition_has_a_reference_in_the_package():
    """A name, an attribute or a `from ... import` of the name counts;
    dunder methods are called by the language itself."""
    read = set()
    for node in (n for tree in MODULES.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unused = [qual for mod, tree in MODULES.items()
              for qual, node in _definitions(tree, mod)
              if node.name not in read and qual not in MEASURING
              and not _is_dunder(node.name)]
    assert unused == []


def test_every_function_runs_under_a_command(tmp_path, monkeypatch):
    """Every function and method of the package is entered while the
    commands below run, so a dead method cannot pass for the live one whose
    name it shares.  A code object is known by its file and first line.
    Exempt: dunder methods, the measuring methods, and
    ResidualReport.to_json, which no command calls (`verify` writes one
    summary of both reports).  The Legendre tables start empty, so their
    builder runs whatever test ran before."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sphere, "_LEGENDRE", {})
    sizes = ["--lmax", "8", "--n-s", "32"]
    solve = ["--dv", "0.0625", "--v-end", "1.5"]
    commands = [
        ["generate", "--model", "schwarzschild", *sizes, "--out", "schw"],
        ["generate", "--model", "mms", *sizes, "--out", "mms"],
        ["solve", "--data", "schw", "--out", "schw_fol", *solve],
        ["solve", "--data", "mms", "--out", "mms_fol", *solve,
         "--threads", "2"],
    ]
    for case in ("schw", "mms"):
        for stage in ("verify", "norms"):
            commands.append([stage, "--data", case, "--foliation",
                             f"{case}_fol", "--out", f"{case}_{stage}"])
    commands.append(["convergence", "--levels", "2", *sizes, "--dv0",
                     "0.125", "--v-end", "1.5", "--out", "conv"])

    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename,
                         frame.f_code.co_firstlineno))

    # every command reads a config file, which sets verify's one boolean
    (tmp_path / "run.cfg").write_text("[verify]\nstrict = no\n")
    sys.setprofile(profile)
    try:
        codes = [cli.main(["--config", "run.cfg", *argv]) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    entered = {(Path(f).resolve(), line) for f, line in entered}
    exempt = MEASURING | {"reports.ResidualReport.to_json"}
    never = [qual for mod, tree in MODULES.items()
             for qual, node in _definitions(tree, mod)
             if not isinstance(node, ast.ClassDef)
             and (PACKAGE / f"{mod}.py", _first_line(node)) not in entered
             and qual not in exempt and not _is_dunder(node.name)]
    assert never == []


def _parameters(args):
    """The name of every parameter in an ast.arguments node, in order."""
    return [p.arg for p in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                            args.vararg, args.kwarg) if p is not None]


def _reads(nodes):
    """Names that the nodes read, the target of an augmented assignment
    included.  A nested function or lambda reads its own parameters, not
    the enclosing function's of the same name; its defaults and decorators
    are read in the enclosing scope."""
    read = set()
    for node in nodes:
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            read |= _reads([*a.defaults, *filter(None, a.kw_defaults),
                            *getattr(node, "decorator_list", [])])
            read |= _reads(body) - set(_parameters(a))
        else:
            read |= _reads(ast.iter_child_nodes(node))
    return read


def _unread_parameters(modules):
    """qualname(parameter) of every parameter of a function or method that
    its body never reads; self, cls and underscore names are exempt."""
    unread = []
    for mod, tree in modules.items():
        for qual, node in _definitions(tree, mod):
            if isinstance(node, ast.ClassDef):
                continue
            read = _reads(node.body)
            unread += [f"{qual}({p})" for p in _parameters(node.args)
                       if p not in read and p not in ("self", "cls")
                       and not p.startswith("_")]
    return unread


def test_every_parameter_is_read():
    """A parameter that the body never reads asks callers for something the
    function does not use."""
    assert _unread_parameters(MODULES) == []


def test_unread_parameter_guard_sees_one():
    """The guard reports the one parameter nothing reads; a read in a
    nested function or an augmented assignment counts, but a nested
    function's read of its own parameter b is no read of f's b."""
    tree = ast.parse("def f(a, b, _c, *args, d=1, **kw):\n"
                     "    def g():\n"
                     "        return a\n"
                     "    def h(b):\n"
                     "        return b\n"
                     "    d += 1\n"
                     "    return g(args, kw), h\n")
    assert _unread_parameters({"m": tree}) == ["m.f(b)"]


def test_every_import_is_used():
    """__init__ only re-exports, so its imports are exempt."""
    unused = []
    for mod, tree in MODULES.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [f"{mod}: {b}" for b in bound
                           if b not in read and mod != "__init__"]
    assert unused == []
