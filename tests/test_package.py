"""The package holds what its commands run: every definition in
src/nullfoliate has a reference there and runs under a command, and every
import is used."""

import ast
import sys
from pathlib import Path

import pytest

from nullfoliate import cli, sphere

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nullfoliate"
MODULES = {p.stem: ast.parse(p.read_text())
           for p in sorted(PACKAGE.glob("*.py"))}

# methods the tests measure with; the package itself never calls them
MEASURING = {"sphere.SpinField.max_abs", "sphere.SpinField.coeff",
             "tensors.MetricRep.round_sphere", "tensors._RealTensor.max_abs"}
# bodies no command runs: the measuring methods and ResidualReport.to_json
# (`verify` writes one summary of both reports)
NOT_RUN = MEASURING | {"reports.ResidualReport.to_json"}


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


def _commands():
    """(argv, environment, expected exit code) of every command the guards
    run, at L = 8; each one takes under a second.  Beyond one pipeline per
    model they run the branches a user reaches: no config file, a
    breakdown (halving, breakdown.json, exit 3), a 2-step last window, a
    5-level foliation (the FD4 stencil) under verify --strict (FAIL, exit
    4), the deprecated thread count from the environment, a second solve
    into the same directory, and four inputs refused with exit 2: one
    s-node, no Picard sweep, a one-level convergence study and a NaN
    verify tolerance."""
    cfg = ["--config", "run.cfg"]
    sizes = ["--lmax", "8", "--n-s", "32"]
    solve = ["--dv", "0.0625", "--v-end", "1.5"]
    commands = [
        [*cfg, "generate", "--model", "schwarzschild", *sizes, "--out",
         "schw"],
        [*cfg, "generate", "--model", "mms", *sizes, "--out", "mms"],
        [*cfg, "solve", "--data", "schw", "--out", "schw_fol", *solve],
        [*cfg, "solve", "--data", "mms", "--out", "mms_fol", *solve,
         "--threads", "2"],
    ]
    for case in ("schw", "mms"):
        for stage in ("verify", "norms"):
            commands.append([*cfg, stage, "--data", case, "--foliation",
                             f"{case}_fol", "--out", f"{case}_{stage}"])
    commands.append([*cfg, "convergence", "--levels", "2", *sizes, "--dv0",
                     "0.125", "--v-end", "1.5", "--out", "conv"])
    return [(argv, {}, 0) for argv in commands] + [
        (["generate", "--model", "minkowski", *sizes, "--out", "mink"], {},
         0),
        (["solve", "--data", "mms", "--out", "broken", "--max-iter", "1",
          *solve], {}, 3),
        (["solve", "--data", "schw", "--out", "tail", "--dv", "0.0625",
          "--v-end", "1.625"], {"NULLFOLIATE_THREADS": "2"}, 0),
        (["solve", "--data", "mms", "--out", "short", "--dv", "0.0625",
          "--v-end", "1.25"], {}, 0),
        (["verify", "--strict", "--data", "mms", "--foliation", "short",
          "--out", "short_verify"], {}, 4),
        (["solve", "--data", "mms", "--out", "broken", *solve], {}, 0),
        (["generate", "--model", "minkowski", "--lmax", "8", "--n-s", "1",
          "--out", "one_node"], {}, 2),
        (["solve", "--data", "schw", "--out", "no_sweep", "--max-iter", "0",
          *solve], {}, 2),
        (["convergence", "--levels", "1", *sizes, "--out", "one_level"], {},
         2),
        (["verify", "--data", "schw", "--foliation", "schw_fol",
          "--tol-transport", "nan", "--out", "nan_tol"], {}, 2),
    ]


@pytest.fixture(scope="module")
def command_trace(tmp_path_factory):
    """Run the commands under sys.settrace: the (file, first line) of every
    code object entered, and the (file, line) of every line event in the
    package.  The grids and transform tables start empty, so their builders
    run whatever test ran before."""
    entered, lines = set(), set()
    package = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))
        return local if str(Path(code.co_filename).resolve()).startswith(
            package) else None

    codes, expected = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("commands"))
        for cache in ("_GRIDS", "_LEGENDRE", "_FOURIER"):
            mp.setattr(sphere, cache, {})
        mp.delenv("NULLFOLIATE_THREADS", raising=False)
        # the config file sets verify's one boolean
        Path("run.cfg").write_text("[verify]\nstrict = no\n")
        for argv, env, code in _commands():
            for key, value in env.items():
                mp.setenv(key, value)
            sys.settrace(trace)
            try:
                codes.append(cli.main(argv))
            finally:
                sys.settrace(None)
            for key in env:
                mp.delenv(key)
            expected.append(code)
    assert codes == expected

    def resolved(pairs):
        return {(Path(f).resolve(), line) for f, line in pairs}
    return resolved(entered), resolved(lines)


def test_every_function_runs_under_a_command(command_trace):
    """Every function and method of the package is entered while the
    commands of _commands run, so a dead method cannot pass for the live
    one whose name it shares.  A code object is known by its file and first
    line.  Exempt: dunder methods and NOT_RUN."""
    entered, _ = command_trace
    never = [qual for mod, tree in MODULES.items()
             for qual, node in _definitions(tree, mod)
             if not isinstance(node, ast.ClassDef)
             and (PACKAGE / f"{mod}.py", _first_line(node)) not in entered
             and qual not in NOT_RUN and not _is_dunder(node.name)]
    assert never == []


# (function, first source line of a statement) -> why no command runs it;
# the test named with each reaches it
UNREACHED = {
    ("geodesic._real_harmonic_samples", "c[l, grid.Lmax] = 1.0"):
        "only MmsSpec(profile_m=0) takes the zonal profile; "
        "test_geodesic.py::TestManufactured::test_zonal_profile_is_y_l0",
    ("_wigner.spin_lambda_tables",
     "return np.zeros((ms.size, theta.size, lmax + 1))"):
        "a band below |spin|, which the raw transforms accept; "
        "test_sphere.py::TestTransformKernels::"
        "test_band_below_the_spin_is_zero",
}


def _statements(body, skip_docstring):
    """Every statement of a function body that a command must run, nested
    blocks included: not a docstring, a raise, an except body, nor the
    body of a nested function or class (that is its own definition)."""
    for i, stmt in enumerate(body):
        if skip_docstring and i == 0 and isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            continue
        if isinstance(stmt, ast.Raise):
            continue
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, field, []), False)


def _own_lines(stmt):
    """The lines on which a statement's own code runs: all its lines for a
    simple statement, the header (up to its first nested statement) for a
    compound one."""
    end = stmt.end_lineno
    for field in ("body", "orelse", "finalbody"):
        block = getattr(stmt, field, None)
        if block:
            end = min(end, block[0].lineno - 1)
    start = _first_line(stmt) if hasattr(stmt, "decorator_list") \
        else stmt.lineno
    return range(start, max(end, start) + 1)


def test_every_statement_runs_under_a_command(command_trace):
    """The statement twin of the function guard: every statement in a
    function body of the package has a line event while the commands run,
    so no branch that input cannot reach stays in the code unseen.  A
    statement counts as run when any of its own lines (the header of a
    compound statement) has one.  Exempt: a statement that raises, an
    except body, a docstring, the bodies of NOT_RUN, and
    the few statements of UNREACHED, each with its reason and a test that
    reaches it; an entry that a command does run is reported too, so the
    set holds nothing stale.  A try header has no line event of its own;
    its body stands for it."""
    _, lines = command_trace
    never, stale, named = [], [], set()
    for mod, tree in MODULES.items():
        source = (PACKAGE / f"{mod}.py").read_text().splitlines()
        for qual, node in _definitions(tree, mod):
            if isinstance(node, ast.ClassDef) or qual in NOT_RUN:
                continue
            for stmt in _statements(node.body, True):
                if isinstance(stmt, ast.Try):
                    continue
                first = source[stmt.lineno - 1].strip()
                ran = any((PACKAGE / f"{mod}.py", line) in lines
                          for line in _own_lines(stmt))
                where = f"{qual}:{stmt.lineno}: {first}"
                if (qual, first) in UNREACHED:
                    named.add((qual, first))
                    if ran:
                        stale.append(where)
                elif not ran:
                    never.append(where)
    assert (never, stale, set(UNREACHED) - named) == ([], [], set())


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
