"""Package-wide structure: no dead public code, no dead test oracle, and a
package namespace that imports and re-exports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import filmcav

#: public names no package code calls: the calls README documents
ORACLES = {"render_config"}

TESTS = Path(__file__).parent


def _modules():
    """Module name and syntax tree of every package module but __init__."""
    for path in sorted(Path(filmcav.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _names_outside_own_definition(tree):
    """Top-level functions and classes of ``tree`` by name, and every name
    the tree uses outside the definition that owns it (imports do not
    count)."""
    defined, named = [], set()
    for top in tree.body:
        own = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               else None)
        if own is not None:
            defined.append(own)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name is not None and name != own:
                named.add(name)
    return defined, named


def test_every_public_definition_has_a_caller_or_is_an_oracle():
    # a public module-level function or class must be named somewhere in
    # the package outside its own definition (imports and __init__ do not
    # count), unless README documents it as a call
    defined, named = {}, set()
    for module, tree in _modules():
        own, used = _names_outside_own_definition(tree)
        defined.update((name, module) for name in own
                       if not name.startswith("_"))
        named |= used
    unnamed = {name: module for name, module in defined.items()
               if name not in named}
    assert set(unnamed) == ORACLES, unnamed


def test_every_test_oracle_is_used():
    # every top-level function of tests/oracles.py must be named in some
    # test module or by another oracle: the package guards above do not
    # see the oracles, so without this one a dead oracle would stay
    defined, named = _names_outside_own_definition(
        ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8")))
    for path in sorted(TESTS.glob("test_*.py")):
        named |= _names_outside_own_definition(
            ast.parse(path.read_text(encoding="utf-8")))[1]
    assert sorted(name for name in defined if name not in named) == []


def _is_property(node):
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Name) and d.id == "property"
        for d in node.decorator_list)


def test_every_public_field_and_property_is_read():
    # every annotated field and every property of a public class must be
    # read as an attribute somewhere in the package
    declared, read = [], set()
    for _, tree in _modules():
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for item in top.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        declared.append((top.name, item.target.id))
                    elif _is_property(item):
                        declared.append((top.name, item.name))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    unread = sorted(f"{cls}.{name}" for cls, name in declared
                    if name not in read)
    assert unread == []


def test_every_optional_parameter_is_set_by_some_caller():
    # a defaulted parameter of a module-level function must be passed, by
    # position or by keyword, at some call in the package: an option no
    # caller sets is a constant.  main's argv is how tests and the console
    # script enter the CLI.
    optional, passed = [], set()
    for module, tree in _modules():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                args = top.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                optional += [(module, top.name, a.arg, i)
                             for i, a in enumerate(positional) if i >= first]
                optional += [(module, top.name, a.arg, None)
                             for a, d in zip(args.kwonlyargs, args.kw_defaults)
                             if d is not None]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id",
                               getattr(node.func, "attr", None))
                passed.update((name, i) for i in range(len(node.args)))
                passed.update((name, k.arg) for k in node.keywords)
    unset = [f"{module}.{name}({arg})" for module, name, arg, index in optional
             if (name, arg) not in passed and (name, index) not in passed
             and (name, arg) != ("main", "argv")]
    assert unset == []


def test_package_namespace_imports_and_exports_nothing():
    # every name has one import path, filmcav.<module>.<name>: __init__
    # holds no import that would load a layer and no __all__ to keep in sync
    init = Path(filmcav.__file__)
    found = [f"{init.name}:{node.lineno}"
             for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Import, ast.ImportFrom))
             or (isinstance(node, ast.Name) and node.id == "__all__")]
    assert found == []


def test_importing_a_layer_loads_only_what_it_imports():
    # a fresh interpreter: the grid layer needs errors and physics, no
    # other filmcav module and no scipy
    source = str(Path(filmcav.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source,
                                                      env.get("PYTHONPATH")]))
    probe = ("import sys, filmcav.grid; print(' '.join(sorted(m for m in "
             "sys.modules if m.split('.')[0] in ('filmcav', 'scipy'))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["filmcav", "filmcav.errors",
                                   "filmcav.grid", "filmcav.physics"]


#: the functions that write files: every artifact of a run goes through one
#: of them, where a traced run counts its bytes or its time
WRITERS = {("cli", "_write_text"), ("grid", "export_fields_csv"),
           ("stability", "export_spectrum_csv")}


def _opens_for_reading(call):
    mode = (call.args[1] if len(call.args) > 1 else
            next((k.value for k in call.keywords if k.arg == "mode"), None))
    return mode is None or (isinstance(mode, ast.Constant)
                            and isinstance(mode.value, str)
                            and not set(mode.value) & set("wax+"))


def test_every_file_write_goes_through_a_writer():
    # an open() outside the writers must open its file for reading
    strays = []
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id",
                                    getattr(node.func, "attr", None)) == "open"
                        and (module, getattr(top, "name", None)) not in WRITERS
                        and not _opens_for_reading(node)):
                    strays.append(f"{module}.py:{node.lineno}")
    assert strays == []
