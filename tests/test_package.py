"""Package-wide structure: no dead public code or module constant, no dead
test oracle, a package namespace that imports and re-exports nothing, every
file write in one CLI function, the film equation written in one function,
one sparse format with one conversion, one pressure elimination per run,
at its start state, one owner of the modal analysis, a sparse stencil only
its own layer names, no matrix diagonal set outside that layer, and no
private name taken from another module but the pinned few."""

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


def _is_constant(name):
    return name.lstrip("_")[:1].isalpha() and name == name.upper()


def test_every_module_constant_is_read():
    # an UPPER_CASE name assigned at module level must be read somewhere in
    # the package outside its own assignment (imports do not count): a
    # constant no code reads is a leftover of a deleted rule
    assigned, read = [], set()
    for module, tree in _modules():
        for top in tree.body:
            targets = (top.targets if isinstance(top, ast.Assign)
                       else [top.target] if isinstance(top, ast.AnnAssign)
                       else [])
            assigned += [(module, node.id) for target in targets
                         for node in ast.walk(target)
                         if isinstance(node, ast.Name)
                         and _is_constant(node.id)]
        read.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load))
    assert [f"{module}.{name}" for module, name in assigned
            if name not in read] == []


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


def test_every_public_field_property_and_method_is_read():
    # every annotated field, property and public method of a public class
    # must be read as an attribute somewhere in the package: a method only
    # tests call is a test oracle
    declared, read = [], set()
    for _, tree in _modules():
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for item in top.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        declared.append((top.name, item.target.id))
                    elif (isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")):
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


#: the one function that writes files: every artifact of a run goes through
#: it, where a traced run counts its bytes
WRITERS = {("cli", "_write_text")}


def _opens_for_reading(call):
    mode = (call.args[1] if len(call.args) > 1 else
            next((k.value for k in call.keywords if k.arg == "mode"), None))
    return mode is None or (isinstance(mode, ast.Constant)
                            and isinstance(mode.value, str)
                            and not set(mode.value) & set("wax+"))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return {node.module.split(".")[0]}
    return set()


def test_every_file_write_goes_through_a_writer():
    # an open() outside the writer must open its file for reading
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


def test_only_the_cli_writes_artifacts():
    # the numerical layers return their results: only cli calls a writer,
    # and only cli imports os or pathlib
    writers = {name for _, name in WRITERS}
    strays = []
    for module, tree in _modules():
        if module == "cli":
            continue
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id",
                                    getattr(node.func, "attr", None)) in writers):
                    strays.append(f"{module}.{getattr(top, 'name', None)}")
                elif _imported_modules(node) & {"os", "pathlib"}:
                    strays.append(f"{module}.py:{node.lineno}")
    assert strays == []


def _callers(callee):
    """``module.function`` of every top-level definition in the package
    that calls ``callee`` by name or attribute."""
    found = []
    for module, tree in _modules():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id",
                                    getattr(node.func, "attr", None))
                        == callee):
                    found.append(f"{module}.{getattr(top, 'name', None)}")
    return found


#: the closures that become the film equation's operators, and the two
#: passes that evaluate every closure of one film equation call
OPERATOR_CLOSURES = {"eval_f3", "eval_f3_prime", "eval_f4", "eval_f4_prime",
                     "_closures", "_closure_slopes"}


def test_the_film_equation_is_assembled_in_one_function():
    # both wall models, the stationary balance and L_F read
    # elliptic.film_residual: it alone sums the diffusive and entrained face
    # fluxes into a film balance (film_pencil sums their derivatives into
    # B), and the mobility operator K is assembled from its face
    # coefficients by one helper, besides the pencil's B and P the only
    # matrix the assembler builds (flux_scale sums the same coefficients
    # into the stationary scale); only elliptic turns the mobility and
    # entrainment closures into operators or imports the closure passes
    pair = ["elliptic.film_pencil", "elliptic.film_residual"]
    assert sorted(_callers("_diffusion_fluxes")) == pair
    assert sorted(_callers("_convective_fluxes")) == pair
    assert _callers("_cell_sums") == ["elliptic.film_residual",
                                      "elliptic.flux_scale",
                                      "elliptic.flux_scale"]
    assert sorted(_callers("_assemble")) == ["elliptic.film_pencil",
                                             "elliptic.film_pencil",
                                             "elliptic.mobility_operator"]
    # K itself only where it is the matrix: the inertial pressure solve and
    # L_F (the pressure elimination solves the pencil's P)
    assert sorted(_callers("mobility_operator")) == [
        "cli.cmd_stability", "dynamics._wall_acceleration"]
    importers = sorted(
        module for module, tree in _modules() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and OPERATOR_CLOSURES & {alias.name for alias in node.names})
    assert importers == ["elliptic"]
    # nor reaches the passes as attributes of the physics module
    strays = sorted(
        f"{module}.py:{node.lineno}" for module, tree in _modules()
        if module not in ("physics", "elliptic") for node in ast.walk(tree)
        if {"_closures", "_closure_slopes"} & {getattr(node, "id", None),
                                                getattr(node, "attr", None)})
    assert strays == []


#: the calls that build or convert a sparse matrix, with their callers:
#: the assembler builds every matrix as CSR, and only the LU helper
#: converts, to CSC for SuperLU
SPARSE_FORMAT_CALLS = {"csr_matrix": ["elliptic._assemble"],
                       "tocsc": ["elliptic._factorize"],
                       "csc_matrix": [], "tocsr": []}


def test_csr_is_the_one_sparse_format():
    # every matrix is CSR from elliptic._assemble or folded from one: a
    # second format, or a copy into it, is a second spelling of a matrix
    # the package already holds
    assert {name: _callers(name) for name in SPARSE_FORMAT_CALLS} == (
        SPARSE_FORMAT_CALLS)


def test_only_the_start_state_eliminates_the_pressure():
    # a backward-Euler step is accepted on its chord convergence and
    # carries its own rate and pressure: the pressure elimination, one
    # solve of the pencil's P, serves the start state alone
    assert _callers("eliminate_pressure") == ["dynamics.initial_state"]


def test_the_modal_analysis_has_one_owner():
    # stability.modal_report renders hurwitz.txt, its scope and its summary
    # line: the CLI writes what it returns and imports no modal name
    assert _callers("hurwitz_analysis") == ["stability.modal_report"]
    cli = dict(_modules())["cli"]
    assert [alias.name for node in ast.walk(cli)
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name.startswith("hurwitz")] == []


def test_only_elliptic_names_its_stencil():
    # the face stencil is the private layout of elliptic's sparse pattern:
    # other layers edit a matrix through its own methods, not its slots
    strays = sorted(
        f"{module}.py:{node.lineno}" for module, tree in _modules()
        if module != "elliptic" for node in ast.walk(tree)
        if "_stencil" in (getattr(node, "id", None),
                          getattr(node, "attr", None))
        or (isinstance(node, ast.ImportFrom)
            and "_stencil" in {alias.name for alias in node.names}))
    assert strays == []


def test_only_elliptic_sets_a_diagonal():
    # a diagonal shifted by hand outside elliptic would be a second
    # spelling of the pencil: every matrix the package solves or factors is
    # K, the pencil (B, P) or a combination of the two
    strays = sorted(
        f"{module}.py:{node.lineno}" for module, tree in _modules()
        if module != "elliptic" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "setdiag")
    assert strays == []


#: the private names one package module takes from another, with their
#: importers: the one sparse-LU helper and the film equation's two closure
#: passes
SHARED_PRIVATE = {("_factorize", "dynamics"), ("_factorize", "stationary"),
                  ("_factorize", "stability"), ("_closures", "elliptic"),
                  ("_closure_slopes", "elliptic")}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_only_the_pinned_private_names_cross_modules():
    # a private name belongs to its module: another module may import it,
    # or reach it as an attribute of a name it imports from the package,
    # only as pinned, so a rule like the L_G verdict stays with its owner
    crossing = set()
    for module, tree in _modules():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or node.module.startswith("filmcav")):
                crossing |= {(alias.name, module) for alias in node.names
                             if _is_private(alias.name)}
                imported |= {alias.asname or alias.name
                             for alias in node.names}
        crossing |= {(node.attr, module) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id in imported and _is_private(node.attr)}
    assert crossing == SHARED_PRIVATE
