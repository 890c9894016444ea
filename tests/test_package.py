"""Package-wide structure: no dead public code, and every export resolves."""

import ast
from pathlib import Path

import filmcav

#: public names no package code calls: the oracles the tests use as gates
ORACLES = {
    "apply_A2", "assemble_LG", "constant_gap_spectrum_LF",
    "constant_gap_spectrum_LG", "critical_speed", "diffusion_sensitivity",
    "dirichlet_laplacian_eigenvalues", "field_norms", "render_config",
    "trivial_LG_eigenvalue", "trivial_branch_spectrum_LF",
}


def test_every_public_definition_has_a_caller_or_is_an_oracle():
    # a public module-level function or class must be named somewhere in
    # the package outside its own definition (imports and __init__ do not
    # count), unless it is an oracle
    defined, named = {}, set()
    for path in sorted(Path(filmcav.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                   else None)
            if own is not None and not own.startswith("_"):
                defined[own] = path.stem
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else None)
                if name is not None and name != own:
                    named.add(name)
    unnamed = {name: module for name, module in defined.items()
               if name not in named}
    assert set(unnamed) == ORACLES, unnamed


def test_every_export_resolves():
    missing = [name for name in filmcav.__all__
               if not hasattr(filmcav, name)]
    assert missing == []
