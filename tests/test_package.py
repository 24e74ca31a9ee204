"""Package-wide layout: one Euler-Maruyama loop, a public surface that resolves,
no test-only knob among the parameters of the battery, the classical action,
the bridge, the Crank-Nicolson solves, the legs loop and the table writers,
no default frozen from a package name, and one source of compiled scipy code."""

from __future__ import annotations

import ast
from pathlib import Path

import tailcost


def _calls_by_function(tree: ast.AST, attr: str) -> list[str]:
    """The innermost enclosing function or class of each call of .attr
    ("<module>" at top level)."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == attr):
                found.append(scope)
            visit(child, inner)

    visit(tree, "<module>")
    return found


def test_one_draw_site_and_a_resolving_public_surface() -> None:
    # every normal the package draws comes from the legs loop
    sites = []
    for path in sorted(Path(tailcost.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [(path.name, scope) for scope in _calls_by_function(tree, "standard_normal")]
    assert sites == [("simulate.py", "simulate_legs")]
    missing = [name for name in tailcost.__all__ if not hasattr(tailcost, name)]
    assert missing == []


def test_every_check_default_is_set_by_the_package() -> None:
    # a defaulted parameter that no package call sets is a test-only knob;
    # it belongs in a module constant that tests monkeypatch.  drifts.py is
    # not scanned: its factories' T comes in through RunConfig.drift_params
    package = Path(tailcost.__file__).parent
    defaults = {}
    for node in (node for name in ("checks.py", "action.py", "bridge.py", "pde.py",
                                   "simulate.py", "tables.py")
                 for node in ast.parse((package / name).read_text(encoding="utf-8")).body):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args.posonlyargs + node.args.args
            named = args[len(args) - len(node.args.defaults):] + [
                a for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d is not None
            ]
            defaults[node.name] = ([a.arg for a in args], {a.arg for a in named})
    passed = {name: set() for name in defaults}
    for path in package.glob("*.py"):
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in defaults:
                positional, _ = defaults[name]
                passed[name].update(positional[:len(call.args)])
                passed[name].update(k.arg for k in call.keywords)
    unset = sorted(
        f"{name}({arg})" for name, (_, named) in defaults.items() for arg in named - passed[name]
    )
    assert unset == []


def _package_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by assignment, def, class or an
    import from the package itself (third-party imports are not the package's)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, ast.ImportFrom) and node.level > 0:
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_no_default_is_built_from_a_package_name() -> None:
    # a default is evaluated once, at import: built from a module constant
    # it freezes the value, and a monkeypatched constant never reaches the
    # function.  Builtins such as slice(None) are not the package's names
    frozen = []
    for path in sorted(Path(tailcost.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = _package_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                frozen += [f"{path.name}:{getattr(node, 'name', '<lambda>')}({n.id})"
                           for n in ast.walk(default)
                           if isinstance(n, ast.Name) and n.id in names]
    assert frozen == []


def test_compiled_scipy_routines_are_the_public_objects() -> None:
    import scipy.linalg.lapack
    import scipy.special

    from tailcost import _scipy, action, bridge, checks, pde

    public = {name: getattr(scipy.linalg.lapack, name)
              for name in ("dgttrf", "dgttrs", "dpttrf", "dpttrs")}
    public.update(log_ndtr=scipy.special.log_ndtr, ndtr=scipy.special.ndtr)
    for name, routine in public.items():
        assert getattr(_scipy, name) is routine, name
    used = {pde: ("dgttrf", "dgttrs", "dpttrf", "dpttrs"), action: ("dpttrf", "dpttrs"),
            bridge: ("ndtr",), checks: ("log_ndtr", "ndtr")}
    for module, names in used.items():
        for name in names:
            assert getattr(module, name) is public[name], f"{module.__name__}.{name}"
    # no module imports scipy by name: compiled code comes through _scipy
    importers = []
    for path in sorted(Path(tailcost.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            importers += [path.name for n in names if n.split(".")[0] == "scipy"]
    assert importers == []


def test_a_missing_extension_module_falls_back_to_the_public_names() -> None:
    import scipy.special

    from tailcost import _scipy

    assert _scipy._extension("scipy.special._no_such_module") is None
    assert _scipy._routines(
        "scipy.special._no_such_module", "scipy.special", ("log_ndtr", "ndtr")
    ) == [scipy.special.log_ndtr, scipy.special.ndtr]
    # the module is there but lacks one of the routines asked for
    assert _scipy._routines(
        "scipy.special._special_ufuncs", "scipy.special", ("ndtr", "logsumexp")
    ) == [scipy.special.ndtr, scipy.special.logsumexp]
