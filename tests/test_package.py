"""The package's public surface: every exported name, and every public
top-level name of a module, has a caller, and every class field, method
and property is read. No function calls itself, every App is built by
`App.__init__`, every FuelExhausted by `rewriting._stopped`, and
`NormalForms` calls `normalize` from its hand-over alone."""

import ast
from pathlib import Path

import lmtk

PACKAGE = Path(lmtk.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def defined_names(path: Path) -> set[str]:
    """The public top-level functions, classes and constants of `path`."""
    names: set[str] = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif (isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)):
            names.add(stmt.target.id)
    return {n for n in names if not n.startswith("_")}


def used_names(path: Path) -> set[str]:
    """Names that code in `path` reads, as a bare name or an attribute.
    A top-level function or class reading its own name (recursion) does
    not count as a use."""
    used: set[str] = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def class_fields(path: Path) -> set[str]:
    """`Class.field` for every annotated field of a class in `path`."""
    return {f"{node.name}.{stmt.target.id}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)}


def class_methods(path: Path) -> set[str]:
    """`Class.method` for every public method and property of a class in
    `path`."""
    return {f"{node.name}.{stmt.name}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
            if isinstance(stmt, ast.FunctionDef)
            and not stmt.name.startswith("_")}


def read_attributes(path: Path) -> set[str]:
    """The attribute names that code in `path` reads."""
    return {node.attr
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_export_has_a_caller():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    bench = sorted(BENCH.glob("*.py"))
    assert bench, f"no benchmark sources under {BENCH}"
    callers += bench
    used = set().union(*(used_names(p) for p in callers))
    assert sorted(exported_names() - used) == []


def test_every_public_module_name_has_a_caller():
    # a name only tests read belongs in the tests, as `render_machine` does
    modules = sorted(PACKAGE.glob("*.py"))
    used = set().union(*(used_names(p)
                         for p in modules + sorted(BENCH.glob("*.py"))))
    unread = [f"{p.stem}.{name}" for p in modules
              for name in sorted(defined_names(p) - used)]
    assert unread == []


def unread_members(members) -> list[str]:
    """`module.Class.member` for each of `members(module)` that no module
    and no benchmark source reads."""
    modules = sorted(PACKAGE.glob("*.py"))
    read = set().union(*(read_attributes(p)
                         for p in modules + sorted(BENCH.glob("*.py"))))
    return [f"{p.stem}.{member}" for p in modules
            for member in sorted(members(p))
            if member.split(".")[1] not in read]


def test_every_class_field_is_read():
    # a field nothing reads is kept up to date for no one
    assert unread_members(class_fields) == []


def test_every_class_method_is_read():
    # a method or property only tests read belongs in the tests
    assert unread_members(class_methods) == []


# recursion that is still to become a loop: name and ROADMAP item
RECURSIVE = {"checker._lpo_constraints": "ROADMAP item 8"}


def is_super_call(node: ast.expr) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def self_calls(path: Path) -> set[str]:
    """`module.function` for each function or method in `path` that calls
    a function of its own name, bare or as an attribute other than
    `super()`'s."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif (isinstance(func, ast.Attribute)
                      and not is_super_call(func.value)):
                    name = func.attr
                else:
                    continue
                if name == node.name:
                    out.add(f"{path.stem}.{node.name}")
    return out


def test_no_function_calls_itself():
    # terms and constructions reach depths past the interpreter recursion
    # limit, so every walk is a loop
    found = set().union(*(self_calls(p) for p in sorted(PACKAGE.glob("*.py"))))
    assert found == set(RECURSIVE)


# private names shared between modules on purpose, as ROADMAP "Quality of
# design" names them
SHARED_PRIVATE = {"terms._rebuilt"}


def private_imports(path: Path) -> set[str]:
    """`module._name` for each private name that `path` imports from
    another lmtk module."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module or ""
        elif (node.module or "").split(".")[0] == "lmtk":
            module = node.module.partition(".")[2]
        else:
            continue
        out.update(f"{module}.{alias.name}" for alias in node.names
                   if alias.name.startswith("_"))
    return out


def test_no_private_name_crosses_modules():
    # a module reads another's private name only through its public API
    found = set().union(*(private_imports(p)
                          for p in sorted(PACKAGE.glob("*.py"))))
    assert found == SHARED_PRIVATE


def app_setter_names() -> set[str]:
    """The names `terms` binds at top level to a slot setter (`__set__`)."""
    tree = ast.parse((PACKAGE / "terms.py").read_text(encoding="utf-8"))
    return {name.id for stmt in tree.body if isinstance(stmt, ast.Assign)
            if any(isinstance(node, ast.Attribute) and node.attr == "__set__"
                   for node in ast.walk(stmt.value))
            for target in stmt.targets for name in ast.walk(target)
            if isinstance(name, ast.Name)}


def app_builds_around_init(path: Path, setters: set[str]) -> list[str]:
    """`module:line` for each place in `path` that could make an App
    without running `App.__init__`: a read of a slot setter outside it, or
    a `__new__` call on App."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "App"
              for stmt in cls.body
              if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
              for node in ast.walk(stmt)}
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id in setters
                and isinstance(node.ctx, ast.Load) and id(node) not in inside):
            out.append(f"{path.stem}:{node.lineno}")
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__"
              and any(isinstance(n, ast.Name) and n.id == "App"
                      for n in [node.func.value, *node.args])):
            out.append(f"{path.stem}:{node.lineno}")
    return out


def test_every_app_is_built_by_its_init():
    # App.__init__ is the one constructor of a term: tests count built
    # terms by patching it, and a build that went around it would count
    # nothing and still pass
    setters = app_setter_names()
    assert setters == {"_set_sym", "_set_args", "_set_hash", "_set_size"}
    found = [where for p in sorted(PACKAGE.glob("*.py"))
             for where in app_builds_around_init(p, setters)]
    assert found == []


def scopes(path: Path):
    """(name, node) for each top-level function, class and statement of
    `path`, with each member of a class as `Class.member`."""
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.ClassDef):
            for node in stmt.decorator_list + stmt.bases + stmt.keywords:
                yield stmt.name, node
            for member in stmt.body:
                yield f"{stmt.name}.{getattr(member, 'name', '<body>')}", member
        else:
            yield getattr(stmt, "name", "<module>"), stmt


def calls_of(path: Path, callee: str) -> list[str]:
    """`module.scope` for each call of `callee` in `path`, bare or as an
    attribute, by the function, method or class it stands in."""
    return [f"{path.stem}.{name}" for name, stmt in scopes(path)
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call)
            and callee in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))]


def test_every_fuel_exhausted_is_built_by_stopped():
    # one builder gives every raise its lazy trace and checks the stop it
    # predicts when that trace is read
    found = [where for p in sorted(PACKAGE.glob("*.py"))
             for where in calls_of(p, "FuelExhausted")]
    assert found == ["rewriting._stopped"]


def test_normal_forms_hands_over_in_one_place():
    # perfbench counts the `normalize` calls of `NormalForms` as its
    # hand-overs, and ROADMAP item 4 replaces that one call
    found = [where for where in calls_of(PACKAGE / "rewriting.py", "normalize")
             if where.startswith("rewriting.NormalForms.")]
    assert found == ["rewriting.NormalForms._hand_over"]
