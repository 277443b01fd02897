"""Every function, class and method in `src/defkit` has a caller in
`src/defkit`, or is listed below with the reason it has none.

An AST scan: a module-level function or class counts as referenced when
its name is loaded anywhere in the package outside its own definition; a
method (dunder methods aside) when an attribute of that name is read
anywhere outside its own definition, on any object. Names are matched
without types, so a method shares its callers with every method of the
same name.

Likewise every annotated field of a `@record` or `NamedTuple` class is
read in `src/defkit`, as an attribute of any object or through `getattr`
with a constant name, or is listed with the reason nothing reads it; and
every name a module imports is loaded in that module, or is listed with
the reason it is not; and every exception class is told apart from the
others somewhere, or is listed with the reason it is kept.
"""

import ast
import builtins
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "defkit"

# name (module.function, module.Class or module.Class.method) -> why it has
# no caller in src/defkit
ALLOWED = {
    # paper features that wait for `defkit evaluate` (ROADMAP item 2)
    "ablation.shuffle_definition": "the Shuffled baseline",
    "ablation.build_metadata_definition": "the Metadata baseline",
    "metrics.heuristic_predict": "the heuristic baseline",
    "stdc.category_retention": "the per-category retention table of STDC outputs",
    "stdc.unannotated_share": "the share of definition words in no annotated span",
    "triplet.render_triplet": "the triplets as `evaluate` scores them",
    # paper features that wait for `defkit agree` (ROADMAP item 8)
    "annotations.presplit_definition": "the units annotators label",
    "annotations.fleiss_kappa": "inter-annotator agreement",
    # what the benchmark (perfbench/) imports, wraps or reads
    "ablation.apply_ablation": "wrapped by perfbench/tracer.py",
    "metrics.lcs_length": "wrapped by perfbench/tracer.py; the reference LCS of the tests",
    "stdc.replay_removals": "imported by perfbench/workloads.py",
    "scorer.__getattr__": "the `scorer.requests` bridge that perfbench/tracer.py reads",
    # entry points that the standard library calls
    "stubserver._Handler.do_POST": "called by http.server",
    "stubserver._Handler.log_message": "called by http.server",
    "scorer._opener.NoRedirect.redirect_request": "called by urllib.request",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, node, is_method) of every function and class,
    nested ones included."""
    out = []

    def visit(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                is_method = in_class and not isinstance(child, ast.ClassDef)
                out.append((name, child, is_method))
                visit(child, name, isinstance(child, ast.ClassDef))
            else:
                visit(child, prefix, in_class)

    visit(tree, module, False)
    return out


def _uses(node: ast.AST) -> Counter:
    """How often node loads each name, ("name", x), and reads each
    attribute, ("attr", x)."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            uses["name", n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses["attr", n.attr] += 1
    return uses


def _uncalled() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    everywhere = sum(map(_uses, trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for name, node, is_method in _definitions(tree, module):
            if is_method and node.name.startswith("__") and node.name.endswith("__"):
                continue
            use = ("attr" if is_method else "name", node.name)
            if everywhere[use] == _uses(node)[use]:  # every use is inside the definition
                out.append(name)
    return out


def test_every_src_definition_has_a_src_caller_or_a_reason():
    uncalled = _uncalled()
    assert [name for name in uncalled if name not in ALLOWED] == []


def test_every_allowed_name_is_still_uncalled():
    """An entry whose name gained a caller, or went, leaves the list."""
    uncalled = set(_uncalled())
    assert [name for name in ALLOWED if name not in uncalled] == []


# module.Class.field -> why nothing in src/defkit reads it
ALLOWED_FIELDS = {
    "stdc.Step.leaves_removed": "written whole, through vars, by `_jsontext.indented`",
    "stdc.Step.candidate_score": "written whole, through vars, by `_jsontext.indented`",
    "stdc.CompressionResult.fit_score_before": "written whole, through vars, by `_jsontext.indented`",
    "stdc.CompressionResult.fit_score_after": "written whole, through vars, by `_jsontext.indented`",
    "corpus.Demonstration.explanation": "a field of the task-file schema",
    "scorer.ScoreRecord.example_fingerprint": "written whole, through vars, by `ScoreCache.put`",
}


def _has_fields(node: ast.ClassDef) -> bool:
    """Whether the class is a `@record` or a `NamedTuple`, whose annotated
    names are its fields."""
    return any(isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list) or any(
        isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases
    )


def _unread_fields() -> list[str]:
    """module.Class.field of each annotated field of a @record or NamedTuple
    class that no attribute read, and no getattr with a constant name, reads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "getattr"
                and len(n.args) >= 2
                and isinstance(n.args[1], ast.Constant)
            ):
                read.add(n.args[1].value)
    out = []
    for module, tree in trees.items():
        for name, node, _ in _definitions(tree, module):
            if isinstance(node, ast.ClassDef) and _has_fields(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read:
                        out.append(f"{name}.{stmt.target.id}")
    return out


def test_every_record_field_is_read_in_src_or_has_a_reason():
    assert [name for name in _unread_fields() if name not in ALLOWED_FIELDS] == []


def test_every_allowed_field_is_still_unread():
    unread = set(_unread_fields())
    assert [name for name in ALLOWED_FIELDS if name not in unread] == []


# module.name -> why the module imports a name it never loads
ALLOWED_IMPORTS = {
    "ablation.compression_ratio": "a re-export: `ablate` imports it from `ablation`, "
    "and perfbench/tracer.py wraps it there",
}


def _unused_imports() -> list[str]:
    """module.name of each name a module imports (from `__future__` aside),
    at any depth, that the module never loads."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in n.names]
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                bound = [a.asname or a.name for a in n.names]
            else:
                continue
            out.extend(f"{path.stem}.{name}" for name in bound if name not in loaded)
    return out


def test_every_src_import_is_used_or_has_a_reason():
    assert [name for name in _unused_imports() if name not in ALLOWED_IMPORTS] == []


def test_every_allowed_import_is_still_unused():
    unused = set(_unused_imports())
    assert [name for name in ALLOWED_IMPORTS if name not in unused] == []


# module.Class -> why an exception class that no code tells apart is kept
ALLOWED_EXCEPTIONS = {}


def _names(node: ast.AST | None) -> set[str]:
    """The class names an except clause, isinstance or a table names: a name
    or an attribute, alone or at any depth of a tuple."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    return set()


def _untold_exceptions() -> list[str]:
    """module.Class of each exception class in src/defkit that no `except`
    clause, no `isinstance` call and no entry of `cli._EXIT_CODES` names."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    classes = {}  # class name -> (module.Class, the names of its bases)
    told = set()
    for module, tree in trees.items():
        for name, node, _ in _definitions(tree, module):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (name, set().union(*map(_names, node.bases)))
        for n in ast.walk(tree):
            if isinstance(n, ast.ExceptHandler):
                told |= _names(n.type)
            elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance":
                told |= _names(n.args[1])
            elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXIT_CODES" for t in n.targets
            ):
                told |= _names(n.value)
    exceptions = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    # a class with an exception class for a base is one
    while new := {c for c, (_, bases) in classes.items() if bases & exceptions} - exceptions:
        exceptions |= new
    return sorted(classes[c][0] for c in exceptions & classes.keys() - told)


def test_every_exception_class_is_told_apart_or_has_a_reason():
    """A class that only its raise sites name adds a type and no behaviour:
    raise the class whose handler already catches it."""
    assert [name for name in _untold_exceptions() if name not in ALLOWED_EXCEPTIONS] == []


def test_every_allowed_exception_is_still_untold():
    untold = set(_untold_exceptions())
    assert [name for name in ALLOWED_EXCEPTIONS if name not in untold] == []
