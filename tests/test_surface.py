"""The package surface: every public function of ``src/bethecover`` has a
consumer in ``src/`` or ``bench/``, or a stated reason to stay, and every
private module-level function or class has one.

A route that only the tests need belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bethecover"
CONSUMERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# public names with no consumer in src/ or bench/, each with its reason
KEEP = {
    "global_eval": "documented library API: the product one configuration "
                   "selects",
    "save": "documented library API: the writer that load() reads back",
    "partition_contract": "documented library API: Z by contracting the "
                          "graph's own tensors",
    "beliefs_at": "documented library API: the beliefs of a message vector",
    "bethe_free_energy": "documented library API: the variational Bethe "
                         "value of a set of beliefs",
    "messages": "documented library API: lays caller-supplied messages "
                "out for beliefs_at and transform",
    "raw_updates": "the sum-product map that tests/oracles.py builds on, so "
                   "tests need no private name",
}


def _public(node):
    return not node.name.startswith("_")


def definitions(trees):
    """``(name, is_method, node)`` for every public module-level function
    and every public method of a public class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, ast.FunctionDef) and _public(node):
                yield node.name, False, node
            elif isinstance(node, ast.ClassDef) and _public(node):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item):
                        yield item.name, True, item


def package_aliases(tree):
    """Names under which ``tree`` imports modules of the package: ``from
    . import x [as y]`` and ``from bethecover import x [as y]``."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.module == "bethecover"
                 or (node.level == 1 and node.module is None))
            for alias in node.names if alias.name in modules}


def references(node, aliases, owners=frozenset()):
    """``(form, name, owners)`` for every reference under ``node``.

    ``form`` is ``"name"`` for a bare name that is read, ``"module"`` for
    ``<module>.name`` with ``<module>`` one of ``aliases`` (the package
    modules as the file imports them) or a ``("<module>", "<name>")`` pair
    of strings (how ``bench/tracing.py`` lists the functions it wraps),
    and ``"attr"`` for any ``.name``; ``owners`` holds the ids of the
    function and class definitions the reference sits in.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        owners = owners | {id(node)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield "name", node.id, owners
    elif isinstance(node, ast.Attribute):
        yield "attr", node.attr, owners
        if isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield "module", node.attr, owners
    elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts):
        yield "module", node.elts[1].value, owners
    for child in ast.iter_child_nodes(node):
        yield from references(child, aliases, owners)


def reference_table(trees):
    """``(form, name) -> [owners]`` over every reference in ``trees``."""
    refs = {}
    for tree in trees.values():
        for form, name, owners in references(tree, package_aliases(tree)):
            refs.setdefault((form, name), []).append(owners)
    return refs


def _referenced(refs, name, node, forms):
    return any(id(node) not in owners for form in forms
               for owners in refs.get((form, name), ()))


def unreferenced():
    """Public names that nothing in src/ or bench/ references outside
    their own definition: a function by its bare name or ``<module>.name``,
    a method by any ``.name``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in CONSUMERS}
    refs = reference_table(trees)
    return {name for name, is_method, node in definitions(trees)
            if not _referenced(refs, name, node,
                               ("attr",) if is_method else ("name", "module"))}


def unreferenced_private():
    """``module.name`` for every private module-level function or class of
    the package that nothing in src/ or bench/ references, by its bare
    name or ``<module>.name``, outside its own definition."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in CONSUMERS}
    refs = reference_table(trees)
    return {f"{path.stem}.{node.name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in trees[path].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not _public(node)
            and not _referenced(refs, node.name, node, ("name", "module"))}


def test_every_public_name_has_a_consumer():
    unused = sorted(unreferenced() - KEEP.keys())
    assert not unused, (
        f"src/ and bench/ never use {unused}: move a route that only the "
        "tests need to tests/oracles.py, or give it a consumer")


def test_every_kept_name_still_lacks_a_consumer():
    assert unreferenced() >= KEEP.keys(), (
        f"{sorted(KEEP.keys() - unreferenced())} now have a consumer; "
        "drop them from KEEP")


def test_every_private_name_has_a_consumer():
    unused = sorted(unreferenced_private())
    assert not unused, (
        f"src/ and bench/ never use {unused}: a private route that only the "
        "tests need belongs in tests/oracles.py")


# keyword parameters (those with a default) that no call in src/ or bench/
# passes, each with its reason
KEEP_KEYWORDS = {
    ("transform", "param_overrides"): "the LCT's gauge freedom, which "
                                      "test_lct exercises",
    ("spa_step", "rng"): "the one-vector sweep that the benchmark traces",
    ("spa_step", "damping"): "the one-vector sweep that the benchmark "
                             "traces",
    ("main", "argv"): "the console script passes none, so argparse reads "
                      "sys.argv; a caller that embeds the CLI passes its own",
}


def _passes(call, index, name):
    """Whether ``call`` sets the parameter ``name``, the ``index``-th
    positional one: by keyword, by position, or through ``*``/``**``."""
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or k == index:
            return True
    return any(kw.arg in (None, name) for kw in call.keywords)


def unpassed_keywords():
    """``(function, parameter)`` for every keyword parameter of a public
    function or method that no call in src/ or bench/ sets; a call is
    matched by its function's bare name or ``.name``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in CONSUMERS}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    out = set()
    for name, is_method, node in definitions(trees):
        args = node.args
        positional = args.posonlyargs + args.args
        if is_method:
            positional = positional[1:]   # self
        optional = positional[len(positional) - len(args.defaults):]
        optional += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                     if d is not None]
        for arg in optional:
            index = positional.index(arg) if arg in positional else None
            if not any(_passes(call, index, arg.arg)
                       for call in calls.get(name, ())):
                out.add((name, arg.arg))
    return out


def test_every_keyword_parameter_is_passed():
    unpassed = sorted(unpassed_keywords() - KEEP_KEYWORDS.keys())
    assert not unpassed, (
        f"src/ and bench/ never set {unpassed}: drop a setting that only "
        "the tests need, or give it a caller")


def test_every_kept_keyword_is_still_unpassed():
    assert unpassed_keywords() >= KEEP_KEYWORDS.keys(), (
        f"{sorted(KEEP_KEYWORDS.keys() - unpassed_keywords())} are now "
        "passed; drop them from KEEP_KEYWORDS")
