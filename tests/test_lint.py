"""Static checks on the sources, with the standard library's ast only.

Every module-level import in src/ and tests/ is referenced (names a module
lists in __all__ count as referenced), every private module-level name of
the package (_name) is referenced in its own module, every name in
swarmtrack.__all__ resolves, and every name the package __init__ imports
is listed there. Every import of the package names one of its modules:
`from swarmtrack import X`, and `from . import X` inside the package, bind
a module (or __version__), never a function or class. The README layout
table names only what its modules define: each backticked bare name or
call in a `swarmtrack.<module>` row resolves in that module, one
qualified by a package module (`policy.certify_channels`) resolves in
that module, and a written call's arguments fit the function's
signature. Every
"`module.func`'s `param`" mention in the README names a parameter of
that function. The README's sentence on the output gate counts the
episodes and CLI files that tests/digests.json holds. The scalar rules (what a count and a real are)
live in _checks alone: no other package module imports numbers. No file
in src/ or tests/ imports scipy, which the package does not declare.
Every package name the benchmark harness looks up (perfbench/run.py's
per-layer rows, perfbench/tracer.py's hooks, extra functions and patched
classes, the functions perfbench/test_smoke.py pins a call count of, and
every swarm.*, sim.* and cli.* attribute perfbench/workloads.py reads) is
a function or class of the package, and every keyword workloads.py passes
to SwarmTopology(...) or SimConfig(...) is an init field; the check only
parses those files. tests/code_lines.py counts code lines by the rules
one small source pins here. Every constant-style name (CONSTANT_NAME) in a
comment or docstring of src/ or in the README is bound at module level by
some package module, so prose cannot keep naming a deleted constant.
No package module calls .tobytes( or binds a dict to a *_CACHE name: no
result is looked up by the contents of an array.
"""

import ast
import dataclasses
import importlib
import inspect
import io
import json
import keyword
import re
import tokenize
from pathlib import Path

import pytest

import code_lines
import episode_digest
import swarmtrack

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DIGESTS = ROOT / "tests" / "digests.json"
PERFBENCH = ROOT / "perfbench"
PACKAGE = sorted((ROOT / "src" / "swarmtrack").glob("*.py"))
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
INIT = ROOT / "src" / "swarmtrack" / "__init__.py"
MODULES = {path.stem for path in PACKAGE} - {"__init__"}
# The package modules perfbench/workloads.py reads attributes off.
WORKLOAD_MODULES = ("swarm", "sim", "cli")
# A constant-style name: capitals and digits in two or more _-joined
# segments, the first of at least three characters (so math symbols such
# as Q_B and A_0 are not read), optionally behind one underscore.
CONSTANT_NAME = re.compile(r"\b_?[A-Z][A-Z0-9]{2,}(?:_[A-Z0-9]+)+\b")


def imported_names(tree):
    """(bound name, line) of every module-level import statement."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def private_definitions(tree):
    """(name, line) of every module-level _name the module defines (not dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def listed_in_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def referenced_names(tree):
    """Every name the module reads (the root of an attribute chain included)."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unreferenced_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree) | listed_in_all(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = referenced_names(tree)
    stranded = [f"{name} (line {line})" for name, line in private_definitions(tree)
                if name not in used]
    assert not stranded, f"{path.name} defines private names it never uses: {stranded}"


def test_package_exports_match_its_imports():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    exported = listed_in_all(tree)
    missing = [name for name in swarmtrack.__all__
               if not hasattr(swarmtrack, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    unlisted = sorted({name for name, _ in imported_names(tree)} - exported)
    assert not unlisted, f"__init__ imports names missing from __all__: {unlisted}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_package_imports_name_a_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    in_package = path.parent == INIT.parent
    flat = [f"{alias.name} (line {node.lineno})" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 0 and node.module == "swarmtrack")
                or (in_package and node.level == 1 and node.module is None))
            for alias in node.names
            if alias.name not in MODULES | {"__version__"}]
    assert not flat, (f"{path.name} imports names from the package root, not "
                      f"from their modules: {flat}")


def imported_modules(path):
    """Top-level package of every absolute import anywhere in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    return imported | {node.module.split(".")[0] for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 0}


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_only_checks_imports_numbers(path):
    assert path.stem == "_checks" or "numbers" not in imported_modules(path), (
        f"{path.name} imports numbers; count and real rules belong in _checks")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_scipy_import(path):
    # the package declares numpy alone; an oracle that reached for scipy
    # (solve_discrete_are, say) would pass only where scipy happens to be
    # installed
    assert "scipy" not in imported_modules(path), f"{path.name} imports scipy"


def content_keyed_memos(source: str, namespace: dict) -> list:
    """What a module looks up by array contents: each .tobytes( call in its
    source and each module-level dict of its namespace bound to a *_CACHE
    name."""
    calls = [f".tobytes( on line {node.lineno}" for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "tobytes"]
    return calls + sorted(name for name, value in namespace.items()
                          if name.endswith("_CACHE") and isinstance(value, dict))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_memo_keyed_by_array_contents(path):
    # a per-topology result lives with its topology object (sim) and a
    # per-episode one with its episode (policy.block_decisions); hashing
    # array bytes costs (dM)^2 per lookup and has handed one system
    # another's result
    module = importlib.import_module(
        "swarmtrack" if path.stem == "__init__" else f"swarmtrack.{path.stem}")
    found = content_keyed_memos(path.read_text(encoding="utf-8"), vars(module))
    assert not found, f"{path.name} keys a memo by array contents: {found}"


def test_memo_check_flags_bytes_and_cache_dicts():
    # calls are read, prose is not; only a dict bound to a *_CACHE name is
    source = 'key = (b.shape, b.tobytes())\n"""b.tobytes( in prose"""\n'
    namespace = {"_QR_CACHE": {}, "_SLOT_GENERATORS": {}, "_OTHER_CACHE": (), "X": 1}
    assert content_keyed_memos(source, namespace) == [".tobytes( on line 1",
                                                      "_QR_CACHE"]


def layout_references(text):
    """(module, name, written arguments or None) of the README layout table.

    A bare name or call resolves in its row's module; one qualified by a
    package module (`policy.certify_channels`) resolves in that module.
    """
    for line in text.splitlines():
        row = re.match(r"\| `swarmtrack\.(\w+)` \| (.*) \|$", line)
        if row is None:
            continue
        for span in re.findall(r"`([^`]*)`", row.group(2)):
            ref = re.fullmatch(r"(?:(\w+)\.)?([A-Za-z_]\w*)(?:\((.*)\))?", span)
            if ref is None:
                continue
            module, name, args = ref.groups()
            if module is None and (name == "swarmtrack" or keyword.iskeyword(name)):
                continue
            if module is None or module in MODULES:
                yield module or row.group(1), name, args


def unresolved_layout_references(text):
    """The layout references in text that name nothing, or whose written
    call does not fit the signature."""
    problems = []
    for module_name, name, args in layout_references(text):
        module = importlib.import_module(f"swarmtrack.{module_name}")
        if not hasattr(module, name):
            problems.append(f"swarmtrack.{module_name} has no {name}")
        elif args is not None:
            n_args = len([a for a in args.split(",") if a.strip()])
            try:
                inspect.signature(getattr(module, name)).bind(*range(n_args))
            except TypeError:
                problems.append(f"{module_name}.{name}({args}) does not fit "
                                f"{inspect.signature(getattr(module, name))}")
    return problems


def test_readme_layout_names_resolve():
    text = README.read_text(encoding="utf-8")
    refs = list(layout_references(text))
    assert refs, "README layout table not found"
    assert not unresolved_layout_references(text)


def test_layout_references_flag_a_qualified_missing_name():
    # a row's span qualified by another package module resolves there; one
    # qualified by a name that is not a package module is not read
    text = ("| `swarmtrack.linalg` | `svd(matrix)`, the R factors of "
            "`policy.certify_channels` and `policy.certify_block`, "
            "`topology.b_actuation` |")
    assert [ref[:2] for ref in layout_references(text)] == [
        ("linalg", "svd"), ("policy", "certify_channels"),
        ("policy", "certify_block")]
    assert unresolved_layout_references(text) == [
        "swarmtrack.policy has no certify_block"]


def parameter_mentions(text):
    """(module, function, parameter) of every "`module.func`'s `param`"."""
    return re.findall(r"`(\w+)\.(\w+)`'s\s+`(\w+)`", text)


def unknown_parameters(text):
    """The mentions in text whose function has no such parameter."""
    problems = []
    for module_name, name, param in parameter_mentions(text):
        func = getattr(importlib.import_module(f"swarmtrack.{module_name}"), name, None)
        if func is None or param not in inspect.signature(func).parameters:
            problems.append(f"{module_name}.{name} has no parameter {param}")
    return problems


def test_readme_parameter_mentions_name_real_parameters():
    text = README.read_text(encoding="utf-8")
    assert parameter_mentions(text), "README parameter mentions not found"
    assert not unknown_parameters(text)


def test_parameter_mentions_flag_a_missing_parameter():
    # the check reads a mention across a line break, as the README wraps it
    text = "`sim.channel_draws`'s\n`n_slots` and `baselines.tune_pid`'s `a_scale`"
    assert unknown_parameters(text) == ["baselines.tune_pid has no parameter a_scale"]


def test_readme_digest_counts_match_the_gate():
    sentence = re.search(r"digests of (\d+) episodes and\s+(\d+) CLI output files",
                         README.read_text(encoding="utf-8"))
    assert sentence, "README sentence on the output gate not found"
    keys = set(json.loads(DIGESTS.read_text(encoding="utf-8")))
    keys.discard(episode_digest.ENVIRONMENT)
    files = sum(key.startswith(episode_digest.CLI_PREFIX) for key in keys)
    assert tuple(map(int, sentence.groups())) == (len(keys) - files, files)


def module_constant(tree, name):
    """The literal value of a module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise LookupError(f"no module-level {name}")


def perfbench_pins():
    """(module.name, where) of every package name the benchmark harness
    looks up: a class where where ends in "class", else a function."""
    def parse(name):
        return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), filename=name)

    run, tracer, smoke = parse("run.py"), parse("tracer.py"), parse("test_smoke.py")
    for node in ast.walk(parse("workloads.py")):  # swarm.X, mods.sim.X
        owner = node.value if isinstance(node, ast.Attribute) else None
        module = getattr(owner, "id", None) or getattr(owner, "attr", None)
        if module in WORKLOAD_MODULES:
            yield f"{module}.{node.attr}", "workloads.py"
    for row, _, _ in ast.literal_eval(module_constant(run, "PER_LAYER")):
        if row.count(".") == 2:        # module.function.metric
            yield row.rsplit(".", 1)[0], "run.py PER_LAYER"
    for key in module_constant(tracer, "_HOOKS").keys:
        yield ast.literal_eval(key), "tracer.py _HOOKS"
    for name in ast.literal_eval(module_constant(tracer, "EXTRA_FUNCTIONS")):
        yield name, "tracer.py EXTRA_FUNCTIONS"
    for node in ast.walk(tracer):      # by_module["swarm"].SwarmState
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == "by_module"):
            yield f"{ast.literal_eval(node.value.slice)}.{node.attr}", "tracer.py class"
    for node in ast.walk(smoke):       # metrics["policy.solve_agent.calls_per_slot"]
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "metrics" and isinstance(node.slice, ast.Constant)):
            function, _, metric = node.slice.value.rpartition(".")
            if function.count(".") == 1 and metric.startswith("calls"):
                yield function, "test_smoke.py call count"


def unresolved_pins(pins):
    """The pins that name no function (or class) the tracer can wrap."""
    extra = {name for name, where in pins if where == "tracer.py EXTRA_FUNCTIONS"}
    problems = []
    for name, where in pins:
        module_name, _, attr = name.partition(".")
        obj = None
        if module_name in MODULES:
            module = importlib.import_module(f"swarmtrack.{module_name}")
            obj = getattr(module, attr, None)
        # workloads.py reads classes and functions alike
        is_class = where.endswith("class") or (
            where == "workloads.py" and inspect.isclass(obj))
        kind = inspect.isclass if is_class else inspect.isfunction
        if not (kind(obj) and obj.__module__ == f"swarmtrack.{module_name}"
                and (is_class or not attr.startswith("_") or name in extra)):
            problems.append(f"{name} ({where})")
    return problems


def unknown_init_keywords(tree):
    """The keywords a SwarmTopology(...) or SimConfig(...) call in tree
    passes that are not init fields of that class, and the calls found."""
    classes = {"SwarmTopology": swarmtrack.swarm.SwarmTopology,
               "SimConfig": swarmtrack.sim.SimConfig}
    problems, calls = [], 0
    for node in ast.walk(tree):
        name = getattr(getattr(node, "func", None), "attr", None)
        if isinstance(node, ast.Call) and name in classes:
            calls += 1
            init = {f.name for f in dataclasses.fields(classes[name]) if f.init}
            problems += [f"{name}({kw.arg}=...) (line {node.lineno})"
                         for kw in node.keywords
                         if kw.arg is not None and kw.arg not in init]
    return problems, calls


def test_perfbench_pins_name_package_functions():
    # a renamed pin fails here with its name, not with a list.index error
    # inside a traced benchmark run
    pins = sorted(set(perfbench_pins()))
    names = {name for name, _ in pins}
    assert {"policy.solve_agent", "policy.control_signal", "sim._slot_rng",
            "swarm.SwarmState", "swarm.SwarmTopology", "swarm.topology_to_json",
            "sim.SimConfig", "sim.run_episode", "cli.main"} <= names, \
        "perfbench pins not found"
    assert not unresolved_pins(pins), unresolved_pins(pins)
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    problems, calls = unknown_init_keywords(workloads)
    assert calls >= 2, "workloads.py SwarmTopology/SimConfig calls not found"
    assert not problems, problems


def test_code_lines_skip_blanks_comments_and_docstrings():
    # counted: the import with its trailing comment, both defs, the class,
    # the return and both lines of a multi-line string that is no
    # docstring; a docstring on its def's line leaves that line counted
    source = (
        '"""Module docstring\n'
        'over two lines."""\n'
        '\n'
        'import os  # trailing comment\n'
        '\n'
        '# a comment line\n'
        'def f(x):\n'
        '    """Docstring."""\n'
        '    text = """a string\n'
        'that is no docstring"""\n'
        '    return x\n'
        '\n'
        'class C:\n'
        '    """Docstring\n'
        '    of a class."""\n'
        '    def g(self): """Docstring on the def line."""\n')
    assert code_lines.code_lines(source) == 7


def prose(source):
    """The docstrings and comments of a Python source, one text."""
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))]
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = [tok.string for tok in tokens if tok.type == tokenize.COMMENT]
    return "\n".join([doc for doc in docs if doc] + comments)


def unbound_constants(text):
    """The constant-style names in text that no package module binds."""
    bound = {name for module in MODULES
             for name in vars(importlib.import_module(f"swarmtrack.{module}"))}
    return sorted(set(CONSTANT_NAME.findall(text)) - bound)


def test_constant_mentions_name_package_bindings():
    texts = {path.name: prose(path.read_text(encoding="utf-8")) for path in PACKAGE}
    texts[README.name] = README.read_text(encoding="utf-8")
    assert any(CONSTANT_NAME.search(text) for text in texts.values()), \
        "no constant-style names found"
    problems = {name: unbound for name, text in texts.items()
                if (unbound := unbound_constants(text))}
    assert not problems, f"names no package module binds: {problems}"


def test_constant_mentions_flag_a_deleted_constant():
    # docstrings and comments are read, code and other strings are not; a
    # two-character first segment (Q_B) is no constant name
    source = (
        '"""Uses CERTIFIED_CUT_SLACK and Q_B."""\n'
        '# _SCALAR_MARGIN was deleted\n'
        'x = "OLD_CONSTANT_NAME"\n'
        'def f():\n'
        '    """Reads DEFAULT_PINV_REL_TOL and GONE_TOO."""\n')
    assert CONSTANT_NAME.findall(prose(source)) == [
        "CERTIFIED_CUT_SLACK", "DEFAULT_PINV_REL_TOL", "GONE_TOO", "_SCALAR_MARGIN"]
    assert unbound_constants(prose(source)) == ["GONE_TOO", "_SCALAR_MARGIN"]
