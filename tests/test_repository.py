import ast
import importlib
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_ignored_file_is_tracked():
    # build and test artefacts matched by .gitignore stay out of the index
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    res = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    assert res.stdout == ""


def test_benchmark_probes_resolve():
    # every function, method and class the benchmark tracer wraps exists
    path = ROOT / "perfbench" / "tracer.py"
    if not path.exists():
        pytest.skip("no benchmark tracer in this tree")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, module, attr in tracer.SPANS + tracer.CONSTRUCTORS:
        owner = importlib.import_module("kronmf." + module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_classification_imports_no_engine():
    # the closed forms must stay an independent check on both engines
    tree = ast.parse((ROOT / "src" / "kronmf" / "classification.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    engines = {"kronecker", "characters"}
    assert not {m for m in imported if m.rsplit(".", 1)[-1] in engines}


def _memoised(module):
    tree = ast.parse((ROOT / "src" / "kronmf" / f"{module}.py").read_text())
    cached = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name in {"cache", "lru_cache"}:
                    cached.add(node.name)
    return cached


def test_character_kernels_memoised_for_the_process():
    # only these keep a degree's data for the life of the process, the
    # packed rows of squares one entry per slot width asked for; the
    # lower-degree rows of the table build stay local to the build
    assert _memoised("characters") == {"_table", "_packed", "_class_weights", "_mf_packed"}


def test_dvir_kernels_memoised_for_the_process():
    # the recursion keeps only labelled products: a band is read by one
    # sweep, and a pair's aliases reach its sweep through the product
    # memo, so a memo on either would never be hit.  A Y(nu) correction
    # reads the sweep's own coefficients by key, and nothing is held
    assert _memoised("kronecker") == {"_dvir_product"}


def test_memo_inventory(cold_memos):
    # every memo that keeps data for the life of the process, by module.
    # characters and kronecker: as the two tests above, read here from
    # the live modules rather than from their source.
    # littlewood_richardson: LR tallies and their interned contents.
    # classification: a degree's clause constants.  partitions and every
    # other module: none; the skew sweep hands each shape's normal form
    # on instead of memoising it.
    found = {}
    for key in cold_memos:
        module, name = key.split(".")
        found.setdefault(module, set()).add(name)
    assert found == {
        "characters": {"_table", "_packed", "_class_weights", "_mf_packed"},
        "kronecker": {"_dvir_product"},
        "littlewood_richardson": {"_content", "_lr_counts"},
        "classification": {"_pair_clauses", "_skew_clauses"},
    }
    # no memo keeps a guessed size: every one is a plain functools.cache
    bounded = [
        path.name
        for path in sorted((ROOT / "src" / "kronmf").glob("*.py"))
        if _mentions(ast.parse(path.read_text()), "lru_cache")
    ]
    assert bounded == []


def _mentions(tree, name):
    return any(
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and name in (node.name, node.asname))
        for node in ast.walk(tree)
    )


def test_no_record_guards_its_fields_by_hand():
    # every value type is a tuple record, so its immutability, copying
    # and pickling come from the tuple: no __setattr__ guard, and no
    # object.__setattr__ to get round one
    found = []
    for path in sorted((ROOT / "src" / "kronmf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}: {node.name}.__setattr__"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__setattr__"
                ]
            elif isinstance(node, ast.Attribute) and node.attr == "__setattr__" and ast.unparse(node.value) == "object":
                found.append(f"{path.name}: object.__setattr__")
    assert found == []


def test_unchecked_partitions_stay_inside_the_engines():
    # partitions and skew shapes that skip validation are built only where
    # they are one by construction; outside input (CLI, cache file, parser)
    # always goes through the checked constructors
    src = ROOT / "src" / "kronmf"
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    checked = [
        node
        for node in ast.walk(trees["partitions.py"])
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in {"parse_partition", "parse_skew", "SkewShape"}
    ]
    assert len(checked) == 3
    for constructor, modules in (
        ("_unchecked", {"partitions.py", "littlewood_richardson.py", "kronecker.py"}),
        ("_unchecked_skew", {"partitions.py"}),
    ):
        assert {name for name, tree in trees.items() if _mentions(tree, constructor)} == modules
        assert not any(_mentions(node, constructor) for node in checked), constructor


def test_program_imports_no_process_pool():
    # the program runs in one process by design: no module may bring a
    # pool back, at top level or inside a function.  Nor dataclasses, which
    # with inspect, ast and dis adds milliseconds to every start
    pools = {"concurrent.futures", "multiprocessing", "dataclasses"}
    found = []
    for path in sorted((ROOT / "src" / "kronmf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "concurrent":
                    names += [f"concurrent.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [
                f"{path.name}: {name}"
                for name in names
                if any(name == p or name.startswith(p + ".") for p in pools)
            ]
    assert found == []


def _docstrings(tree):
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }


def test_one_owner_spells_degree_mismatch():
    # partitions.same_degree is the one degree check; the CLI names its
    # operand texts in its own message.  Docstrings may mention it
    owners = set()
    for path in sorted((ROOT / "src" / "kronmf").glob("*.py")):
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and "degree mismatch" in node.value
                        and id(node) not in docs
                    ):
                        owners.add(f"{path.stem}.{func.name}")
    assert owners == {"partitions.same_degree", "cli._operands"}


def test_cli_holds_no_width_arithmetic():
    # the character table renders itself (CharacterTable.to_text)
    tree = ast.parse((ROOT / "src" / "kronmf" / "cli.py").read_text())
    assert not any(_mentions(tree, name) for name in ("rjust", "ljust", "center"))
    aligned = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.FormattedValue)
        and node.format_spec is not None
        and any(c in ast.unparse(node.format_spec) for c in "<>^=")
    ]
    assert aligned == []


def test_cache_defines_no_dict_subclass():
    # one key store and one functools.cache term memo
    tree = ast.parse((ROOT / "src" / "kronmf" / "cache.py").read_text())
    bases = [ast.unparse(base) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for base in node.bases]
    assert "dict" not in bases
