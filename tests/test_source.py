"""Checks on the package source itself."""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "su11"


def test_convergence_errors_raised_only_by_the_gate():
    raisers = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if "raise ConvergenceError" in path.read_text(encoding="utf-8")
    )
    assert raisers == ["algebra.py"]


def test_no_line_over_100_characters():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_oracle_stays_independent_of_the_routes_it_certifies():
    tree = ast.parse((SOURCE / "displacement.py").read_text(encoding="utf-8"))
    defined = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    # the oracle and every module-level definition it reaches, however deep
    read, pending, names = set(), ["displacement_oracle"], set()
    while pending:
        name = pending.pop()
        if name in read:
            continue
        read.add(name)
        node = defined[name]
        found = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        found |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
        names |= found
        pending += sorted(found & defined.keys())
    assert {"_phases", "MatrixElementTable"} <= read
    # the walk, its ln-binomials, its column and element readers, the exact 2F1
    certified = ("_walk", "_ln_binomial", "matrix_columns", "matrix_element", "hyp2f1")
    assert [name for name in sorted(names | read) if any(c in name for c in certified)] == []


def test_closed_form_stays_independent_of_the_walk_it_certifies():
    defined = {}
    for module in ("specfun.py", "displacement.py"):
        tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
        defined.update(
            (node.name, node)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        )
    # the closed form and every module-level definition it reaches, in either module
    read, pending, names = set(), ["matrix_element_hyp"], set()
    while pending:
        name = pending.pop()
        if name in read:
            continue
        read.add(name)
        node = defined[name]
        found = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
        found |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
        names |= found
        pending += sorted(found & defined.keys())
    assert {"_closed_form", "_hyp2f1_column", "_hyp2f1_rows", "_ln_ratio", "_LnGammas"} <= read
    # the recurrence walk, its ln-binomials and their table, its column cache, rows and lock,
    # the block, the oracle
    certified = ("_walk", "_ln_binomials", "_ln_binomial_table", "_walked_column", "_column_rows",
                 "matrix_columns", "_COLUMN_LOCK", "displacement_oracle")
    assert [name for name in sorted(names | read) if any(c in name for c in certified)] == []
    # the extension both routes share names no value of either
    assert "_extended" in read
    shared = {sub.id for sub in ast.walk(defined["_extended"]) if isinstance(sub, ast.Name)}
    shared |= {sub.attr for sub in ast.walk(defined["_extended"]) if isinstance(sub, ast.Attribute)}
    forbidden = ("_walk", "_ln_binomial", "matrix_columns", "displacement_oracle")
    assert [name for name in sorted(shared) if any(f in name for f in forbidden)] == []


def test_one_function_extends_cached_rows_under_one_lock():
    tree = ast.parse((SOURCE / "displacement.py").read_text(encoding="utf-8"))
    # one growth rule and one restart rule: only `_extended` extends a cached column ...
    extenders = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(getattr(sub, "attr", None) == "extend" for sub in ast.walk(node))
    )
    assert extenders == ["_extended"]
    # ... and the module holds one lock, the only context any of its functions enters
    locks = [sub for sub in ast.walk(tree)
             if isinstance(sub, ast.Call) and getattr(sub.func, "attr", "").endswith("Lock")]
    assert len(locks) == 1
    entered = {ast.unparse(item.context_expr)
               for sub in ast.walk(tree) if isinstance(sub, ast.With) for item in sub.items}
    assert entered == {"_LOCK"}


def test_verify_names_and_judges_rows_in_one_place():
    tree = ast.parse((SOURCE / "verify.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def results_built(node):
        return sum(
            isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "CheckResult"
            for sub in ast.walk(node)
        )

    # run_checks alone attaches the group and decides `passed`
    assert results_built(tree) == results_built(functions["run_checks"]) > 0
    checks = {name: node for name, node in functions.items() if name.startswith("_check_")}
    assert len(checks) == 15
    for name, node in checks.items():
        literals = {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)}
        assert name.removeprefix("_check_") not in literals, name


def test_builders_sum_their_ln_gamma_ratios():
    def function(module, name):
        tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
        return next(node for node in tree.body if getattr(node, "name", None) == name)

    def names(node):
        return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)} | {
            sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
        }

    builders = {
        "_pcs_ungated": function("states.py", "_pcs_ungated"),
        "bgcs": function("states.py", "bgcs"),
        "nbs": function("realizations.py", "nbs"),
    }
    # pcs and bgcs read the walk's running sum; nbs, an independent route, keeps its own
    assert "_ln_binomials" in names(builders["_pcs_ungated"]) & names(builders["bgcs"])
    assert "_ln_binomials" not in names(builders["nbs"])
    # lgamma(2k + n) - lgamma(2k) cancels once ln Gamma(2k) is large: no k or shape in lgamma
    for name, node in builders.items():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "lgamma" in names(call.func):
                assert not {"k", "shape"} & set().union(*map(names, call.args)), name


def test_one_walk_sums_the_bottom_level_series():
    tree = ast.parse((SOURCE / "states.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def holders(predicate) -> list:
        """The function around each node the predicate picks, once per node."""
        return sorted(name for name, node in functions.items()
                      for sub in ast.walk(node) if predicate(sub))

    def text(sub) -> str:
        return ast.unparse(sub) if isinstance(sub, ast.expr) else ""

    # the units of s, the move to units of 2^600 past 2^500, the refusal of a term
    # past the float range and the raising factors each appear once, in the walk ...
    walk = ["_bottom_series"]
    assert holders(lambda sub: getattr(sub, "attr", None) == "frexp") == walk
    assert holders(lambda sub: isinstance(sub, ast.Compare) and "2.0 ** 500" in text(sub)) == walk
    assert set(holders(lambda sub: "2.0 ** (-600)" == text(sub))) == set(walk)
    assert holders(lambda sub: "leaves the float range" in str(getattr(sub, "value", ""))) == walk
    assert holders(lambda sub: getattr(sub, "id", None) == "raising_factors") == walk
    # ... which both series builders call, and nothing in the module silences numpy
    callers = holders(lambda sub: isinstance(sub, ast.Call) and text(sub.func) == "_bottom_series")
    assert callers == ["laguerre_prestate", "nlcs_exponential"]
    assert "errstate" not in {getattr(sub, "attr", None) for sub in ast.walk(tree)}


def unreached_definitions(sources: dict) -> list:
    """The "module.name" of every module-level function or class in sources (file name ->
    text) that no chain of names reaches from what `__init__.py` imports, `cli.main` and
    `verify.run_checks`.  A name reaches every definition of it, in any module."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bodies = {}  # every module-level function, class and assigned name, by name
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for sub in (sub for target in targets for sub in ast.walk(target)):
                    if isinstance(sub, ast.Name):
                        bodies.setdefault(sub.id, []).append(node)
    pending = [alias.name for node in trees["__init__.py"].body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    pending += ["main", "run_checks"]
    reached = set()
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in bodies.get(name, []):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    pending.append(sub.id)
                elif isinstance(sub, ast.Attribute):
                    pending.append(sub.attr)
    return sorted(
        f"{module.removesuffix('.py')}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached
    )


def package_sources() -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}


def test_every_function_is_reached_from_the_public_api():
    assert unreached_definitions(package_sources()) == []


def test_the_reachability_guard_finds_a_planted_orphan():
    sources = package_sources()
    # an orphan that calls a reached function, and a helper that only the orphan calls
    sources["specfun.py"] += (
        "\n\ndef _orphan(x):\n    return laguerre(2, _orphan_helper(x))\n"
        "\n\nclass _OrphanHelper:\n    pass\n"
        "\n\ndef _orphan_helper(x):\n    return _OrphanHelper and x\n"
    )
    assert unreached_definitions(sources) == [
        "specfun._OrphanHelper", "specfun._orphan", "specfun._orphan_helper"]
