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
    # the recurrence walk, its ln-binomials, its column cache and lock, the block, the oracle
    certified = ("_walk", "_ln_binomials", "matrix_columns", "_COLUMN_LOCK", "displacement_oracle")
    assert [name for name in sorted(names | read) if any(c in name for c in certified)] == []


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
