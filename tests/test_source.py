"""Checks on the package source itself."""

import ast
import pathlib

from su11 import specfun

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
    # the walk, its ln-binomials, its column and element readers, the exact 2F1, the cache
    certified = ("_walk", "_ln_binomial", "matrix_columns", "matrix_element", "hyp2f1",
                 "_element", "_column", "lru_cache")
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
    assert {"_closed_form", "_closed_form_rows", "_hyp2f1_rows", "_ln_ratio"} <= read
    # the recurrence walk, its ln-binomials, its rows, the block, the oracle
    certified = ("_walk", "_ln_binomials", "_column_rows", "matrix_columns", "displacement_oracle")
    assert [name for name in sorted(names | read) if any(c in name for c in certified)] == []
    # the read and the cache both routes share name no value of either
    for name in ("_element", "_column"):
        assert name in read
        shared = {sub.id for sub in ast.walk(defined[name]) if isinstance(sub, ast.Name)}
        shared |= {sub.attr for sub in ast.walk(defined[name]) if isinstance(sub, ast.Attribute)}
        forbidden = ("_walk", "_ln_binomial", "matrix_columns", "displacement_oracle",
                     "_column_rows", "_closed_form", "hyp2f1")
        assert [sub for sub in sorted(shared) if any(f in sub for f in forbidden)] == [], name


def test_one_function_reads_cached_rows_and_one_makes_them():
    tree = ast.parse((SOURCE / "displacement.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def callers(callee: str) -> list:
        return sorted(name for name, node in functions.items()
                      if any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == callee
                             for sub in ast.walk(node)))

    # only `_column` makes a column entry, and it is the module's one cache ...
    assert callers("array") == ["_column"]
    cached = sorted(name for name, node in functions.items() for d in node.decorator_list
                    if "lru_cache" in ast.unparse(d))
    assert cached == ["_column"]
    # ... only `_element` looks a column up and indexes its rows ...
    assert callers("_column") == ["_element"]
    assert callers("_element") == ["matrix_element_hyp", "matrix_element_sum"]
    # ... and no lock guards it: a column is finished before it is cached
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "threading" not in imported
    assert not any(isinstance(node, ast.With) for node in ast.walk(tree))


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
        "_pcs": function("states.py", "_pcs"),
        "bgcs": function("states.py", "bgcs"),
        "nbs": function("realizations.py", "nbs"),
    }
    # pcs reads the walk's running sum; bgcs sums its own ratios (see below); nbs, an
    # independent route, keeps its own
    assert "_ln_binomials" in names(builders["_pcs"])
    assert "_ln_binomials" not in names(builders["bgcs"]) | names(builders["nbs"])
    assert "lgamma" not in names(builders["bgcs"])
    # lgamma(2k + n) - lgamma(2k) cancels once ln Gamma(2k) is large: no k or shape in lgamma
    for name, node in builders.items():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "lgamma" in names(call.func):
                assert not {"k", "shape"} & set().union(*map(names, call.args)), name


def module_functions(module: str) -> dict:
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def holders_in(functions: dict, predicate) -> list:
    """The functions that hold a node the predicate picks."""
    return sorted(name for name, node in functions.items()
                  if any(predicate(sub) for sub in ast.walk(node)))


def calls(name: str):
    return lambda sub: isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == name


def test_the_displacement_walk_rescales_by_one_rule():
    tree = ast.parse((SOURCE / "displacement.py").read_text(encoding="utf-8"))
    names = {getattr(sub, attr, None) for sub in ast.walk(tree) for attr in ("id", "attr", "name")}
    # no power-of-two shift path beside the log scale: no exponent is counted or read back
    assert not names & {"_shifted", "ldexp", "frexp"}
    # one branch moves the size of the walk's values into its log scale, above and below
    walk = module_functions("displacement.py")["_walk"]
    assert len([sub for sub in ast.walk(walk) if isinstance(sub, ast.If)]) == 1
    assert [ast.unparse(sub) for sub in ast.walk(walk)
            if isinstance(sub, ast.Call) and ast.unparse(sub.func) == "np.log"] == ["np.log(size)"]


def test_one_long_double_sum_builds_the_ratio_recursions():
    functions = module_functions("states.py")
    holders = lambda predicate: holders_in(functions, predicate)

    # one function sums the log ratios, in long double, and multiplies the unit ratios ...
    assert holders(lambda sub: getattr(sub, "attr", None) == "cumsum") == ["_from_peak"]
    assert holders(lambda sub: getattr(sub, "attr", None) == "cumprod") == ["_from_peak"]
    sums = [sub for sub in ast.walk(functions["_from_peak"]) if isinstance(sub, ast.Call)
            and getattr(sub.func, "attr", None) == "cumsum"]
    assert sums and all([ast.unparse(kw.value) for kw in cumsum.keywords if kw.arg == "dtype"]
                        == ["np.longdouble"] for cumsum in sums)
    # ... for both builders of the recursion c_{n+1}/c_n = alpha / (f(n) sqrt((n+1)(2k+n))),
    # neither of which takes a phase as n arg(alpha): only `pcs` does, from its closed form
    assert holders(calls("_from_peak")) == ["bgcs", "nlcs"]
    assert holders(lambda sub: getattr(sub, "attr", None) == "atan2") == ["_pcs"]
    # and both nonlinear routes, like every diagonal reader, read their function through one
    # reader in `algebra`
    algebra = module_functions("algebra.py")
    assert holders(calls("func")) == []
    assert holders_in(algebra, calls("func")) == ["_nonlinearity"]
    assert holders(calls("_nonlinearity")) == ["nlcs", "nlcs_exponential"]
    assert holders_in(algebra, calls("_nonlinearity")) == ["scale_occupied"]


def test_ladder_actions_and_the_lowering_certificate_are_written_once():
    sources = package_sources()
    trees = {name: ast.parse(text) for name, text in sources.items()}
    functions = {}
    for tree in trees.values():
        functions.update((node.name, node) for node in tree.body
                         if isinstance(node, ast.FunctionDef))
    # K+ and K- act on amplitude arrays in `_ladder` alone: no StateVector wrapper is left ...
    for name in ("apply_kplus", "apply_kminus", "apply_diag"):
        assert not any(name in text for text in sources.values()), name
    assert holders_in(functions, calls("_ladder")) == [
        "decomposed_apply", "eigen_residual_lowering", "ladder_residual_general",
        "mus_expectation", "mus_residual"]
    # ... the mixed eigenproblem is mu K+ + K-, with no one-valued nu ...
    nus = [f"{module}:{node.lineno}" for module, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, ast.arg) and node.arg == "nu"]
    assert nus == []
    # ... and the three ratio builders share one certificate, none reading func a second time
    assert holders_in(functions, calls("_lowering_gate")) == ["_pcs", "bgcs", "nlcs"]
    assert holders_in(module_functions("states.py"), calls("eigen_residual_lowering")) == []


def test_pair_coherent_keeps_its_own_copy_of_the_rule():
    # perfbench and verify certify it against the mapped `bgcs`: the routes must stay apart
    node = module_functions("realizations.py")["pair_coherent"]
    names = {getattr(sub, "id", None) for sub in ast.walk(node)} | {
        getattr(sub, "attr", None) for sub in ast.walk(node)}
    assert not any(isinstance(sub, (ast.For, ast.While, ast.comprehension))
                   for sub in ast.walk(node))
    assert "occupations" in names
    assert not names & {"_from_peak", "bgcs", "raising_factors"}


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
    # (and in the `pcs`, `bgcs` and `nlcs` certificates, which read them as lowering factors)
    assert holders(lambda sub: getattr(sub, "id", None) == "raising_factors") == walk + [
        "_pcs", "bgcs", "nlcs"]
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
        "\n\ndef _orphan(x):\n    return _ln_ratio(2, _orphan_helper(x))\n"
        "\n\nclass _OrphanHelper:\n    pass\n"
        "\n\ndef _orphan_helper(x):\n    return _OrphanHelper and x\n"
    )
    assert unreached_definitions(sources) == [
        "specfun._OrphanHelper", "specfun._orphan", "specfun._orphan_helper"]


def test_one_gate_reads_alpha_for_the_six_coherent_builders():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    functions = {(module, node.name): node for module, tree in trees.items()
                 for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    # each refusal is written once, in `check_alpha`, the first under the name it reads (alpha
    # unless a caller names mu)
    gate = functions[("algebra.py", "check_alpha")]
    assert [arg.arg for arg in gate.args.args] == ["alpha", "disc", "name"]
    assert ast.literal_eval(gate.args.defaults[-1]) == "alpha"
    for message in ("{name} must be finite", "requires |alpha| < 1"):
        holders = {name for (_, name), node in functions.items() for sub in ast.walk(node)
                   if isinstance(sub, ast.JoinedStr) and message in ast.unparse(sub)
                   or isinstance(sub, ast.Constant) and message in str(sub.value)}
        assert holders == {"check_alpha"}, message
        assert sum(path.read_text(encoding="utf-8").count(message)
                   for path in SOURCE.glob("*.py")) == 1, message
    names = {ast.literal_eval(keyword.value) for node in functions.values()
             for sub in ast.walk(node) if isinstance(sub, ast.Call)
             and getattr(sub.func, "id", None) == "check_alpha"
             for keyword in sub.keywords if keyword.arg == "name"}
    assert names == {"mu"}
    builders = [("states.py", "_pcs"), ("states.py", "bgcs"), ("states.py", "nlcs"),
                ("states.py", "nlcs_exponential"), ("realizations.py", "nbs"),
                ("realizations.py", "pair_coherent")]
    for key in builders:
        calls = [sub for sub in ast.walk(functions[key]) if isinstance(sub, ast.Call)]
        # ... which each builder calls, converting alpha nowhere itself
        assert any(getattr(call.func, "id", None) == "check_alpha" for call in calls), key
        converted = [ast.unparse(call) for call in calls
                     if getattr(call.func, "id", None) == "complex"
                     and any("alpha" in ast.unparse(arg) for arg in call.args)]
        assert converted == [], key


def test_one_place_decides_the_truncation_remedy():
    trees = {name: ast.parse(text) for name, text in package_sources().items()}
    # the gate reads the cause from the vector it refuses: no caller passes it, no function takes it
    keywords = [f"{module}:{node.lineno}" for module, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.keyword) and node.arg == "truncation"
                or isinstance(node, ast.arg) and node.arg == "truncation"]
    assert keywords == []
    # the top-level weight share is judged against TAIL_TOL in algebra alone
    readers = sorted({module for module, tree in trees.items() for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id == "TAIL_TOL"})
    assert readers == ["algebra.py"]
    compared = [node for node in ast.walk(trees["algebra.py"]) if isinstance(node, ast.Compare)
                and "TAIL_TOL" in ast.unparse(node)]
    assert len(compared) == 1
    remedy = "increase the truncation dimension"
    assert sum(text.count(remedy) for text in package_sources().values()) == 1


def test_specfun_alone_decides_how_a_value_past_the_float_range_travels():
    trees = {name: ast.parse(text) for name, text in package_sources().items()}
    functions = {(module, node.name): node for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    # the exact 2F1's log reader is defined once, beside the rows it reads ...
    assert [module for module, name in functions if name == "_ln_ratio"] == ["specfun.py"]
    # ... and the rows are read in specfun and by the closed form; the parity element reads
    # its one row through specfun's `_hyp2f1_row`
    readers = sorted((module, name) for (module, name), node in functions.items()
                     if module != "specfun.py" and any(
                         isinstance(sub, ast.Name) and sub.id == "_hyp2f1_rows"
                         for sub in ast.walk(node)))
    assert readers == [("displacement.py", "_closed_form_rows")]
    # the Bessel series always hands over its log: no switch, and bgcs skips no gate
    series = functions[("specfun.py", "_bessel_i_series")]
    assert [arg.arg for arg in series.args.args] == ["c", "x"]
    assert not series.args.defaults and not series.args.kwonlyargs
    bgcs = functions[("states.py", "bgcs")]
    assert "isfinite" not in {getattr(sub, "attr", None) for sub in ast.walk(bgcs)}
    assert not any("_LN_TINY" in text for text in package_sources().values())


def test_specfun_holds_only_what_the_builders_read():
    # every function in specfun is called or passed on by a builder module, not just imported
    trees = {name: ast.parse(text) for name, text in package_sources().items()}
    defined = [node.name for node in trees["specfun.py"].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    builders = ("states.py", "displacement.py", "realizations.py")
    read = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for module in builders for sub in ast.walk(trees[module])
            if isinstance(sub, (ast.Name, ast.Attribute))}
    assert defined and [name for name in defined if name not in read] == []
    assert specfun.__all__ == []


def test_one_gate_reads_every_level():
    message = "must be a nonnegative integer"
    holders = [name for name, text in package_sources().items() if message in text]
    assert holders == ["algebra.py"]
    assert package_sources()["algebra.py"].count(message) == 1


def test_tags_fill_their_bands_without_the_abstract_operators():
    tree = ast.parse((SOURCE / "realizations.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    tags = [node for node in tree.body if isinstance(node, ast.ClassDef)
            and node.name in ("HolsteinPrimakoff", "AmplitudeSquared", "TwoMode")]
    assert len(tags) == 3
    # each tag's raising and lowering matrix is one call of the band filler, with no loop of its own
    for tag in tags:
        methods = {node.name: node for node in tag.body if isinstance(node, ast.FunctionDef)}
        for name in ("kplus", "kminus"):
            calls = [sub for sub in ast.walk(methods[name]) if isinstance(sub, ast.Call)
                     and getattr(sub.func, "id", None) == "_band"]
            assert len(calls) == 1, (tag.name, name)
        assert not any(isinstance(sub, (ast.For, ast.While)) for sub in ast.walk(tag)), tag.name
    # the filler and the tags read none of the abstract bands the `faithful` row compares against
    read = {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in [functions["_band"], *tags] for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}
    forbidden = {"raising_factors", "kplus_matrix", "kminus_matrix", "k0_matrix"}
    assert read & forbidden == set()


def coerced_arguments(function: ast.FunctionDef) -> list:
    """The calls of `complex` or `float` in function on one of its own arguments."""
    arguments = {arg.arg for arg in function.args.args}
    return [ast.unparse(call) for call in ast.walk(function) if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) in ("complex", "float")
            and any(getattr(arg, "id", None) in arguments for arg in call.args)]


def test_every_argument_is_read_once_by_the_gates():
    trees = {name: ast.parse(text) for name, text in package_sources().items()}
    gates = ("check_bargmann", "check_alpha", "check_level", "check_dim")
    # the builders compute with what a gate returns: no gate call stands as a bare statement
    bare = [f"{module}:{node.lineno}" for module in ("states.py", "realizations.py")
            for node in ast.walk(trees[module])
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) in gates]
    assert bare == []
    # each number gate reads through `_number`, converting nothing with its own try or cast
    functions = {(module, f"{scope.name}.{node.name}" if scope is not tree else node.name): node
                 for module, tree in trees.items()
                 for scope in [tree, *(c for c in tree.body if isinstance(c, ast.ClassDef))]
                 for node in scope.body if isinstance(node, ast.FunctionDef)}
    readers = [("algebra.py", "_positive"), ("algebra.py", "check_alpha"),
               ("algebra.py", "check_level"), ("algebra.py", "_nonlinearity"),
               ("displacement.py", "DisplacementParams.__post_init__")]
    # ... and a positive real (k, a shape) through `_positive`, the one writer of its refusal
    positive = [("algebra.py", "check_bargmann"), ("realizations.py", "nbs"),
                ("realizations.py", "nbs_ladder_residual")]
    for key in readers + positive:
        node = functions[key]
        calls = {getattr(sub.func, "id", None) for sub in ast.walk(node)
                 if isinstance(sub, ast.Call)}
        if key in readers:
            assert "_number" in calls and not calls & {"float", "complex"}, key
        else:
            assert "_positive" in calls and coerced_arguments(node) == [], key
        assert not any(isinstance(sub, ast.Try) for sub in ast.walk(node)), key
    assert [key for key in functions if key[1] == "_number"] == [("algebra.py", "_number")]
    dim_gate = functions[("algebra.py", "check_dim")]
    assert "check_level" in {getattr(sub.func, "id", None) for sub in ast.walk(dim_gate)
                             if isinstance(sub, ast.Call)}


def test_the_residual_api_reads_its_arguments_through_the_gates():
    trees = {name: ast.parse(text) for name, text in package_sources().items()}
    functions = {(module, node.name): node for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    residuals = [("algebra.py", "eigen_residual_lowering"), ("algebra.py", "mus_residual"),
                 ("algebra.py", "mus_expectation"), ("realizations.py", "nbs_ladder_residual"),
                 ("realizations.py", "two_photon_nlcs_residual"),
                 ("realizations.py", "two_mode_nlcs_residual")]
    for key in residuals:
        node = functions[key]
        # each reads alpha or mu through `check_alpha`, and coerces no argument itself
        assert any(getattr(sub.func, "id", None) == "check_alpha" for sub in ast.walk(node)
                   if isinstance(sub, ast.Call)), key
        assert coerced_arguments(node) == [], key
    # each refusal is written once: the positive real's in `_positive`, the shape's in one
    # constant, the parity's in `AmplitudeSquared`
    sources = package_sources()
    for text, holder in [("{refusal}, got", "algebra.py"),
                         ("shape parameter must be", "realizations.py"),
                         ("parity must be", "realizations.py")]:
        assert [name for name, source in sources.items() if text in source] == [holder], text
        assert sources[holder].count(text) == 1, text
