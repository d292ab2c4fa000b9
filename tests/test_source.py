"""Checks on the package source itself."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import equik
import equik.intmat as intmat
from equik.cli import main
from equik.fusion import IdealLattice
from equik.intmat import IntMatrix

SOURCES = sorted(Path(equik.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []


def test_package_imports_only_the_standard_library():
    # equik runs with nothing installed: every import is relative or names
    # a standard-library module.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert SOURCES
    assert found == []


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, dis, ast and tokenize, and writes each
    # record's methods with exec: about 14 ms of every CLI call's start-up.
    # typing.NamedTuple and collections.namedtuple eval a __new__ per class,
    # and typing compiles each field annotation.  Records are
    # errors.TupleRecord or errors.Record classes instead, and no module
    # runs exec or eval.
    banned = {"dataclasses", "typing"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(a.name in banned for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module in banned
        or isinstance(node, ast.ImportFrom) and any(a.name == "namedtuple" for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "namedtuple"
        or isinstance(node, ast.Name) and node.id in ("exec", "eval", "namedtuple")
    ]
    assert found == []


# Prints the modules a fresh interpreter holds once equik and its CLI are
# imported; the probe itself imports only sys, which is built in.
IMPORT_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import equik, equik.cli; "
    "print(' '.join(sorted(sys.modules)))"
)


def test_importing_the_cli_loads_no_dataclasses_and_defers_nothing():
    src = Path(equik.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "equik" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()
    # Every submodule and the stdlib modules requests use are loaded at
    # import, so no import work moves into the first request.
    assert {f"equik.{path.stem}" for path in SOURCES if path.stem != "__init__"} <= loaded
    assert {"json", "heapq", "argparse"} <= loaded


def test_a_siteless_import_loads_no_typing_dataclasses_or_inspect():
    # -S skips site, so no .pth file of the interpreter's install can
    # preload a module and hide an import equik itself makes
    src = Path(equik.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = set(proc.stdout.split())
    assert {"equik", "equik.cli", "equik.errors"} <= loaded
    assert {"typing", "dataclasses", "inspect"} & loaded == set()


def test_every_private_module_level_name_is_used():
    # a private function, class or constant that nothing in the package
    # reads is a helper some refactor left behind
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
    private = [(f, n) for f, n in defined if n.startswith("_") and not n.startswith("__")]
    assert private
    assert [f"{f}:{n}" for f, n in private if n not in read] == []


def test_intmatrix_is_named_only_at_the_boundary():
    # Inside the library, integer rows are tuples.  IntMatrix belongs to
    # intmat itself, to Presentation in abgroups, to the CLI's matrix input
    # and output, and to the package exports.
    named = [
        path.name
        for path in SOURCES
        if re.search(r"\bIntMatrix\b", path.read_text(encoding="utf-8"))
    ]
    assert named == ["__init__.py", "abgroups.py", "cli.py", "intmat.py"]


# Lattice and certify requests: ideal powers, a lambda expansion, the
# regular class, a model, and a Kunneth report built and validated.
BOUNDARY_FREE_REQUESTS = (
    ("rep", "ideal-powers", "z2xz3xz5", "--max-power", "2"),
    ("rep", "lambda", "7"),
    ("rep", "regular", "z24"),
    ("model", "trunc-z2:3"),
)


def test_lattice_and_certify_requests_build_no_intmatrix(monkeypatch, tmp_path, capsys):
    built = []
    real_init = IntMatrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(IntMatrix, "__init__", counting_init)
    IntMatrix.identity(2)
    assert len(built) == 1  # the count sees construction through a classmethod
    built.clear()
    for argv in BOUNDARY_FREE_REQUESTS:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    assert main(["rokhlin", "product-z2", "1", "z3xz3", "--json"]) == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["validate", str(report)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert built == []


def test_no_dense_hermite_elimination_is_left():
    # intmat.hermite_terms is the one Hermite routine: hnf reads it on the
    # rows [A | I], and _hermite_step, which only _smith calls, on the rows
    # [d | carry].  No dense routine, under the names it had, is left.
    names = ("_hermite_reduce", "_hermite_step", "_kernel_hermite", "hermite_terms")
    users = {name: set() for name in names}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in names:
                        users[alias.name].add(f"{path.name}:import")
            elif isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Name) and inner.id in names:
                        users[inner.id].add(f"{path.name}:{node.name}")
    assert users["_hermite_reduce"] == users["_kernel_hermite"] == set()
    assert users["_hermite_step"] == {"intmat.py:_smith"}
    assert {"intmat.py:hnf", "intmat.py:_hermite_step"} <= users["hermite_terms"]
    assert not hasattr(intmat, "_hermite_reduce")
    assert not hasattr(intmat, "_kernel_hermite")


def test_module_requests_read_no_dense_ideal_basis(monkeypatch, tmp_path, capsys):
    # Ideal and module rows stay term rows from the ideal power to the
    # module image; a dense IdealLattice.basis is built only where a
    # caller prints it.
    def refuse(self):
        raise AssertionError("IdealLattice.basis read")

    monkeypatch.setattr(IdealLattice, "basis", property(refuse))
    assert main(["model", "tensor(circle:3,trunc:z3:2)"]) == 0
    capsys.readouterr()
    assert main(["rokhlin", "product-z2", "1", "z3xz3", "--json"]) == 0
    report = tmp_path / "report.json"
    report.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["validate", str(report)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_module_products_are_formed_by_the_ring_product():
    # A module's table has the ring's cell format, so kmodules forms its
    # products with fusion._row_times and has no product code of its own.
    source = (Path(equik.__file__).parent / "kmodules.py").read_text(encoding="utf-8")
    assert "_row_times" in source
    assert "term_product" not in source


def function_calls() -> dict:
    """'file:function' (methods as 'file:Class.method') -> the calls each
    top-level function or method makes, as ast.Call nodes."""
    calls = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in methods:
                if isinstance(fn, ast.FunctionDef):
                    prefix = f"{node.name}." if fn is not node else ""
                    calls[f"{path.name}:{prefix}{fn.name}"] = [
                        call for call in ast.walk(fn) if isinstance(call, ast.Call)
                    ]
    return calls


def called_names() -> dict:
    """'file:function' -> the names each top-level function or method
    calls, by name or as an attribute."""
    return {
        f: {getattr(call.func, "attr", getattr(call.func, "id", None)) for call in calls}
        for f, calls in function_calls().items()
    }


def test_solved_coordinates_become_a_group_in_one_function():
    # abgroups.quotient is the one lattice modulo a sublattice: ideal
    # filtration quotients and module images both go through it.  The
    # other solve_map callers only test membership.
    calls = called_names()
    solvers = {f for f, names in calls.items() if "solve_map" in names}
    assert solvers == {
        "abgroups.py:quotient",
        "fusion.py:_difference",
        "fusion.py:_product_outside",
        "intmat.py:Lattice.solve",
    }
    group_readers = {"smith_invariants", "cokernel", "FgAbelianGroup"}
    assert {f for f in solvers if calls[f] & group_readers} == {"abgroups.py:quotient"}


def test_module_rows_are_checked_only_where_they_enter():
    # rows the library forms itself (ideal images) are not re-checked:
    # only the two public entry points check, and the library calls the
    # checking subgroup_class nowhere
    calls = called_names()
    users = {f for f, names in calls.items() if "_checked_rows" in names}
    assert users == {"kmodules.py:RingModule.__init__", "kmodules.py:RingModule.subgroup_class"}
    assert {f for f, names in calls.items() if "subgroup_class" in names} == set()


def test_only_values_derived_by_a_formula_skip_the_constructor_checks():
    # BasedRing, IdealLattice and RingModule skip their checks only when
    # passed _trusted=True, by a builder whose formula makes the value
    # valid; the public constructors and the readers check everything.
    trusted = {
        f
        for f, calls in function_calls().items()
        if any(k.arg == "_trusted" for call in calls for k in call.keywords)
    }
    assert trusted == {
        "fusion.py:cyclic_ring",
        "fusion.py:circle_truncation",
        "fusion.py:ring_product",
        "fusion.py:IdealLattice.zero",
        "fusion.py:IdealLattice.full",
        "fusion.py:augmentation_ideal",
        "fusion.py:_augmentation_powers",
        "fusion.py:circle_ideal_image",
        "kmodules.py:truncated_ring_module",
        "kmodules.py:zero_module",
        "kmodules.py:module_direct_sum",
        "kmodules.py:kunneth_pieces",
        "kmodules.py:factor_ideal_power",
    }
