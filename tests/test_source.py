"""Static checks on the package source."""

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import gauduchon as gd
from gauduchon import conformal, connection, wjet

SRC = Path(__file__).resolve().parent.parent / "src" / "gauduchon"


def test_no_assert_statements_in_package():
    # Asserts vanish under `python -O`; invariant checks must raise typed errors.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src: {found}"


# Imported to be re-exported: the bench reads `curvature.chern_torsion`.
REEXPORTS = {("curvature", "chern_torsion")}


def unread_imports(tree: ast.Module) -> list[str]:
    """The names a module imports (not from __future__) that it never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read():
    # A name a module imports and never reads is left over from code that
    # has gone; `__init__` imports to export.
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "__init__.py"
             for name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
             if (path.stem, name) not in REEXPORTS]
    assert not found, f"imported and never read: {found}"


def test_unread_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "from typing import Callable\nimport numpy as np\nimport os.path\n"
                     "x = np.zeros(1)\n")
    assert unread_imports(tree) == ["Callable", "os"]


def test_conformal_delta_has_four_parts_and_fields_no_domain():
    # The delta is four weighed parts, its symmetrized form their q-line on
    # every base, and a field has no domain of its own.
    assert not hasattr(conformal.FactorAt, "delta_kahler")
    assert conformal.delta_weights([(1.0, 0.5)] * 3).shape == (3, 4)
    assert not hasattr(wjet.ScalarField, "domain")


def test_no_point_store_in_the_package():
    # `_metric_points` is the fill: no module keeps point records between
    # calls, so none names the store's parts or the second name of the fill,
    # or holds records by weak reference.
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("_STORE", "_as_key", "POINT_STORE_SIZE", "_point_batch", "_metric_point",
                     "_frame_matrix", "_lc_point", "_stack"):
            if re.search(rf"\b{name}\b", text):
                found.append(f"{path.name}: {name}")
        if re.search(r"^\s*(import weakref|from weakref import)", text, re.MULTILINE):
            found.append(f"{path.name}: weakref")
    assert not found, f"point store parts in src: {found}"


def test_the_fill_builds_no_basis():
    # The fill's stages make a record of jets, `ginv` and `E` only: none of
    # them names `_basis_stack`, whose readers call it on the record, and no
    # record type with a basis field is left in the package.
    tree = ast.parse((SRC / "connection.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found = [f"connection.{name} names _basis_stack"
             for name in ("_metric_points", "_chart_fill", "_check_points", "_component_jets",
                          "_fill")
             if any(isinstance(node, ast.Name) and node.id == "_basis_stack"
                    for node in ast.walk(funcs[name]))]
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name}: {name}" for name in (r"\b_PointData\b", r"\.basis\b")
                  if re.search(name, text)]
    assert not found, f"the fill builds a basis: {found}"


def test_the_basis_reads_the_chern_pair_alone():
    # The torsion's dbar derivative is the Chern curvature's by the first
    # Bianchi identity: no kernel computes it, the basis takes exactly the
    # Chern curvature and torsion, and the torsion kernel takes no shared
    # upper-slot matrix.
    found = [f"{path.name}: _frame_torsion_dbar" for path in sorted(SRC.glob("*.py"))
             if re.search(r"\b_frame_torsion_dbar\b", path.read_text(encoding="utf-8"))]
    tree = ast.parse((SRC / "connection.py").read_text(encoding="utf-8"))
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, want in (("_basis_stack", ["RC", "T"]), ("_frame_torsion", ["b", "E"])):
        args = funcs[name].args
        got = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if got != want or args.vararg or args.kwarg:
            found.append(f"connection.{name} takes {got}")
    assert not found, f"the basis reads more than the Chern pair: {found}"


def test_factors_have_one_constructor():
    # A `FactorAt` is built only by calling it, from what it holds: no
    # second path sets its fields behind `__init__`.
    text = (SRC / "conformal.py").read_text(encoding="utf-8")
    found = [name for name in (r"\b_hold\b", r"FactorAt\.__new__") if re.search(name, text)]
    assert not found, f"second FactorAt constructor in conformal.py: {found}"


def test_factor_stacks_are_built_one_way():
    # `FactorAt.__init__` walks, tiles and rescales on its own: no second
    # stacking function is left, the suite builds no conformal pair, and the
    # rescaled label and the realness rule are each written once.
    found = [f"{path.name}: _factors_at" for path in sorted(SRC.glob("*.py"))
             if re.search(r"\b_factors_at\b", path.read_text(encoding="utf-8"))]
    if re.search(r"\brescale\b", (SRC / "cli.py").read_text(encoding="utf-8")):
        found.append("cli.py names rescale")
    tree = ast.parse((SRC / "conformal.py").read_text(encoding="utf-8"))
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == "FactorAt"]
    [init] = [node for node in cls.body
              if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    args = init.args
    got = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if got != ["self", "chart", "fs", "points", "data", "frame"] or args.vararg or args.kwarg:
        found.append(f"FactorAt.__init__ takes {got}")
    labels = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
              and isinstance(node.value, str) and "*exp(2f)" in node.value]
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
              and node.exc.func.id == "NonRealConformalFactor"]
    if (len(labels), len(raises)) != (1, 1):
        found.append(f"{len(labels)} exp(2f) labels and {len(raises)} realness raises")
    assert not found, f"factor stacks built more than one way: {found}"


def test_suite_checks_run_one_pass_over_their_points():
    # Each suite check works on stacked points; a loop over the sample
    # points would bring back one evaluation, and one fill, per point.
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    [suite] = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "_Suite"]
    found = []
    for method in suite.body:
        for node in ast.walk(method):
            if isinstance(node, (ast.For, ast.comprehension)):
                for sub in ast.walk(node.iter):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self" and sub.attr in ("pts", "small", "cpts")):
                        found.append(f"{method.name}: self.{sub.attr}")
    assert not found, f"_Suite methods loop over sample points: {found}"


def test_field_grammar_is_declared_once():
    # Each operator names itself once, as its node class's `op`: in wjet.py
    # only ScalarField's one `serialize` and the leaves' (constant,
    # coordinate, quadratic form) write a text, the parser names no operator
    # but `pow`, and the coordinate leaves share one dimension check.
    text = (SRC / "wjet.py").read_text(encoding="utf-8")
    classes = {node.name: node for node in ast.parse(text).body if isinstance(node, ast.ClassDef)}
    found = [f"{name}.serialize" for name, cls in classes.items()
             if name not in ("ScalarField", "Const", "_Coordinate", "Quadratic")
             and any(isinstance(f, ast.FunctionDef) and f.name == "serialize" for f in cls.body)]
    found += [f"_Parser: {node.value!r}" for node in ast.walk(classes["_Parser"])
              if isinstance(node, ast.Constant)
              and node.value in ("add", "sub", "mul", "div", "neg", "exp", "log")]
    if text.count('raise DimensionError(f"coordinate') != 1:
        found.append("coordinate dimension check written more than once")
    assert not found, f"field grammar written twice in wjet.py: {found}"


def test_jets_store_three_packed_parts():
    # A jet stores its value, its gradient over (z, zbar) and one symmetric
    # Hessian; the five block names are read-only views, and no six-block
    # outer-product helper is left.
    assert [f.name for f in dataclasses.fields(wjet.WJet2)] == ["value", "grad", "hess"]
    jet = wjet.WJet2.constant(1.0, 2)
    with pytest.raises(AttributeError):
        jet.ddbar = np.zeros((2, 2))
    assert not hasattr(wjet, "_outer")


def test_records_store_the_packed_jets():
    # A fill's record keeps the walk's packed jets: its fields are the value,
    # gradient and Hessian, then ginv and E; the five block names are
    # read-only views, and neither the repacking helper nor the six-part
    # name list is left in the package.
    assert [f.name for f in dataclasses.fields(connection._MetricData)] == \
        ["G", "grad", "hess", "ginv", "E"]
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             for name in ("_record_jets", "JET_PARTS")
             if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))]
    assert not found, f"the jet layout is decided twice: {found}"
    b = connection._metric_points(gd.hopf_chart(2), [[0.3, 0.1j]])
    with pytest.raises(ValueError):
        b.ddbarG[...] = 0
    with pytest.raises(AttributeError):
        b.dG = np.zeros_like(b.dG)


def einsum_calls(tree):
    """The `einsum(...)` calls under an AST node."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "einsum"
                 or getattr(node.func, "id", None) == "einsum")]


def is_transposing(call) -> bool:
    """Whether an einsum call only permutes the axes of one operand."""
    if len(call.args) != 2 or not isinstance(call.args[0], ast.Constant):
        return False
    inputs, _, output = call.args[0].value.replace("...", "").partition("->")
    return sorted(inputs) == sorted(output) and len(set(inputs)) == len(inputs)


def test_curvature_kernels_are_matmuls():
    # An einsum with optimize= plans its contraction path again on every
    # call; the connection's contractions, `hsc` and the oracle's Riemann
    # tensor `_riemann` and Christoffel symbols `_christoffel_parts` are
    # reshapes and batched matmuls, which leave only transposing einsums in
    # connection.py, `_riemann` and `_christoffel_parts`.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in einsum_calls(tree):
            if any(kw.arg == "optimize" for kw in call.keywords):
                found.append(f"{path.name}:{call.lineno}: einsum(..., optimize=...)")
            if path.name == "connection.py" and not is_transposing(call):
                found.append(f"{path.name}:{call.lineno}: contracting einsum")
    tree = ast.parse((SRC / "curvature.py").read_text(encoding="utf-8"))
    kernels = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    found += [f"curvature.py:{call.lineno}: einsum in hsc" for call in einsum_calls(kernels["hsc"])]
    found += [f"curvature.py:{call.lineno}: contracting einsum in {name}"
              for name in ("_riemann", "_christoffel_parts")
              for call in einsum_calls(kernels[name]) if not is_transposing(call)]
    assert not found, f"einsum kernels left: {found}"


def test_transposing_einsums_are_told_from_contractions():
    calls = {text: einsum_calls(ast.parse(text))[0] for text in (
        'np.einsum("...jikl->...klij", X)', 'np.einsum("...abcd,...af->...cdbf", X, M)',
        'np.einsum("ii->i", X)', 'np.einsum("ab->a", X)', "np.einsum(spec, X)")}
    assert [is_transposing(c) for c in calls.values()] == [True, False, False, False, False]


@pytest.mark.parametrize("chart", [gd.hopf_chart(6), gd.admissible_chart(
    gd.hopf_spec(2, 0.5, A=[[0.2, 0.0], [0.0, 0.1]]))], ids=lambda chart: chart.label)
def test_hopf_family_walks_three_nodes(chart):
    # The components are c0 over one closed-form quadratic form: a walk of
    # them all evaluates the quotient, the form and the off-diagonal zero,
    # where the trees of |z|^2 and xi_A took 25 to 29 nodes.
    Z = np.array(gd.sample_points(chart, 3, 0))
    walk = wjet._BatchWalk(Z)
    for row in chart.g:
        for f in row:
            walk(f)
    assert len(walk._memo) <= 3


def test_abs2_and_xi_build_no_tree():
    # |z|^2 and xi_A are one `Quadratic` each: their constructors name no
    # `Add` or `Mul` node and no coordinate leaf.
    found = []
    for path, name in ((SRC / "wjet.py", "abs2"), (SRC / "catalog.py", "xi_field")):
        [func] = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(node, ast.FunctionDef) and node.name == name]
        found += [f"{name}: {node.id}" for node in ast.walk(func) if isinstance(node, ast.Name)
                  and node.id in ("Add", "Mul", "Coord", "CoordBar", "z", "zbar")]
    assert not found, f"quadratic forms built as trees: {found}"
    assert isinstance(gd.abs2(3), wjet.Quadratic)
    assert isinstance(gd.xi_field(gd.hopf_spec(2, 0.5, A=[[0.2, 0.0], [0.0, 0.1]])),
                      wjet.Quadratic)
