"""The node and record classes' public surface, and what importing the CLI loads.

The expected values were recorded when the 16 classes were frozen dataclasses;
they pin that the plain __slots__ classes behave the same way.
"""

import inspect
import itertools
import os
import subprocess
import sys

import pytest

import cwkit
from cwkit import (CheckResult, CoverFamily, CwExpr, DecompositionResult, Graph, Join,
                   Leaf, MinorModel, Partition, PartitionQiReport, QiMap, QiReport, Recolor,
                   TreeDecomposition, Union, ValidationReport, VerificationReport, Violation)

PAIR = "Union(left=Leaf(vertex='a', color=1), right=Leaf(vertex='b', color=2))"

# class -> (a builder of a sample, its parameters, the defaulted ones, whether
# it hashes, its repr)
SURFACE = {
    Leaf: (lambda: Leaf(vertex="a", color=1),
           ["vertex", "color"], {}, True, "Leaf(vertex='a', color=1)"),
    Union: (lambda: Union(Leaf("a", 1), Leaf("b", 2)),
            ["left", "right"], {}, True, PAIR),
    Recolor: (lambda: Recolor(2, 1, Union(Leaf("a", 1), Leaf("b", 2))),
              ["old_color", "new_color", "child"], {}, True,
              f"Recolor(old_color=2, new_color=1, child={PAIR})"),
    Join: (lambda: Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2))),
           ["color_a", "color_b", "child"], {}, True,
           f"Join(color_a=1, color_b=2, child={PAIR})"),
    CwExpr: (lambda: CwExpr(2, Join(1, 2, Union(Leaf("a", 1), Leaf("b", 2)))),
             ["k", "root"], {}, True,
             f"CwExpr(k=2, root=Join(color_a=1, color_b=2, child={PAIR}))"),
    Violation: (lambda: Violation((0, 1), "DUP_VERTEX", "vertex id 'a' again"),
                ["path", "rule", "message"], {}, True,
                "Violation(path=(0, 1), rule='DUP_VERTEX', message=\"vertex id 'a' again\")"),
    ValidationReport: (lambda: ValidationReport((Violation((), "COLOR_RANGE", "m"),)),
                       ["violations"], {}, True,
                       "ValidationReport(violations=(Violation(path=(), rule='COLOR_RANGE', "
                       "message='m'),))"),
    CheckResult: (lambda: CheckResult("tree_valid", False, "not a tree"),
                  ["name", "ok", "witness"], {"witness": None}, True,
                  "CheckResult(name='tree_valid', ok=False, witness='not a tree')"),
    VerificationReport: (lambda: VerificationReport((CheckResult("x", True),)),
                         ["checks"], {}, True,
                         "VerificationReport(checks=(CheckResult(name='x', ok=True, "
                         "witness=None),))"),
    QiMap: (lambda: QiMap(Graph(["a", "b"], [("a", "b")]), Graph(["a", "b"], [("a", "b")]),
                          {"a": "b", "b": "a"}, 2),
            ["source", "target", "mapping", "c"], {}, False,
            "QiMap(source=Graph(2 vertices, 1 edges), target=Graph(2 vertices, 1 edges), "
            "mapping={'a': 'b', 'b': 'a'}, c=2)"),
    QiReport: (lambda: QiReport(2.0, True, None, True, None, -1.5, 0, 0, lower_is_bound=True),
               ["c", "bounds_ok", "bounds_witness", "density_ok", "density_witness",
                "worst_lower_margin", "worst_upper_margin", "density_worst", "lower_is_bound"],
               {"lower_is_bound": False}, True,
               "QiReport(c=2.0, bounds_ok=True, bounds_witness=None, density_ok=True, "
               "density_witness=None, worst_lower_margin=-1.5, worst_upper_margin=0, "
               "density_worst=0, lower_is_bound=True)"),
    PartitionQiReport: (lambda: PartitionQiReport(1, True, None, False,
                                                  ("a", "b", "dist 1 maps to 2"), -0.5, 1),
                        ["c", "lower_ok", "lower_witness", "upper_ok", "upper_witness",
                         "worst_lower_margin", "worst_upper_margin", "lower_is_bound"],
                        {"lower_is_bound": False}, True,
                        "PartitionQiReport(c=1, lower_ok=True, lower_witness=None, "
                        "upper_ok=False, upper_witness=('a', 'b', 'dist 1 maps to 2'), "
                        "worst_lower_margin=-0.5, worst_upper_margin=1, lower_is_bound=False)"),
    CoverFamily: (lambda: CoverFamily([[{3, 1}, {2}]], 1, 4),
                  ["collections", "r", "diameter_bound"], {}, True,
                  "CoverFamily(collections=((frozenset({1, 3}), frozenset({2})),), r=1, "
                  "diameter_bound=4)"),
    DecompositionResult: (lambda: DecompositionResult(
                              Partition({"p": ["a", "b"]}), {"p": 1},
                              TreeDecomposition(Graph([0], []), {0: {"p"}}), 0),
                          ["partition", "part_colors", "tree", "rainbow_node"], {}, False,
                          "DecompositionResult(partition=Partition(1 parts over 2 vertices), "
                          "part_colors={'p': 1}, tree=TreeDecomposition(1 nodes), "
                          "rainbow_node=0)"),
    MinorModel: (lambda: MinorModel({"x": {1}, "y": {2}}, {("x", "y"): {3}}),
                 ["branch_sets", "edge_paths"], {}, False,
                 "MinorModel(branch_sets={'x': frozenset({1}), 'y': frozenset({2})}, "
                 "edge_paths={('x', 'y'): frozenset({3})})"),
}

ALL = ['CheckResult', 'ColoredGraph', 'ContractError', 'CoverFamily', 'CwExpr',
       'CwkitError', 'DecompositionResult', 'Graph', 'INFINITE', 'InputError', 'Join',
       'Leaf', 'MinorModel', 'ParseError', 'Partition', 'PartitionQiReport', 'QiMap',
       'QiReport', 'Recolor', 'SizeCapError', 'TreeDecomposition', 'Union',
       'ValidationReport', 'VerificationReport', 'Violation', 'bfs_distances',
       'brute_treewidth', 'build_minor_model', 'check_partqi_tight', 'check_qi',
       'closed_r_neighborhood', 'complete_graph', 'connected_components',
       'cover_by_components', 'cover_from_json_dict', 'cover_to_json_dict', 'decompose',
       'evaluate', 'format_expr', 'gen_path', 'gen_spider', 'gen_subdivided_clique',
       'generate_corpus', 'graph_from_json_dict', 'graph_to_dot', 'graph_to_json_dict',
       'is_connected', 'is_dominated', 'is_tree', 'model_to_json_dict', 'normalize', 'parse',
       'projection_map', 'pullback_cover', 'qimap_from_json_dict', 'quotient',
       'random_strict_expr', 'read_cwx', 'result_to_dot', 'result_to_json_dict',
       'set_distance', 'subdivide', 'subdivision_path', 'td_to_dot', 'td_to_json_dict',
       'validate_cover', 'validate_minor_model', 'validate_strict', 'validate_td',
       'verify_result', 'weak_diameter', 'width', 'write_cwx']


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_class_surface_is_unchanged(cls):
    make, params, defaults, hashes, text = SURFACE[cls]
    signature = inspect.signature(cls).parameters.values()
    assert [p.name for p in signature] == params
    assert {p.kind for p in signature} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert {p.name: p.default for p in signature if p.default is not p.empty} == defaults
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if hashes:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    assert repr(a) == text
    field = params[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert a == b


def test_objects_of_other_classes_are_unequal():
    samples = [make() for make, *_ in SURFACE.values()]
    for a, b in itertools.permutations(samples, 2):
        assert a != b and not a == b
    # the same field values in two classes
    child, other = Leaf("a", 1), Leaf("b", 2)
    assert Recolor(1, 2, child) != Join(1, 2, child)
    assert Union(Recolor(1, 2, child), other) != Union(Join(1, 2, child), other)
    assert CheckResult("x", True) != ("x", True, None)


def test_a_field_differs_so_the_records_do():
    assert CheckResult("x", True) != CheckResult("x", False)
    assert Union(Leaf("a", 1), Leaf("b", 2)) != Union(Leaf("a", 1), Leaf("b", 3))
    assert CwExpr(2, Leaf("a", 1)) != CwExpr(3, Leaf("a", 1))


def test_with_c_builds_through_the_constructor():
    m = SURFACE[QiMap][0]()
    assert m.with_c(3).c == 3.0 and m.with_c(3).mapping == m.mapping
    with pytest.raises(cwkit.InputError, match="positive and finite"):
        m.with_c(0)


def test_all_is_unchanged():
    assert cwkit.__all__ == ALL


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cwkit.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cwkit.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
