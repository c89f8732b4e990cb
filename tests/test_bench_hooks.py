"""The bench tracer's named hot spots exist in flagdyn.

``bench/tracer.py`` wraps each (module, attribute path) of ``HOT_SPOTS``
at runtime and raises if one is missing, so a refactor that renames a
hot spot breaks ``bench/run.py --trace 1``. The list is read with ``ast``
so the bench itself is not imported. The keywords ``bench/workloads.py``
passes to ``conedoff.Presentation`` are read the same way.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

from flagdyn.conedoff import ConedGraph, Presentation
from flagdyn.linalg import Matrix
from flagdyn.synth import _ConicalSearcher
from flagdyn.words import GroupPresentation, parse_word

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def _hot_spots():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOT_SPOTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("HOT_SPOTS not found")


def test_every_hot_spot_resolves():
    spots = _hot_spots()
    assert len(spots) > 10
    missing = []
    for module, attr, _, _ in spots:
        owner = importlib.import_module(f"flagdyn.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer rebinds methods on the class that defines them
            ok = meth in vars(getattr(owner, cls_name, object))
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_coned_graph_counts_interned_elements():
    # Sanov's free subgroup of PGL(2, Z)
    rho = GroupPresentation(dim=2, generators={"a": Matrix([[1, 2], [0, 1]]),
                                               "b": Matrix([[1, 0], [2, 1]])})
    graph = ConedGraph(Presentation(generators=["a", "b"], peripherals=[("pa", "a")], rho=rho),
                       truncation=3)
    graph.distance((), parse_word("b a^2"), 5)
    assert len(graph._elems) > 1


def test_image_arcs_takes_centers_first():
    # the tracer counts synth.image_arcs.rows as len(args[1])
    params = list(inspect.signature(_ConicalSearcher._image_arcs).parameters)
    assert params[:2] == ["self", "centers"]


def test_bench_presentation_keywords_are_fields():
    calls = [node for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "Presentation"
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "conedoff"]
    assert calls
    fields = {f.name for f in dataclasses.fields(Presentation)}
    assert all(not call.args for call in calls)
    assert {kw.arg for call in calls for kw in call.keywords} <= fields
