"""The bench tracer's named hot spots exist in flagdyn.

``bench/tracer.py`` wraps each (module, attribute path) of ``HOT_SPOTS``
at runtime and raises if one is missing, so a refactor that renames a
hot spot breaks ``bench/run.py --trace 1``. The list is read with ``ast``
so the bench itself is not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

from flagdyn.conedoff import ConedGraph, Presentation
from flagdyn.synth import _ConicalSearcher
from flagdyn.words import parse_word

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
    graph = ConedGraph(Presentation(generators=["a", "b"], peripherals=[("pa", "a")]),
                       truncation=3)
    graph.distance((), parse_word("b a^2"), 5)
    assert len(graph._elems) > 1


def test_image_arcs_takes_centers_first():
    # the tracer counts synth.image_arcs.rows as len(args[1])
    params = list(inspect.signature(_ConicalSearcher._image_arcs).parameters)
    assert params[:2] == ["self", "centers"]
