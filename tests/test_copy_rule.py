"""The one rule for what the package's constructors copy (``map_model._frozen``).

``SlamMap``, ``FlowGraph``, ``FlowResult`` and ``SelectionResult`` keep an array
argument as it is only when it is read-only, of the constructor's dtype and
owns its data; they copy any other, so that no caller can later write through
to them.
"""

import tracemalloc

import numpy as np
import pytest

from mapsparse.flow_graph import FlowGraph, GraphConfig, build_graph
from mapsparse.map_model import SlamMap
from mapsparse.mcmf import FlowResult, solve
from mapsparse.sparsifier import SelectionResult
from mapsparse.synth import SynthConfig, generate

SOURCE_MAP, _ = generate(SynthConfig(n_points=2000, n_keyframes=20, trajectory_scale=2.0, extent=12.0,
                                     dropout=0.4, seed=3))
SOURCE_GRAPH = build_graph(SOURCE_MAP, GraphConfig(capacity_m=100))


def map_columns(slam_map):
    return (slam_map.points.id, slam_map.points.xyz, *slam_map.observations._columns)


def graph_columns(graph):
    return graph.point_ids, graph.pairs, graph.tail, graph.head, graph.capacity, graph.cost


def selection_columns(selection):
    return (selection.kept_point_ids, selection.dropped_point_ids, selection.culled_keyframe_ids,
            selection.underviewed_point_ids, selection.point_flow)


# Per constructor: its array arguments (sorted, so that none needs a sort), how
# it is built from them, and the arrays it then holds for them, in that order.
CONSTRUCTORS = {
    "SlamMap": (map_columns(SOURCE_MAP), lambda columns: SlamMap(SOURCE_MAP.keyframes, *columns), map_columns),
    "FlowGraph": (graph_columns(SOURCE_GRAPH), lambda columns: FlowGraph(*columns), graph_columns),
    "FlowResult": ((solve(SOURCE_GRAPH).edge_flows,), lambda columns: FlowResult(*columns, 0, 0),
                   lambda result: (result.edge_flows,)),
    "SelectionResult": (
        (np.array([1, 5, 9]), np.array([2, 3]), np.array([0, 4]), np.array([7]), np.array([[1, 4, 6], [5, 0, 1]])),
        lambda columns: SelectionResult(*columns, None, None, 10, 5),
        selection_columns,
    ),
}


def fresh(columns, writeable):
    copies = [np.array(c) for c in columns]
    for c in copies:
        c.flags.writeable = writeable
    return copies


@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_a_read_only_array_that_owns_its_data_is_kept(name):
    columns, build, held = CONSTRUCTORS[name]
    given = fresh(columns, writeable=False)
    for a, b in zip(held(build(given)), given, strict=True):
        assert np.shares_memory(a, b)


@pytest.mark.parametrize("kind", ["writable", "read-only view"])
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_any_other_array_is_copied_and_later_writes_leave_the_object_unchanged(name, kind):
    columns, build, held = CONSTRUCTORS[name]
    owners = fresh(columns, writeable=True)
    given = owners
    if kind == "read-only view":
        given = [a.view() for a in owners]
        for a in given:
            a.flags.writeable = False
    built = build(given)
    snapshot = [a.copy() for a in held(built)]
    for a, b in zip(held(built), owners, strict=True):
        assert not np.shares_memory(a, b)
        assert not a.flags.writeable
    for a in owners:
        a[...] = 0
    for a, b in zip(held(built), snapshot, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", ["SlamMap", "FlowGraph"])
def test_building_from_sealed_arrays_holds_less_than_their_bytes(name):
    # Copying every input held 1.0x (FlowGraph) and 1.4x (SlamMap, with its index arrays) of the inputs' bytes.
    columns, build, _ = CONSTRUCTORS[name]
    given = fresh(columns, writeable=False)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build(given)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert built is not None
    assert held < sum(a.nbytes for a in given)
