"""Anatomy of the point/frame-pair flow graph on a tiny hand-built map.

Four keyframes share three points: point 0 is seen by frames 0+1, point 1 by
all four frames, point 2 by frames 2+3. The script prints each frame pair of
the resulting graph with the points whose edges enter it, every edge with its
capacity and cost, and the per-edge flows after the min-cost max-flow solve.
"""

from mapsparse import (
    CameraIntrinsics,
    GraphConfig,
    Keyframe,
    Pose,
    SlamMap,
    build_graph,
    solve,
)

INTR = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)


def frame(fid, z):
    return Keyframe(
        id=fid, seq_index=fid, timestamp=0.1 * fid,
        pose=Pose(q=(1.0, 0.0, 0.0, 0.0), t=(0.0, 0.0, float(z))),
        intrinsics=INTR,
    )


# Points and observations go in as columns: point ids and positions, then
# one (point, frame, u, v) entry per observation.
slam_map = SlamMap(
    keyframes=[frame(0, 0), frame(1, 10), frame(2, 30), frame(3, 90)],
    point_id=[0, 1, 2],
    xyz=[(0.0, 0.0, 5.0), (1.0, 0.0, 5.0), (2.0, 0.0, 5.0)],
    obs_point_id=[0, 0, 1, 1, 1, 1, 2, 2],
    obs_keyframe_id=[0, 1, 0, 1, 2, 3, 2, 3],
    u=[50, 50, 300, 300, 300, 300, 550, 550],
    v=[50, 50, 240, 240, 240, 240, 400, 400],
)

graph = build_graph(slam_map, GraphConfig(capacity_m=2))
print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")

# Vertex 0 is the source, then the points, then the frame pairs, then the sink.
print("frame pairs (frame_a, frame_b) <- the points whose edges enter them")
tail, head = graph.tail[graph.middle], graph.head[graph.middle]
first_pair = len(graph.point_ids) + 1
for j, (a, b) in enumerate(graph.pairs.tolist()):
    print(f"  ({a}, {b}) <- {graph.point_ids[tail[head == first_pair + j] - 1].tolist()}")

print()
print("point 1 is seen by all four frames, so its source edge is the cheapest")
print("and its capacity 6 covers all six frame pairs:\n")

labels = [("source",)]
labels += [("point", pid) for pid in graph.point_ids.tolist()]
labels += [("pair", a, b) for a, b in graph.pairs.tolist()]
labels += [("sink",)]

result = solve(graph)
print(f"{'edge':<34}{'cap':>4}{'cost':>6}{'flow':>6}")
for e, f in zip(graph.edges, result.edge_flows.tolist()):
    print(f"{str(labels[e.tail]) + ' -> ' + str(labels[e.head]):<34}{e.capacity:>4}{e.cost:>6}{f:>6}")

print(f"\ntotal flow {result.total_flow}, total cost {result.total_cost}")
