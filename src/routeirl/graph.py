"""Directed road graphs with padded out-edge slots, plus compression transforms.

Nodes are road states, edges are transitions with nonnegative feature
vectors.  Adjacency is stored as a dense (S, V) slot table so planners can
vectorize over all states at once; invalid slots hold a -1 sentinel and must
never be dereferenced.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

SENTINEL = -1


@dataclass
class RoadGraph:
    """Immutable padded digraph.  Mutating a built graph is not supported;
    transforms return new instances."""

    num_nodes: int
    max_out_degree: int
    slot_target: np.ndarray      # (S, V) int64, SENTINEL where invalid
    slot_edge: np.ndarray        # (S, V) int64, SENTINEL where invalid
    edge_src: np.ndarray         # (E,) int64
    edge_dst: np.ndarray         # (E,) int64
    features: np.ndarray         # (E, d) float64, nonnegative
    coords: np.ndarray           # (S, 2) float64
    connector_flags: np.ndarray  # (E,) bool, True for zero-feature padding edges

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def slot_valid(self) -> np.ndarray:
        return self.slot_edge >= 0

    @cached_property
    def out_degree(self) -> np.ndarray:
        return self.slot_valid.sum(axis=1).astype(np.int64)

    @cached_property
    def in_degree(self) -> np.ndarray:
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self.edge_dst, 1)
        return deg

    @cached_property
    def edge_slot(self) -> np.ndarray:
        """Slot position of each edge within its source row."""
        pos = np.full(self.num_edges, SENTINEL, dtype=np.int64)
        rows, cols = np.nonzero(self.slot_valid)
        pos[self.slot_edge[rows, cols]] = cols
        return pos

    def out_edges(self, node: int) -> list[int]:
        row = self.slot_edge[node]
        return [int(e) for e in row if e >= 0]

    def edges_between(self, src: int, dst: int) -> list[int]:
        """Edge ids from src to dst, ascending (parallel edges possible)."""
        row = self.slot_edge[src]
        hits = [int(e) for e, t in zip(row, self.slot_target[src]) if e >= 0 and t == dst]
        return sorted(hits)


def build_graph(
    node_records: Iterable[tuple],
    edge_records: Iterable[tuple],
    connector_edge_ids: Iterable[int] = (),
) -> RoadGraph:
    """Assemble a RoadGraph from explicit records.

    node_records: (node_id, x, y) with ids exactly 0..S-1.
    edge_records: (edge_id, src, dst, feature_seq) with ids exactly 0..E-1.
    Slot order within each row is (target id, edge id) ascending, so the
    padded layout is a pure function of the records.
    """
    nodes = sorted(node_records, key=lambda r: r[0])
    if not nodes:
        raise ValidationError("graph needs at least one node")
    ids = [int(r[0]) for r in nodes]
    S = len(ids)
    if ids != list(range(S)):
        raise ValidationError("node ids must be exactly 0..S-1 without gaps")
    coords = np.array([[float(r[1]), float(r[2])] for r in nodes], dtype=np.float64)

    edges = sorted(edge_records, key=lambda r: r[0])
    E = len(edges)
    eids = [int(r[0]) for r in edges]
    if eids != list(range(E)):
        raise ValidationError("edge ids must be exactly 0..E-1 without gaps")

    edge_src = np.zeros(E, dtype=np.int64)
    edge_dst = np.zeros(E, dtype=np.int64)
    feats: list[np.ndarray] = []
    dim = None
    for eid, src, dst, fv in edges:
        src, dst = int(src), int(dst)
        if not (0 <= src < S) or not (0 <= dst < S):
            raise ValidationError(f"edge {eid} references missing node ({src}->{dst})")
        f = np.asarray(fv, dtype=np.float64).ravel()
        if dim is None:
            dim = f.shape[0]
        elif f.shape[0] != dim:
            raise ValidationError(
                f"edge {eid} has {f.shape[0]} features, expected {dim}")
        if np.any(f < 0) or not np.all(np.isfinite(f)):
            raise ValidationError(f"edge {eid} has negative or non-finite features")
        edge_src[eid] = src
        edge_dst[eid] = dst
        feats.append(f)
    features = np.vstack(feats) if feats else np.zeros((0, dim or 0), dtype=np.float64)

    connectors = np.zeros(E, dtype=bool)
    for cid in connector_edge_ids:
        if not (0 <= cid < E):
            raise ValidationError(f"connector flag references missing edge {cid}")
        connectors[cid] = True
    if E and np.any(features[connectors] != 0.0):
        raise ValidationError("connector edges must carry all-zero features")

    per_node: list[list[tuple[int, int]]] = [[] for _ in range(S)]
    for eid in range(E):
        per_node[edge_src[eid]].append((int(edge_dst[eid]), eid))
    V = max((len(lst) for lst in per_node), default=0)
    slot_target = np.full((S, V), SENTINEL, dtype=np.int64)
    slot_edge = np.full((S, V), SENTINEL, dtype=np.int64)
    for s, lst in enumerate(per_node):
        lst.sort()
        for v, (dst, eid) in enumerate(lst):
            slot_target[s, v] = dst
            slot_edge[s, v] = eid

    return RoadGraph(
        num_nodes=S,
        max_out_degree=V,
        slot_target=slot_target,
        slot_edge=slot_edge,
        edge_src=edge_src,
        edge_dst=edge_dst,
        features=features,
        coords=coords,
        connector_flags=connectors,
    )


@dataclass
class GoalView(object):
    """A graph conditioned on one destination.

    The destination is absorbing: its real out-edges are masked and planners
    pin its value to zero.  Everything else is shared with the base graph.
    """

    graph: RoadGraph
    destination: int

    def __post_init__(self) -> None:
        if not (0 <= self.destination < self.graph.num_nodes):
            raise ValidationError(f"destination {self.destination} not in graph")

    @cached_property
    def slot_valid(self) -> np.ndarray:
        mask = self.graph.slot_valid.copy()
        mask[self.destination, :] = False
        return mask

    @cached_property
    def safe_targets(self) -> np.ndarray:
        """slot_target with 0 on invalid slots, so fancy indexing is safe."""
        return np.where(self.slot_valid, self.graph.slot_target, 0)

    @cached_property
    def edge_valid(self) -> np.ndarray:
        mask = np.ones(self.graph.num_edges, dtype=bool)
        mask[self.graph.edge_src == self.destination] = False
        return mask


@dataclass(frozen=True)
class Trajectory:
    """A loop-free path: node sequence plus the edge ids it induces."""

    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 1 or len(self.nodes) != len(self.edges) + 1:
            raise ValidationError("trajectory needs >= 1 edge and aligned nodes")
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("trajectory repeats an edge id")

    @property
    def origin(self) -> int:
        return self.nodes[0]

    @property
    def destination(self) -> int:
        return self.nodes[-1]

    @classmethod
    def from_nodes(cls, graph: RoadGraph, node_seq: Sequence[int]) -> "Trajectory":
        """Resolve a node sequence to edges; parallel edges resolve to the
        smallest edge id."""
        nodes = tuple(int(n) for n in node_seq)
        edges = []
        for u, w in zip(nodes[:-1], nodes[1:]):
            if not (0 <= u < graph.num_nodes):
                raise ValidationError(f"trajectory references missing node {u}")
            cands = graph.edges_between(u, w)
            if not cands:
                raise ValidationError(f"no edge {u}->{w} in graph")
            edges.append(cands[0])
        return cls(nodes=nodes, edges=tuple(edges))

    def validate(self, graph: RoadGraph) -> None:
        for eid, u, w in zip(self.edges, self.nodes[:-1], self.nodes[1:]):
            if not (0 <= eid < graph.num_edges):
                raise ValidationError(f"trajectory references missing edge {eid}")
            if graph.edge_src[eid] != u or graph.edge_dst[eid] != w:
                raise ValidationError(f"edge {eid} does not run {u}->{w}")


# ---------------------------------------------------------------------------
# compression bookkeeping


@dataclass
class MergeMap:
    """How a compressed graph relates to the graph it was compressed from.

    Two tables are the whole record.  edge_expansion[c] lists, in path
    order, the original edges that compressed edge c stands for: the edge
    itself if it survived, the whole run if it is a merged chain, nothing if
    it is a connector (a zero-feature edge split_high_degree adds from a
    high-degree node to its continuation node).  node_image maps each
    surviving original node to its compressed id.  Trajectories translate
    both ways from these tables alone, and save_merge_map/load_merge_map
    round-trip them exactly.
    """

    edge_expansion: list[tuple[int, ...]]
    node_image: dict[int, int]

    @cached_property
    def _edge_start(self) -> dict[int, int]:
        """Original edge -> the compressed edge whose expansion starts with it."""
        return {exp[0]: c for c, exp in enumerate(self.edge_expansion) if exp}

    def expand_edges(self, edges: Sequence[int]) -> tuple[int, ...]:
        out: list[int] = []
        for e in edges:
            out.extend(self.edge_expansion[e])
        return tuple(out)


def compose_merge_maps(first: MergeMap, second: MergeMap) -> MergeMap:
    """first maps original->mid, second maps mid->final."""
    expansion = [first.expand_edges(second.edge_expansion[e])
                 for e in range(len(second.edge_expansion))]
    node_image = {}
    for orig, mid in first.node_image.items():
        if mid in second.node_image:
            node_image[orig] = second.node_image[mid]
    return MergeMap(edge_expansion=expansion, node_image=node_image)


def compress_trajectory(traj: Trajectory, mmap: MergeMap, compressed: RoadGraph) -> Trajectory:
    """Walk the compressed graph along an original-graph trajectory.

    Each step takes the compressed edge whose expansion starts with the next
    original edge and must follow that expansion to its end.  Where that
    edge leaves from a continuation node, the walk first takes the current
    node's connector, as often as needed.
    """
    if traj.origin not in mmap.node_image:
        raise ValidationError(f"trajectory origin {traj.origin} was merged away")
    expansion, start = mmap.edge_expansion, mmap._edge_start
    node = mmap.node_image[traj.origin]
    nodes, edges = [node], []
    i = 0
    while i < len(traj.edges):
        c = start.get(traj.edges[i])
        if c is None:
            raise ValidationError(
                f"edge {traj.edges[i]} was merged away or is entered mid-chain")
        exp = expansion[c]
        if traj.edges[i:i + len(exp)] != exp:
            raise ValidationError("edge sequence enters a merged chain but does not follow it")
        while node != compressed.edge_src[c]:
            conn = next((int(x) for x in compressed.slot_edge[node]
                         if x >= 0 and not expansion[x]), None)
            if conn is None or conn in edges:
                raise ValidationError("compressed edges do not chain")
            edges.append(conn)
            node = int(compressed.edge_dst[conn])
            nodes.append(node)
        edges.append(c)
        node = int(compressed.edge_dst[c])
        nodes.append(node)
        i += len(exp)
    return Trajectory(nodes=tuple(nodes), edges=tuple(edges))


def expand_trajectory(traj: Trajectory, mmap: MergeMap, original: RoadGraph) -> Trajectory:
    edges = mmap.expand_edges(traj.edges)
    if not edges:
        raise ValidationError("trajectory expands to no real edges")
    nodes = [int(original.edge_src[edges[0]])]
    for e in edges:
        if original.edge_src[e] != nodes[-1]:
            raise ValidationError("expanded edges do not chain in the original graph")
        nodes.append(int(original.edge_dst[e]))
    return Trajectory(nodes=tuple(nodes), edges=tuple(edges))


# ---------------------------------------------------------------------------
# compression transforms


def split_high_degree(g: RoadGraph, v_cap: int) -> tuple[RoadGraph, MergeMap]:
    """Cap out-degrees at v_cap by spilling surplus edges onto continuation
    nodes reached through zero-feature connector edges.

    A node with k > v_cap out-edges keeps its first v_cap - 1 (slot order)
    plus one connector; the continuation node receives the rest, recursively.
    Path rewards are unchanged because connector rewards are pinned to zero.
    """
    if v_cap < 2:
        raise ValidationError("v_cap must be >= 2 (one real edge plus connector)")

    node_records = [(s, g.coords[s, 0], g.coords[s, 1]) for s in range(g.num_nodes)]
    edge_records: list[tuple] = [
        (e, int(g.edge_src[e]), int(g.edge_dst[e]), g.features[e])
        for e in range(g.num_edges)
    ]
    connector_ids = [e for e in range(g.num_edges) if g.connector_flags[e]]
    next_node = g.num_nodes
    next_edge = g.num_edges
    node_origin = list(range(g.num_nodes))

    for s in range(g.num_nodes):
        row = [(int(t), int(e)) for t, e in zip(g.slot_target[s], g.slot_edge[s]) if e >= 0]
        row.sort()
        holder = s
        while len(row) > v_cap:
            rest = row[v_cap - 1:]
            cont = next_node
            next_node += 1
            node_origin.append(s)
            connector_ids.append(next_edge)
            edge_records.append((next_edge, holder, cont, np.zeros(g.feature_dim)))
            next_edge += 1
            # retarget the surplus onto the continuation node
            for _, eid in rest:
                edge_records[eid] = (eid, cont, edge_records[eid][2], edge_records[eid][3])
            holder = cont
            row = rest

    out = build_graph(node_records + [(i, g.coords[node_origin[i], 0], g.coords[node_origin[i], 1])
                                      for i in range(g.num_nodes, next_node)],
                      edge_records, connector_edge_ids=connector_ids)
    mmap = MergeMap(
        edge_expansion=[(e,) if e < g.num_edges else () for e in range(next_edge)],
        node_image={s: s for s in range(g.num_nodes)},
    )
    return out, mmap


def merge_chains(g: RoadGraph, protected: Iterable[int] = ()) -> tuple[RoadGraph, MergeMap]:
    """Collapse runs of single-out-edge nodes into their downstream neighbor,
    summing features along the run.

    Guards: protected nodes (recorded origins/destinations) are never
    interior to a merge, and a merge that would create a self-loop or close
    a cycle is skipped.  Lossless for linear reward models because feature
    sums are preserved.
    """
    protected_set = set(int(p) for p in protected)
    out_deg = g.out_degree
    eligible = np.array([
        out_deg[s] == 1 and s not in protected_set
        for s in range(g.num_nodes)
    ])
    single_out_edge = np.full(g.num_nodes, SENTINEL, dtype=np.int64)
    for s in range(g.num_nodes):
        if out_deg[s] == 1:
            single_out_edge[s] = g.out_edges(s)[0]

    # A node is removed only if every edge into it is consumed.  A chain
    # skipped for closing a cycle can leave an edge into a node another
    # chain removed; such nodes become ineligible and the walk reruns.
    while True:
        consumed_edges: set[int] = set()
        removed_nodes: set[int] = set()
        # src, dst, feats, chain
        merged: list[tuple[int, int, np.ndarray, tuple[int, ...]]] = []

        for e in range(g.num_edges):
            src, dst = int(g.edge_src[e]), int(g.edge_dst[e])
            if not eligible[dst] or eligible[src]:
                continue  # walks start where a chain is entered from a non-chain node
            chain = [e]
            feats = g.features[e].copy()
            seen = {src, dst}
            cur = dst
            ok = True
            while eligible[cur]:
                nxt_edge = int(single_out_edge[cur])
                nxt = int(g.edge_dst[nxt_edge])
                if nxt == src or nxt in seen:
                    ok = False  # self-loop or cycle; leave this chain intact
                    break
                chain.append(nxt_edge)
                feats = feats + g.features[nxt_edge]
                seen.add(nxt)
                cur = nxt
            if not ok or len(chain) == 1:
                continue
            if any(g.connector_flags[c] for c in chain):
                # merging a connector would strand its zero-feature bookkeeping;
                # in practice connectors never sit inside chains because their
                # endpoints keep degree >= 2
                continue
            merged.append((src, cur, feats, tuple(chain)))
            consumed_edges.update(chain)
            removed_nodes.update(seen - {src, cur})

        # orphan runs: single-out nodes nobody enters; drop them and their edge
        changed = True
        in_deg = g.in_degree.copy()
        for e in consumed_edges:
            in_deg[g.edge_dst[e]] -= 1
        while changed:
            changed = False
            for s in range(g.num_nodes):
                if (eligible[s] and s not in removed_nodes and in_deg[s] == 0
                        and single_out_edge[s] not in consumed_edges):
                    e = int(single_out_edge[s])
                    consumed_edges.add(e)
                    removed_nodes.add(s)
                    in_deg[g.edge_dst[e]] -= 1
                    changed = True

        kept = np.ones(g.num_edges, dtype=bool)
        kept[list(consumed_edges)] = False
        gone = np.zeros(g.num_nodes, dtype=bool)
        gone[list(removed_nodes)] = True
        blocked = g.edge_dst[kept & gone[g.edge_dst]]
        if blocked.size == 0:
            break
        eligible[blocked] = False

    surviving_nodes = [s for s in range(g.num_nodes) if s not in removed_nodes]
    node_new = {s: i for i, s in enumerate(surviving_nodes)}
    node_records = [(node_new[s], g.coords[s, 0], g.coords[s, 1]) for s in surviving_nodes]

    edge_records = []
    connector_ids = []
    expansion: list[tuple[int, ...]] = []
    nid = 0
    for e in range(g.num_edges):
        if e in consumed_edges:
            continue
        edge_records.append((nid, node_new[int(g.edge_src[e])],
                             node_new[int(g.edge_dst[e])], g.features[e]))
        if g.connector_flags[e]:
            connector_ids.append(nid)
        expansion.append((e,))
        nid += 1
    for src, dst, feats, chain in merged:
        edge_records.append((nid, node_new[src], node_new[dst], feats))
        expansion.append(chain)
        nid += 1

    out = build_graph(node_records, edge_records, connector_edge_ids=connector_ids)
    return out, MergeMap(edge_expansion=expansion, node_image=node_new)


def compress_graph(g: RoadGraph, v_cap: int, protected: Iterable[int] = ()) -> tuple[RoadGraph, MergeMap]:
    """Split high-degree nodes first, then merge chains."""
    split, m1 = split_high_degree(g, v_cap)
    merged, m2 = merge_chains(split, protected=[m1.node_image[p] for p in protected])
    return merged, compose_merge_maps(m1, m2)


# ---------------------------------------------------------------------------
# synthetic generators


def gen_gridworld(
    width: int,
    height: int,
    feature_spec: str = "constant",
    rng_seed: int = 0,
    feature_dim: int = 2,
    segments_per_block: int = 1,
) -> RoadGraph:
    """4-connected bidirectional grid.

    Each block (directed edge between adjacent intersections) can be split
    into segments_per_block chained segments through intermediate degree-1
    nodes, mimicking how road maps subdivide long ways; features divide
    evenly across the segments so chain merging restores the block exactly.
    """
    if width < 1 or height < 1:
        raise ValidationError("grid dimensions must be positive")
    if segments_per_block < 1:
        raise ValidationError("segments_per_block must be >= 1")
    if feature_spec not in ("constant", "random"):
        raise ValidationError(f"unknown feature_spec {feature_spec!r}")
    rng = np.random.default_rng(rng_seed)

    def nid(r: int, c: int) -> int:
        return r * width + c

    node_records = [(nid(r, c), float(c), float(r))
                    for r in range(height) for c in range(width)]
    blocks: list[tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            if c + 1 < width:
                blocks.append((nid(r, c), nid(r, c + 1)))
            if r + 1 < height:
                blocks.append((nid(r, c), nid(r + 1, c)))

    edge_records: list[tuple] = []
    next_node = width * height
    next_edge = 0
    k = segments_per_block
    for u, w in blocks:
        for a, b in ((u, w), (w, u)):
            if feature_spec == "constant":
                f = np.ones(feature_dim)
            else:
                f = rng.uniform(0.5, 1.5, size=feature_dim)
            if k == 1:
                edge_records.append((next_edge, a, b, f))
                next_edge += 1
            else:
                xa, ya = node_records[a][1], node_records[a][2]
                xb, yb = node_records[b][1], node_records[b][2]
                mids = []
                for j in range(1, k):
                    t = j / k
                    node_records.append((next_node, xa + t * (xb - xa), ya + t * (yb - ya)))
                    mids.append(next_node)
                    next_node += 1
                hops = [a] + mids + [b]
                for p, q in zip(hops[:-1], hops[1:]):
                    edge_records.append((next_edge, p, q, f / k))
                    next_edge += 1

    return build_graph(node_records, edge_records)


def gen_random_graph(
    num_nodes: int,
    feature_dim: int = 2,
    rng_seed: int = 0,
    extra_edges: int | None = None,
) -> RoadGraph:
    """Strongly connected random digraph: a covering cycle plus extra edges.

    Features are uniform in [0.5, 2.0]; coordinates uniform in the unit
    square.  Deterministic under the seed.
    """
    if num_nodes < 2:
        raise ValidationError("need at least two nodes")
    rng = np.random.default_rng(rng_seed)
    if extra_edges is None:
        extra_edges = num_nodes
    order = rng.permutation(num_nodes)
    pairs = set()
    for i in range(num_nodes):
        pairs.add((int(order[i]), int(order[(i + 1) % num_nodes])))
    attempts = 0
    while len(pairs) < num_nodes + extra_edges and attempts < 50 * (num_nodes + extra_edges):
        u = int(rng.integers(num_nodes))
        w = int(rng.integers(num_nodes))
        attempts += 1
        if u != w:
            pairs.add((u, w))
    edge_list = sorted(pairs)
    coords = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    node_records = [(s, coords[s, 0], coords[s, 1]) for s in range(num_nodes)]
    edge_records = [(i, u, w, rng.uniform(0.5, 2.0, size=feature_dim))
                    for i, (u, w) in enumerate(edge_list)]
    return build_graph(node_records, edge_records)


def gen_two_state_loop() -> RoadGraph:
    """Two mutually reachable self-looping states feeding one destination.

    Features are indicator-coded so a linear model with weights
    (-theta1, -theta2, -1) prices state 1 exits at theta1, state 2 exits at
    theta2, and the exits to the destination at 1.  The non-destination block
    of exp-rewards is rank one with spectral radius e^-theta1 + e^-theta2,
    which makes this the canonical feasibility test fixture.
    """
    node_records = [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.5, 1.0)]
    edge_records = [
        (0, 0, 0, [1.0, 0.0, 0.0]),
        (1, 0, 1, [1.0, 0.0, 0.0]),
        (2, 1, 0, [0.0, 1.0, 0.0]),
        (3, 1, 1, [0.0, 1.0, 0.0]),
        (4, 0, 2, [0.0, 0.0, 1.0]),
        (5, 1, 2, [0.0, 0.0, 1.0]),
        (6, 2, 2, [0.0, 0.0, 0.0]),
    ]
    return build_graph(node_records, edge_records)


def two_state_loop_rewards(g: RoadGraph, theta1: float, theta2: float) -> np.ndarray:
    w = np.array([-float(theta1), -float(theta2), -1.0])
    return g.features @ w


def extract_subgraph(g: RoadGraph, cell_nodes: Iterable[int]) -> tuple[RoadGraph, np.ndarray, np.ndarray]:
    """Induce a subgraph on a node cell plus its one-hop boundary.

    Keeps every edge with either endpoint in the cell, and every node such an
    edge touches.  Returns (subgraph, node_ids, edge_ids) where the id arrays
    map local indices back to the parent graph.
    """
    cell = set(int(s) for s in cell_nodes)
    keep_edges = [e for e in range(g.num_edges)
                  if int(g.edge_src[e]) in cell or int(g.edge_dst[e]) in cell]
    node_set = set(cell)
    for e in keep_edges:
        node_set.add(int(g.edge_src[e]))
        node_set.add(int(g.edge_dst[e]))
    node_ids = np.array(sorted(node_set), dtype=np.int64)
    local = {int(s): i for i, s in enumerate(node_ids)}
    node_records = [(local[int(s)], g.coords[s, 0], g.coords[s, 1]) for s in node_ids]
    edge_ids = np.array(keep_edges, dtype=np.int64)
    edge_records = [(i, local[int(g.edge_src[e])], local[int(g.edge_dst[e])], g.features[e])
                    for i, e in enumerate(keep_edges)]
    connector_ids = [i for i, e in enumerate(keep_edges) if g.connector_flags[e]]
    sub = build_graph(node_records, edge_records, connector_edge_ids=connector_ids)
    return sub, node_ids, edge_ids
