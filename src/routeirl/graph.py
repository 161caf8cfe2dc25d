"""Directed road graphs with padded out-edge slots, plus compression transforms.

Nodes are road states, edges are transitions with nonnegative feature
vectors.  Adjacency is stored as a dense (S, V) slot table so planners can
vectorize over all states at once; invalid slots hold a -1 sentinel and must
never be dereferenced.

Records are the file format: load_graph parses a file into (id, ...)
tuples and build_graph checks them.  Arrays are the internal format: the
generators and the compression and sharding transforms build a graph's
coordinate, endpoint, feature and connector arrays with numpy and hand them
to the same array constructor build_graph ends in.

A graph caches the slot and reversed-pair layouts its planners read, none
of which depends on a reward table; a planner assembles a table's
matrices, I - A among them, with scipy.
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
    def safe_targets(self) -> np.ndarray:
        """slot_target with 0 on invalid slots (a padded reward table's -inf masks them)."""
        return np.where(self.slot_valid, self.slot_target, 0)

    @cached_property
    def targets_by_slot(self) -> np.ndarray:
        """safe_targets as a contiguous (V, S) table: soft backups sum down
        its columns."""
        return np.ascontiguousarray(self.safe_targets.T)

    @cached_property
    def edges_by_slot(self) -> np.ndarray:
        """slot_edge as a contiguous (V, S) table, the layout of targets_by_slot."""
        return np.ascontiguousarray(self.slot_edge.T)

    @cached_property
    def reversed_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR layout of the reversed graph, one entry per (dst, src) pair:
        (edges grouped by pair, group starts, src per group, row pointer)."""
        pair = self.edge_dst * self.num_nodes + self.edge_src
        order = np.argsort(pair, kind="stable")
        starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
        indptr = np.searchsorted(self.edge_dst[order[starts]], np.arange(self.num_nodes + 1))
        return order, starts, self.edge_src[order[starts]], indptr

    @cached_property
    def out_degree(self) -> np.ndarray:
        return self.slot_valid.sum(axis=1).astype(np.int64)

    @cached_property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.edge_dst, minlength=self.num_nodes)

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
        return [int(e) for e, t in zip(row, self.slot_target[src]) if e >= 0 and t == dst]


def build_graph(
    node_records: Iterable[tuple],
    edge_records: Iterable[tuple],
    connector_edge_ids: Iterable[int] = (),
) -> RoadGraph:
    """Assemble a RoadGraph from records, as a graph file holds them.

    node_records: (node_id, x, y) with ids exactly 0..S-1, in any order.
    edge_records: (edge_id, src, dst, feature_seq) with ids exactly 0..E-1,
    in any order, every feature_seq of one length.  Without edges the
    feature table is (0, 0).
    """
    nodes = sorted(node_records, key=lambda r: r[0])
    if not nodes:
        raise ValidationError("graph needs at least one node")
    if [int(r[0]) for r in nodes] != list(range(len(nodes))):
        raise ValidationError("node ids must be exactly 0..S-1 without gaps")
    coords = np.array([[float(r[1]), float(r[2])] for r in nodes], dtype=np.float64)

    edges = sorted(edge_records, key=lambda r: r[0])
    E = len(edges)
    if [int(r[0]) for r in edges] != list(range(E)):
        raise ValidationError("edge ids must be exactly 0..E-1 without gaps")
    feats = [np.asarray(r[3], dtype=np.float64).ravel() for r in edges]
    dims = np.array([f.shape[0] for f in feats], dtype=np.int64)
    ragged = np.flatnonzero(dims != dims[:1])
    if ragged.size:
        e = ragged[0]
        raise ValidationError(f"edge {e} has {dims[e]} features, expected {dims[0]}")

    cids = np.fromiter(connector_edge_ids, dtype=np.int64)
    missing = cids[(cids < 0) | (cids >= E)]
    if missing.size:
        raise ValidationError(f"connector flag references missing edge {missing[0]}")
    connectors = np.zeros(E, dtype=bool)
    connectors[cids] = True

    return _from_arrays(
        coords,
        np.array([int(r[1]) for r in edges], dtype=np.int64),
        np.array([int(r[2]) for r in edges], dtype=np.int64),
        np.vstack(feats) if feats else np.zeros((0, 0), dtype=np.float64),
        connectors,
    )


def _from_arrays(coords: np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray,
                 features: np.ndarray, connectors: np.ndarray) -> RoadGraph:
    """Assemble a RoadGraph from its arrays; edge e is row e of each edge array.

    Slot order within each row is (target id, edge id) ascending, so the
    padded layout is a pure function of the arrays.
    """
    S, E = coords.shape[0], edge_src.shape[0]
    if S == 0:
        raise ValidationError("graph needs at least one node")
    bad = np.flatnonzero((edge_src < 0) | (edge_src >= S) | (edge_dst < 0) | (edge_dst >= S))
    if bad.size:
        e = bad[0]
        raise ValidationError(f"edge {e} references missing node ({edge_src[e]}->{edge_dst[e]})")
    bad = np.flatnonzero(~np.all(np.isfinite(features) & (features >= 0), axis=1))
    if bad.size:
        raise ValidationError(f"edge {bad[0]} has negative or non-finite features")
    if np.any(features[connectors] != 0.0):
        raise ValidationError("connector edges must carry all-zero features")

    order = np.lexsort((np.arange(E), edge_dst, edge_src))
    degree = np.bincount(edge_src, minlength=S)
    rows = edge_src[order]
    cols = np.arange(E) - (np.cumsum(degree) - degree)[rows]
    V = int(degree.max())
    slot_target = np.full((S, V), SENTINEL, dtype=np.int64)
    slot_edge = np.full((S, V), SENTINEL, dtype=np.int64)
    slot_target[rows, cols] = edge_dst[order]
    slot_edge[rows, cols] = order

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
class GoalView:
    """A graph conditioned on one destination: the pair and nothing more.

    The destination is absorbing: planners pin its value to zero and give
    its row no action, the only per-destination slot mask they apply.
    """

    graph: RoadGraph
    destination: int

    def __post_init__(self) -> None:
        if not (0 <= self.destination < self.graph.num_nodes):
            raise ValidationError(f"destination {self.destination} not in graph")


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

    # A row with k > v_cap edges gets levels = ceil((k - v_cap) / (v_cap - 1))
    # continuation nodes, numbered row by row.  Slots are sorted, so the edge
    # in slot j ends on level min(j // (v_cap - 1), levels); level 0 is the
    # row's own node.  Each level's connector leaves the level above.
    step = v_cap - 1
    heavy = np.flatnonzero(g.out_degree > v_cap)
    levels = -(-(g.out_degree[heavy] - v_cap) // step)
    first = g.num_nodes + np.cumsum(levels) - levels   # level 1 of each heavy row
    owner = np.repeat(heavy, levels)
    cont = np.arange(g.num_nodes, g.num_nodes + owner.size)
    conn_src = np.where(cont == np.repeat(first, levels), owner, cont - 1)

    level = np.minimum(np.arange(g.max_out_degree) // step, levels[:, None])
    moved = g.slot_valid[heavy] & (level > 0)
    edge_src = g.edge_src.copy()
    edge_src[g.slot_edge[heavy][moved]] = (first[:, None] + level - 1)[moved]

    out = _from_arrays(
        np.concatenate([g.coords, g.coords[owner]]),
        np.concatenate([edge_src, conn_src]),
        np.concatenate([g.edge_dst, cont]),
        np.concatenate([g.features, np.zeros((owner.size, g.feature_dim))]),
        np.concatenate([g.connector_flags, np.ones(owner.size, dtype=bool)]),
    )
    return out, MergeMap(edge_expansion=list(zip(range(g.num_edges))) + [()] * owner.size,
                         node_image=dict(zip(range(g.num_nodes), range(g.num_nodes))))


def merge_chains(g: RoadGraph, protected: Iterable[int] = ()) -> tuple[RoadGraph, MergeMap]:
    """Collapse runs of single-out-edge nodes into their downstream neighbor,
    summing features along the run.

    Guards: protected nodes (recorded origins/destinations) are never
    interior to a merge, and a merge that would create a self-loop or close
    a cycle is skipped.  Lossless for linear reward models because feature
    sums are preserved.
    """
    single = g.out_degree == 1
    eligible = single & ~np.isin(np.arange(g.num_nodes), np.fromiter(protected, dtype=np.int64))
    # a row with one out-edge holds it in its only valid slot, the row max
    single_out_edge = np.where(single, g.slot_edge.max(axis=1, initial=SENTINEL), SENTINEL)

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

        kept = np.ones(g.num_edges, dtype=bool)
        kept[list(consumed_edges)] = False
        gone = np.zeros(g.num_nodes, dtype=bool)
        gone[list(removed_nodes)] = True
        # orphan runs: single-out nodes nobody enters; drop them and their
        # edge.  Drops only lower in-degrees, so dropping every orphan at once
        # reaches the same fixed point as dropping them one at a time.
        while True:
            orphan = eligible & ~gone & (np.bincount(g.edge_dst[kept], minlength=g.num_nodes) == 0)
            if not orphan.any():
                break
            gone |= orphan
            kept[single_out_edge[orphan]] = False
        blocked = g.edge_dst[kept & gone[g.edge_dst]]
        if blocked.size == 0:
            break
        eligible[blocked] = False

    surviving = np.flatnonzero(~gone)
    node_new = np.full(g.num_nodes, SENTINEL, dtype=np.int64)
    node_new[surviving] = np.arange(surviving.size)
    kept_edges = np.flatnonzero(kept)
    ends = np.array([m[:2] for m in merged], dtype=np.int64).reshape(-1, 2)
    out = _from_arrays(
        g.coords[surviving],
        node_new[np.concatenate([g.edge_src[kept_edges], ends[:, 0]])],
        node_new[np.concatenate([g.edge_dst[kept_edges], ends[:, 1]])],
        np.vstack([g.features[kept_edges]] + [m[2] for m in merged]),
        np.concatenate([g.connector_flags[kept_edges], np.zeros(len(merged), dtype=bool)]),
    )
    expansion = list(zip(kept_edges.tolist())) + [m[3] for m in merged]
    node_image = dict(zip(surviving.tolist(), range(surviving.size)))
    return out, MergeMap(edge_expansion=expansion, node_image=node_image)


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
    k = segments_per_block

    # intersection r * width + c sits at (c, r); blocks run in node order, a
    # node's block east before its block south, each one way then back
    node = np.arange(width * height)
    row, col = np.divmod(node, width)
    grid = np.column_stack([col, row]).astype(np.float64)
    has_block = np.column_stack([col + 1 < width, row + 1 < height])
    near = np.column_stack([node, node])[has_block]
    far = np.column_stack([node + 1, node + width])[has_block]
    a = np.column_stack([near, far]).ravel()    # directed block i runs a[i] -> b[i]
    b = np.column_stack([far, near]).ravel()
    if feature_spec == "constant":
        block_features = np.ones((a.size, feature_dim))
    else:
        block_features = rng.uniform(0.5, 1.5, size=(a.size, feature_dim))

    # directed block i passes through mid nodes S + i(k-1) .. S + i(k-1) + k-2,
    # evenly spaced, and is segments ik .. ik + k-1
    mids = np.arange(node.size, node.size + a.size * (k - 1)).reshape(a.size, k - 1)
    t = np.arange(1, k) / k
    mid_coords = grid[a][:, None] + t[:, None] * (grid[b] - grid[a])[:, None]
    coords = np.concatenate([grid, mid_coords.reshape(-1, 2)])
    hops = np.column_stack([a, mids, b])
    src = hops[:, :-1].ravel()
    dst = hops[:, 1:].ravel()
    features = np.repeat(block_features / k, k, axis=0)
    if src.size == 0:
        features = np.zeros((0, 0))  # an edgeless graph's table, as its file reads back
    return _from_arrays(coords, src, dst, features, np.zeros(src.size, dtype=bool))


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
    src = np.array([u for u, _ in edge_list], dtype=np.int64)
    dst = np.array([w for _, w in edge_list], dtype=np.int64)
    coords = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    features = rng.uniform(0.5, 2.0, size=(src.size, feature_dim))
    return _from_arrays(coords, src, dst, features, np.zeros(src.size, dtype=bool))


def gen_two_state_loop() -> RoadGraph:
    """Two mutually reachable self-looping states feeding one destination.

    Features are indicator-coded so a linear model with weights
    (-theta1, -theta2, -1) prices state 1 exits at theta1, state 2 exits at
    theta2, and the exits to the destination at 1.  The non-destination block
    of exp-rewards is rank one with spectral radius e^-theta1 + e^-theta2,
    which makes this the canonical feasibility test fixture.
    """
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    src = np.array([0, 0, 1, 1, 0, 1, 2], dtype=np.int64)
    dst = np.array([0, 1, 0, 1, 2, 2, 2], dtype=np.int64)
    features = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    return _from_arrays(coords, src, dst, features, np.zeros(7, dtype=bool))


def two_state_loop_rewards(g: RoadGraph, theta1: float, theta2: float) -> np.ndarray:
    w = np.array([-float(theta1), -float(theta2), -1.0])
    return g.features @ w


def extract_subgraph(g: RoadGraph, cell_nodes: Iterable[int]) -> tuple[RoadGraph, np.ndarray, np.ndarray]:
    """Induce a subgraph on a node cell plus its one-hop boundary.

    Keeps every edge with either endpoint in the cell, and every node such an
    edge touches.  Returns (subgraph, node_ids, edge_ids) where the id arrays
    map local indices back to the parent graph.
    """
    cell = np.fromiter(cell_nodes, dtype=np.int64)
    if np.any((cell < 0) | (cell >= g.num_nodes)):
        raise ValidationError("cell references a node not in the graph")
    in_cell = np.zeros(g.num_nodes, dtype=bool)
    in_cell[cell] = True
    edge_ids = np.flatnonzero(in_cell[g.edge_src] | in_cell[g.edge_dst])
    member = in_cell.copy()
    member[g.edge_src[edge_ids]] = True
    member[g.edge_dst[edge_ids]] = True
    node_ids = np.flatnonzero(member)
    local = np.full(g.num_nodes, SENTINEL, dtype=np.int64)
    local[node_ids] = np.arange(node_ids.size)
    sub = _from_arrays(g.coords[node_ids], local[g.edge_src[edge_ids]],
                       local[g.edge_dst[edge_ids]], g.features[edge_ids],
                       g.connector_flags[edge_ids])
    return sub, node_ids, edge_ids
