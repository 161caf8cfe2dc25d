"""Plain-text serialization for graphs, trajectories, and merge maps.

Formats are line oriented and bit-reproducible:
  node record        N <id> <x> <y>
  edge record        E <id> <src> <dst> <f1> ... <fd>
  trajectory         one line of whitespace-separated node ids
  merge map records  M <merged_edge_id> <orig_id_1> ... <orig_id_k>
                     I <orig_node_id> <merged_node_id>

A merge map file holds the map's two tables: one M record per compressed
edge (its expansion; a connector edge has no original ids) and one I record
per surviving original node (its node image).  It reads back into an equal
MergeMap, which compresses trajectories like the one written.  Files with M
records only still load, with an empty node image.  A repeated M edge id or I
node id is an error.  Loading a graph together with its map restores
connector flags.
"""
from __future__ import annotations

from pathlib import Path

from .errors import ValidationError
from .graph import MergeMap, RoadGraph, Trajectory, build_graph


def save_graph(g: RoadGraph, path: str | Path) -> None:
    lines = []
    for s in range(g.num_nodes):
        lines.append(f"N {s} {float(g.coords[s, 0])!r} {float(g.coords[s, 1])!r}")
    for e in range(g.num_edges):
        feats = " ".join(repr(float(x)) for x in g.features[e])
        lines.append(f"E {e} {g.edge_src[e]} {g.edge_dst[e]} {feats}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path, merge_map: MergeMap | None = None) -> RoadGraph:
    node_records = []
    edge_records = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "N":
                if len(parts) != 4:
                    raise ValueError
                node_records.append((int(parts[1]), float(parts[2]), float(parts[3])))
            elif parts[0] == "E":
                if len(parts) < 4:
                    raise ValueError
                edge_records.append((int(parts[1]), int(parts[2]), int(parts[3]),
                                     [float(x) for x in parts[4:]]))
            else:
                raise ValueError
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad record {raw!r}") from None
    connectors = []
    if merge_map is not None:
        connectors = [e for e, exp in enumerate(merge_map.edge_expansion) if len(exp) == 0]
    return build_graph(node_records, edge_records, connector_edge_ids=connectors)


def save_trajectories(trajs: list[Trajectory], path: str | Path) -> None:
    lines = [" ".join(str(n) for n in t.nodes) for t in trajs]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_trajectories(path: str | Path, g: RoadGraph) -> list[Trajectory]:
    out = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            nodes = [int(x) for x in line.split()]
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad trajectory line {raw!r}") from None
        try:
            out.append(Trajectory.from_nodes(g, nodes))
        except ValidationError as err:
            raise ValidationError(f"{path}:{ln}: {err}") from None
    return out


def save_merge_map(mmap: MergeMap, path: str | Path) -> None:
    lines = []
    for e, exp in enumerate(mmap.edge_expansion):
        tail = " ".join(str(o) for o in exp)
        lines.append(f"M {e} {tail}".rstrip())
    for orig, merged in sorted(mmap.node_image.items()):
        lines.append(f"I {orig} {merged}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_merge_map(path: str | Path) -> MergeMap:
    records: dict[int, tuple[int, ...]] = {}
    node_image: dict[int, int] = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "M" and len(parts) >= 2:
                table, value = records, tuple(int(x) for x in parts[2:])
            elif parts[0] == "I" and len(parts) == 3:
                table, value = node_image, int(parts[2])
            else:
                raise ValueError
            key = int(parts[1])
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad merge map record {raw!r}") from None
        if key in table:
            raise ValidationError(f"{path}:{ln}: repeated {parts[0]} record for id {key}")
        table[key] = value
    n = len(records)
    if sorted(records) != list(range(n)):
        raise ValidationError(f"{path}: merge map edge ids must be 0..{n - 1}")
    return MergeMap(edge_expansion=[records[e] for e in range(n)], node_image=node_image)
