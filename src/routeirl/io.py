"""Every file the package reads or writes.

Text formats are line oriented, and floats are written with repr(), which
reads back exactly.  Readers skip blank and `#` lines and name a bad line as
`path:line`.  Ids run exactly 0..n-1 (I records: any) and may not repeat.

  graph          N <id> <x> <y> | E <id> <src> <dst> <f1> ... <fd> | C <edge_id>
  trajectories   one line of node ids per trajectory, origin first
  merge map      M <merged_edge_id> <orig_edge_id> ... | I <orig_node> <merged_node>
  reward table   <id> <value>, one per edge (diagnose --dump-values: per node)
  train config   <key> = <value>, text after `#` is a comment
  checkpoint     JSON {"version", "model", "metadata"}; summaries: JSON or CSV

C records flag connector edges; load_graph(path, merge_map=...) also flags
the map's empty expansions, so files without C records still load, and
rejects a map with another edge count.  A node line names the smallest edge
id between two nodes, so save_trajectories rejects a route over any other
parallel edge.  M records without I records load with an empty node image.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import ValidationError
from .graph import MergeMap, RoadGraph, Trajectory, build_graph
from .rewards import RewardModel, model_from_payload

CHECKPOINT_VERSION = 1


def _read_records(path: str | Path, parse: Callable[[list[str]], object], what: str) -> list:
    """parse(tokens) of each line that is not blank or a `#` comment.  A
    ValueError from parse becomes a ValidationError naming path:line; a
    ValidationError keeps its message, any other reports a bad `what`."""
    out = []
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            out.append(parse(parts))
        except ValidationError as err:
            raise ValidationError(f"{path}:{ln}: {err}") from None
        except ValueError:
            raise ValidationError(f"{path}:{ln}: bad {what} {raw!r}") from None
    return out


class _IdTable(dict):
    """Records by id: add() rejects a repeated id, rows() wants ids 0..n-1."""

    def __init__(self, kind: str):
        super().__init__()
        self.kind = kind

    def add(self, key: int, value) -> None:
        if key in self:
            raise ValidationError(f"repeated {self.kind} record for id {key}")
        self[key] = value

    def rows(self, path: str | Path) -> list:
        if sorted(self) != list(range(len(self))):
            raise ValidationError(f"{path}: {self.kind} ids must be 0..{len(self) - 1}")
        return [self[i] for i in range(len(self))]


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    Path(path).write_text("".join(f"{line}\n" for line in lines))


def write_json(doc: dict, path: str | Path, indent: int | None = None) -> None:
    Path(path).write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")


def write_csv(rows: Iterable[Iterable], path: str | Path) -> None:
    """Floats (numpy's too) are written with repr(), anything else with str()."""
    _write_lines(path, (",".join(repr(float(x)) if isinstance(x, float) else str(x)
                                 for x in row) for row in rows))


def save_graph(g: RoadGraph, path: str | Path) -> None:
    src, dst, feats = g.edge_src.tolist(), g.edge_dst.tolist(), g.features.tolist()
    lines = [f"N {s} {x!r} {y!r}" for s, (x, y) in enumerate(g.coords.tolist())]
    lines += [" ".join([f"E {e} {src[e]} {dst[e]}", *map(repr, feats[e])])
              for e in range(g.num_edges)]
    lines += [f"C {e}" for e in np.flatnonzero(g.connector_flags).tolist()]
    _write_lines(path, lines)


def load_graph(path: str | Path, merge_map: MergeMap | None = None) -> RoadGraph:
    nodes, edges, connectors = [], [], set()

    def record(parts: list[str]) -> None:
        if parts[0] == "E" and len(parts) >= 4:
            edges.append((int(parts[1]), int(parts[2]), int(parts[3]),
                          list(map(float, parts[4:]))))
        elif parts[0] == "N" and len(parts) == 4:
            nodes.append((int(parts[1]), float(parts[2]), float(parts[3])))
        elif parts[0] == "C" and len(parts) == 2:
            connectors.add(int(parts[1]))
        else:
            raise ValueError

    _read_records(path, record, "record")
    if merge_map is not None:
        merge_map.check_edge_count(len(edges))
        connectors.update(e for e, exp in enumerate(merge_map.edge_expansion) if not exp)
    return build_graph(nodes, edges, connector_edge_ids=sorted(connectors))


def save_trajectories(trajs: list[Trajectory], path: str | Path, g: RoadGraph) -> None:
    # slots run by (target, edge id): a node line names a row's first slot to a target
    slot = g.edge_slot
    named = ((slot == 0) | (g.slot_target[g.edge_src, slot - 1] != g.edge_dst)).tolist()
    for i, t in enumerate(trajs):
        hidden = [e for e in t.edges if not named[e]]
        if hidden:
            raise ValidationError(f"trajectory {i} takes parallel edge {hidden[0]}, "
                                  "which its node line cannot name")
    _write_lines(path, (" ".join(map(str, t.nodes)) for t in trajs))


def load_trajectories(path: str | Path, g: RoadGraph) -> list[Trajectory]:
    return _read_records(path, lambda parts: Trajectory.from_nodes(
        g, [int(x) for x in parts]), "trajectory line")


def save_merge_map(mmap: MergeMap, path: str | Path) -> None:
    lines = [" ".join(["M", str(e), *map(str, exp)])
             for e, exp in enumerate(mmap.edge_expansion)]
    lines += [f"I {orig} {merged}" for orig, merged in sorted(mmap.node_image.items())]
    _write_lines(path, lines)


def load_merge_map(path: str | Path) -> MergeMap:
    expansion, image = _IdTable("M"), _IdTable("I")

    def record(parts: list[str]) -> None:
        if parts[0] == "M" and len(parts) >= 2:
            expansion.add(int(parts[1]), tuple(map(int, parts[2:])))
        elif parts[0] == "I" and len(parts) == 3:
            image.add(int(parts[1]), int(parts[2]))
        else:
            raise ValueError

    _read_records(path, record, "merge map record")
    return MergeMap(edge_expansion=expansion.rows(path), node_image=dict(image))


def export_reward_table(table: np.ndarray, path: str | Path) -> None:
    _write_lines(path, (f"{e} {r!r}" for e, r in enumerate(table.tolist())))


def load_reward_table(path: str | Path) -> np.ndarray:
    rows = _IdTable("edge")

    def record(parts: list[str]) -> None:
        key, value = parts
        rows.add(int(key), float(value))

    _read_records(path, record, "reward record")
    return np.array(rows.rows(path), dtype=np.float64)


def save_checkpoint(model: RewardModel, path: str | Path,
                    metadata: dict | None = None) -> None:
    write_json({"version": CHECKPOINT_VERSION, "model": model.to_payload(),
                "metadata": metadata or {}}, path)


def load_checkpoint(path: str | Path) -> tuple[RewardModel, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ValidationError(f"{path}: not a checkpoint ({err})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: not a checkpoint (a JSON object is expected)")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    try:
        return model_from_payload(doc["model"]), doc.get("metadata", {})
    except (ValidationError, KeyError, TypeError, AttributeError, ValueError) as err:
        raise ValidationError(f"{path}: malformed checkpoint model "
                              f"({type(err).__name__}: {err})") from None


def load_config(path: str | Path, parsers: dict[str, Callable[[str], object]]) -> dict:
    """`key = value` lines as {key: parsers[key](value)}; other keys are rejected."""
    out = {}

    def record(parts: list[str]) -> None:
        key, eq, value = (s.strip() for s in " ".join(parts).split("#", 1)[0].partition("="))
        if not eq:
            raise ValidationError("expected `key = value`")
        if key not in parsers:
            raise ValidationError(f"unknown key {key!r}")
        try:
            out[key] = parsers[key](value)
        except ValueError:
            raise ValidationError(f"bad value {value!r} for {key!r}") from None

    _read_records(path, record, "config line")
    return out
