"""Cell representation for the NASBench-101 model space.

A *cell* is a directed acyclic graph (DAG) whose first vertex is the cell
input, whose last vertex is the cell output, and whose interior vertices each
carry one of the three valid operations (3x3 convolution, 1x1 convolution, or
3x3 max-pooling).  The NASBench-101 space restricts cells to at most seven
vertices and nine edges.

The class in this module stores the upper-triangular adjacency matrix and the
operation labels, validates the structural constraints, and implements the
same *pruning* rule NASBench-101 applies: vertices that are not on any path
from the input to the output do not affect the computed function and are
removed before hashing or expanding the cell into a full network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import InvalidCellError
from . import ops as op_vocab
from .ops import MAX_EDGES, MAX_VERTICES


def _as_matrix(matrix: Iterable[Iterable[int]]) -> np.ndarray:
    try:
        array = np.asarray(matrix, dtype=np.int8)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InvalidCellError(f"adjacency matrix must hold 0/1 integers: {exc}") from exc
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise InvalidCellError(f"adjacency matrix must be square, got shape {array.shape}")
    return array


def payload_fields(payload: object, what: str, *keys: str) -> list:
    """The values of *keys* in the serialized *what* (a ``to_dict`` mapping).

    Raises :class:`InvalidCellError` for a non-mapping payload or a missing
    key, naming the key, so malformed wire or manifest input is a typed error.
    """
    if not isinstance(payload, Mapping):
        raise InvalidCellError(f"{what} payload must be a mapping, got {type(payload).__name__}")
    for key in keys:
        if key not in payload:
            raise InvalidCellError(f"{what} payload is missing the {key!r} key")
    return [payload[key] for key in keys]


@dataclass(frozen=True, eq=False)
class Cell:
    """An immutable NASBench-101 cell.

    Parameters
    ----------
    matrix:
        Square 0/1 adjacency matrix.  ``matrix[i][j] == 1`` means there is a
        directed edge from vertex ``i`` to vertex ``j``.  The matrix must be
        strictly upper triangular (vertices are in topological order), which
        also guarantees acyclicity.
    ops:
        Operation label per vertex.  ``ops[0]`` must be ``"input"`` and
        ``ops[-1]`` must be ``"output"``.

    Notes
    -----
    Instances are validated on construction and are hashable.  Equality and
    hashing follow NASBench-101's notion of "the same model": two cells
    compare equal iff their pruned, operation-labelled graphs are isomorphic
    (the :attr:`fingerprint` of each is computed once and cached), so sets and
    dicts of cells de-duplicate by model identity without callers maintaining
    fingerprint maps.
    """

    matrix: tuple[tuple[int, ...], ...]
    ops: tuple[str, ...]
    _np_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    _fingerprint: str | None = field(init=False, repr=False, compare=False)

    def __init__(self, matrix: Iterable[Iterable[int]], ops: Sequence[str]):
        array = _as_matrix(matrix)
        object.__setattr__(self, "matrix", tuple(tuple(int(v) for v in row) for row in array))
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "_np_matrix", array)
        object.__setattr__(self, "_fingerprint", None)
        self._validate()

    # ------------------------------------------------------------------ #
    # Model identity
    # ------------------------------------------------------------------ #
    @property
    def fingerprint(self) -> str:
        """Canonical (pruned) isomorphism fingerprint, computed once per cell.

        Disconnected cells (constructible, but with no input-to-output path —
        the population :meth:`is_valid` screens out) have no pruned canonical
        form; they fall back to the unpruned structural hash so equality,
        hashing and set membership never raise.  The fallback cannot collide
        with a connected cell's fingerprint: isomorphic labelled graphs are
        either both connected or both disconnected.
        """
        if self._fingerprint is None:
            from .hashing import cell_fingerprint  # deferred: hashing imports Cell

            try:
                value = cell_fingerprint(self)
            except InvalidCellError:
                value = cell_fingerprint(self, prune=False)
            object.__setattr__(self, "_fingerprint", value)
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        array = self._np_matrix
        num_vertices = array.shape[0]
        if num_vertices != len(self.ops):
            raise InvalidCellError(
                f"matrix has {num_vertices} vertices but {len(self.ops)} ops were given"
            )
        if num_vertices < 2:
            raise InvalidCellError("a cell needs at least an input and an output vertex")
        if num_vertices > MAX_VERTICES:
            raise InvalidCellError(
                f"cell has {num_vertices} vertices, the maximum is {MAX_VERTICES}"
            )
        if not np.isin(array, (0, 1)).all():
            raise InvalidCellError("adjacency matrix entries must be 0 or 1")
        if np.any(np.tril(array) != 0):
            raise InvalidCellError(
                "adjacency matrix must be strictly upper triangular "
                "(vertices in topological order)"
            )
        if int(array.sum()) > MAX_EDGES:
            raise InvalidCellError(f"cell has {int(array.sum())} edges, the maximum is {MAX_EDGES}")
        try:
            op_vocab.validate_ops(self.ops)
        except ValueError as exc:
            raise InvalidCellError(str(exc)) from exc

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices, including the input and output vertices."""
        return len(self.ops)

    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self._np_matrix.sum())

    @property
    def interior_ops(self) -> tuple[str, ...]:
        """Operation labels of the interior (non input/output) vertices."""
        return self.ops[1:-1]

    def numpy_matrix(self) -> np.ndarray:
        """Return a copy of the adjacency matrix as a numpy ``int8`` array."""
        return self._np_matrix.copy()

    def edges(self) -> list[tuple[int, int]]:
        """Return the directed edges as ``(src, dst)`` vertex-index pairs."""
        src, dst = np.nonzero(self._np_matrix)
        return list(zip(src.tolist(), dst.tolist()))

    def op_count(self, op: str) -> int:
        """Return how many interior vertices carry operation *op*."""
        return sum(1 for o in self.interior_ops if o == op)

    def in_degree(self, vertex: int) -> int:
        """Number of incoming edges of *vertex*."""
        return int(self._np_matrix[:, vertex].sum())

    def out_degree(self, vertex: int) -> int:
        """Number of outgoing edges of *vertex*."""
        return int(self._np_matrix[vertex, :].sum())

    # ------------------------------------------------------------------ #
    # Connectivity and pruning
    # ------------------------------------------------------------------ #
    def _reachable_from_input(self) -> np.ndarray:
        """Boolean vector: vertex reachable from the input vertex."""
        n = self.num_vertices
        reach = np.zeros(n, dtype=bool)
        reach[0] = True
        # Vertices are topologically ordered, so one forward sweep suffices.
        for v in range(n):
            if reach[v]:
                reach |= self._np_matrix[v, :].astype(bool)
        return reach

    def _reaches_output(self) -> np.ndarray:
        """Boolean vector: output vertex reachable from each vertex."""
        n = self.num_vertices
        reach = np.zeros(n, dtype=bool)
        reach[n - 1] = True
        for v in range(n - 1, -1, -1):
            if reach[v]:
                reach |= self._np_matrix[:, v].astype(bool)
        return reach

    def prune(self) -> "Cell":
        """Return a cell with all extraneous vertices removed.

        A vertex is *extraneous* if it is not on any directed path from the
        input vertex to the output vertex; such vertices cannot influence the
        cell's output and NASBench-101 removes them before de-duplication.

        Raises
        ------
        InvalidCellError
            If the input cannot reach the output at all (the pruned graph
            would be disconnected and the cell does not represent a valid
            network).
        """
        keep = self._reachable_from_input() & self._reaches_output()
        if not keep[0] or not keep[-1]:
            raise InvalidCellError("cell has no path from input to output")
        if keep.all():
            return self
        indices = np.nonzero(keep)[0]
        sub_matrix = self._np_matrix[np.ix_(indices, indices)]
        sub_ops = [self.ops[i] for i in indices]
        return Cell(sub_matrix, sub_ops)

    def is_valid(self) -> bool:
        """Return ``True`` if the cell is connected (input reaches output)."""
        try:
            self.prune()
        except InvalidCellError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Graph metrics used throughout the paper
    # ------------------------------------------------------------------ #
    def depth(self) -> int:
        """Length (in edges) of the longest input-to-output path.

        This matches the "graph depth" definition used by the paper and by
        NASBench-101: the number of edges on the longest directed path from
        the input vertex to the output vertex.
        """
        n = self.num_vertices
        dist = np.full(n, -np.inf)
        dist[0] = 0
        for v in range(n):
            if dist[v] == -np.inf:
                continue
            for w in range(v + 1, n):
                if self._np_matrix[v, w]:
                    dist[w] = max(dist[w], dist[v] + 1)
        if dist[n - 1] == -np.inf:
            raise InvalidCellError("cell has no path from input to output")
        return int(dist[n - 1])

    def width(self) -> int:
        """Maximum directed cut of the graph ("graph width" in the paper).

        Vertices are topologically ordered, so every directed cut corresponds
        to a split position ``k`` separating vertices ``0..k`` from
        ``k+1..n-1``; the width is the maximum number of edges crossing any
        such split.
        """
        n = self.num_vertices
        best = 0
        for split in range(n - 1):
            crossing = int(self._np_matrix[: split + 1, split + 1 :].sum())
            best = max(best, crossing)
        return best

    # ------------------------------------------------------------------ #
    # Serialization helpers
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Return a JSON-serializable description of the cell."""
        return {"matrix": [list(row) for row in self.matrix], "ops": list(self.ops)}

    @classmethod
    def from_dict(cls, payload: dict) -> "Cell":
        """Reconstruct a cell from :meth:`to_dict` output."""
        return cls(*payload_fields(payload, "cell", "matrix", "ops"))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(self.ops)
        return f"Cell(vertices={self.num_vertices}, edges={self.num_edges}, ops=[{ops}])"
