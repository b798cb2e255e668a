"""Directed communication graphs and connectivity queries.

Nodes are labeled 1..n.  An arc (k, l) means node k sends information to
node l; self-loops are not allowed.  For a node set L, the neighbors of L
are the nodes outside L that send an arc into L.  A graph is weakly
connected when some node has directed paths to every other node; such a
node is called a root.

The module provides:

* immutable graph types: `DirectedGraph(n, arcs)`, stored as one sorted
  array of integer arc keys, and its subclass `WeightedDigraph(n, weights)`,
  whose arcs are its weight mapping's keys, so every query below takes
  either kind; its weights are the only arc weights, and an unweighted arc
  weighs 1,
* the neighbor calculus and reachability queries,
* the lowest root, from the same search that decides weak connectivity:
  two nodes that no arc enters leave no root, one is the only candidate,
  and a candidate's reach is marked level by level in numpy over all arcs
  for at most n.bit_length() levels, then finished by a stack search, so a
  query costs O(n + m) plus at most floor(log2 n) + 1 passes over the arcs,
* a subset-pair connectivity oracle (brute force, independent of the
  path-based queries),
* arc unions across time intervals of a graph schedule, and
* a plain-text graph file format.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import index
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

NodeSet = frozenset[int]

Arc = tuple[int, int]


class GraphFormatError(ValueError):
    """Malformed graph text.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedQueryError(ValueError):
    """The schedule cannot answer the requested interval query."""


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Directed graph on nodes 1..n.

    Instances are immutable and hashable.  Arcs (k, l) are validated to
    have distinct endpoints inside 1..n.  The one stored form is `_keys`,
    the sorted, read-only intp array of the arcs' receiver-major keys
    (l - 1) n + (k - 1); equality and the hash, computed once, read `_form()`:
    `n` and the key bytes alone.  Everything else is derived from the keys:

    * `arcs`, a frozenset of int pairs, built on each read and not kept;
    * `arc_arrays`, the 0-based (sender, receiver) numpy arrays in key
      order: the one in-adjacency, read by `arcs`, the update matrix and
      maps, and, as one node's slice (`_senders`), by `in_sources`,
      `neighbors` and the checkers;
    * `_out_csr`, the out-adjacency in compressed sparse row layout, which
      `out_targets` and the stack search of the connectivity queries walk:
      lists of Python ints, read-only by contract, since the search indexes
      them from the interpreter, where numpy's per-element cost would
      dominate.

    The last two are cached on first use, which is safe because nothing
    they are made from can change after construction and no view is
    written after it is built.
    """

    n: int
    _keys: np.ndarray

    def __init__(self, n: int, arcs: Iterable[Arc] = ()):
        n = _valid_count(n, 1, "node count")
        keys = np.array(_valid_arcs(n, arcs), dtype=np.intp)
        keys.flags.writeable = False
        vars(self).update(n=n, _keys=keys)  # once, past the frozen __setattr__

    @classmethod
    def _own(cls, n: int, keys: np.ndarray) -> "DirectedGraph":
        """Wrap the sorted, distinct intp keys of arcs valid for n nodes
        that the package has just made, such as a union's or a generated
        schedule's, without `_valid_arcs`; the keys are made read-only."""
        keys.flags.writeable = False
        g = cls.__new__(cls)
        vars(g).update(n=n, _keys=keys)
        return g

    def _pairs(self) -> Iterable[Arc]:
        """The arcs (k, l) in key order, built from `arc_arrays` on each call."""
        src, dst = self.arc_arrays
        return zip((src + 1).tolist(), (dst + 1).tolist())

    @property
    def arcs(self) -> frozenset[Arc]:
        """The arcs (k, l), built from the keys on each read."""
        return frozenset(self._pairs())

    @cached_property
    def arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based (src, dst) int arrays of every arc, read-only and sorted by
        (receiver, sender)."""
        dst, src = np.divmod(self._keys, self.n)
        src.flags.writeable = dst.flags.writeable = False
        return src, dst

    def _senders(self, j: int) -> np.ndarray:
        """The 0-based senders of 0-based node j, ascending: a slice of `arc_arrays`."""
        src, dst = self.arc_arrays
        return src[slice(*np.searchsorted(dst, (j, j + 1)).tolist())]

    @cached_property
    def _out_csr(self) -> tuple[list[int], list[int]]:
        """(ptr, dst): the receivers of node j + 1 are dst[ptr[j]:ptr[j + 1]],
        0-based and ascending, read from the sorted sender-major keys.

        Only `out_targets` and the stack search `_search` read it: a root
        query builds it only when a reach outlasts its n.bit_length()
        numpy levels, or when every node has a sender and node 1 misses
        some (see `_lowest_root`)."""
        n = self.n
        src, dst = self.arc_arrays
        out = np.sort(src * n + dst)
        return np.searchsorted(out, np.arange(0, n * n + 1, n)).tolist(), (out % n).tolist()

    def _form(self) -> tuple:
        return (self.n, self._keys.tobytes())

    @cached_property
    def _hash(self) -> int:
        return hash(self._form())

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._form() == other._form()

    def in_sources(self, k: int) -> NodeSet:
        """Nodes that send an arc into node k."""
        return frozenset((self._senders(_node_index(self, k)) + 1).tolist())

    def out_targets(self, k: int) -> NodeSet:
        """Nodes that node k sends an arc to."""
        j = _node_index(self, k)
        ptr, dst = self._out_csr
        return frozenset(v + 1 for v in dst[ptr[j] : ptr[j + 1]])

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, arcs={sorted(self.arcs)!r})"


def _valid_arcs(n: int, arcs: Iterable[Arc]) -> list[int]:
    """The sorted, distinct keys (l - 1) n + (k - 1) of the arcs, each a pair
    of ints with distinct endpoints in 1..n.  Raises for the first bad arc
    (a float endpoint raises TypeError, as in `range`), checking for a
    self-loop before the node range, then for any n past `_KEYED_NODES`.
    """
    keys = set()
    for k, l in arcs:
        k, l = index(k), index(l)
        if k == l:
            raise ValueError(f"self-loop ({k}, {l}) is not allowed")
        if not (1 <= k <= n and 1 <= l <= n):
            raise ValueError(f"arc ({k}, {l}) outside node range 1..{n}")
        keys.add((l - 1) * n + k - 1)
    if n > _KEYED_NODES:
        raise ValueError(f"a graph has at most {_KEYED_NODES} nodes, got n={n}")
    return sorted(keys)


_KEYED_NODES = math.isqrt(np.iinfo(np.intp).max)  # so that n * n - 1 is an intp


def _valid_weight(w: float, arc: Optional[Arc] = None) -> float:
    """w as a float, positive and finite: the rule for every arc weight."""
    w = float(w)
    if not (w > 0.0 and math.isfinite(w)):
        what = "arc weight" if arc is None else f"weight of arc {arc}"
        raise ValueError(f"{what} must be positive and finite, got {w}")
    return w


def _valid_count(value: int, least: int, what: str) -> int:
    """value as an int, at least `least`: the rule for every count.  A float
    raises TypeError, as in `range`, and is never truncated."""
    v = index(value)
    if v < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {v}")
    return v


def _node_index(g: DirectedGraph, k: int) -> int:
    """Node label k in 1..n as a 0-based index; a float raises as in `range`."""
    k = index(k)
    if not (1 <= k <= g.n):
        raise ValueError(f"node {k} outside 1..{g.n}")
    return k - 1


@dataclass(frozen=True, eq=False)
class WeightedDigraph(DirectedGraph):
    """Directed graph on nodes 1..n whose arcs are the keys of its
    positive, finite `weights`, checked as `DirectedGraph`'s arcs.  It is a
    `DirectedGraph`, so every query, adjacency view, update map and
    schedule takes it as it is; only the update matrix, `relabel` and the
    text format read the weights, stored once as `_weights`, a read-only
    float array in key order.  These weights are the only arc weights the
    package knows: an arc of an unweighted graph weighs 1.

    A weighted graph equals only a weighted graph with the same arcs and
    weights (its `_form`), never the unweighted graph on its arcs
    (`as_directed`).
    """

    _weights: np.ndarray

    def __init__(self, n: int, weights: Mapping[Arc, float]):
        wmap = {(index(k), index(l)): float(w) for (k, l), w in weights.items()}
        super().__init__(n, wmap)
        for arc, w in wmap.items():
            _valid_weight(w, arc)
        w = np.array([wmap[arc] for arc in self._pairs()], dtype=float)
        w.flags.writeable = False
        vars(self).update(_weights=w)

    @property
    def weights(self) -> Mapping[Arc, float]:
        """The read-only arc weights, built from `_weights` on each read."""
        return MappingProxyType(dict(zip(self._pairs(), self._weights.tolist())))

    def _form(self) -> tuple:
        return super()._form() + (self._weights.tobytes(),)

    def __repr__(self) -> str:
        return f"WeightedDigraph(n={self.n}, weights={dict(sorted(self.weights.items()))!r})"


def as_directed(g: DirectedGraph) -> DirectedGraph:
    """The unweighted graph on g's arcs: g, or one sharing a weighted g's keys.

    No query needs it, since a weighted graph is a `DirectedGraph`; it is
    kept for callers outside the package that want the unweighted graph.
    """
    return DirectedGraph._own(g.n, g._keys) if isinstance(g, WeightedDigraph) else g


@dataclass(frozen=True)
class IntervalSpec:
    """Integer time interval [start, end], or [start, infinity) when end is None."""

    start: int
    end: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "start", index(self.start))
        if self.end is not None:
            object.__setattr__(self, "end", index(self.end))
            if self.end < self.start:
                raise ValueError(f"empty interval [{self.start}, {self.end}]")

    def __str__(self) -> str:
        return f"[{self.start}, {'inf' if self.end is None else self.end}]"


# ---------------------------------------------------------------------------
# Neighbor calculus and reachability


def _search(out_ptr: Sequence[int], out_dst: Sequence[int], seen: bytearray, k: int) -> bytearray:
    """Mark 0-based node k and what it reaches through unmarked nodes; return `seen`."""
    seen[k] = 1
    stack = [k]
    while stack:
        u = stack.pop()
        for v in out_dst[out_ptr[u] : out_ptr[u + 1]]:
            if not seen[v]:
                seen[v] = 1
                stack.append(v)
    return seen


def neighbors(g: DirectedGraph, L: Iterable[int]) -> NodeSet:
    """Nodes outside L that send an arc into L.

    This is the information-theoretic neighbor set: members of the result
    influence L directly, in one step.  The empty set has no neighbors.
    """
    s = {_node_index(g, k) for k in L}
    senders = set().union(*(g._senders(l).tolist() for l in s))
    return frozenset(v + 1 for v in senders - s)


def _reach(g: DirectedGraph, k: int) -> bytearray:
    """What 0-based node k reaches, k included, marked 1 in n bytes.

    A level-synchronous search (Beamer, Asanovic & Patterson, SC 2012) on
    the receiver-sorted `arc_arrays`: each level is one numpy pass over all
    arcs, marking the receivers of the arcs that leave the frontier.  A
    graph whose nodes lie within n.bit_length() arcs of k, such as a star
    or a sparse random graph, is reached in numpy alone; past that level
    budget `_search` finishes from what is left of the frontier, on
    `_out_csr`.  So the cost is O(n + m) plus at most floor(log2 n) + 1
    numpy passes over the arcs.
    """
    n = g.n
    src, dst = g.arc_arrays
    seen = np.zeros(n, dtype=bool)
    seen[k] = True
    frontier = seen
    for _ in range(n.bit_length()):
        hit = np.zeros(n, dtype=bool)
        hit[dst.compress(frontier.take(src))] = True
        frontier = hit & ~seen
        if not frontier.any():
            return bytearray(seen.tobytes())
        seen |= frontier
    marks = bytearray(seen.tobytes())
    out_ptr, out_dst = g._out_csr
    for u in np.flatnonzero(frontier).tolist():
        _search(out_ptr, out_dst, marks, u)
    return marks


def is_connected_from(g: DirectedGraph, k: int) -> bool:
    """True when node k has a directed path to every other node, from the
    level-by-level reach of `_reach`: at most floor(log2 n) + 1 numpy
    passes over the arcs, then a stack search from what is left, if any."""
    return 0 not in _reach(g, _node_index(g, k))


def _lowest_root(g: DirectedGraph) -> Optional[int]:
    """The lowest 0-based root of g, or None: the one root search, which
    `is_weakly_connected` and `find_root` both call.

    A root reaches every node, and only itself reaches a node that no arc
    enters, so the sender-less nodes, counted from the receivers in
    `arc_arrays`, settle most graphs: two or more leave no root, and
    exactly one is the only candidate.  The candidate, or node 0 when
    every node has a sender, is a root when its `_reach` misses nothing.

    Only a graph in which every node has a sender and node 0 misses some
    runs the full search, over all nodes, in O(n + m) (as in Tarjan 1972),
    with node 0's reach as its first tree.  Each search tree holds what
    its start reaches among the nodes not yet seen, so the start of the
    last tree lies in a source strongly connected component: a node
    outside that tree which reached it would have reached it in an
    earlier tree.  A root exists exactly when that node reaches every
    node.  So `_out_csr` is built only when this stack search runs, or
    when a reach outlasts its level budget.
    """
    n = g.n
    has_sender = np.zeros(n, dtype=bool)
    has_sender[g.arc_arrays[1]] = True
    free = np.flatnonzero(~has_sender)[:2].tolist()
    if len(free) > 1:
        return None
    start = free[0] if free else 0
    seen = _reach(g, start)
    if 0 not in seen:
        return start
    if free:
        return None
    out_ptr, out_dst = g._out_csr
    last = 0
    for s in range(1, n):
        if not seen[s]:
            _search(out_ptr, out_dst, seen, s)
            last = s
    return last if 0 not in _search(out_ptr, out_dst, bytearray(n), last) else None


def is_weakly_connected(g: DirectedGraph) -> bool:
    """True when some node has directed paths to all others (`_lowest_root`)."""
    return _lowest_root(g) is not None


def find_root(g: DirectedGraph) -> Optional[int]:
    """The lowest root (a node with directed paths to all others), or None,
    from the same search as `is_weakly_connected` (see `_lowest_root`).

    A single sender-less node is the only root there can be.  When every
    node has a sender, the root is node 1 when its reach misses nothing,
    and otherwise the start of the last search tree, the lowest one: every
    lower node lies in an earlier tree, and none there reaches it, or that
    tree's start would have reached it too.  The reach takes at most
    n.bit_length() numpy passes over the arcs before a stack search
    finishes it, so a query costs O(n + m) plus at most floor(log2 n) + 1
    such passes.
    """
    r = _lowest_root(g)
    return None if r is None else r + 1


def is_bidirectional(g: DirectedGraph) -> bool:
    """True when the arc set is symmetric: (k, l) present iff (l, k) present,
    that is, when the arcs' sender-major keys, sorted, are their
    receiver-major keys."""
    src, dst = g.arc_arrays
    return np.array_equal(np.sort(src * g.n + dst), g._keys)


_ORACLE_NODE_CAP = 12


def weakly_connected_oracle(g: DirectedGraph) -> bool:
    """Decide weak connectivity by exhausting subset pairs.

    A graph is weakly connected iff every ordered pair of nonempty
    disjoint node sets (L1, L2) has a neighbor on at least one side.
    This brute-force check runs over all such pairs using bitmask
    arithmetic and shares no code with the path-based queries, so the two
    can be tested against each other.  Capped at 12 nodes.
    """
    n = g.n
    if n > _ORACLE_NODE_CAP:
        raise ValueError(
            f"oracle is exponential in the node count and is capped at "
            f"{_ORACLE_NODE_CAP} nodes, got n={n}"
        )
    if n == 1:
        return True
    full = (1 << n) - 1
    src = [0] * n  # src[j] = bitmask of senders into node j+1
    for k, l in g.arcs:
        src[l - 1] |= 1 << (k - 1)
    # senders[mask] = bitmask of all senders into any node of mask
    senders = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        senders[mask] = senders[mask ^ low] | src[low.bit_length() - 1]
    for l1 in range(1, full + 1):
        if senders[l1] & ~l1 & full:
            continue  # L1 has a neighbor, every pair (L1, *) is fine
        comp = full & ~l1
        l2 = comp
        while l2:
            if not (senders[l2] & ~l2 & full):
                return False
            l2 = (l2 - 1) & comp
    return True


# ---------------------------------------------------------------------------
# Connectivity across time


def union_across(schedule, interval: IntervalSpec) -> DirectedGraph:
    """Union of the schedule's arc sets over an interval of times.

    The result is a graph on the schedule's nodes.  The walk visits the
    interval's start, then only the times `next_change` names.  A union of
    several graphs drops their weights; one that meets a single graph,
    such as a window of one time, returns that graph itself, weighted or
    not, so its cached views are reused.  `schedule` is a
    `simulator.GraphSchedule`, and the start passes its `_check_time`.

    A table (a finite or periodic schedule) repeats its cycle from
    `cycle_from`, so one period from max(start, cycle_from) on meets every
    slot, and any interval, bounded or not, stops there.  Any other
    schedule answers an unbounded interval by its closed-form `tail_union`,
    or raises UnsupportedQueryError without one, since an infinite union
    cannot be scanned; a bounded interval's union lies inside that tail,
    so its walk stops once their arcs are equal.
    """
    a = schedule._check_time(interval.start)
    b, tail = interval.end, None
    if schedule.cycle_from is not None:
        last = max(a, schedule.cycle_from) + schedule.period - 1
        b = last if b is None else min(b, last)
    else:
        tail = schedule.tail_union(a)
        if b is None:
            if tail is None:
                raise UnsupportedQueryError(
                    f"cannot take the arc union over unbounded {interval}: the "
                    "schedule does not repeat and has no closed-form tail union"
                )
            return tail
    members, seen, t = [], set(), a
    want = None if tail is None else set(tail._keys.tolist())
    while t is not None and t <= b:
        g = schedule.graph_at(t)
        if g.n != schedule.n:
            raise ValueError(f"graph at time {t} has n={g.n}, expected {schedule.n}")
        members.append(g)
        if want is not None:
            seen.update(g._keys.tolist())
            if seen == want:
                break
        t = schedule.next_change(t)
    if len(members) == 1:
        return members[0]
    # The members' keys are valid for n nodes, so their union needs no check:
    # one sort of their concatenation, then a neighbour mask drops repeats
    # (keys are nonnegative), at a fraction of `np.unique`'s cost.
    keys = np.sort(np.concatenate([g._keys for g in members]))
    return DirectedGraph._own(schedule.n, keys[np.diff(keys, prepend=-1) != 0])


# ---------------------------------------------------------------------------
# Relabeling (a public helper; the symmetry tests use it)


def relabel(g: DirectedGraph, perm: Sequence[int]) -> DirectedGraph:
    """Apply the node relabeling k -> perm[k-1], which must permute 1..n;
    a weighted graph's arcs keep their weights."""
    n = g.n
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must be a permutation of 1..{n}, got {list(perm)}")
    if isinstance(g, WeightedDigraph):
        weights = {(perm[k - 1], perm[l - 1]): w for (k, l), w in g.weights.items()}
        return WeightedDigraph(n, weights)
    return DirectedGraph(n, {(perm[k - 1], perm[l - 1]) for k, l in g.arcs})


# ---------------------------------------------------------------------------
# Text format
#
#   # comment
#   n=4
#   arc 2 1 0.5
#   arc 1 2 1
#   arc 3 2 5
#
# Weights are optional but all-or-none.  Unweighted files parse to a
# DirectedGraph, weighted files to a WeightedDigraph.

_N_LINE = re.compile(r"^n\s*=\s*(\d+)$")


def parse_graph_text(text: str) -> DirectedGraph:
    """Parse the graph text format.  Each line is checked by the graph types'
    own rules, and an error raises GraphFormatError with its line number.

    Weighted text gives `WeightedDigraph(n, weights)`, unweighted text
    (arc-free text too) `DirectedGraph(n, arcs)`.
    """
    n: Optional[int] = None
    arcs: dict[Arc, Optional[float]] = {}
    weighted: Optional[bool] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields, w = line.split(), None
        try:
            if n is None:
                m = _N_LINE.match(line)
                if not m:
                    raise ValueError(f"expected 'n=<count>' first, got {raw.strip()!r}")
                n = _valid_count(int(m.group(1)), 1, "node count")
                _valid_arcs(n, ())  # the node cap, named on this line
                continue
            if fields[0] != "arc" or len(fields) not in (3, 4):
                raise ValueError(f"expected 'arc <from> <to> [<weight>]', got {raw.strip()!r}")
            k, l = _number(int, fields[1:3], f"arc endpoints must be integers: {raw.strip()!r}")
            _valid_arcs(n, ((k, l),))
            arc = (k, l)
            if arc in arcs:
                raise ValueError(f"duplicate arc {arc}")
            if len(fields) == 4:
                (w,) = _number(float, fields[3:], f"bad weight {fields[3]!r}")
                _valid_weight(w)
            if weighted is not None and weighted != (w is not None):
                raise ValueError("mixed weighted and unweighted arcs")
        except ValueError as err:
            raise GraphFormatError(lineno, str(err)) from None
        weighted, arcs[arc] = w is not None, w
    if n is None:
        raise GraphFormatError(1, "empty input: expected 'n=<count>'")
    return WeightedDigraph(n, arcs) if weighted else DirectedGraph(n, arcs)


def _number(kind, fields: list[str], message: str) -> list:
    """The fields converted by `kind`, or ValueError(message)."""
    try:
        return [kind(f) for f in fields]
    except ValueError:
        raise ValueError(message) from None


def format_graph_text(g: DirectedGraph) -> str:
    """Render a graph in the text format.  Each weight is written by its
    `repr`, which reads back as the same float, so `parse_graph_text(text)
    == g` for every g with arcs, weighted or not; an arc-free graph has no
    line to carry weights and comes back as a `DirectedGraph`."""
    lines = [f"n={g.n}"]
    if isinstance(g, WeightedDigraph):
        for (k, l), w in sorted(g.weights.items()):
            lines.append(f"arc {k} {l} {w!r}")
    else:
        for k, l in sorted(g.arcs):
            lines.append(f"arc {k} {l}")
    return "\n".join(lines) + "\n"


def read_graph_file(path) -> DirectedGraph:
    """Parse the graph file at `path` as `parse_graph_text` does."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())
