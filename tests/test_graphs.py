"""Graph construction, neighbor calculus, connectivity, and the text format."""

import collections
import itertools
import math
import random
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import (
    AgentState,
    DirectedGraph,
    GraphFormatError,
    IntervalSpec,
    LinearAverage,
    UnsupportedQueryError,
    WeightedDigraph,
    FiniteSchedule,
    GeneratedSchedule,
    PeriodicSchedule,
    find_root,
    format_graph_text,
    is_bidirectional,
    is_connected_from,
    is_weakly_connected,
    neighbors,
    parse_graph_text,
    relabel,
    union_across,
    weakly_connected_oracle,
)
from consensus_lab.graphs import as_directed
from consensus_lab.scenarios import CounterexampleSchedule, StretchingSchedule
from consensus_lab.simulator import GraphSchedule


@st.composite
def digraphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
    if pairs:
        arcs = draw(st.sets(st.sampled_from(pairs)))
    else:
        arcs = set()
    return DirectedGraph(n, arcs)


# ---------------------------------------------------------------------------
# Construction


def test_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        DirectedGraph(3, {(2, 2)})


def test_rejects_out_of_range_arc():
    with pytest.raises(ValueError, match="outside node range"):
        DirectedGraph(3, {(1, 4)})


def test_rejects_empty_node_set():
    with pytest.raises(ValueError, match="node count"):
        DirectedGraph(0, set())


def test_graph_is_hashable_and_comparable():
    a = DirectedGraph(3, {(1, 2), (2, 3)})
    b = DirectedGraph(3, [(2, 3), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != DirectedGraph(3, {(1, 2)})


def test_in_and_out_adjacency():
    g = DirectedGraph(4, {(2, 1), (1, 2), (3, 2)})
    assert g.in_sources(1) == {2}
    assert g.in_sources(2) == {1, 3}
    assert g.in_sources(3) == frozenset()
    assert g.out_targets(3) == {2}
    assert (3, 2) in g.arcs and (2, 3) not in g.arcs


def test_weighted_digraph_requires_positive_weights():
    with pytest.raises(ValueError, match="positive"):
        WeightedDigraph(2, {(1, 2): 0.0})


def _raised(make):
    """The (type, message) of the exception make() raises."""
    with pytest.raises(Exception) as err:
        make()
    return err.type, str(err.value)


@pytest.mark.parametrize(
    "n, arc",
    [(3, (2, 2)), (3, (1, 4)), (3, (1.5, 2))],
    ids=["self-loop", "out-of-range", "float-key"],
)
def test_weighted_digraph_refuses_an_arc_as_a_graph_does(n, arc):
    # under 0.01 s.  A weight key is an arc: it passes the arc rule alone,
    # and fails with a graph's own error for that arc
    want = _raised(lambda: DirectedGraph(n, {arc, (1, 3)}))
    assert _raised(lambda: WeightedDigraph(n, {arc: 1.0, (1, 3): 1.0})) == want


def test_weighted_digraph_refuses_a_graph_for_its_node_count():
    # under 0.01 s.  A graph given where the node count goes builds nothing
    g = DirectedGraph(2, {(1, 2)})
    with pytest.raises(TypeError, match="DirectedGraph"):
        WeightedDigraph(g, {(1, 2): 1.0})
    with pytest.raises(TypeError):
        WeightedDigraph(WeightedDigraph(2, {(1, 2): 1.0}), {(1, 2): 1.0})


def test_weighted_digraph_is_the_graph_on_its_weight_keys():
    # under 0.01 s
    cases = [(1, {}), (3, {}), (3, {(2, 1): 0.5, (3, 1): 7.0}), (4, {(4, 1): 2.0, (1, 4): 3.0})]
    for n, w in cases:
        assert as_directed(WeightedDigraph(n, w)) == DirectedGraph(n, w)


def test_weighted_digraph_bounds():
    wg = WeightedDigraph(2, {(1, 2): 0.5, (2, 1): 2.0})
    assert wg.bounds == (0.5, 2.0)  # tight by default
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        WeightedDigraph(2, {(1, 2): 0.5, (2, 1): 2.0}, bounds=(1.0, 2.0))
    with pytest.raises(ValueError, match="e_min"):
        WeightedDigraph(2, {(1, 2): 0.5, (2, 1): 2.0}, bounds=(-1.0, 2.0))


def test_weighted_digraph_equality_and_hash():
    a = WeightedDigraph(2, {(1, 2): 1.5})
    b = WeightedDigraph(2, {(1, 2): 1.5})
    assert a == b and hash(a) == hash(b)
    assert a != WeightedDigraph(2, {(1, 2): 2.5})
    # the order the weights are given in is not part of the graph
    c = WeightedDigraph(2, {(2, 1): 0.5, (1, 2): 2.0})
    d = WeightedDigraph(2, {(1, 2): 2.0, (2, 1): 0.5})
    assert c == d and hash(c) == hash(d)
    assert c != WeightedDigraph(2, {(1, 2): 2.0, (2, 1): 0.5}, bounds=(0.5, 4.0))


def test_weighted_digraph_repr_sorts_its_weights():
    g = WeightedDigraph(3, {(2, 1): 0.5, (1, 2): 2.0})
    assert repr(g) == "WeightedDigraph(n=3, weights={(1, 2): 2.0, (2, 1): 0.5}, bounds=(0.5, 2.0))"


def test_interval_spec_validation():
    assert IntervalSpec(3, 7).end is not None
    assert IntervalSpec(3).end is None
    with pytest.raises(ValueError, match="empty interval"):
        IntervalSpec(5, 4)


def test_validation_checks_self_loop_before_range():
    with pytest.raises(ValueError, match=r"self-loop \(5, 5\)"):
        DirectedGraph(3, {(5, 5)})
    with pytest.raises(ValueError, match=r"arc \(0, 1\) outside node range 1..3"):
        DirectedGraph(3, [(0, 1)])


def test_construction_coerces_pairs_to_ints():
    g = DirectedGraph(np.int64(3), [(np.int64(1), np.int32(2)), [2, 3], (True, 3)])
    assert g == DirectedGraph(3, {(1, 2), (2, 3), (1, 3)})
    assert all(type(k) is int and type(l) is int for k, l in g.arcs)
    assert type(g.n) is int
    once = DirectedGraph(3, ((k, k + 1) for k in (1, 2)))  # a one-shot iterator
    assert once.arcs == {(1, 2), (2, 3)}
    i64 = np.int64
    assert WeightedDigraph(3, {(i64(1), i64(2)): 0.5}) == WeightedDigraph(3, {(1, 2): 0.5})
    spec = IntervalSpec(i64(2), i64(9))
    assert spec == IntervalSpec(2, 9) and type(spec.start) is int and type(spec.end) is int


@pytest.mark.parametrize(
    "make",
    [
        lambda: DirectedGraph(2.7),
        lambda: DirectedGraph(3, {(1.9, 2)}),
        lambda: WeightedDigraph(3, {(1.5, 2): 1.0}),
        lambda: IntervalSpec(0.5, 3),
        lambda: IntervalSpec(0, 3.0),
        lambda: neighbors(DirectedGraph(3, {(1, 2)}), [2.0]),
    ],
    ids=["node-count", "arc-endpoint", "weight-key", "interval-start", "interval-end",
         "neighbors-label"],
)
def test_non_integers_are_rejected_not_truncated(make):
    # as range(2.7) does; int() would make n=2, the arc (1, 2) and [0, 3]
    with pytest.raises(TypeError):
        make()


def _reach(n, arcs, k):
    """Nodes reachable from k, by closing {k} under the arcs: shares no code
    with the library's searches."""
    seen = {k}
    grew = True
    while grew:
        new = {l for (j, l) in arcs if j in seen} - seen
        seen |= new
        grew = bool(new)
    return seen


def _random_digraphs(count=300, seed=17):
    """Seeded digraphs with n in 1..40, arc-free ones included."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 40)
        m = 0 if n == 1 or i % 10 == 0 else round(rng.uniform(0.3, 3.0) * n)
        yield DirectedGraph(n, {tuple(rng.sample(range(1, n + 1), 2)) for _ in range(m)})


def test_derived_forms_match_the_arc_set():
    counts = {"arc_free": 0, "connected": 0, "unconnected": 0}
    for g in _random_digraphs():
        n, arcs = g.n, g.arcs
        src, dst = g.arc_arrays
        expected = sorted(arcs, key=lambda a: (a[1], a[0]))
        assert list(zip((src + 1).tolist(), (dst + 1).tolist())) == expected
        for arr in (src, dst):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[:1] = 0
        assert g.arc_arrays is g.arc_arrays  # derived once
        for k in g.nodes:
            ins, outs = g.in_sources(k), g.out_targets(k)
            assert type(ins) is frozenset and type(outs) is frozenset
            assert ins == {j for (j, l) in arcs if l == k}
            assert outs == {l for (j, l) in arcs if j == k}
        # A graph built again through the public constructor is equal, and
        # the cache takes no part in equality or hashing.
        again = DirectedGraph(n, list(arcs))
        assert again == g and hash(again) == hash(g)
        counts["arc_free"] += not arcs
        counts["connected" if is_weakly_connected(g) else "unconnected"] += 1
    assert min(counts.values()) > 0, counts


def test_weighted_digraph_is_the_graph_of_its_arcs():
    rng = random.Random(41)
    weighted = []
    for g in _random_digraphs(count=120, seed=43):
        wg = WeightedDigraph(g.n, {a: rng.uniform(0.1, 10.0) for a in g.arcs})
        weighted.append(wg)
        assert isinstance(wg, DirectedGraph)
        assert (wg.n, wg.arcs) == (g.n, g.arcs)
        assert wg != g and g != wg and as_directed(wg) == g
        again = WeightedDigraph(g.n, dict(wg.weights))
        assert again == wg and hash(again) == hash(wg)
        assert all(np.array_equal(x, y) for x, y in zip(wg.arc_arrays, g.arc_arrays))
        for k in g.nodes:
            assert wg.in_sources(k) == g.in_sources(k)
            assert wg.out_targets(k) == g.out_targets(k)
            assert is_connected_from(wg, k) == is_connected_from(g, k)
        L = rng.sample(range(1, g.n + 1), rng.randint(0, g.n))
        assert neighbors(wg, L) == neighbors(g, L)
        assert is_weakly_connected(wg) == is_weakly_connected(g)
        assert is_bidirectional(wg) == is_bidirectional(g)
        assert find_root(wg) == find_root(g)
    for trial in range(40):
        n = rng.choice([wg.n for wg in weighted])
        members = rng.choices([wg for wg in weighted if wg.n == n], k=rng.randint(1, 4))
        a = rng.randint(0, 5)
        interval = IntervalSpec(a, a + rng.randint(0, 5))
        union = union_across(PeriodicSchedule(members), interval)
        plain = union_across(PeriodicSchedule([as_directed(wg) for wg in members]), interval)
        assert (union.n, union.arcs) == (plain.n, plain.arcs)
    # A weighted graph and its unweighted graph are two cache keys.
    wg = WeightedDigraph(2, {(1, 2): 3.0})
    avg, x = LinearAverage(), AgentState([0.0, 1.0])
    assert avg.step(0, wg, x).values.tolist() == [0.0, 0.25]
    assert avg.step(0, as_directed(wg), x).values.tolist() == [0.0, 0.5]
    assert avg.matrix_for(wg) is not avg.matrix_for(as_directed(wg))


def test_searches_agree_with_oracle_and_definition():
    for g in _random_digraphs(seed=23):
        wc = is_weakly_connected(g)
        root = find_root(g)
        if g.n <= 7:
            assert wc == weakly_connected_oracle(g), g
        reaches = {k: _reach(g.n, g.arcs, k) for k in g.nodes}
        assert wc == any(len(r) == g.n for r in reaches.values()), g
        if root is None:
            assert not wc
        else:
            assert len(reaches[root]) == g.n, g
        for k in g.nodes:
            assert is_connected_from(g, k) == (len(reaches[k]) == g.n)


def _find_root_reference(g):
    """The constructive reference: grow two node sets by piercing them with
    neighbors, on frozensets, with neighbor sets read off the arcs."""
    if g.n == 1:
        return 1

    def nb(L):
        return frozenset(k for (k, l) in g.arcs if l in L and k not in L)

    nodes = frozenset(g.nodes)
    L1 = F1 = frozenset({1})
    L2 = F2 = frozenset({2})
    while True:
        if nb(L2):
            m = min(nb(L2))
        else:
            if not nb(L1):
                return None
            m = min(nb(L1))
            L1, F1, L2, F2 = L2, F2, L1, F1
        if m in F1:
            if F1 | F2 == nodes:
                return min(L1)
            F1 = F1 | F2
            L2 = F2 = frozenset({min(nodes - F1)})
        elif m not in F2:
            L2, F2 = frozenset({m}), F2 | {m}
        else:
            L2 = L2 | {m}


def test_find_root_picks_the_reference_root():
    rooted = []
    rng = random.Random(41)
    for _ in range(40):  # spanning trees plus noise, so the search absorbs often
        n = rng.randint(2, 60)
        order = rng.sample(range(1, n + 1), n)
        arcs = {(order[rng.randrange(i)], order[i]) for i in range(1, n)}
        arcs |= {tuple(rng.sample(range(1, n + 1), 2)) for _ in range(n // 2)}
        rooted.append(DirectedGraph(n, arcs))
    for g in rooted + list(_random_digraphs(seed=43)):
        assert find_root(g) == _find_root_reference(g), g


def _lowest_root_by_definition(g):
    return min((k for k in g.nodes if is_connected_from(g, k)), default=None)


def test_find_root_is_the_lowest_root_on_every_small_digraph():
    checked = 0
    for n in (1, 2, 3, 4):
        pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
        for mask in range(1 << len(pairs)):
            g = DirectedGraph(n, {p for i, p in enumerate(pairs) if mask >> i & 1})
            assert find_root(g) == _lowest_root_by_definition(g), g
            checked += 1
    assert checked == 4165
    # 3 and 4 are both roots; the search starts its last tree at 3
    assert find_root(DirectedGraph(4, {(3, 4), (4, 3), (4, 1), (3, 2)})) == 3


@given(digraphs())
def test_find_root_is_the_lowest_root(g):
    assert find_root(g) == _lowest_root_by_definition(g)


def test_node_queries_reject_bad_labels():
    g = DirectedGraph(3, {(1, 2)})
    for k in (0, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            g.in_sources(k)
        with pytest.raises(ValueError, match="outside 1..3"):
            g.out_targets(k)
        with pytest.raises(ValueError, match="outside 1..3"):
            is_connected_from(g, k)


def test_node_queries_take_labels_through_index():
    # a float raises as in range(2.0), never an internal indexing error
    g = DirectedGraph(3, {(1, 2), (2, 3)})
    queries = {
        "in_sources": g.in_sources,
        "out_targets": g.out_targets,
        "is_connected_from": lambda k: is_connected_from(g, k),
        "neighbors": lambda k: neighbors(g, [k]),
    }
    for name, query in queries.items():
        for k in (2.0, 1.0, 1.5):
            with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
                query(k)
        assert query(np.int64(2)) == query(2), name
    assert g.in_sources(np.int64(2)) == {1} and g.out_targets(np.int64(2)) == {3}


# ---------------------------------------------------------------------------
# Neighbors


def test_neighbors_worked_example():
    g = DirectedGraph(4, {(2, 1), (1, 2), (3, 2)})
    assert neighbors(g, {1}) == {2}
    assert neighbors(g, {2}) == {1, 3}
    assert neighbors(g, {1, 2}) == {3}
    assert neighbors(g, {3, 4}) == frozenset()
    assert neighbors(g, set()) == frozenset()


def test_neighbors_rejects_bad_labels():
    g = DirectedGraph(3, set())
    with pytest.raises(ValueError, match="outside"):
        neighbors(g, {0})


@given(digraphs())
def test_neighbors_disjoint_from_argument(g):
    for L in [{1}, set(range(1, g.n + 1)), {g.n}]:
        assert neighbors(g, L) & L == frozenset()


# ---------------------------------------------------------------------------
# Connectivity


def test_connected_from_chain():
    chain = DirectedGraph(3, {(1, 2), (2, 3)})
    assert is_connected_from(chain, 1)
    assert not is_connected_from(chain, 2)
    assert not is_connected_from(chain, 3)


def test_weak_connectivity_examples():
    assert is_weakly_connected(DirectedGraph(1, set()))
    assert not is_weakly_connected(DirectedGraph(2))
    assert is_weakly_connected(DirectedGraph(3, {(1, 2), (2, 3), (3, 1)}))
    # pair plus an isolated node
    assert not is_weakly_connected(DirectedGraph(3, {(1, 2), (2, 1)}))


def test_weak_connectivity_matches_definition_on_random_digraphs():
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 40)
        m = round(rng.uniform(0.5, 3.0) * n) if n > 1 else 0
        g = DirectedGraph(n, {tuple(rng.sample(range(1, n + 1), 2)) for _ in range(m)})
        expected = any(is_connected_from(g, k) for k in g.nodes)
        assert is_weakly_connected(g) == expected, g
        seen.add(expected)
    assert seen == {True, False}


def test_bidirectional():
    assert is_bidirectional(DirectedGraph(3, {(1, 2), (2, 1)}))
    assert not is_bidirectional(DirectedGraph(3, {(1, 2), (2, 3), (3, 2)}))
    assert is_bidirectional(DirectedGraph(2))


def test_oracle_node_cap():
    with pytest.raises(ValueError, match="capped"):
        weakly_connected_oracle(DirectedGraph(13))


def test_oracle_matches_bfs_exhaustively_n3():
    pairs = [(k, l) for k in range(1, 4) for l in range(1, 4) if k != l]
    for mask in range(1 << len(pairs)):
        arcs = {p for i, p in enumerate(pairs) if mask >> i & 1}
        g = DirectedGraph(3, arcs)
        assert weakly_connected_oracle(g) == is_weakly_connected(g)


@given(digraphs(max_n=5))
@settings(max_examples=150)
def test_oracle_matches_bfs_random(g):
    assert weakly_connected_oracle(g) == is_weakly_connected(g)


def test_find_root_examples():
    assert find_root(DirectedGraph(3, {(1, 2), (2, 3)})) == 1
    assert find_root(DirectedGraph(1, set())) == 1
    assert find_root(DirectedGraph(2)) is None
    assert find_root(DirectedGraph(2, {(1, 2)})) == 1
    assert find_root(DirectedGraph(2, {(2, 1)})) == 2
    cyc = DirectedGraph(4, {(1, 2), (2, 3), (3, 4), (4, 1)})
    assert is_connected_from(cyc, find_root(cyc))


@given(digraphs())
@settings(max_examples=200)
def test_find_root_soundness(g):
    r = find_root(g)
    if r is None:
        assert not is_weakly_connected(g)
    else:
        assert is_connected_from(g, r)


@given(digraphs(max_n=5), st.randoms(use_true_random=False))
def test_connectivity_is_relabeling_invariant(g, rnd):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    assert is_weakly_connected(relabel(g, perm)) == is_weakly_connected(g)


# ---------------------------------------------------------------------------
# Root queries past 60 nodes: sender-less nodes, long reaches, wide levels


def _reference_roots(n, arcs):
    """The roots of a digraph on 1..n, ascending, by a method that shares no
    code with `graphs`.  The node that finishes last in a depth-first search
    of the whole graph lies in a source strongly connected component; when
    it reaches every node, the roots are the nodes that reach it, found by a
    breadth-first search over the reversed arcs."""
    out = [[] for _ in range(n + 1)]
    into = [[] for _ in range(n + 1)]
    for k, l in arcs:
        out[k].append(l)
        into[l].append(k)
    done = [False] * (n + 1)
    last = 1
    for s in range(1, n + 1):
        if done[s]:
            continue
        done[s] = True
        stack = [iter(out[s])]
        while stack:
            for w in stack[-1]:
                if not done[w]:
                    done[w] = True
                    stack.append(iter(out[w]))
                    break
            else:
                stack.pop()
        last = s  # a tree's start finishes after its whole tree

    def bfs(adj):
        seen, todo = {last}, collections.deque([last])
        while todo:
            for w in adj[todo.popleft()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    return sorted(bfs(into)) if len(bfs(out)) == n else []


def _assert_root_queries_match_the_reference(n, arcs, probes, sender_less):
    """find_root, is_weakly_connected, and is_connected_from at the probe
    nodes and at the lowest and highest reference roots, against
    `_reference_roots`; the count of nodes that no arc enters is checked as
    planted.  Returns the reference roots."""
    g = DirectedGraph(n, arcs)
    roots = _reference_roots(n, arcs)
    assert n - len({l for _, l in arcs}) == sender_less
    assert find_root(g) == (roots[0] if roots else None)
    assert is_weakly_connected(g) == bool(roots)
    is_root = set(roots)
    for k in {*probes, *roots[:1], *roots[-1:]}:
        assert is_connected_from(g, k) == (k in is_root), k
    return roots


def _planted_root_graphs(n, rng):
    """(name, arcs, sender-less count) on 1..n, labels shuffled: a random
    arborescence plus about n random arcs, none into its root (one sender-less
    node, rooted); that plus an arc into the root (none, rooted); two such
    halves, each closed into a cycle at its root, with no arc between them
    (none, no root: node 1's reach misses the other half); a half with one
    sender-less node and a closed half that sends into it (one, no root);
    one node's senders cut (two, no root); and a tree on half the nodes (more
    than two, no root)."""
    order = rng.sample(range(1, n + 1), n)
    half = n // 2
    a, b = order[:half], order[half:]

    def tree(nodes):
        return {(nodes[rng.randrange(i)], nodes[i]) for i in range(1, len(nodes))}

    def noise(senders, receivers, count):
        arcs = {(rng.choice(senders), rng.choice(receivers)) for _ in range(count)}
        return {(k, l) for k, l in arcs if k != l}

    rooted = tree(order) | noise(order, order[1:], n)
    closed_a = tree(a) | {(a[-1], a[0])} | noise(a, a, half)
    closed_b = tree(b) | {(b[-1], b[0])} | noise(b, b, n - half)
    cut = order[half]
    yield "one sender-less, rooted", rooted, 1
    yield "none sender-less, rooted", rooted | {(order[-1], order[0])}, 0
    yield "none sender-less, two closed halves", closed_a | closed_b, 0
    open_a = tree(a) | noise(a, a[1:], half)
    yield "one sender-less, no root", open_a | closed_b | noise(b, a[1:], half), 1
    yield "two sender-less", {(k, l) for k, l in rooted if l != cut}, 2
    yield "half the nodes sender-less", tree(a), n - half + 1


def test_root_queries_match_the_reference_on_planted_graphs_up_to_10_000_nodes():
    # about 0.9 s
    rng = random.Random(44)
    for n in (1000, 10_000):
        rooted = []
        for name, arcs, free in _planted_root_graphs(n, rng):
            probes = rng.sample(range(1, n + 1), 40)
            if _assert_root_queries_match_the_reference(n, arcs, probes, free):
                rooted.append(name)
        assert rooted == ["one sender-less, rooted", "none sender-less, rooted"], n


def test_root_queries_on_a_100_000_node_path_in_both_directions():
    # about 1.6 s.  A reach from an end runs 17 numpy levels, then the
    # stack search finishes the other 99,983 nodes
    n = 100_000
    forward = {(k, k + 1) for k in range(1, n)}
    backward = {(l, k) for k, l in forward}
    probes = (1, 2, n - 1, n)
    assert _assert_root_queries_match_the_reference(n, forward, probes, 1) == [1]
    assert _assert_root_queries_match_the_reference(n, backward, probes, 1) == [n]


def test_root_queries_on_stars_and_brooms():
    # about 0.3 s.  A star is reached in one numpy level; a broom's 100-node
    # handle outlasts the 14 levels of n = 10,000, so the stack search
    # finishes its reach.
    n = 10_000
    rng = random.Random(45)
    hub = 4321
    star = {(hub, k) for k in range(1, n + 1) if k != hub}
    probes = (1, hub, n)
    assert _assert_root_queries_match_the_reference(n, star, probes, 1) == [hub]
    inward = {(l, k) for k, l in star}
    assert _assert_root_queries_match_the_reference(n, inward, probes, n - 1) == []
    # node 1 is a bristle, so it is never a root
    labels = rng.sample(range(2, n + 1), n - 1)
    handle, bristles = labels[:100], [1, *labels[100:]]
    broom = {(handle[i], handle[i + 1]) for i in range(99)} | {(handle[-1], k) for k in bristles}
    probes = (1, handle[0], handle[1], handle[-1], bristles[-1])
    assert _assert_root_queries_match_the_reference(n, broom, probes, 1) == [handle[0]]
    # a bristle sends back to the handle's start: every node has a sender, and
    # node 1's reach misses the others, so the search over all nodes runs
    looped = broom | {(bristles[-1], handle[0])}
    want = sorted([*handle, bristles[-1]])
    assert _assert_root_queries_match_the_reference(n, looped, probes, 0) == want
    # a broom beside a 2-cycle: one sender-less node, whose reach misses two
    apart = {(k, l) for k, l in broom if l not in bristles[-2:]}
    apart |= {(bristles[-2], bristles[-1]), (bristles[-1], bristles[-2])}
    assert _assert_root_queries_match_the_reference(n, apart, probes, 1) == []
    # the reversed broom leaves every bristle sender-less
    reverse = {(l, k) for k, l in broom}
    assert _assert_root_queries_match_the_reference(n, reverse, probes, len(bristles)) == []


def test_relabel_requires_permutation():
    with pytest.raises(ValueError, match="permutation"):
        relabel(DirectedGraph(3), [1, 1, 2])


def test_relabel_carries_each_weight_and_the_bounds_with_the_arc():
    g = WeightedDigraph(3, {(1, 2): 0.5, (2, 3): 4.0}, bounds=(0.25, 8.0))
    perm = [2, 3, 1]
    h = relabel(g, perm)
    assert isinstance(h, WeightedDigraph)
    assert dict(h.weights) == {(2, 3): 0.5, (3, 1): 4.0}
    assert h.bounds == (0.25, 8.0)
    inverse = [perm.index(k) + 1 for k in g.nodes]
    assert relabel(h, inverse) == g


def test_weighted_digraph_stores_its_weights_once_in_key_order():
    # no second graph and no arc-keyed dict: one key array, as a
    # DirectedGraph's, and one read-only weight array in key order, whatever
    # the mapping's order
    g = DirectedGraph(3, {(1, 2), (3, 1), (2, 3), (2, 1)})
    wg = WeightedDigraph(3, {(2, 3): 4.0, (1, 2): 0.5, (3, 1): 2.0, (2, 1): 1.5})
    assert set(vars(wg)) == {"n", "_keys", "arc_arrays", "_weights", "bounds"}
    assert not any(isinstance(v, (Mapping, DirectedGraph)) for v in vars(wg).values())
    assert np.array_equal(wg._keys, g._keys) and not wg._keys.flags.writeable
    src, dst = g.arc_arrays
    assert list(zip((src + 1).tolist(), (dst + 1).tolist())) == [(2, 1), (3, 1), (1, 2), (2, 3)]
    assert wg._weights.dtype == float and wg._weights.tolist() == [1.5, 2.0, 0.5, 4.0]
    with pytest.raises(ValueError):
        wg._weights[0] = 1.0
    assert dict(wg.weights) == {(2, 3): 4.0, (1, 2): 0.5, (3, 1): 2.0, (2, 1): 1.5}
    with pytest.raises(TypeError):
        wg.weights[(2, 3)] = 1.0
    assert WeightedDigraph(2, {})._weights.tolist() == []


def test_as_directed_returns_the_unweighted_graph():
    base = DirectedGraph(2, {(1, 2)})
    wg = WeightedDigraph(2, {(1, 2): 3.0})
    plain = as_directed(wg)
    assert plain.__class__ is DirectedGraph and plain == base and hash(plain) == hash(base)
    assert plain._keys is wg._keys
    assert as_directed(base) is base


# ---------------------------------------------------------------------------
# Unions across schedules


def test_union_across_finite_schedule():
    a = DirectedGraph(3, {(1, 2)})
    b = DirectedGraph(3, {(2, 3)})
    sched = FiniteSchedule([a, b], first_time=5)
    assert union_across(sched, IntervalSpec(5, 6)).arcs == {(1, 2), (2, 3)}
    assert union_across(sched, IntervalSpec(6, 100)).arcs == {(2, 3)}
    # the tail is the default arc-free graph, so unbounded unions settle
    assert union_across(sched, IntervalSpec(7)).arcs == frozenset()
    assert union_across(sched, IntervalSpec(5)).arcs == {(1, 2), (2, 3)}


def test_union_across_periodic_schedule():
    a = DirectedGraph(3, {(1, 2)})
    b = DirectedGraph(3, {(2, 3)})
    sched = PeriodicSchedule([a, b], first_time=0)
    assert union_across(sched, IntervalSpec(0, 0)).arcs == {(1, 2)}
    assert union_across(sched, IntervalSpec(1, 1)).arcs == {(2, 3)}
    assert union_across(sched, IntervalSpec(3)).arcs == {(1, 2), (2, 3)}
    assert union_across(sched, IntervalSpec(2, 10**9)).arcs == {(1, 2), (2, 3)}


def test_union_across_generated_without_period():
    g = DirectedGraph(2, {(1, 2)})
    sched = GeneratedSchedule(lambda t: g, n=2, first_time=0)
    assert union_across(sched, IntervalSpec(0, 3)).arcs == {(1, 2)}
    with pytest.raises(UnsupportedQueryError):
        union_across(sched, IntervalSpec(0))


def _plain_union(schedule, times):
    """The union of the arcs at `times`, each distinct graph's read once."""
    return set().union(*(g.arcs for g in {schedule.graph_at(t) for t in times}))


def test_union_across_equals_plain_set_union():
    rng = random.Random(31)
    graphs = list(_random_digraphs(count=60, seed=37))
    for trial in range(40):
        n = rng.choice([g.n for g in graphs])
        pool = [g for g in graphs if g.n == n]
        members = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        first = rng.randint(0, 3)
        schedules = [
            PeriodicSchedule(members, first_time=first),
            FiniteSchedule(members, first_time=first),
            GeneratedSchedule(lambda t, m=members, f=first: m[(t - f) % len(m)], n, first),
        ]
        for sched in schedules:
            a = rng.randint(first, first + 6)
            b = rng.randint(a, a + 7)
            union = union_across(sched, IntervalSpec(a, b))
            assert union.arcs == _plain_union(sched, range(a, b + 1))
            rebuilt = DirectedGraph(n, union.arcs)
            assert union == rebuilt and hash(union) == hash(rebuilt)
            assert all(np.array_equal(x, y) for x, y in zip(union.arc_arrays, rebuilt.arc_arrays))
            assert is_weakly_connected(union) == is_weakly_connected(rebuilt)


def _counting(cls):
    """cls with an instance counter of its `graph_at` calls."""

    class Counting(cls):
        calls = 0

        def graph_at(self, t):
            self.calls += 1
            return super().graph_at(t)

    return Counting


@pytest.mark.parametrize(
    "make", [lambda: _counting(StretchingSchedule)(4), lambda: _counting(CounterexampleSchedule)()],
    ids=["stretching", "counterexample"],
)
def test_bounded_unions_of_closed_form_schedules_stop_at_the_tail(make):
    sched = make()
    assert union_across(sched, IntervalSpec(1, 10**6)) == sched.tail_union(1)
    assert sched.calls <= 100
    # windows that stop short of the tail are still the plain union
    rng = random.Random(5)
    for _ in range(60):
        a = rng.randint(1, 300)
        b = rng.randint(a, a + 40)
        assert union_across(sched, IntervalSpec(a, b)).arcs == _plain_union(sched, range(a, b + 1))
    g = sched.graph_at(7)
    assert union_across(sched, IntervalSpec(7, 7)) is g


def test_union_across_rejects_member_of_other_size():
    class Mismatched(GraphSchedule):
        first_time, n, name = 0, 2, "mismatched"

        def graph_at(self, t):
            return DirectedGraph(2 + t, {(1, 2 + t)})

    with pytest.raises(ValueError, match="graph at time 1 has n=3, expected 2"):
        union_across(Mismatched(), IntervalSpec(0, 1))


def test_union_across_rejects_early_start():
    sched = PeriodicSchedule([DirectedGraph(2)], first_time=3)
    with pytest.raises(ValueError, match="before the schedule"):
        union_across(sched, IntervalSpec(2, 5))


# ---------------------------------------------------------------------------
# Text format


def test_parse_unweighted_round_trip():
    g = DirectedGraph(4, {(2, 1), (1, 2), (3, 2)})
    assert parse_graph_text(format_graph_text(g)) == g


def test_parse_weighted_round_trip():
    wg = WeightedDigraph(4, {(2, 1): 0.5, (1, 2): 1.0, (3, 2): 5.0})
    again = parse_graph_text(format_graph_text(wg))
    assert isinstance(again, WeightedDigraph)
    assert again == wg


def test_parse_comments_and_blank_lines():
    text = "# a graph\n\nn=2  # two nodes\n  arc 1 2   # the only arc\n\n"
    g = parse_graph_text(text)
    assert g == DirectedGraph(2, {(1, 2)})


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("arc 1 2\n", 1, "expected 'n="),
        ("n=2\nbogus\n", 2, "expected 'arc"),
        ("n=2\narc 1 1\n", 2, "self-loop"),
        ("n=2\narc 1 3\n", 2, "outside node range"),
        ("n=2\narc 1 2\narc 1 2\n", 3, "duplicate"),
        ("n=2\narc 1 2 1.0\narc 2 1\n", 3, "mixed"),
        ("n=2\narc 1 2\narc 2 1 1.0\n", 3, "mixed"),
        ("n=2\narc 1 2 zero\n", 2, "bad weight"),
        ("n=2\narc 1 2 -1\n", 2, "positive"),
        ("n=0\n", 1, "node count"),
        ("", 1, "empty input"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(text)
    assert err.value.line == lineno
    assert fragment in str(err.value)


@pytest.mark.parametrize("weight", ["inf", "1e400", "nan", "0", "-1"])
def test_parse_checks_each_weight_by_the_weight_rule_on_its_line(weight):
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(f"n=2\narc 1 2 {weight}\n")
    assert err.value.line == 2
    assert "positive and finite" in str(err.value)


def test_weight_rule_names_the_arc_of_a_weighted_digraph():
    for bad in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match=r"weight of arc \(1, 2\) must be positive and finite"):
            WeightedDigraph(2, {(1, 2): bad})


def test_parse_with_declared_bounds():
    text = "n=2\narc 1 2 0.5\n"
    wg = parse_graph_text(text, bounds=(0.1, 1.0))
    assert wg.bounds == (0.1, 1.0)
    with pytest.raises(ValueError, match="outside declared bounds"):
        parse_graph_text(text, bounds=(1.0, 2.0))


@pytest.mark.parametrize("bounds, message", [
    ((2.0, 1.0), "bounds must satisfy 0 < e_min <= e_max"),
    ((0.0, 5.0), "bounds must satisfy 0 < e_min <= e_max"),
    ((2.0, 5.0), r"weight 1.0 for arc \(2, 3\) outside declared bounds \[2.0, 5.0\]"),
    ((0.5, 0.9), r"weight 1.0 for arc \(2, 3\) outside declared bounds"),
])
def test_parse_checks_bounds_on_unweighted_text(bounds, message):
    # An unweighted arc weighs 1.0 in the update matrix; the first arc is named.
    with pytest.raises(ValueError, match=message):
        parse_graph_text("n=3\narc 2 3\narc 1 2\n", bounds=bounds)


@pytest.mark.parametrize("text", ["n=3\narc 2 3\narc 1 2\n", "n=2\n"])
def test_parse_unweighted_text_within_bounds_stays_unweighted(text):
    g = parse_graph_text(text, bounds=(0.5, 1.0))
    assert type(g) is DirectedGraph
    assert g == parse_graph_text(text)


def test_parse_arc_free_text_checks_only_the_bounds_themselves():
    assert parse_graph_text("n=2\n", bounds=(2.0, 5.0)) == DirectedGraph(2)
    with pytest.raises(ValueError, match="0 < e_min <= e_max"):
        parse_graph_text("n=2\n", bounds=(2.0, 1.0))


# ---------------------------------------------------------------------------
# The stored keys and the views derived from them


def _reference_csr(n, entries):
    """Compressed sparse row layout of 1-based (row, column) entries, built
    from Python tuples: 0-based row offsets and each row's ascending columns."""
    rows = [[] for _ in range(n)]
    for r, c in entries:
        rows[r - 1].append(c - 1)
    for row in rows:
        row.sort()
    return [0, *itertools.accumulate(map(len, rows))], list(itertools.chain.from_iterable(rows))


def _assert_views_match_the_reference(g, arcs):
    n = g.n
    assert type(g.arcs) is frozenset and g.arcs == arcs
    assert all(type(k) is int and type(l) is int for k, l in g.arcs)
    in_ptr, in_src = _reference_csr(n, ((l, k) for k, l in arcs))
    assert g._out_csr == _reference_csr(n, arcs)
    ptr, idx = g._out_csr
    assert all(type(v) is int for v in ptr + idx)
    src, dst = g.arc_arrays
    assert src.tolist() == in_src
    assert dst.tolist() == [j for j in range(n) for _ in range(in_ptr[j + 1] - in_ptr[j])]
    keys = g._keys
    assert keys.dtype == np.intp and not keys.flags.writeable
    assert keys.tolist() == sorted((l - 1) * n + k - 1 for k, l in arcs)
    twin = DirectedGraph(n, sorted(arcs, reverse=True))
    assert twin == g and hash(twin) == hash(g)


@given(digraphs(max_n=7))
def test_views_match_the_tuple_reference(g):
    _assert_views_match_the_reference(g, frozenset(g.arcs))


def _random_graphs_up_to_60(count, seed):
    """Seeded graphs with n in 1..60 and densities from arc-free to complete."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 60)
        pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
        rate = (0.0, 1.0, rng.random() ** 3, rng.random())[i % 4]
        yield n, frozenset(p for p in pairs if rng.random() < rate)


def test_views_equality_and_hash_match_the_tuple_reference_up_to_60_nodes():
    built = []
    for n, arcs in _random_graphs_up_to_60(120, seed=5):
        g = DirectedGraph(n, arcs)
        _assert_views_match_the_reference(g, arcs)
        built.append((g, n, arcs))
    # equality is the reference's (n, arc set) equality, and equal graphs hash alike
    rng = random.Random(6)
    pairs = [(a, b) for a in built for b in built if a[1] == b[1]] + rng.sample(
        [(a, b) for a in built for b in built], 400)
    for (g, n, arcs), (h, m, other) in pairs:
        assert (g == h) == ((n, arcs) == (m, other))
        assert (g != h) == ((n, arcs) != (m, other))
        if g == h:
            assert hash(g) == hash(h)
    # dropping one arc, or moving the graph to another node count, breaks equality
    g, n, arcs = next(b for b in built if len(b[2]) > 1)
    assert DirectedGraph(n, sorted(arcs)[1:]) != g
    assert DirectedGraph(n + 1, arcs) != g
    # a weighted graph never equals an unweighted one on the same arcs
    wg = WeightedDigraph(n, dict.fromkeys(arcs, 1.0))
    assert wg != g and g != wg and as_directed(wg) == g


def test_union_equals_and_hashes_like_the_graph_built_from_its_arcs():
    rng = random.Random(9)
    for n, arcs in _random_graphs_up_to_60(40, seed=8):
        members = [
            DirectedGraph(n, {a for a in arcs if rng.random() < 0.5}) for _ in range(3)
        ]
        union = union_across(PeriodicSchedule(members), IntervalSpec(0, 2))
        built = DirectedGraph(n, frozenset().union(*(g.arcs for g in members)))
        assert union == built and hash(union) == hash(built)
        _assert_views_match_the_reference(union, built.arcs)
        # one matrix serves both: the cache finds the union's under the built graph
        avg = LinearAverage()
        assert avg.matrix_for(built) is avg.matrix_for(union)


def test_thousand_node_table_union_equals_the_frozenset_union():
    rng = np.random.default_rng(4)
    n = 1000
    members = []
    for _ in range(5):
        src, dst = rng.integers(1, n + 1, 3 * n), rng.integers(1, n + 1, 3 * n)
        members.append(DirectedGraph(n, [(k, l) for k, l in zip(src.tolist(), dst.tolist())
                                         if k != l]))
    sched = PeriodicSchedule(members)
    for a, b in ((0, 4), (1, 3), (3, 7), (2, 2)):
        union = union_across(sched, IntervalSpec(a, b))
        want = frozenset().union(*(members[t % 5].arcs for t in range(a, b + 1)))
        assert union.arcs == want
        assert union == DirectedGraph(n, want)


def test_arcs_on_more_nodes_than_keys_can_number_are_refused():
    # a key (l - 1) n + (k - 1) must be an intp: past isqrt(intp max) nodes a
    # graph fails the arc rule, with or without arcs, in the parser on its
    # n line; only refused sizes are built here, since a query on an
    # arc-free graph near the cap allocates O(n)
    cap = math.isqrt(np.iinfo(np.intp).max)
    assert DirectedGraph(cap, {(1, cap)}).arcs == {(1, cap)}
    with pytest.raises(ValueError, match=f"^a graph has at most {cap} nodes, got n={cap + 1}$"):
        DirectedGraph(cap + 1, {(1, 2)})
    with pytest.raises(GraphFormatError, match="^line 1: a graph has at most"):
        parse_graph_text(f"n={cap + 1}\narc 1 2\n")
    with pytest.raises(GraphFormatError, match=f"^line 2: a graph has at most {cap} nodes, got n={2**63}$"):
        parse_graph_text(f"# no arcs\nn={2**63}\n")
    for n in (cap + 1, 2**63):
        with pytest.raises(ValueError, match=f"^a graph has at most {cap} nodes, got n={n}$"):
            DirectedGraph(n)
