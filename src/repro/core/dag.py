"""The optimization phase order space DAG (paper Figures 4 and 7).

Nodes are distinct function instances; edges are labeled with the
active phase that transforms one instance into the next.  Node weights
follow Figure 7: a leaf (no phase active) weighs 1, and an interior
node's weight is the sum of its children's weights over its outgoing
active edges — i.e. the number of distinct active phase sequences that
continue from that instance.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple


class SpaceNode:
    """One distinct function instance in the space DAG."""

    __slots__ = (
        "node_id",
        "key",
        "level",
        "num_insts",
        "cf_crc",
        "active",
        "dormant",
        "expanded",
        "parents",
        "function",
    )

    def __init__(self, node_id: int, key, level: int, num_insts: int, cf_crc: int):
        self.node_id = node_id
        self.key = key
        self.level = level
        self.num_insts = num_insts
        self.cf_crc = cf_crc
        #: phase id -> child node id (active edges)
        self.active: Dict[str, int] = {}
        #: phase ids found dormant at this instance
        self.dormant: Set[str] = set()
        self.expanded = False
        #: (parent node id, phase id) pairs
        self.parents: List[Tuple[int, str]] = []
        self.function = None  # only retained while on the frontier

    def is_leaf(self) -> bool:
        """No phase is active at this instance (paper's leaf count)."""
        return self.expanded and not self.active

    def __repr__(self):
        return (
            f"<SpaceNode {self.node_id} level={self.level} "
            f"insts={self.num_insts} active={sorted(self.active)}>"
        )


class SpaceDAG:
    """The enumerated phase order space of one function."""

    def __init__(self, function_name: str):
        self.function_name = function_name
        self.nodes: Dict[int, SpaceNode] = {}
        self.by_key: Dict[object, int] = {}
        #: syntactic key -> node id of the *representative* the instance
        #: was semantically collapsed into (collapse=semantic only; see
        #: docs/COLLAPSE.md).  Empty under syntactic collapse.
        self.aliases: Dict[object, int] = {}
        self.root_id: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction (used by the enumerator)
    # ------------------------------------------------------------------

    def add_node(self, key, level: int, num_insts: int, cf_crc: int) -> SpaceNode:
        node_id = len(self.nodes)
        node = SpaceNode(node_id, key, level, num_insts, cf_crc)
        self.nodes[node_id] = node
        self.by_key[key] = node_id
        if self.root_id is None:
            self.root_id = node_id
        return node

    def lookup(self, key) -> Optional[SpaceNode]:
        node_id = self.by_key.get(key)
        if node_id is None:
            node_id = self.aliases.get(key)
        return None if node_id is None else self.nodes[node_id]

    def add_alias(self, key, node_id: int) -> None:
        """Record that the instance with syntactic *key* was merged
        into node *node_id*; later lookups (repeat discoveries,
        ``find_instance``) resolve to the representative."""
        self.aliases[key] = node_id

    def add_edge(self, parent: SpaceNode, phase_id: str, child: SpaceNode) -> None:
        parent.active[phase_id] = child.node_id
        child.parents.append((parent.node_id, phase_id))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def root(self) -> SpaceNode:
        return self.nodes[self.root_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def leaves(self) -> List[SpaceNode]:
        return [node for node in self.nodes.values() if node.is_leaf()]

    def depth(self) -> int:
        """Largest active phase sequence length (Table 3's Len)."""
        return max((node.level for node in self.nodes.values()), default=0)

    def distinct_control_flows(self) -> int:
        """Number of distinct control flows over all instances (CF)."""
        return len({node.cf_crc for node in self.nodes.values()})

    def weights(self) -> Dict[int, int]:
        """Figure 7 node weights: distinct active sequences per node.

        Unexpanded nodes (possible when an enumeration was truncated)
        are weighted like leaves.
        """
        weights: Dict[int, int] = {}
        order = self._topological_order()
        for node_id in reversed(order):
            node = self.nodes[node_id]
            if not node.active:
                weights[node_id] = 1
            else:
                weights[node_id] = sum(
                    weights[child] for child in node.active.values()
                )
        return weights

    def path_counts(self) -> Dict[int, int]:
        """Number of distinct root paths to each node.

        Summing these over all nodes gives the size of the
        dormant-pruned *tree* of Figure 2 — what the search space would
        be without identical-instance merging.
        """
        counts: Dict[int, int] = {node_id: 0 for node_id in self.nodes}
        counts[self.root_id] = 1
        for node_id in self._topological_order():
            node = self.nodes[node_id]
            for child in node.active.values():
                counts[child] += counts[node_id]
        return counts

    def tree_size(self) -> int:
        """Nodes of the dormant-pruned tree (Figure 2 equivalent)."""
        return sum(self.path_counts().values())

    def naive_space_size(self, num_phases: int) -> int:
        """Nodes of the naive attempted tree (Figure 1): sum of
        ``num_phases**level`` over the enumerated depth."""
        return sum(num_phases ** level for level in range(self.depth() + 1))

    def min_codesize(self) -> Optional[int]:
        leaves = self.leaves()
        if not leaves:
            return None
        return min(node.num_insts for node in leaves)

    def max_codesize(self) -> Optional[int]:
        leaves = self.leaves()
        if not leaves:
            return None
        return max(node.num_insts for node in leaves)

    def find_instance(self, func) -> Optional[SpaceNode]:
        """Locate a concrete function instance in this space.

        Useful for asking where another compiler's output (e.g. the
        batch compiler's) sits inside the exhaustively enumerated
        space.  Returns None when the instance is not in the space
        (possible for truncated enumerations).
        """
        from repro.core.enumeration import _node_key
        from repro.core.fingerprint import fingerprint_function

        return self.lookup(_node_key(fingerprint_function(func), func))

    def codesize_histogram(self) -> Dict[int, int]:
        """Leaf count per code size (the spread Table 3 summarizes)."""
        histogram: Dict[int, int] = {}
        for leaf in self.leaves():
            histogram[leaf.num_insts] = histogram.get(leaf.num_insts, 0) + 1
        return histogram

    def to_dot(self, max_nodes: int = 400) -> str:
        """Graphviz rendering of the space DAG (Figure 4/7 style).

        Nodes show instance id, level, and instruction count; edges are
        labeled with the active phase.  Spaces larger than *max_nodes*
        are truncated breadth-first (a note is added).
        """
        lines = [
            "digraph space {",
            "  rankdir=TB;",
            '  node [shape=circle, fontsize=10];',
        ]
        included = set()
        for node in self.nodes.values():
            if len(included) >= max_nodes:
                lines.append(
                    f'  trunc [shape=plaintext, label="... truncated at '
                    f'{max_nodes} of {len(self.nodes)} nodes"];'
                )
                break
            included.add(node.node_id)
            shape = "doublecircle" if node.is_leaf() else "circle"
            lines.append(
                f'  n{node.node_id} [shape={shape}, '
                f'label="{node.node_id}\\n{node.num_insts} insts"];'
            )
        for node in self.nodes.values():
            if node.node_id not in included:
                continue
            for phase_id, child in sorted(node.active.items()):
                if child in included:
                    lines.append(f'  n{node.node_id} -> n{child} [label="{phase_id}"];')
        lines.append("}")
        return "\n".join(lines)

    def _topological_order(self) -> List[int]:
        """Parents before children (levels give a valid topological
        order because every edge goes from level n to level <= n+1 and
        the DAG is acyclic by construction)."""
        indegree: Dict[int, int] = {node_id: 0 for node_id in self.nodes}
        for node in self.nodes.values():
            for child in node.active.values():
                indegree[child] += 1
        ready = sorted(
            (node_id for node_id, deg in indegree.items() if deg == 0)
        )
        order: List[int] = []
        while ready:
            node_id = ready.pop()
            order.append(node_id)
            for child in sorted(self.nodes[node_id].active.values()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
        if len(order) != len(self.nodes):
            raise RuntimeError("space DAG contains a cycle")
        return order


def materialize_instances(dag: SpaceDAG, root_func, target=None) -> int:
    """Re-attach a :class:`Function` instance to every node of *dag*.

    The DAG records *which* instances exist and which phase transforms
    one into the next, but a space enumerated without
    ``keep_functions=True`` (or loaded back from a checkpoint or a
    :class:`~repro.core.store.SpaceStore` entry) carries no
    function objects.  This walk rebuilds them by replaying every
    active edge exactly once in topological order — the same
    one-phase-per-edge discipline as prefix-sharing enumeration — so
    leaf evaluation (dynamic counts, the multi-objective cost model,
    the search-lab oracle) works on cold-loaded spaces.

    *root_func* must be the canonical root instance (after
    ``implicit_cleanup``); each rebuilt instance is verified against
    the node's stored fingerprint key, so a wrong or stale root fails
    loudly instead of silently pricing the wrong code.

    Returns the number of phase applications performed (== active
    edges replayed).  Nodes that already carry a function are kept
    as-is and their outgoing edges are still used for children.
    """
    from repro.core.enumeration import _node_key
    from repro.ir.flat import flat_fingerprint, from_flat, to_flat
    from repro.machine.target import DEFAULT_TARGET
    from repro.opt import attempt_phase_on_flat, phase_by_id

    target = target or DEFAULT_TARGET
    if dag.root_id is None:
        return 0
    root = dag.root
    if root.function is None:
        candidate = to_flat(root_func)
        key = _node_key(flat_fingerprint(candidate), candidate)
        if key != root.key:
            raise ValueError(
                f"{dag.function_name}: root_func does not fingerprint to the "
                "DAG's root key — wrong function or non-canonical instance "
                "(run implicit_cleanup first)"
            )
        root.function = root_func.clone()
    # node id -> flat form of its function, converted once per node
    flats: Dict[int, object] = {}
    applied = 0
    for node_id in dag._topological_order():
        node = dag.nodes[node_id]
        if node.function is None:
            # Unreachable from the root through materialized parents;
            # can only happen on a DAG truncated mid-construction.
            continue
        parent = flats.pop(node_id, None) or to_flat(node.function)
        for phase_id in sorted(node.active):
            child = dag.nodes[node.active[phase_id]]
            if child.function is not None:
                continue
            candidate = attempt_phase_on_flat(parent, phase_by_id(phase_id), target)
            applied += 1
            if candidate is None:
                raise ValueError(
                    f"{dag.function_name}: phase {phase_id!r} recorded as "
                    f"active on node #{node.node_id} was dormant on replay "
                    "— the DAG does not belong to root_func"
                )
            key = _node_key(flat_fingerprint(candidate), candidate)
            if key != child.key:
                if dag.aliases.get(key) == child.node_id:
                    # Semantically merged edge: the replayed candidate
                    # is a proved-equivalent sibling of the
                    # representative, not its exact code.  Leave
                    # materialization to an exact in-edge — the
                    # representative's creating edge always is one.
                    continue
                raise ValueError(
                    f"{dag.function_name}: replaying phase {phase_id!r} on "
                    f"node #{node.node_id} produced a different instance "
                    f"than recorded child #{child.node_id}"
                )
            child.function = from_flat(candidate)
            flats[child.node_id] = candidate
    return applied
