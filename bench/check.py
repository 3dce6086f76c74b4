"""Answer checks that do not rely on branchpairs.

Everything here works on plain arc lists: the instance as the generator made
it, and the answer as it comes back from JSON.  A check returns None when the
answer holds and a one-line reason when it does not.
"""

from __future__ import annotations


def out_lists(n: int, arcs) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for tail, head in arcs:
        adjacency[tail].append(head)
    return adjacency


def reached_from(n: int, arcs, start: int, reverse: bool = False) -> set[int]:
    """Vertices reachable from `start` (or reaching it, with `reverse`)."""
    adjacency = out_lists(n, ((h, t) for t, h in arcs) if reverse else arcs)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_strong(n: int, arcs) -> bool:
    return len(reached_from(n, arcs, 0)) == n and len(reached_from(n, arcs, 0, True)) == n


def _mask_reach(out: list[int], start: int) -> int:
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= out[low.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def strength(n: int, arcs) -> str:
    """"split" (not strong), "strong" (strong, but some arc is a cut arc)
    or "2-arc-strong".  In a strong digraph an arc (x, y) is a cut arc
    exactly when y cannot be reached from x without it."""
    if not is_strong(n, arcs):
        return "split"
    out = [0] * n
    for tail, head in arcs:
        out[tail] |= 1 << head
    for tail, head in arcs:
        out[tail] ^= 1 << head
        stranded = not _mask_reach(out, tail) >> head & 1
        out[tail] ^= 1 << head
        if stranded:
            return "strong"
    return "2-arc-strong"


def is_semicomplete(n: int, arcs) -> bool:
    arc_set = set(arcs)
    if len(arc_set) != len(arcs) or any(t == h or not (0 <= t < n and 0 <= h < n) for t, h in arcs):
        return False
    return all(
        (a, b) in arc_set or (b, a) in arc_set for a in range(n) for b in range(a + 1, n)
    )


def _tree_problem(n: int, arc_set, root: int, tree_arcs, kind: str) -> str | None:
    """Spanning out-tree (parent -> child arcs) or in-tree (child -> parent
    arcs) rooted at `root`, using only arcs of the instance."""
    parent: dict[int, int] = {}
    for arc in tree_arcs:
        tail, head = arc
        if (tail, head) not in arc_set:
            return f"{kind}-tree uses ({tail},{head}), which is not an arc"
        child, par = (head, tail) if kind == "out" else (tail, head)
        if child == root:
            return f"{kind}-tree gives its root {root} a parent"
        if child in parent:
            return f"{kind}-tree gives vertex {child} two parents"
        parent[child] = par
    missing = set(range(n)) - set(parent) - {root}
    if missing:
        return f"{kind}-tree misses vertex {min(missing)}"
    if set(parent.values()) - set(range(n)):
        return f"{kind}-tree names a parent outside the vertex set"
    rooted = {root}
    for start in parent:
        path: set[int] = set()
        q = start
        while q not in rooted:
            if q in path:
                return f"{kind}-tree has a cycle through {q}"
            path.add(q)
            q = parent[q]
        rooted |= path
    return None


def pair_problem(n: int, arcs, u: int, v: int, data: dict) -> str | None:
    """Check a `pair_to_dict` document against the instance."""
    if data.get("u") != u or data.get("v") != v:
        return f"answer names roots ({data.get('u')},{data.get('v')}), not ({u},{v})"
    arc_set = set(arcs)
    out_arcs = [tuple(a) for a in data["out"]]
    in_arcs = [tuple(a) for a in data["in"]]
    for kind, root, tree_arcs in (("out", u, out_arcs), ("in", v, in_arcs)):
        problem = _tree_problem(n, arc_set, root, tree_arcs, kind)
        if problem:
            return problem
    shared = set(out_arcs) & set(in_arcs)
    if shared:
        return f"trees share the arc {min(shared)}"
    return None


def certificate_problem(n: int, arcs, u: int, v: int, body: dict) -> str | None:
    """Check a `root-misplaced` or `cut-arc` certificate body by reachability.

    A misplaced root cannot reach (or be reached from) every vertex.  A cut
    arc leaves both roots stranded once removed, and a good pair uses it in
    at most one of its trees.
    """
    kind = body.get("kind")
    if kind == "root-misplaced":
        which = body.get("which")
        if which == "u-not-initial":
            if len(reached_from(n, arcs, u)) == n:
                return "u reaches every vertex"
            return None
        if which == "v-not-terminal":
            if len(reached_from(n, arcs, v, reverse=True)) == n:
                return "every vertex reaches v"
            return None
        return f"unknown reason {which!r}"
    if kind == "cut-arc":
        arc = tuple(body["arc"])
        if arc not in set(arcs):
            return f"{arc} is not an arc"
        reduced = [a for a in arcs if a != arc]
        if len(reached_from(n, reduced, u)) == n:
            return f"u still reaches every vertex without {arc}"
        if len(reached_from(n, reduced, v, reverse=True)) == n:
            return f"every vertex still reaches v without {arc}"
        return None
    return f"no reachability check for kind {kind!r}"
