"""Checker that uses no code from the program.

Adjacency, degrees and optima are rebuilt from the generator's edge arrays,
and every result the program reports is recomputed here.  Each ``check_*``
function returns a list of failure messages; an empty list means the output
is correct.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


class Reference:
    """Independent view of one generated instance."""

    def __init__(self, inst) -> None:
        self.n = inst.n
        self.u, self.v, self.w = inst.u, inst.v, inst.w
        self.ids = inst.u * inst.n + inst.v  # pair ids lo*n+hi, for binary search
        if np.any(np.diff(self.ids) <= 0):
            raise ValueError("edges must be distinct pairs u < v in sorted order")
        self.degree = np.bincount(inst.u, weights=inst.w, minlength=inst.n) + np.bincount(
            inst.v, weights=inst.w, minlength=inst.n
        )
        self._omega: int | None = None

    def clique_weight(self, nodes) -> float | None:
        """Total internal weight, or None if some pair is not adjacent."""
        nodes = np.sort(np.asarray(nodes, dtype=np.int64))
        a, b = np.triu_indices(nodes.size, k=1)
        want = nodes[a] * self.n + nodes[b]
        pos = np.minimum(np.searchsorted(self.ids, want), self.ids.size - 1)
        if want.size and (self.ids.size == 0 or np.any(self.ids[pos] != want)):
            return None
        return float(self.w[pos].sum())

    def cut_and_volume(self, nodes) -> tuple[float, float]:
        mask = np.zeros(self.n, dtype=bool)
        mask[list(nodes)] = True
        cut = float(self.w[mask[self.u] != mask[self.v]].sum())
        return cut, float(self.degree[mask].sum())

    def optimum_clique_weight(self) -> float:
        """Exact maximum clique weight; generated weights are all 1."""
        if not np.all(self.w == 1.0):
            raise ValueError("the exact search assumes unit weights")
        if self._omega is None:
            self._omega = max_clique_size(self.n, self.u.tolist(), self.v.tolist())
        return self._omega * (self._omega - 1) / 2.0


def _degeneracy_order(nbrs: list[list[int]]) -> list[int]:
    """Smallest-last order: repeatedly remove a node of minimum remaining degree."""
    deg = [len(x) for x in nbrs]
    heap = [(d, i) for i, d in enumerate(deg)]
    heapq.heapify(heap)
    removed = [False] * len(nbrs)
    order = []
    while heap:
        d, i = heapq.heappop(heap)
        if removed[i] or d != deg[i]:
            continue
        removed[i] = True
        order.append(i)
        for j in nbrs[i]:
            if not removed[j]:
                deg[j] -= 1
                heapq.heappush(heap, (deg[j], j))
    return order


def _largest_clique(adj: list[int], cand: int, floor: int) -> int:
    """Largest clique inside the bit set ``cand``, if larger than ``floor``.

    Branch and bound with a greedy colouring bound (Tomita & Seki's MCQ).
    Returns ``floor`` when nothing larger exists.
    """
    best = floor

    def expand(size: int, pool: int) -> None:
        nonlocal best
        order = []
        uncoloured = pool
        colour = 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                low = avail & -avail
                x = low.bit_length() - 1
                avail &= ~adj[x] & ~low
                uncoloured &= ~low
                order.append((x, colour))
        for x, c in reversed(order):
            if size + c <= best:
                return
            inner = pool & adj[x]
            if inner:
                expand(size + 1, inner)
            elif size + 1 > best:
                best = size + 1
            pool &= ~(1 << x)

    expand(0, cand)
    return best


def max_clique_size(n: int, us: list[int], vs: list[int]) -> int:
    """Clique number, searched per node over its later neighbours in degeneracy order."""
    if n == 0:
        return 0
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(us, vs):
        nbrs[a].append(b)
        nbrs[b].append(a)
    order = _degeneracy_order(nbrs)
    pos = [0] * n
    for i, x in enumerate(order):
        pos[x] = i
    best = 1
    for x in order:
        later = [y for y in nbrs[x] if pos[y] > pos[x]]
        if len(later) + 1 <= best:
            continue
        local = {y: i for i, y in enumerate(later)}
        adj = [0] * len(later)
        for y, i in local.items():
            for z in nbrs[y]:
                j = local.get(z)
                if j is not None:
                    adj[i] |= 1 << j
        best = max(best, 1 + _largest_clique(adj, (1 << len(later)) - 1, best - 1))
    return best


def check_clique(ref: Reference, payload: dict) -> tuple[list[str], float]:
    """A clique result: a clique, weight as reported, at most the optimum, certificate claim."""
    nodes = [int(i) for i in payload["node_indices"]]
    if len(set(nodes)) != len(nodes) or any(not 0 <= i < ref.n for i in nodes):
        return ["node indices repeat or fall outside the graph"], 0.0
    weight = ref.clique_weight(nodes)
    if weight is None:
        return ["result is not a clique"], 0.0
    errors = []
    if not _close(weight, float(payload["objective"])):
        errors.append(f"objective {payload['objective']} but the set weighs {weight}")
    optimum = ref.optimum_clique_weight()
    if weight > optimum + _TOL:
        errors.append(f"weight {weight} exceeds the exact optimum {optimum}")
    cert = payload["certificate"]
    if cert["kind"] == "penalty" and not cert["vacuous"]:
        cost = float(payload["gamma"]) - weight
        if cost > float(cert["bound"]) + _TOL * max(1.0, abs(float(cert["bound"]))):
            errors.append(f"certificate bound {cert['bound']} but gamma - w(S) = {cost}")
    return errors, weight


def check_partition(ref: Reference, payload: dict, seed_node: int) -> tuple[list[str], float]:
    """A partition result: seed inside, volume cap, conductance, constraint flag, Hoeffding term."""
    nodes = [int(i) for i in payload["node_indices"]]
    if len(set(nodes)) != len(nodes) or any(not 0 <= i < ref.n for i in nodes):
        return ["node indices repeat or fall outside the graph"], 0.0
    if seed_node not in nodes:
        return [f"seed node {seed_node} is not in the set"], 0.0
    cut, vol = ref.cut_and_volume(nodes)
    phi = cut / vol
    lower, upper = (float(x) for x in payload["interval"])
    errors = []
    if vol > upper + _TOL * upper:
        errors.append(f"volume {vol} above the interval's upper bound {upper}")
    if not _close(phi, float(payload["conductance"])):
        errors.append(f"conductance {payload['conductance']} but recomputed {phi}")
    if not _close(cut, float(payload["objective"])):
        errors.append(f"objective {payload['objective']} but the cut weighs {cut}")
    if bool(payload["constraint_ok"]) != (lower <= vol <= upper):
        errors.append(f"constraint_ok={payload['constraint_ok']} for volume {vol} in [{lower}, {upper}]")
    term = 2.0 * math.exp(-((upper - lower) ** 2) / (2.0 * float(np.sum(ref.degree**2))))
    got = payload["certificate"]["hoeffding_term"]
    if got is None or not _close(term, float(got)):
        errors.append(f"hoeffding term {got} but recomputed {term}")
    return errors, phi


def check_verify(rc: int, payload: dict | None, weight: float) -> list[str]:
    """``cliquecut verify`` exits 0 and recomputes the objective the checker found."""
    if rc != 0 or payload is None:
        return [f"verify exited {rc}"]
    if not payload.get("verified"):
        return ["verify did not confirm the result"]
    if not _close(float(payload["objective_recomputed"]), weight):
        return [f"verify recomputed {payload['objective_recomputed']}, checker found {weight}"]
    return []
