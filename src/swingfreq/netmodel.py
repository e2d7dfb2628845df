"""Network description, case-file I/O, and the pre-disturbance equilibrium.

Power flows over a lossless, unit-voltage network: the branch flow between
buses i and j is B_ij * sin(delta_i - delta_j).  Everything downstream works
in center-of-inertia (COI) coordinates, so angle vectors are kept zero-mean.

The network potential

    S(delta) = -sum_{edges (i,j)} B_ij * cos(delta_i - delta_j)

ties the model together: its gradient is the vector of net electrical power
drawn from each bus, its Hessian is the cosine-weighted graph Laplacian, and
the pre-disturbance equilibrium solves grad_S(delta) = p_star.  Each term is
a product with the edge-bus incidence matrix, batched over leading axes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "AssumptionViolation",
    "CaseError",
    "ConvergenceError",
    "Network",
    "bundled_case_path",
    "coi_project",
    "grad_S",
    "hessian_S",
    "load_case",
    "potential_S",
    "solve_equilibrium",
]

BALANCE_TOL = 1e-9
RESIDUAL_TOL = 1e-8


class CaseError(ValueError):
    """Malformed case file or violated network invariant."""


class ConvergenceError(RuntimeError):
    """Equilibrium iteration failed to reach the residual tolerance."""


class AssumptionViolation(RuntimeError):
    """A state left the certified operating region |delta_i - delta_j| < pi/2."""


def coi_project(x: np.ndarray) -> np.ndarray:
    """Remove the rotational gauge freedom: subtract the mean; batched."""
    x = np.asarray(x, dtype=float)
    # np.add.reduce(x, -1)/n == x.mean(-1) bit for bit, minus the wrapper cost
    return x - np.add.reduce(x, -1, keepdims=True) / x.shape[-1]


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable lossless network.

    `edges` stores 0-based index pairs (i, j) with i < j; `b_edge` the
    per-edge susceptances.  The signed incidence matrix (+1 at i, -1 at j per
    edge row; no dense susceptance matrix is kept) is derived at construction;
    every network term is a product with it.  All arrays are read-only, so
    instances are safe to share across threads.
    """

    name: str
    bus_ids: tuple[int, ...]
    M: np.ndarray
    D: np.ndarray
    p_star: np.ndarray
    edges: tuple[tuple[int, int], ...]
    b_edge: np.ndarray
    incidence: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.bus_ids)
        for arr_name in ("M", "D", "p_star", "b_edge"):
            arr = np.ascontiguousarray(getattr(self, arr_name), dtype=float)
            object.__setattr__(self, arr_name, arr)
        _validate(self)
        inc = np.zeros((len(self.edges), n))
        for e, (i, j) in enumerate(self.edges):
            inc[e, i] = 1.0
            inc[e, j] = -1.0
        object.__setattr__(self, "incidence", inc)
        for arr in (self.M, self.D, self.p_star, self.b_edge, inc):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.bus_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_differences(self, delta: np.ndarray) -> np.ndarray:
        """Per-edge delta_i - delta_j, batched; bit for bit the plain subtraction."""
        return np.asarray(delta, dtype=float) @ self.incidence.T


def _validate(net: Network) -> None:
    n = len(net.bus_ids)
    if n < 1:
        raise CaseError("case has no buses")
    if len(set(net.bus_ids)) != n:
        raise CaseError("duplicate bus ids")
    for label, arr in (("inertia", net.M), ("damping", net.D)):
        if arr.shape != (n,):
            raise CaseError(f"{label} array has wrong length")
        for k in np.flatnonzero(~(arr > 0)):
            word = "negative" if arr[k] < 0 else "zero"
            raise CaseError(f"{word} {label} at bus {net.bus_ids[k]}")
    if net.p_star.shape != (n,):
        raise CaseError("p_star array has wrong length")
    if not np.all(np.isfinite(net.p_star)):
        raise CaseError("non-finite p_star")
    s = net.p_star.sum()
    if abs(s) > BALANCE_TOL:
        raise CaseError(
            f"unbalanced setpoints: sum(p_star) = {s:.3e} exceeds {BALANCE_TOL:g} "
            "(a lossless equilibrium requires balance; load with repair_balance=True "
            "to subtract the mean)"
        )
    if net.b_edge.shape != (len(net.edges),):
        raise CaseError("b_edge array has wrong length")
    seen: set[tuple[int, int]] = set()
    for e, (i, j) in enumerate(net.edges):
        a, b = net.bus_ids[i], net.bus_ids[j]
        if i == j:
            raise CaseError(f"self-loop at bus {a}")
        if net.b_edge[e] < 0:
            raise CaseError(f"negative susceptance on line {a}-{b}")
        if net.b_edge[e] == 0:
            raise CaseError(f"zero susceptance on line {a}-{b}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise CaseError(f"duplicate line {a}-{b}")
        seen.add(key)
    # connectivity via BFS over the undirected edge set
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in net.edges:
        adj[i].append(j)
        adj[j].append(i)
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if j not in reached:
                    reached.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(reached) != n:
        raise CaseError("graph disconnected")


def load_case(path: str | Path, *, repair_balance: bool = False) -> Network:
    """Load a JSON case file.

    Schema: {version: 1, name?, buses: [{id, M, D, p_star}], lines:
    [{from, to, B}]}.  Angles are radians, power is per-unit.  Setpoints must
    sum to zero within 1e-9; `repair_balance=True` subtracts the mean instead
    of rejecting (masking a data error, hence opt-in).
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise CaseError(f"case file not found: {path}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"malformed case file {path}: {exc}") from None
    try:
        version = doc["version"]
        if version != 1:
            raise CaseError(f"unsupported case version: {version}")
        bus_ids = tuple(int(b["id"]) for b in doc["buses"])
        M = np.array([float(b["M"]) for b in doc["buses"]])
        D = np.array([float(b["D"]) for b in doc["buses"]])
        p = np.array([float(b["p_star"]) for b in doc["buses"]])
        index = {bid: k for k, bid in enumerate(bus_ids)}
        edges = []
        b_edge = []
        for line in doc["lines"]:
            fr, to = int(line["from"]), int(line["to"])
            if fr not in index or to not in index:
                missing = fr if fr not in index else to
                raise CaseError(f"line references unknown bus {missing}")
            edges.append((index[fr], index[to]))
            b_edge.append(float(line["B"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CaseError):
            raise
        raise CaseError(f"malformed case file {path}: {exc!r}") from None
    if not edges:
        raise CaseError(
            f"case file {path} has no lines: every command needs a connected "
            "network with at least one line"
        )
    if repair_balance:
        p = coi_project(p)
    return Network(
        name=str(doc.get("name", path.stem)),
        bus_ids=bus_ids,
        M=M,
        D=D,
        p_star=p,
        edges=tuple(edges),
        b_edge=np.array(b_edge),
    )


def bundled_case_path(name: str) -> Path:
    """Path of a case shipped with the package ("ne39" or "two_bus")."""
    candidate = resources.files("swingfreq.data").joinpath(f"{name}.json")
    with resources.as_file(candidate) as p:
        if not p.exists():
            raise CaseError(f"no bundled case named {name!r}")
        return Path(p)


def potential_S(net: Network, delta: np.ndarray) -> np.ndarray:
    """Network potential S(delta); batched over leading axes of `delta`."""
    d = net.edge_differences(delta)
    return -(net.b_edge * np.cos(d)).sum(axis=-1)


def grad_S(net: Network, delta: np.ndarray) -> np.ndarray:
    """Gradient of S: [grad_S]_i = sum_j B_ij sin(delta_i - delta_j).

    Accumulated per edge with opposite signs at the endpoints, so the
    conservation identity sum_i [grad_S]_i = 0 holds to rounding.
    """
    d = net.edge_differences(delta)
    flows = net.b_edge * np.sin(d)
    return flows @ net.incidence


def hessian_S(net: Network, delta: np.ndarray) -> np.ndarray:
    """Hessian of S, the Laplacian inc' diag(B_ij cos(delta_i - delta_j)) inc; batched."""
    w = net.b_edge * np.cos(net.edge_differences(delta))
    return (net.incidence.T * w[..., None, :]) @ net.incidence


def hess_S_vecprod(net: Network, delta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product without forming the matrix; batched."""
    w = net.b_edge * np.cos(net.edge_differences(delta))
    return (w * net.edge_differences(v)) @ net.incidence


def solve_equilibrium(
    net: Network,
    delta0: np.ndarray | None = None,
    *,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """Solve grad_S(delta) = p_star for the COI-gauge equilibrium angles.

    Damped Newton from delta0 (default 0).  The Laplacian's null direction is
    the all-ones vector; adding ones/n to the Hessian shifts that eigenvalue
    to 1 without touching the COI-orthogonal solution, since the residual is
    orthogonal to ones by conservation.

    Returns a read-only zero-mean angle vector with infinity-norm residual
    <= 1e-8 (typically ~1e-15).  Raises ConvergenceError if the iteration
    stalls, AssumptionViolation if the solution has an edge difference at or
    beyond pi/2 (outside the certified operating region).
    """
    if delta0 is None:
        delta = np.zeros(net.n)
    else:
        delta = coi_project(delta0)
    ones = np.ones((net.n, net.n)) / net.n
    res = grad_S(net, delta) - net.p_star
    norm = np.abs(res).max()
    for _ in range(max_iter):
        if norm <= tol:
            break
        step = np.linalg.solve(hessian_S(net, delta) + ones, res)
        scale = 1.0
        while scale >= 1e-4:
            cand = coi_project(delta - scale * step)
            cand_res = grad_S(net, cand) - net.p_star
            cand_norm = np.abs(cand_res).max()
            if cand_norm < norm:
                break
            scale *= 0.5
        else:
            raise ConvergenceError(
                f"equilibrium line search stalled at residual {norm:.3e}"
            )
        delta, res, norm = cand, cand_res, cand_norm
    if norm > RESIDUAL_TOL:
        raise ConvergenceError(
            f"equilibrium residual {norm:.3e} exceeds {RESIDUAL_TOL:g} after "
            f"{max_iter} iterations (setpoints may be infeasible)"
        )
    if np.abs(net.edge_differences(delta)).max() >= np.pi / 2:
        raise AssumptionViolation(
            "equilibrium has an edge angle difference of pi/2 or more; "
            "the case is outside the certified operating region"
        )
    delta.flags.writeable = False
    return delta
