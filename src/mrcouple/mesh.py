"""Structured bilinear-quad meshes for the two unit subdomains.

Subdomain 1 is the unit square above the shared interface (the segment
y = 0, 0 < x < 1), subdomain 2 the unit square below it.  Nodes on the
open interface are unknowns; every other boundary node carries a
homogeneous Dirichlet condition and is eliminated from the system.  The
two corner nodes of the interface belong to the Dirichlet part, so the
interface trace space vanishes at the interface endpoints.
"""

from __future__ import annotations

import dataclasses
import logging

import numpy as np

log = logging.getLogger(__name__)

INTERIOR, INTERFACE, DIRICHLET = 0, 1, 2


class MatchError(ValueError):
    """The two meshes do not share a coincident interface grid."""


@dataclasses.dataclass(frozen=True)
class Mesh:
    subdomain: int
    nx: int
    ny: int
    nodes: np.ndarray  # (n_nodes, 2) coordinates
    quads: np.ndarray  # (n_elems, 4) counterclockwise connectivity
    kind: np.ndarray  # per-node INTERIOR / INTERFACE / DIRICHLET
    free_dof: np.ndarray  # node -> free dof index, -1 on Dirichlet nodes
    interface_nodes: np.ndarray  # interface node ids ordered by x
    h: float

    @property
    def n_free(self) -> int:
        return int((self.free_dof >= 0).sum())

    @property
    def hx(self) -> float:
        return 1.0 / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny


def build_mesh(subdomain: int, nx: int, ny: int) -> Mesh:
    """Uniform tensor grid of bilinear quads on subdomain 1 or 2."""
    if subdomain not in (1, 2):
        raise ValueError("subdomain must be 1 or 2")
    if nx < 1 or ny < 1:
        raise ValueError("element counts must be at least 1")
    xs = np.arange(nx + 1) / nx
    ys = np.arange(ny + 1) / ny + (0.0 if subdomain == 1 else -1.0)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])  # row-major: id = iy*(nx+1)+ix

    corner = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()  # lower left
    quads = np.stack([corner, corner + 1, corner + nx + 2, corner + nx + 1], axis=1)

    iy_interface = 0 if subdomain == 1 else ny
    IX, IY = (g.ravel() for g in np.meshgrid(np.arange(nx + 1), np.arange(ny + 1)))
    on_side = (IX == 0) | (IX == nx)
    kind = np.full(len(nodes), INTERIOR, dtype=np.int8)
    kind[on_side | (IY == ny - iy_interface)] = DIRICHLET  # sides and far row
    kind[(IY == iy_interface) & ~on_side] = INTERFACE

    free_dof = np.full(len(nodes), -1, dtype=int)
    free = np.flatnonzero(kind != DIRICHLET)
    free_dof[free] = np.arange(len(free))

    interface_nodes = iy_interface * (nx + 1) + np.arange(1, nx)
    h = float(np.hypot(1.0 / nx, 1.0 / ny))
    for arr in (nodes, quads, kind, free_dof, interface_nodes):
        arr.flags.writeable = False
    return Mesh(subdomain, nx, ny, nodes, quads, kind, free_dof, interface_nodes, h)


@dataclasses.dataclass(frozen=True)
class InterfaceMap:
    """Shared numbering of the interface unknowns of two matched meshes."""

    x: np.ndarray  # interface node abscissae, increasing
    dofs_1: np.ndarray  # interface slot -> free dof index in mesh 1
    dofs_2: np.ndarray

    @property
    def d_gamma(self) -> int:
        return len(self.x)


def match_interfaces(m1: Mesh, m2: Mesh) -> InterfaceMap:
    """Identify the coincident interface grids of the two subdomain meshes."""
    if m1.subdomain != 1 or m2.subdomain != 2:
        raise MatchError("expected meshes for subdomains 1 and 2, in that order")
    x1 = m1.nodes[m1.interface_nodes, 0]
    x2 = m2.nodes[m2.interface_nodes, 0]
    if len(x1) != len(x2) or (len(x1) and np.max(np.abs(x1 - x2)) > 1e-12):
        raise MatchError(
            f"interface grids do not coincide (nx={m1.nx} vs nx={m2.nx})"
        )
    if len(x1) == 0:
        log.warning("degenerate interface: no interface unknowns (nx=1)")
    dofs_1 = m1.free_dof[m1.interface_nodes]
    dofs_2 = m2.free_dof[m2.interface_nodes]
    for arr in (x1, dofs_1, dofs_2):
        arr.flags.writeable = False
    return InterfaceMap(x1, dofs_1, dofs_2)
