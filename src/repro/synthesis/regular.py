"""Regular reference topologies: ring, 2D mesh, 2D torus.

The construction logic lives in the :data:`repro.api.registry
.topology_families` registry (:mod:`repro.synthesis.families`); this module
keeps the historical helper signatures as thin adapters.  The topology
helpers (``ring_topology``/``mesh_topology``/``torus_topology``) delegate
silently; the full design constructors (``ring_design``/``mesh_design``)
are deprecation shims over :func:`repro.synthesis.families.family_design`.
"""

from __future__ import annotations

import warnings
from typing import Dict, Optional

from repro.api.registry import topology_families
from repro.model.design import NocDesign
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.synthesis.families import attach_cores_round_robin, family_design

__all__ = [
    "ring_topology",
    "mesh_topology",
    "torus_topology",
    "attach_cores_round_robin",
    "ring_design",
    "mesh_design",
]


def _family_topology(family: str, params: Dict, name: Optional[str]) -> Topology:
    topology = topology_families.get(family).build(params).topology
    if name is not None:
        topology.name = name
    return topology


def ring_topology(
    n_switches: int, *, bidirectional: bool = False, name: Optional[str] = None
) -> Topology:
    """A ring of ``n_switches`` switches ``sw0 .. sw{n-1}``.

    With ``bidirectional=False`` (the default) the ring is unidirectional
    (sw0 -> sw1 -> ... -> sw0), the classic deadlock-prone configuration.
    """
    return _family_topology(
        "ring", {"n_switches": n_switches, "bidirectional": bidirectional}, name
    )


def mesh_topology(rows: int, cols: int, *, name: Optional[str] = None) -> Topology:
    """A ``rows x cols`` 2D mesh with switches named ``sw_x_y``."""
    return _family_topology("mesh", {"rows": rows, "cols": cols}, name)


def torus_topology(rows: int, cols: int, *, name: Optional[str] = None) -> Topology:
    """A ``rows x cols`` 2D torus (mesh plus wrap-around links)."""
    return _family_topology("torus", {"rows": rows, "cols": cols}, name)


def _deprecated(old: str, family: str) -> None:
    warnings.warn(
        f"repro.synthesis.regular.{old} is deprecated; use "
        f"repro.synthesis.families.family_design({family!r}, ...)",
        DeprecationWarning,
        stacklevel=3,
    )


def ring_design(
    n_switches: int,
    traffic: Optional[CommunicationGraph] = None,
    *,
    bidirectional: bool = False,
    name: Optional[str] = None,
) -> NocDesign:
    """Deprecated shim over ``family_design("ring", ...)``.

    When no traffic is given, one core per switch is created and every core
    sends to the core two switches downstream — dense enough that a
    unidirectional ring always exhibits a CDG cycle.
    """
    _deprecated("ring_design", "ring")
    name = name or f"ring{n_switches}"
    if traffic is None:
        traffic = default_ring_traffic(n_switches, name=f"{name}_traffic")
    return family_design(
        "ring",
        traffic,
        {"n_switches": n_switches, "bidirectional": bidirectional},
        name=name,
    )


def mesh_design(
    rows: int,
    cols: int,
    traffic: Optional[CommunicationGraph] = None,
    *,
    routing: str = "xy",
    name: Optional[str] = None,
) -> NocDesign:
    """Deprecated shim over ``family_design("mesh", ...)``.

    When no traffic is given, one core per switch is created and every core
    sends to the core at the transposed mesh position (a standard synthetic
    pattern that exercises both dimensions), attached at its own switch.
    """
    _deprecated("mesh_design", "mesh")
    name = name or f"mesh{rows}x{cols}"
    core_map = None
    if traffic is None:
        traffic = default_mesh_traffic(rows, cols, name=f"{name}_traffic")
        core_map = {
            f"core_{x}_{y}": f"sw_{x}_{y}" for x in range(cols) for y in range(rows)
        }
    return family_design(
        "mesh",
        traffic,
        {"rows": rows, "cols": cols, "routing": routing},
        name=name,
        core_map=core_map,
    )


def default_ring_traffic(n_switches: int, *, name: Optional[str] = None) -> CommunicationGraph:
    """One core per switch, each sending to the core two hops downstream."""
    traffic = CommunicationGraph(name or f"ring{n_switches}_traffic")
    for i in range(n_switches):
        traffic.add_core(f"core{i}")
    for i in range(n_switches):
        dst = (i + 2) % n_switches
        traffic.add_flow(f"f{i}", f"core{i}", f"core{dst}", bandwidth=100.0)
    return traffic


def default_mesh_traffic(
    rows: int, cols: int, *, name: Optional[str] = None
) -> CommunicationGraph:
    """One core per mesh position, each sending to its transposed position."""
    traffic = CommunicationGraph(name or f"mesh{rows}x{cols}_traffic")
    for x in range(cols):
        for y in range(rows):
            traffic.add_core(f"core_{x}_{y}")
    flow_id = 0
    for x in range(cols):
        for y in range(rows):
            tx, ty = y % cols, x % rows
            if (x, y) == (tx, ty):
                continue
            traffic.add_flow(
                f"f{flow_id}", f"core_{x}_{y}", f"core_{tx}_{ty}", bandwidth=50.0
            )
            flow_id += 1
    return traffic
