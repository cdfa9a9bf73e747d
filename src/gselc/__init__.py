"""Graph states, local and edge local complementation, and logical cluster states.

Layers:

- :mod:`gselc.graph`: simple graphs as GF(2) bit rows with LC/ELC.
- :mod:`gselc.statevector`: the exact dense-amplitude oracle.
- :mod:`gselc.encoding`: five-qubit-code logical cluster-state builds.
- :mod:`gselc.cli`: the ``gselc`` command.
"""

from .graph import (
    Graph,
    cycle,
    disjoint_union,
    edge_local_complement,
    elc_via_lcs,
    from_edges,
    from_json,
    local_complement,
    new_empty,
    path,
    star,
    to_dot,
    to_json,
    toggle_edge,
)
from .report import Report
from .statevector import (
    DEFAULT_MAX_QUBITS,
    Gate,
    GateKind,
    StateVector,
    equal_exact,
    equal_up_to_global_phase,
    graph_state,
    plus_state,
    scan_theorem1_shared_neighbors,
    verify_stabilizers,
    verify_theorem1,
    verify_vertex_lc,
)
from .encoding import (
    CircuitLog,
    build_logical_cluster,
    verify_chain_elc_steps,
)

__version__ = "0.1.0"
