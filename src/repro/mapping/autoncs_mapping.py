"""Mapping an ISC result onto hardware: the AutoNCS hybrid design."""

from __future__ import annotations

from typing import Optional

from repro.clustering.isc import IscResult
from repro.hardware.library import CrossbarLibrary
from repro.mapping.netlist import MappingResult, build_netlist


def autoncs_mapping(
    isc_result: IscResult,
    library: Optional[CrossbarLibrary] = None,
    name: str = "AutoNCS",
) -> MappingResult:
    """Turn an :class:`IscResult` into a :class:`MappingResult` with a netlist.

    ISC's crossbar instances (rows = columns = the cluster's neurons) are
    placed as they are; each outlier connection becomes a discrete-synapse
    cell wired between its two neurons.
    """
    if library is None:
        library = CrossbarLibrary(sizes=isc_result.sizes)
    for size in {instance.size for instance in isc_result.crossbars}:
        if size not in library:
            raise ValueError(
                f"ISC placed a {size}x{size} crossbar but the library only "
                f"offers {library.sizes}"
            )
    instances = list(isc_result.crossbars)
    netlist = build_netlist(isc_result.network.size, instances, isc_result.outliers, library)
    result = MappingResult(
        name=name,
        network=isc_result.network,
        instances=instances,
        synapse_connections=isc_result.outliers,
        netlist=netlist,
        library=library,
        metadata={
            "isc_iterations": isc_result.iterations,
            "outlier_ratio": isc_result.outlier_ratio,
            "utilization_threshold": isc_result.utilization_threshold,
        },
    )
    result.validate()
    return result
