"""Technology parameters at the 45 nm node.

Every physical number the flow needs lives here: memristor pitch, crossbar
peripheral margins, cell areas, crossbar delay model, wire RC, and the
routing-resource parameters of the placer/router (ω, θ of Sec. 3.5).

Calibration targets (DESIGN.md, substitutions): the 64×64 crossbar delay is
pinned near the paper's constant FullCro delay of 1.95 ns, and the area
terms put a ~500-neuron FullCro design in the same order of magnitude as
Table 1 (tens of thousands of µm²).  Only relative comparisons matter for
the paper's claims; all parameters are user-overridable.

The placer reads ω and the router reads θ and the edge capacity from here
only; no placement or routing configuration overrides them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from repro.utils.validation import check_positive, check_whole_number


@dataclass(frozen=True)
class Technology:
    """Physical parameter set for a memristor NCS at a given node.

    Attributes
    ----------
    feature_size_nm:
        Lithography node (informational; defaults to the paper's 45 nm).
    memristor_pitch_um:
        Crossbar wire pitch — one memristor cell per pitch² (6F at 45 nm).
    crossbar_margin_um:
        Peripheral margin per crossbar side for drivers/training circuitry.
    neuron_area_um2 / synapse_area_um2:
        Footprints of the integrate-and-fire neuron cell and of a discrete
        memristor synapse cell (memristor + access device).
    crossbar_delay_base_ns / crossbar_delay_quadratic_ns:
        Crossbar read delay model ``t(s) = t0 + k·s²`` — line RC grows with
        both line resistance (∝ s) and line capacitance (∝ s), pinning
        ``t(64) ≈ 1.95 ns`` as Table 1 reports for FullCro.
    synapse_delay_ns:
        Point-to-point discrete-synapse delay.
    wire_resistance_ohm_per_um / wire_capacitance_ff_per_um:
        Unit-length interconnect RC for routed-wire delay (``½ r c L²``).
    routing_space_factor:
        The placer's ω — cells occupy ``ω ×`` their physical width so that
        routing space is reserved (Sec. 3.5).  Finite and ``>= 1``.
    routing_bin_um:
        The router's grid bin width θ (Sec. 3.5).
    routing_capacity_per_bin:
        Wires a routing-grid edge accommodates before it is congested
        (the virtual capacity baseline of [17]).  A whole number ``>= 1``.
    """

    feature_size_nm: float = 45.0
    memristor_pitch_um: float = 0.27
    crossbar_margin_um: float = 1.5
    neuron_area_um2: float = 16.0
    synapse_area_um2: float = 1.2
    crossbar_delay_base_ns: float = 0.15
    crossbar_delay_quadratic_ns: float = (1.95 - 0.15) / (64.0 * 64.0)
    synapse_delay_ns: float = 0.30
    wire_resistance_ohm_per_um: float = 0.40
    wire_capacitance_ff_per_um: float = 0.20
    routing_space_factor: float = 1.25
    routing_bin_um: float = 4.0
    routing_capacity_per_bin: int = 40

    def __post_init__(self) -> None:
        check_positive("feature_size_nm", self.feature_size_nm)
        check_positive("memristor_pitch_um", self.memristor_pitch_um)
        check_positive("crossbar_margin_um", self.crossbar_margin_um, allow_zero=True)
        check_positive("neuron_area_um2", self.neuron_area_um2)
        check_positive("synapse_area_um2", self.synapse_area_um2)
        check_positive("crossbar_delay_base_ns", self.crossbar_delay_base_ns)
        check_positive("crossbar_delay_quadratic_ns", self.crossbar_delay_quadratic_ns)
        check_positive("synapse_delay_ns", self.synapse_delay_ns)
        check_positive("wire_resistance_ohm_per_um", self.wire_resistance_ohm_per_um)
        check_positive("wire_capacitance_ff_per_um", self.wire_capacitance_ff_per_um)
        # Tested as ``not ...`` so that NaN fails too.
        if not 1.0 <= self.routing_space_factor < math.inf:
            raise ValueError(
                "routing_space_factor must be finite and >= 1, "
                f"got {self.routing_space_factor}"
            )
        check_positive("routing_bin_um", self.routing_bin_um)
        check_whole_number("routing_capacity_per_bin", self.routing_capacity_per_bin)

    # ------------------------------------------------------------------
    # Crossbar geometry and timing
    # ------------------------------------------------------------------
    def crossbar_side_um(self, size: int) -> float:
        """Physical side length of an ``s × s`` crossbar including margins."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        return size * self.memristor_pitch_um + 2.0 * self.crossbar_margin_um

    def crossbar_area_um2(self, size: int) -> float:
        """Footprint of an ``s × s`` crossbar."""
        return self.crossbar_side_um(size) ** 2

    def crossbar_delay_ns(self, size: int) -> float:
        """Read delay of an ``s × s`` crossbar: ``t0 + k·s²``."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        return self.crossbar_delay_base_ns + self.crossbar_delay_quadratic_ns * size * size

    # ------------------------------------------------------------------
    # Wires
    # ------------------------------------------------------------------
    def wire_delay_ns(self, length_um: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Elmore delay of a routed wire: ``½ r c L²`` (in ns); elementwise
        over an array of lengths."""
        if np.any(np.less(length_um, 0)):
            raise ValueError(f"length_um must be >= 0, got {np.min(length_um)}")
        r = self.wire_resistance_ohm_per_um
        c = self.wire_capacitance_ff_per_um * 1e-15  # fF → F
        return 0.5 * r * c * length_um * length_um * 1e9  # s → ns

    def scaled(self, feature_size_nm: float) -> "Technology":
        """Return a copy scaled to another node (first-order linear shrink).

        Areas scale with the square of the feature ratio, pitches linearly,
        RC per unit length is kept (wire scaling is roughly RC-neutral to
        first order), and delays are kept (device-dominated).
        """
        check_positive("feature_size_nm", feature_size_nm)
        ratio = feature_size_nm / self.feature_size_nm
        return replace(
            self,
            feature_size_nm=feature_size_nm,
            memristor_pitch_um=self.memristor_pitch_um * ratio,
            crossbar_margin_um=self.crossbar_margin_um * ratio,
            neuron_area_um2=self.neuron_area_um2 * ratio * ratio,
            synapse_area_um2=self.synapse_area_um2 * ratio * ratio,
            routing_bin_um=self.routing_bin_um * ratio,
        )


#: The default 45 nm technology used throughout the experiments.
DEFAULT_TECHNOLOGY = Technology()
