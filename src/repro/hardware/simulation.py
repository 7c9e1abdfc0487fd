"""Analog crossbar evaluation: T = A·F with non-idealities (extension).

The paper's preliminaries (Sec. 2.1–2.2) explain *why* crossbars are capped
at 64×64: IR-drop, device defects and process variation degrade programming
and computing reliability as the array grows [6].  This module implements
the corresponding behavioural simulation so that a mapped design can be
functionally validated, not just costed:

* :class:`CrossbarSimulator` — one crossbar computing output currents from
  input voltages through a conductance matrix, with programming variation,
  stuck-at defects, and a first-order IR-drop attenuation that grows with
  array size and with distance from the drivers.
* :class:`HybridNcsSimulator` — the full hybrid implementation: every
  crossbar block plus the discrete-synapse outliers jointly evaluate
  ``y = W x``, so Hopfield recall can be replayed *on the mapped hardware*.
  It takes a :class:`~repro.mapping.netlist.MappingResult` (e.g. a
  repaired mapping from :mod:`repro.reliability`) and an optional
  structural defect map whose stuck cells / dead lines are applied to the
  programmed arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np
from scipy import sparse as sp

from repro.hardware.crossbar import pair_array
from repro.hardware.memristor import weights_to_conductances
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_probability

if TYPE_CHECKING:
    from repro.mapping.netlist import MappingResult


@dataclass
class NonIdealityModel:
    """Knobs for analog crossbar imperfections.

    Attributes
    ----------
    variation_sigma:
        Lognormal programming-variation sigma on device weights.
    stuck_off_probability / stuck_on_probability:
        Per-device defect rates: stuck-off devices read as weight 0,
        stuck-on devices as weight 1.
    ir_drop_coefficient:
        First-order IR-drop strength: the effective drive seen by device
        ``(i, j)`` of an ``s × s`` array is attenuated by
        ``1 / (1 + coeff · s · (i + j) / (2s))`` — deeper devices on longer
        lines see a weaker signal, and the effect grows with array size.
    """

    variation_sigma: float = 0.0
    stuck_off_probability: float = 0.0
    stuck_on_probability: float = 0.0
    ir_drop_coefficient: float = 0.0

    def __post_init__(self) -> None:
        if self.variation_sigma < 0:
            raise ValueError(f"variation_sigma must be >= 0, got {self.variation_sigma}")
        check_probability("stuck_off_probability", self.stuck_off_probability)
        check_probability("stuck_on_probability", self.stuck_on_probability)
        if self.stuck_off_probability + self.stuck_on_probability > 1.0:
            raise ValueError("stuck-off + stuck-on probabilities exceed 1")
        if self.ir_drop_coefficient < 0:
            raise ValueError(
                f"ir_drop_coefficient must be >= 0, got {self.ir_drop_coefficient}"
            )


IDEAL = NonIdealityModel()


class CrossbarSimulator:
    """Analog evaluation of one programmed crossbar.

    Parameters
    ----------
    weights:
        ``(s, s)`` matrix of normalized weights in [0, 1]; ``weights[i, j]``
        connects input (row) ``i`` to output (column) ``j``.
    model:
        Non-ideality knobs; defaults to an ideal crossbar.
    """

    def __init__(
        self,
        weights: np.ndarray,
        model: NonIdealityModel = IDEAL,
        r_on: float = 1e3,
        r_off: float = 1e6,
        rng: RngLike = None,
        stuck_off_mask: Optional[np.ndarray] = None,
        stuck_on_mask: Optional[np.ndarray] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValueError(f"weights must be square, got shape {weights.shape}")
        if np.any(weights < 0.0) or np.any(weights > 1.0):
            raise ValueError("weights must lie in [0, 1]")
        rng = ensure_rng(rng)
        self.model = model
        self.size = weights.shape[0]
        programmed = weights.copy()
        # Statistical defect injection: stuck-off → 0, stuck-on → 1.
        if model.stuck_off_probability > 0.0 or model.stuck_on_probability > 0.0:
            roll = rng.random(weights.shape)
            programmed[roll < model.stuck_off_probability] = 0.0
            programmed[
                (roll >= model.stuck_off_probability)
                & (roll < model.stuck_off_probability + model.stuck_on_probability)
            ] = 1.0
        # Structural defects (a sampled DefectMap) override the programming.
        for name, mask, value in (
            ("stuck_off_mask", stuck_off_mask, 0.0),
            ("stuck_on_mask", stuck_on_mask, 1.0),
        ):
            if mask is None:
                continue
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != programmed.shape:
                raise ValueError(
                    f"{name} must have shape {programmed.shape}, got {mask.shape}"
                )
            programmed[mask] = value
        self.conductances = weights_to_conductances(
            programmed,
            r_on=r_on,
            r_off=r_off,
            variation_sigma=model.variation_sigma,
            rng=rng,
        )
        self._g_on = 1.0 / r_on
        self._g_delta = 1.0 / r_on - 1.0 / r_off
        self._ir_attenuation = self._build_ir_attenuation()

    def _build_ir_attenuation(self) -> np.ndarray:
        """Per-device drive attenuation from the first-order IR-drop model."""
        s = self.size
        coeff = self.model.ir_drop_coefficient
        if coeff <= 0.0:
            return np.ones((s, s))
        rows = np.arange(s)[:, None]
        cols = np.arange(s)[None, :]
        depth = (rows + cols) / (2.0 * max(s - 1, 1))
        return 1.0 / (1.0 + coeff * s * depth)

    # ------------------------------------------------------------------
    def output_currents(self, input_voltages: np.ndarray) -> np.ndarray:
        """Column output currents for the given row input voltages (amps)."""
        v = np.asarray(input_voltages, dtype=float)
        if v.shape != (self.size,):
            raise ValueError(f"input_voltages must have shape ({self.size},), got {v.shape}")
        effective = self.conductances * self._ir_attenuation
        return v @ effective

    def compute(self, inputs: np.ndarray) -> np.ndarray:
        """Normalized dot-product ``inputs @ weights`` as the crossbar sees it.

        Output currents are normalized by ``G_on`` so an ideal crossbar
        returns exactly ``inputs @ weights`` (up to the tiny ``G_off`` leak).
        """
        return self.output_currents(inputs) / self._g_on

    def relative_error(self, inputs: np.ndarray, reference_weights: np.ndarray) -> float:
        """RMS error of :meth:`compute` against the ideal ``inputs @ W``.

        Used by the reliability example to reproduce the motivation for the
        64×64 size cap: error grows with array size under IR-drop.
        """
        reference = np.asarray(inputs, dtype=float) @ np.asarray(reference_weights, dtype=float)
        actual = self.compute(inputs)
        scale = float(np.max(np.abs(reference)))
        if scale == 0.0:
            return float(np.sqrt(np.mean(actual**2)))
        return float(np.sqrt(np.mean((actual - reference) ** 2)) / scale)


@dataclass
class HybridProgram:
    """The defect-independent programming of a hybrid topology.

    Assembling a :class:`HybridNcsSimulator` from a mapping walks every
    block's connection list to build the positive/negative weight planes
    — pure bookkeeping that depends only on the topology and the signed
    weights, not on defects or analog imperfections.  A Monte-Carlo loop
    that simulates many faulty chips of the *same* mapped design can
    therefore compile this program once and share it across samples
    (pass it as ``HybridNcsSimulator(..., program=...)``); only the
    defect masks and stochastic non-idealities are applied per chip.

    The arrays are treated as read-only by the simulator.
    """

    n: int
    scale: float
    #: per block: (global row ids, global col ids, positive plane, negative plane)
    blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    synapse_rows: np.ndarray
    synapse_cols: np.ndarray
    synapse_values: np.ndarray
    metadata: dict = field(default_factory=dict)

    @classmethod
    def compile(cls, topology: "MappingResult", signed_weights=None) -> "HybridProgram":
        """Assemble the weight planes for ``topology`` (no RNG draws).

        ``signed_weights`` is a dense ``(n, n)`` array or a scipy sparse
        matrix, by default the network's CSR adjacency; only the weights of
        the implemented pairs are read, so no ``n × n`` array is built.
        Raises ``TypeError`` unless ``topology`` has a mapping's
        ``instances``, ``synapse_connections`` and ``network``.
        """
        instances = getattr(topology, "instances", None)
        synapse_connections = getattr(topology, "synapse_connections", None)
        network = getattr(topology, "network", None)
        if instances is None or synapse_connections is None or network is None:
            raise TypeError(f"topology must be a MappingResult, got {type(topology).__name__}")
        n = network.size
        if signed_weights is None:
            weights = network.adjacency()
        elif sp.issparse(signed_weights):
            weights = sp.csr_array(signed_weights).astype(float)
        else:
            weights = np.asarray(signed_weights, dtype=float)
        if weights.shape != (n, n):
            raise ValueError(f"signed_weights must have shape ({n}, {n}), got {weights.shape}")
        scale = max_abs_weight(weights)
        scale = scale if scale > 0 else 1.0

        compiled = []
        for instance in instances:
            s = instance.size
            values = _pair_weights(weights, instance.connections) / scale
            rows_local, cols_local = instance.local_cells()
            positive = values >= 0
            pos = np.zeros((s, s))
            neg = np.zeros((s, s))
            pos[rows_local[positive], cols_local[positive]] = values[positive]
            neg[rows_local[~positive], cols_local[~positive]] = -values[~positive]
            compiled.append((instance.rows, instance.cols, pos, neg))

        synapses = pair_array(synapse_connections, "synapse_connections")
        return cls(
            n=n,
            scale=scale,
            blocks=compiled,
            synapse_rows=synapses[:, 0],
            synapse_cols=synapses[:, 1],
            synapse_values=_pair_weights(weights, synapses) / scale,
        )


def max_abs_weight(weights) -> float:
    """``max |w|`` over a dense array or a sparse matrix (implicit zeros included)."""
    return float(abs(weights).max())


def _pair_weights(weights, pairs: np.ndarray) -> np.ndarray:
    """The weight ``weights[i, j]`` of each ``(i, j)`` row of ``pairs``."""
    if not pairs.shape[0]:
        return np.zeros(0)
    return np.asarray(weights[pairs[:, 0], pairs[:, 1]], dtype=float).ravel()


class HybridNcsSimulator:
    """Functional model of a full hybrid implementation (crossbars + synapses).

    Evaluates ``y = x @ W_signed`` by summing the contribution of every
    crossbar block and every discrete synapse, each with its own analog
    imperfections.  Signed weights are split into positive and negative
    parts mapped to separate (simulated) crossbar polarities, the standard
    two-array trick for memristor NCS; the differential read cancels the
    ``G_off`` leak exactly, so an ideal model reproduces ``y = W x`` to
    floating-point precision.

    Parameters
    ----------
    topology:
        The hybrid topology: a :class:`~repro.mapping.netlist.MappingResult`
        (any other input raises ``TypeError``).
    signed_weights:
        Optional real weight matrix, dense or scipy sparse (e.g. the
        Hopfield weights); defaults to the topology's binary CSR adjacency.
    defect_map:
        Optional :class:`~repro.reliability.defects.DefectMap` whose entry
        ``k`` describes the physical crossbar serving block ``k``: stuck-off
        cells and dead row/column lines read as weight 0, stuck-on cells
        saturate the programmed polarity to full conductance.  (Stuck-on
        faults at cells with no programmed weight are ignored — the model
        tracks implemented connections, not parasitic ones.)
    program:
        Optional precompiled :class:`HybridProgram` of this exact
        ``(topology, signed_weights)`` pair.  Compiling once and reusing
        it across many simulator constructions (e.g. Monte-Carlo chips
        of one mapped design) skips the per-connection assembly; the
        draws of a stochastic ``model`` still happen per construction,
        so results are identical with or without a shared program.
    """

    def __init__(
        self,
        topology: "MappingResult",
        signed_weights: Optional[np.ndarray] = None,
        model: NonIdealityModel = IDEAL,
        defect_map=None,
        rng: RngLike = None,
        program: Optional[HybridProgram] = None,
    ) -> None:
        self.topology = topology
        if program is None:
            program = HybridProgram.compile(topology, signed_weights)
        if defect_map is not None and len(defect_map.instances) < len(program.blocks):
            raise ValueError(
                f"defect map covers {len(defect_map.instances)} crossbars, "
                f"topology has {len(program.blocks)}"
            )
        self.n = program.n
        self.model = model
        self.program = program
        rng = ensure_rng(rng)
        self._scale = program.scale

        self._blocks = []
        for index, (rows, cols, pos, neg) in enumerate(program.blocks):
            s = pos.shape[0]
            off_mask = on_pos = on_neg = None
            if defect_map is not None:
                defects = defect_map.instances[index]
                if defects.size < s:
                    raise ValueError(
                        f"defect-map crossbar {index} has size {defects.size}, "
                        f"block needs {s}"
                    )
                # The block occupies the top-left s×s corner of its physical
                # crossbar — the same convention reliability.local_cells uses.
                off_mask = (
                    defects.stuck_off
                    | defects.dead_rows[:, None]
                    | defects.dead_cols[None, :]
                )[:s, :s]
                stuck_on = defects.stuck_on[:s, :s] & ~off_mask
                on_pos = stuck_on & (pos > 0)
                on_neg = stuck_on & (neg > 0)
            self._blocks.append(
                (
                    rows,
                    cols,
                    CrossbarSimulator(
                        pos, model=model, rng=rng,
                        stuck_off_mask=off_mask, stuck_on_mask=on_pos,
                    ),
                    CrossbarSimulator(
                        neg, model=model, rng=rng,
                        stuck_off_mask=off_mask, stuck_on_mask=on_neg,
                    ),
                )
            )

        # Discrete synapses: per-connection weight with programming noise
        # but no IR-drop (point-to-point wiring has no shared line).
        self._synapse_rows = program.synapse_rows
        self._synapse_cols = program.synapse_cols
        values = program.synapse_values
        if model.variation_sigma > 0.0 and values.size:
            noise = np.exp(rng.normal(0.0, model.variation_sigma, size=values.shape))
            magnitude = np.clip(np.abs(values) * noise, 0.0, 1.0)
            values = np.sign(values) * magnitude
        self._synapse_values = values

    # ------------------------------------------------------------------
    def compute(self, inputs: np.ndarray) -> np.ndarray:
        """Evaluate ``inputs @ W`` through the mapped hardware."""
        x = np.asarray(inputs, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"inputs must have shape ({self.n},), got {x.shape}")
        output = np.zeros(self.n)
        for rows, cols, positive, negative in self._blocks:
            # A cluster may be smaller than its crossbar: pad the unused
            # rows with zero drive and read back only the used columns.
            local_in = np.zeros(positive.size)
            local_in[: rows.size] = x[rows]
            # Differential read: (I⁺ - I⁻) / (G_on - G_off) cancels the
            # G_off leak of both polarities exactly.
            currents = positive.output_currents(local_in) - negative.output_currents(
                local_in
            )
            contribution = currents / positive._g_delta
            output[cols] += contribution[: cols.size]
        if self._synapse_values.size:
            np.add.at(
                output,
                self._synapse_cols,
                x[self._synapse_rows] * self._synapse_values,
            )
        return output * self._scale

    def recall(self, probe: np.ndarray, max_steps: int = 50) -> np.ndarray:
        """Hopfield-style synchronous recall running on the mapped hardware."""
        state = np.asarray(probe, dtype=float).copy()
        if state.shape != (self.n,):
            raise ValueError(f"probe must have shape ({self.n},), got {state.shape}")
        for _ in range(max_steps):
            activation = self.compute(state)
            new_state = np.where(activation >= 0.0, 1.0, -1.0)
            if np.array_equal(new_state, state):
                break
            state = new_state
        return state.astype(np.int8)
