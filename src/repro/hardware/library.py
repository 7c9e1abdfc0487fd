"""The crossbar library: the predefined fixed-size crossbars of AutoNCS.

The experiments use "allowable crossbar sizes rang[ing] from 16 to 64 at a
step of 4" (Sec. 4.2); ISC puts each cluster on its *minimum satisfiable*
size (Algorithm 3 line 11) and the library supplies that size's
area/delay spec.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.hardware.crossbar import CrossbarSpec
from repro.hardware.neuron import IntegrateFireNeuron
from repro.hardware.synapse import DiscreteSynapse
from repro.hardware.technology import DEFAULT_TECHNOLOGY, Technology
from repro.utils.validation import check_whole_number

#: The paper's crossbar library: sizes 16..64 at a step of 4 (Sec. 4.2).
DEFAULT_CROSSBAR_SIZES: Tuple[int, ...] = tuple(range(16, 65, 4))


def check_crossbar_sizes(name: str, sizes: Iterable[int]) -> Tuple[int, ...]:
    """The ascending distinct crossbar sizes of ``sizes``, as ``int``.

    Every size must be a whole number ``>= 1`` and the list non-empty;
    errors name the parameter.
    """
    size_list = tuple(
        sorted({check_whole_number(f"{name}[{i}]", s) for i, s in enumerate(sizes)})
    )
    if not size_list:
        raise ValueError(f"{name} must be non-empty")
    return size_list


class CrossbarLibrary:
    """A set of crossbar sizes with their physical specs under a technology.

    Parameters
    ----------
    sizes:
        Allowed crossbar dimensions (paper default: 16..64 step 4).
    technology:
        The :class:`Technology` supplying geometry and timing.
    """

    def __init__(
        self,
        sizes: Sequence[int] = DEFAULT_CROSSBAR_SIZES,
        technology: Technology = DEFAULT_TECHNOLOGY,
    ) -> None:
        size_list = check_crossbar_sizes("sizes", sizes)
        self.technology = technology
        self._specs: Dict[int, CrossbarSpec] = {
            s: CrossbarSpec.from_technology(s, technology) for s in size_list
        }
        self.synapse = DiscreteSynapse.from_technology(technology)
        self.neuron = IntegrateFireNeuron.from_technology(technology)

    # ------------------------------------------------------------------
    @property
    def sizes(self) -> Tuple[int, ...]:
        """Ascending library sizes."""
        return tuple(sorted(self._specs))

    @property
    def max_size(self) -> int:
        """Largest crossbar available (the paper's reliability limit, 64)."""
        return self.sizes[-1]

    def spec(self, size: int) -> CrossbarSpec:
        """Spec of an exact library size; raises ``KeyError`` if absent."""
        try:
            return self._specs[int(size)]
        except KeyError:
            raise KeyError(
                f"crossbar size {size} is not in the library {self.sizes}"
            ) from None

    def __contains__(self, size: int) -> bool:
        return int(size) in self._specs

    def __iter__(self):
        return (self._specs[s] for s in self.sizes)

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:
        return f"CrossbarLibrary(sizes={self.sizes})"
