"""Maximum Influence Arborescence (MIA) substrate.

The MIA model (Chen, Wang & Wang, KDD'10; paper Section 2.2.1) approximates
influence as travelling only along each pair's *maximum influence path*
(MIP) — the path of largest probability — and prunes MIPs whose probability
falls below a threshold ``theta``.

* :mod:`repro.mia.paths` — MIP computation (Dijkstra on ``-log p``);
* :mod:`repro.mia.arborescence` — the ``MIIA(v)`` / ``MIOA(v)`` trees, as
  bare per-root arrays (:func:`miia_arrays`) and as
  :class:`Arborescence` objects;
* :mod:`repro.mia.build` — every ``MIIA(v)`` at once in one batched
  relaxation (what the model stores), bit-identical to per-root
  :func:`miia_arrays`, which builds the roots whose hops hinge on
  Dijkstra's pop order;
* :mod:`repro.mia.influence` — activation probabilities on a tree (Eq. 5)
  and the linear (alpha) coefficients, as per-tree reference recursions;
* :mod:`repro.mia.forest` — every tree as one flat forest and the
  per-query state all MIA methods share (array-op ``ap``/``alpha``
  updates, bit-identical to the recursions);
* :mod:`repro.mia.pmia` — the :class:`MiaModel` (the flat tree arrays and
  their forest, nothing else) and the PMIA-DA baseline: greedy seed
  selection over pre-built arborescences with distance-aware node weights.

:class:`Arborescence`, :func:`build_miia` / :func:`build_mioa` and
:mod:`repro.mia.influence` are the test oracle, like
:mod:`repro.ris.reference`: no served path (build, load, shared-memory
attach, update, query) constructs an :class:`Arborescence`.
"""

from repro.mia.arborescence import Arborescence, build_miia, build_mioa
from repro.mia.forest import FlatForest, MiaForestState
from repro.mia.influence import activation_probabilities, linear_coefficients
from repro.mia.paths import max_influence_paths_from, max_influence_paths_to
from repro.mia.pmia import FlatTrees, MiaModel, PmiaDa

__all__ = [
    "Arborescence",
    "FlatForest",
    "FlatTrees",
    "MiaForestState",
    "MiaModel",
    "PmiaDa",
    "activation_probabilities",
    "build_miia",
    "build_mioa",
    "linear_coefficients",
    "max_influence_paths_from",
    "max_influence_paths_to",
]
