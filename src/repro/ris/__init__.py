"""Reverse influence sampling (RIS) substrate.

* :mod:`repro.ris.coupled` — counter-based reverse-reachable set sampling
  (IC and LT) with per-slot, identity-keyed randomness: the one sampler
  of the index, ad-hoc queries and certification, enabling exact in-place
  slot regeneration for streaming graph updates;
* :mod:`repro.ris.corpus` — a growable RR-set corpus stored as CSR arrays,
  with an inverted (node -> samples) index;
* :mod:`repro.ris.coverage` — the weighted greedy max-coverage of
  Algorithm 2 and the unbiased spread estimator of Eq. 9;
* :mod:`repro.ris.sample_size` — the Chernoff-based sample-size formulas of
  Lemmas 4–7 and Eq. 12;
* :mod:`repro.ris.lower_bound` — Algorithm 3 (LB-EST, the two-hop lower
  bound for ``OPT_q^k``) and the TOPK-SUM baseline.
"""

from repro.ris.adhoc import adhoc_ris_query
from repro.ris.certify import Certificate, certify_seed_set
from repro.ris.corpus import RRCorpus
from repro.ris.coupled import CoupledRRSampler, quantize_probability
from repro.ris.coverage import (
    CoverageResult,
    SelectionTimings,
    covered_sample_mask,
    estimate_spread,
    weighted_greedy_cover,
)
from repro.ris.lower_bound import lb_est, lb_est_lt, topk_sum
from repro.ris.sample_size import (
    epsilon_one,
    log_binomial,
    required_sample_size,
)

__all__ = [
    "Certificate",
    "CoupledRRSampler",
    "CoverageResult",
    "SelectionTimings",
    "certify_seed_set",
    "covered_sample_mask",
    "estimate_spread",
    "RRCorpus",
    "adhoc_ris_query",
    "epsilon_one",
    "quantize_probability",
    "lb_est",
    "lb_est_lt",
    "log_binomial",
    "required_sample_size",
    "topk_sum",
    "weighted_greedy_cover",
]
