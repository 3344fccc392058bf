"""The paper's contribution: exhaustive phase-order space exploration.

- :mod:`repro.core.crc` / :mod:`repro.core.fingerprint` — efficient
  detection of identical function instances (section 4.2.1);
- :mod:`repro.core.enumeration` — the space enumeration algorithm with
  dormant-phase and identical-instance pruning (section 4);
- :mod:`repro.core.dag` — the weighted space DAG (Figure 7);
- :mod:`repro.core.interactions` — enabling / disabling / independence
  probabilities (section 5, Tables 4-6);
- :mod:`repro.core.batch` / :mod:`repro.core.probabilistic` — the
  conventional and probabilistic batch compilers (section 6, Figure 8);
- :mod:`repro.core.stats` — per-function search statistics (Table 3);
- :mod:`repro.core.driver` / :mod:`repro.core.store` — the one
  execution driver (store and checkpoint rules) and the
  completed-space store it consults.
"""

from repro.core.crc import crc32
from repro.core.fingerprint import Fingerprint, fingerprint_function
from repro.core.enumeration import (
    EnumerationConfig,
    EnumerationResult,
    enumerate_space,
)
from repro.core.dag import SpaceDAG, SpaceNode
from repro.core.interactions import InteractionAnalysis, analyze_interactions
from repro.core.batch import BatchCompiler, BATCH_ORDER, CompilationReport
from repro.core.probabilistic import ProbabilisticCompiler
from repro.core.stats import FunctionSpaceStats, collect_function_stats

__all__ = [
    "crc32",
    "Fingerprint",
    "fingerprint_function",
    "EnumerationConfig",
    "EnumerationResult",
    "enumerate_space",
    "SpaceDAG",
    "SpaceNode",
    "InteractionAnalysis",
    "analyze_interactions",
    "BatchCompiler",
    "BATCH_ORDER",
    "CompilationReport",
    "ProbabilisticCompiler",
    "FunctionSpaceStats",
    "collect_function_stats",
]
