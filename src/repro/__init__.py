"""repro — Distance-Aware Influence Maximization in geo-social networks.

A complete implementation of the DAIM problem and the two index-based
solutions (MIA-DA and RIS-DA) from *"Distance-aware influence maximization
in geo-social network"* (ICDE 2016) and its journal extension, together
with every substrate they need: a CSR geo-social graph, IC/LT diffusion,
MIA arborescences, reverse influence sampling, computational geometry, and
synthetic geo-social datasets.

Quickstart::

    from repro import load_dataset, DistanceDecay, RisDaIndex

    network = load_dataset("gowalla")
    index = RisDaIndex(network, DistanceDecay(alpha=0.01))
    result = index.query((150.0, 150.0), k=30)
    print(result.seeds, result.estimate)

Public API: the names exported here.  Subpackages are also stable surface
for advanced use (``repro.geo``, ``repro.network``, ``repro.diffusion``,
``repro.mia``, ``repro.ris``, ``repro.core``, ``repro.bench``).
"""

from repro.core.greedy import naive_greedy
from repro.core.heuristics import (
    degree_discount,
    top_degree,
    top_weight,
    top_weighted_degree,
)
from repro.core.keyword import keyword_cover_query
from repro.core.mia_da import MiaDaConfig, MiaDaIndex
from repro.core.multi_location import multi_location_query, multi_location_weights
from repro.core.persistence import (
    load_index,
    load_mia_index,
    load_ris_index,
    save_mia_index,
    save_ris_index,
)
from repro.core.query import DaimQuery, SeedResult
from repro.core.ris_da import RisDaConfig, RisDaIndex
from repro.ris.adhoc import adhoc_ris_query
from repro.ris.certify import Certificate, certify_seed_set
from repro.diffusion.spread import (
    SpreadEstimate,
    monte_carlo_spread,
    monte_carlo_weighted_spread,
)
from repro.exceptions import (
    DataFormatError,
    GeometryError,
    GraphError,
    IndexNotReadyError,
    QueryError,
    ReproError,
    SamplingError,
    ServeError,
)
from repro.geo.weights import DistanceDecay
from repro.mia.pmia import MiaModel, PmiaDa
from repro.obs.env import runtime_info
from repro.obs.log import JsonLogger, use_logger
from repro.obs.prom import parse_prometheus, render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import NullTracer, Tracer, use_tracer
from repro.network.datasets import DATASET_RECIPES, load_dataset
from repro.network.generators import GeoSocialConfig, generate_geo_social_network
from repro.network.graph import GeoSocialNetwork
from repro.network.io import read_network, write_network
from repro.serve.cache import IndexCache, ResultCache
from repro.serve.engine import QueryEngine, ServeConfig, ServedResult
from repro.serve.metrics import MetricsRegistry

__version__ = "1.0.0"

__all__ = [
    "DATASET_RECIPES",
    "DaimQuery",
    "DataFormatError",
    "DistanceDecay",
    "GeoSocialConfig",
    "GeoSocialNetwork",
    "GeometryError",
    "GraphError",
    "IndexCache",
    "IndexNotReadyError",
    "JsonLogger",
    "MetricsRegistry",
    "MiaDaConfig",
    "MiaDaIndex",
    "MiaModel",
    "NullTracer",
    "ObsHttpServer",
    "PmiaDa",
    "QueryEngine",
    "QueryError",
    "ReproError",
    "ResultCache",
    "RisDaConfig",
    "RisDaIndex",
    "SamplingError",
    "SeedResult",
    "ServeConfig",
    "ServeError",
    "ServedResult",
    "SlowQueryLog",
    "SpreadEstimate",
    "Tracer",
    "Certificate",
    "__version__",
    "adhoc_ris_query",
    "certify_seed_set",
    "degree_discount",
    "generate_geo_social_network",
    "keyword_cover_query",
    "load_dataset",
    "load_index",
    "load_mia_index",
    "load_ris_index",
    "save_mia_index",
    "save_ris_index",
    "top_degree",
    "top_weight",
    "top_weighted_degree",
    "monte_carlo_spread",
    "monte_carlo_weighted_spread",
    "multi_location_query",
    "multi_location_weights",
    "naive_greedy",
    "parse_prometheus",
    "read_network",
    "render_prometheus",
    "runtime_info",
    "use_logger",
    "use_tracer",
    "write_network",
]


def __getattr__(name):
    # Lazy: the HTTP sidecar pulls in http.server and the serve engine;
    # resolving it on demand keeps plain `import repro` lightweight.
    if name == "ObsHttpServer":
        from repro.obs.httpd import ObsHttpServer

        return ObsHttpServer
    raise AttributeError(name)
