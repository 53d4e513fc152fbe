"""Request streams and their statistics: arrival processes, served-request
lifecycles and latency percentiles.

:mod:`repro.engine` admits these requests and reports through
:class:`ServingStats`; :mod:`repro.fleet` replays registered traces built
from the same arrival processes.
"""

from repro.serving.arrivals import Request, bursty_arrivals, poisson_arrivals, uniform_arrivals
from repro.serving.stats import ServedRequest, ServingStats

__all__ = [
    "Request",
    "ServedRequest",
    "ServingStats",
    "bursty_arrivals",
    "poisson_arrivals",
    "uniform_arrivals",
]
