"""Privacy-preserving video prefetching at the edge.

Trusted edge devices predict per-video request rates with a federated
mutual-exciting point process, allocate per-video privacy budgets with an
online threshold rule, and obfuscate cache-miss fetches by sampling
redundant prefetches through an exponential mechanism whose sensitivity is
calibrated by inter-video correlation. A trace-driven simulator measures
the privacy/efficiency trade-off against classic caching baselines.
"""

__version__ = "0.1.0"


class DataError(ValueError):
    """An input that cannot be read or used: a malformed trace, checkpoint or
    manifest, or data that drives a fit to non-finite values."""
