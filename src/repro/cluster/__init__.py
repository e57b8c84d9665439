"""Cluster substrate: scheduler, clusters and the WSC fleet."""

from repro.cluster.cluster import Cluster
from repro.cluster.job import RunningJob
from repro.cluster.scheduler import BorgScheduler, EvictionSloTracker, Placement
from repro.cluster.wsc import WSC, quickfleet

__all__ = [
    "BorgScheduler",
    "Cluster",
    "EvictionSloTracker",
    "Placement",
    "RunningJob",
    "WSC",
    "quickfleet",
]
