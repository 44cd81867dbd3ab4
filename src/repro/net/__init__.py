"""Networking substrate: packets, routing, traffic, and the IP forwarder.

* :mod:`~repro.net.packet` — IPv4 packets with checksum and message
  conversion;
* :mod:`~repro.net.lpm` — the longest-prefix-match forwarding table;
* :mod:`~repro.net.traffic` — seeded stochastic traffic generators
  (Bernoulli, Poisson-like, bursty, deterministic);
* :mod:`~repro.net.forwarding` — the paper's IP-forwarding evaluation
  application in hic, with its intrinsic bindings and area constants.
"""

from .forwarding import (
    APP_TOTAL_SLICES,
    CORE_FORWARDING_SLICES,
    forwarding_functions,
    forwarding_source,
    multi_pair_source,
)
from .lpm import LpmTable, Route, demo_table
from .packet import Ipv4Packet, format_ip, ip
from .traffic import (
    BernoulliTraffic,
    BurstyTraffic,
    DeterministicTraffic,
    PacketFactory,
    PoissonTraffic,
    TrafficGenerator,
    drive_ingress,
    replay,
)

__all__ = [
    "APP_TOTAL_SLICES",
    "CORE_FORWARDING_SLICES",
    "forwarding_functions",
    "forwarding_source",
    "multi_pair_source",
    "LpmTable",
    "Route",
    "demo_table",
    "Ipv4Packet",
    "format_ip",
    "ip",
    "BernoulliTraffic",
    "BurstyTraffic",
    "DeterministicTraffic",
    "PacketFactory",
    "PoissonTraffic",
    "TrafficGenerator",
    "drive_ingress",
    "replay",
]
