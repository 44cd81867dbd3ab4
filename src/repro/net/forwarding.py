"""The IP packet-forwarding reference application (paper §4).

The evaluation scenarios map "two, four, and eight pseudo-ports
representing varying number of consumers for a single producer" onto one
BRAM: a classifier thread receives packets, computes the forwarding
decision (longest-prefix-match on the destination, TTL decrement), and
produces the decision word that N egress threads consume.

:func:`forwarding_source` emits the hic program for a scenario;
:func:`forwarding_functions` binds the ``lpm_lookup`` intrinsic to a real
:class:`~repro.net.lpm.LpmTable`.  The constants below carry the paper's
in-text area figures used by the E4 overhead experiment.
"""

from __future__ import annotations

from typing import Callable

from .lpm import LpmTable, demo_table
from .packet import Ipv4Packet

#: §4: "the total amount of area devoted to the core functionality of the
#: IP forwarding is about 1000 slices".
CORE_FORWARDING_SLICES = 1000

#: §4: "The two-port IP forwarding application ... used a total of 5430
#: slices".
APP_TOTAL_SLICES = 5430

def forwarding_source(consumers: int, with_io: bool = True) -> str:
    """The hic text of the forwarding application with ``consumers``
    egress threads consuming the classifier's decision word.

    Args:
        consumers: Number of consumer (egress) threads — the paper sweeps
            2, 4, 8.
        with_io: Include the network interfaces and receive/transmit
            statements.  Disable for pure synchronization studies where no
            traffic generator is attached (the classifier then free-runs).
    """
    if consumers < 1:
        raise ValueError("need at least one consumer thread")

    lines: list[str] = []
    if with_io:
        lines.append("#interface{eth_in, gige}")
        lines.append("#interface{eth_out, gige}")
    lines.append("#constant{ttl_floor, 1}")

    links = ", ".join(f"[egress{i},d{i}]" for i in range(consumers))
    lines.append("thread classify () {")
    if with_io:
        lines.append("  message pkt;")
    lines.append("  int decision, dst, t;")
    if with_io:
        lines.append("  receive(pkt, eth_in);")
        lines.append("  dst = pkt.dst_addr;")
        lines.append("  t = pkt.ttl;")
        lines.append("  if (t > ttl_floor) {")
        lines.append(
            "    pkt.checksum = ttl_checksum(pkt.checksum, t, pkt.protocol);"
        )
        lines.append("    pkt.ttl = t - 1;")
        lines.append(f"    #consumer{{fw,{links}}}")
        lines.append("    decision = lpm_lookup(dst);")
        lines.append("    transmit(pkt, eth_out);")
        lines.append("  }")
    else:
        lines.append("  dst = dst + 1;")
        lines.append(f"  #consumer{{fw,{links}}}")
        lines.append("  decision = lpm_lookup(dst);")
    lines.append("}")

    for i in range(consumers):
        lines.append(f"thread egress{i} () {{")
        lines.append(f"  int d{i}, queued{i};")
        lines.append("  #producer{fw,[classify,decision]}")
        lines.append(f"  d{i} = g(decision, queued{i});")
        lines.append(f"  if (d{i} == {i}) {{")
        lines.append(f"    queued{i} = queued{i} + 1;")
        lines.append("  }")
        lines.append("}")

    return "\n".join(lines)


def forwarding_functions(
    table: LpmTable | None = None,
) -> dict[str, Callable[..., int]]:
    """The intrinsic bindings for the forwarding application.

    ``lpm_lookup`` resolves against a real LPM table; ``ttl_checksum`` is
    the RFC 1624 incremental header-checksum update for the TTL decrement;
    ``g`` models the egress-side queue-admission function (deterministic).
    """
    if table is None:
        table = demo_table()

    def g(decision: int, queued: int) -> int:
        # The egress thread extracts the port from the decision word.
        return decision & 0xFF

    return {
        "lpm_lookup": table.as_function(),
        "ttl_checksum": Ipv4Packet.ttl_checksum_update,
        "g": g,
    }


def multi_pair_source(pairs: int, consumers_per_pair: int = 1) -> str:
    """Several independent producer/consumer pairs sharing one BRAM — the
    configuration §3.1 calls out as the source of non-deterministic timing
    ("more than one producer-consumer pairs are mapped to the same BRAM").
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    lines: list[str] = []
    for p in range(pairs):
        links = ", ".join(
            f"[sink{p}_{c},v{p}_{c}]" for c in range(consumers_per_pair)
        )
        lines.append(f"thread src{p} () {{")
        lines.append(f"  int data{p}, seq{p};")
        lines.append(f"  seq{p} = seq{p} + 1;")
        lines.append(f"  #consumer{{dep{p},{links}}}")
        lines.append(f"  data{p} = f(seq{p});")
        lines.append("}")
        for c in range(consumers_per_pair):
            lines.append(f"thread sink{p}_{c} () {{")
            lines.append(f"  int v{p}_{c}, acc{p}_{c};")
            lines.append(f"  #producer{{dep{p},[src{p},data{p}]}}")
            lines.append(f"  v{p}_{c} = g(data{p}, acc{p}_{c});")
            lines.append("}")
    return "\n".join(lines)
