"""Property tests: arbiters, dependency list, packing, LPM.

These are the invariants the hardware relies on: arbitration fairness and
closure, guard-counter bounds, slice-packing monotonicity, and
longest-prefix-match agreement with a brute-force oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.core import RoundRobinArbiter
from repro.fpga import pack
from repro.memory import DependencyEntry, DependencyList
from repro.net import LpmTable


# -- round-robin arbiter -------------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.sets(st.integers(min_value=0, max_value=7)), min_size=1, max_size=30),
)
def test_arbiter_grant_is_always_a_requester(n_clients, request_rounds):
    clients = [f"c{i}" for i in range(n_clients)]
    arbiter = RoundRobinArbiter(clients)
    for indices in request_rounds:
        requesting = {f"c{i}" for i in indices if i < n_clients}
        winner = arbiter.grant(requesting)
        if requesting:
            assert winner in requesting
        else:
            assert winner is None


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=8))
def test_arbiter_starvation_freedom(n_clients):
    clients = [f"c{i}" for i in range(n_clients)]
    arbiter = RoundRobinArbiter(clients)
    # With everyone requesting, any window of n grants serves everyone.
    grants = [arbiter.grant(set(clients)) for __ in range(2 * n_clients)]
    for start in range(n_clients):
        window = set(grants[start : start + n_clients])
        assert window == set(clients)


# -- dependency list guard protocol ------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.sampled_from(["write", "read"]), max_size=60),
)
def test_guard_counter_stays_in_bounds(dn, operations):
    deplist = DependencyList(
        bram="b",
        entries=[
            DependencyEntry("d", dn, 0, "p", tuple(f"c{i}" for i in range(dn)))
        ],
    )
    entry = deplist.entries[0]
    for operation in operations:
        if operation == "write" and deplist.producer_write_allowed(0):
            deplist.note_producer_write(0)
        elif operation == "read" and deplist.consumer_read_allowed(0) \
                and deplist.match(0) is not None and entry.outstanding > 0:
            deplist.note_consumer_read(0)
        assert 0 <= entry.outstanding <= dn
        # Mutual exclusion of the two grants on a guarded address:
        assert not (
            deplist.producer_write_allowed(0)
            and entry.outstanding > 0
        )


# -- slice packing -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=4000),
    st.integers(min_value=0, max_value=4000),
)
def test_packing_bounds(luts, ffs):
    slices = pack(luts, ffs)
    if luts == 0 and ffs == 0:
        assert slices == 0
        return
    # Never below the perfect-packing bound, never absurdly above it.
    perfect = max((luts + 1) // 2, (ffs + 1) // 2)
    assert slices >= perfect
    assert slices <= perfect * 2 + 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=0, max_value=2000),
    st.integers(min_value=1, max_value=500),
)
def test_packing_monotone_in_resources(luts, ffs, extra):
    base = pack(luts, ffs)
    assert pack(luts + extra, ffs) >= base
    assert pack(luts, ffs + extra) >= base


# -- LPM ------------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            st.integers(min_value=0, max_value=32),
            st.integers(min_value=0, max_value=15),
        ),
        max_size=15,
    ),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_lpm_matches_bruteforce(routes, probe):
    table = LpmTable(default_port=99)
    entries = []
    for prefix, length, port in routes:
        mask = 0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF
        table.add_route(prefix, length, port)
        entries.append((prefix & mask, mask, length, port))

    best = None
    for masked, mask, length, port in entries:
        if probe & mask == masked:
            if best is None or length > best[0]:
                best = (length, port)
            elif length == best[0]:
                best = (length, port)  # later insert overwrites, like the table
    expected = best[1] if best is not None else 99
    assert table.lookup(probe) == expected
