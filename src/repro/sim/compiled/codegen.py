"""Per-design code generator for the compiled simulation backend.

``generate_source`` flattens one :class:`repro.flow.CompiledDesign` —
every thread FSM, the arbitrated controller policy (round-robin
arbiters, dependency-list guards, priority D > C > B), and the
interface DMA — into the source of one straight-line Python module with
a single ``bind(kernel) -> run_span`` entry point.  ``run_span(kernel,
start, end, deadline, max_wall_seconds)`` advances the kernel exactly
like ``SimulationKernel.step`` called ``end - start`` times, then
flushes the accumulated state back into the real executor/controller
objects, so interpreted and compiled cycles interleave freely.  The
kernel is an argument, not a closure variable: the kernel holds its
``run_span``, so closing over the kernel would make every compiled
simulation a reference cycle.

Equivalence contract (byte-for-byte, proven by ``tests/differential/``):

* phase order per cycle: pre-hooks, all executors phase 1 (sorted thread
  order), all controllers (sorted name order), all executors phase 2;
* every interpreter quirk is replicated, deliberately: issue cycles are
  stamped with the *previous* arbitrate's cycle number; a granted client
  retires **all** of its pending requests (one latency sample each);
  phase 2 checks the grant of ``state.memory_ops[0]`` only and absorbs
  that controller's data into the *last* read's destination; ``/`` and
  ``%`` truncate via float division; read grants absorb the raw (up to
  36-bit) BRAM word unmasked.

Organizations other than single-address-space ARBITRATED (event-driven,
lock baseline, fabric, off-chip banks) keep their controller *objects*
and go through ``controller.arbitrate`` per cycle — still several times
faster than the interpreter because the executors are compiled — while
the arbitrated wrapper, the hot path of every benchmark, is fully
inlined (flat request tuples, list-indexed guard counters).

Expressions compile through :class:`repro.sim.expr.ExprCompiler`, the
same fragments the interpreter evaluates, so an expression that cannot
be evaluated raises when its state runs, as it does in the interpreter.
Designs using constructs with no compiled equivalent (non-BRAM message
placements, out-of-range static addresses) raise
:class:`UnsupportedDesign`; the kernel then runs on its base class, the
wheel, which is always correct.
"""

from __future__ import annotations

from ...core.advisor import Organization
from ...hic.types import MESSAGE_FIELDS
from ...memory.allocation import Residency
from ...synth.fsm import (
    ComputeOp,
    MemReadOp,
    MemWriteOp,
    ReceiveOp,
    TransmitOp,
)
from ..expr import HELPERS, ExprCompiler

#: Cycles a generated span runs between arrival pre-draws (which bounds
#: the arrivals it holds drawn ahead), without and with a wall-clock
#: deadline (checked once per chunk).
_CHUNK = 4096
_TIMED_CHUNK = 256

#: Geometry the inline arbitrated path is specialized for (the flow
#: always builds ``BlockRam(name)`` with these defaults; ``bind``
#: re-asserts them and refuses to bind anything else).
_BRAM_DEPTH = 512
_BRAM_MASK = (1 << 36) - 1

_PRELUDE = '''\
from time import monotonic as _monotonic

from repro.core.controller import LatencySample, MemRequest
from repro.core.errors import GuardViolationError, SimulationTimeout
from repro.sim.expr import default_intrinsic as _default_intrinsic
from repro.sim.expr import %s

_E = {}
_new = tuple.__new__


def _oob(name, address, depth):
    raise IndexError(
        f"address {address} out of range for {name} (depth {depth})"
    )
''' % ", ".join(HELPERS)


class UnsupportedDesign(Exception):
    """The design uses a construct the code generator cannot compile."""


def _indent(lines, pad="    "):
    return [pad + line if line else line for line in lines]


class _Codegen:
    def __init__(self, design):
        self.design = design
        # bind-level sections, assembled in dependency order
        self.bind_head: list[str] = []
        self.bind_exec: list[str] = []
        self.bind_iface: list[str] = []
        self.bind_ctl: list[str] = []
        self.bind_const: list[str] = []
        self.bind_fns: list[str] = []
        # run_span sections
        self.entry: list[str] = []
        self.body_p1: list[str] = []
        self.body_ctl: list[str] = []
        self.body_p2: list[str] = []
        self.exit: list[str] = []
        self._nconst = 0
        # interface registries: name -> (index, first-user thread index)
        self._rx: dict[str, int] = {}
        self._tx: dict[str, int] = {}

        self.threads = sorted(design.fsms)
        if design.fabric is not None:
            from ...memory.allocation import FABRIC_BRAM

            self.ctrl_names = [FABRIC_BRAM]
        else:
            self.ctrl_names = sorted(
                list(design.memory_map.bram_names)
                + list(design.memory_map.offchip_names)
                + list(design.memory_map.fifo_names)
            )
        self.ctrl_index = {name: j for j, name in enumerate(self.ctrl_names)}
        self.inline = {
            name: (
                design.fabric is None
                and design.organization is Organization.ARBITRATED
                and name in design.memory_map.bram_names
            )
            for name in self.ctrl_names
        }
        from ...flow import _PORT_OVERRIDES

        self.override = _PORT_OVERRIDES[design.organization]

    # -- small helpers ---------------------------------------------------------------

    def _const(self, expr_src: str) -> str:
        name = f"C{self._nconst}"
        self._nconst += 1
        self.bind_const.append(f"{name} = {expr_src}")
        return name

    def _rx_index(self, name: str, thread_idx: int) -> int:
        k = self._rx.get(name)
        if k is None:
            k = len(self._rx)
            self._rx[name] = k
            self.bind_iface.append(f"rxo_r{k} = x_t{thread_idx}._rx[{name!r}]")
            self.bind_iface.append(f"b_rxq_r{k} = rxo_r{k}._queue")
            self.entry.append(f"rxq_r{k} = b_rxq_r{k}")
            self.entry.append(f"dlv_r{k} = 0")
            self.exit.append(f"rxo_r{k}.delivered += dlv_r{k}")
        else:
            self.bind_iface.append(
                f"if x_t{thread_idx}._rx[{name!r}] is not rxo_r{k}:"
            )
            self.bind_iface.append(
                "    raise RuntimeError('rx interface aliasing drifted')"
            )
        return k

    def _tx_index(self, name: str, thread_idx: int) -> int:
        k = self._tx.get(name)
        if k is None:
            k = len(self._tx)
            self._tx[name] = k
            self.bind_iface.append(f"txo_x{k} = x_t{thread_idx}._tx[{name!r}]")
            self.bind_iface.append(f"b_txm_x{k} = txo_x{k}.messages")
            self.entry.append(f"txm_x{k} = b_txm_x{k}")
        else:
            self.bind_iface.append(
                f"if x_t{thread_idx}._tx[{name!r}] is not txo_x{k}:"
            )
            self.bind_iface.append(
                "    raise RuntimeError('tx interface aliasing drifted')"
            )
        return k

    def _port_for(self, op) -> str:
        if op.dep_id is not None:
            return self.override.get(op.port, op.port)
        return op.port

    def _placement(self, thread: str, var: str):
        placement = self.design.memory_map.placements.get((thread, var))
        if placement is None or placement.residency is not Residency.BRAM:
            raise UnsupportedDesign(
                f"message variable {thread}.{var} is not BRAM-resident"
            )
        if placement.bram not in self.ctrl_index:
            raise UnsupportedDesign(
                f"message variable {thread}.{var} targets unknown "
                f"memory {placement.bram!r}"
            )
        return placement

    # -- generation ------------------------------------------------------------------

    def generate(self) -> str:
        self.bind_head.append(f"if sorted(executors) != {self.threads!r}:")
        self.bind_head.append(
            "    raise RuntimeError('executor set drifted from the design')"
        )
        self.bind_head.append(
            f"if sorted(controllers) != {sorted(self.ctrl_names)!r}:"
        )
        self.bind_head.append(
            "    raise RuntimeError('controller set drifted from the design')"
        )

        for j, name in enumerate(self.ctrl_names):
            if self.inline[name]:
                self._emit_inline_controller(j, name)
            else:
                self._emit_object_controller(j, name)

        for i, thread in enumerate(self.threads):
            self._emit_thread(i, thread)

        return self._assemble()

    # -- controllers -----------------------------------------------------------------

    def _emit_object_controller(self, j: int, name: str) -> None:
        self.bind_ctl.append(f"ctl_c{j} = controllers[{name!r}]")
        self.bind_ctl.append(f"brm_c{j} = ctl_c{j}.bram")
        self.body_ctl.append(f"res_c{j} = ctl_c{j}.arbitrate(cycle)")

    def _emit_inline_controller(self, j: int, name: str) -> None:
        design = self.design
        deps = design.dep_groups.get(name, [])
        cli_c = sorted({t for dep in deps for t in dep.consumer_threads()}) or ["-"]
        cli_d = sorted({dep.producer_thread for dep in deps}) or ["-"]
        entries = design.deplists[name].entries
        n = len(entries)
        dep_ids = [e.dep_id for e in entries]
        producers = [e.producer_thread for e in entries]
        consumers = [tuple(e.consumer_threads) for e in entries]

        b = self.bind_ctl
        b.append(f"ctl_c{j} = controllers[{name!r}]")
        b.append(f"if type(ctl_c{j}).__name__ != 'ArbitratedController':")
        b.append("    raise RuntimeError('controller organization drifted')")
        b.append(f"_b = ctl_c{j}.bram")
        b.append(
            f"if _b.depth != {_BRAM_DEPTH} or _b.width != 36 "
            "or type(_b).__name__ != 'BlockRam':"
        )
        b.append("    raise RuntimeError('bram geometry drifted')")
        b.append(f"b_wd_c{j} = _b._words")
        b.append(f"dl_c{j} = ctl_c{j}.deplist")
        b.append(f"if [_e.dep_id for _e in dl_c{j}.entries] != {dep_ids!r}:")
        b.append("    raise RuntimeError('dependency list drifted')")
        b.append(
            f"if [_e.producer_thread for _e in dl_c{j}.entries] != {producers!r}:"
        )
        b.append("    raise RuntimeError('dependency list drifted')")
        b.append(
            f"if [tuple(_e.consumer_threads) for _e in dl_c{j}.entries] "
            f"!= {consumers!r}:"
        )
        b.append("    raise RuntimeError('dependency list drifted')")
        b.append(f"arbA_c{j} = ctl_c{j}._arb_a")
        b.append(f"arbC_c{j} = ctl_c{j}._arb_c")
        b.append(f"arbD_c{j} = ctl_c{j}._arb_d")
        b.append(f"if list(arbC_c{j}.clients) != {cli_c!r}:")
        b.append("    raise RuntimeError('port C arbiter clients drifted')")
        b.append(f"if list(arbD_c{j}.clients) != {cli_d!r}:")
        b.append("    raise RuntimeError('port D arbiter clients drifted')")
        b.append(f"b_cliA_c{j} = arbA_c{j}.clients")
        b.append(f"b_cliC_c{j} = arbC_c{j}.clients")
        b.append(f"b_cliD_c{j} = arbD_c{j}.clients")
        b.append(f"CSC_c{j} = frozenset({cli_c!r})")
        b.append(f"CSD_c{j} = frozenset({cli_d!r})")
        b.append(f"b_issue_c{j} = ctl_c{j}._issue_cycle")
        b.append(f"b_samp_c{j} = ctl_c{j}.latency_samples")
        # Dependency-list guard tables: outstanding counters and the
        # CAM's address match live in flat lists; configuration-derived
        # lookups memoize per (address, client, dep) until the deplist's
        # config_version moves (a corruption fault re-syncs at span entry).
        b.append(f"out_c{j} = [0] * {n}")
        b.append(f"dn_c{j} = [0] * {n}")
        b.append(f"ba_c{j} = {{}}")
        b.append(f"prod_c{j} = {tuple(producers)!r}")
        b.append(
            f"cons_c{j} = ({', '.join(f'frozenset({c!r})' for c in consumers)}"
            f"{',' if n else ''})"
        )
        b.append(f"did_c{j} = {tuple(dep_ids)!r}")
        b.append(f"_ver_c{j} = [-1]")
        b.append(f"_rdc_c{j} = {{}}")
        b.append(f"_wrc_c{j} = {{}}")
        b.append(f"def _sync_c{j}():")
        b.append(f"    _v = dl_c{j}.config_version")
        b.append(f"    if _v == _ver_c{j}[0]:")
        b.append("        return")
        b.append(f"    _ver_c{j}[0] = _v")
        b.append(f"    ba_c{j}.clear()")
        b.append(f"    _rdc_c{j}.clear()")
        b.append(f"    _wrc_c{j}.clear()")
        b.append(f"    for _ii, _e in enumerate(dl_c{j}.entries):")
        b.append(f"        dn_c{j}[_ii] = _e.dependency_number")
        b.append(f"        _l = ba_c{j}.get(_e.base_address)")
        b.append("        if _l is None:")
        b.append(f"            ba_c{j}[_e.base_address] = [_ii]")
        b.append("        else:")
        b.append("            _l.append(_ii)")
        b.append(f"def _wr_ent_c{j}(_addr, _cl, _dep):")
        b.append("    _key = (_addr, _cl, _dep)")
        b.append(f"    _x = _wrc_c{j}.get(_key, -2)")
        b.append("    if _x != -2:")
        b.append("        return _x")
        b.append("    _x = -1")
        b.append(f"    for _ii in ba_c{j}.get(_addr, ()):")
        b.append(
            f"        if prod_c{j}[_ii] == _cl and "
            f"(_dep is None or did_c{j}[_ii] == _dep):"
        )
        b.append("            _x = _ii")
        b.append("            break")
        b.append(f"    _wrc_c{j}[_key] = _x")
        b.append("    return _x")
        b.append(f"def _wr_ok_c{j}(_addr, _cl, _dep):")
        b.append(f"    if _wr_ent_c{j}(_addr, _cl, _dep) < 0:")
        b.append("        return False")
        b.append(f"    for _ii in ba_c{j}.get(_addr, ()):")
        b.append(f"        if out_c{j}[_ii]:")
        b.append("            return False")
        b.append("    return True")
        b.append(f"def _rd_ent_c{j}(_addr, _cl, _dep):")
        b.append("    _key = (_addr, _cl, _dep)")
        b.append(f"    _x = _rdc_c{j}.get(_key)")
        b.append("    if _x is None:")
        b.append(
            f"        _cand = tuple(_ii for _ii in ba_c{j}.get(_addr, ()) "
            f"if _cl in cons_c{j}[_ii])"
        )
        b.append("        if _dep is not None:")
        b.append("            _x = -1")
        b.append("            for _ii in _cand:")
        b.append(f"                if did_c{j}[_ii] == _dep:")
        b.append("                    _x = _ii")
        b.append("                    break")
        b.append("        else:")
        b.append("            _x = _cand")
        b.append(f"        _rdc_c{j}[_key] = _x")
        b.append("    if type(_x) is int:")
        b.append("        return _x")
        b.append("    for _ii in _x:")
        b.append(f"        if out_c{j}[_ii] > 0:")
        b.append("            return _ii")
        b.append("    return _x[0] if _x else -1")
        b.append(f"def _rd_ok_c{j}(_addr, _cl, _dep):")
        b.append(f"    _x = _rd_ent_c{j}(_addr, _cl, _dep)")
        b.append(f"    return _x < 0 or out_c{j}[_x] > 0")

        e = self.entry
        e.append(f"_sync_c{j}()")
        e.append(f"_ents = dl_c{j}.entries")
        e.append(f"for _ii in range({n}):")
        e.append(f"    out_c{j}[_ii] = _ents[_ii].outstanding")
        e.append(f"ptrA_c{j} = arbA_c{j}._pointer")
        e.append(f"ptrC_c{j} = arbC_c{j}._pointer")
        e.append(f"ptrD_c{j} = arbD_c{j}._pointer")
        e.append(f"cyc_c{j} = ctl_c{j}.cycle")
        e.append(f"over_c{j} = 0")
        e.append(f"epoch_c{j} = 0")
        e.append(f"pend_c{j} = {{}}")
        e.append(f"left_c{j} = None")
        e.append(f"issue_c{j} = b_issue_c{j}")
        e.append(f"samp_c{j} = b_samp_c{j}")
        e.append(f"wd_c{j} = b_wd_c{j}")
        e.append(f"cliA_c{j} = b_cliA_c{j}")
        e.append(f"cliC_c{j} = b_cliC_c{j}")
        e.append(f"cliD_c{j} = b_cliD_c{j}")
        e.append(f"setA_c{j} = set(cliA_c{j})")

        self.body_ctl.extend(self._inline_cycle_lines(j, name))

        x = self.exit
        x.append(f"ctl_c{j}.cycle = cyc_c{j}")
        x.append(f"arbA_c{j}._pointer = ptrA_c{j}")
        x.append(f"arbC_c{j}._pointer = ptrC_c{j}")
        x.append(f"arbD_c{j}._pointer = ptrD_c{j}")
        x.append(f"ctl_c{j}.override_count += over_c{j}")
        x.append(f"ctl_c{j}.classify_epoch += epoch_c{j}")
        x.append(f"_ents = dl_c{j}.entries")
        x.append(f"for _ii in range({n}):")
        x.append(f"    _ents[_ii].outstanding = out_c{j}[_ii]")
        x.append(f"if left_c{j} is not None:")
        x.append(f"    ctl_c{j}._pending = {{}}")
        x.append(
            f"    ctl_c{j}._leave_ungranted({{_k: MemRequest(*_r) "
            f"for _k, _r in left_c{j}.items()}}, cyc_c{j})"
        )

    def _rr_lines(self, j: int, port: str, nclients) -> list[str]:
        """Round-robin grant over ``_reqs``: scan from the saved pointer,
        advance past the winner (mod the client count)."""
        ptr = f"ptr{port}_c{j}"
        cli = f"cli{port}_c{j}"
        n_src = f"len({cli})" if nclients is None else str(nclients)
        return [
            f"_n = {n_src}",
            f"_i = {ptr}",
            "while True:",
            f"    _w = {cli}[_i]",
            "    if _w in _reqs:",
            f"        {ptr} = _i + 1",
            f"        if {ptr} == _n:",
            f"            {ptr} = 0",
            "        break",
            "    _i += 1",
            "    if _i == _n:",
            "        _i = 0",
        ]

    def _inline_cycle_lines(self, j: int, name: str) -> list[str]:
        bounds = [
            f"if _a < 0 or _a >= {_BRAM_DEPTH}:",
            f"    _oob({name!r}, _a, {_BRAM_DEPTH})",
        ]
        c: list[str] = []
        c.append(f"if pend_c{j}:")
        c.append("    bA = bB = bC = bD = None")
        c.append(f"    for _r in pend_c{j}.values():")
        c.append("        _p = _r[1]")
        for port, bucket in (("C", "bC"), ("D", "bD"), ("A", "bA")):
            kw = "if" if port == "C" else "elif"
            c.append(f"        {kw} _p == {port!r}:")
            c.append(f"            if {bucket} is None:")
            c.append(f"                {bucket} = [_r]")
            c.append("            else:")
            c.append(f"                {bucket}.append(_r)")
        c.append("        else:")
        c.append("            if bB is None:")
        c.append("                bB = [_r]")
        c.append("            else:")
        c.append("                bB.append(_r)")
        c.append(f"    res_c{j} = {{}}")
        # Physical port 0: direct port-A access, round-robin on overbooking.
        c.append("    if bA is not None:")
        c.append("        _reqs = {_r[0] for _r in bA}")
        c.append(f"        if not _reqs <= setA_c{j}:")
        c.append(f"            for _cn in sorted(_reqs - setA_c{j}):")
        c.append(f"                cliA_c{j}.append(_cn)")
        c.append(f"                setA_c{j}.add(_cn)")
        c.extend(_indent(self._rr_lines(j, "A", None), "        "))
        c.append("        for _r in bA:")
        c.append("            if _r[0] == _w:")
        c.append("                break")
        c.append("        _a = _r[2]")
        c.extend(_indent(bounds, "        "))
        c.append("        if _r[3]:")
        c.append(f"            wd_c{j}[_a] = _r[4]")
        c.append(f"            res_c{j}[_w] = 0")
        c.append("        else:")
        c.append(f"            res_c{j}[_w] = wd_c{j}[_a]")
        # Physical port 1: priority D > C > B among grantable requests.
        # Guard filters: the memo-hit path (entry already resolved for
        # this (addr, client, dep) triple) is inlined — only a cold
        # lookup or an untagged candidate scan pays the closure call.
        c.append("    dal = None")
        c.append("    if bD is not None:")
        c.append("        for _r in bD:")
        c.append(f"            _x = _wrc_c{j}.get((_r[2], _r[0], _r[5]), -2)")
        c.append("            if _x == -2:")
        c.append(f"                _ok = _wr_ok_c{j}(_r[2], _r[0], _r[5])")
        c.append("            elif _x < 0:")
        c.append("                _ok = False")
        c.append("            else:")
        c.append("                _ok = True")
        c.append(f"                for _ii in ba_c{j}[_r[2]]:")
        c.append(f"                    if out_c{j}[_ii]:")
        c.append("                        _ok = False")
        c.append("                        break")
        c.append("            if _ok:")
        c.append("                if dal is None:")
        c.append("                    dal = [_r]")
        c.append("                else:")
        c.append("                    dal.append(_r)")
        c.append("    cal = None")
        c.append("    if bC is not None:")
        c.append("        for _r in bC:")
        c.append(f"            _x = _rdc_c{j}.get((_r[2], _r[0], _r[5]))")
        c.append("            if type(_x) is int:")
        c.append(f"                _ok = _x < 0 or out_c{j}[_x] > 0")
        c.append("            else:")
        c.append(f"                _ok = _rd_ok_c{j}(_r[2], _r[0], _r[5])")
        c.append("            if _ok:")
        c.append("                if cal is None:")
        c.append("                    cal = [_r]")
        c.append("                else:")
        c.append("                    cal.append(_r)")
        c.append("    if dal is not None:")
        c.append("        _reqs = {_r[0] for _r in dal}")
        c.append(f"        if not _reqs <= CSD_c{j}:")
        c.append(
            "            raise KeyError(f\"unknown arbiter clients: "
            f"{{sorted(_reqs - CSD_c{j})}}\")"
        )
        c.extend(
            _indent(self._rr_lines(j, "D", self._n_clients(j, "D")), "        ")
        )
        c.append("        for _r in dal:")
        c.append("            if _r[0] == _w:")
        c.append("                break")
        c.append("        _a = _r[2]")
        c.extend(_indent(bounds, "        "))
        c.append("        if _r[3]:")
        c.append(f"            wd_c{j}[_a] = _r[4]")
        c.append(f"            res_c{j}[_w] = 0")
        c.append("        else:")
        c.append(f"            res_c{j}[_w] = wd_c{j}[_a]")
        c.append(f"        _x = _wrc_c{j}.get((_a, _w, _r[5]), -2)")
        c.append("        if _x == -2:")
        c.append(f"            _x = _wr_ent_c{j}(_a, _w, _r[5])")
        c.append(f"        out_c{j}[_x] = dn_c{j}[_x]")
        c.append(f"        epoch_c{j} += 1")
        c.append("        if bC is not None:")
        c.append(f"            over_c{j} += 1")
        c.append("    elif cal is not None:")
        c.append("        _reqs = {_r[0] for _r in cal}")
        c.append(f"        if not _reqs <= CSC_c{j}:")
        c.append(
            "            raise KeyError(f\"unknown arbiter clients: "
            f"{{sorted(_reqs - CSC_c{j})}}\")"
        )
        c.extend(
            _indent(self._rr_lines(j, "C", self._n_clients(j, "C")), "        ")
        )
        c.append("        for _r in cal:")
        c.append("            if _r[0] == _w:")
        c.append("                break")
        c.append("        _a = _r[2]")
        c.extend(_indent(bounds, "        "))
        c.append("        if _r[3]:")
        c.append(f"            wd_c{j}[_a] = _r[4]")
        c.append(f"            res_c{j}[_w] = 0")
        c.append("        else:")
        c.append(f"            res_c{j}[_w] = wd_c{j}[_a]")
        c.append(f"        _x = _rdc_c{j}.get((_a, _w, _r[5]))")
        c.append("        if type(_x) is not int:")
        c.append(f"            _x = _rd_ent_c{j}(_a, _w, _r[5])")
        c.append("        if _x >= 0:")
        c.append(f"            _o = out_c{j}[_x]")
        c.append("            if _o <= 0:")
        c.append(
            "                raise GuardViolationError(f\"consumer read at "
            "address {_a} with no outstanding produce-consume cycle\", "
            f"bram={name!r}, client=_w, dep_id=_r[5] or did_c{j}[_x])"
        )
        c.append("            _o -= 1")
        c.append(f"            out_c{j}[_x] = _o")
        c.append("            if not _o:")
        c.append(f"                epoch_c{j} += 1")
        c.append("    elif bB is not None and bC is None and bD is None:")
        c.append("        _r = bB[0]")
        c.append("        for _rr in bB:")
        c.append("            if _rr[0] < _r[0]:")
        c.append("                _r = _rr")
        c.append("        _a = _r[2]")
        c.extend(_indent(bounds, "        "))
        c.append("        if _r[3]:")
        c.append(f"            wd_c{j}[_a] = _r[4]")
        c.append(f"            res_c{j}[_r[0]] = 0")
        c.append("        else:")
        c.append(f"            res_c{j}[_r[0]] = wd_c{j}[_a]")
        # Base-class bookkeeping: a granted client retires every pending
        # request it had (one latency sample each, insertion order).
        c.append(f"    if res_c{j}:")
        c.append("        _drop = None")
        c.append(f"        for _k, _r in pend_c{j}.items():")
        c.append(f"            if _r[0] in res_c{j}:")
        c.append(
            f"                samp_c{j}.append(_new(LatencySample, (_r[0], "
            f"_r[1], _r[5], issue_c{j}.pop(_k), cycle)))"
        )
        c.append("                if _drop is None:")
        c.append("                    _drop = [_k]")
        c.append("                else:")
        c.append("                    _drop.append(_k)")
        c.append("        if _drop is not None:")
        c.append("            for _k in _drop:")
        c.append(f"                del pend_c{j}[_k]")
        c.append(f"    left_c{j} = pend_c{j}")
        c.append(f"    pend_c{j} = {{}}")
        c.append("else:")
        c.append(f"    res_c{j} = _E")
        c.append(f"    left_c{j} = _E")
        c.append(f"cyc_c{j} = cycle")
        return c

    def _n_clients(self, j: int, port: str) -> int:
        name = self.ctrl_names[j]
        deps = self.design.dep_groups.get(name, [])
        if port == "C":
            clients = sorted(
                {t for dep in deps for t in dep.consumer_threads()}
            ) or ["-"]
        else:
            clients = sorted({dep.producer_thread for dep in deps}) or ["-"]
        return len(clients)

    # -- threads -----------------------------------------------------------------------

    def _emit_thread(self, i: int, thread: str) -> None:
        fsm = self.design.fsms[thread]
        state_names = list(fsm.states)
        state_index = {s: k for k, s in enumerate(state_names)}
        if fsm.initial not in state_index:
            raise UnsupportedDesign(f"thread {thread} has no initial state")
        n = len(state_names)
        ec = ExprCompiler(f"env_t{i}", f"f_t{i}_")

        b = self.bind_exec
        b.append(f"x_t{i} = executors[{thread!r}]")
        b.append(f"if tuple(x_t{i}.fsm.states) != {tuple(state_names)!r}:")
        b.append("    raise RuntimeError('thread FSM drifted from the design')")
        b.append(f"if x_t{i}.fsm.initial != {fsm.initial!r}:")
        b.append("    raise RuntimeError('thread FSM drifted from the design')")
        b.append(f"b_env_t{i} = x_t{i}.env")
        b.append(f"SN_t{i} = {tuple(state_names)!r}")
        b.append(f"si_t{i} = {state_index!r}")

        e = self.entry
        e.append(f"st_t{i} = si_t{i}[x_t{i}.state_name]")
        e.append(f"env_t{i} = b_env_t{i}")
        e.append(f"sv_t{i} = [0] * {n}")
        e.append(f"order_t{i} = []")
        e.append(f"stall_t{i} = 0")
        e.append(f"adv_t{i} = 0")
        e.append(f"rnd_t{i} = 0")
        e.append(f"lre_t{i} = x_t{i}.last_round_env")
        e.append(f"blk_t{i} = x_t{i}._blocked")

        # phase 1: per-cycle statistics, then the current state's ops
        p1 = self.body_p1
        p1.append(f"_v = sv_t{i}[st_t{i}]")
        p1.append(f"sv_t{i}[st_t{i}] = _v + 1")
        p1.append("if not _v:")
        p1.append(f"    order_t{i}.append(st_t{i})")
        p1.append(f"blk_t{i} = False")
        p1.extend(
            self._dispatch(
                i,
                [
                    self._phase1_state_lines(i, thread, fsm.states[s], ec)
                    for s in state_names
                ],
            )
        )

        # phase 2: grant check / advance
        p2_blocks = [
            self._phase2_state_lines(i, thread, fsm, fsm.states[s], state_index, ec)
            for s in state_names
        ]
        self.body_p2.extend(self._dispatch(i, p2_blocks))

        x = self.exit
        x.append(f"x_t{i}.state_name = SN_t{i}[st_t{i}]")
        x.append(f"_s = x_t{i}.stats")
        x.append("_s.cycles += cycle - start")
        x.append(f"_s.stall_cycles += stall_t{i}")
        x.append(f"_s.advances += adv_t{i}")
        x.append(f"_s.rounds_completed += rnd_t{i}")
        x.append("_sv = _s.state_visits")
        x.append(f"for _ii in order_t{i}:")
        x.append(f"    _nm = SN_t{i}[_ii]")
        x.append(f"    _sv[_nm] = _sv.get(_nm, 0) + sv_t{i}[_ii]")
        x.append(f"x_t{i}.last_round_env = lre_t{i}")
        x.append(f"x_t{i}._blocked = blk_t{i}")
        x.append(f"x_t{i}._waiting_read = None")

        for callee, alias in ec.calls.items():
            f = self.bind_fns
            f.append(f"{alias} = x_t{i}._functions.get({callee!r})")
            f.append(f"if {alias} is None:")
            f.append(f"    {alias} = _default_intrinsic({callee!r})")
            f.append(f"    x_t{i}._functions[{callee!r}] = {alias}")

    def _dispatch(self, i: int, blocks: list[list[str]]) -> list[str]:
        """A ``st_t{i}`` if/elif chain over the per-state line blocks."""
        if len(blocks) == 1:
            return blocks[0]
        out: list[str] = []
        for k, block in enumerate(blocks):
            kw = "if" if k == 0 else "elif"
            out.append(f"{kw} st_t{i} == {k}:")
            out.extend(_indent(block or ["pass"]))
        return out

    def _phase1_state_lines(self, i, thread, state, ec) -> list[str]:
        lines: list[str] = []
        for op in state.ops:
            if isinstance(op, ComputeOp):
                lines.append(f"env_t{i}[{op.dest!r}] = {ec.compile(op.expr)}")
            elif isinstance(op, (MemReadOp, MemWriteOp)):
                lines.extend(self._submit_lines(i, thread, op, ec))
            elif isinstance(op, ReceiveOp):
                lines.extend(self._receive_lines(i, thread, op))
            elif isinstance(op, TransmitOp):
                lines.extend(self._transmit_lines(i, thread, op))
            else:
                raise UnsupportedDesign(
                    f"unknown micro-op {type(op).__name__}"
                )
        return lines

    def _submit_lines(self, i, thread, op, ec) -> list[str]:
        if op.bram not in self.ctrl_index:
            raise UnsupportedDesign(
                f"memory op targets unknown controller {op.bram!r}"
            )
        j = self.ctrl_index[op.bram]
        port = self._port_for(op)
        write = isinstance(op, MemWriteOp)
        if not isinstance(op.base_address, int):
            raise UnsupportedDesign("non-integer base address")
        lines: list[str] = []

        # address
        static_addr = op.offset_expr is None
        if static_addr:
            addr_src = str(op.base_address)
            if self.inline[op.bram] and not (
                0 <= op.base_address < _BRAM_DEPTH
            ):
                raise UnsupportedDesign(
                    f"static address {op.base_address} out of range"
                )
        else:
            lines.append(f"_t = {ec.compile(op.offset_expr)}")
            lines.append(
                f"_a = {op.base_address} + "
                "(_t - 4294967296 if _t >= 2147483648 else _t)"
            )
            addr_src = "_a"

        # data (writes only)
        data_src = "0"
        static_data = True
        if write:
            data_src = ec.compile(op.value_expr)
            static_data = data_src.isdigit()
            if not static_data:
                lines.append(f"_d = {data_src}")
                data_src = "_d"

        if self.inline[op.bram]:
            if port not in ("A", "B", "C", "D"):
                raise UnsupportedDesign(
                    f"port {port!r} on an arbitrated wrapper"
                )
            if static_addr:
                key = self._const(
                    f"({thread!r}, {port!r}, {op.base_address}, {write})"
                )
                lines.append(f"if {key} not in issue_c{j}:")
                lines.append(f"    issue_c{j}[{key}] = cyc_c{j}")
                if static_data:
                    val = self._const(
                        f"({thread!r}, {port!r}, {op.base_address}, {write}, "
                        f"{data_src}, {op.dep_id!r})"
                    )
                    lines.append(f"pend_c{j}[{key}] = {val}")
                else:
                    lines.append(
                        f"pend_c{j}[{key}] = ({thread!r}, {port!r}, "
                        f"{op.base_address}, {write}, _d, {op.dep_id!r})"
                    )
            else:
                lines.append(f"_k = ({thread!r}, {port!r}, _a, {write})")
                lines.append(f"if _k not in issue_c{j}:")
                lines.append(f"    issue_c{j}[_k] = cyc_c{j}")
                lines.append(
                    f"pend_c{j}[_k] = ({thread!r}, {port!r}, _a, {write}, "
                    f"{data_src}, {op.dep_id!r})"
                )
        else:
            if static_addr and static_data:
                req = self._const(
                    f"MemRequest({thread!r}, {port!r}, {op.base_address}, "
                    f"{write}, {data_src}, {op.dep_id!r})"
                )
                lines.append(f"ctl_c{j}.submit({req})")
            else:
                cell = self._const("[None]")
                checks = ["_q is None"]
                if not static_addr:
                    checks.append("_q.address != _a")
                if not static_data:
                    checks.append("_q.data != _d")
                lines.append(f"_q = {cell}[0]")
                lines.append(f"if {' or '.join(checks)}:")
                lines.append(
                    f"    _q = MemRequest({thread!r}, {port!r}, {addr_src}, "
                    f"{write}, {data_src}, {op.dep_id!r})"
                )
                lines.append(f"    {cell}[0] = _q")
                lines.append(f"ctl_c{j}.submit(_q)")
        lines.append(f"blk_t{i} = True")
        return lines

    def _receive_lines(self, i, thread, op) -> list[str]:
        if op.interface not in self.design.checked.interfaces:
            # No rx interface: the interpreter blocks forever.
            return [f"blk_t{i} = True"]
        placement = self._placement(thread, op.target)
        j = self.ctrl_index[placement.bram]
        base = placement.base_address
        k = self._rx_index(op.interface, i)
        fields = list(MESSAGE_FIELDS)
        lines = [
            f"if rxq_r{k}:",
            f"    dlv_r{k} += 1",
            f"    _m = rxq_r{k}.popleft()",
            "    if callable(_m):",  # a lazy arrival draws its fields now
            "        _m = _m()",
        ]
        if self.inline[placement.bram]:
            if not 0 <= base <= _BRAM_DEPTH - len(fields):
                raise UnsupportedDesign("message placement out of range")
            for idx, field_name in enumerate(fields):
                lines.append(
                    f"    wd_c{j}[{base + idx}] = "
                    f"_m.get({field_name!r}, 0) & {_BRAM_MASK}"
                )
        else:
            for idx, field_name in enumerate(fields):
                lines.append(
                    f"    brm_c{j}.write({base + idx}, "
                    f"_m.get({field_name!r}, 0))"
                )
        lines.append("else:")
        lines.append(f"    blk_t{i} = True")
        return lines

    def _transmit_lines(self, i, thread, op) -> list[str]:
        if op.interface not in self.design.checked.interfaces:
            return []
        placement = self._placement(thread, op.source)
        j = self.ctrl_index[placement.bram]
        base = placement.base_address
        k = self._tx_index(op.interface, i)
        fields = list(MESSAGE_FIELDS)
        if self.inline[placement.bram]:
            if not 0 <= base <= _BRAM_DEPTH - len(fields):
                raise UnsupportedDesign("message placement out of range")
            items = ", ".join(
                f"{f!r}: wd_c{j}[{base + idx}]"
                for idx, f in enumerate(fields)
            )
        else:
            items = ", ".join(
                f"{f!r}: brm_c{j}.read({base + idx})"
                for idx, f in enumerate(fields)
            )
        return [f"txm_x{k}.append((cycle, {{{items}}}))"]

    def _advance_lines(self, i, fsm, state, state_index, ec) -> list[str]:
        out: list[str] = []
        emitted_if = False
        for transition in state.transitions:
            target_id = state_index[transition.target]
            body = []
            if transition.target == fsm.initial:
                body.append(f"rnd_t{i} += 1")
                body.append(f"lre_t{i} = dict(env_t{i})")
            body.append(f"st_t{i} = {target_id}")
            body.append(f"adv_t{i} += 1")
            if transition.guard is None:
                if not emitted_if:
                    out.extend(body)
                else:
                    out.append("else:")
                    out.extend(_indent(body))
                return out
            kw = "elif" if emitted_if else "if"
            out.append(f"{kw} {ec.compile(transition.guard)}:")
            out.extend(_indent(body))
            emitted_if = True
        if emitted_if:
            out.append("else:")
            out.append(f"    stall_t{i} += 1")
        else:
            out.append(f"stall_t{i} += 1")
        return out

    def _phase2_state_lines(
        self, i, thread, fsm, state, state_index, ec
    ) -> list[str]:
        advance = self._advance_lines(i, fsm, state, state_index, ec)
        mem_ops = state.memory_ops
        if mem_ops:
            first = mem_ops[0]
            if first.bram not in self.ctrl_index:
                raise UnsupportedDesign(
                    f"memory op targets unknown controller {first.bram!r}"
                )
            j = self.ctrl_index[first.bram]
            last_read = None
            for op in state.ops:
                if isinstance(op, MemReadOp):
                    last_read = op
            out = [f"_g = res_c{j}.get({thread!r})"]
            if self.inline[first.bram]:
                out.append("if _g is None:")
                out.append(f"    stall_t{i} += 1")
                out.append("else:")
                if last_read is not None:
                    out.append(f"    env_t{i}[{last_read.dest!r}] = _g")
            else:
                out.append("if _g is None or not _g.granted:")
                out.append(f"    stall_t{i} += 1")
                out.append("else:")
                if last_read is not None:
                    out.append(f"    env_t{i}[{last_read.dest!r}] = _g.data")
            out.extend(_indent(advance))
            return out
        if any(isinstance(op, ReceiveOp) for op in state.ops):
            out = [f"if blk_t{i}:", f"    stall_t{i} += 1", "else:"]
            out.extend(_indent(advance))
            return out
        return advance

    # -- assembly --------------------------------------------------------------------

    def _assemble(self) -> str:
        lines: list[str] = []
        lines.append(
            '"""Generated tick function -- machine-written, do not edit."""'
        )
        lines.append(_PRELUDE)
        lines.append("")
        lines.append("def bind(kernel):")
        lines.append("    executors = kernel.executors")
        lines.append("    controllers = kernel.controllers")
        for section in (
            self.bind_head,
            self.bind_exec,
            self.bind_iface,
            self.bind_ctl,
            self.bind_const,
            self.bind_fns,
        ):
            lines.extend(_indent(section))
        lines.append("")
        lines.append(
            "    def run_span(kernel, start, end, deadline, max_wall_seconds):"
        )
        lines.append("        cycle = start")
        # Partition pre-hooks once per span: a hook exposing
        # prepare_span() (the traffic injector) pre-draws its arrivals a
        # chunk at a time, so delivering one is a deque pop and a call,
        # and a cycle without arrivals costs one comparison; anything
        # else runs through the per-cycle call, same order as the
        # interpreter.
        lines.append("        _fast = []")
        lines.append("        _slow = []")
        lines.append("        for _h in kernel._pre_hooks:")
        lines.append("            _ps = getattr(_h, 'prepare_span', None)")
        lines.append("            if _ps is None:")
        lines.append("                _slow.append(_h)")
        lines.append("            else:")
        lines.append("                _fast.append(_ps)")
        lines.extend(_indent(self.entry, "        "))
        lines.append("        timed_out = False")
        lines.append("        try:")
        lines.append("            while cycle < end:")
        lines.append(
            "                _limit = cycle + "
            f"({_CHUNK} if deadline is None else {_TIMED_CHUNK})"
        )
        lines.append("                if _limit > end:")
        lines.append("                    _limit = end")
        lines.append("                _arr = [_ps(_limit) for _ps in _fast]")
        # _nxt: the chunk's next arrival cycle over every fast hook
        lines.append("                _nxt = _limit")
        lines.append("                for _d, _a in _arr:")
        lines.append("                    if _d and _d[0] < _nxt:")
        lines.append("                        _nxt = _d[0]")
        lines.append("                while cycle < _limit:")
        lines.append("                    if cycle >= _nxt:")
        lines.append("                        _nxt = _limit")
        lines.append("                        for _d, _a in _arr:")
        lines.append("                            while _d and _d[0] <= cycle:")
        lines.append("                                _d.popleft()")
        lines.append("                                _a()")
        lines.append("                            if _d and _d[0] < _nxt:")
        lines.append("                                _nxt = _d[0]")
        # Only a slow hook can see kernel.cycle mid-span; the exit
        # flush stores the final value for everyone else.
        lines.append("                    if _slow:")
        lines.append("                        kernel.cycle = cycle")
        lines.append("                        for _h in _slow:")
        lines.append("                            _h(cycle, kernel)")
        body = self.body_p1 + self.body_ctl + self.body_p2
        lines.extend(_indent(body, "                    "))
        lines.append("                    cycle += 1")
        lines.append(
            "                if deadline is not None "
            "and _monotonic() >= deadline:"
        )
        lines.append("                    timed_out = True")
        lines.append("                    break")
        lines.append("        finally:")
        lines.extend(_indent(self.exit, "            "))
        lines.append("            kernel.cycle = cycle")
        lines.append("        if timed_out:")
        lines.append("            raise SimulationTimeout(")
        lines.append(
            "                f\"simulation exceeded its {max_wall_seconds}s "
            "wall-clock \""
        )
        lines.append("                f\"budget after {cycle} cycles\",")
        lines.append("                cycle=cycle,")
        lines.append("                wall_seconds=max_wall_seconds,")
        lines.append("            )")
        lines.append("    return run_span")
        lines.append("")
        return "\n".join(lines)


def generate_source(design) -> str:
    """Generate the specialized tick module for ``design``.

    Raises :class:`UnsupportedDesign` when the design cannot be compiled.
    """
    return _Codegen(design).generate()
