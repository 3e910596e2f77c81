"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload is built from a seed (its inputs), warms up with one
operation, and then runs identical *passes*.  A pass returns a
:class:`PassResult`: how many operations it attempted, how many failed,
the host CPU seconds spent inside the program, the simulated time summed
over its operations, and exact work counts read from ``Cluster.metrics``.
Every pass checks the program's outputs against a computation made here,
apart from the program, and raises :class:`CheckError` on a mismatch.

Only calls into the program are timed (see :class:`Meter`); building the
expected values and comparing against them is not.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from repro import DOUBLE, Cluster, KiB, NonContigMode, ProtocolConfig, Vector
from repro.hardware.sci.topology import topology_from_name
from repro.mpi.flatten import plan_cache_stats
from repro.scenarios import run_scenario

__all__ = ["WORKLOADS", "CheckError", "Meter", "PassResult", "build"]

#: Registry counters summed over every cluster of a pass (exact counts).
REGISTRY_COUNTS = (
    "sim.events",
    "fabric.bytes_written",
    "fabric.bytes_read",
    "fabric.link_bytes",
    "osc.direct_puts",
    "osc.direct_gets",
    "osc.emulated_puts",
    "osc.emulated_gets",
    "transport.chunks",
    "recovery.retries",
)


class CheckError(AssertionError):
    """The program's output disagrees with the benchmark's own computation."""


@dataclass
class PassResult:
    """What one pass of a workload did."""

    attempted: int = 0
    failed: int = 0
    sim_us: float = 0.0
    counts: dict = field(default_factory=dict)
    #: Host CPU seconds per labelled program run (one cell of the pass).
    cpu: dict = field(default_factory=dict)
    #: Simulated events per labelled run, where a workload reports them.
    events: dict = field(default_factory=dict)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu.values())


class Meter:
    """Times calls into the program on the process CPU clock.

    ``profiler`` (a ``cProfile.Profile``) is switched on only inside the
    timed calls, so its self times cover the same work the CPU clock does.
    An operation that raises counts as failed; its result is ``None``.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.result = PassResult()
        #: Failed operations, as ``"Type: message"``.
        self.errors: list[str] = []
        #: Known program shortfalls seen, which do not fail the run.
        self.notes: list[str] = []
        #: What failed the output checks, if anything did.
        self.wrong = ""

    def run(self, label: str, ops: int, fn, *args):
        res = self.result
        res.attempted += ops
        t0 = time.process_time()
        if self.profiler is not None:
            self.profiler.enable()
        try:
            return fn(*args)
        except CheckError:
            raise
        except Exception as exc:  # a failed operation is counted, not fatal
            res.failed += ops
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if self.profiler is not None:
                self.profiler.disable()
            res.cpu[label] = time.process_time() - t0

    def add_counts(self, snapshot: dict, keys=REGISTRY_COUNTS) -> None:
        counts = self.result.counts
        for key in keys:
            counts[key] = counts.get(key, 0) + snapshot.get(key, 0)


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _plan_counts(stats: dict) -> dict:
    return {f"plan_cache.{key}": stats[key]
            for key in ("builds", "hits", "misses")}


# -- sparse_rma ---------------------------------------------------------------

SPARSE_WINDOW = 128 * KiB
#: Epochs (window sweeps) per variant in one pass.
SPARSE_SWEEPS = 2
#: The access sizes of one sweep: 256 // k accesses of 8 B x k for
#: k = 1..32, so every size octave from 8 B to 256 B gets about the same
#: number of calls and, with a gap after each access, the sweep just fits
#: the window.  The seed draws the order of the accesses.
SPARSE_MIX = np.repeat(8 * np.arange(1, 33), 256 // np.arange(1, 33))
SPARSE_VARIANTS = (("put", True), ("get", True), ("put", False), ("get", False))


class SparseRma:
    """Fig. 9's sparse benchmark: stride-2 put/get sweeps over a window.

    Two ranks on two nodes each sweep their partner's 128 KiB window part;
    after each access a gap of the same size is left untouched.  A sweep
    mixes access sizes from 8 B to 256 B in an order drawn from the seed.
    Every pass runs put and get on shared (direct) and private (emulated)
    windows with the same sweeps.
    """

    name = "sparse_rma"
    #: Wall seconds of one pass on the reference machine.
    pass_seconds = 2.5

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 9])
        self.sweeps = []
        for _ in range(SPARSE_SWEEPS):
            sizes = rng.permutation(SPARSE_MIX)
            offsets = np.concatenate(([0], np.cumsum(2 * sizes)[:-1]))
            self.sweeps.append((offsets.tolist(), sizes.tolist()))
        self.window_init = rng.integers(0, 256, (2, SPARSE_WINDOW),
                                        dtype=np.uint8)
        self.origin = rng.integers(0, 256, (2, SPARSE_WINDOW), dtype=np.uint8)
        # Bytes each sweep writes, cumulatively, for the put shadows.
        self.written = []
        mask = np.zeros(SPARSE_WINDOW, dtype=bool)
        for offsets, sizes in self.sweeps:
            for off, n in zip(offsets, sizes):
                mask[off:off + n] = True
            self.written.append(mask.copy())
        self.calls_per_rank = sum(len(o) for o, _ in self.sweeps)

    def _program(self, op: str, shared: bool, log: dict):
        sweeps, init, origin = self.sweeps, self.window_init, self.origin

        def program(ctx):
            comm = ctx.comm
            rank = comm.rank
            partner = (rank + 1) % comm.size
            win = yield from comm.win_create(SPARSE_WINDOW, shared=shared)
            win.local_view()[:] = init[rank]
            src = origin[rank]
            yield from win.fence()
            for epoch, (offsets, sizes) in enumerate(sweeps):
                t0 = ctx.now
                got = []
                if op == "put":
                    for off, n in zip(offsets, sizes):
                        yield from win.put(src[off:off + n], partner, off)
                else:
                    for off, n in zip(offsets, sizes):
                        data = yield from win.get(n, partner, off)
                        got.append(data)
                yield from win.fence()
                log[rank, epoch] = (ctx.now - t0, win.local_view().copy()
                                    if op == "put" else got)

        return program

    def _variant(self, op: str, shared: bool, log: dict):
        cluster = Cluster(n_nodes=2)
        cluster.run(self._program(op, shared, log))
        return cluster

    def warm_up(self) -> None:
        offsets, sizes = self.sweeps[0]

        def program(ctx):
            win = yield from ctx.comm.win_create(SPARSE_WINDOW, shared=True)
            yield from win.fence()
            off, n = offsets[0], sizes[0]
            yield from win.put(self.origin[ctx.rank][off:off + n],
                               (ctx.rank + 1) % 2, off)
            yield from win.fence()

        Cluster(n_nodes=2).run(program)

    def run_pass(self, meter: Meter) -> None:
        peak = {}  # best epoch bandwidth (B/us) per variant
        for op, shared in SPARSE_VARIANTS:
            log: dict = {}
            label = f"{op}-{'shared' if shared else 'private'}"
            cluster = meter.run(label, 2 * self.calls_per_rank, self._variant,
                                op, shared, log)
            if cluster is None:
                continue
            meter.add_counts(cluster.metrics.snapshot())
            bandwidths = []
            for epoch, (offsets, sizes) in enumerate(self.sweeps):
                elapsed, _ = log[0, epoch]
                meter.result.sim_us += elapsed
                bandwidths.append(sum(sizes) / elapsed)
                self._verify(op, label, epoch, log)
            peak[label] = max(bandwidths)
        if len(peak) == len(SPARSE_VARIANTS):
            put = peak["put-shared"]
            _check(put > peak["get-shared"] and put > peak["put-private"],
                   f"sparse_rma: put-shared peak bandwidth {put:.4f} B/us "
                   f"does not exceed get-shared and put-private {peak}")
        meter.result.counts.update(_plan_counts(plan_cache_stats()))

    def _verify(self, op: str, label: str, epoch: int, log: dict) -> None:
        offsets, sizes = self.sweeps[epoch]
        for rank in (0, 1):
            partner = (rank + 1) % 2
            _, seen = log[rank, epoch]
            if op == "put":
                # rank's window is written by its only origin, the partner.
                want = np.where(self.written[epoch], self.origin[partner],
                                self.window_init[rank])
                _check(np.array_equal(seen, want),
                       f"sparse_rma {label}: rank {rank} window differs from "
                       f"its shadow after epoch {epoch}")
            else:
                target = self.window_init[partner]
                for off, n, data in zip(offsets, sizes, seen):
                    got = np.asarray(data, dtype=np.uint8).reshape(-1)
                    _check(np.array_equal(got, target[off:off + n]),
                           f"sparse_rma {label}: rank {rank} get of {n} B at "
                           f"{off} returned other bytes than the target's")


# -- noncontig_pack -----------------------------------------------------------

NONCONTIG_TOTAL = 256 * KiB
NONCONTIG_BLOCKS = (8, 16, 32, 64, 128, 256, 512,
                    1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB, 128 * KiB)
#: Inter-node transfers cross one 8-node ringlet; the receiver sits a
#: seeded number of hops downstream of the sender.
NONCONTIG_RING = 8


class NoncontigPack:
    """Fig. 7's sweep of 256 KiB single-strided ``Vector`` sends.

    Block sizes from 8 B to 128 KiB with stride twice the block; generic
    and ``direct_pack_ff`` each inter-node (SCI) and intra-node (shared
    memory), plus the contiguous reference at both localities.  The
    datatypes are built and committed during set-up.
    """

    name = "noncontig_pack"
    #: Wall seconds of one pass on the reference machine.
    pass_seconds = 0.35

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 7])
        self.hops = int(rng.integers(1, NONCONTIG_RING))
        self.types = {}
        for block in NONCONTIG_BLOCKS:
            doubles = block // 8
            self.types[block] = Vector(NONCONTIG_TOTAL // block, doubles,
                                       2 * doubles, DOUBLE).commit()
        self.send_data = rng.integers(0, 256, 2 * NONCONTIG_TOTAL,
                                      dtype=np.uint8)
        self.recv_canvas = rng.integers(0, 256, 2 * NONCONTIG_TOTAL,
                                        dtype=np.uint8)
        self.cells = [(block, mode, inter)
                      for block in NONCONTIG_BLOCKS
                      for mode in (NonContigMode.GENERIC, NonContigMode.DIRECT)
                      for inter in (True, False)]
        self.cells += [(None, "contiguous", inter) for inter in (True, False)]

    def _transfer(self, block, mode: str, inter: bool, out: dict):
        dtype = self.types.get(block)
        span = dtype.extent if dtype is not None else NONCONTIG_TOTAL
        protocol = ProtocolConfig(
            noncontig_mode=mode if dtype is not None else NonContigMode.DIRECT)
        if inter:
            cluster = Cluster(n_nodes=NONCONTIG_RING, protocol=protocol)
            dest = self.hops
        else:
            cluster = Cluster(n_nodes=1, procs_per_node=2, protocol=protocol)
            dest = 1
        typed = {} if dtype is None else {"datatype": dtype, "count": 1}

        def sender(ctx):
            buf = ctx.alloc(span)
            buf.write(self.send_data[:span])
            yield from ctx.comm.send(buf, dest=dest, tag=0, **typed)

        def receiver(ctx):
            buf = ctx.alloc(span)
            buf.write(self.recv_canvas[:span])
            yield from ctx.comm.recv(buf, source=0, tag=0, **typed)
            out["recv"] = buf.read().copy()

        out["elapsed"] = cluster.run_on_ranks({0: sender, dest: receiver}).elapsed
        return cluster

    def warm_up(self) -> None:
        self._transfer(NONCONTIG_BLOCKS[0], NonContigMode.DIRECT, True, {})

    def run_pass(self, meter: Meter) -> None:
        bandwidth = {}  # B/us per (block, mode, inter)
        for block, mode, inter in self.cells:
            out: dict = {}
            label = f"{mode}.{block}.{'inter' if inter else 'intra'}"
            cluster = meter.run(label, 1, self._transfer, block, mode, inter,
                                out)
            if cluster is None:
                continue
            meter.add_counts(cluster.metrics.snapshot())
            meter.result.sim_us += out["elapsed"]
            bandwidth[block, mode, inter] = NONCONTIG_TOTAL / out["elapsed"]
            self._verify(block, out["recv"])
        self._claims(bandwidth)
        meter.result.counts.update(_plan_counts(plan_cache_stats()))

    def _verify(self, block, recv: np.ndarray) -> None:
        if block is None:
            want = self.send_data[:NONCONTIG_TOTAL]
        else:
            span = self.types[block].extent
            want = self.recv_canvas[:span].copy()
            sent = self.send_data[:span]
            nblocks = NONCONTIG_TOTAL // block
            # block i occupies [2*i*block, 2*i*block + block)
            sel = np.lib.stride_tricks.as_strided(
                want, shape=(nblocks, block), strides=(2 * block, 1))
            sel[:] = np.lib.stride_tricks.as_strided(
                sent, shape=(nblocks, block), strides=(2 * block, 1))
        _check(np.array_equal(recv, want),
               f"noncontig_pack: block {block} receive buffer differs from "
               "the strided view of the sender's data")

    @staticmethod
    def _claims(bw: dict) -> None:
        generic, direct = NonContigMode.GENERIC, NonContigMode.DIRECT
        if (8, generic, True) in bw and (8, direct, True) in bw:
            _check(bw[8, generic, True] > bw[8, direct, True],
                   "noncontig_pack: generic does not beat direct_pack_ff "
                   "inter-node at 8-B blocks (Fig. 7)")
        for (block, mode, inter), value in bw.items():
            if mode == direct and block >= 64 and (block, generic, inter) in bw:
                _check(value > bw[block, generic, inter],
                       f"noncontig_pack: direct_pack_ff does not lead generic "
                       f"at {block}-B blocks (inter={inter}, Fig. 7)")


# -- allreduce_scale ----------------------------------------------------------

ALLREDUCE_NODES = (64, 128, 256)
ALLREDUCE_TOPOLOGIES = ("ring", "ring_of_rings", "fat_tree")
#: 64 KiB of doubles, trimmed by a seeded 0..63 elements.
ALLREDUCE_COUNT = 64 * KiB // 8


class AllreduceScale:
    """A ~64 KiB ``DOUBLE`` sum allreduce on three topologies x three sizes.

    Inputs are seeded integers stored as doubles, so every partial sum is
    exact and the result must equal numpy's sum whatever the reduction
    order.
    """

    name = "allreduce_scale"
    #: Wall seconds of one pass on the reference machine.
    pass_seconds = 7.0

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 5])
        self.count = ALLREDUCE_COUNT - int(rng.integers(0, 64))
        self.inputs, self.expected = {}, {}
        for n in ALLREDUCE_NODES:
            ints = rng.integers(-2**20, 2**20, (n, self.count))
            self.inputs[n] = ints.astype(np.float64)
            self.expected[n] = ints.sum(axis=0).astype(np.float64)
        self.cells = [(n, topo) for n in ALLREDUCE_NODES
                      for topo in ALLREDUCE_TOPOLOGIES]

    def _allreduce(self, n: int, topo: str):
        inputs, count = self.inputs[n], self.count

        def program(ctx):
            comm = ctx.comm
            send = ctx.alloc(8 * count)
            recv = ctx.alloc(8 * count)
            send.as_array(np.float64)[:] = inputs[comm.rank]
            yield from comm.allreduce(send, recv, op="sum", datatype=DOUBLE,
                                      count=count)
            return recv

        cluster = Cluster(n_nodes=n, topology=topology_from_name(topo, n))
        return cluster, cluster.run(program)

    def warm_up(self) -> None:
        self._allreduce(ALLREDUCE_NODES[0], ALLREDUCE_TOPOLOGIES[-1])

    def run_pass(self, meter: Meter) -> None:
        for n, topo in self.cells:
            self._cell(meter, n, topo)
            gc.collect()  # free this cluster before the next, larger one
        meter.result.counts.update(_plan_counts(plan_cache_stats()))

    def _cell(self, meter: Meter, n: int, topo: str) -> None:
        label = f"n{n}.{topo}"
        done = meter.run(label, 1, self._allreduce, n, topo)
        if done is None:
            return
        cluster, run = done
        snapshot = cluster.metrics.snapshot()
        meter.add_counts(snapshot)
        meter.result.sim_us += run.elapsed
        meter.result.events[label] = snapshot["sim.events"]
        want = self.expected[n]
        for rank, recv in enumerate(run.results):
            _check(np.array_equal(recv.as_array(np.float64), want),
                   f"allreduce_scale: rank {rank} of {n} on {topo} differs "
                   "from numpy's sum of the inputs")


# -- scenario_matrix ----------------------------------------------------------

#: The 14 shipped scenario cells (scenario, faults).
SCENARIO_CELLS = tuple(
    (name, faults)
    for name in ("colocation", "colocation_rings", "graph", "kv_failover",
                 "qos_contention", "training", "work_stealing")
    for faults in (False, True))
#: Oracle items that are performance floors, not correctness properties,
#: and that the program misses on some seeds: kv_failover's
#: availability >= 0.95 and qos_contention's reserved isolation >= 0.9.
#: A miss is counted in ``scenario.floor_misses`` and reported; every other
#: item of the cell's oracle, and its invariants, must hold.
PERFORMANCE_FLOORS = {
    "kv_failover": ("checks", "availability_floor"),
    "qos_contention": ("qos_checks", "reserved_isolation"),
}
SCENARIO_COUNTS = REGISTRY_COUNTS + (
    "plan_cache.builds", "plan_cache.hits", "plan_cache.misses",
    "repl.writes", "repl.failovers")


def _floor_miss(name: str, app: dict) -> bool:
    """Whether an unverified cell failed its performance floor only."""
    if name not in PERFORMANCE_FLOORS:
        return False
    key, floor = PERFORMANCE_FLOORS[name]
    checks = app[key]
    if checks[floor]["ok"] or not all(
            check["ok"] for item, check in checks.items() if item != floor):
        return False
    return name != "qos_contention" or (not app["bad_payloads"]
                                        and app["admission_denial"] is not None)


class ScenarioMatrix:
    """The scenario cells as ``run_scenario`` ships them, tracer attached."""

    name = "scenario_matrix"
    #: Wall seconds of one pass on the reference machine.
    pass_seconds = 1.5

    def __init__(self, seed: int):
        self.seed = seed

    def _cell(self, name: str, faults: bool):
        return run_scenario(name, seed=self.seed, faults=faults)

    def warm_up(self) -> None:
        self._cell(*SCENARIO_CELLS[0])

    def run_pass(self, meter: Meter) -> None:
        counts = meter.result.counts
        counts["scenario.floor_misses"] = 0
        for name, faults in SCENARIO_CELLS:
            cell = f"{name}/{'faulty' if faults else 'clean'}"
            run = meter.run(cell, 1, self._cell, name, faults)
            if run is None:
                continue
            report = run.report
            snapshot = report["metrics"]
            meter.add_counts(snapshot, SCENARIO_COUNTS)
            counts["trace.records"] = counts.get("trace.records", 0) \
                + len(run.tracer)
            counts["svc.read_fallbacks"] = counts.get("svc.read_fallbacks", 0) \
                + sum(v for k, v in snapshot.items()
                      if k.endswith(".read_fallbacks"))
            meter.result.sim_us += report["elapsed_us"]
            if not report["verified"] and _floor_miss(name, report["app"]):
                counts["scenario.floor_misses"] += 1
                floor = PERFORMANCE_FLOORS[name][1]
                meter.notes.append(f"{cell} seed {self.seed} missed its "
                                   f"performance floor {floor}")
            else:
                _check(report["verified"],
                       f"scenario_matrix: {cell} seed {self.seed} not verified")
            _check(report["invariants_ok"],
                   f"scenario_matrix: {cell} seed {self.seed} broke an "
                   "invariant")


WORKLOADS = {cls.name: cls for cls in
             (SparseRma, NoncontigPack, AllreduceScale, ScenarioMatrix)}


def build(name: str, seed: int):
    """The workload ``name`` with inputs made from ``seed``."""
    return WORKLOADS[name](seed)
