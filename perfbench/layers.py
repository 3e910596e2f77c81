"""Host self time per layer, from a ``cProfile`` run of the program.

Each profiled function belongs to the layer of its module path under
``repro/`` (``repro/mpi/osc/window.py`` -> ``mpi.osc``).  Code outside the
package — numpy, the standard library, C built-ins such as ``heapq`` —
has its self time split over its callers by the callers' share of it, so
``heapq.heappush`` called from the engine counts as ``sim``.  The
benchmark's own rank programs are the ``bench`` layer; what no layer
reaches is ``python``.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

import repro

__all__ = ["LAYERS", "layer_of", "layer_self_times", "call_counts"]

#: Package directories that are layers of their own, longest first.
_SUBLAYERS = (
    "hardware/sci", "mpi/pt2pt", "mpi/transport", "mpi/osc", "mpi/coll",
    "mpi/datatypes", "mpi/flatten", "svc/repl",
)
_TOP = ("sim", "hardware", "smi", "memlib", "cluster", "mpi", "obs", "svc",
        "qos", "scenarios")

#: Every layer, in report order.
LAYERS = (
    "sim", "hardware.sci", "hardware", "smi", "memlib", "cluster",
    "mpi", "mpi.pt2pt", "mpi.transport", "mpi.osc", "mpi.coll",
    "mpi.datatypes", "mpi.flatten", "obs", "svc", "svc.repl", "qos",
    "scenarios", "repro.other", "bench", "python",
)


_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename: str):
    """The layer of a source file, or ``None`` for code outside ``repro``."""
    if filename.startswith(_BENCH_DIR):
        return "bench"
    if not filename.startswith(_REPRO_DIR):
        return None
    rel = filename[len(_REPRO_DIR):].replace(os.sep, "/")
    for sub in _SUBLAYERS:
        if rel.startswith(sub + "/"):
            return sub.replace("/", ".")
    top = rel.split("/", 1)[0]
    if top in _TOP:
        return top
    if rel == "trace.py":
        return "obs"
    return "repro.other"


def layer_self_times(stats: pstats.Stats) -> dict[str, float]:
    """Self seconds per layer; the values sum to the profile's total."""
    table = stats.stats
    shares: dict = {}

    def share(func, active: frozenset) -> dict:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {c: edge[2] for c, edge in callers.items() if c not in active}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: edge[1] for c, edge in callers.items()
                       if c not in active}
            total = sum(weights.values())
        if total <= 0:
            return {"python": 1.0}
        out: dict = defaultdict(float)
        inner = active | {func}
        for caller, weight in weights.items():
            for layer, part in share(caller, inner).items():
                out[layer] += part * weight / total
        shares[func] = dict(out)
        return shares[func]

    seconds = {layer: 0.0 for layer in LAYERS}
    for func, (_, _, tottime, _, _) in table.items():
        for layer, part in share(func, frozenset()).items():
            seconds[layer] += tottime * part
    return seconds


def call_counts(stats: pstats.Stats, module_suffix: str, name: str) -> int:
    """Total calls of every function ``name`` defined in a file ending
    with ``module_suffix`` (e.g. all ``Topology.route`` implementations)."""
    return sum(entry[1] for (filename, _, func), entry in stats.stats.items()
               if func == name
               and filename.replace("\\", "/").endswith(module_suffix))
