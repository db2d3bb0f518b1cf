"""One cold pass over a key list in a fresh interpreter.

``run.py`` starts this script with ``src`` on PYTHONPATH, so every qwk memo
table starts empty.  Protocol, one line each way:

  worker -> ``ready``, as soon as ``import qwk`` is done (set-up ends here)
  parent -> a JSON request ``{"keys": [[index, check, parts, g], ...],
            "run_id": str, "trace_path": str or null}``; an empty line ends
            the worker without work (a set-up probe)
  worker -> a JSON result ``{"rows": [[index, ok, value, seconds, error], ...],
            "wall_s": float, "wall_ref_s": float or null, "calib_s": float,
            "peak_rss_kb": int, "layers": {...} or null}``

The speed of a shared host's CPU swings by half within seconds (a vCPU's
sibling thread is busy or idle), so an untraced pass also gauges the speed
it runs at: every ``CALIB_PERIOD_S`` a SIGALRM handler times a fixed
pure-Python loop (see ``SpeedSampler``).  ``wall_ref_s`` is the pass time
scaled to the speed at which that loop takes ``CALIB_REF_S``; ``wall_s`` is
the raw pass time, sampling included.  A traced pass takes no samples, so
its spans hold only qwk and trace work.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

import qwk
from qwk.algebra import rat_str
from qwk.correlators import correlator
from qwk.hurwitz import (Partition, aut_factor, factorization_count,
                         hurwitz_correlator, one_part_number)

SRC = Path(__file__).resolve().parent.parent / "src"
CALIB_PERIOD_S = 0.1
# calibration_loop's time on an idle core of a 2-vCPU Intel Xeon VM, Python 3.11.7
CALIB_REF_S = 0.0025
clock = time.perf_counter


def calibration_loop(n: int = 10000) -> int:
    """Fixed pure-Python work of the kind qwk does: dict updates keyed on
    small tuples and small-integer arithmetic."""
    table = {}
    acc = 0
    for i in range(n):
        k = (i & 63, i & 7)
        table[k] = table.get(k, 0) + acc
        acc = (acc * 31 + i) % 1000003
    return acc


class SpeedSampler:
    """Times ``calibration_loop`` at the start and then every
    ``CALIB_PERIOD_S`` (SIGALRM), as ``(start, loop seconds)`` samples."""

    def __init__(self):
        self.samples = []
        self.end = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        t = clock()
        calibration_loop()
        self.samples.append((t, clock() - t))
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CALIB_PERIOD_S, CALIB_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.end = clock()

    def calib_s(self) -> float:
        return sum(c for _, c in self.samples)

    def ref_seconds(self) -> float:
        """Time from the end of each sample's loop to the next sample (or the
        end), scaled by ``CALIB_REF_S`` over that sample's loop time."""
        ends = [t for t, _ in self.samples[1:]] + [self.end]
        return sum((end - t - c) * CALIB_REF_S / c
                   for (t, c), end in zip(self.samples, ends))


def check_routes(parts, g):
    value = correlator(parts, g)
    return value == hurwitz_correlator(parts, g), value


def check_hurwitz(parts, g):
    mu = Partition(parts)
    value = one_part_number(g, mu)
    return value == aut_factor(mu) * factorization_count(g, mu, cap=7), value


def main() -> int:
    if Path(qwk.__file__).resolve().parent != (SRC / "qwk").resolve():
        print(f"worker: imported qwk from {qwk.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    request = json.loads(line)
    checks = {"routes": check_routes, "hurwitz": check_hurwitz}
    tracer = None
    if request["trace_path"]:
        from tracer import KEY, Tracer
        tracer = Tracer(request["run_id"])
        tracer.install(globals())
        checks = {name: tracer.span(KEY, fn) for name, fn in checks.items()}

    rows = []
    sampler = SpeedSampler() if tracer is None else None
    start = clock()
    if sampler is not None:
        sampler.start()
    for index, check, parts, g in request["keys"]:
        if tracer is not None:
            tracer.key = index
        t0 = clock()
        try:
            ok, value = checks[check](tuple(parts), g)
        except Exception as exc:  # a key that raises fails; the pass goes on
            rows.append([index, False, None, clock() - t0, f"{type(exc).__name__}: {exc}"])
            continue
        seconds = clock() - t0
        rows.append([index, ok, rat_str(value), seconds, None])
    if sampler is not None:
        sampler.stop()
    wall_s = clock() - start

    layers = None
    if tracer is not None:
        layers = tracer.summary(wall_s)
        tracer.write(request["trace_path"])
    print(json.dumps({"rows": rows, "wall_s": wall_s, "layers": layers,
                      "wall_ref_s": sampler.ref_seconds() if sampler else None,
                      "calib_s": sampler.calib_s() if sampler else 0.0,
                      "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
