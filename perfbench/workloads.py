"""The workloads and everything they generate from the seed.

Both are closed loops sized for a 2-core host: one load process, at most 2
caller threads and 2 connections.  The program receives only the generated
inputs and fault specs.

``large``
    One caller makes protected round trips in-process: ``repro.plan(262144)``
    with the default ``opt-online+mem`` config on the fftlib backend, a
    forward ``execute(x)`` then ``inverse(X)``, the way a spectral filter
    does.  Inputs are 4 seeded U(-1, 1) complex vectors (the paper's input),
    4 MiB each, twice a 2 MiB per-core L2.  Chosen because the compiled
    stage programs and the fused encode/taps do most of the work: a kernel,
    in-place, inverse-folding or BLAS-policy change shows here first.  It
    is also the soft-error campaign: one round trip in 8 carries one bit
    flip in its forward transform (bit 50-62, a seeded element, real or
    imaginary part) at a site cycling over the 8 sites the optimized scheme
    covers, which sends it down the paper-exact detect/locate/correct path.
    Bypasses the server.
``serve``
    The ``repro serve --unix <sock> --warm 4096`` daemon with its defaults
    (window 0, max-batch 32, 1 worker) is driven by two independent
    closed-loop callers, each a thread with its own keep-alive
    ``repro.client.Client``, sleeping a seeded exponential think time (mean
    1 ms) after each reply.  Requests use n=4096 and the default config;
    one in 16 carries a bit flip, served on the scalar path.  Chosen
    because compute is under a tenth of a request: the rest is transport,
    framing, the asyncio loop, the batcher and the executor hop.
    Independent arrivals exercise both a coalesced batch and the batcher's
    idle-peer grace wait, where lockstep callers would show only the best
    case.  Bypasses the fused program's inverse and the in-process caller.

Faulty ops are reported apart: they count only toward ``recovery_p50_ms``,
so throughput and latency describe the fault-free traffic.

``stage2-input`` is not a fault site here: the optimized scheme visits it
before the stage-2 checksums are generated, and flips there can come back
as a wrong output with no detection.  That is a correctness question for
the program, not an input for a benchmark on which no op may fail.
"""

from __future__ import annotations

from dataclasses import dataclass

#: the sites the optimized scheme protects, in the order faulty ops cycle them
FAULT_SITES = (
    "input",
    "stage1-input",
    "stage1-compute",
    "twiddle-compute",
    "intermediate",
    "stage2-compute",
    "output",
    "checksum-compute",
)

#: bit flips strike the high mantissa and exponent bits of a float64
FLIP_BITS = (50, 63)

#: generated schedules (input order, faults, think times) cycle with this period
PERIOD = 1 << 15

# independent random streams drawn from one seed
_INPUTS, _FIRST, _ORDER, _FAULTS, _THINK = range(5)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    config: str
    #: an op is a forward transform followed by the inverse of its output
    round_trip: bool
    #: distinct seeded input vectors the ops cycle through
    inputs: int
    #: every ``fault_every``-th op carries one bit flip
    fault_every: int

    def fault_of(self, op: int):
        """The number of the fault op ``op`` carries, ``None`` when it carries none."""

        every = self.fault_every
        return op // every if op % every == every - 1 else None


WORKLOADS = {
    "large": Workload("large", 262144, "opt-online+mem", True, 4, 8),
    "serve": Workload("serve", 4096, "opt-online+mem", False, 16, 16),
}


def _rng(seed: int, stream: int, *more: int):
    import numpy as np

    return np.random.default_rng([seed, stream, *more])


def _uniform_complex(rng, n: int):
    """The paper's input: real and imaginary parts drawn from U(-1, 1)."""

    return rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)


def first_input(workload: Workload, seed: int):
    """The input of the set-up probe's first op."""

    return _uniform_complex(_rng(seed, _FIRST), workload.n)


def inputs(workload: Workload, seed: int) -> list:
    rng = _rng(seed, _INPUTS)
    return [_uniform_complex(rng, workload.n) for _ in range(workload.inputs)]


def input_order(workload: Workload, seed: int):
    """Which input each op of the main loop uses (cycled)."""

    return _rng(seed, _ORDER).integers(0, workload.inputs, PERIOD)


def think_times(seed: int, caller: int, mean_s: float = 1e-3):
    """One serve caller's seeded think times, in seconds (cycled)."""

    return _rng(seed, _THINK, caller).exponential(mean_s, PERIOD)


class FaultSchedule:
    """Seeded single bit flips: site, element, bit, real or imaginary part.

    Faulty op ``f`` strikes ``FAULT_SITES[f % 8]``; the element is reduced
    modulo the size of the array visited at that site.
    """

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, _FAULTS)
        self.elements = rng.integers(0, 1 << 31, PERIOD)
        self.bits = rng.integers(FLIP_BITS[0], FLIP_BITS[1], PERIOD)
        self.imaginary = rng.integers(0, 2, PERIOD).astype(bool)

    def site(self, f: int) -> str:
        return FAULT_SITES[f % len(FAULT_SITES)]

    def injector(self, f: int):
        """A live injector armed with faulty op ``f``'s single spec."""

        from repro import FaultInjector, FaultKind, FaultSite, FaultSpec

        i = f % PERIOD
        spec = FaultSpec(
            site=FaultSite(self.site(f)),
            element=int(self.elements[i]),
            kind=FaultKind.BIT_FLIP,
            bit=int(self.bits[i]),
            imaginary=bool(self.imaginary[i]),
        )
        return FaultInjector(specs=[spec])

    def inject_spec(self, f: int) -> dict:
        """Faulty op ``f`` as a daemon request's ``inject`` field (the wire
        format has no real/imaginary choice: the real part is struck)."""

        i = f % PERIOD
        return {
            "site": self.site(f),
            "kind": "bit-flip",
            "bit": int(self.bits[i]),
            "element": int(self.elements[i]),
        }
