"""Prime+Probe — the baseline conflict-based covert channel.

Implemented exactly as the paper's comparison point (Section IV-B2): the
sender transmits a bit by loading (or not loading) a single line ``ds``; the
receiver primes the target LLC set with ``w`` congruent lines and then
probes them with a timed pointer chase — a slow probe means one of its lines
was evicted by ``ds``, i.e. bit 1.  Two LLC sets carry two bits per
iteration ("we just use the two sets to transfer two bits in each
iteration").

Because Quad-age LRU inserts ``ds`` at age 2, a single traversal of the
eviction set does not reliably evict it; the receiver therefore repairs and
re-primes with extra traversals after every probe, which is exactly the
per-iteration cost (≥ w+1 references per bit) the NTP+NTP channel avoids.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..channel.sync import SlotClock
from ..errors import ChannelError
from ..sim.machine import Machine
from ..sim.process import Clflush, Load, ReadTSC, Sleep, WaitUntil
from ..sim.scheduler import Scheduler
from ..victims.noise import NoiseConfig, background_noise_program, make_noise_lines
from .common import ChannelResult, ChannelSetup, make_channel_setups
from .threshold import robust_threshold_from_samples

PREPARATION_BUDGET = 500_000
#: Probe calibration sample count per set.
CALIBRATION_SAMPLES = 24


class PrimeProbeChannel:
    """A configured Prime+Probe channel between two cores of one machine."""

    def __init__(
        self,
        machine: Machine,
        n_sets: int = 2,
        sender_core: int = 0,
        receiver_core: int = 1,
        noise_core: Optional[int] = 2,
        repair_rounds: int = 2,
        seed: int = 0,
    ):
        if sender_core == receiver_core:
            raise ChannelError("sender and receiver must run on different cores")
        if repair_rounds < 1:
            raise ChannelError(f"repair_rounds must be >= 1, got {repair_rounds}")
        self.machine = machine
        self.n_sets = n_sets
        self.sender_core = sender_core
        self.receiver_core = receiver_core
        self.noise_core = noise_core
        self.repair_rounds = repair_rounds
        self._rng = random.Random(seed)
        self.setups: List[ChannelSetup] = make_channel_setups(machine, n_sets)
        self.thresholds: List[int] = []
        self._prepared_noise: Optional[tuple] = None
        self._pending_noise: Optional[tuple] = None

    def reseed(self, seed: int) -> None:
        """Reset per-transmission state to that of a freshly built channel
        (see :meth:`NTPNTPChannel.reseed <repro.attacks.ntp_ntp.NTPNTPChannel.reseed>`)."""
        self._rng = random.Random(seed)
        self.thresholds = []
        self._pending_noise = self._prepared_noise

    def prepare_noise(self) -> None:
        """Allocate now the noise working set the next noisy transmit uses
        (see :meth:`NTPNTPChannel.prepare_noise <repro.attacks.ntp_ntp.NTPNTPChannel.prepare_noise>`)."""
        targets = [s.receiver_line for s in self.setups]
        self._prepared_noise = make_noise_lines(self.machine, targets)
        self._pending_noise = self._prepared_noise

    # -- receiver building blocks -----------------------------------------

    def _walk(self, lines: Sequence[int]):
        """One pointer-chased traversal of an eviction set."""
        chase = self.machine.config.latency.chase_overhead
        for line in lines:
            yield Load(line)
            yield Sleep(chase)

    def _timed_probe(self, lines: Sequence[int]):
        """Timed traversal; returns elapsed cycles via the final yield."""
        start = yield ReadTSC()
        yield from self._walk(lines)
        end = yield ReadTSC()
        return end - start

    def _calibrate(self, setup: ChannelSetup):
        """Measure clean-probe vs one-miss-probe timing for one set."""
        fast: List[int] = []
        slow: List[int] = []
        for _ in range(CALIBRATION_SAMPLES):
            yield from self._walk(setup.receiver_evset)
            fast.append((yield from self._timed_probe(setup.receiver_evset)))
            yield Clflush(setup.receiver_evset[0])
            slow.append((yield from self._timed_probe(setup.receiver_evset)))
            yield from self._walk(setup.receiver_evset)
        return robust_threshold_from_samples(fast, slow)

    # -- programs ----------------------------------------------------------

    def _sender_program(self, bits: Sequence[int], clock: SlotClock):
        overhead = self.machine.config.sync.overhead_cycles
        n_slots = (len(bits) + self.n_sets - 1) // self.n_sets
        for slot in range(n_slots):
            yield WaitUntil(clock.edge(slot, phase=0.0))
            for k in range(self.n_sets):
                index = slot * self.n_sets + k
                if index >= len(bits):
                    break
                if bits[index] not in (0, 1):
                    raise ChannelError(f"bits must be 0 or 1, got {bits[index]!r}")
                if bits[index]:
                    yield Load(self.setups[k].sender_line)
            yield Sleep(overhead)
        return None

    def _receiver_program(self, n_bits: int, clock: SlotClock):
        overhead = self.machine.config.sync.overhead_cycles
        # Preparation: prime every set, then calibrate probe thresholds.
        thresholds: List[int] = []
        for setup in self.setups:
            for _ in range(3):
                yield from self._walk(setup.receiver_evset)
            thresholds.append((yield from self._calibrate(setup)))
        self.thresholds = thresholds
        bits: List[int] = []
        measurements: List[int] = []
        n_slots = (n_bits + self.n_sets - 1) // self.n_sets
        for slot in range(n_slots):
            # Probe shortly after the sender's slot edge so the remainder of
            # the slot is available for the expensive repair/re-prime step.
            yield WaitUntil(clock.edge(slot, phase=0.1))
            for k in range(self.n_sets):
                index = slot * self.n_sets + k
                if index >= n_bits:
                    break
                setup = self.setups[k]
                elapsed = yield from self._timed_probe(setup.receiver_evset)
                bits.append(1 if elapsed > thresholds[k] else 0)
                measurements.append(elapsed)
                # Re-prime: age the sender's line out and restore occupancy.
                for _ in range(self.repair_rounds):
                    yield from self._walk(setup.receiver_evset)
            yield Sleep(overhead)
        return bits, measurements

    # -- driver --------------------------------------------------------------

    def transmit(
        self,
        bits: Sequence[int],
        interval: int,
        noise: Optional[NoiseConfig] = None,
    ) -> ChannelResult:
        """Run one transmission; ``interval`` covers one slot (n_sets bits)."""
        bits = list(bits)
        if not bits:
            raise ChannelError("cannot transmit an empty message")
        machine = self.machine
        sync = machine.config.sync
        t0 = machine.clock + PREPARATION_BUDGET
        sender_clock = SlotClock(
            t0, interval, sync.jitter_sigma, random.Random(self._rng.getrandbits(32))
        )
        receiver_clock = SlotClock(
            t0, interval, sync.jitter_sigma, random.Random(self._rng.getrandbits(32))
        )
        scheduler = Scheduler(machine)
        scheduler.spawn(
            "pp-sender",
            self.sender_core,
            self._sender_program(bits, sender_clock),
            start_time=machine.clock,
        )
        receiver = scheduler.spawn(
            "pp-receiver",
            self.receiver_core,
            self._receiver_program(len(bits), receiver_clock),
            start_time=machine.clock,
        )
        lat = machine.config.latency
        per_set_work = (
            (1 + self.repair_rounds)
            * len(self.setups[0].receiver_evset)
            * (lat.llc_hit + lat.chase_overhead + 40)
        )
        worst_slot = max(
            interval, sync.overhead_cycles + self.n_sets * per_set_work + 600
        )
        n_slots = (len(bits) + self.n_sets - 1) // self.n_sets
        horizon = t0 + (n_slots + 4) * worst_slot
        prepared, self._pending_noise = self._pending_noise, None
        if noise is not None and self.noise_core is not None:
            if prepared is None:
                targets = [s.receiver_line for s in self.setups]
                prepared = make_noise_lines(machine, targets)
            congruent, background = prepared
            scheduler.spawn(
                "noise",
                self.noise_core,
                background_noise_program(
                    congruent,
                    background,
                    noise,
                    random.Random(self._rng.getrandbits(32)),
                ),
                start_time=machine.clock,
            )
        scheduler.run(until=horizon)
        if receiver.result is None:
            raise ChannelError(
                "receiver did not finish within the simulation horizon"
            )
        received, measurements = receiver.result
        return ChannelResult(
            sent_bits=bits,
            received_bits=received,
            interval=interval,
            frequency_hz=machine.config.frequency_hz,
            bits_per_slot=self.n_sets,
            measurements=measurements,
        )


def run_prime_probe_channel(
    machine: Machine,
    message_bits: Sequence[int],
    interval: int = 10000,
    n_sets: int = 2,
    noise: Optional[NoiseConfig] = None,
    seed: int = 0,
) -> ChannelResult:
    """Convenience one-shot Prime+Probe transmission (fresh setup)."""
    channel = PrimeProbeChannel(machine, n_sets=n_sets, seed=seed)
    return channel.transmit(message_bits, interval, noise=noise)
