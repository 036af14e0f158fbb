"""NTP+NTP — the paper's covert channel (Section IV, Algorithm 1, Figs 6-7).

The sender transmits a "1" by prefetching its line ``ds`` into the target
LLC set (evicting the receiver's ``dr``, which sits in the eviction-candidate
way) and a "0" by staying idle.  The receiver prefetches ``dr`` and times the
prefetch: a slow prefetch (DRAM) means ``dr`` was evicted — bit 1; a fast one
(private-cache or LLC hit) means bit 0.  Because the receiver's prefetch both
measures the bit *and* reinstalls ``dr`` as the eviction candidate, a single
operation per party per bit suffices — the channel bypasses the LLC's 16-way
associativity and uses the set as if it were direct-mapped.

Because an in-flight line cannot be evicted, the sender's and receiver's
prefetches to the *same* set must be spaced apart; the paper (Figure 7)
pipelines two LLC sets so the parties touch different sets in each iteration.
Both the single-set and the pipelined variants are implemented here.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..cache.hierarchy import Level
from ..channel.sync import SlotClock
from ..errors import ChannelError
from ..sim.machine import Machine
from ..sim.process import (
    Clflush,
    Load,
    PrefetchNTA,
    Sleep,
    StreamClflush,
    StreamLoad,
    TimedPrefetchNTA,
    WaitUntil,
)
from ..sim.scheduler import Scheduler
from ..victims.noise import NoiseConfig, background_noise_program, make_noise_lines
from .common import ChannelResult, ChannelSetup, make_channel_setups
from .threshold import calibrate_prefetch_threshold

#: Cycles reserved before slot 0 for receiver-side channel preparation.
PREPARATION_BUDGET = 80_000


class NTPNTPChannel:
    """A configured NTP+NTP channel between two cores of one machine.

    ``maintenance_period``: every that-many slots, the receiver spends
    ``n_sets`` bit-free slots re-arming the target sets (flush + refill +
    walk + re-prefetch of ``dr``).  Third-party noise can leave a set
    "stuck" — a foreign age-3 line shields the receiver's line from the
    one-way competition — and errors would then cascade until the state is
    repaired.  Maintenance bounds such episodes, at ~2% raw-rate overhead
    plus some timing slack; enable it for long transmissions on busy
    machines (the paper's Section IV-B3 reliability discussion).  The
    default ``None`` runs the paper's lean Algorithm 1 protocol.
    """

    #: Auxiliary congruent lines per set used by the maintenance prefetch
    #: chain (each chain prefetch evicts the current — foreign — candidate).
    AUX_LINES = 5

    def __init__(
        self,
        machine: Machine,
        n_sets: int = 2,
        sender_core: int = 0,
        receiver_core: int = 1,
        noise_core: Optional[int] = 2,
        maintenance_period: Optional[int] = None,
        seed: int = 0,
    ):
        if sender_core == receiver_core:
            raise ChannelError("sender and receiver must run on different cores")
        if maintenance_period is not None and maintenance_period <= 2 * n_sets:
            raise ChannelError(
                f"maintenance_period must exceed {2 * n_sets}, got {maintenance_period}"
            )
        self.machine = machine
        self.n_sets = n_sets
        self.sender_core = sender_core
        self.receiver_core = receiver_core
        self.noise_core = noise_core
        self.maintenance_period = maintenance_period
        self._rng = random.Random(seed)
        self.setups: List[ChannelSetup] = make_channel_setups(machine, n_sets)
        mapping = machine.hierarchy.llc_mapping
        sender_space = machine.address_space("ntp-sender-aux")
        self._sender_aux: List[List[int]] = [
            sender_space.congruent_lines(
                mapping, setup.sender_line, self.AUX_LINES
            )
            for setup in self.setups
        ]
        self._sender_aux_index = [0] * n_sets
        self._prepared_noise: Optional[tuple] = None
        self._pending_noise: Optional[tuple] = None
        calibration = calibrate_prefetch_threshold(
            machine, machine.cores[receiver_core]
        )
        self.threshold = calibration.threshold

    def reseed(self, seed: int) -> None:
        """Reset per-transmission state to that of a freshly built channel.

        Warm-started trials restore the machine from a checkpoint and call
        this instead of re-running the constructor; both the transmit RNG
        and the aux-line rotation restart from their post-construction
        state, so a warm transmit is bit-identical to a cold one.  The
        setups, aux lines, and threshold are pure functions of the machine
        state the checkpoint restores, so they stay valid as built; so is a
        noise working set allocated by :meth:`prepare_noise` before the
        checkpoint, which is re-armed for the next transmit.
        """
        self._rng = random.Random(seed)
        self._sender_aux_index = [0] * self.n_sets
        self._pending_noise = self._prepared_noise

    def prepare_noise(self) -> None:
        """Allocate now the noise working set the next noisy transmit uses.

        A noisy transmit allocates its noise lines before anything else
        touches the page allocator or the machine RNG, so allocating them
        right after construction gives the same lines and the same machine
        state.  Warm-started sweeps do this in the shared prefix, so the
        prefix checkpoint holds the working set and no trial rebuilds it.
        Call it only when the next transmit has noise: the allocation draws
        from the machine RNG either way.
        """
        targets = [s.receiver_line for s in self.setups]
        self._prepared_noise = make_noise_lines(self.machine, targets)
        self._pending_noise = self._prepared_noise

    # -- slot schedule -------------------------------------------------------

    def _is_maintenance_slot(self, slot: int) -> Optional[int]:
        """The set re-armed in this slot, or None for a data slot."""
        if self.maintenance_period is None:
            return None
        offset = slot % self.maintenance_period
        if offset >= self.maintenance_period - self.n_sets:
            return (
                offset - (self.maintenance_period - self.n_sets)
            ) % self.n_sets
        return None

    def _data_slots(self, n_bits: int) -> List[int]:
        """Slot indices carrying bits, in transmission order."""
        slots: List[int] = []
        slot = 0
        while len(slots) < n_bits:
            if self._is_maintenance_slot(slot) is None:
                slots.append(slot)
            slot += 1
        return slots

    # -- programs ----------------------------------------------------------

    def _sender_program(self, bits: Sequence[int], clock: SlotClock):
        overhead = self.machine.config.sync.overhead_cycles
        for bit, slot in zip(bits, self._data_slots(len(bits))):
            yield WaitUntil(clock.edge(slot, phase=0.0))
            if bit not in (0, 1):
                raise ChannelError(f"bits must be 0 or 1, got {bit!r}")
            if bit:
                set_index = slot % self.n_sets
                line = self.setups[set_index].sender_line
                result = yield PrefetchNTA(line)
                if result.level is not Level.DRAM:
                    # The prefetch hit: ds was still resident, so nothing
                    # was evicted (third-party noise displaced the
                    # receiver's candidate earlier and a foreign age-3 line
                    # now shields it).  Reset: an auxiliary prefetch-miss
                    # evicts the shield (it is the current candidate), then
                    # ds is flushed and re-prefetched as a genuine miss.
                    # (A real sender learns its prefetch hit by timing it
                    # off the critical path.)
                    aux_pool = self._sender_aux[set_index]
                    aux = aux_pool[self._sender_aux_index[set_index]]
                    self._sender_aux_index[set_index] = (
                        self._sender_aux_index[set_index] + 1
                    ) % len(aux_pool)
                    yield Clflush(aux)
                    yield PrefetchNTA(aux)
                    yield Clflush(line)
                    yield PrefetchNTA(line)
            yield Sleep(overhead)
        return None

    def _maintenance_ops(self, set_index: int):
        """Re-arm one target set (same recipe as a Prime+Scope prep).

        Flush our 15 walk lines plus dr, refill the walk lines (their
        fills land in the holes, and any surplus evicts the relatively
        oldest lines — foreign noise), walk once so our lines are younger
        than any surviving foreigner, then prefetch dr: its fill ages the
        last foreign line to 3 first and evicts it, leaving dr the
        eviction candidate again.
        """
        setup = self.setups[set_index]
        walk_lines = setup.receiver_evset[:15]
        for line in [*walk_lines, setup.receiver_line]:
            yield StreamClflush(line)
        for line in walk_lines:
            yield StreamLoad(line)
        for line in walk_lines:
            yield StreamLoad(line)
        yield PrefetchNTA(setup.receiver_line)

    def _receiver_program(self, n_bits: int, clock: SlotClock):
        overhead = self.machine.config.sync.overhead_cycles
        # Channel preparation (footnote 4): make sure the target sets have
        # no empty ways, then install dr as each set's eviction candidate.
        for setup in self.setups:
            for _ in range(2):
                for line in setup.receiver_evset:
                    yield Load(line)
        for setup in self.setups:
            yield PrefetchNTA(setup.receiver_line)
        # With >= 2 pipelined sets the receiver reads a data slot's bit one
        # slot after the sender wrote it (Figure 7); with a single set both
        # parties share each slot and the phase offset provides spacing.
        slot_lag = 1 if self.n_sets > 1 else 0
        data_slots = self._data_slots(n_bits)
        measure_at = {slot + slot_lag: i for i, slot in enumerate(data_slots)}
        bits: List[int] = [0] * n_bits
        measurements: List[int] = [0] * n_bits
        last_slot = data_slots[-1] + slot_lag
        for slot in range(last_slot + 1):
            maintenance_set = self._is_maintenance_slot(slot)
            bit_index = measure_at.get(slot)
            if maintenance_set is None and bit_index is None:
                continue
            yield WaitUntil(clock.edge(slot, phase=0.0))
            if maintenance_set is not None:
                yield from self._maintenance_ops(maintenance_set)
            if bit_index is not None:
                arrival = yield WaitUntil(clock.edge(slot, phase=0.5))
                if arrival >= clock.slot_start(slot + 1):
                    # Too late for this slot (e.g. an interrupt inflated the
                    # previous measurement): measuring now would read the
                    # wrong epoch AND stay late forever.  Drop the bit and
                    # resynchronize — one loss instead of a cascade.
                    continue
                setup = self.setups[data_slots[bit_index] % self.n_sets]
                timed = yield TimedPrefetchNTA(setup.receiver_line)
                bits[bit_index] = 1 if timed.cycles > self.threshold else 0
                measurements[bit_index] = timed.cycles
                if maintenance_set is None:
                    # The per-iteration bookkeeping budget; in maintenance
                    # slots the re-arm loop absorbs it (and sleeping too
                    # would overrun the slot and cascade lateness).
                    yield Sleep(overhead)
        return bits, measurements

    # -- driver --------------------------------------------------------------

    def transmit(
        self,
        bits: Sequence[int],
        interval: int,
        noise: Optional[NoiseConfig] = None,
    ) -> ChannelResult:
        """Run one transmission and return the scored result."""
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
            "ntp-sender",
            self.sender_core,
            self._sender_program(bits, sender_clock),
            start_time=machine.clock,
        )
        receiver = scheduler.spawn(
            "ntp-receiver",
            self.receiver_core,
            self._receiver_program(len(bits), receiver_clock),
            start_time=machine.clock,
        )
        data_slots = self._data_slots(len(bits))
        total_slots = data_slots[-1] + 2
        worst_slot = max(
            interval,
            sync.overhead_cycles + machine.config.latency.dram + 600,
        )
        horizon = t0 + (total_slots + 4) * worst_slot
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
            # Maintenance slots carry no data, so the effective bit rate is
            # slightly below one bit per slot.
            bits_per_slot=len(bits) / total_slots,
            measurements=measurements,
        )


def run_ntp_ntp_channel(
    machine: Machine,
    message_bits: Sequence[int],
    interval: int = 1400,
    n_sets: int = 2,
    noise: Optional[NoiseConfig] = None,
    seed: int = 0,
) -> ChannelResult:
    """Convenience one-shot NTP+NTP transmission (fresh channel setup)."""
    channel = NTPNTPChannel(machine, n_sets=n_sets, seed=seed)
    return channel.transmit(message_bits, interval, noise=noise)
