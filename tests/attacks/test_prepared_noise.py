"""A noise working set allocated ahead of transmit changes nothing.

Warm-started capacity sweeps allocate the channel's noise lines in the
shared prefix (``prepare_noise``) instead of at the start of every noisy
transmit.  That is only sound if the early allocation yields the same
lines, the same transmission and the same machine state afterwards, and if
the prepared set serves one transmit only unless ``reseed`` re-arms it.
"""

import pytest

from repro.attacks.ntp_ntp import NTPNTPChannel
from repro.attacks.prime_probe import PrimeProbeChannel
from repro.sim.machine import Machine
from repro.victims.noise import NoiseConfig

NOISE = NoiseConfig(gap_cycles=600, target_bias=0.05)
BITS = [1, 0, 1, 1, 0, 0, 1, 0] * 2
CHANNELS = [(NTPNTPChannel, 1800), (PrimeProbeChannel, 12000)]


def _transmissions(channel_cls, interval, prepare, n=2):
    machine = Machine.skylake(seed=4)
    channel = channel_cls(machine, seed=9)
    if prepare:
        channel.prepare_noise()
    outcomes = []
    for _ in range(n):
        result = channel.transmit(BITS, interval, noise=NOISE)
        outcomes.append((result.received_bits, result.measurements))
    return outcomes, machine.checkpoint().digest()


@pytest.mark.parametrize("channel_cls,interval", CHANNELS)
def test_prepared_noise_matches_transmit_time_allocation(channel_cls, interval):
    # The second transmit allocates a fresh working set on both sides: the
    # prepared one serves a single transmit.
    assert _transmissions(channel_cls, interval, prepare=True) \
        == _transmissions(channel_cls, interval, prepare=False)


@pytest.mark.parametrize("channel_cls,interval", CHANNELS)
def test_reseed_on_restored_machine_reuses_prepared_noise(channel_cls, interval):
    machine = Machine.skylake(seed=4)
    channel = channel_cls(machine, seed=9)
    channel.prepare_noise()
    checkpoint = machine.checkpoint()
    first = channel.transmit(BITS, interval, noise=NOISE)
    machine.restore(checkpoint)
    channel.reseed(9)
    frames = machine.allocator.allocated_count
    again = channel.transmit(BITS, interval, noise=NOISE)
    assert machine.allocator.allocated_count == frames  # nothing allocated
    assert (again.received_bits, again.measurements) \
        == (first.received_bits, first.measurements)
