"""Reference-second arithmetic of the host-speed probe."""

import time

import pytest

import hostspeed


def probe_with(samples, ticks=()):
    probe = hostspeed.HostProbe()
    probe.samples = list(samples)
    probe.ticks = list(ticks)
    return probe


def test_trimmed_mean_drops_the_slowest_tenth():
    durations = [1.0] * 9 + [100.0]
    assert hostspeed.trimmed_mean(durations) == 1.0
    assert hostspeed.trimmed_mean([3.0]) == 3.0


def test_reference_seconds_scale_by_the_probe_in_the_interval():
    ref = hostspeed.REFERENCE_S
    # Probes at half speed during [0, 10], at reference speed after.
    probe = probe_with([(t, 2 * ref) for t in range(11)]
                       + [(t, ref) for t in range(20, 31)])
    assert probe.speed(0, 10) == pytest.approx(0.5)
    assert probe.reference_seconds(0, 10) == pytest.approx(5.0)
    assert probe.reference_seconds(20, 30) == pytest.approx(10.0)


def test_interval_without_probe_takes_the_whole_run_speed():
    ref = hostspeed.REFERENCE_S
    probe = probe_with([(0.0, 2 * ref), (1.0, 2 * ref)])
    assert probe.speed(0.2, 0.8) is None
    assert probe.reference_seconds(0.2, 0.8) == pytest.approx(0.3)


def test_availability_is_the_unstolen_share_of_wanted_ticks():
    # Every second: 100 busy ticks, and 50 stolen during [10, 20].
    ticks, busy, stolen = [], 0, 0
    for t in range(31):
        ticks.append((float(t), busy, stolen))
        busy += 100
        stolen += 50 if 10 <= t < 20 else 0
    probe = probe_with([(float(t), hostspeed.REFERENCE_S) for t in range(31)],
                       ticks)
    assert probe.availability(0, 10) == pytest.approx(1.0)
    assert probe.availability(10, 20) == pytest.approx(2 / 3)
    assert probe.reference_seconds(10, 20) == pytest.approx(10 * 2 / 3)
    # A short interval is widened to a second about its middle.
    assert probe.availability(14.4, 14.6) == pytest.approx(2 / 3)
    assert probe.availability(9.9, 10.1) == pytest.approx(0.8)


def test_availability_without_tick_readings_is_one():
    probe = probe_with([(0.0, hostspeed.REFERENCE_S)])
    assert probe.availability(0, 10) == 1.0
    probe.ticks = [(5.0, 100, 10)]
    assert probe.availability(0, 10) == 1.0
    probe.ticks = [(0.0, 100, 10), (10.0, 100, 10)]
    assert probe.availability(0, 10) == 1.0


def test_cpu_ticks_reads_busy_and_steal(tmp_path):
    stat = tmp_path / "stat"
    stat.write_text("cpu  100 2 30 900 7 4 5 60 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
    assert hostspeed.cpu_ticks(str(stat)) == (141, 60)
    assert hostspeed.cpu_ticks(str(tmp_path / "missing")) is None
    stat.write_text("intr 1 2 3\n")
    assert hostspeed.cpu_ticks(str(stat)) is None


def test_probe_thread_samples_and_stops():
    probe = hostspeed.HostProbe(interval_s=0.001).start()
    while len(probe.samples) < 3:
        time.sleep(0.001)
    probe.stop()
    assert not probe._thread.is_alive()
    assert all(d > 0 for _, d in probe.samples)
