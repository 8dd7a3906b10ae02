"""Tests for the population-scale fleet simulator (repro.sim.population).

Covers the arrival process (diurnal shape, flash-crowd burst mass,
device-mix proportions — seeded statistical sanity), correlated fault
storms (determinism, masking, SLO degradation), conservation and
shedding invariants, and the headline robustness property: a run
SIGKILLed mid-sweep resumes from its last atomic checkpoint to fleet
aggregates bit-identical to an uninterrupted run.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.faults.storm import (
    StormEvent,
    StormKind,
    StormSchedule,
    StormSpec,
)
from repro.runner import ConfigMismatchError
from repro.sim.population import (
    ArrivalModel,
    CohortSpec,
    PopulationConfig,
    PopulationSim,
    ServiceBackend,
    SolverBackend,
    default_cohorts,
)


def small_config(**overrides) -> PopulationConfig:
    defaults = dict(
        sessions=8_000,
        duration_hours=0.5,
        tick_seconds=2.0,
        seed=1,
        table_points=12,
    )
    defaults.update(overrides)
    return PopulationConfig(**defaults)


# ----------------------------------------------------------------------
# arrival process
# ----------------------------------------------------------------------
class TestArrivalModel:
    def test_expected_mass_matches_sessions(self):
        cfg = small_config()
        model = ArrivalModel(cfg)
        assert model.expected.sum() == pytest.approx(cfg.sessions)
        assert (model.expected >= 0).all()

    def test_diurnal_shape_trough_to_peak(self):
        # One full cycle over the run: trough at the start, peak mid-run.
        cfg = small_config(flash_crowds=0, diurnal_amplitude=0.6)
        model = ArrivalModel(cfg)
        n = len(model.expected)
        start = model.expected[: n // 10].mean()
        middle = model.expected[4 * n // 10 : 6 * n // 10].mean()
        assert middle > 2.0 * start

    def test_flat_when_amplitude_zero(self):
        cfg = small_config(flash_crowds=0, diurnal_amplitude=0.0)
        model = ArrivalModel(cfg)
        assert model.expected.std() < 1e-9

    def test_flash_crowd_burst_mass(self):
        cfg = small_config(flash_crowds=3, flash_crowd_mass=0.3)
        model = ArrivalModel(cfg)
        assert len(model.burst_windows) == 3
        # Windows carry their dedicated mass plus the base curve under them.
        assert model.burst_fraction() >= 0.3

    def test_no_bursts_without_flash_crowds(self):
        model = ArrivalModel(small_config(flash_crowds=0))
        assert model.burst_windows == []
        assert model.burst_fraction() == 0.0

    def test_burst_windows_deterministic_per_seed(self):
        cfg = small_config(seed=9)
        assert (
            ArrivalModel(cfg).burst_windows == ArrivalModel(cfg).burst_windows
        )
        other = small_config(seed=10)
        assert ArrivalModel(cfg).burst_windows != ArrivalModel(other).burst_windows

    def test_device_mix_proportions(self):
        cfg = small_config(seed=4)
        sim = PopulationSim(cfg)
        sim.run()
        arrivals = sim.agg.counters["arrivals"].astype(float)
        observed = arrivals / arrivals.sum()
        weights = np.asarray([c.weight for c in sim.cohorts])
        expected = weights / weights.sum()
        assert np.abs(observed - expected).max() < 0.03

    def test_default_cohorts_are_fig13_families(self):
        names = [c.name for c in default_cohorts()]
        assert names == ["html5", "smart-tv", "set-top-box"]

    def test_cohort_validation(self):
        with pytest.raises(ValueError):
            CohortSpec("x", weight=0.0, mean_mbps=10.0, rsd=0.5)
        with pytest.raises(ValueError):
            CohortSpec("x", weight=1.0, mean_mbps=-1.0, rsd=0.5)


class TestConfigValidation:
    @pytest.mark.parametrize("overrides", [
        {"sessions": 0},
        {"tick_seconds": 0.0},
        {"diurnal_amplitude": 1.5},
        {"flash_crowd_mass": 1.0},
        {"ar_coefficient": 1.0},
        {"rebuffer_slo": 2.0},
        {"storm_intensity": -1.0},
    ])
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)


# ----------------------------------------------------------------------
# correlated fault storms
# ----------------------------------------------------------------------
class TestStorms:
    def test_generation_is_deterministic(self):
        a = StormSchedule.generate(3600.0, regions=8, cdns=3,
                                   intensity=4.0, seed=7)
        b = StormSchedule.generate(3600.0, regions=8, cdns=3,
                                   intensity=4.0, seed=7)
        assert [
            (e.kind, e.start, e.duration, e.targets, e.magnitude)
            for e in a.events
        ] == [
            (e.kind, e.start, e.duration, e.targets, e.magnitude)
            for e in b.events
        ]

    def test_zero_intensity_is_empty(self):
        assert len(StormSchedule.generate(3600.0, 8, 3, intensity=0.0)) == 0

    def test_regional_collapse_masks_only_targets(self):
        event = StormEvent(StormKind.REGIONAL_COLLAPSE, start=0.0,
                           duration=60.0, targets=(1,), magnitude=0.1)
        schedule = StormSchedule([event])
        regions = np.array([0, 1, 1, 2])
        cdns = np.zeros(4, dtype=int)
        factors = schedule.throughput_factors(30.0, regions, cdns)
        assert factors == pytest.approx([1.0, 0.1, 0.1, 1.0])
        assert schedule.throughput_factors(120.0, regions, cdns) is None

    def test_overlapping_events_compound(self):
        schedule = StormSchedule([
            StormEvent(StormKind.REGIONAL_COLLAPSE, 0.0, 60.0,
                       targets=(0,), magnitude=0.5),
            StormEvent(StormKind.CDN_OUTAGE, 0.0, 60.0,
                       targets=(0,), magnitude=0.2),
        ])
        factors = schedule.throughput_factors(
            10.0, np.array([0, 1]), np.array([0, 0])
        )
        assert factors == pytest.approx([0.1, 0.2])

    def test_flash_crowd_scales_arrivals(self):
        schedule = StormSchedule([
            StormEvent(StormKind.FLASH_CROWD, 100.0, 50.0, magnitude=3.0)
        ])
        assert schedule.arrival_factor(120.0) == pytest.approx(3.0)
        assert schedule.arrival_factor(200.0) == pytest.approx(1.0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            StormEvent(StormKind.FLASH_CROWD, 0.0, 10.0, magnitude=0.5)
        with pytest.raises(ValueError):
            StormEvent(StormKind.CDN_OUTAGE, 0.0, -1.0)
        with pytest.raises(ValueError):
            StormSpec(crowd_magnitude=0.5)

    def test_storm_degrades_fleet_slo(self):
        clean = PopulationSim(small_config(storm_intensity=0.0)).run()
        stormy = PopulationSim(small_config(storm_intensity=4.0)).run()
        c = clean.fleet["fleet"]["slo_attainment"]
        s = stormy.fleet["fleet"]["slo_attainment"]
        assert s < c


# ----------------------------------------------------------------------
# event core invariants
# ----------------------------------------------------------------------
class TestEventCore:
    def test_session_conservation(self):
        report = PopulationSim(small_config(seed=2)).run()
        fleet = report.fleet["fleet"]
        assert fleet["arrivals"] == (
            fleet["finished"] + fleet["shed"] + fleet["censored"]
        )
        assert fleet["finished"] == fleet["completed"] + fleet["abandoned"]

    def test_same_seed_same_report(self):
        cfg = small_config(seed=6, storm_intensity=2.0)
        a = PopulationSim(cfg).run()
        b = PopulationSim(cfg).run()
        assert json.dumps(a.fleet, sort_keys=True) == json.dumps(
            b.fleet, sort_keys=True
        )
        assert a.decisions == b.decisions

    def test_tiny_capacity_sheds(self):
        cfg = small_config(capacity=64)
        report = PopulationSim(cfg).run()
        fleet = report.fleet["fleet"]
        assert fleet["shed"] > 0
        assert fleet["arrivals"] == (
            fleet["finished"] + fleet["shed"] + fleet["censored"]
        )

    def test_decisions_counted_and_concurrency_tracked(self):
        report = PopulationSim(small_config()).run()
        assert report.decisions > 0
        assert report.concurrency["p95"] > 0
        assert report.backend == "table"

    def test_solver_backend_runs(self):
        cfg = PopulationConfig(
            sessions=200, duration_hours=0.05, tick_seconds=4.0, seed=2
        )
        sim = PopulationSim(cfg)
        sim.backend = SolverBackend(sim.ladder, cfg.max_buffer)
        report = sim.run()
        assert report.decisions > 0
        assert report.fleet["fleet"]["arrivals"] > 0

    def test_solver_backend_decides_like_the_controller(self):
        """Every row gets ``SodaController.decide``'s answer for its state
        (a defer as -1): first-step caps, horizon-1 retry and the defer
        and top-rung fallbacks included, where all rungs overflow too."""
        from repro.core.controller import SodaController
        from repro.core.objective import SodaConfig
        from repro.sim.video import prime_video_live_ladder

        ladder = prime_video_live_ladder()
        max_buffer = 20.0
        tputs = np.geomspace(0.1, 40.0, 15)
        buffers = np.linspace(0.0, max_buffer, 11)
        prevs = np.arange(-1, ladder.levels)
        t, b, p = (a.ravel() for a in np.meshgrid(
            tputs, buffers, prevs, indexing="ij"
        ))
        got = SolverBackend(ladder, max_buffer).decide(
            t, b, p, [f"s{i}" for i in range(t.size)], 0.0
        )
        controller = SodaController(config=SodaConfig(plan_cache=False))
        want = [
            controller.decide(
                tput, buf, None if prev < 0 else int(prev), ladder,
                max_buffer,
            )
            for tput, buf, prev in zip(t, b, p)
        ]
        assert t.size == 1815
        assert got.tolist() == [-1 if w is None else w for w in want]


# ----------------------------------------------------------------------
# crash-survivable execution
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_partial_run_resume_is_bit_identical(self, tmp_path):
        cfg = small_config(storm_intensity=3.0)
        uninterrupted = PopulationSim(cfg).run()

        ck = str(tmp_path / "pop.npz")
        first_leg = PopulationSim(cfg, checkpoint_path=ck)
        assert first_leg.run(until=cfg.n_ticks // 3) is None
        first_leg.save_checkpoint()

        second_leg = PopulationSim.resume(ck, cfg)
        assert second_leg.tick == cfg.n_ticks // 3
        resumed = second_leg.run()

        assert json.dumps(resumed.fleet, sort_keys=True) == json.dumps(
            uninterrupted.fleet, sort_keys=True
        )
        assert resumed.concurrency == uninterrupted.concurrency
        assert resumed.decisions == uninterrupted.decisions
        assert resumed.resumed_from_tick == cfg.n_ticks // 3

    def test_resume_refuses_config_mismatch(self, tmp_path):
        cfg = small_config()
        ck = str(tmp_path / "pop.npz")
        sim = PopulationSim(cfg, checkpoint_path=ck)
        sim.run(until=10)
        sim.save_checkpoint()
        with pytest.raises(ConfigMismatchError):
            PopulationSim.resume(ck, small_config(seed=99))

    def test_checkpoint_requires_path(self):
        sim = PopulationSim(small_config())
        with pytest.raises(ValueError):
            sim.save_checkpoint()

    def test_sigkill_mid_run_then_resume_matches_uninterrupted(self, tmp_path):
        """The acceptance property, end-to-end through the CLI.

        A run is SIGKILLed right after its second checkpoint lands
        (REPRO_POP_KILL_AFTER hook); resuming it must produce a fleet
        report identical to a never-interrupted run of the same config.
        """
        base = [
            sys.executable, "-m", "repro.cli", "population",
            "--sessions", "6000", "--duration-hours", "0.25",
            "--seed", "5", "--storm-intensity", "2",
            "--table-points", "10", "--checkpoint-every", "60", "--quiet",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )

        clean_report = str(tmp_path / "clean.json")
        subprocess.run(
            base + ["--checkpoint", str(tmp_path / "clean.npz"),
                    "--report", clean_report],
            check=True, env=env, cwd=str(tmp_path),
        )

        ck = str(tmp_path / "killed.npz")
        kill_env = dict(env)
        kill_env["REPRO_POP_KILL_AFTER"] = "2"
        proc = subprocess.run(
            base + ["--checkpoint", ck], env=kill_env, cwd=str(tmp_path)
        )
        assert proc.returncode == -9 or proc.returncode == 137
        assert os.path.exists(ck)

        resumed_report = str(tmp_path / "resumed.json")
        subprocess.run(
            base + ["--checkpoint", ck, "--resume",
                    "--report", resumed_report],
            check=True, env=env, cwd=str(tmp_path),
        )

        with open(clean_report) as f:
            clean = json.load(f)
        with open(resumed_report) as f:
            resumed = json.load(f)
        assert resumed["resumed_from_tick"] > 0
        assert json.dumps(clean["fleet"], sort_keys=True) == json.dumps(
            resumed["fleet"], sort_keys=True
        )
        assert clean["concurrency"] == resumed["concurrency"]


# ----------------------------------------------------------------------
# serve mode: decisions through the live sharded service
# ----------------------------------------------------------------------
class TestServeMode:
    def test_population_through_sharded_service(self):
        from repro.service import ShardedDecisionService

        cfg = PopulationConfig(
            sessions=300, duration_hours=0.05, tick_seconds=4.0, seed=3
        )
        sim = PopulationSim(cfg)
        service = ShardedDecisionService(
            sim.ladder, cfg.max_buffer, shards=2, deadline=0.25,
            table_points=10, max_sessions=1 << 16,
        )
        sim.backend = ServiceBackend(service, sim.ladder, cfg.max_buffer)
        report = sim.run()
        assert report.backend == "service"
        assert report.decisions > 0
        assert report.service is not None
        health = report.service["fleet_health"]
        assert health["shards"] == 2
        fleet = report.fleet["fleet"]
        assert fleet["arrivals"] == (
            fleet["finished"] + fleet["shed"] + fleet["censored"]
        )
