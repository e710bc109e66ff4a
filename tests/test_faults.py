"""Chaos tests for ``repro.faults`` (DESIGN.md §13).

The load-bearing guarantees:

* fault plans are declarative, serialisable, validated, and scheduled
  from their own registered RNG stream — never the spec's;
* every injected fault raises into a *real* recovery handler, so a
  faulted run of a recoverable plan is bitwise identical to a clean
  run on every backend (chaos parity);
* unrecoverable situations degrade in tiers (remote → process →
  serial) with a single warning, or quarantine the offending artifact
  (corrupt cache entries) instead of wedging the sweep;
* crash droppings — orphaned ``.sweep_tmp_*`` files, old quarantines —
  are reclaimed by sweep startup and ``cache prune``;
* ``RemoteExecutor.close()`` stays bounded even while a dial is stuck
  mid-handshake against an unresponsive host.
"""

import json
import os
import socket
import threading
import time
import warnings

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.faults import (
    FAULT_PLAN_ENV,
    FAULT_SITES,
    FAULTS,
    FaultError,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    backoff_delays,
    deactivate,
    fault_plan,
    load_plan,
    retry_call,
)
from repro.obs import BUS, MemorySink, tracing
from repro.sweep import (
    LoopbackWorker,
    RemoteExecutor,
    SweepSpec,
    VirtualExecutor,
    make_executor,
    run_sweep,
)
from repro.sweep.cache import (
    QUARANTINE_SUFFIX,
    TMP_PREFIX,
    cache_path,
    clean_stale_files,
    load_result,
    save_result,
)
from repro.sweep.executor import CRASH_ENV, SerialExecutor
from repro.sweep.runner import _execute_block


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    """Every test starts and ends with the singleton disarmed."""
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    deactivate()
    assert not FAULTS.enabled
    yield
    deactivate()


def plan(*rules, seed=0):
    return FaultPlan(rules=tuple(rules), seed=seed)


def rule(site, **kw):
    return FaultRule(site=site, **kw)


def small_spec(**overrides):
    base = dict(
        algorithm="nonuniform",
        distances=(8, 16),
        ks=(1, 4),
        trials=20,
        seed=42,
    )
    base.update(overrides)
    return SweepSpec(**base)


def assert_sweeps_equal(a, b):
    assert len(a.cells) == len(b.cells)
    for x, y in zip(a.cells, b.cells):
        assert (x.distance, x.k) == (y.distance, y.k)
        assert np.array_equal(x.times, y.times), (x.distance, x.k)


class TestFaultPlanModel:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="cache.reed")

    def test_rule_bounds_validated(self):
        with pytest.raises(ValueError):
            FaultRule(site="cache.read", p=1.5)
        with pytest.raises(ValueError):
            FaultRule(site="cache.read", after=-1)
        with pytest.raises(ValueError):
            FaultRule(site="cache.read", times=-1)
        with pytest.raises(ValueError):
            FaultRule(site="remote.slow", delay=-0.1)

    def test_json_roundtrip(self):
        original = plan(
            rule("cache.read", p=0.5, after=2, times=3),
            rule("remote.slow", delay=0.25),
            seed=7,
        )
        assert FaultPlan.from_json(original.to_json()) == original

    def test_load_plan_accepts_inline_json_and_files(self, tmp_path):
        original = plan(rule("pool.kill", times=1), seed=3)
        text = original.to_json()
        assert load_plan(text) == original  # inline JSON
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert load_plan(str(path)) == original  # file path

    def test_load_plan_rejects_malformed_json(self):
        with pytest.raises(ValueError):
            load_plan('{"rules": [{"site"')
        with pytest.raises(ValueError):
            load_plan(json.dumps({"rules": [{"mode": "error"}]}))

    @pytest.mark.parametrize(
        "source, cause",
        [("no/such/plan.json", "No such file"), ('{"rules": [{"site"', "Expecting")],
        ids=["missing-file", "malformed-json"],
    )
    def test_bad_env_plan_raises_typed_error_naming_variable(
        self, monkeypatch, source, cause
    ):
        monkeypatch.setenv(FAULT_PLAN_ENV, source)
        monkeypatch.setattr("repro.faults.plan._ENV_LOADED", False)
        for _ in range(2):  # a bad plan is never silently skipped later
            with pytest.raises(FaultPlanError, match=FAULT_PLAN_ENV) as info:
                run_sweep(small_spec(), cache=False)
            assert cause in str(info.value)
        with pytest.raises(SystemExit, match=FAULT_PLAN_ENV):
            cli_main(["sweep", "nonuniform", "--distances", "8", "--ks", "1",
                      "--trials", "4", "--no-cache"])
        assert not FAULTS.enabled

    def test_bad_flag_plan_names_the_flag(self):
        with pytest.raises(SystemExit, match="--fault-plan"):
            cli_main(["sweep", "nonuniform", "--distances", "8", "--ks", "1",
                      "--trials", "4", "--no-cache", "--fault-plan", "nope.json"])

    def test_unknown_rule_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault rule keys"):
            FaultRule.from_dict({"site": "cache.read", "when": "always"})

    def test_after_and_times_windows(self):
        with fault_plan(plan(rule("cache.read", after=1, times=1))):
            assert FAULTS.check("cache.read") is None  # skipped by after
            assert FAULTS.check("cache.read") is not None  # fires once
            assert FAULTS.check("cache.read") is None  # budget exhausted
            assert FAULTS.injections == {"cache.read": 1}

    def test_sites_are_independent(self):
        with fault_plan(plan(rule("cache.write", times=1))):
            assert FAULTS.check("cache.read") is None
            assert FAULTS.check("cache.write") is not None

    def test_probabilistic_schedule_is_reproducible(self):
        schedule = plan(rule("cache.read", p=0.4), seed=11)

        def pattern():
            with fault_plan(schedule):
                return [
                    FAULTS.check("cache.read") is not None
                    for _ in range(40)
                ]

        first = pattern()
        assert first == pattern()
        assert any(first) and not all(first)  # p is neither 0 nor 1

    def test_deactivate_disables_the_one_attribute_gate(self):
        with fault_plan(plan(rule("cache.read"))):
            assert FAULTS.enabled
        assert not FAULTS.enabled

    def test_every_site_is_documented(self):
        # The plan vocabulary is the public chaos surface; a seam added
        # without a FAULT_SITES entry would be unreachable from plans.
        for site in FAULT_SITES:
            FaultRule(site=site)  # constructs without error


class TestRetryHelper:
    def test_backoff_yields_capped_jittered_doubling(self):
        delays = list(
            backoff_delays(attempts=5, base_delay=0.1, max_delay=0.3)
        )
        assert len(delays) == 4  # attempts - 1 sleeps
        assert all(0.0 < d <= 0.3 * 1.25 for d in delays)
        # Doubling until the cap: later delays never shrink below an
        # earlier one by more than the jitter band.
        assert delays[-1] >= delays[0]

    def test_retry_call_recovers_from_transient_failures(self):
        calls = []
        naps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert (
            retry_call(
                flaky, site="test", attempts=3, base_delay=0.01,
                sleep=naps.append,
            )
            == "ok"
        )
        assert len(calls) == 3
        assert len(naps) == 2

    def test_retry_call_exhausts_and_raises_the_last_error(self):
        def always_down():
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            retry_call(
                always_down, site="test", attempts=3, base_delay=0.0,
                sleep=lambda _: None,
            )

    def test_non_retryable_errors_propagate_immediately(self):
        calls = []

        def typo():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            retry_call(
                typo, site="test", attempts=5, base_delay=0.0,
                sleep=lambda _: None,
            )
        assert len(calls) == 1


class TestCacheSeams:
    def _seed_cache(self, spec, tmp_path):
        run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        path = cache_path(spec, str(tmp_path))
        assert os.path.exists(path)
        return path

    def test_injected_read_error_is_a_plain_miss(self, tmp_path):
        spec = small_spec()
        path = self._seed_cache(spec, tmp_path)
        with fault_plan(plan(rule("cache.read", times=1))):
            assert load_result(spec, path) is None  # injected miss
            assert load_result(spec, path) is not None  # budget spent
        assert os.path.exists(path)  # transient: entry untouched

    def test_injected_corruption_quarantines_the_entry(self, tmp_path):
        spec = small_spec()
        path = self._seed_cache(spec, tmp_path)
        with fault_plan(plan(rule("cache.corrupt", times=1))):
            assert load_result(spec, path) is None
        assert not os.path.exists(path)
        assert os.path.exists(path + QUARANTINE_SUFFIX)

    def test_quarantined_entry_is_rebuilt_bitwise(self, tmp_path):
        spec = small_spec()
        clean = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        with fault_plan(plan(rule("cache.corrupt", times=1))):
            rebuilt = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        assert not rebuilt.from_cache
        assert_sweeps_equal(clean, rebuilt)
        # The rebuild wrote a fresh, loadable entry.
        after = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        assert after.from_cache
        assert_sweeps_equal(clean, after)

    def test_injected_write_failure_skips_the_entry(self, tmp_path):
        spec = small_spec()
        path = cache_path(spec, str(tmp_path))
        with fault_plan(plan(rule("cache.write", times=1))):
            result = run_sweep(spec, cache=True, cache_dir=str(tmp_path))
        assert result.cells and not os.path.exists(path)

    def test_crash_mode_orphans_a_tmp_file(self, tmp_path):
        # The ENOSPC/kill -9 shape: temp written, rename never happens.
        spec = small_spec()
        cells = [  # a minimal valid payload for save_result
            c for c in spec.cells()
        ]
        times = np.zeros((len(cells), spec.trials))
        path = cache_path(spec, str(tmp_path))
        with fault_plan(plan(rule("cache.write", mode="crash", times=1))):
            assert not save_result(spec, path, cells, times)
        assert not os.path.exists(path)
        orphans = [
            name for name in os.listdir(tmp_path)
            if name.startswith(TMP_PREFIX)
        ]
        assert len(orphans) == 1

    def test_stale_droppings_are_reclaimed_by_age(self, tmp_path):
        fresh = tmp_path / (TMP_PREFIX + "live")
        stale_tmp = tmp_path / (TMP_PREFIX + "orphan")
        stale_q = tmp_path / ("entry.npz" + QUARANTINE_SUFFIX)
        unrelated = tmp_path / "sweep_real.npz"
        for target in (fresh, stale_tmp, stale_q, unrelated):
            target.write_bytes(b"x")
        old = time.time() - 3600.0
        os.utime(stale_tmp, (old, old))
        os.utime(stale_q, (old, old))
        removed = clean_stale_files(str(tmp_path))
        assert sorted(os.path.basename(p) for p in removed) == sorted(
            [stale_tmp.name, stale_q.name]
        )
        assert fresh.exists() and unrelated.exists()

    def test_sweep_startup_reclaims_stale_tmp(self, tmp_path):
        # Regression for the satellite: a crash-orphaned temp file is
        # gone after the next sweep in the same cache directory.
        orphan = tmp_path / (TMP_PREFIX + "crashed")
        orphan.write_bytes(b"x")
        old = time.time() - 3600.0
        os.utime(orphan, (old, old))
        run_sweep(small_spec(), cache=True, cache_dir=str(tmp_path))
        assert not orphan.exists()


class TestChaosParity:
    """Faulted recoverable runs are bitwise equal to clean runs."""

    RECOVERABLE = plan(
        rule("cache.read", times=1),
        rule("cache.corrupt", times=1, after=1),
        seed=5,
    )

    def test_parity_on_all_four_backends(self, tmp_path):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        run_sweep(spec, cache=True, cache_dir=str(tmp_path))  # seed cache

        def faulted(**kw):
            with fault_plan(self.RECOVERABLE):
                return run_sweep(
                    spec, cache=True, cache_dir=str(tmp_path), **kw
                )

        assert_sweeps_equal(baseline, faulted())
        assert_sweeps_equal(
            baseline, faulted(workers=2, backend="process")
        )
        with VirtualExecutor(
            workers=4, cost_fn=lambda fn, payload, result: 1.0
        ) as virtual:
            assert_sweeps_equal(baseline, faulted(executor=virtual))
        worker = LoopbackWorker()
        try:
            with RemoteExecutor([worker.address]) as remote:
                assert_sweeps_equal(baseline, faulted(executor=remote))
        finally:
            worker.stop()

    def test_pool_kill_parity(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        with fault_plan(plan(rule("pool.kill", times=1))):
            assert os.environ.get(CRASH_ENV)  # armed via the file hook
            faulted = run_sweep(
                spec, cache=False, workers=2, backend="process"
            )
        assert os.environ.get(CRASH_ENV) is None
        assert_sweeps_equal(baseline, faulted)

    def test_shm_attach_parity(self):
        # Attach failures fall back to inline transport, worker-side.
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        with fault_plan(plan(rule("shm.attach"))):
            faulted = run_sweep(
                spec, cache=False, workers=2, backend="process"
            )
        assert_sweeps_equal(baseline, faulted)


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestDegradation:
    def test_auto_degrades_remote_to_process(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ex = make_executor(
                workers=2, backend="auto",
                hosts=[("127.0.0.1", _free_port())],
                connect_timeout=1.0,
            )
        with ex:
            assert ex.backend == "process"
        degrade_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(degrade_warnings) == 1
        assert "degrading" in str(degrade_warnings[0].message)

    def test_auto_degrades_remote_to_serial_when_single_worker(self):
        with pytest.warns(RuntimeWarning, match="degrading"):
            ex = make_executor(
                workers=1, backend="auto",
                hosts=[("127.0.0.1", _free_port())],
                connect_timeout=1.0,
            )
        with ex:
            assert isinstance(ex, SerialExecutor)

    def test_auto_degrades_process_to_serial_on_injected_failure(self):
        with fault_plan(plan(rule("executor.process", times=1))):
            with pytest.warns(RuntimeWarning, match="degrading"):
                ex = make_executor(workers=2, backend="auto")
            with ex:
                assert isinstance(ex, SerialExecutor)

    def test_explicit_process_backend_never_degrades(self):
        with fault_plan(plan(rule("executor.process", times=1))):
            with pytest.raises(RuntimeError, match="injected"):
                make_executor(workers=2, backend="process")

    def test_degradation_emits_the_obs_event(self):
        sink = MemorySink()
        with tracing(sink):
            with pytest.warns(RuntimeWarning):
                make_executor(
                    workers=1, backend="auto",
                    hosts=[("127.0.0.1", _free_port())],
                    connect_timeout=1.0,
                ).close()
        degrades = [
            r for r in sink.records if r.get("name") == "fault.degrade"
        ]
        assert len(degrades) == 1
        assert degrades[0]["data"]["tier"] == "remote"
        assert degrades[0]["data"]["fallback"] == "serial"

    def test_degraded_run_is_bitwise_identical(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        with pytest.warns(RuntimeWarning, match="degrading"):
            ex = make_executor(
                workers=2, backend="auto",
                hosts=[("127.0.0.1", _free_port())],
                connect_timeout=1.0,
            )
        with ex:
            degraded = run_sweep(spec, cache=False, executor=ex)
        assert_sweeps_equal(baseline, degraded)


class TestRemoteSeams:
    def test_connect_refusal_is_retried_to_success(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        worker = LoopbackWorker()
        try:
            sink = MemorySink()
            with fault_plan(plan(rule("remote.connect", times=1))):
                with tracing(sink):
                    with RemoteExecutor([worker.address]) as remote:
                        faulted = run_sweep(
                            spec, cache=False, executor=remote
                        )
        finally:
            worker.stop()
        assert_sweeps_equal(baseline, faulted)
        retries = [
            r for r in sink.records
            if r.get("name") == "retry.attempt"
            and r["data"].get("site") == "remote.connect"
        ]
        assert retries  # the refused dial was retried, not fatal

    def test_mid_task_disconnect_resubmits_bitwise(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        workers = [LoopbackWorker(), LoopbackWorker()]
        try:
            with fault_plan(plan(rule("remote.disconnect", times=1))):
                with RemoteExecutor(
                    [w.address for w in workers]
                ) as remote:
                    faulted = run_sweep(spec, cache=False, executor=remote)
        finally:
            for w in workers:
                w.stop()
        assert_sweeps_equal(baseline, faulted)

    def test_heartbeat_blackhole_declares_worker_lost(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        workers = [LoopbackWorker(), LoopbackWorker()]
        try:
            with fault_plan(plan(rule("remote.blackhole", times=1))):
                with RemoteExecutor(
                    [w.address for w in workers],
                    heartbeat_interval=0.1,
                ) as remote:
                    faulted = run_sweep(spec, cache=False, executor=remote)
        finally:
            for w in workers:
                w.stop()
        assert_sweeps_equal(baseline, faulted)

    def test_slow_links_change_nothing_but_time(self):
        spec = small_spec()
        baseline = run_sweep(spec, cache=False)
        worker = LoopbackWorker()
        try:
            with fault_plan(
                plan(rule("remote.slow", times=3, delay=0.05))
            ):
                with RemoteExecutor([worker.address]) as remote:
                    faulted = run_sweep(spec, cache=False, executor=remote)
        finally:
            worker.stop()
        assert_sweeps_equal(baseline, faulted)


class _StalledHandshakeServer:
    """Accepts the dial, reads the hello, and never answers.

    The shape of a blackholed host: without a bounded close, a driver
    shutting down mid-connect would sit out the entire connect budget.
    """

    def __init__(self):
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(4)
        self._server.settimeout(30.0)
        self.address = self._server.getsockname()[:2]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._server.accept()
        except OSError:
            return
        with conn:
            self._stop.wait(timeout=60.0)

    def stop(self):
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass
        self._thread.join(timeout=10.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()


class TestBoundedClose:
    def test_close_unblocks_a_submit_stuck_mid_handshake(self):
        with _StalledHandshakeServer() as stalled:
            ex = RemoteExecutor([stalled.address], connect_timeout=60.0)
            errors = []

            def submit():
                try:
                    ex.submit(_execute_block, None)
                except RuntimeError as error:
                    errors.append(error)

            thread = threading.Thread(target=submit, daemon=True)
            thread.start()
            time.sleep(0.5)  # let the dial reach the stalled handshake
            started = time.perf_counter()
            ex.close()
            closed_in = time.perf_counter() - started
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert closed_in < 10.0  # bounded, not the 60s dial budget
            assert errors and "failed to start" in str(errors[0])

    def test_close_is_idempotent_after_cancel(self):
        with _StalledHandshakeServer() as stalled:
            ex = RemoteExecutor([stalled.address], connect_timeout=60.0)
            threading.Thread(
                target=lambda: pytest.raises(
                    RuntimeError, ex._ensure_started
                ),
                daemon=True,
            ).start()
            time.sleep(0.2)
            ex.close()
            ex.close()  # second close is a no-op, not an error
