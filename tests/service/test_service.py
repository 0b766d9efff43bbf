"""The HTTP service: parity with the library, limits, coalescing, resume.

The acceptance bar: a ``POST /v1/check`` verdict is byte-identical
(modulo the ``compare=False`` observability channels) to
``check_terminating_exploration`` on both the cold and warm paths; a
killed server restarted on the same journal resumes a resubmitted
campaign without recomputing its completed tasks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.algorithms import registry
from repro.checking.model_checker import check_terminating_exploration
from repro.core.grid import Grid
from repro.engine.spec import canonical_json, result_payload
from repro.engine.store import VerdictStore

ALGORITHM = "fsync_phi2_l2_chir_k2"
SPEC = {"algorithm": ALGORITHM, "m": 3, "n": 3, "model": "FSYNC", "reduction": "grid+color"}


def library_verdict_json(**overrides) -> str:
    """The serial library route's verdict, canonically serialized."""
    params = dict(SPEC, **overrides)
    result = check_terminating_exploration(
        registry.get(params["algorithm"]),
        Grid(params["m"], params["n"]),
        model=params["model"],
        reduction=params["reduction"],
    )
    return canonical_json(result_payload(result)["verdict"])


# ---------------------------------------------------------------------------
# Single-shot endpoints
# ---------------------------------------------------------------------------
class TestCheck:
    def test_cold_and_warm_verdicts_match_the_library_byte_for_byte(self, harness):
        expected = library_verdict_json()
        code, cold, _ = harness.post("/v1/check", SPEC)
        assert code == 200
        assert cold["observability"]["store_stats"]["outcome"] == "miss"
        assert canonical_json(cold["verdict"]) == expected

        code, warm, _ = harness.post("/v1/check", SPEC)
        assert code == 200
        assert warm["observability"]["store_stats"]["outcome"] == "hit"
        assert canonical_json(warm["verdict"]) == expected
        assert harness.service.store.stats["hits"] >= 1

    def test_failing_verdict_travels_whole(self, harness):
        code, body, _ = harness.post("/v1/check", dict(SPEC, model="SSYNC"))
        assert code == 200
        assert body["verdict"]["ok"] is False
        assert body["verdict"]["counterexample"]
        assert canonical_json(body["verdict"]) == library_verdict_json(model="SSYNC")

    def test_response_echoes_the_normalized_spec(self, harness):
        code, body, _ = harness.post("/v1/check", dict(SPEC, model="fsync", reduction="color+grid"))
        assert code == 200
        assert body["spec"]["model"] == "FSYNC"
        assert body["spec"]["reduction"] == "grid+color"
        assert body["elapsed_s"] >= 0

    def test_http_check_warms_the_library_route_and_vice_versa(self, harness):
        """One store, one key: either route's verdict is warm for the other."""
        harness.post("/v1/check", SPEC)
        result = check_terminating_exploration(
            registry.get(ALGORITHM),
            Grid(3, 3),
            model="FSYNC",
            reduction="grid+color",
            store=harness.service.store,
        )
        assert result.store_stats["outcome"] == "hit"

    def test_budget_trip_is_a_422_naming_max_states(self, harness):
        code, body, _ = harness.post("/v1/check", dict(SPEC, max_states=2))
        assert code == 422
        assert body["error"]["field"] == "max_states"


class TestExplore:
    def test_explore_summarizes_and_caches(self, harness):
        code, cold, _ = harness.post("/v1/explore", SPEC)
        assert code == 200
        assert cold["verdict"]["num_states"] > 0
        assert cold["verdict"]["terminal_states"] >= 1
        code, warm, _ = harness.post("/v1/explore", SPEC)
        assert warm["observability"]["store_stats"]["outcome"] == "hit"
        assert warm["verdict"] == cold["verdict"]

    def test_default_service_explores_without_a_process_pool(self, harness, monkeypatch):
        import multiprocessing

        calls = []
        real = multiprocessing.get_context

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        spec = {"algorithm": "async_phi2_l2_nochir_k4", "m": 4, "n": 4, "model": "ASYNC"}
        code, body, _ = harness.post("/v1/explore", spec)
        assert code == 200
        assert body["verdict"]["num_states"] == 130
        assert calls == []  # the serial service explores in-process


class TestValidationAndErrors:
    @pytest.mark.parametrize(
        ("payload", "field"),
        [
            ({}, "algorithm"),
            (dict(SPEC, algorithm="nope"), "algorithm"),
            (dict(SPEC, model="WARP"), "model"),
            (dict(SPEC, m=0), "m"),
            (dict(SPEC, reduction="grid+magic"), "reduction"),
        ],
    )
    def test_bad_specs_are_400s_naming_the_field(self, harness, payload, field):
        code, body, _ = harness.post("/v1/check", payload)
        assert code == 400
        assert body["error"]["field"] == field

    def test_non_json_body_is_a_400(self, harness):
        request = urllib.request.Request(
            harness.url + "/v1/check", data=b"not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["field"] == "body"

    def test_unknown_endpoints_are_404s(self, harness):
        code, _, _ = harness.get("/v1/unknown")
        assert code == 404
        code, _, _ = harness.get("/v1/campaigns/ffffffffffffffff")
        assert code == 404


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------
class TestRateLimiting:
    @pytest.fixture
    def limited(self, harness_factory):
        return harness_factory(rate=0.001, burst=2)

    def test_burst_exhaustion_is_a_429_with_retry_after(self, limited):
        for _ in range(2):
            code, _, _ = limited.get("/v1/stats")
            assert code == 200
        code, body, headers = limited.get("/v1/stats")
        assert code == 429
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in body["error"]["message"]
        assert limited.service.limiter.stats["rejected"] >= 1

    def test_clients_are_limited_independently(self, limited):
        for _ in range(2):
            assert limited.get("/v1/stats", headers={"X-Client-Id": "alice"})[0] == 200
        assert limited.get("/v1/stats", headers={"X-Client-Id": "alice"})[0] == 429
        assert limited.get("/v1/stats", headers={"X-Client-Id": "bob"})[0] == 200

    def test_healthz_is_never_limited(self, limited):
        for _ in range(5):
            assert limited.get("/healthz")[0] == 200


# ---------------------------------------------------------------------------
# Coalescing through HTTP
# ---------------------------------------------------------------------------
class TestCoalescing:
    def test_simultaneous_checks_for_one_spec_compute_once(self, harness, monkeypatch):
        """Two concurrent HTTP requests rendezvous in the store's singleflight."""
        from repro.engine import sharded as sharded_module

        routed = sharded_module._route_exploration
        started, release = threading.Event(), threading.Event()
        calls = []

        def gated_route(*args, **kwargs):
            calls.append(1)
            started.set()
            assert release.wait(timeout=60)
            return routed(*args, **kwargs)

        monkeypatch.setattr(sharded_module, "_route_exploration", gated_route)
        responses = {}

        def post(slot):
            responses[slot] = harness.post("/v1/check", SPEC)

        leader = threading.Thread(target=post, args=("leader",))
        leader.start()
        assert started.wait(timeout=60)
        follower = threading.Thread(target=post, args=("follower",))
        follower.start()
        store = harness.service.store
        for _ in range(60_000):
            if store.coalesced:
                break
            threading.Event().wait(0.001)
        assert store.stats["coalesced"] >= 1
        release.set()
        leader.join(timeout=60)
        follower.join(timeout=60)
        assert len(calls) == 1  # exactly one exploration for two requests
        verdicts = {slot: canonical_json(body["verdict"]) for slot, (_, body, _) in responses.items()}
        assert verdicts["leader"] == verdicts["follower"]
        outcomes = {
            body["observability"]["store_stats"]["outcome"] for _, body, _ in responses.values()
        }
        assert outcomes == {"miss", "coalesced"}


# ---------------------------------------------------------------------------
# Campaigns over HTTP
# ---------------------------------------------------------------------------
CAMPAIGN = {
    "algorithm": ALGORITHM,
    "campaign": "grid_sweep",
    "sizes": [[2, 3], [3, 3]],
    "model": "FSYNC",
}


def await_campaign(harness, run_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        code, status, _ = harness.get(f"/v1/campaigns/{run_id}")
        assert code == 200
        if status["state"] != "running":
            return status
        time.sleep(0.02)
    raise AssertionError(f"campaign {run_id} still running after {timeout}s")


class TestCampaigns:
    def test_submit_run_stream_and_idempotent_resubmit(self, harness):
        code, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        assert code == 202
        run_id = submitted["id"]
        status = await_campaign(harness, run_id)
        assert status["state"] == "done"
        assert status["ok"] is True
        assert status["completed"] == status["total"] == 2

        raw = harness.get_raw(f"/v1/campaigns/{run_id}/events")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        kinds = [event["event"] for event in events]
        assert kinds.count("task") == 2 and kinds[-1] == "done"
        assert all(event["ok"] for event in events if event["event"] == "task")

        # Identical resubmission: same id, already-finished status, 200.
        code, again, _ = harness.post("/v1/campaigns", CAMPAIGN)
        assert code == 200
        assert again["id"] == run_id and again["state"] == "done"

    def test_event_stream_cursor_resumes_mid_stream(self, harness):
        _, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        await_campaign(harness, submitted["id"])
        raw = harness.get_raw(f"/v1/campaigns/{submitted['id']}/events?since=1")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        assert events[0]["seq"] == 1
        assert events[-1]["event"] == "done"

    def test_late_subscriber_to_finished_run_still_gets_done(self, harness):
        _, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        await_campaign(harness, submitted["id"])
        # Cursor beyond every recorded event: the stream must still close
        # with a terminal snapshot rather than hang.
        raw = harness.get_raw(f"/v1/campaigns/{submitted['id']}/events?since=999")
        events = [json.loads(line) for line in raw.splitlines() if line.strip()]
        assert events and events[-1]["event"] == "done"

    def test_explicit_task_list_campaign(self, harness):
        payload = {
            "algorithm": ALGORITHM,
            "tasks": [
                {"m": 3, "n": 3, "model": "FSYNC", "kind": "check", "reduction": "grid+color"},
                {"m": 2, "n": 3, "model": "SSYNC", "seed": 3, "tie_break": "first"},
            ],
        }
        _, submitted, _ = harness.post("/v1/campaigns", payload)
        status = await_campaign(harness, submitted["id"])
        assert status["state"] == "done" and status["completed"] == 2

    def test_stats_counts_requests_and_campaigns(self, harness):
        harness.post("/v1/check", SPEC)
        _, submitted, _ = harness.post("/v1/campaigns", CAMPAIGN)
        await_campaign(harness, submitted["id"])
        code, stats, _ = harness.get("/v1/stats")
        assert code == 200
        assert stats["service"]["requests"]["POST /v1/check"] == 1
        assert stats["service"]["campaigns"]["done"] == 1
        assert stats["store"]["misses"] >= 1
        assert stats["backend"]["kind"] == "serial"
        assert stats["rate_limiter"]["rate"] is None


# ---------------------------------------------------------------------------
# Kill -9 the server mid-campaign; restart on the same journal; resume.
# ---------------------------------------------------------------------------
SLOW_CAMPAIGN = {
    "algorithm": ALGORITHM,
    "campaign": "grid_sweep",
    "sizes": [[2, 3], [2, 4], [2, 5], [3, 3]],
    "model": "FSYNC",
}


def start_server(tmp_path: Path, *extra: str) -> "subprocess.Popen[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    port_file = tmp_path / f"port-{len(list(tmp_path.glob('port-*')))}"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--host", "127.0.0.1", "--port", "0",
            "--journal", str(tmp_path / "journals"),
            "--port-file", str(port_file),
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    proc.port_file = port_file  # type: ignore[attr-defined]
    return proc


def server_url(proc, timeout=60.0) -> str:
    deadline = time.monotonic() + timeout
    port_file = proc.port_file
    while time.monotonic() < deadline:
        assert proc.poll() is None, "server subprocess died during startup"
        if port_file.exists() and port_file.read_text().strip():
            return f"http://127.0.0.1:{port_file.read_text().strip()}"
        time.sleep(0.05)
    raise AssertionError("server did not publish its port in time")


def http_json(url, path, payload=None, timeout=60.0):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


class TestKillResume:
    def test_killed_server_resumes_campaign_from_its_journal(self, tmp_path):
        # Wave delay throttles the serial run to ~1 task per 0.4s so the
        # kill lands mid-campaign deterministically.
        first = start_server(tmp_path, "--wave-delay", "0.4")
        try:
            url = server_url(first)
            submitted = http_json(url, "/v1/campaigns", SLOW_CAMPAIGN)
            run_id = submitted["id"]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = http_json(url, f"/v1/campaigns/{run_id}")
                if 1 <= status["completed"] < status["total"]:
                    break
                assert status["state"] == "running", f"finished too fast: {status}"
                time.sleep(0.05)
            else:
                raise AssertionError("campaign never reached a partial state")
            completed_before_kill = status["completed"]
            os.kill(first.pid, signal.SIGKILL)
            first.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()

        second = start_server(tmp_path)
        try:
            url = server_url(second)
            resubmitted = http_json(url, "/v1/campaigns", SLOW_CAMPAIGN)
            assert resubmitted["id"] == run_id  # content-addressed: same run
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                status = http_json(url, f"/v1/campaigns/{run_id}")
                if status["state"] != "running":
                    break
                time.sleep(0.1)
            assert status["state"] == "done" and status["ok"] is True
            assert status["completed"] == status["total"] == 4
            # The journaled verdicts were replayed, not recomputed.
            assert status["resumed"] >= completed_before_kill >= 1
            with urllib.request.urlopen(
                url + f"/v1/campaigns/{run_id}/events", timeout=60
            ) as response:
                events = [json.loads(line) for line in response if line.strip()]
            resumed_events = [e for e in events if e["event"] == "task" and e["resumed"]]
            fresh_events = [e for e in events if e["event"] == "task" and not e["resumed"]]
            assert len(resumed_events) == status["resumed"]
            assert len(resumed_events) + len(fresh_events) == 4
            assert all(event["ok"] for event in resumed_events + fresh_events)
        finally:
            second.terminate()
            try:
                second.wait(timeout=15)
            except subprocess.TimeoutExpired:
                second.kill()
