"""Tests of the benchmark itself: the correctness gate and its effect on failures.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COEFFS_ARGS = ("coeffs", "--space", "sphere:3", "--n-max", "4", "--oracle-fill")
GROWTH_ARGS = ("growth", "--space", "cp:3", "--n-max", "300")
VERIFY_ARGS = ("verify", "--suite", "unit-s3-chain")


def _coeffs_doc(a1: str = "1/3", a3: str = "2/5") -> bytes:
    rows = [("0", "1", "exact"), ("1", a1, "approximate"), ("2", "4/7", "approximate"),
            ("3", a3, "exact"), ("4", "1/9", "exact")]
    doc = {"kind": "coefficients", "coefficients": [
        {"n": int(n), "num": v.split("/")[0], "den": v.partition("/")[2] or "1",
         "pi_power": 0, "validity": flag} for n, v, flag in rows]}
    return json.dumps(doc, indent=2).encode()


def _growth_doc(c_est: float = 0.4123184822145574, band_n: int = 57) -> bytes:
    doc = {"kind": "growth", "growth": {"classification": "factorial_growth",
                                        "C_estimate": c_est,
                                        "epsilon_band": [{"epsilon": 0.2, "N": band_n}],
                                        "C1_min": 0.41521854921730134}}
    return json.dumps(doc).encode()


def _verify_out(status: str = "PASS") -> bytes:
    return (f"[{status}] unit-s3-chain/fit: worst relative deviation 1.00e-12\n"
            "[PASS] unit-s3-chain/exact-rescale: exact\n"
            f"{2 if status == 'PASS' else 1}/2 checks passed\n").encode()


def _gate(args, ref_out: bytes, out: bytes, code: int = 0, ref_code: int = 0):
    reference = {" ".join(args): gate.digest(args, ref_code, ref_out)}
    return gate.check(reference, args, code, out)


@pytest.mark.parametrize("args, ref_out, out", [
    (COEFFS_ARGS, _coeffs_doc(), _coeffs_doc()),
    (COEFFS_ARGS, _coeffs_doc(a1="1/3"), _coeffs_doc(a1="100000001/300000000")),
    (GROWTH_ARGS, _growth_doc(), _growth_doc(c_est=0.4123184822145574 * (1 + 1e-12))),
    (VERIFY_ARGS, _verify_out(), _verify_out()),
])
def test_matching_output_passes(args, ref_out, out):
    assert _gate(args, ref_out, out) is None


@pytest.mark.parametrize("args, ref_out, out, code, reason", [
    (COEFFS_ARGS, _coeffs_doc(), _coeffs_doc(a3="2/7"), 0, "exact_sha256"),
    (COEFFS_ARGS, _coeffs_doc(), _coeffs_doc(a1="1001/3000"), 0, "approximate A_1"),
    (GROWTH_ARGS, _growth_doc(), _growth_doc(band_n=58), 0, "exact_sha256"),
    (GROWTH_ARGS, _growth_doc(), _growth_doc(c_est=0.4124), 0, "C_estimate"),
    (VERIFY_ARGS, _verify_out(), _verify_out("FAIL"), 0, "checks"),
    (VERIFY_ARGS, _verify_out(), b"", 2, "exit code"),
    (COEFFS_ARGS, _coeffs_doc(), b"not json", 0, "unreadable"),
    (COEFFS_ARGS, _coeffs_doc(), b"", None, "timeout"),
])
def test_mismatch_fails(args, ref_out, out, code, reason):
    assert reason in _gate(args, ref_out, out, code)


def test_reference_covers_every_pool_entry():
    assert {e.id for e in workloads.all_entries()} == set(gate.load_reference())


def test_blocks_balance_every_pool():
    for slots in workloads.WORKLOADS.values():
        k = workloads.rounds_per_block(slots)
        rounds = workloads.block(slots, random.Random(7))
        assert len(rounds) == k
        ran = [e.id for r in rounds for e in r]
        for s in slots:
            times = k * s.per_round // len(s.pool)
            assert all(ran.count(e.id) == times for e in s.pool)


def test_corrupted_reference_raises_fail_ratio():
    entries = [e for e in workloads.all_entries() if e.args[0] == "closed-form"][:2]
    reference = gate.load_reference()
    corrupted = copy.deepcopy(reference)
    corrupted[entries[0].id]["exact_sha256"] = "0" * 64
    deadline = time.perf_counter() + 60

    def fail_ratio(ref: dict, traced: bool) -> float:
        jobs = run.run_block(launcher, [entries], ref, traced, deadline).jobs
        return sum(j.failure is not None for j in jobs) / len(jobs)

    with run.Launcher() as launcher:
        assert fail_ratio(reference, False) == 0
        assert fail_ratio(corrupted, False) == 0.5
        assert fail_ratio(corrupted, True) == 0.5


def test_job_over_budget_is_a_timeout():
    entry = workloads.Entry(("closed-form", "--family", "su-star:4"), budget_s=0.5)
    with run.Launcher() as launcher:
        job = run.run_job(launcher, entry, gate.load_reference(), False, entry.budget_s)
    assert job.failure == "timeout"
    assert job.end - job.start < 5


def test_peak_rss_is_the_jobs_own():
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # make the runner 64 MiB bigger
    with run.Launcher() as launcher:
        p = launcher.spawn([sys.executable, "-c", "pass"], 30)
    assert p.returncode == 0
    assert p.maxrss_kib < 40 << 10


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
