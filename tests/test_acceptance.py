"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import subprocess
import sys
import time

import pytest

from geocrystal.cartan import hw_to_partition, is_partition_of
from geocrystal.crystal import highest_weight_crystal, weight_multiplicity
from geocrystal.repalg import (
    dim_quotient_Id,
    dim_quotient_Jw,
    dominant_weights_of,
    kostka,
)
from geocrystal.suites import (
    margin_sum,
    rsk_roundtrip_exhaustive,
    suite_crystal,
    suite_maffei_acceptance,
    suite_signs,
)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def signs_report():
    return suite_signs(n_max=6, max_entry=4, seed=0, spot_checks=200)


@pytest.fixture(scope="module")
def maffei_report():
    return suite_maffei_acceptance(total_samples=504, seed=7)


def test_criterion_1_sl3_separation():
    t0 = time.monotonic()
    ok = is_partition_of((3, 0), 3)
    # multiplicity of 3*omega_1 in the adjoint, via two independent paths
    mult_kostka = kostka(hw_to_partition((1, 1)), (3, 0, 0))
    mult_crystal = weight_multiplicity(highest_weight_crystal((1, 1)), (3, 0, 0))
    # dim U/I_3 via explicit tensor decomposition and via margin/RSK counts
    id_tensor = dim_quotient_Id(3, 3)
    id_rsk = margin_sum(3, 3)
    # dim U/J via Weyl dimensions and via crystal vertex counts
    jw_weyl = dim_quotient_Jw((1, 1))
    jw_crystal = sum(len(highest_weight_crystal(mu)) ** 2 for mu in dominant_weights_of((1, 1)))
    elapsed = time.monotonic() - t0
    ok = (
        ok
        and mult_kostka == 0
        and mult_crystal == 0
        and id_tensor == 165
        and id_rsk == 165
        and jw_weyl == 65
        and jw_crystal == 65
        and id_tensor != jw_weyl
        and elapsed < 10.0
    )
    announce(
        1,
        ok,
        f"sl_3 separation: dim U/I_3 = {id_tensor} (= {id_rsk} by RSK) != "
        f"{jw_weyl} (= {jw_crystal} by crystal) = dim U/J, mult = "
        f"{mult_kostka}/{mult_crystal}, in {elapsed:.2f}s",
    )


def test_criterion_2_sign_agreement(signs_report):
    rep = signs_report
    ok = rep["pass"] and rep["sign_checks"] > 0 and not rep["failures"]
    announce(
        2,
        ok,
        f"s_k = r_k over n <= 6, entries <= 4: {rep['sign_checks']} checks, "
        f"{len(rep['failures'])} failures",
    )


def test_criterion_3_maffei_suite(maffei_report):
    rep = maffei_report
    ok = (
        rep["pass"]
        and rep["points_checked"] >= 500
        and not rep["failures"]
        and rep["elapsed_seconds"] < 60.0
    )
    announce(
        3,
        ok,
        f"Maffei identities on {rep['points_checked']} stable points across "
        f"n in 2..5 in {rep['elapsed_seconds']}s, {len(rep['failures'])} failures",
    )


def test_criterion_4_hecke_compatibility(maffei_report):
    rep = maffei_report
    hecke_failures = [m for m in rep["failures"] if "Hecke" in m]
    ok = rep["hecke_cases"] > 0 and not hecke_failures
    announce(
        4,
        ok,
        f"Hecke data: {rep['hecke_cases']} quotient pairs, "
        f"{len(hecke_failures)} failures",
    )


def test_criterion_5_crystal_suite():
    rep = suite_crystal(n_max=4, level_max=8)
    ok = rep["pass"] and rep["crystals"] > 0
    announce(
        5,
        ok,
        f"crystal axioms/dimensions/multiplicities/strata on {rep['crystals']} "
        f"crystals ({rep['vertices']} vertices), {len(rep['failures'])} failures",
    )


def test_criterion_6_component_count_identity():
    checked = 0
    for n in (2, 3, 4):
        for d in range(1, 7):
            assert margin_sum(n, d) == dim_quotient_Id(n, d), (n, d)
            checked += 1
    roundtrip = rsk_roundtrip_exhaustive(3, 3)
    ok = checked == 18 and roundtrip["pass"] and roundtrip["matrices"] == 165
    announce(
        6,
        ok,
        f"margin sums match dim U/I_d on {checked} (n, d) pairs; RSK bijection "
        f"on {roundtrip['matrices']} matrices",
    )


def test_criterion_7_coefficient_bridge(signs_report):
    rep = signs_report
    bridge_failures = [m for m in rep["failures"] if "bridge" in m]
    ok = rep["bridge_checks"] > 0 and not bridge_failures
    announce(
        7,
        ok,
        f"a_k - a_(k+1) = <h_k, w - Cv> on {rep['bridge_checks']} grid cases, "
        f"{len(bridge_failures)} failures",
    )


def test_criterion_8_cli_determinism(tmp_path):
    from geocrystal.linalg import RatMat
    from geocrystal.quiver import QuiverRep

    point_file = tmp_path / "p0.json"
    point = QuiverRep(
        3,
        (1, 1),
        (1, 1),
        B={(2, 1): RatMat([[1]]), (1, 2): RatMat([[0]])},
        i={1: RatMat([[1]]), 2: RatMat([[1]])},
    )
    point_file.write_text(json.dumps(point.to_json()))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "geocrystal", *args],
            capture_output=True,
        )

    commands = [
        ("crystal", "--n", "3", "--w", "1,1", "--format", "dot"),
        ("verify", "--suite", "quotients", "--n", "3", "--d", "3"),
        (
            "verify", "--suite", "maffei", "--n", "3", "--w", "1,1",
            "--samples", "5", "--seed", "11",
        ),
        ("theta", "--input", str(point_file)),
    ]
    identical = all(
        run(*args).stdout == run(*args).stdout for args in commands
    )
    exit_codes = (
        run("verify", "--suite", "quotients", "--n", "2", "--d", "2").returncode == 0
        and run("theta", "--input", str(tmp_path / "missing.json")).returncode == 2
        and run("verify").returncode == 2
    )
    bad = dict(point.to_json())
    bad["maps"] = dict(bad["maps"])
    bad["maps"]["j:1"] = {"rows": 1, "cols": 1, "entries": [["1/1"]]}
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(bad))
    exit_codes = exit_codes and run("theta", "--input", str(bad_file)).returncode == 1
    ok = identical and exit_codes
    announce(8, ok, f"byte-identical reruns on {len(commands)} commands; exit-code contract holds")
