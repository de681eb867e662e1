import re
from itertools import product

import pytest

from geocrystal import suites
from geocrystal.cartan import a_of_vw, pair_with_coroot, weight_of_vw
from geocrystal.errors import NotInImageError
from geocrystal.flag import s_k_exponent
from geocrystal.quiver import dim_and_sign


def _signs_by_pair(n_max, max_entry):
    """The signs report counts from one library evaluation per (w, v), and
    the number of identity failures found that way."""
    points = checks = bad = 0
    for n in range(2, n_max + 1):
        for w in product(range(max_entry + 1), repeat=n - 1):
            for v in product(range(max_entry + 1), repeat=n - 1):
                try:
                    a = a_of_vw(v, w)
                except NotInImageError:
                    continue
                points += 1
                mu = weight_of_vw(v, w)
                for k in range(1, n):
                    checks += 1
                    bad += pair_with_coroot(mu, k) != a[k - 1] - a[k]
                    bad += s_k_exponent(a, k) != dim_and_sign(v, w, k)[1]
    return points, checks, bad


def test_signs_grid_pinned():
    report = suites.suite_signs(6, 4, 0, 200)
    assert report["grid_points"] == 7874050
    assert report["sign_checks"] == report["bridge_checks"] == 39044390
    assert report["spot_checks"] == 200
    assert report["failures"] == [] and report["pass"] is True


@pytest.mark.parametrize(
    "n_max, max_entry",
    # entries up to 128 do not fit in int8, so the last grid is wider
    [(2, 0), (2, 3), (3, 2), (4, 3), (2, 128)],
)
def test_signs_grid_counts_match_pairwise(n_max, max_entry):
    points, checks, bad = _signs_by_pair(n_max, max_entry)
    report = suites.suite_signs(n_max, max_entry, 0, 5)
    assert bad == 0
    assert report["grid_points"] == points
    assert report["sign_checks"] == report["bridge_checks"] == checks
    assert report["failures"] == []


def test_signs_failures_print_plain_ints(monkeypatch):
    def wrong_cartan(n):
        return tuple(tuple(0 for _ in range(n - 1)) for _ in range(n - 1))

    monkeypatch.setattr(suites, "cartan_matrix", wrong_cartan)
    report = suites.suite_signs(3, 2, 0, 0)
    assert report["pass"] is False
    assert any(
        re.fullmatch(r"bridge n=2 k=1 w=\(\d+,\) v=\(\d+,\)", msg)
        for msg in report["failures"]
    )
    assert any(
        re.fullmatch(r"sign n=3 k=\d w=\(\d+, \d+\) v=\(\d+, \d+\)", msg)
        for msg in report["failures"]
    )
    assert not any("np." in msg for msg in report["failures"])
