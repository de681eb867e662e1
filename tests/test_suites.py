import hashlib
import json
import random
import re
from itertools import product

import numpy as np
import pytest
import reference_suites

from geocrystal import crystal, maffei, repalg, suites
from geocrystal.cartan import a_of_vw, cartan_matrix, pair_with_coroot, weight_of_vw
from geocrystal.errors import NotInImageError, SampleExhaustedError
from geocrystal.flag import Flag, flag_dim, s_k_exponent
from geocrystal.linalg import full_space, zero_space
from geocrystal.maffei import ThetaContext
from geocrystal.quiver import dim_and_signs, sample_lambda_point


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
                _, r = dim_and_signs(v, w)
                for k in range(1, n):
                    checks += 1
                    bad += pair_with_coroot(mu, k) != a[k - 1] - a[k]
                    bad += s_k_exponent(a, k) != r[k - 1]
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


def test_signs_reports_unchanged(monkeypatch):
    # whole reports, failure lists included, for three grids under the real
    # Cartan matrix, the zero matrix and the real one with its last diagonal
    # entry raised by 1; the grid alone reads the patched matrix
    def zero(n):
        return tuple(tuple(0 for _ in range(n - 1)) for _ in range(n - 1))

    def raised(n):
        rows = [list(row) for row in cartan_matrix(n)]
        rows[-1][-1] += 1
        return tuple(map(tuple, rows))

    digest = hashlib.sha256()
    failures = []
    for args in [(5, 3, 2, 20), (3, 2, 0, 0), (2, 128, 0, 5)]:
        for cartan in (cartan_matrix, zero, raised):
            monkeypatch.setattr(suites, "cartan_matrix", cartan)
            report = suites.suite_signs(*args)
            failures.append(len(report["failures"]))
            digest.update(json.dumps(report, sort_keys=True).encode() + b"\n")
    assert failures == [0, 20, 8, 0, 6, 4, 0, 2, 2]
    assert digest.hexdigest() == (
        "76654a9f4fe5a6b069f8a4f27295d930e9fd2a0c89681cf34a3ae0d9db4052dc"
    )


@pytest.mark.parametrize("seed", [0, 11])
def test_spot_checks_catch_a_wrong_boundary_sign(monkeypatch, seed):
    # s_k off by one on the six-part compositions (0, ..., 4): the grid never
    # calls s_k_exponent, so only a spot point at that boundary can see it
    def wrong(a, k):
        return s_k_exponent(a, k) + (len(a) == 6 and a[0] == 0 and a[-1] == 4)

    monkeypatch.setattr(suites, "s_k_exponent", wrong)
    report = suites.suite_signs(6, 4, seed, 200)
    assert report["pass"] is False
    assert report["spot_checks"] == 200
    assert report["failures"] and all(
        msg.startswith("spot sign n=6 ") for msg in report["failures"]
    )


def _zero_cartan(n):
    return tuple(tuple(0 for _ in range(n - 1)) for _ in range(n - 1))


def _raised_cartan(n):
    rows = [list(row) for row in cartan_matrix(n)]
    rows[-1][-1] += 1
    return tuple(map(tuple, rows))


def _perturbed_cartans(n_max, count, seed):
    """count Cartan matrix functions, each the real one with one entry of the
    matrix of one n <= n_max moved by +-1 or +-2, drawn with seed."""
    rng = random.Random(seed)
    for _ in range(count):
        at, i, j = rng.randint(2, n_max), rng.randrange(n_max - 1), rng.randrange(n_max - 1)
        delta = rng.choice((-2, -1, 1, 2))

        def perturbed(n, at=at, i=i % (at - 1), j=j % (at - 1), delta=delta):
            rows = [list(row) for row in cartan_matrix(n)]
            if n == at:
                rows[i][j] += delta
            return tuple(map(tuple, rows))

        yield perturbed


@pytest.mark.parametrize(
    "args",
    # the defaults, two smaller grids, a one-chunk grid and the int16 path
    [(6, 4, 0, 200), (5, 3, 2, 20), (4, 3, 1, 30), (3, 2, 0, 0), (2, 128, 0, 5)],
)
def test_signs_match_reference(monkeypatch, args):
    cartans = [cartan_matrix, _zero_cartan, _raised_cartan]
    cartans += _perturbed_cartans(args[0], 6, seed=sum(args))
    failing = 0
    for cartan in cartans:
        monkeypatch.setattr(suites, "cartan_matrix", cartan)
        report = suites.suite_signs(*args)
        assert report == reference_suites.suite_signs(*args, cartan=cartan)
        failing += not report["pass"]
    assert failing >= 2


def test_dim_and_signs_matches_per_k_reference():
    for n in (2, 3, 4):
        for v in product(range(3), repeat=n - 1):
            for w in product(range(3), repeat=n - 1):
                dim_m, r = dim_and_signs(v, w)
                assert len(r) == n - 1
                for k in range(1, n):
                    assert (dim_m, r[k - 1]) == reference_suites.dim_and_sign(v, w, k)


@pytest.mark.parametrize("seed", [0, 5])
def test_passing_sign_op_takes_one_pass_per_chunk(monkeypatch, seed):
    # a passing grid has no raw mismatch, so it never masks a check by the
    # valid points nor records, and each spot point evaluates the quiver side
    # once, whatever its n
    masks = []
    records = []
    spot_calls = []
    logical_and, record, dim_and_signs_ = np.logical_and, suites._record, suites.dim_and_signs

    def counting_logical_and(*args, **kwargs):
        masks.append(args)
        return logical_and(*args, **kwargs)

    def counting_record(failures, msg):
        records.append(msg)
        return record(failures, msg)

    def counting_dim_and_signs(v, w):
        spot_calls.append((v, w))
        return dim_and_signs_(v, w)

    monkeypatch.setattr(np, "logical_and", counting_logical_and)
    monkeypatch.setattr(suites, "_record", counting_record)
    monkeypatch.setattr(suites, "dim_and_signs", counting_dim_and_signs)
    report = suites.suite_signs(6, 4, seed, 200)
    assert report["pass"] is True
    assert masks == [] and records == []
    assert len(spot_calls) == report["spot_checks"] == 200
    # the spies see the mask and the records where the grid fails
    monkeypatch.setattr(suites, "cartan_matrix", _zero_cartan)
    assert suites.suite_signs(3, 2, seed, 0)["pass"] is False
    assert masks and records


@pytest.mark.parametrize("seed", [0, 11])
def test_spot_checks_catch_a_wrong_flag_dimension(monkeypatch, seed):
    # dim F_a off by one on the four-part compositions (0, ...): the grid
    # never reads flag_dim, so only the dimension identity at a spot point
    # can see it
    def wrong(a):
        return flag_dim(a) + (len(a) == 4 and a[0] == 0)

    monkeypatch.setattr(suites, "flag_dim", wrong)
    report = suites.suite_signs(6, 4, seed, 200)
    assert report["pass"] is False
    assert report["grid_points"] == 7874050 and report["spot_checks"] == 200
    assert report["failures"] and all(
        re.fullmatch(r"spot dim n=4 v=\(\d+, \d+, \d+\) w=\(\d+, \d+, \d+\)", msg)
        for msg in report["failures"]
    )


def _spot_points(monkeypatch, *args):
    """The (v, w, a) of every spot point of suite_signs(*args), in order,
    and the report."""
    seen = []

    def recording(v, w):
        a = a_of_vw(v, w)
        seen.append((v, w, a))
        return a

    monkeypatch.setattr(suites, "a_of_vw", recording)
    report = suites.suite_signs(*args)
    assert report["spot_checks"] == len(seen)
    return seen, report


@pytest.mark.parametrize("n_max, max_entry, spot_checks", [(6, 4, 200), (4, 3, 50)])
def test_spot_checks_reach_every_n_and_boundary(monkeypatch, n_max, max_entry, spot_checks):
    seen, _ = _spot_points(monkeypatch, n_max, max_entry, 3, spot_checks)
    assert len(seen) == spot_checks
    for n in range(2, n_max + 1):
        points = [(v, w, a) for v, w, a in seen if len(a) == n]
        assert any(a[0] == 0 and a[-1] == max_entry for _, _, a in points)
        for x in (0, max_entry):
            assert any(x in v for v, _, _ in points)
            assert any(x in w for _, w, _ in points)
    # the boundary points come first; the rest stay uniform over n
    uniform = [len(a) for _, _, a in seen[2 * (n_max - 1) :]]
    assert set(uniform) == set(range(2, n_max + 1))


@pytest.mark.parametrize("spot_checks", [0, 1, 5])
def test_few_spot_checks_take_the_top_boundary_first(monkeypatch, spot_checks):
    seen, report = _spot_points(monkeypatch, 6, 4, 0, spot_checks)
    assert report["spot_checks"] == spot_checks
    assert [tuple(a) for _, _, a in seen] == [
        (0,) + (4,) * (n - 1) for n in range(2, 2 + spot_checks)
    ]


def test_only_not_in_image_is_skipped(monkeypatch):
    # a v outside the image of a(-, w) is skipped; any other error from
    # the weight maps is a fault and must not turn into a pass over zero checks
    def broken(x, w):
        raise TypeError("broken weight map")

    monkeypatch.setattr(suites, "a_of_vw", broken)
    with pytest.raises(TypeError, match="broken weight map"):
        suites.suite_signs(n_max=3, max_entry=2, seed=0, spot_checks=50)
    monkeypatch.setattr(repalg, "v_of_aw", broken)
    with pytest.raises(TypeError, match="broken weight map"):
        suites.valid_dimvecs((1, 1))


def _acceptance_points(per_config):
    """The first sampled points of every acceptance config, with their
    contexts and seeds, as criterion 3 draws them."""
    for idx, (_, w) in enumerate(suites.ACCEPTANCE_MAFFEI_CONFIGS):
        vs = suites.valid_dimvecs(w)
        ctx = ThetaContext(w)
        for a in range(1, per_config + 1):
            seed = 7 + 1000 * idx + a
            yield sample_lambda_point(vs[(a - 1) % len(vs)], w, seed), ctx, seed


def test_theta_point_reports_unchanged():
    # failures, failed invariants, Hecke counts and flags of the first 13
    # points of each acceptance config
    digest = hashlib.sha256()
    for r, ctx, seed in _acceptance_points(13):
        report = suites.check_theta_point(r, ctx, random.Random(seed))
        digest.update(
            json.dumps(
                {
                    "failures": report["failures"],
                    "failed_invariants": sorted(report["failed_invariants"]),
                    "hecke_cases": report["hecke_cases"],
                    "flag": report["flag"].to_json(),
                },
                sort_keys=True,
            ).encode()
        )
    assert digest.hexdigest() == (
        "723686cdfe6bd488c2f65eeb1f69ad590146c83aebf016f8c274dd560c0d77b3"
    )


def _failed_with_flag_reduce(monkeypatch, patched):
    """For each point, the failed invariants when flag_reduce returns
    patched((F_red, c)) of the real (F_red, c), whether patched changed any
    of its results, and whether it changed F_k of any of its flags."""
    real = maffei.flag_reduce
    changed = []
    moved = []

    def flag_reduce(F, x, k):
        out = real(F, x, k)
        new = patched(out)
        changed[-1] |= new != out
        moved[-1] |= new[0][k] != out[0][k]
        return new

    monkeypatch.setattr(maffei, "flag_reduce", flag_reduce)
    out = []
    for r, ctx, seed in _acceptance_points(3):
        changed.append(False)
        moved.append(False)
        report = suites.check_theta_point(r, ctx, random.Random(seed))
        out.append((report["failed_invariants"], changed[-1], moved[-1]))
    return out


def test_epsilon_of_flag_is_the_reduction_multiplicity(monkeypatch):
    # epsilon_k of the flag is read from flag_reduce: a wrong multiplicity
    # fails both invariants that use it, and nothing else
    results = _failed_with_flag_reduce(monkeypatch, lambda out: (out[0], out[1] + 1))
    assert all(changed and not moved for _, changed, moved in results)
    assert all(failed == {"epsilon-agreement", "reduction-intertwining"} for failed, *_ in results)


def _other_flag(F):
    """A flag of F's size that differs from F."""
    spaces = [zero_space(F.d)] + [full_space(F.d)] * F.n
    if list(F.spaces) == spaces:
        spaces[1] = zero_space(F.d)
    return Flag(spaces, F.n)


def test_unreduced_point_is_checked_against_flag_reduce(monkeypatch):
    # where kashiwara_reduce leaves the point as it is (c = 0), theta of the
    # reduction is theta's own flag; a flag_reduce that returns another flag
    # there must still fail the intertwining, and where it moves F_k, the
    # flag-subspace check, which reads F_k of flag_reduce's flag
    results = _failed_with_flag_reduce(
        monkeypatch, lambda out: out if out[1] else (_other_flag(out[0]), 0)
    )
    assert sum(changed for _, changed, _ in results) >= 20
    assert sum(moved for *_, moved in results) >= 15
    for failed, changed, moved in results:
        expected = {"flag-subspace"} if moved else set()
        assert failed == (expected | {"reduction-intertwining"} if changed else set())


def test_suite_maffei_records_point_failures(monkeypatch):
    def check(r, ctx, rng):
        return {"failures": [f"bad {r.v.v}"], "failed_invariants": set(), "hecke_cases": 1}

    monkeypatch.setattr(suites, "check_theta_point", check)
    report = suites.suite_maffei(3, (1, 1), 3, 1)
    assert report["failures"] == ["bad (0, 0)", "bad (0, 1)", "bad (1, 0)"]
    assert (report["points_checked"], report["hecke_cases"]) == (3, 3)
    assert report["pass"] is False


def test_suite_maffei_refuses_w_of_another_rank():
    with pytest.raises(ValueError, match=r"w=\(1, 1\) does not match n=4"):
        suites.suite_maffei(4, (1, 1), 1, 1)


def test_suite_maffei_counts_sampler_exhaustions(monkeypatch):
    real = suites.sample_lambda_point

    def odd_seeds_exhaust(v, w, seed):
        if seed % 2:
            raise SampleExhaustedError(f"no point at seed {seed}")
        return real(v, w, seed)

    # attempt a uses seed 2 + a: attempts 1 and 3 exhaust, 0, 2 and 4 check
    monkeypatch.setattr(suites, "sample_lambda_point", odd_seeds_exhaust)
    report = suites.suite_maffei(3, (1, 1), 3, 1)
    assert (report["points_checked"], report["sampler_exhaustions"]) == (3, 2)
    assert report["pass"] is True

    def always_exhaust(v, w, seed):
        raise SampleExhaustedError(f"no point at seed {seed}")

    monkeypatch.setattr(suites, "sample_lambda_point", always_exhaust)
    report = suites.suite_maffei(3, (1, 1), 3, 1)
    assert (report["points_checked"], report["sampler_exhaustions"]) == (0, 12)
    assert report["failures"] == [] and report["pass"] is False


@pytest.mark.parametrize(
    "module, name, replacement, first_failure",
    [
        (crystal, "stembridge_verify",
         lambda g: crystal.StembridgeReport(False, len(g), 0, "broken"),
         "(n=2, w=(0,)): Stembridge: broken"),
        (repalg, "irrep_dim", lambda lam, n: 0, "(n=2, w=(0,)): |B(w)| = 1 != 0"),
        (repalg, "kostka", lambda lam, a: -1, "(n=2, w=(0,)): multiplicity at a=(0, 0) != Kostka"),
        (crystal, "strata_maps",
         lambda g, k: crystal.StrataReport(False, len(g), {}, "broken"),
         "(n=2, w=(0,)): strata at k=1: broken"),
    ],
    ids=["stembridge", "vertex-count", "multiplicity", "strata"],
)
def test_suite_crystal_records_each_check(monkeypatch, module, name, replacement, first_failure):
    monkeypatch.setattr(module, name, replacement)
    report = suites.suite_crystal(n_max=3, level_max=1)
    assert report["crystals"] == 4
    assert report["failures"][0] == first_failure
    assert report["pass"] is False
