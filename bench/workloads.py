"""The three benchmark workloads.

Each workload is a closed loop with one client: operation i of an endless,
seed-determined sequence runs only after operation i - 1 has returned.  A
workload object is built from the seed (input generation), warmed up, and
then serves ``run(i)``, which returns ``(error, output)``: ``error`` is None
when every check on the operation passed, else a one-line reason.  The
outputs of the first ``reference_ops`` operations feed the output digest and
are the fixed operation list of the traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import product
from math import gcd

from geocrystal import cli, maffei, quiver, repalg, suites
from geocrystal import crystal as crystal_mod
from geocrystal.cartan import HighestWeight, hw_to_partition
from geocrystal.errors import SampleExhaustedError


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ---------------------------------------------------------------------------
# maffei-mix: criteria 3 and 4
# ---------------------------------------------------------------------------


def _stride(length: int) -> int:
    """The step coprime to length that is nearest above 0.618 * length."""
    step = max(1, round(0.618 * length))
    while gcd(step, length) != 1:
        step += 1
    return step


class MaffeiMix:
    """One operation samples a stable Lagrangian point and checks it.

    Operations take the acceptance configs in turn (op i uses config i mod 8).
    Like suite_maffei, each config cycles through all its dimension vectors,
    one per round, but with a stride near 0.618 of the cycle length: any
    stretch of rounds then samples shallow and deep strata alike, so the mix
    of a run does not drift toward deeper (slower) strata the longer it runs,
    and a faster or slower machine sees the same mix.  The seed only picks the
    sampler seeds.
    """

    name = "maffei-mix"
    reference_ops = 64

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.configs = []
        for n, w in suites.ACCEPTANCE_MAFFEI_CONFIGS:
            vs = suites.valid_dimvecs(w)
            self.configs.append((n, w, maffei.ThetaContext(w), vs, _stride(len(vs))))

    def _sample_seed(self, config: int, round_: int) -> int:
        return self.seed * 1_000_003 + 1000 * config + round_ + 1

    def _check(self, config: int, v, sample_seed: int):
        n, w, ctx, _, _ = self.configs[config]
        try:
            r = quiver.sample_lambda_point(v, w, sample_seed)
        except SampleExhaustedError as exc:
            return f"sampler exhausted: {exc}", None
        if r.v.v != tuple(v) or r.w.w != tuple(w):
            return f"sampled v={r.v.v}, w={r.w.w}; asked for v={v}, w={w}", None
        result = suites.check_theta_point(r, ctx, random.Random(sample_seed))
        if result["failures"]:
            return f"n={n} w={w} v={v}: {result['failures'][0]}", None
        return None, (config, r, result["hecke_cases"])

    def warm_up(self) -> list[str]:
        """One operation per config, on its first dimension vector."""
        errors = []
        for c, (_, _, _, vs, _) in enumerate(self.configs):
            err, _ = self._check(c, vs[0], self._sample_seed(c, -2))
            if err:
                errors.append(err)
        return errors

    def run(self, i: int):
        config, round_ = i % len(self.configs), i // len(self.configs)
        _, _, _, vs, stride = self.configs[config]
        v = vs[round_ * stride % len(vs)]
        return self._check(config, v, self._sample_seed(config, round_))

    trace_run = run

    def digest(self, outputs) -> str:
        """Sampled points as JSON, their flags under theta, Hecke counts."""
        chunks = []
        for config, r, hecke in outputs:
            ctx = self.configs[config][2]
            chunks.append(_dumps(r.to_json()))
            chunks.append(_dumps(maffei.theta(r, ctx).to_json()))
            chunks.append(str(hecke))
        return _sha256(chunks)


# ---------------------------------------------------------------------------
# combinatorics: criteria 1, 2 and 5-7
# ---------------------------------------------------------------------------


def weyl_dim(parts, n: int) -> int:
    """Dimension of the gl_n irreducible with highest weight `parts` (Weyl)."""
    lam = list(parts) + [0] * (n - len(parts))
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def _partitions(d: int, max_parts: int, largest: int | None = None):
    if d == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in _partitions(d - first, max_parts - 1, first):
            yield (first,) + rest


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def reference_dim_Id(n: int, d: int) -> int:
    """dim U/I_d as the sum of squared dimensions of the constituents of
    (Q^n)^(tensor d): one per partition of d with at most n parts."""
    return sum(weyl_dim(lam, n) ** 2 for lam in _partitions(d, n))


# Criterion-6 pairs plus larger ones where repalg does most of the work; (3, 9)
# and (4, 8) take 15-30 s each on a 2-vCPU machine, too long for one operation.
TENSOR_PAIRS = [(n, d) for n in (2, 3, 4) for d in range(1, 7)]
LARGE_TENSOR_PAIRS = [(3, 7), (3, 8), (4, 6), (4, 7)]


class Combinatorics:
    """One operation is one verification item of criteria 1, 2 and 5-7.

    A cycle holds every item once: the 75 crystals of the criterion-5 grid,
    22 tensor-power pairs, the RSK round trip at (3, 3), the sl_3 facts and
    the sign grid.  The five heavy items (four large pairs and the sign grid)
    are spread one to each fifth of the cycle, so any stretch of the cycle
    costs about the same; the seed shuffles the order and seeds the sign
    grid's spot checks.
    """

    name = "combinatorics"

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        light = [("crystal", w) for w in self._crystal_grid()]
        light += [("tensor", pair) for pair in TENSOR_PAIRS]
        light += [("rsk", (3, 3)), ("sl3", None)]
        heavy = [("tensor", pair) for pair in LARGE_TENSOR_PAIRS]
        heavy.append(("signs", seed))
        rng.shuffle(light)
        rng.shuffle(heavy)
        per = -(-len(light) // len(heavy))
        cycle = []
        for k, item in enumerate(heavy):
            chunk = light[k * per : (k + 1) * per]
            chunk.insert(rng.randrange(len(chunk) + 1), item)
            cycle.extend(chunk)
        self.cycle = cycle
        self.reference_ops = len(cycle)

    @staticmethod
    def _crystal_grid():
        for n in range(2, 5):
            for w in product(range(9), repeat=n - 1):
                if HighestWeight(w).level_d <= 8:
                    yield w

    def warm_up(self) -> list[str]:
        errors = []
        for item in (("crystal", (1, 1)), ("tensor", (3, 3)), ("rsk", (3, 3)), ("sl3", None)):
            err, _ = self._item(*item)
            if err:
                errors.append(err)
        return errors

    def run(self, i: int):
        return self._item(*self.cycle[i % len(self.cycle)])

    trace_run = run

    def _item(self, kind, arg):
        if kind == "crystal":
            return self._crystal(arg)
        if kind == "tensor":
            return self._tensor(*arg)
        if kind == "rsk":
            rep = suites.rsk_roundtrip_exhaustive(*arg)
            ok = rep["pass"] and rep["matrices"] == 165
            return (None if ok else f"RSK round trip at {arg}: {rep}"), ("rsk", rep)
        if kind == "sl3":
            rep = repalg.verify_sl3_example()
            values = {f["name"]: f["value"] for f in rep["facts"]}
            ok = rep["pass"] and values.get("dim U/I_3") == 165 and values.get("dim U/J_(1,1)") == 65
            return (None if ok else f"sl_3 facts: {values}"), ("sl3", rep)
        rep = suites.suite_signs(n_max=6, max_entry=4, seed=arg, spot_checks=200)
        ok = (
            rep["pass"]
            and rep["sign_checks"] > 0
            and rep["sign_checks"] == rep["bridge_checks"]
            and rep["spot_checks"] == 200
        )
        return (None if ok else f"sign grid: {rep['failures'][:1]}"), ("signs", rep)

    def _crystal(self, w):
        hw = HighestWeight(w)
        n = hw.n
        lam = hw_to_partition(hw)
        g = crystal_mod.highest_weight_crystal(hw)
        tag = f"crystal w={w}"
        stembridge = crystal_mod.stembridge_verify(g)
        if not stembridge.ok:
            return f"{tag}: Stembridge: {stembridge.violation}", None
        if len(g) != weyl_dim(lam.parts, n):
            return f"{tag}: {len(g)} vertices, Weyl dimension differs", None
        for a in _compositions(hw.level_d, n):
            if crystal_mod.weight_multiplicity(g, a) != repalg.kostka(lam, a):
                return f"{tag}: multiplicity at a={a} != Kostka", None
        for k in range(1, n):
            strata = crystal_mod.strata_maps(g, k)
            if not strata.ok:
                return f"{tag}: strata at k={k}: {strata.violation}", None
        return None, ("crystal", g)

    def _tensor(self, n, d):
        dec = repalg.decompose_tensor(n, d)
        if dec.total != n**d:
            return f"tensor ({n},{d}): total {dec.total} != {n**d}", None
        dim_id = repalg.dim_quotient_Id(n, d)
        msum = suites.margin_sum(n, d)
        expected = reference_dim_Id(n, d)
        if not dim_id == msum == expected:
            return f"tensor ({n},{d}): dim U/I_d {dim_id}, margin sum {msum}, expected {expected}", None
        return None, ("tensor", dec)

    def digest(self, outputs) -> str:
        """Crystal JSON, decomposition JSON and the suite reports."""
        chunks = []
        for kind, payload in outputs:
            if kind == "crystal":
                chunks.append(_dumps(crystal_mod.crystal_to_json(payload)))
            elif kind == "tensor":
                chunks.append(_dumps(payload.to_json()))
            else:
                chunks.append(_dumps(payload))
        return _sha256(chunks)


# ---------------------------------------------------------------------------
# cli-replay: criterion 8
# ---------------------------------------------------------------------------


class CliReplay:
    """One operation is one ``python -m geocrystal ...`` subprocess.

    Set-up samples one point per acceptance config, at the middle of its
    dimension-vector cycle, and stores it as JSON.  The argv cycle is a
    `theta --input` per point plus one `crystal --format dot` and one
    `verify --suite quotients --n 3 --d 3`.  Every stdout must equal, byte
    for byte, what `cli.main` printed in-process on the same argv during
    set-up, and every exit code must be 0.
    """

    name = "cli-replay"
    spawns_cli = True

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        argvs = []
        for c, (n, w) in enumerate(suites.ACCEPTANCE_MAFFEI_CONFIGS):
            vs = suites.valid_dimvecs(w)
            point = quiver.sample_lambda_point(vs[len(vs) // 2], w, seed * 1_000_003 + 1000 * c)
            path = os.path.join(workdir, f"point-{c}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(point.to_json(), fh, sort_keys=True)
            argvs.append(["theta", "--input", path])
        w_dot = f"{rng.randint(0, 2)},{rng.randint(1, 2)}"
        argvs.append(["crystal", "--n", "3", "--w", w_dot, "--format", "dot"])
        argvs.append(["verify", "--suite", "quotients", "--n", "3", "--d", "3"])
        rng.shuffle(argvs)
        self.argvs = argvs
        self.reference_ops = len(argvs)
        self.expected = []
        for argv in argvs:
            code, out = self.in_process(argv)
            self.expected.append((code, out))
        self.env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    @staticmethod
    def in_process(argv) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue().encode("utf-8")

    def _compare(self, i: int, code: int, out: bytes):
        argv = self.argvs[i % len(self.argvs)]
        exp_code, exp_out = self.expected[i % len(self.argvs)]
        if exp_code != 0:
            return f"in-process {argv[0]} exited {exp_code}", None
        if code != 0:
            return f"{argv[0]} exited {code}", None
        if out != exp_out:
            return f"{argv[0]} stdout differs from in-process cli.main", None
        return None, out

    def warm_up(self) -> list[str]:
        err, _ = self.run(0)
        return [err] if err else []

    def run(self, i: int):
        proc = subprocess.run(
            [sys.executable, "-m", "geocrystal", *self.argvs[i % len(self.argvs)]],
            capture_output=True, env=self.env, timeout=170,
        )
        return self._compare(i, proc.returncode, proc.stdout)

    def trace_run(self, i: int):
        """The same argv through cli.main in the benchmark process."""
        return self._compare(i, *self.in_process(self.argvs[i % len(self.argvs)]))

    def digest(self, outputs) -> str:
        return _sha256(outputs)


WORKLOADS = {cls.name: cls for cls in (MaffeiMix, Combinatorics, CliReplay)}
