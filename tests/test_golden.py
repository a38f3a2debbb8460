"""Frozen output digests: a speed-up must not move a single bit.

Each suite runs ``lselab experiment`` through ``cli.main`` and checks the
sha256 of every file it writes (records CSV, summary CSV and SVGs) and its
exit code against values recorded when the outputs were last known good.
One more digest covers the exit code, stdout and stderr of a sweep of
``eval`` and ``analyze`` calls, and another those of ``analyze`` on long
vectors whose softmax Jacobian rows tie or nearly tie.  A change that alters any of them is a
behaviour change: if it is meant, say so and record the new digests.
"""

import hashlib
import random

import pytest

from lselab.cli import main


def _bf16_input(path) -> None:
    """One 1000-entry vector from a stdlib stream, stable across numpy versions."""
    r = random.Random(7)
    path.write_text(",".join(repr(r.uniform(-30.0, 30.0)) for _ in range(1000)) + "\n")


SUITES = {
    "fp16-50x10-svg": (
        ["--gen", "uniform:-20,20", "--n", "10", "--count", "50", "--seed", "1",
         "--format", "fp16", "--svg", "--log-axes"],
        None,
    ),
    "bfloat16-1x1000-csv": (["--format", "bfloat16"], _bf16_input),
    "fp32-20x50": (
        ["--gen", "uniform:-40,40", "--n", "50", "--count", "20", "--seed", "3",
         "--format", "fp32"],
        None,
    ),
    "custom-30x12": (
        ["--gen", "wide-spread:10", "--n", "12", "--count", "30", "--seed", "4",
         "--format", "custom:t=5,emin=-6,emax=7,subnormals=0"],
        None,
    ),
    # exp(x) for x > 680.7 lands in binades >= 2^982, whose spacing 2^s is
    # 2^972 or more: there 1.5 * 2^(s+52) overflows, so the table rounds in
    # the prescaled domain (see FloatFormat.binade_table).  Exit 1 with 20 lse_shift and 12
    # sm_altshift violations: the shifted bound factors lack the |y| term
    # (ROADMAP item 1), whose fix re-records these digests.
    "custom-emax1023-40x10": (
        ["--gen", "uniform:640,700", "--n", "10", "--count", "40", "--seed", "5",
         "--format", "custom:t=11,emin=-14,emax=1023,subnormals=1"],
        None,
    ),
}

GOLDEN = {
    "fp16-50x10-svg": {
        "exit": 0,
        "run.csv": "226be38485093928911fcd85c966db2e3bb3f2cb7e1018e9b7a447aad8f8f5ad",
        "run_lse_basic.svg": "5ea6871d23d2b993b21351bc1f06944b93d7f669aad21fd4845967e03c35765c",
        "run_lse_shift.svg": "ac63ad93d7e0dee47ba1daa75c2afb9c3bed4a2b351d2c48a41d4f5862767d70",
        "run_sum_dev_basic.svg": "b2be965db9363c56c1497fb05e2392114b952a06aaa4ee795e97ad9d075363be",
        "run_sum_dev_shift.svg": "28e4cc78aef4840bafd946f9d67e82b136318dc0ba9bd6768cabb926df410f12",
        "run_summary.csv": "5b23db1bf6fd6c73791899769c55950de31b8b53ac26718d0c1cb0f9502e0f77",
    },
    "bfloat16-1x1000-csv": {
        "exit": 0,
        "run.csv": "a858f12b0b9db338857519a1b0c63a0bb1e13e6ef930dc35ae8d06fe476d2fe5",
        "run_summary.csv": "b77f69ffc1ccfcc29690216ed0d94c38912d346b550f87860d507982b15cddcc",
    },
    "fp32-20x50": {
        "exit": 0,
        "run.csv": "1b5b0dd1469616dbd641238fd322efcda00a66f3d20d13464e68a51eb82e7152",
        "run_summary.csv": "04728e45d183ad2728b9ffcc5b7b4c86fbdd03bbb1a3e87e01b45cb9a8a3e8b7",
    },
    "custom-30x12": {
        "exit": 0,
        "run.csv": "721fcf95c8be2d1e5f653954394b7d396e9c7937accb28db2790647b28e5998c",
        "run_summary.csv": "a1cd1be7d2b79c4899cfe7b6bf1062a3c35230bc434d16f104469b415c7cfb8d",
    },
    "custom-emax1023-40x10": {
        "exit": 1,
        "run.csv": "484331a9baefbd8c944ccb1b118f2f88f6b4d6df664560fa1c4e1cc0df23a410",
        "run_summary.csv": "d292f3d1e6fbcdee4b50a1ff6deda0aa9b9f81692e32e29d0cf80fe9d7a17796",
    },
}


@pytest.mark.parametrize("suite", SUITES)
def test_experiment_outputs_match_frozen_digests(suite, tmp_path, capsys):
    args, make_input = SUITES[suite]
    argv = ["experiment", *args, "--out", str(tmp_path / "run")]
    if make_input is not None:
        make_input(tmp_path / "in.csv")
        argv += ["--csv", str(tmp_path / "in.csv")]
    code = main(argv)
    capsys.readouterr()
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.glob("run*"))
    }
    assert {"exit": code, **digests} == GOLDEN[suite]


def _long_vector() -> str:
    """512 entries from a stdlib stream, stable across numpy versions."""
    r = random.Random(11)
    return ",".join(repr(r.uniform(-30.0, 30.0)) for _ in range(512))


# -800: the basic sum underflows to zero, so eval raises flags whose sorted
# order differs from the order the kernel sets them in
SINGLE_VECTORS = ["1,-1", "7.40625,7.83984375", "-0.0,0.0", "1e308,-1e308", "5", "-800",
                  _long_vector()]
EVAL_FORMATS = ["fp16", "bfloat16", "fp32", "fp64", "custom:t=5,emin=-6,emax=7,subnormals=0"]
EVAL_ANALYZE_SHA256 = "1f834f9b020cb211d33b52d4ca5254896b418dc7e7edbe436e2697f7770e5519"


def test_eval_and_analyze_outputs_match_frozen_digest(capsys):
    calls = [
        ["eval", "--alg", alg, "--format", fmt, f"--x={x}", *json]
        for x in SINGLE_VECTORS
        for fmt in EVAL_FORMATS
        for alg in ("basic", "shifted", "alt-basic", "alt-shifted")
        for json in ([], ["--json"])
    ]
    calls += [["analyze", f"--x={x}", *json] for x in SINGLE_VECTORS for json in ([], ["--json"])]
    h = hashlib.sha256()
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        h.update(f"{code}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == EVAL_ANALYZE_SHA256


def _stress_vectors() -> list[str]:
    """512-entry vectors from stdlib streams: a constant (every g_i equal),
    two values (two distinct g_i), one entry at 0 with the rest at
    -745...-40 (their g tiny, subnormal or 0, and 1 - g_0 far below u, so
    only the pivot-zeroed sum gives it) and uniform(-800, 800)."""
    r = random.Random(13)
    vectors = [[2.5] * 512, [r.choice((1.25, -3.0)) for _ in range(512)]]
    vectors.append([0.0] + [r.uniform(-745.0, -40.0) for _ in range(511)])
    vectors.append([r.uniform(-800.0, 800.0) for _ in range(512)])
    return [",".join(map(repr, v)) for v in vectors]


ANALYZE_STRESS_SHA256 = "1aa3a9b178242b14b9d1cced9344355352e782095363febd5463d91d204e7ac9"


def test_analyze_on_long_stress_vectors_matches_frozen_digest(capsys):
    h = hashlib.sha256()
    for x in _stress_vectors():
        for json in ([], ["--json"]):
            code = main(["analyze", f"--x={x}", *json])
            out, err = capsys.readouterr()
            h.update(f"{code}\0{out}\0{err}\0".encode())
    assert h.hexdigest() == ANALYZE_STRESS_SHA256
