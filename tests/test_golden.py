"""Golden ledger: a fixed `asymcsit run` must keep writing the same bytes.

A change that claims to leave the outputs `==` is checked here instead of
by a one-off comparison script.  `ledger.csv` rounds to 12 significant
digits, so the `schemes` section of `report.json`, written at full float
precision, is pinned too, and so are estimate_dof and evaluate_plan at
shapes whose decode chunks span many slots or end part-full.  Those three
digests were recorded with numpy 2.4.6.  The plan builders are pinned as
well (BUILDS_SHA256), which needs no numpy at all.
Another numpy version may draw or round differently (NEP 19 lets Generator
streams change between versions), so after a numpy upgrade a mismatch
means checking and re-recording the digests, not by itself a regression.

numpy picks each float loop at run time by the CPU's x86 level (X86_V2,
X86_V3 = AVX2, X86_V4 = AVX-512), and a loop may round differently from
one level to the next.  So a digest of float outputs that differs between
levels is recorded at each of them, keyed by dispatch_level(), and read
with recorded(); the lower levels were recorded on an AVX-512 machine with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (X86_V3) and
"X86_V3 X86_V4 AVX512_ICL AVX512_SPR" (X86_V2).  LEDGER_SHA256 reads the
same at all three.
"""

import hashlib
import json

import pytest

from asymcsit import (
    PRESET_NAMES,
    CsitQuality,
    SchemeConditionError,
    SnrPoint,
    build_case_ii,
    build_preset,
    cli,
    estimate_dof,
    evaluate_plan,
    plan_as_dict,
)


def dispatch_level() -> str:
    """The highest x86 level that numpy reports enabled in this process,
    after NPY_DISABLE_CPU_FEATURES ("none" off x86 or below X86_V2)."""
    from numpy._core._multiarray_umath import __cpu_features__

    return next((level for level in ("X86_V4", "X86_V3", "X86_V2") if __cpu_features__.get(level)), "none")


def recorded(digests: dict[str, str]) -> str:
    """The digest recorded at this process's dispatch level; a level with
    none recorded fails the test that asks."""
    level = dispatch_level()
    if level not in digests:
        pytest.fail(f"no digest recorded at numpy dispatch level {level}")
    return digests[level]


LEDGER_SHA256 = "2135ef6083e6d2e762bcc2034965a1fec6ede6a728d594d6988ea812e8d9f930"
SCHEMES_SHA256 = {
    "X86_V4": "04a8147f1a42de3a3fbf7c4326f7d24f647effe8238a742f17ac4037a2bda5c6",
    "X86_V3": "04a8147f1a42de3a3fbf7c4326f7d24f647effe8238a742f17ac4037a2bda5c6",
    "X86_V2": "fcc544afc2f98730f7adb0867482ea7b55eaf4ee3ecd3c8c02ba48b3bce62614",
}


def test_run_ledger_is_byte_identical(tmp_path, capsys):
    rc = cli.main([
        "run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "case-ii,sc-zf,ges12-asym",
        "--trials", "200", "--cycles", "5", "--seed", "7", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert rc == 0
    assert hashlib.sha256((tmp_path / "ledger.csv").read_bytes()).hexdigest() == LEDGER_SHA256


def test_run_report_schemes_are_identical(tmp_path, capsys):
    rc = cli.main([
        "run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "case-ii,sc-zf,ges12-asym",
        "--trials", "200", "--cycles", "5", "--seed", "7", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert rc == 0
    schemes = json.loads((tmp_path / "report.json").read_text())["schemes"]
    assert hashlib.sha256(json.dumps(schemes, sort_keys=True).encode()).hexdigest() == recorded(SCHEMES_SHA256)


# (cycles, trials) of case-ii (0.3, 0.5) whose decode chunks span many
# slots (51 per chunk at (100, 20)) or end part-full (one point's 24 slots
# go 15 at a time at (7, 257); at (1, 1) a chunk has room for more slots
# than the plan's 6), with every output at full precision
CHUNK_SHAPES = ((100, 20), (7, 257), (1, 1))
CHUNKS_SHA256 = {
    "X86_V4": "2c1cf519949e4144cea0585baaa72842a605fac6bfb1375d3de94d681dfecde3",
    "X86_V3": "f672855e97898b098088f646fcfc8ad279b83a23f0d81176fa2b788ce1b99fc4",
    "X86_V2": "61522a79b0aeef0e3268833d0cb862b2c6f79c7c7f13786f65da8bb38fa62b9f",
}


def test_chunk_spanning_outputs_are_identical():
    quality = CsitQuality(0.3, 0.5)
    grid = [SnrPoint.from_db(db, quality) for db in (60.0, 80.0, 100.0, 120.0)]
    outputs = []
    for n_cycles, n_trials in CHUNK_SHAPES:
        plan = build_case_ii(quality, n_cycles)
        est = estimate_dof(plan, grid, n_trials, seed=7)
        ledger = evaluate_plan(plan, grid[1], n_trials, seed=7)
        outputs.append((est, ledger.per_symbol_rate, ledger.user_rate, ledger.user_rate_stderr,
                        ledger.channel_uses, ledger.link_delivered, ledger.link_noise))
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == recorded(CHUNKS_SHA256)


# every preset at 1-3 cycles over the alpha1 <= alpha2 pairs of tenths and
# quarters: alpha = 0 and 1, alpha1 = alpha2, and the 2*alpha2 - alpha1 = 1
# line, where (0.4, 0.7) rounds to just below 1 and routes to case-ii
BUILD_ALPHAS = sorted({i / 10 for i in range(11)} | {0.25, 0.75})
BUILDS_SHA256 = "295c9962678d82bd56b35c5bf0b399b2316871b3e337b7e775970cfc11a281b5"


def test_preset_builds_are_identical():
    digest = hashlib.sha256()
    for a2 in BUILD_ALPHAS:
        for a1 in (a for a in BUILD_ALPHAS if a <= a2):
            for name in PRESET_NAMES:
                for n_cycles in (1, 2, 3):
                    try:
                        plan = build_preset(name, CsitQuality(a1, a2), n_cycles)
                        text = repr(plan) + json.dumps(plan_as_dict(plan), sort_keys=True)
                    except SchemeConditionError as exc:
                        text = f"SchemeConditionError: {exc}"
                    digest.update(text.encode())
    assert digest.hexdigest() == BUILDS_SHA256


def test_a_level_with_no_recorded_digest_fails():
    with pytest.raises(pytest.fail.Exception, match="no digest recorded at numpy dispatch level"):
        recorded({})
