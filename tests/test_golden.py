"""Golden ledger: a fixed `asymcsit run` must keep writing the same bytes.

A change that claims to leave the outputs `==` is checked here instead of
by a one-off comparison script.  `ledger.csv` rounds to 12 significant
digits, so the `schemes` section of `report.json`, written at full float
precision, is pinned too.  Both digests were recorded with numpy 2.4.6.
Another numpy version may draw or round differently (NEP 19 lets Generator
streams change between versions), so after a numpy upgrade a mismatch
means checking and re-recording the digests, not by itself a regression.
"""

import hashlib
import json

from asymcsit import cli

LEDGER_SHA256 = "2135ef6083e6d2e762bcc2034965a1fec6ede6a728d594d6988ea812e8d9f930"
SCHEMES_SHA256 = "04a8147f1a42de3a3fbf7c4326f7d24f647effe8238a742f17ac4037a2bda5c6"


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
    assert hashlib.sha256(json.dumps(schemes, sort_keys=True).encode()).hexdigest() == SCHEMES_SHA256
