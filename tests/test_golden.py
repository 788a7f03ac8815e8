"""Golden ledger: a fixed `asymcsit run` must keep writing the same bytes.

A change that claims to leave the outputs `==` is checked here instead of
by a one-off comparison script.  The digest was recorded with numpy 2.4.6.
Another numpy version may draw or round differently (NEP 19 lets Generator
streams change between versions), so after a numpy upgrade a mismatch
means checking and re-recording the digest, not by itself a regression.
"""

import hashlib

from asymcsit import cli

LEDGER_SHA256 = "2135ef6083e6d2e762bcc2034965a1fec6ede6a728d594d6988ea812e8d9f930"


def test_run_ledger_is_byte_identical(tmp_path, capsys):
    rc = cli.main([
        "run", "--alpha1", "0.3", "--alpha2", "0.5", "--schemes", "case-ii,sc-zf,ges12-asym",
        "--trials", "200", "--cycles", "5", "--seed", "7", "--out-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert rc == 0
    assert hashlib.sha256((tmp_path / "ledger.csv").read_bytes()).hexdigest() == LEDGER_SHA256
