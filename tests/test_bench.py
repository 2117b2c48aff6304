"""The micro-benchmark harness: ``python -m repro.bench`` and ``repro bench``."""

import json
import re

import pytest

from repro import bench
from repro.cli import main as cli_main

MICRO_ROWS = {
    "drbg_random_bytes", "hmac_sha256_128b",
    "aes_encrypt_block", "aes_decrypt_block",
    "ticket_seal", "ticket_issue", "ticket_open",
    "cbc_encrypt_1k", "cbc_decrypt_1k", "rsa_sign",
    "ec_base_mult_secp128r1", "ec_scalar_mult_secp128r1",
    "ec_base_mult_secp256r1", "ec_scalar_mult_secp256r1",
    "ec_keygen_p256", "record_to_json",
    "full_handshake", "abbreviated_handshake",
}


@pytest.fixture(scope="module")
def micro():
    return bench.run_micro(0.002)


def test_every_micro_row_reports_positive_throughput(micro):
    assert set(micro) == MICRO_ROWS
    for name, stats in micro.items():
        assert stats["ops_per_sec"] > 0, name
        assert stats["iterations"] >= 1, name


def test_main_writes_micro_only_json(tmp_path, monkeypatch, micro, capsys):
    windows = []

    def fake_run_micro(seconds):
        windows.append(seconds)
        return micro

    monkeypatch.setattr(bench, "run_micro", fake_run_micro)
    path = tmp_path / "micro.json"
    assert bench.main(["--quick", "--out", str(path)]) == 0
    assert windows == [0.1]
    report = json.loads(path.read_text())
    assert set(report) == {"python", "quick", "micro"}
    assert report["quick"] is True and report["micro"] == micro
    assert not {"e2e", "baseline", "speedup"} & set(report)
    assert "ops/s" in capsys.readouterr().out


def test_harness_has_only_quick_and_out(capsys):
    with pytest.raises(SystemExit):
        bench.main(["--help"])
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == {
        "--help", "--quick", "--out",
    }


@pytest.mark.parametrize("argv, forwarded", [
    (["bench", "--out", "r.json"], ["--out", "r.json"]),
    (["bench", "--quick", "--out", "r.json"], ["--quick", "--out", "r.json"]),
    (["bench"], []),
])
def test_cli_bench_forwards_quick_and_out(monkeypatch, argv, forwarded):
    seen = []
    monkeypatch.setattr(bench, "main", lambda args: seen.append(args) or 0)
    assert cli_main(argv) == 0
    assert seen == [forwarded]
