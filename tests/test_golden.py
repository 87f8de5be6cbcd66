"""Golden outputs: SHA-256 digests of ``run`` and ``selftest`` output.

Any change that moves a bit of a scenario table, at one worker thread or
two, fails here.  A change that moves them on purpose updates the digests
and says in CHANGES.md which outputs moved and why.
"""

import hashlib

import pytest

from colreg_risk.cli import bundled_config_path, main

# run --samples 5000 --seed 3: (stdout, CSV) per bundled config.
_RUN_DIGESTS = {
    "scenario1": ("570112fc3620dacb63c48df7ea882c1ea81a4625c5bf250204dd84be020aefcf",
                  "9b473dc9aa504a65de598ce30a682c80a465ae74e5705b1dd925d7d63351c27b"),
    "scenario2": ("f27d70d692ab40591471f32b77e411f5a87f0a631b9d27cb7ad70e2f1d1f281a",
                  "0a36f243ac74af6a1fb91409a0adb490404052794d7a020b520d242fd21e174b"),
    "scenario3": ("91506859728da6e0da3d3d25db1fbb51b47ea6789a4069d12c372cea3601eabe",
                  "5751f6e1299c6d7a3559bda654e1e1d297248b5e2cb7ee08ca4740d1481aec2c"),
}
_SELFTEST_DIGEST = "56091e3b8e4fcbcddcadbec35eb45c092fd08912689d7a0647f3862ea25f6bfc"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(_RUN_DIGESTS))
def test_run_output_keeps_its_bits(name, threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLREG_RISK_THREADS", threads)
    csv = tmp_path / "table.csv"
    assert main(["run", "--config", str(bundled_config_path(name)), "--samples", "5000",
                 "--seed", "3", "--csv", str(csv)]) == 0
    stdout = capsys.readouterr().out
    assert (_sha256(stdout.encode()), _sha256(csv.read_bytes())) == _RUN_DIGESTS[name]


def test_selftest_output_keeps_its_bits(capsys):
    assert main(["selftest"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == _SELFTEST_DIGEST
