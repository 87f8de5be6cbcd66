"""Golden outputs: SHA-256 digests of ``run``, ``analyze`` and ``selftest``
output, and of the automaton path's relation and probabilities.

Any change that moves a bit of a scenario table, an ``analyze`` file (at
one worker thread or two) or a sampled relation fails here.  A change that moves them on purpose
updates the digests and says in CHANGES.md which outputs moved and why.
"""

import hashlib
import json

import pytest

from colreg_risk import (
    StateUncertainty,
    estimate_behavioral_relation,
    estimate_probabilities,
    run_once,
    run_trace,
)
from colreg_risk.cli import bundled_config_path, main
from colreg_risk.sampling import draw_pair

from scenarios import DIAG, OWN_2, TARGET_2, ZONE

# run --samples 5000 --seed 3: (stdout, CSV) per bundled config.
_RUN_DIGESTS = {
    "scenario1": ("570112fc3620dacb63c48df7ea882c1ea81a4625c5bf250204dd84be020aefcf",
                  "9b473dc9aa504a65de598ce30a682c80a465ae74e5705b1dd925d7d63351c27b"),
    "scenario2": ("f27d70d692ab40591471f32b77e411f5a87f0a631b9d27cb7ad70e2f1d1f281a",
                  "0a36f243ac74af6a1fb91409a0adb490404052794d7a020b520d242fd21e174b"),
    "scenario3": ("91506859728da6e0da3d3d25db1fbb51b47ea6789a4069d12c372cea3601eabe",
                  "5751f6e1299c6d7a3559bda654e1e1d297248b5e2cb7ee08ca4740d1481aec2c"),
}
# The same run for scenario 3 with own_diag = diag: the bundled configs all
# know the own ship exactly, so only this one draws and maps both vessels.
_BOTH_UNCERTAIN_DIGESTS = (
    "db237f5f3fdd6081d4e97d93569448eaf1b93a6c8c896cfc43876fa81d67cbc2",
    "0dff81cd00d0c69be79cff206b0fe3af977ddaeca7ee74f6314974cac614ae34",
)
# Scenario 2 with an exactly known own ship, 2000 clamped draws at seed 7:
# the relation's counts and visits, then the run strings' probabilities.
_AUTOMATON_DIGEST = "307734274025970c577bd5a513eac8983f178601436efc1231e34e260774866b"
_SELFTEST_DIGEST = "56091e3b8e4fcbcddcadbec35eb45c092fd08912689d7a0647f3862ea25f6bfc"

# analyze --bearings 0,90 --samples 400 --seed 5: every file it writes.  The
# buffer files are the same under each selector; the curves and
# bandwidths.csv are the selector's own.
_ANALYZE_BUFFER_DIGESTS = {
    "bearing_0.csv": "3ae6e2cb77ad4a6f5049cfb86975cd9fa764eb0e62bea58470515a4b566b5935",
    "bearing_90.csv": "ecce5a46c356d78dcdcfb1319afad67e3cbeb0f246199b76d7f32d0c9ac010ea",
    "dcpa_0.csv": "ff7f61bdc324ffb6df35d689b20950935f43f5acea48fc0055657f4564f3f50c",
    "dcpa_90.csv": "5abd4a82b727354ec4b44811e66b91dd6e792cadee12b0826ccf660f182eaeb9",
    "tcpa_0.csv": "7ddcb83c40da1796a3e038ba7f078f7353fc709ffecbec6348f126a03f003dbe",
    "tcpa_90.csv": "1658a4d1236ba311591901c69d02a3e5e172039e4ee4a90d1933613458d0eaa3",
}
_ANALYZE_DENSITY_DIGESTS = {
    "isj": {
        "bandwidths.csv": "ae93bf8208a026995ace5c9a452373211a696acf2585a9edc3bcd2e420538dba",
        "kde_bearing_0.csv": "3fa0912fde6ba9fc6eab215ec3e28b3558e4fe776f96efa5d262c822cbce1350",
        "kde_bearing_90.csv": "d8113e103e33578fce629bc781979cbe2c3447ea06da3b1371a9948a5ac49abd",
        "kde_dcpa_0.csv": "a56633da33dbd03aeac5a1d55e6ee26d4c7626dce3dfd060406f5eb532c73e65",
        "kde_dcpa_90.csv": "dd357ef8ed93830ed3723008dbed756d04c71f91f922701204ba557a987a3eb9",
        "kde_tcpa_0.csv": "ccecc8c2d7c31b2e3739ca2e048e53f4b90c5ceeb9d32b131f145ec5069279b3",
        "kde_tcpa_90.csv": "659271ebb4a89b7ba48c5216b2bfcc4b9a9565ba8bdd739079d4b04b3f8a989d",
    },
    "grid": {
        "bandwidths.csv": "aec4000f7325f96278d14d9e2ec9481c406fd380963b91e3bc8e8f3053e36e7d",
        "kde_bearing_0.csv": "e680fe4618ef4b8c30ac81fcaeac3226e7dd8160eec0a1a996b38619609137ee",
        "kde_bearing_90.csv": "5d9d2586bf7f5f90ac76527882f6a3ed030345402648ba7224ed5367fb11b249",
        "kde_dcpa_0.csv": "c06d88ac265709069d99fb7f847a158b1660c5366c3b49e84bb637f17e1d0697",
        "kde_dcpa_90.csv": "d9d78c158c5f8f5f21269e541afda8f0608082ec057480a994de52c61b176129",
        "kde_tcpa_0.csv": "70549df24ee00ef5177554397c081513692a6e8a545b8946ab25083988507a29",
        "kde_tcpa_90.csv": "e97ad5f4583f84ba6eef48e411a1d820283d65a02924a665a3f318d1c9186658",
    },
}


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


@pytest.mark.parametrize("threads", ["1", "2"])
def test_both_uncertain_run_keeps_its_bits(threads, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLREG_RISK_THREADS", threads)
    raw = json.loads(bundled_config_path("scenario3").read_text())
    raw["own_diag"] = raw["diag"]
    config = tmp_path / "both_uncertain.json"
    config.write_text(json.dumps(raw))
    csv = tmp_path / "table.csv"
    assert main(["run", "--config", str(config), "--samples", "5000", "--seed", "3",
                 "--csv", str(csv)]) == 0
    stdout = capsys.readouterr().out
    assert (_sha256(stdout.encode()), _sha256(csv.read_bytes())) == _BOTH_UNCERTAIN_DIGESTS


def test_selftest_output_keeps_its_bits(capsys):
    assert main(["selftest"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == _SELFTEST_DIGEST


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("selector", sorted(_ANALYZE_DENSITY_DIGESTS))
def test_analyze_output_keeps_its_bits(selector, threads, tmp_path, monkeypatch):
    # File contents only: stdout names the output directory.
    monkeypatch.setenv("COLREG_RISK_THREADS", threads)
    out_dir = tmp_path / "study"
    assert main(["analyze", "--bearings", "0,90", "--samples", "400", "--seed", "5",
                 "--bandwidth", selector, "--out", str(out_dir)]) == 0
    digests = {path.name: _sha256(path.read_bytes()) for path in out_dir.iterdir()}
    assert digests == {**_ANALYZE_BUFFER_DIGESTS, **_ANALYZE_DENSITY_DIGESTS[selector]}


def test_automaton_path_keeps_its_bits():
    batch = draw_pair(OWN_2, StateUncertainty(0.0, 0.0, 0.0, 0.0), TARGET_2,
                      StateUncertainty(*DIAG), 2000, seed=7, clamp_speed=True)
    rows = list(zip(batch.states_j.as_states(), batch.states_k.as_states()))
    rel = estimate_behavioral_relation(run_trace(j, k, ZONE) for j, k in rows)
    a = estimate_probabilities((run_once(j, k, ZONE) for j, k in rows), seed=7)
    text = repr((list(rel.counts.items()), list(rel.visits.items()),
                 (a.p_risk, a.p_tcpa_window, list(a.p_rule.items()), a.p_give_way,
                  a.p_stand_on, a.method, a.n_samples, a.seed)))
    assert _sha256(text.encode()) == _AUTOMATON_DIGEST
