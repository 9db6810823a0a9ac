import json
from pathlib import Path

import numpy as np

import episode_digest

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def episode_arrays(name, cost, power, bits, u, theta):
    return {f"{name}|cost": np.array(cost), f"{name}|power": np.array(power),
            f"{name}|bits": np.array(bits), f"{name}|u": np.array(u),
            f"{name}|theta": np.array(theta).reshape(-1, 2)}


def test_deviations_cover_the_common_slots_and_list_flips():
    # the new run decided one slot fewer; slot 1 changed cost, u and
    # agent 1's bit, whose theta crossed P_on = 0.5
    old = episode_arrays("ep", [1.0, 2.0, 3.0], [0.0, 4.0, 1.0],
                         [[0, 0], [1, 0], [1, 1]],
                         [[[0.0], [0.0]], [[2.0], [0.0]], [[1.0], [1.0]]],
                         [0.1, 0.2, 0.9, 0.4, 0.8, 0.8])
    new = episode_arrays("ep", [1.0, 2.2], [0.0, 4.0],
                         [[0, 0], [1, 1]], [[[0.0], [0.0]], [[2.0], [-1.0]]],
                         [0.1, 0.2, 0.9, 0.6])
    worst, flips = episode_digest.deviations("ep", old, new, 0.5)
    assert np.isclose(worst[0], 0.2 / 2.2)
    assert worst[1] == 0.0
    assert worst[2] == 1.0       # agent 1's u went from 0 to -1
    assert len(flips) == 1
    t, m, before, after = flips[0]
    assert (t, m) == (1, 1)
    assert np.isclose(before, -0.1) and np.isclose(after, 0.1)


def test_deviations_without_thresholds_report_nan():
    old = episode_arrays("b", [1.0], [1.0], [[1, 0]], [[[1.0], [0.0]]], [])
    new = episode_arrays("b", [1.0], [1.0], [[1, 1]], [[[1.0], [1.0]]], [])
    _, flips = episode_digest.deviations("b", old, new, 0.0)
    assert len(flips) == 1 and np.isnan(flips[0][2]) and np.isnan(flips[0][3])


def test_certified_total_sums_every_episode_on_both_sides():
    # an episode only one side has counts on that side; a baseline entry
    # without the field counts 0
    stored = {"a": {"certified_slots": 3}, "b": {"certified_slots": 0},
              "gone": {"certified_slots": 5}, "base": {"digest": "x"}}
    current = {"a": {"certified_slots": 7}, "b": {"certified_slots": 2},
               "new": {"certified_slots": 1}, "base": {"digest": "x"}}
    assert (episode_digest.certified_total(stored, current)
            == "certified slots over all episodes: 8 -> 10")


def test_compare_names_a_changed_cli_file(tmp_path, monkeypatch, capsys):
    # one stand-in episode; the CLI set runs for real, and a rerun of it
    # is byte-identical
    monkeypatch.setattr(episode_digest, "compute", lambda: (
        {"ep": {"digest": "a", "certified_slots": 1}}, {}, {"ep": 0.0}))
    path = tmp_path / "digests.json"
    assert episode_digest.main(["--write", str(path)]) == 0
    assert episode_digest.main(["--compare", str(path)]) == 0
    stored = json.loads(path.read_text(encoding="utf-8"))
    n_files = sum(key.startswith("cli/") for key in stored)
    assert n_files == 18
    stored["cli/run-ring/metrics.csv"]["digest"] = "0" * 64
    path.write_text(json.dumps(stored), encoding="utf-8")
    capsys.readouterr()
    assert episode_digest.main(["--compare", str(path)]) == 1
    out = capsys.readouterr().out
    assert "changed cli/run-ring/metrics.csv\n" in out
    assert f"1 of {n_files} CLI output files differ" in out
    assert "0 of 1 episode digests differ" in out


def test_outputs_match_committed_digests(capsys):
    # the output gate: every episode and CLI file digest of the committed
    # baseline. Digests are bit-exact, so a mismatch on another numpy or
    # BLAS is real too; the answer is a deliberate re-baseline with
    # episode_digest.py --write, never a skip
    code = episode_digest.main(["--compare", str(DIGESTS)])
    report = capsys.readouterr().out
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert code == 0, (
        f"outputs differ from {DIGESTS.name}:\n{report}"
        f"digests written with {recorded.get(episode_digest.ENVIRONMENT)}, "
        f"running {episode_digest.environment()}")
