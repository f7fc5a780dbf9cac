"""``scripts/bench_pairs.py``: output identity per pair, the bound check, the
resolved-gain check, the per-call minima, the commits and source line counts
compared and the exit code."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def bench_pairs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(outputs, correct):
    """A ``run_bench`` stand-in: fixed metrics and per-call walls,
    per-checkout output hashes."""
    def run_bench(checkout, workload, seed, seconds):
        result = {"correct": correct(checkout.name, seed),
                  "metrics": {"wall_s": {"value": 1.0 if checkout.name == "parent" else 0.5}}}
        walls = [0.9, 1.0, 1.1] if checkout.name == "parent" else [1.5, 0.5, 1.0]
        detail = {"workload": workload, "machine": {"nproc": 1}, "wall_samples_s": walls,
                  "output_sha256": {"out.csv": outputs(checkout.name, seed)}}
        return result, [detail]
    return run_bench


def _main(module, monkeypatch, tmp_path, run_bench):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir(exist_ok=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(module, "run_bench", run_bench)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change",
        str(tmp_path / "change"), "--workload", "track_mc", "--seeds", "1-4",
        "--seconds", "1", "--out", str(out)])
    return module.main(), json.loads(out.read_text())


def test_pairs_record_output_identity(bench_pairs, monkeypatch, tmp_path):
    # Seed 3 makes the change write other bytes.
    outputs = lambda side, seed: "b" if side == "change" and seed == 3 else "a"  # noqa: E731
    code, doc = _main(bench_pairs, monkeypatch, tmp_path,
                      _fake_run(outputs, lambda side, seed: True))
    assert code == 0
    assert [p["outputs_identical"] for p in doc["track_mc_pairs"]] == [True, True, False, True]
    summary = doc["track_mc_summary"]
    assert summary["outputs_identical"] == {"pairs": 4, "identical": 3}
    assert summary["wall_s"]["change_wins"] == 4


def test_pairs_record_the_commit_of_each_checkout(bench_pairs, monkeypatch, tmp_path):
    # The temporary checkouts are not git repositories.
    code, doc = _main(bench_pairs, monkeypatch, tmp_path,
                      _fake_run(lambda side, seed: "a", lambda side, seed: True))
    assert code == 0
    assert doc["commits"] == {"parent": None, "change": None}


def test_pairs_record_the_src_lines_of_each_checkout(bench_pairs, monkeypatch, tmp_path):
    # Only src/dnmf/*.py counts; a last line without a newline does not, as in wc -l.
    files = {"parent": {"src/dnmf/a.py": "1\n2\n3\n", "src/dnmf/b.py": "1\n2"},
             "change": {"src/dnmf/a.py": "1\n", "src/dnmf/sub/c.py": "1\n", "src/d.py": "1\n",
                        "src/dnmf/e.txt": "1\n"}}
    for side, texts in files.items():
        for rel, text in texts.items():
            path = tmp_path / side / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    code, doc = _main(bench_pairs, monkeypatch, tmp_path,
                      _fake_run(lambda side, seed: "a", lambda side, seed: True))
    assert code == 0
    assert doc["src_lines"] == {"parent": 4, "change": 1}
    assert doc["src_lines_by_module"] == {"parent": {"a.py": 3, "b.py": 1}, "change": {"a.py": 1}}


def test_checkout_commit_reads_head(bench_pairs, tmp_path):
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git[:3] + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    head = subprocess.run(git[:3] + ["rev-parse", "HEAD"], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    assert len(head) == 40
    assert bench_pairs.checkout_commit(tmp_path) == head


def test_incorrect_run_exits_one_after_writing(bench_pairs, monkeypatch, tmp_path, capsys):
    correct = lambda side, seed: not (side == "parent" and seed == 2)  # noqa: E731
    code, doc = _main(bench_pairs, monkeypatch, tmp_path,
                      _fake_run(lambda side, seed: "a", correct))
    assert code == 1
    assert len(doc["track_mc_pairs"]) == 4
    assert "error: 1 run(s) reported problems" in capsys.readouterr().err


def _pairs(metric, parent, change):
    """Pairs whose runs report ``metric`` with the given per-side values."""
    return [{side: {"metrics": {metric: {"value": v}}} for side, v in zip(("parent", "change"), pv)}
            | {"outputs_identical": True} for pv in zip(parent, change)]


@pytest.mark.parametrize("better, change, worse", [
    ("lower", [1.2, 1.3, 1.25], False),   # median 1.25: exactly 25% slower
    ("lower", [1.2, 1.3, 1.26], True),
    ("lower", [0.5, 0.6, 0.7], False),
    ("higher", [0.8, 0.7, 0.75], False),  # median 0.75: exactly 25% lower
    ("higher", [0.8, 0.7, 0.74], True),
    ("higher", [2.0, 2.0, 2.0], False),
])
def test_summary_flags_a_median_worse_beyond_its_bound(bench_pairs, better, change, worse):
    spec = {"wall_s": {"name": "wall_s", "better": better, "bound": 0.25}}
    summary = bench_pairs.summarise(_pairs("train_wav.wall_s", [0.9, 1.0, 1.1], change), spec)
    row = summary["train_wav.wall_s"]
    assert row["bound"] == 0.25
    assert row["worse_beyond_bound"] is worse


def test_main_writes_bound_and_flag(bench_pairs, monkeypatch, tmp_path):
    code, doc = _main(bench_pairs, monkeypatch, tmp_path,
                      _fake_run(lambda side, seed: "a", lambda side, seed: True))
    assert code == 0
    row = doc["track_mc_summary"]["wall_s"]
    assert row["bound"] == 0.25 and row["worse_beyond_bound"] is False
    # 4 of 4 pairs won by 0.5 s against a parent spread of 0.
    assert row["gain_resolved"] is True


# Parent medians 1.45 with q1 1.225 and q3 1.675: a spread of 0.45.
_PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


@pytest.mark.parametrize("better, shifts, resolved", [
    ("lower", [-0.5] * 10, True),                # 10/10 wins, medians 0.5 apart
    ("higher", [0.5] * 10, True),
    ("lower", [-0.6] * 9 + [0.1], True),         # 9/10 wins is enough
    ("lower", [-0.6] * 8 + [0.1, 0.1], False),   # 8/10 wins, medians 0.6 apart
    ("lower", [-0.6] * 8 + [0.0, 0.1], False),   # a tie counts for neither side
    ("lower", [-0.4] * 10, False),               # 10/10 wins inside the spread
    ("higher", [-0.5] * 10, False),              # 10/10 losses
])
def test_summary_resolves_a_gain_on_wins_and_spread(bench_pairs, better, shifts, resolved):
    spec = {"wall_s": {"name": "wall_s", "better": better, "bound": 0.25}}
    change = [p + d for p, d in zip(_PARENT, shifts)]
    row = bench_pairs.summarise(_pairs("track_mc.wall_s", _PARENT, change), spec)["track_mc.wall_s"]
    assert row["gain_resolved"] is resolved


def test_main_summarises_per_call_minima(bench_pairs, monkeypatch, tmp_path):
    code, doc = _main(bench_pairs, monkeypatch, tmp_path,
                      _fake_run(lambda side, seed: "a", lambda side, seed: True))
    assert code == 0
    for pair in doc["track_mc_pairs"]:
        assert pair["parent"]["metrics"]["track_mc.wall_s_call_min"]["value"] == 0.9
        assert pair["change"]["metrics"]["track_mc.wall_s_call_min"]["value"] == 0.5
    row = doc["track_mc_summary"]["track_mc.wall_s_call_min"]
    assert row["parent"]["median"] == 0.9 and row["change"]["median"] == 0.5
    assert row["change_wins"] == 4 and row["bound"] == 0.25
    assert row["worse_beyond_bound"] is False and row["gain_resolved"] is True


@pytest.mark.parametrize("shift, worse, resolved", [
    (-0.5, False, True),
    (0.3, True, False),  # 30% of a median of 1.0 is past the bound of wall_s
    (0.2, False, False),
])
def test_summary_bounds_per_call_minima_by_wall_s(bench_pairs, shift, worse, resolved):
    spec = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25}}
    parent = [0.9, 1.0, 1.1]
    row = bench_pairs.summarise(_pairs("separate_wav.wall_s_call_min", parent,
                                       [p + shift for p in parent]), spec)
    row = row["separate_wav.wall_s_call_min"]
    assert row["bound"] == 0.25
    assert row["worse_beyond_bound"] is worse
    assert row["gain_resolved"] is resolved
