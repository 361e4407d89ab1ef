import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from rngswarm.cli import main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, doc, name="scn.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return p


def idle_doc():
    return {
        "n": 3,
        "V": 1.0,
        "sep": 0.0,
        "behavior": {"kind": "idle"},
        "init": {"positions": [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]},
        "max_rounds": 50,
    }


def box_doc():
    return {
        "n": 6,
        "V": 1.0,
        "behavior": {"kind": "gather"},
        "init": {"box": [0.0, 0.0, 1.4, 1.4]},
        "max_rounds": 40,
    }


class TestArgumentErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["fly"])
        assert exc.value.code == 2

    def test_run_requires_out(self, tmp_path):
        scn = write_scenario(tmp_path, idle_doc())
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(scn)])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--out", "o", "--seed", "-1"],
            ["run", "--out", "o", "--svg-every", "-1"],
            ["check", "--seed", "-5"],
            ["check", "--cases", "-5"],
            ["check", "--cases", "0"],
        ],
    )
    def test_out_of_range_integers(self, tmp_path, capsys, argv):
        if argv[0] == "run":
            argv = argv + ["--scenario", str(write_scenario(tmp_path, idle_doc()))]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert re.search(r"argument --[a-z-]+: must be >= [01], got -?\d+$", err)


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, idle_doc())
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "completed 10 rounds" in printed  # idle swarm quiesces after 10
        assert "connected=yes" in printed
        assert "metrics:" in printed
        csv = (out / "metrics.csv").read_text().splitlines()
        assert len(csv) == 11  # header + one row per round
        assert not list(out.glob("*.svg"))  # frames are opt-in

    def test_svg_frames_every_k_rounds(self, tmp_path):
        scn = write_scenario(tmp_path, idle_doc())
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scn), "--out", str(out), "--svg-every", "5"]) == 0
        names = sorted(p.name for p in out.glob("*.svg"))
        assert names == ["frame_00000.svg", "frame_00005.svg", "frame_00010.svg"]

    def test_missing_scenario_file(self, tmp_path, capsys):
        assert main(["run", "--scenario", str(tmp_path / "gone.yaml"), "--out", str(tmp_path)]) == 1
        assert "scenario error" in capsys.readouterr().err

    def test_invalid_scenario_file(self, tmp_path, capsys):
        doc = idle_doc()
        doc["sep"] = 5.0
        scn = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
        assert "scenario error" in capsys.readouterr().err

    def test_scenario_file_that_is_not_utf8(self, tmp_path, capsys):
        scn = tmp_path / "scn.yaml"
        scn.write_bytes(b"n: 3\nV: 1.0\n# \xff\xfe\n")
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: {scn}: ") and "position" in err
        assert err.count("scenario error") == 1 and "Traceback" not in err

    def test_negative_seed_in_scenario(self, tmp_path, capsys):
        doc = box_doc()
        doc["seed"] = -3
        scn = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "scenario error: 'seed' must be >= 0 and an integer, got -3\n"

    def test_reruns_are_byte_identical(self, tmp_path):
        scn = write_scenario(tmp_path, box_doc())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--scenario", str(scn), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(scn), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_seed_override_changes_the_run(self, tmp_path):
        scn = write_scenario(tmp_path, box_doc())
        out1, out2, out3 = tmp_path / "o1", tmp_path / "o2", tmp_path / "o3"
        assert main(["run", "--scenario", str(scn), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["run", "--scenario", str(scn), "--out", str(out2), "--seed", "2"]) == 0
        assert main(["run", "--scenario", str(scn), "--out", str(out3), "--seed", "1"]) == 0
        a = (out1 / "metrics.csv").read_bytes()
        b = (out2 / "metrics.csv").read_bytes()
        c = (out3 / "metrics.csv").read_bytes()
        assert a != b  # different draw, different trajectory
        assert a == c  # the seed pins everything


class TestCheckCommand:
    def test_small_budget_passes(self, capsys):
        assert main(["check", "--cases", "25", "--seed", "3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5
        for line in lines:
            assert re.fullmatch(r"\[PASS\] [a-z-]+: \d+ cases, 0 failures", line)


class TestGraphCommand:
    def test_prints_metrics(self, capsys):
        assert main(["graph", "--scenario", str(SCENARIO_DIR / "adhoc_network.yaml")]) == 0
        printed = capsys.readouterr().out
        for key in (
            "n:",
            "edge_count:",
            "effective_edge_count:",
            "connected: yes",
            "diameter_hops:",
            "min_pair_distance:",
            "max_pair_distance:",
            "max_effective_degree:",
        ):
            assert key in printed

    def test_exact_output(self, capsys):
        assert main(["graph", "--scenario", str(SCENARIO_DIR / "adhoc_network.yaml")]) == 0
        assert capsys.readouterr().out == (
            "n: 25\n"
            "edge_count: 132\n"
            "effective_edge_count: 29\n"
            "connected: yes\n"
            "diameter_hops: 3\n"
            "min_pair_distance: 0.101321088\n"
            "max_pair_distance: 2.55352289\n"
            "max_effective_degree: 4\n"
        )

    def test_writes_frame_on_request(self, tmp_path, capsys):
        svg = tmp_path / "view.svg"
        code = main(
            ["graph", "--scenario", str(SCENARIO_DIR / "adhoc_network.yaml"), "--svg", str(svg)]
        )
        assert code == 0
        assert svg.exists()
        assert f"frame: {svg}" in capsys.readouterr().out

    def test_same_scenario_same_numbers(self, capsys):
        args = ["graph", "--scenario", str(SCENARIO_DIR / "adhoc_network.yaml")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestFramePins:
    """sha256 of the SVG frames of the bundled scenarios, so a change to how
    a frame derives its graphs, or draws them, shows."""

    # name: (frame count, digest over each frame's file name then bytes)
    RUN_FRAMES = {
        "adhoc_network": (1, "39bd1b56563a3d51096aeefa2d158407b67cdebd011f886483cd5cc9fe9fd95f"),
        "formation": (21, "236ff97dfb33c73457f1afda28850ef0f08175cff9d342ae902ab340c6c2c6c7"),
        "leader_line": (8, "547b9fa6a415a21088660223370c63c8d6da5d7b7d6e8d411469127890868bdb"),
        "narrow_passage": (28, "ec80181e8e3592c3fddeb82eab3f6c6fbfddad4058c2f77b9adef1e3640d4775"),
    }

    @pytest.mark.parametrize("name", sorted(RUN_FRAMES))
    def test_run_frames(self, tmp_path, name):
        out = tmp_path / "out"
        argv = ["run", "--scenario", str(SCENARIO_DIR / f"{name}.yaml"), "--out", str(out), "--svg-every", "40"]
        assert main(argv) == 0
        frames = sorted(out.glob("frame_*.svg"))
        digest = hashlib.sha256()
        for frame in frames:
            digest.update(frame.name.encode())
            digest.update(frame.read_bytes())
        assert (len(frames), digest.hexdigest()) == self.RUN_FRAMES[name]

    def test_graph_frame(self, tmp_path):
        svg = tmp_path / "net.svg"
        assert main(["graph", "--scenario", str(SCENARIO_DIR / "adhoc_network.yaml"), "--svg", str(svg)]) == 0
        digest = hashlib.sha256(svg.read_bytes()).hexdigest()
        assert digest == "3a479afbe850555f213da22bc8ca4120dde693adca5573a8412f1e8428473a98"


def test_module_entry_point(tmp_path):
    scn = SCENARIO_DIR / "adhoc_network.yaml"
    # a subprocess does not inherit pytest's `pythonpath`; point it at this checkout's src/
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "rngswarm", "graph", "--scenario", str(scn)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "connected: yes" in proc.stdout
