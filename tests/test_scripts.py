import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_memory_breakdown_reports_every_workspace_and_the_rss_split(capsys):
    script = runpy.run_path(str(SCRIPTS / "memory_breakdown.py"), run_name="memory_breakdown")
    script["main"](["--preset", "desk.env", "--steps", "1", "--fill", "256"])
    out = capsys.readouterr().out
    for key in ("codes", "('gates', 1)", "('hid', 0)", "rows", "h_rows", "d_rows"):
        assert f" {key} " in out, key
    for key in ("('gates', 0)", "w_x0"):
        assert f" {key} " not in out, key
    rss, step = out[out.index("process RSS"):].split("\n\n")
    split = {}
    for line in rss.splitlines()[1:]:
        name, value = line.strip().rsplit(None, 1)
        split[name] = float(value)
    label, ms = step.strip().rsplit(None, 1)
    assert label == "td_loss + Adam step, median of 1, ms" and float(ms) > 0.0
    parts = ("workspace maps", "heap", "anonymous", "file")
    assert set(parts) < set(split)
    assert split["workspace maps"] > 0.0
    assert abs(sum(split[p] for p in parts) - split["total"]) < 0.05
