import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_memory_breakdown_reports_every_workspace_and_the_rss_split(capsys):
    script = runpy.run_path(str(SCRIPTS / "memory_breakdown.py"), run_name="memory_breakdown")
    script["main"](["--preset", "desk.env", "--steps", "1", "--fill", "256"])
    out = capsys.readouterr().out
    for key in ("codes", "('gates', 0)", "('gates', 1)", "w_x0", "rows", "h_rows", "d_rows"):
        assert f" {key} " in out, key
    split = {}
    for line in out[out.index("process RSS"):].splitlines()[1:]:
        name, value = line.strip().rsplit(None, 1)
        split[name] = float(value)
    parts = ("workspace maps", "heap", "anonymous", "file")
    assert set(parts) < set(split)
    assert split["workspace maps"] > 0.0
    assert abs(sum(split[p] for p in parts) - split["total"]) < 0.05
