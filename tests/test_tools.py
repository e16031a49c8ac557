"""The repository's helper scripts under tools/."""

import importlib.util
import json
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchChannel:
    def test_recorded_label_is_refused_before_any_work(self, tmp_path, monkeypatch):
        # the script pins BLAS threads on import; restore the variable afterwards
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        tool = load_tool("bench_channel")
        out = tmp_path / "BENCH_channel.json"
        doc = {"what": "timings", "entries": [{"label": "parent", "commit": "abc"}]}
        out.write_text(json.dumps(doc))

        def forbidden(*args, **kwargs):
            raise AssertionError("ran before refusing the label")

        monkeypatch.setattr(tool, "OUT", str(out))
        monkeypatch.setattr(tool, "_head_commit", forbidden)
        monkeypatch.setattr(tool, "measure", forbidden)
        monkeypatch.setattr(sys, "argv", ["bench_channel.py", "--label", "parent"])
        with pytest.raises(SystemExit, match="'parent' is already recorded"):
            tool.main()
        assert json.loads(out.read_text()) == doc
