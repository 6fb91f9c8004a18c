"""``tools/artifact_digests.py``: digests of a run's artifacts and their diff.

The tool is a script, not part of the package, so it is loaded by path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digests(**files):
    return {"canonical": {"exit": 0, "files": dict(files)}}


def run_main(tool, tmp_path, capsys, a, b):
    paths = []
    for name, content in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        paths.append(str(path))
    code = tool.main(["--compare"] + paths)
    return code, capsys.readouterr().out


def test_equal_digests_have_no_differences(tool, tmp_path, capsys):
    a = digests(**{"x.json": "1", "y.csv": "2"})
    assert tool.compare(a, json.loads(json.dumps(a))) == []
    code, out = run_main(tool, tmp_path, capsys, a, a)
    assert code == 0
    assert out == "no differences\n"


@pytest.mark.parametrize("change, line", [
    (lambda b: b["canonical"]["files"].update({"x.json": "changed"}),
     "canonical/x.json: differs"),
    (lambda b: b["canonical"]["files"].pop("y.csv"),
     "canonical/y.csv: only in A"),
    (lambda b: b["canonical"]["files"].update({"z.csv": "3"}),
     "canonical/z.csv: only in B"),
    (lambda b: b.update({"dipole": {"exit": 0, "files": {}}}),
     "dipole: only in B"),
    (lambda b: b["canonical"].update({"exit": 1}),
     "canonical: exit 0 -> 1"),
], ids=["digest", "file_only_in_a", "file_only_in_b", "config_only_in_b", "exit_code"])
def test_each_difference_is_listed(tool, tmp_path, capsys, change, line):
    a = digests(**{"x.json": "1", "y.csv": "2"})
    b = json.loads(json.dumps(a))
    change(b)
    assert tool.compare(a, b) == [line]
    code, out = run_main(tool, tmp_path, capsys, a, b)
    assert code == 1
    assert out == line + "\n"


def test_digest_tree_skips_the_run_log(tool, tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "window.json").write_bytes(b"{}")
    (tmp_path / "run.log").write_text("wall times")
    (tmp_path / "sub" / "run.log").write_text("wall times")
    tree = tool.digest_tree(str(tmp_path))
    assert list(tree) == ["sub/window.json"]
    assert tree["sub/window.json"] == (
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a")


def test_differing_artifacts_name_their_largest_numeric_change(tool, tmp_path, capsys):
    # artifacts next to each digest file: the JSON and CSV lines say which
    # number moved most, and by how much relative to the larger side
    sides = {
        "a": ({"fit": {"exponent": -2.0, "radii": [16, 32]}, "passed": True, "name": "x"},
              "radius,value\n16,1.0\n32,0.25\n"),
        "b": ({"fit": {"exponent": -2.0, "radii": [16, 40]}, "passed": True, "name": "y"},
              "radius,value\n16,1.0\n32,0.2\n"),
    }
    paths = []
    for side, (payload, table) in sides.items():
        root = tmp_path / side / "canonical"
        root.mkdir(parents=True)
        (root / "fit.json").write_text(json.dumps(payload))
        (root / "table.csv").write_text(table)
        (root / "same.json").write_text('{"name": "' + side + '"}')
        digest = tmp_path / side / "digests.json"
        digest.write_text(json.dumps(digests(**{"fit.json": side, "table.csv": side,
                                                 "same.json": side, "x.bin": side})))
        paths.append(str(digest))
    code = tool.main(["--compare"] + paths)
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "canonical/fit.json: differs, largest relative change 0.2 at fit.radii[1]",
        "canonical/same.json: differs, no number moved",
        "canonical/table.csv: differs, largest relative change 0.2 at value[1]",
        "canonical/x.bin: differs",
    ]
