"""Smoke tests of the scripts under scripts/."""

import importlib.util
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_check_label_digests_first_seeds():
    """The grid class column still matches the pinned label digests."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_label_digests.py"), "2"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "label digests match for 2 seeds" in r.stdout


def test_fixture_gallery(tmp_path):
    """The gallery writes an analyze record and an SVG for each of its
    eight surfaces, each SVG with one indicatrix."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "fixture_gallery.py"),
         str(tmp_path)],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    names = sorted(p.stem for p in tmp_path.glob("*.surf"))
    assert len(names) == 8
    for name in names:
        assert (tmp_path / f"{name}.txt").read_text(encoding="utf-8")
        svg = (tmp_path / f"{name}.svg").read_text(encoding="utf-8")
        assert svg.count('class="indicatrix"') == 1


def test_corpus_crosscheck_small_corpus():
    """Three random surfaces, 100 points each: each of the six checks of the
    cross-check registry stays within its bound."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "corpus_crosscheck.py"),
         "3", "100", "1"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.count("  PASS ") == 6, r.stdout


def test_corpus_crosscheck_forms_each_route_once(monkeypatch, capsys):
    """The script takes each row's verdict and its printed worst deviation
    from one margin, so it forms the routes of every check once per
    surface."""
    spec = importlib.util.spec_from_file_location(
        "corpus_crosscheck", ROOT / "scripts" / "corpus_crosscheck.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = {}

    def counted(check):
        def routes(*args):
            calls[check.name] = calls.get(check.name, 0) + 1
            return check.routes(*args)
        return check._replace(routes=routes)

    monkeypatch.setattr(script, "CROSS_CHECKS",
                        [counted(check) for check in script.CROSS_CHECKS])
    monkeypatch.setattr(sys, "argv", ["corpus_crosscheck.py", "2", "10", "1"])
    assert script.main() == 0
    assert capsys.readouterr().out.count("  PASS ") == 6
    assert calls == {check.name: 2 for check in script.CROSS_CHECKS}


def test_compare_outputs_tree_with_itself():
    """This tree compared with itself at --res 16: every subcommand on each
    of the eleven surfaces prints `same`, and the exit code is 0."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(ROOT / "src"), "--res", "16"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 11 * 10
    assert all(line.endswith(": same") for line in lines), r.stdout


def test_compare_outputs_takes_a_negative_point(tmp_path):
    """`--at -0.7,0.45`, as the CLI takes it: one surface file compared with
    itself prints `same` on each of its seven lines."""
    surface = tmp_path / "s.surf"
    surface.write_text("phi = x^2 - y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n",
                       encoding="utf-8")
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(ROOT / "src"), "--res", "16", "--surface", str(surface),
         "--at", "-0.7,0.45"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 7
    assert f"{surface} analyze -0.7,0.45: same" in lines
    assert all(line.endswith(": same") for line in lines), r.stdout


def test_compare_outputs_adds_the_point_queries_of_a_seed(tmp_path):
    """`--point-queries 0` adds analyze, plot and height at the 24 points of
    the benchmark's point-queries round for seed 0: compared with itself,
    each of the 72 added lines prints `same`."""
    surface = tmp_path / "s.surf"
    surface.write_text("phi = x^2 - y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n",
                       encoding="utf-8")
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(ROOT / "src"), "--res", "16", "--surface", str(surface),
         "--at", "0,0", "--point-queries", "0"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    added = [line for line in lines if line.startswith("point-queries 0 ")]
    assert len(lines) == 7 + 72 and len(added) == 72
    assert {line.split()[3] for line in added} == {"analyze", "plot", "height"}
    assert all(line.endswith(": same") for line in lines), r.stdout


def test_compare_outputs_adds_the_locus_search_of_a_seed(tmp_path):
    """`--locus-search 0` adds trace and inflections at res 256 on the three
    surfaces of the benchmark's locus-search round for seed 0: compared with
    itself, each of the 6 added lines prints `same`."""
    surface = tmp_path / "s.surf"
    surface.write_text("phi = x^2 - y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n",
                       encoding="utf-8")
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(ROOT / "src"), "--res", "16", "--surface", str(surface),
         "--at", "0,0", "--locus-search", "0"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    added = [line for line in lines if line.startswith("locus-search 0 ")]
    assert len(lines) == 7 + 6 and len(added) == 6
    assert {tuple(line.split()[2:4]) for line in added} == {
        (name, f"{kind}:") for name in ("parabolic_loop", "inflection_real",
                                        "trig")
        for kind in ("trace", "inflections")}
    assert all(line.endswith(": same") for line in lines), r.stdout


def test_compare_outputs_prints_the_peaks(tmp_path):
    """`--peak` ends each line with the job's tracemalloc peak in both
    trees, in MB; a grid job at res 16 allocates something in each."""
    surface = tmp_path / "s.surf"
    surface.write_text("phi = x^2 - y^2\npsi = 2*x*y\ndomain = -1 1 -1 1\n",
                       encoding="utf-8")
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_outputs.py"),
         str(ROOT / "src"), "--res", "16", "--surface", str(surface),
         "--at", "0,0", "--peak"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 7
    peaks = {}
    for line in lines:
        match = re.fullmatch(r"(.*): same, peak (\d+\.\d\d) vs (\d+\.\d\d) MB",
                             line)
        assert match, line
        peaks[match[1].split()[-1]] = (float(match[2]), float(match[3]))
    assert peaks["grid"][0] > 0.0 and peaks["grid"][1] > 0.0


def test_compare_outputs_names_the_first_differing_line():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._first_difference("exit 0\na\n", "exit 0\na\n") is None
    assert module._first_difference("exit 0\na\nb\n", "exit 0\na\nc\n") \
        == "line 3: 'b' vs 'c'"
    assert module._first_difference("exit 0\na\n", "exit 4\n") \
        == "line 1: 'exit 0' vs 'exit 4'"
    assert module._first_difference("exit 0\na\n", "exit 0\n") \
        == "line 2: 'a' vs '<end>'"
    assert module._verdict("exit 0\na\n", "exit 0\na\n") == "same"
    assert module._verdict("exit 4\nerr\n", "exit 4\nerr\n") == "same (exit 4)"
    assert module._verdict("exit 0\n", "exit 4\n") \
        == "line 1: 'exit 0' vs 'exit 4'"


def test_check_float_text():
    """10^5 random floats, half of them uniform bit patterns and half in
    the range where repr's layout switches, print as repr prints them."""
    r = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_float_text.py"),
         "100000", "3"],
        capture_output=True, text=True, check=False)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.startswith("100000 values match repr (seed 3, ")


def test_check_float_text_reports_a_mismatch(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "check_float_text", ROOT / "scripts" / "check_float_text.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    slots = module.floattext.float_slots
    monkeypatch.setattr(module.floattext, "float_slots",
                        lambda values: slots(values[::-1]))
    assert module.main(["1000"]) == 1
    out = capsys.readouterr().out
    assert out.count("mismatch: ") == module.SHOWN
    assert out.endswith("1000 of 1000 values differ from repr (seed 0)\n")
