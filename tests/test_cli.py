import gc
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixdih import __version__, cli
from mixdih import graphs as gr
from mixdih import morphisms as mo
from mixdih import search as se
from mixdih.cli import main
from mixdih.pcgroup import load_presentation
from test_pcgroup import NON_ASCII_PC2, all_triples_check


def _strip_timing(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    out["checks"] = [{k: v for k, v in c.items() if k != "seconds"} for c in report["checks"]]
    return out


def test_build_roundtrip(tmp_path):
    out = tmp_path / "toy2.pc2"
    assert main(["build", "toy2", str(out)]) == 0
    assert out.read_text(encoding="ascii").startswith("pc2 v1 n=8\n")
    assert load_presentation(out).n == 8


def test_verify_toy_report_schema(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "toy2", "--report", str(path)]) == 0
    rep = json.loads(path.read_text(encoding="ascii"))
    assert rep["engine_version"]
    assert rep["target"] == "toy2"
    assert rep["checks"]
    for check in rep["checks"]:
        assert set(check) == {"name", "status", "expected", "actual", "claim", "seconds"}
        assert check["status"] == "pass"
    assert "total_seconds" in rep["timings"]


def test_verify_report_stable_modulo_timings(tmp_path):
    one = tmp_path / "one.json"
    two = tmp_path / "two.json"
    assert main(["verify", "toy2", "--report", str(one)]) == 0
    assert main(["verify", "toy2", "--report", str(two)]) == 0
    a = _strip_timing(json.loads(one.read_text(encoding="ascii")))
    b = _strip_timing(json.loads(two.read_text(encoding="ascii")))
    assert a == b


# sha256 prefixes of each timing-stripped report, dumped with sorted keys,
# and of each graph export; the claim battery must emit the same bytes
REPORT_SHA256 = {"h56": "328c6857570a663a", "p59": "3b89d50f3b1ee113", "toy2": "4fc8d8f36b1ba739"}
GRAPH_SHA256 = {"cayley": "194a487e0c674852", "incidence": "d2132608c5ccf84b", "quotient": "2a3147e9cc894af5"}

# calls one verify makes to the names that build its certificate objects;
# each is built once and every check reads it.  The builders and
# consistency_check are counted in cli's namespace, where the benchmark's
# tracer wraps them: a target table holding a builder would miss the count
VERIFY_CALLS = {
    "h56": {"extend": 7, "closure": 2, "cayley_graph": 0, "bicoset_graph": 0,
            "build_h56": 1, "build_p59": 0, "build_toy": 0, "consistency_check": 1},
    "p59": {"extend": 0, "closure": 0, "cayley_graph": 0, "bicoset_graph": 0,
            "build_h56": 1, "build_p59": 1, "build_toy": 0, "consistency_check": 1},
    "toy2": {"extend": 3, "closure": 0, "cayley_graph": 1, "bicoset_graph": 1,
             "build_h56": 0, "build_p59": 0, "build_toy": 1, "consistency_check": 1},
}
COUNTED = (
    (mo, "extend"), (mo, "closure"), (gr, "cayley_graph"), (gr, "bicoset_graph"),
    (cli, "build_h56"), (cli, "build_p59"), (cli, "build_toy"), (cli, "consistency_check"),
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _counting(calls, name, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.fixture(scope="module")
def verified_reports(tmp_path_factory):
    """Each target's timing-stripped report, and the calls it made to
    the COUNTED names."""
    out = {}
    for target in REPORT_SHA256:
        calls = {name: 0 for _, name in COUNTED}
        with pytest.MonkeyPatch.context() as mp:
            for owner, name in COUNTED:
                mp.setattr(owner, name, _counting(calls, name, getattr(owner, name)))
            path = tmp_path_factory.mktemp(target) / "report.json"
            assert main(["verify", target, "--report", str(path)]) == 0
        out[target] = _strip_timing(json.loads(path.read_text(encoding="ascii"))), calls
    return out


@pytest.mark.parametrize("target", sorted(REPORT_SHA256))
def test_verify_report_bytes_are_pinned(verified_reports, target):
    report, _ = verified_reports[target]
    assert _sha256(json.dumps(report, sort_keys=True)) == REPORT_SHA256[target]


@pytest.mark.parametrize("target", sorted(VERIFY_CALLS))
def test_verify_builds_each_certificate_object_once(verified_reports, target):
    _, calls = verified_reports[target]
    assert calls == VERIFY_CALLS[target]


# multiply (and for h56 inverse) calls of one verify of a target, counted
# on the group that its cli builder returns, so every check's products are
# counted but the builder's own are not
TOY_CALLS = {"multiply": 3_786}
H56_CALLS = {"multiply": 6_054, "inverse": 1_324}


def _verify_work(tmp_path, monkeypatch, target, builder, names):
    calls = dict.fromkeys(names, 0)
    build = getattr(cli, builder)

    def counted_build():
        group = build()
        for name in calls:
            monkeypatch.setattr(group, name, _counting(calls, name, getattr(group, name)))
        return group

    monkeypatch.setattr(cli, builder, counted_build)
    assert main(["verify", target, "--report", str(tmp_path / "report.json")]) == 0
    return calls


def test_verify_toy2_work_is_pinned(tmp_path, monkeypatch):
    assert _verify_work(tmp_path, monkeypatch, "toy2", "build_toy", TOY_CALLS) == TOY_CALLS


def test_verify_h56_work_is_pinned(tmp_path, monkeypatch):
    assert _verify_work(tmp_path, monkeypatch, "h56", "build_h56", H56_CALLS) == H56_CALLS


def test_repeated_main_leaves_no_parser_cycles(tmp_path):
    # the parser is built once per process: a warm second call must leave
    # no argparse object to the cyclic collector
    report = str(tmp_path / "report.json")
    assert main(["verify", "toy2", "--report", report]) == 0
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["verify", "toy2", "--report", report]) == 0
        gc.collect()
        modules = {type(obj).__module__ for obj in gc.garbage}
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert "argparse" not in modules


@pytest.mark.parametrize("which", sorted(GRAPH_SHA256))
def test_graph_export_bytes_are_pinned(capsys, which):
    assert main(["graph", which]) == 0
    assert _sha256(capsys.readouterr().out) == GRAPH_SHA256[which]


def test_verify_from_file_parses_once(tmp_path, monkeypatch):
    pc2 = tmp_path / "toy2.pc2"
    assert main(["build", "toy2", str(pc2)]) == 0
    loads = {"load_presentation": 0}
    monkeypatch.setattr(cli, "load_presentation", _counting(loads, "load_presentation", cli.load_presentation))
    report = tmp_path / "report.json"
    assert main(["verify", "toy2", "--from-file", str(pc2), "--report", str(report)]) == 0
    assert loads == {"load_presentation": 1}
    checks = _strip_timing(json.loads(report.read_text(encoding="ascii")))["checks"]
    assert [(c["name"], c["actual"]) for c in checks] == [
        ("toy2_file_parses", True), ("toy2_consistency_violations", 0), ("toy2_order_log", 8),
    ]


@pytest.mark.parametrize("target", list(cli.TARGETS))
def test_verify_from_file_checks_every_target(tmp_path, target):
    pc2 = tmp_path / f"{target}.pc2"
    assert main(["build", target, str(pc2)]) == 0
    report = tmp_path / "report.json"
    assert main(["verify", target, "--from-file", str(pc2), "--report", str(report)]) == 0
    checks = json.loads(report.read_text(encoding="ascii"))["checks"]
    assert [c["name"] for c in checks] == [f"{target}_{kind}" for kind in ("file_parses", "consistency_violations", "order_log")]
    assert all(c["status"] == "pass" for c in checks)


def test_verify_from_file_checks_the_order_of_the_named_target(tmp_path):
    pc2 = tmp_path / "p59.pc2"
    assert main(["build", "p59", str(pc2)]) == 0
    report = tmp_path / "report.json"
    assert main(["verify", "h56", "--from-file", str(pc2), "--report", str(report)]) == 1
    checks = json.loads(report.read_text(encoding="ascii"))["checks"]
    assert [(c["name"], c["actual"]) for c in checks if c["status"] != "pass"] == [("h56_order_log", 59)]


def test_verify_from_a_missing_file_is_a_failed_check(tmp_path):
    # not exit 65 as maps gives: the parse check fails and the report is written
    report = tmp_path / "report.json"
    assert main(["verify", "toy2", "--from-file", str(tmp_path / "absent.pc2"), "--report", str(report)]) == 1
    (entry,) = json.loads(report.read_text(encoding="ascii"))["checks"]
    assert (entry["name"], entry["status"]) == ("toy2_file_parses", "fail")
    assert entry["actual"].startswith("error: FileNotFoundError: ")


def test_verify_fails_an_unwritable_report_before_the_first_check(tmp_path, monkeypatch, capsys):
    builds = {"build_h56": 0}
    monkeypatch.setattr(cli, "build_h56", _counting(builds, "build_h56", cli.build_h56))
    assert main(["verify", "h56", "--report", str(tmp_path / "missing" / "r.json")]) == 65
    assert builds == {"build_h56": 0}
    assert "i/o error" in capsys.readouterr().err


# the checks that read each broken certificate object: the one that builds
# it and every later check that reads it by name
BROKEN_READERS = {
    "h56": (cli, "derived_subgroup", [
        "h56_derived_order_log", "h56_abelianization_rank", "h56_derived_elementary_abelian",
    ]),
    "p59": (cli, "subgroup_igs", [
        "p59_normal_part_order_log", "p59_normal_part_closed_under_chain", "p59_stab_meets_normal_part_in_x_block",
    ]),
    "toy2": (gr, "bicoset_graph", [
        "toy2_incidence_shape", "toy2_incidence_girth", "toy2_line_graph_correspondence",
        "toy2_quotient_complete_bipartite_cover", "toy2_two_arc_orbits", "toy2_edge_regular_translation_action",
    ]),
}


@pytest.mark.parametrize("target", sorted(BROKEN_READERS))
def test_a_certificate_object_that_fails_to_build_fails_only_its_readers(
    tmp_path, monkeypatch, verified_reports, target
):
    owner, name, readers = BROKEN_READERS[target]

    def broken(*args, **kwargs):
        raise RuntimeError(f"{name} is broken")

    monkeypatch.setattr(owner, name, broken)
    path = tmp_path / "report.json"
    assert main(["verify", target, "--report", str(path)]) == len(readers)
    checks = json.loads(path.read_text(encoding="ascii"))["checks"]
    report, _ = verified_reports[target]
    assert [c["name"] for c in checks] == [c["name"] for c in report["checks"]]
    failed = [c for c in checks if c["status"] != "pass"]
    assert [c["name"] for c in failed] == readers
    assert all(c["actual"].startswith("error: RuntimeError") for c in failed)


# each builder, and the target whose build first calls it in each verify
# that builds it; p59 extends the h56 it builds first
BUILDS = {
    "build_h56": {"h56": "h56", "p59": "p59", "all": "h56"},
    "build_p59": {"p59": "p59", "all": "p59"},
    "build_toy": {"toy2": "toy2", "all": "toy2"},
}


@pytest.mark.parametrize("builder", sorted(BUILDS))
def test_a_builder_that_raises_is_a_failed_builds_check(tmp_path, monkeypatch, capsys, builder):
    """No traceback: the report ends at a failed <target>_builds entry,
    every check before it passes, and verify exits 1."""

    def broken(*args):
        raise RuntimeError(f"{builder} is broken")

    monkeypatch.setattr(cli, builder, broken)
    for target, failing in BUILDS[builder].items():
        path = tmp_path / f"{target}.json"
        assert main(["verify", target, "--report", str(path)]) == 1
        *passed, last = json.loads(path.read_text(encoding="ascii"))["checks"]
        assert all(c["status"] == "pass" for c in passed)
        assert not any(c["name"].startswith(failing) for c in passed)
        assert (last["name"], last["status"]) == (f"{failing}_builds", "fail")
        assert last["actual"] == f"error: RuntimeError: {builder} is broken"
        assert f"1 checks failed: {failing}_builds" in capsys.readouterr().err


def test_verify_reads_a_from_file_path_before_reporting_over_it(tmp_path):
    path = tmp_path / "toy2.pc2"
    assert main(["build", "toy2", str(path)]) == 0
    assert main(["verify", "toy2", "--from-file", str(path), "--report", str(path)]) == 0
    checks = json.loads(path.read_text(encoding="ascii"))["checks"]
    assert (checks[0]["name"], checks[0]["status"]) == ("toy2_file_parses", "pass")


def test_verify_flags_corrupt_power_word(tmp_path, capsys):
    clean = tmp_path / "toy2.pc2"
    assert main(["build", "toy2", str(clean)]) == 0
    lines = clean.read_text(encoding="ascii").splitlines()
    lines = ["pow 4 20" if ln.startswith("pow 4") else ln for ln in lines]
    bad = tmp_path / "bad.pc2"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    report = tmp_path / "bad.json"
    assert main(["verify", "toy2", "--from-file", str(bad), "--report", str(report)]) == 1
    rep = json.loads(report.read_text(encoding="ascii"))
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["toy2_consistency_violations"]["status"] == "fail"


def test_verify_flags_corrupt_tail_conjugate(tmp_path, h56):
    # g_8 ** g_1: a tail generator conjugated by a top one, whose
    # associativity triples with a tail middle generator are skipped
    assert h56.tail == 8
    clean = tmp_path / "h56.pc2"
    assert main(["build", "h56", str(clean)]) == 0
    lines = clean.read_text(encoding="ascii").splitlines()
    (row,) = [n for n, ln in enumerate(lines) if ln.startswith("conj 8 1 ")]
    lines[row] = f"conj 8 1 {int(lines[row].split()[-1], 16) ^ 1 << 30:x}"
    bad = tmp_path / "bad.pc2"
    bad.write_text("\n".join(lines) + "\n", encoding="ascii")
    report = tmp_path / "bad.json"
    assert main(["verify", "h56", "--from-file", str(bad), "--report", str(report)]) == 1
    by_name = {c["name"]: c for c in json.loads(report.read_text(encoding="ascii"))["checks"]}
    expected = len(all_triples_check(load_presentation(bad), 16))
    assert expected > 0
    assert by_name["h56_consistency_violations"]["actual"] == expected


def test_verify_flags_unparseable_file(tmp_path):
    junk = tmp_path / "junk.pc2"
    junk.write_text("not a presentation\n", encoding="ascii")
    report = tmp_path / "junk.json"
    assert main(["verify", "toy2", "--from-file", str(junk), "--report", str(report)]) == 1
    rep = json.loads(report.read_text(encoding="ascii"))
    assert rep["checks"][0]["name"] == "toy2_file_parses"
    assert rep["checks"][0]["status"] == "fail"


def test_verify_flags_a_non_ascii_file(tmp_path):
    wide = tmp_path / "wide.pc2"
    wide.write_bytes(NON_ASCII_PC2.encode("utf-8"))
    report = tmp_path / "wide.json"
    assert main(["verify", "toy2", "--from-file", str(wide), "--report", str(report)]) == 1
    rep = json.loads(report.read_text(encoding="ascii"))
    assert rep["checks"][0]["name"] == "toy2_file_parses"
    assert rep["checks"][0]["status"] == "fail"


def test_graph_exports(tmp_path, capsys):
    for which, header in (("quotient", "8 16"), ("incidence", "128 256"), ("cayley", "256 768")):
        out = tmp_path / f"{which}.txt"
        assert main(["graph", which, "--emit-graph", str(out)]) == 0
        assert out.read_text(encoding="ascii").splitlines()[0] == header
    assert main(["graph", "quotient"]) == 0
    assert capsys.readouterr().out.splitlines()[-17] == "8 16"


def test_maps_accepts_singer(tmp_path, capsys):
    path = tmp_path / "singer.map"
    path.write_text(
        "x1 -> x1*x2\nx2 -> x2*x3\nx3 -> x3*x4\nx4 -> x1*x2*x3\n", encoding="ascii"
    )
    assert main(["maps", "h56", str(path)]) == 0
    assert "order 15" in capsys.readouterr().out


def test_maps_rejects_half_turn(tmp_path, capsys):
    path = tmp_path / "halfturn.map"
    path.write_text("x1 -> x4\nx2 -> x3\nx3 -> x2\nx4 -> x1\n", encoding="ascii")
    assert main(["maps", "h56", str(path)]) == 1
    assert "not an automorphism" in capsys.readouterr().out


def test_maps_rejects_bad_syntax(tmp_path, capsys):
    path = tmp_path / "bad.map"
    path.write_text("x1 -> z9\n", encoding="ascii")
    assert main(["maps", "toy2", str(path)]) == 1
    assert "bad map file" in capsys.readouterr().err


def test_maps_rejects_undecodable_bytes(tmp_path, capsys):
    path = tmp_path / "latin1.map"
    path.write_bytes(b"x1 -> x2\xe9\n")
    assert main(["maps", "toy2", str(path)]) == 1
    assert "bad map file" in capsys.readouterr().err


def test_maps_missing_file_is_io_error(tmp_path):
    assert main(["maps", "toy2", str(tmp_path / "absent.map")]) == 65


def test_search_shallow_run_reports_survivors(capsys):
    # two levels only: survivors remain, which is the nonzero verdict path
    assert main(["search", "--levels", "2"]) == 1
    out = capsys.readouterr().out
    assert "survivors per level: [2, 2]" in out


def test_search_progress_lines_show_elapsed_seconds(capsys):
    assert main(["search", "--levels", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"depth 1: 2 survivors of 3 candidates \(meet 2\^5\) \d+\.\d\ds", lines[0])
    # a descent of a few tenths of a second must not read as 0.2
    assert re.fullmatch(r"wall seconds: \d+\.\d\d", lines[-1])


def test_verify_all_passes_threads_to_the_descent(tmp_path, monkeypatch):
    received = []

    def fake_run_search(p, config=None, stab=None):
        received.append(config.threads if config else None)
        return se.SearchReport(
            survivor_counts=[2, 2, 12, 48, 128, 0],
            candidate_counts=[3, 6, 14, 84, 336, 896],
            no_regular_subgroup=True,
        )

    monkeypatch.setattr(se, "run_search", fake_run_search)
    path = tmp_path / "all.json"
    assert main(["verify", "all", "--threads", "3", "--seed", "5", "--report", str(path)]) == 0
    assert received == [3]
    checks = {e["name"]: e for e in json.loads(path.read_text(encoding="ascii"))["checks"]}
    # the headline counts appear in the report, not just the verdict
    assert checks["p59_no_regular_subgroup"]["actual"] == [[2, 2, 12, 48, 128, 0], [3, 6, 14, 84, 336, 896], True]
    seeded = sorted(name for name, e in checks.items() if "seed" in e)
    assert seeded == sorted(
        ["p59_embedding_agreement"]
        + [f"property_{kind}_{label}" for kind in ("associativity", "fast_mul_matches_collection", "igs_canonical")
           for label in ("h56", "p59", "toy2")]
    )
    assert all(checks[name]["seed"] == 5 for name in seeded)


def test_verify_records_the_seed_only_where_it_is_drawn(tmp_path):
    for target, seeded in (("toy2", []), ("h56", []), ("p59", ["p59_embedding_agreement"])):
        path = tmp_path / f"{target}.json"
        assert main(["verify", target, "--seed", "99", "--report", str(path)]) == 0
        checks = json.loads(path.read_text(encoding="ascii"))["checks"]
        assert [e["name"] for e in checks if "seed" in e] == seeded
        assert all(e["seed"] == 99 for e in checks if "seed" in e)


def test_verify_all_from_file_is_a_usage_error(tmp_path, capsys):
    pc2 = tmp_path / "toy2.pc2"
    assert main(["build", "toy2", str(pc2)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--from-file", str(pc2)])
    assert exc.value.code == 2
    assert "--from-file" in capsys.readouterr().err


def test_verify_single_target_threads_is_a_usage_error(capsys):
    # only verify all runs the descent, the one place workers are used
    with pytest.raises(SystemExit) as exc:
        main(["verify", "toy2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "all"], ["search"]])
@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_below_one_is_a_usage_error(capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "toy2", "--report", ""],
    ["verify", "toy2", "--from-file", ""],
    ["verify", "all", "--from-file", ""],
    ["search", "--checkpoint", ""],
    ["graph", "quotient", "--emit-graph", ""],
])
def test_an_empty_path_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    """An empty path is refused, not read as an option left out."""
    builds = {"build_toy": 0}
    monkeypatch.setattr(cli, "build_toy", _counting(builds, "build_toy", cli.build_toy))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert builds == {"build_toy": 0}


@pytest.mark.parametrize("levels", ["0", "-2", "six", "7"])
def test_search_levels_out_of_range_is_a_usage_error(capsys, levels):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--levels", levels])
    assert exc.value.code == 2
    assert "--levels" in capsys.readouterr().err


def test_search_checkpoint_holds_the_last_level(tmp_path, p59):
    path = tmp_path / "ck"
    assert main(["search", "--levels", "2", "--checkpoint", str(path)]) == 1
    level = se.root_level(p59, se.stab_subgroup(p59))
    for _ in range(2):
        level = se.descend(p59, level, se.SearchConfig())
    want = tmp_path / "want"
    se.write_checkpoint(want, level)
    assert path.read_bytes() == want.read_bytes()
    assert path.read_text(encoding="ascii").splitlines()[0] == "level 2 count 2"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck", "want"]  # no ck.tmp


def test_search_checkpoint_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    assert main(["search", "--levels", "1", "--checkpoint", str(tmp_path / "absent" / "ck")]) == 65
    out, err = capsys.readouterr()
    assert "i/o error" in err
    assert "verdict:" not in out + err


def test_search_fails_an_unwritable_checkpoint_before_the_build(tmp_path, monkeypatch, capsys):
    builds = {"build_p59": 0}
    monkeypatch.setattr(cli, "build_p59", _counting(builds, "build_p59", cli.build_p59))
    assert main(["search", "--checkpoint", str(tmp_path / "missing" / "ck")]) == 65
    assert builds == {"build_p59": 0}
    assert "i/o error" in capsys.readouterr().err


def test_search_checkpoint_onto_a_directory_leaves_no_temp_file(tmp_path, capsys):
    """A directory cannot be opened as the checkpoint: exit 65 before the
    first level, and no file is left beside it."""
    (tmp_path / "ck").mkdir()
    assert main(["search", "--levels", "1", "--checkpoint", str(tmp_path / "ck")]) == 65
    assert "i/o error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__ == cli.ENGINE_VERSION


# ── fuzzed readers ───────────────────────────────────────────────────────────

# every file a reader takes either works or fails with a documented exit
# code: 1 failed checks or a rejected map, 2 two failed checks, 65 I/O;
# no exception may escape main
READER_EXITS = {0, 1, 2, 65}

_JUNK = st.text(st.characters(min_codepoint=9, max_codepoint=126), max_size=24)
_SMALL_HEX = st.integers(-2, 1 << 9).map(lambda v: format(v, "x"))
_INDEX = st.integers(-1, 9)


def _pc2_text(lines):
    return lines.map(lambda ls: "\n".join(ls) + "\n")


def _well_formed_pc2(n):
    """pc2 files that parse: one word per key, supported above its
    conjugating generator, so the consistency check collects in an
    arbitrary presentation."""
    full = (1 << n) - 1
    index = st.integers(0, n - 1)

    def above(i, w):
        return format((w << (i + 1)) & full, "x")

    def lines(pows, conjs):
        out = [f"pc2 v1 n={n}"] + [f"pow {i} {above(i, w)}" for i, w in pows.items()]
        return out + [f"conj {j} {i} {above(i, w)}" for (j, i), w in conjs.items() if j > i]

    pair = st.tuples(index, index).map(lambda ji: (max(ji), min(ji)))
    word = st.integers(0, full)
    return _pc2_text(st.builds(lines, st.dictionaries(index, word), st.dictionaries(pair, word, max_size=10)))


_PC2 = st.one_of(
    st.integers(1, 8).flatmap(_well_formed_pc2),
    _pc2_text(st.builds(
        lambda n, ls: [f"pc2 v1 n={n}"] + ls,
        st.integers(0, 8),
        st.lists(
            st.one_of(
                st.builds("pow {} {}".format, _INDEX, _SMALL_HEX),
                st.builds("conj {} {} {}".format, _INDEX, _INDEX, _SMALL_HEX),
                _JUNK,
            ),
            max_size=12,
        ),
    )),
)


def _map_text(letters):
    """Map files over a group's letters: well-formed assignments with
    letter, identity and stray tokens, or lines mixed with junk."""
    token = st.sampled_from(letters * 2 + ["1", "c11", "z9", ""])
    line = st.builds(lambda src, dst: f"{src} -> {'*'.join(dst)}", token, st.lists(token, max_size=4))
    return st.one_of(
        st.dictionaries(st.sampled_from(letters), st.lists(token, min_size=1, max_size=3)).map(
            lambda images: [f"{src} -> {'*'.join(dst)}" for src, dst in images.items()]
        ),
        st.lists(st.one_of(line, _JUNK), max_size=6),
    ).map(lambda lines: "\n".join(lines) + "\n")


_MAP = _map_text(["x1", "x2", "y1", "y2"])
_H56_MAP = _map_text([f"{kind}{i}" for kind in "xy" for i in range(1, 5)])
def _as_bytes(text):
    return st.one_of(text.map(lambda s: s.encode("ascii")), _JUNK.map(lambda s: s.encode("ascii")), st.binary(max_size=40))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _read_through_main(path, data, argv):
    path.write_bytes(data)
    assert main(argv) in READER_EXITS


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_as_bytes(_PC2))
def test_fuzzed_pc2_files_exit_with_a_documented_code(fuzz_path, data):
    _read_through_main(fuzz_path, data, ["verify", "toy2", "--from-file", str(fuzz_path), "--report", str(fuzz_path) + ".json"])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_as_bytes(_MAP))
def test_fuzzed_map_files_exit_with_a_documented_code(fuzz_path, data):
    _read_through_main(fuzz_path, data, ["maps", "toy2", str(fuzz_path)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_as_bytes(_H56_MAP))
def test_fuzzed_h56_map_files_exit_with_a_documented_code(fuzz_path, data):
    _read_through_main(fuzz_path, data, ["maps", "h56", str(fuzz_path)])


# ── fuzzed flags ─────────────────────────────────────────────────────────────

# verify and search either run or fail with a documented exit code; a
# usage error is argparse's SystemExit(2).  Paths are placeholders until
# the test knows its directory: a writable report or checkpoint, or a path
# under a directory that does not exist
FLAG_EXITS = {0, 1, 2, 65}
_WRITABLE, _ABSENT = "<writable>", "<absent>"


def _flag(name, values, optional=True):
    flag = values.map(lambda v: [name, v])
    return st.one_of(st.just([]), flag) if optional else flag


def _flags(*groups):
    """An argv tail: one draw from each flag group, the groups in any order."""
    return st.tuples(*groups).flatmap(st.permutations).map(lambda gs: [token for g in gs for token in g])


def _value(valid, invalid=("0", "-1", "two", "")):
    """A flag value: three draws in four from valid, the rest from invalid."""
    return st.tuples(st.integers(0, 3), valid, st.sampled_from(invalid)).map(
        lambda t: t[2] if t[0] == 0 else str(t[1])
    )


_VERIFY_ARGV = st.builds(
    lambda target, tail: ["verify", target] + tail,
    st.sampled_from(["toy2", "h56"]),
    _flags(
        _flag("--seed", _value(st.integers(-(1 << 70), 1 << 70), ("seven", "", "1.5"))),
        _flag("--threads", _value(st.integers(1, 2))),
        _flag("--report", st.sampled_from([_WRITABLE, _ABSENT])),
        _flag("--from-file", st.just(_ABSENT)),
    ),
)
_SEARCH_ARGV = _flags(
    _flag("--levels", _value(st.integers(1, 2)), optional=False),
    _flag("--threads", _value(st.integers(1, 2))),
    _flag("--checkpoint", st.sampled_from([_WRITABLE, _ABSENT])),
).map(lambda tail: ["search"] + tail)


def _exit_code(fuzz_path, argv):
    paths = {_WRITABLE: str(fuzz_path) + ".json", _ABSENT: str(fuzz_path.parent / "absent" / "input")}
    try:
        return main([paths.get(token, token) for token in argv])
    except SystemExit as exc:
        return exc.code


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_VERIFY_ARGV)
def test_fuzzed_verify_flags_exit_with_a_documented_code(fuzz_path, argv):
    assert _exit_code(fuzz_path, argv) in FLAG_EXITS


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_SEARCH_ARGV)
def test_fuzzed_search_flags_exit_with_a_documented_code(fuzz_path, argv):
    assert _exit_code(fuzz_path, argv) in FLAG_EXITS
