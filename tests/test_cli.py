"""Tests for the command-line interface."""

import argparse
import os
import pathlib

import pytest

from repro.cli import build_parser, main


#: ``repro build`` options that are gone, each with a value it once took
REMOVED_BUILD_FLAGS = {
    "--strategy": "recursive",
    "--partitioner": "node_weight",
    "--partition-limit": "80",
    "--edge-weight": "AxD",
    "--workers": "2",
}


@pytest.fixture
def corpus(tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "dblp", "-n", "12", "-o", str(out), "--seed", "5"]) == 0
    return out


@pytest.fixture
def index_path(corpus, tmp_path):
    db = tmp_path / "hopi.db"
    assert main(["build", str(corpus), "-o", str(db)]) == 0
    return db


def test_generate_writes_xml_files(corpus):
    files = sorted(corpus.glob("*.xml"))
    assert len(files) == 12
    assert files[0].read_text().startswith("<article")


def test_generate_inex(tmp_path):
    out = tmp_path / "inex"
    assert main(["generate", "inex", "-n", "3", "-o", str(out)]) == 0
    assert len(list(out.glob("*.xml"))) == 3


def test_build_creates_database(index_path):
    assert index_path.exists()
    assert index_path.stat().st_size > 0


def test_build_options():
    """``repro build`` takes inputs, ``-o`` and ``--distance``, nothing
    else: the paper's strategies are library arguments."""
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        action.dest for action in commands["build"]._actions
        if action.dest != "help"
    }
    assert options == {"inputs", "output", "distance"}


def test_backend_flag_in_help(index_path, capsys):
    """There is one label representation: no command advertises
    ``--backend``. ``serve`` alone still accepts it (hidden, ignored —
    the benchmark harness passes it)."""
    for sub in ("build", "query", "serve", "ingest"):
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        out = capsys.readouterr().out
        assert "--backend" not in out, sub
    assert main(["serve", str(index_path), "--backend", "vector",
                 "--port", "0", "--max-requests", "0"]) == 0
    assert "backend=" not in capsys.readouterr().out


def test_serve_shard_flags_in_help(capsys):
    """Sharded serving, the build executors, the paper's build options
    and the sharded join are gone: no help text names them, and the
    worker daemon subcommand is no longer listed."""
    texts = {}
    for argv in (["--help"], ["build", "--help"], ["serve", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        texts[argv[0]] = capsys.readouterr().out
    for flag in ("--shards", "--shard-workers", "--executor", "--join-shards",
                 "--probe-cache", *REMOVED_BUILD_FLAGS):
        assert not any(flag in text for text in texts.values()), flag
    assert "worker" not in texts["--help"]
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(commands) == {
        "build", "generate", "query", "connected", "stats", "serve",
        "delete-doc", "verify", "ingest",
    }


@pytest.mark.parametrize(
    "argv", [list(item) for item in REMOVED_BUILD_FLAGS.items()],
    ids=list(REMOVED_BUILD_FLAGS),
)
def test_removed_build_flags_are_usage_errors(corpus, tmp_path, capsys, argv):
    """The paper's build options and the pool size are argparse usage
    errors (exit 2) that create no database."""
    with pytest.raises(SystemExit) as exc:
        main(["build", str(corpus), "-o", str(tmp_path / "x.db")] + argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err
    assert not (tmp_path / "x.db").exists()


@pytest.mark.parametrize("argv", [
    ["--workers", "0"], ["--workers", "-3"], ["--workers", "two"],
    ["--partition-limit", "0"], ["--partition-limit", "-5"],
])
def test_bad_build_sizes_are_usage_errors(corpus, tmp_path, capsys, argv):
    """A pool size or partition limit, good or bad, is an argparse usage
    error (exit 2), not a traceback from deep inside the build."""
    with pytest.raises(SystemExit) as exc:
        main(["build", str(corpus), "-o", str(tmp_path / "x.db")] + argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err
    assert not (tmp_path / "x.db").exists()


@pytest.mark.parametrize("argv", [
    ["--max-inflight", "0"], ["--queue-depth", "-1"],
    ["--max-client-share", "0"], ["--max-client-share", "1.5"],
    ["--max-client-share", "half"], ["--result-cache", "0"],
    ["--probe-cache", "-5"],  # removed: any value is an unknown option
])
def test_bad_serve_sizes_are_usage_errors(index_path, tmp_path, capsys, argv):
    """A bad admission or cache size is an argparse usage error (exit 2)
    raised before ``--store`` creates anything."""
    store = tmp_path / "state"
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(index_path), "--port", "0", "--store", str(store)]
             + argv)
    assert exc.value.code == 2
    assert argv[0] in capsys.readouterr().err
    assert not (store / "index.db").exists()
    assert not (store / "updates.wal").exists()


def test_invalid_backend_rejected(corpus, index_path, tmp_path, capsys):
    """``build`` / ``query`` / ``ingest`` take no ``--backend`` at all."""
    for argv in (
        ["build", str(corpus), "-o", str(tmp_path / "x.db")],
        ["query", str(index_path), "//article//author"],
        ["ingest", "--source", "deep-tree:2", "--store", str(tmp_path / "s")],
    ):
        with pytest.raises(SystemExit):
            main(argv + ["--backend", "arrays"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err


def test_build_distance(corpus, tmp_path, capsys):
    db = tmp_path / "dist.db"
    assert main(["build", str(corpus), "-o", str(db), "--distance"]) == 0
    r1 = main(["connected", str(db), "0", "1", "--distance"])
    out = capsys.readouterr().out
    assert "distance:" in out


def test_build_no_documents(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit):
        main(["build", str(empty), "-o", str(tmp_path / "x.db")])


def test_build_duplicate_stems(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "doc.xml").write_text("<r/>")
    (b / "doc.xml").write_text("<r/>")
    with pytest.raises(SystemExit):
        main(["build", str(a), str(b), "-o", str(tmp_path / "x.db")])


def test_query(index_path, capsys):
    assert main(["query", str(index_path), "//article//author"]) == 0
    out = capsys.readouterr().out
    assert "<author>" in out


def test_query_limit(index_path, capsys):
    main(["query", str(index_path), "//article//author", "--limit", "2"])
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) <= 2


@pytest.mark.parametrize("argv", [
    ["--limit", "8", "--offset", "-3"], ["--limit", "-2"],
    ["--offset", "x"], ["--max-results", "-1"], ["--max-results", "0"],
])
def test_bad_query_windows_are_usage_errors(index_path, capsys, argv):
    """A negative window or a non-positive ``--max-results`` is an
    argparse usage error (exit 2), never a page that is no ranked page:
    a slice by a negative offset or cap would print the tail of a page,
    no matches, or every answer but its last row."""
    with pytest.raises(SystemExit) as exc:
        main(["query", str(index_path), "//article//author"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err


@pytest.mark.parametrize("value", ["-1", "0"])
def test_serve_max_results_must_be_positive(index_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["serve", str(index_path), "--max-results", value,
              "--port", "0", "--max-requests", "0"])
    assert exc.value.code == 2
    assert "--max-results" in capsys.readouterr().err


def test_query_window_flags_page_the_ranking(index_path, capsys):
    main(["query", str(index_path), "//article//author", "--limit", "0"])
    assert capsys.readouterr().out == ""
    main(["query", str(index_path), "//article//author", "--limit", "8"])
    top = capsys.readouterr().out.splitlines()
    main(["query", str(index_path), "//article//author",
          "--limit", "5", "--offset", "3"])
    assert capsys.readouterr().out.splitlines() == top[3:8]


def test_connected_exit_codes(index_path, capsys):
    # element 0 is the first article root; its title is element 1
    assert main(["connected", str(index_path), "0", "1"]) == 0
    out = capsys.readouterr().out
    assert "connected" in out
    # title (1) cannot reach the root (0)
    assert main(["connected", str(index_path), "1", "0"]) == 1


def test_stats(index_path, capsys):
    assert main(["stats", str(index_path), "--closure"]) == 0
    out = capsys.readouterr().out
    assert "cover entries" in out
    assert "compression" in out
    assert "reachability" in out


def test_delete_doc_updates_file(index_path, capsys):
    assert main(["delete-doc", str(index_path), "dblp3"]) == 0
    out = capsys.readouterr().out
    assert "deleted 'dblp3'" in out
    assert main(["verify", str(index_path)]) == 0
    # the document is gone from a reloaded index
    from repro.storage import load_index

    assert "dblp3" not in load_index(str(index_path)).collection.documents


def test_delete_missing_doc(index_path):
    with pytest.raises(SystemExit):
        main(["delete-doc", str(index_path), "nope"])


def test_verify(index_path, capsys):
    assert main(["verify", str(index_path)]) == 0
    assert "verified" in capsys.readouterr().out


def test_build_from_single_files(tmp_path):
    f1 = tmp_path / "one.xml"
    f2 = tmp_path / "two.xml"
    f1.write_text('<a><ref xlink:href="two"/></a>')
    f2.write_text("<b><c/></b>")
    db = tmp_path / "f.db"
    assert main(["build", str(f1), str(f2), "-o", str(db)]) == 0
    assert main(["verify", str(db)]) == 0


@pytest.mark.parametrize("argv", [
    ["query", "{db}", "//article//author"],
    ["connected", "{db}", "0", "1"],
    ["stats", "{db}"],
    ["verify", "{db}"],
    ["delete-doc", "{db}", "dblp3"],
    ["serve", "{db}", "--port", "0", "--max-requests", "0"],
    ["serve", "{db}", "--store", "{store}", "--port", "0", "--max-requests", "0"],
])
def test_missing_index_is_a_usage_error(tmp_path, capsys, argv):
    """A read command given a path with no index exits 2 naming the
    path, prints no answer and creates no file there (opening it would
    create an empty database and answer from that)."""
    db, store = tmp_path / "nope.db", tmp_path / "store"
    argv = [a.format(db=db, store=store) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(db) in captured.err
    assert not db.exists()
    assert not store.exists()


def test_load_index_refuses_a_missing_file(tmp_path):
    from repro.storage import load_index

    with pytest.raises(FileNotFoundError):
        load_index(str(tmp_path / "nope.db"))
    assert not (tmp_path / "nope.db").exists()


def test_connected_distance_needs_a_distance_index(index_path, capsys):
    """``--distance`` on a reachability-only index is a usage error
    raised before any answer is printed, not a traceback after one."""
    with pytest.raises(SystemExit) as exc:
        main(["connected", str(index_path), "0", "1", "--distance"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "built without --distance" in captured.err
    assert main(["connected", str(index_path), "0", "1"]) == 0
