import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fsindex as fx
import fsindex.bench
import fsindex.cli
from fsindex.bench import run_bench
from fsindex.cli import main

FASTA = """\
>s1 hand-counted
MKVLATTRSANILVMK
>s2
KRDEQWFYHGPCMKVL
>s3 short
MKV
"""

PARTITION = "TSAN,ILVM,KR,DEQ,WFYH,GPC"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    fasta = root / "db.fa"
    fasta.write_text(FASTA)
    index = root / "db.fsi"
    rc = main([
        "build", "--fasta", str(fasta), "--matrix", "BLOSUM62",
        "--partition", PARTITION, "-m", "6", "--out", str(index),
    ])
    assert rc == 0
    return root


class TestBuildCommand:
    def test_manifest_matches_hand_count(self, workdir, capsys, tmp_path):
        fasta = workdir / "db.fa"
        out = tmp_path / "x.fsi"
        rc = main([
            "build", "--fasta", str(fasta), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "6", "--out", str(out),
        ])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        # windows: 11 + 11 + 0 (s3 too short)
        assert manifest["fragments"] == 22
        assert manifest["keys"] == 22  # no window repeats
        assert manifest["records"] == 3
        assert manifest["bins"] == 6 ** 6

    def test_rebuild_is_byte_identical(self, workdir, tmp_path):
        fasta = workdir / "db.fa"
        a, b = tmp_path / "a.fsi", tmp_path / "b.fsi"
        for out in (a, b):
            assert main([
                "build", "--fasta", str(fasta), "--matrix", "BLOSUM62",
                "--partition", PARTITION, "-m", "6", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_partition_alphabet_mismatch_names_letter(self, workdir, tmp_path, capsys):
        rc = main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", "TSAN,ILVM,KR,DEQ,WFYH,GP", "-m", "6",
            "--out", str(tmp_path / "x.fsi"),
        ])
        assert rc == 1
        assert "'C'" in capsys.readouterr().err

    def test_too_many_bins_is_an_input_error(self, workdir, tmp_path, capsys):
        rc = main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", "A,R,N,D,C,Q,E,G,H,I,L,K,M,F,P,S,T,W,YV", "-m", "12",
            "--out", str(tmp_path / "x.fsi"),
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_usage_error_exit_code(self):
        assert main(["build", "--fasta", "x"]) == 1

    def test_floor_needs_suffix_mode(self, workdir, tmp_path, capsys):
        out = tmp_path / "x.fsi"
        rc = main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "6", "--floor", "4", "--out", str(out),
        ])
        assert rc == 1 and not out.exists()
        assert "--floor" in capsys.readouterr().err

    def test_floor_sets_the_shortest_suffix(self, workdir, tmp_path, capsys):
        args = [
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "6", "--suffix-mode", "--out", str(tmp_path / "x.fsi"),
        ]
        assert main(args) == 0
        # s1 and s2: 11 windows and 5 shorter tails each; s3: its 3 tails
        assert json.loads(capsys.readouterr().out)["fragments"] == 16 + 16 + 3
        assert main(args + ["--floor", "4"]) == 0
        # the tails of 4 and 5 letters of s1 and s2; s3 is shorter than the floor
        assert json.loads(capsys.readouterr().out)["fragments"] == 13 + 13


class TestSearchCommand:
    def test_knn_self_match(self, workdir, capsys):
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--k", "1",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("sequence\toffset")
        cells = lines[1].split("\t")
        assert cells[:4] == ["s1", "0", "MKVLAT", "0"]

    def test_tsv_json_equivalence(self, workdir, capsys):
        args = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--radius", "40",
        ]
        assert main(args + ["--format", "tsv"]) == 0
        tsv = capsys.readouterr().out.strip().splitlines()
        tsv_rows = {
            tuple(line.split("\t")[:4]) for line in tsv[1:] if not line.startswith("#")
        }
        assert main(args + ["--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        json_rows = {
            (h["sequence"], str(h["offset"]), h["fragment"], str(h["value"]))
            for h in doc["hits"]
        }
        assert tsv_rows == json_rows and len(json_rows) >= 1

    def test_json_reports_phase_times(self, workdir, capsys):
        args = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--format", "json",
        ]
        for mode in (["--radius", "40"], ["--k", "3"]):
            assert main(args + mode) == 0
            stats = json.loads(capsys.readouterr().out)["stats"]
            phases = stats["phases_ms"]
            assert sorted(phases) == ["finish", "scan", "spans", "sweep", "table"]
            assert all(v > 0 for v in phases.values())
            assert sum(phases.values()) <= stats["elapsed_ms"]
            assert 0 < stats["keys_scanned"] <= stats["fragments_scanned"]
            if mode[0] == "--radius":
                assert (stats["sweeps"], stats["scan_chunks"]) == (1, 1)
            else:
                assert stats["sweeps"] >= 1 and stats["scan_chunks"] >= 1

    def test_json_stats_keys_in_order(self, workdir, capsys):
        args = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--format", "json",
        ]
        for mode in (["--radius", "40"], ["--k", "3"]):
            assert main(args + mode) == 0
            stats = json.loads(capsys.readouterr().out)["stats"]
            assert list(stats) == [
                "nodes_visited", "bins_scanned", "fragments_scanned", "residues_scanned",
                "keys_scanned", "hits", "elapsed_ms", "sweeps", "scan_chunks", "phases_ms",
            ]
            assert list(stats["phases_ms"]) == ["table", "sweep", "spans", "scan", "finish"]

    def test_json_reports_cold_phases(self, workdir, capsys):
        args = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--format", "json",
        ]
        for mode in (["--radius", "40"], ["--k", "3"]):
            assert main(args + mode) == 0
            doc = json.loads(capsys.readouterr().out)
            own = ["load." + p for p in ("map", "key_starts", "encode", "digest", "positions")]
            assert sorted(doc["phases_ms"]) == sorted(["load", "parse", "search", *own])
            assert all(v > 0 for v in doc["phases_ms"].values())
            assert sum(doc["phases_ms"][p] for p in own) <= doc["phases_ms"]["load"]
            # the search phase holds the call that the stats time
            assert doc["phases_ms"]["search"] >= doc["stats"]["elapsed_ms"]

    def test_build_reports_phase_times(self, workdir, capsys, tmp_path):
        assert main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "6", "--out", str(tmp_path / "x.fsi"),
        ]) == 0
        phases = json.loads(capsys.readouterr().out)["phases_ms"]
        own = ["keys", "letters", "lcp", "occupancy", "sort"]  # the build's own phases
        assert sorted(phases) == sorted(["build", "extract", "parse", "save", *own])
        assert all(v > 0 for v in phases.values())
        assert sum(phases[p] for p in own) <= phases["build"]

    def test_similarity_threshold_conversion(self, workdir, capsys):
        # radius = self-score - threshold; check agreement with explicit radius
        s = fx.load_builtin_matrix("BLOSUM62")
        t = fx.weight(s, "MKVLAT") - 12
        base = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT",
        ]
        def rows(text):
            return [l for l in text.splitlines() if not l.startswith("#")]

        assert main(base + ["--similarity-threshold", str(t)]) == 0
        via_threshold = rows(capsys.readouterr().out)
        assert main(base + ["--radius", "12"]) == 0
        via_radius = rows(capsys.readouterr().out)
        assert via_threshold == via_radius and len(via_threshold) > 1

    def test_long_query_dispatch(self, workdir, tmp_path, capsys):
        # suffix-mode index accepts a longer query
        idx = tmp_path / "suffix.fsi"
        assert main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "6", "--suffix-mode", "--out", str(idx),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "search", "--index", str(idx), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLATT", "--radius", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MKVLATT" in out

    def test_short_query_on_suffix_index(self, workdir, tmp_path, capsys):
        idx = tmp_path / "suffix.fsi"
        assert main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "6", "--suffix-mode", "--out", str(idx),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "search", "--index", str(idx), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKV", "--radius", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        # s1 and s2 hold MKV; s3 is the three-letter tail MKV itself
        starts = sorted(line.split("\t")[:3] for line in out.splitlines()[1:-1])
        assert starts == [["s1", "0", "MKV"], ["s2", "12", "MKV"], ["s3", "0", "MKV"]]

    def test_length_mismatch_without_suffix_mode_errors(self, workdir, capsys):
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLATT", "--radius", "5",
        ])
        assert rc == 1
        assert "suffix" in capsys.readouterr().err

    def test_pssm_query(self, workdir, tmp_path, capsys):
        s = fx.load_builtin_matrix("BLOSUM62")
        d = fx.distance_from_score(s)
        rows = d.values[s.alphabet.encode("MKVLAT")]
        lines = ["\t".join(s.alphabet.letters)]
        lines += ["\t".join(str(int(v)) for v in row) for row in rows]
        pssm = tmp_path / "q.pssm"
        pssm.write_text("\n".join(lines) + "\n")
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--pssm", str(pssm), "--k", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split("\t")[3] == "0"  # self row scores 0

    def test_out_file_holds_what_stdout_gets(self, workdir, tmp_path, capsys):
        args = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--radius", "40",
        ]

        def untimed(text):  # the stats line's wall times differ from run to run
            *rows, stats = text.splitlines()
            doc = json.loads(stats.removeprefix("# "))
            del doc["elapsed_ms"], doc["phases_ms"]
            return rows, doc

        assert main(args) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "hits.tsv"
        assert main(args + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_text()
        assert written.endswith("\n") and untimed(written) == untimed(printed)
        assert len(untimed(written)[0]) > 1

    def test_query_letter_outside_the_alphabet(self, workdir, capsys):
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVXAT", "--radius", "5",
        ])
        assert rc == 1
        assert "'X' not in alphabet" in capsys.readouterr().err

    def test_all_ties_needs_k(self, workdir, capsys):
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--radius", "20", "--all-ties",
        ])
        assert rc == 1
        assert "--all-ties" in capsys.readouterr().err

    def test_knn_all_ties_prints_the_range_at_the_kth_value(self, workdir, capsys):
        args = [
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT",
        ]

        def rows(mode):
            assert main(args + mode) == 0
            return capsys.readouterr().out.splitlines()[1:-1]

        knn, ties = rows(["--k", "5"]), rows(["--k", "5", "--all-ties"])
        # values 0, 22, 25, 27, 30, 30, 30: the 5th value, 30, is shared by three hits
        assert [r.split("\t")[3] for r in ties] == ["0", "22", "25", "27", "30", "30", "30"]
        assert ties == rows(["--radius", "30"]) and knn == ties[:5]

    def test_long_knn_query_points_to_radius(self, workdir, tmp_path, capsys):
        idx = tmp_path / "suffix.fsi"
        assert main([
            "build", "--fasta", str(workdir / "db.fa"), "--matrix", "BLOSUM62",
            "--partition", PARTITION, "-m", "9", "--suffix-mode", "--out", str(idx),
        ]) == 0
        capsys.readouterr()
        rc = main([
            "search", "--index", str(idx), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLATTRSANI", "--k", "3",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--radius" in err and "range_search" not in err

    def test_spot_audit_catches_a_wrong_value(self, workdir, monkeypatch, capsys):
        search = fsindex.cli.range_search

        def best_value_off_by_one(*args, **kwargs):
            hits, stats = search(*args, **kwargs)
            vals = hits.vals.copy()
            vals[vals.argmin()] -= 1  # still the best hit, so among the five audited
            return fx.HitList(hits.pos, vals, hits.starts), stats

        monkeypatch.setattr(fsindex.cli, "range_search", best_value_off_by_one)
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query", "MKVLAT", "--radius", "40",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reported value -1 != direct evaluation 0 at seq_id 0, offset 0" in captured.err

    def test_similarity_threshold_needs_a_literal_query(self, workdir, tmp_path, capsys):
        s = fx.load_builtin_matrix("BLOSUM62")
        rows = fx.distance_from_score(s).values[s.alphabet.encode("MKVLAT")]
        pssm = tmp_path / "q.pssm"
        pssm.write_text("\n".join(["\t".join(s.alphabet.letters)]
                                  + ["\t".join(map(str, row)) for row in rows]) + "\n")
        rc = main([
            "search", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--pssm", str(pssm), "--similarity-threshold", "10",
        ])
        assert rc == 1
        assert "needs a literal query" in capsys.readouterr().err


class TestVerifyMatrixCommand:
    def test_blosum62_report(self, capsys):
        assert main(["verify-matrix", "--matrix", "BLOSUM62"]) == 0
        out = capsys.readouterr().out
        assert "quasi-metric: yes" in out
        assert "triangle violations: 0" in out
        assert "co-weightable (weight = self-score): yes" in out

    def test_blosum40_report(self, capsys):
        assert main(["verify-matrix", "--matrix", "BLOSUM40"]) == 0
        out = capsys.readouterr().out
        assert "quasi-metric: no" in out

    def test_toy_matrix_file(self, tmp_path, capsys):
        from conftest import TOY_MATRIX_TEXT
        p = tmp_path / "toy.mat"
        p.write_text(TOY_MATRIX_TEXT)
        assert main(["verify-matrix", "--matrix", str(p), "--alphabet", "abcd"]) == 0
        out = capsys.readouterr().out
        assert "quasi-metric: yes" in out


class TestStatsCommand:
    def test_header_report(self, workdir, capsys):
        assert main(["stats", "--index", str(workdir / "db.fsi")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fragments"] == doc["keys"] == 22
        assert doc["version"] == 5 and doc["position_bytes"] == 4
        assert doc["alphabet"] == "ARNDCQEGHILKMFPSTWYV"
        assert doc["partition"].count(";") == 5


class TestBenchCommand:
    def test_bench_reports_environment_and_file_bytes(self, workdir, capsys):
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "2", "--seed", "5", "--k-list", "2",
        ])
        assert rc == 0
        doc = json.loads("{" + capsys.readouterr().out.split("{", 1)[1])
        assert doc["file_bytes"] == (workdir / "db.fsi").stat().st_size
        env = doc["environment"]
        assert env["fsindex"] == fx.__version__ and env["numpy"] == np.__version__
        assert env["python"] == platform.python_version() and env["cpu_count"] == os.cpu_count()
        assert env["dont_write_bytecode"] is sys.dont_write_bytecode

    def test_bench_with_oracle_and_flat(self, workdir, capsys):
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "3", "--seed", "11",
            "--k-list", "1,3", "--oracle", "--baseline-flat",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        tsv_part, json_part = out.split("{", 1)
        doc = json.loads("{" + json_part)
        assert doc["schema"] == "fsindex-bench/1"
        assert doc["queries"] == 6  # 3 queries x 2 k values
        assert doc["oracle_checked"] is True
        header = tsv_part.strip().splitlines()[0].split("\t")
        assert header[:4] == ["query", "k", "radius", "hits"]

    def test_bench_reports_phase_times(self, workdir, capsys):
        args = [
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "3", "--seed", "11",
        ]
        assert main(args + ["--k-list", "1,3"]) == 0
        doc = json.loads("{" + capsys.readouterr().out.split("{", 1)[1])
        for key in ("range_phases_ms", "knn_phases_ms"):
            assert sorted(doc[key]) == ["finish", "scan", "spans", "sweep", "table"]
            for times in doc[key].values():
                assert sorted(times) == ["mean", "median"]
                assert times["mean"] > 0 and times["median"] > 0
        assert main(args + ["--radius", "25"]) == 0
        doc = json.loads("{" + capsys.readouterr().out.split("{", 1)[1])
        assert "range_phases_ms" in doc and "knn_phases_ms" not in doc

    def test_bench_radius_mode_and_window_queries(self, workdir, capsys):
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "2", "--seed", "3",
            "--query-mode", "windows", "--radius", "25", "--oracle",
        ])
        assert rc == 0

    def test_query_file_rows_in_file_order(self, workdir, tmp_path):
        queries = tmp_path / "queries.txt"
        queries.write_text("MKVLAT\n\n  KRDEQW  \nWFYHGP\n")
        out = tmp_path / "bench.tsv"
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--query-file", str(queries), "--radius", "25",
            "--oracle", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [("MKVLAT", "25"), ("KRDEQW", "25"), ("WFYHGP", "25")]
        assert json.loads((tmp_path / "bench.tsv.json").read_text())["queries"] == 3

    def test_frequencies_file_sets_the_letter_draws(self, workdir, tmp_path):
        # all the mass on one letter: every i.i.d. query is that letter repeated
        alphabet = fx.STANDARD_ALPHABET.letters
        freqs = tmp_path / "freqs.txt"
        freqs.write_text(" ".join("1" if c == "K" else "0" for c in alphabet) + "\n")
        out = tmp_path / "bench.tsv"
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "3", "--seed", "4",
            "--frequencies", str(freqs), "--k-list", "1", "--out", str(out),
        ])
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert [r.split("\t")[0] for r in rows] == ["KKKKKK"] * 3

    def test_oracle_mismatch_exit_code(self, workdir, monkeypatch, capsys):
        search = fsindex.bench.range_search

        def drop_first_hit(*args, **kwargs):
            hits, stats = search(*args, **kwargs)
            return fx.HitList(hits.pos[1:], hits.vals[1:], hits.starts), stats

        monkeypatch.setattr(fsindex.bench, "range_search", drop_first_hit)
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "2", "--seed", "11",
            "--k-list", "3", "--oracle",
        ])
        assert rc == 2
        assert "oracle mismatch" in capsys.readouterr().err

    def test_oracle_catches_a_duplicated_hit(self, workdir, monkeypatch, capsys):
        search = fsindex.bench.range_search

        def repeat_first_hit(*args, **kwargs):
            hits, stats = search(*args, **kwargs)
            rows = np.r_[0, np.arange(len(hits))]
            return fx.HitList(hits.pos[rows], hits.vals[rows], hits.starts), stats

        monkeypatch.setattr(fsindex.bench, "range_search", repeat_first_hit)
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "2", "--seed", "11",
            "--k-list", "3", "--oracle",
        ])
        assert rc == 2
        assert "oracle mismatch" in capsys.readouterr().err

    def test_oracle_checks_the_knn_order(self, workdir, monkeypatch, capsys):
        # the same hits worst first: the range search at their radius is right
        search = fsindex.bench.knn_search

        def reversed_hits(*args, **kwargs):
            hits, stats = search(*args, **kwargs)
            return fx.HitList(hits.pos[::-1], hits.vals[::-1], hits.starts), stats

        monkeypatch.setattr(fsindex.bench, "knn_search", reversed_hits)
        rc = main([
            "bench", "--index", str(workdir / "db.fsi"), "--fasta", str(workdir / "db.fa"),
            "--matrix", "BLOSUM62", "--queries", "2", "--seed", "11",
            "--k-list", "3", "--oracle",
        ])
        assert rc == 2
        assert "k-NN" in capsys.readouterr().err

    def test_aggregates_recomputable_from_rows(self, workdir):
        db = fx.parse_fasta((workdir / "db.fa").read_text())
        index = fx.load(workdir / "db.fsi", db)
        d = fx.distance_from_score(fx.load_builtin_matrix("BLOSUM62"))
        queries = fx.sample_queries(6, 4, seed=2)
        report = run_bench(
            index, queries, d, k_list=[2], check_oracle=True
        )
        agg = report.aggregates()
        assert agg["bins_scanned"]["mean"] == (
            sum(r.rng.bins_scanned for r in report.rows) / len(report.rows)
        )
        assert agg["keys_scanned"]["mean"] == (
            sum(r.rng.keys_scanned for r in report.rows) / len(report.rows)
        )
        assert agg["access_overhead"]["mean"] == pytest.approx(
            sum(r.rng.fragments_scanned / r.hits for r in report.rows) / len(report.rows)
        )
        pcts = sorted(r.residues_pct() for r in report.rows)
        mid = len(pcts) // 2
        median = pcts[mid] if len(pcts) % 2 else (pcts[mid - 1] + pcts[mid]) / 2
        assert agg["residues_scanned_pct"]["median"] == pytest.approx(median)
        for r in report.rows:
            assert 0.0 <= r.residues_pct() <= 100.0

    def test_residues_pct_counts_the_query_positions(self):
        # a length-6 query on an m = 9 suffix-mode index reads at most 6
        # positions of each fragment it scans, so its share is of those 6
        rng = np.random.default_rng(11)
        letters = np.array(list(fx.STANDARD_ALPHABET.letters))
        db = fx.SequenceDB(records=tuple(
            (f"s{i}", "".join(rng.choice(letters, 60))) for i in range(40)))
        scheme = fx.parse_partition(PARTITION, fx.STANDARD_ALPHABET, 9)
        index = fx.build(fx.extract_fragments(db, 9, suffix_mode=True), scheme)
        d = fx.distance_from_score(fx.load_builtin_matrix("BLOSUM62"))
        query = db.residues(0)[3:9]
        row = run_bench(index, [query], d, radius=30, check_oracle=True).rows[0]
        assert row.rng.fragments_scanned > 0
        assert row.residues_pct() == pytest.approx(
            100 * row.rng.residues_scanned / (row.rng.fragments_scanned * 6))

    def test_knn_radius_protocol_on_worked_example(self, toy_index, toy_d):
        # the 8th-smallest distance from abd over the full cube is 7, so the
        # k=8 protocol reruns the range search at radius 7 and scans 2 bins
        report = run_bench(
            toy_index, ["abd"], toy_d, k_list=[8],
            check_oracle=True,
        )
        row = report.rows[0]
        assert row.radius == 7
        assert row.rng.bins_scanned == 2

    def test_cli_import_leaves_the_harness_out(self):
        # a cold search process imports the CLI; the bench harness and the
        # baselines are for ``bench`` and tests only, and a search runs on
        # its calling thread, without the executor machinery
        src = Path(fx.__file__).resolve().parent.parent
        unused = {"fsindex.bench", "statistics", "fsindex.baselines", "concurrent.futures"}
        code = f"import sys, fsindex.cli; print(sorted({unused!r} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_leaves_openssl_out(self):
        # the index digest needs only blake2b: a cold search loads OpenSSL's
        # hash module only if numpy itself does (-S: no site hooks)
        paths = [str(Path(m.__file__).resolve().parent.parent) for m in (np, fx)]

        def loads_hashlib(code: str) -> bool:
            proc = subprocess.run(
                [sys.executable, "-S", "-c",
                 f"import sys; sys.path[:0] = {paths!r}; {code}; print('_hashlib' in sys.modules)"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip() == "True"

        assert loads_hashlib("import numpy; import fsindex.cli") == loads_hashlib("import numpy")

    def test_console_script_entry_point(self, workdir):
        # the child imports fsindex from the same source tree as this process
        src = Path(fx.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "fsindex.cli", "stats", "--index", str(workdir / "db.fsi")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["fragments"] == 22
