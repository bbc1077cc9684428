"""Subcommand behavior, exit codes and stream separation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arud
from arud import cli
from arud.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestScan:
    def test_single_line(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\n")
        code, out, err = run(capsys, "scan", "-i", src)
        assert code == 0
        assert out == "1011\n"

    def test_bad_line_keeps_alignment(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\nبَمّ\nمَا\n")
        code, out, err = run(capsys, "scan", "-i", src)
        assert code == 0
        assert out == "1011\n\n10\n"
        assert "line 2" in err

    def test_golden_mode_emits_transcription(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\n")
        code, out, err = run(capsys, "scan", "--golden", "-i", src)
        assert code == 0
        transcription, beats = out.strip().split("\t")
        assert beats == "1011"
        assert transcription == "عَلْلَمَ"

    def test_verse_final_flag(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "قَتَلَ\n")
        _, plain, _ = run(capsys, "scan", "-i", src)
        _, final, _ = run(capsys, "scan", "--verse-final", "-i", src)
        assert plain == "111\n"
        assert final == "1110\n"

    def test_jobs_preserve_order(self, tmp_path, capsys):
        lines = ["عَلَّمَ", "مَا", "لَهُ مَا", "مَعًا"] * 5
        src = write(tmp_path, "in.txt", "\n".join(lines) + "\n")
        _, serial, _ = run(capsys, "scan", "-i", src)
        _, parallel, _ = run(capsys, "scan", "--jobs", "3", "-i", src)
        assert serial == parallel


class TestNormalize:
    VERSE = "قِفَا نَبْكِ مِنْ ذِكْرَى حَبِيبٍ وَمَنْزِلِ"

    def test_accept_and_reject(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{self.VERSE}\nمَا لَهُ\n")
        out_path = str(tmp_path / "out.txt")
        code, out, err = run(capsys, "normalize", "-i", src, "-o", out_path)
        assert code == 0
        accepted = open(out_path, encoding="utf-8").read().splitlines()
        assert len(accepted) == 1
        assert "too_few_words" in err

    def test_hemistich_mode(self, tmp_path, capsys):
        first = "مِكَرٍّ مِفَرٍّ مُقْبِلٍ"
        second = "مُدْبِرٍ مَعًا"
        src = write(tmp_path, "in.txt", f"{first}\t{second}\n")
        code, out, err = run(capsys, "normalize", "--hemistichs", "-i", src)
        assert code == 0
        assert len(out.strip().split()) == 5

    def test_stats_file(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{self.VERSE}\n")
        stats = str(tmp_path / "stats.txt")
        code, _, _ = run(capsys, "normalize", "-i", src, "--stats", stats)
        assert code == 0
        assert "lines: 1" in open(stats, encoding="utf-8").read()


class TestFilterAndStats:
    def test_filter_reasons(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt",
                    "مَا لَهُ\nمَا لَهُ عَلَّمَ مَعًا\n123\n")
        code, out, _ = run(capsys, "filter", "-i", src)
        assert code == 0
        assert out.splitlines() == ["too_few_words", "ok", "foreign_residue"]

    def test_stats_report(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "عَلَّمَ\n")
        code, out, _ = run(capsys, "stats", "-i", src)
        assert code == 0
        assert "fatha: 3" in out and "shadda: 1" in out


FIG_LINE = "مِكَرٍّ مِفَرٍّ مُقْبِلٍ مُدْبِرٍ مَعًا"


class TestMask:
    def test_seed_required(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, _, err = run(capsys, "mask", "-i", src)
        assert code == 1
        assert "seed" in err

    def test_records_are_json(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, _ = run(capsys, "mask", "--seed", "3", "-i", src)
        assert code == 0
        record = json.loads(out.strip())
        assert set(record) == {"v", "input", "target", "beats", "span"}

    def test_deterministic_across_jobs(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", (FIG_LINE + "\n") * 8)
        _, a, _ = run(capsys, "mask", "--seed", "11", "-i", src)
        _, b, _ = run(capsys, "mask", "--seed", "11", "--jobs", "4",
                      "-i", src)
        assert a == b

    @pytest.mark.parametrize("flag,value", [
        ("--span-p", "2"), ("--keep-p", "0"), ("--per-line", "0")])
    def test_out_of_range_config_is_usage_error(self, tmp_path, capsys,
                                                flag, value):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, err = run(capsys, "mask", "--seed", "3", flag, value,
                             "-i", src)
        assert code == 1
        assert out == ""
        assert err.startswith("arud mask: ")

    def test_short_line_diagnosed(self, tmp_path, capsys):
        src = write(tmp_path, "in.txt", "مَا\n")
        code, out, err = run(capsys, "mask", "--seed", "3", "-i", src)
        assert code == 0
        assert out == ""
        assert "line 0" in err


class TestFill:
    def test_phrases_to_stdout(self, tmp_path, capsys):
        lex = write(tmp_path, "lex.txt", "لَهُ\nمَا\nعَلَّمَ\n")
        code, out, _ = run(capsys, "fill", "--lexicon", lex,
                           "--target", "11010")
        assert code == 0
        assert out.strip() == "لَهُ مَا"

    @pytest.mark.parametrize("flags", [
        ["--target", "2"], ["--target", "10", "--max-words", "0"]])
    def test_invalid_query_is_usage_error(self, tmp_path, capsys, flags):
        lex = write(tmp_path, "lex.txt", "مَا\n")
        code, out, err = run(capsys, "fill", "--lexicon", lex, *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("arud fill: ")


class TestEval:
    def test_report(self, tmp_path, capsys):
        records = "\n".join([
            json.dumps({"target_beats": "1011", "generated_text": "عَلَّمَ"},
                       ensure_ascii=False),
            json.dumps({"target_beats": "10", "generated_text": "مَا"},
                       ensure_ascii=False),
        ])
        src = write(tmp_path, "pred.jsonl", records + "\n")
        code, out, _ = run(capsys, "eval", "-i", src)
        assert code == 0
        assert "exact_accuracy: 100.00" in out

    def test_malformed_records_skipped(self, tmp_path, capsys):
        records = "\n".join([
            "[1]",
            json.dumps({"target_beats": "10", "generated_text": 7}),
            json.dumps({"target_beats": "10", "generated_text": "مَا"},
                       ensure_ascii=False),
        ])
        src = write(tmp_path, "pred.jsonl", records + "\n")
        code, out, err = run(capsys, "eval", "-i", src)
        assert code == 0
        assert "n: 1" in out
        assert "malformed records skipped: 2" in err


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("arud ")
        assert "tables" in out

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 1

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, "scan", "-i", "/nonexistent/in.txt")
        assert code == 2
        assert "I/O error" in err

    @pytest.mark.parametrize("argv", [
        ["scan"], ["normalize"], ["mask", "--seed", "1"]])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, argv):
        src = write(tmp_path, "in.txt", f"{FIG_LINE}\n")
        code, out, err = run(capsys, *argv, "--jobs", "0", "-i", src)
        assert code == 1
        assert out == ""
        assert "--jobs: must be at least 1" in err

    def test_broken_pipe_ends_quietly(self, tmp_path):
        # Far more output than a pipe buffers, so writes continue after
        # the reader has closed its end.
        src = write(tmp_path, "in.txt", (FIG_LINE + "\n") * 3000)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(arud.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "arud.cli", "scan", "--golden", "-i", src],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()
        assert err == b""
        assert code == 2

    def test_broken_pipe_elsewhere_keeps_stdout(self, tmp_path, monkeypatch):
        # A pipe that broke on another stream (say an -o FIFO) must not
        # redirect the stdout of a process that calls main in-process.
        def broken(args):
            raise BrokenPipeError(32, "Broken pipe")
        monkeypatch.setitem(cli.COMMANDS, "scan", broken)
        path = tmp_path / "stdout.txt"
        with open(path, "w", encoding="utf-8") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["scan"]) == 2
            out.write("still here\n")
        assert path.read_text(encoding="utf-8") == "still here\n"
