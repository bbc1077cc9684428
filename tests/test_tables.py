"""Data-table loading, malformed rows, and how the CLI picks its tables."""

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import arud
from arud.cli import ENV_TABLE_DIR, main
from arud.errors import TableError
from arud.script import ARABIC_LETTERS, MARKS, WASL_ALIF, parse_line
from arud.tables import (
    SilentWordTable,
    TableSet,
    data_version,
    default_tables,
    fold_base,
    word_key,
)

SHIPPED = Path(arud.__file__).parent / "data"


@pytest.fixture
def table_dir(tmp_path):
    """A writable copy of the shipped tables."""
    path = tmp_path / "tables"
    shutil.copytree(SHIPPED, path)
    return path


def append_row(table_dir, name, row):
    """Append `row` to table `name`; returns the row's 1-based line."""
    path = table_dir / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [row]) + "\n", encoding="utf-8")
    return len(lines) + 1


class TestLoad:
    def test_copy_loads_like_the_shipped_tables(self, table_dir):
        assert TableSet.load(str(table_dir)) == TableSet.load()

    def test_default_tables_loaded_once(self):
        assert default_tables() is default_tables()

    def test_comments_and_blank_lines_skipped(self, table_dir):
        append_row(table_dir, "silent_words.tsv", "")
        append_row(table_dir, "silent_words.tsv", "  # a comment")
        assert SilentWordTable.load(str(table_dir)) \
            == SilentWordTable.load()

    def test_special_rows_keep_file_order(self):
        # three spellings of one key: the first compatible one wins
        special = default_tables().special
        word = parse_line("ٱللَّهُ").words[0]
        assert len(special.candidates(word)) == 3

    def test_known_word_keyed_by_its_base_letters(self):
        known = default_tables().known
        assert known.candidates(parse_line("من").words[0]) \
            == [parse_line("مِنْ").words[0]]

    def test_word_key_folds_wasl_alif(self):
        word = parse_line("ٱبْنُ").words[0]
        assert word_key(word) == "".join(fold_base(g.base) for g in word)
        assert word_key(word) == "ابن"

    def test_data_version(self, table_dir, tmp_path):
        assert data_version() == data_version(str(table_dir)) == "1"
        assert data_version(str(tmp_path / "missing")) == "unknown"


# id -> (table, malformed row, words expected in the reason)
MALFORMED = {
    "juncture-fields": ("juncture.tsv", "من\tfatha",
                        "expected 3 tab-separated field(s), got 2"),
    "juncture-vowel": ("juncture.tsv", "من\tlong\texact",
                       "unknown juncture vowel 'long'"),
    "juncture-mode": ("juncture.tsv", "من\tfatha\tprefix",
                      "unknown juncture mode 'prefix'"),
    "silent-index": ("silent_words.tsv", "عمرو\tthree",
                     "invalid literal for int()"),
    "silent-fields": ("silent_words.tsv", "عمرو",
                      "expected 2 tab-separated field(s), got 1"),
    "special-two-words": ("special_words.tsv", "هذا\tهَاذَا هُنَا",
                          "expected one word, got 2"),
    "special-foreign": ("special_words.tsv", "هذا\thaza",
                        "disallowed code point 'h'"),
    "known-fields": ("known_words.tsv", "مِنْ\tعَنْ",
                     "expected 1 tab-separated field(s), got 2"),
    "known-leading-mark": ("known_words.tsv", "َمِنْ",
                           "before any letter"),
}


class TestMalformedRows:
    @pytest.mark.parametrize("name,row,reason", MALFORMED.values(),
                             ids=MALFORMED.keys())
    def test_loader_names_file_and_line(self, table_dir, name, row, reason):
        lineno = append_row(table_dir, name, row)
        with pytest.raises(TableError) as info:
            TableSet.load(str(table_dir))
        message = str(info.value)
        assert message.startswith(f"{table_dir / name}:{lineno}: ")
        assert reason in message

    @pytest.mark.parametrize("command", [
        ["scan"], ["normalize"], ["mask", "--seed", "1"]])
    def test_cli_exits_2_before_reading_input(self, table_dir, tmp_path,
                                              capsys, command):
        lineno = append_row(table_dir, "silent_words.tsv", "عمرو\tx")
        out_path = tmp_path / "out.txt"
        code = main(["--tables", str(table_dir), *command,
                     "-i", str(tmp_path / "missing.txt"),
                     "-o", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(
            f"arud: {table_dir / 'silent_words.tsv'}:{lineno}: ")
        assert captured.err.count("\n") == 1
        assert not out_path.exists()

    def test_missing_table_file_is_io_error(self, table_dir, tmp_path,
                                            capsys):
        (table_dir / "juncture.tsv").unlink()
        src = tmp_path / "in.txt"
        src.write_text("مَا\n", encoding="utf-8")
        code = main(["--tables", str(table_dir), "scan", "-i", str(src)])
        assert code == 2
        assert "I/O error" in capsys.readouterr().err


SNAPSHOT = Path(__file__).parent / "data" / "behaviour_snapshot"
TABLES = ("special_words.tsv", "juncture.tsv", "known_words.tsv",
          "silent_words.tsv")
FIELD = st.one_of(
    st.text(st.sampled_from(sorted(ARABIC_LETTERS | MARKS)
                            + [WASL_ALIF, " "]), max_size=8),
    st.sampled_from(["fatha", "damma", "kasra", "sukun", "exact", "suffix",
                     "0", "1", "3", "-1", "٣", "10**9", "1e3", ""]),
    st.text(max_size=6))
ROWS = st.lists(st.lists(FIELD, max_size=4).map("\t".join),
                max_size=5).map(lambda rows: "\n".join(rows).encode())
# Random bytes or rows, written alone or after the shipped rows.
CONTENT = st.tuples(st.booleans(), st.one_of(st.binary(max_size=48), ROWS))


def _head(name, count=12):
    return (SNAPSHOT / name).read_text(encoding="utf-8").splitlines()[:count]


class TestTableFuzz:
    """A table file with any content gives exit 0, or exit 2 with one
    ``arud: FILE:LINE: `` line; never a traceback."""

    COMMANDS = (
        (["scan", "--golden"], _head("mask_input.txt")),
        (["normalize"], _head("raw.txt")),
        (["mask", "--seed", "1", "--per-line", "2"],
         _head("mask_input.txt")),
        (["fill", "--lexicon", str(SNAPSHOT / "lexicon.txt"),
          "--target", "1010", "--max-words", "2", "--left", "قِفَا"], None),
    )

    @given(st.sampled_from(TABLES), CONTENT)
    @settings(max_examples=200, deadline=None)
    def test_any_table_content(self, name, content):
        keep_shipped, data = content
        with tempfile.TemporaryDirectory() as tmp:
            table_dir = Path(tmp, "tables")
            shutil.copytree(SHIPPED, table_dir)
            path = table_dir / name
            prefix = path.read_bytes() if keep_shipped else b""
            path.write_bytes(prefix + data)
            src = Path(tmp, "in.txt")
            for command, lines in self.COMMANDS:
                src.write_text("".join(f"{line}\n" for line in lines or []),
                               encoding="utf-8")
                argv = ["--tables", str(table_dir), *command,
                        "-o", str(Path(tmp, "out.txt"))]
                if lines is not None:
                    argv += ["-i", str(src)]
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main(argv)
                if code == 2:
                    assert err.getvalue().startswith(f"arud: {path}:")
                    assert err.getvalue().count("\n") == 1
                else:
                    assert code == 0, err.getvalue()
                    assert "Traceback" not in err.getvalue()

    def test_invalid_utf8_names_file_and_line(self, table_dir, capsys):
        path = table_dir / "special_words.tsv"
        lines = path.read_bytes().count(b"\n")
        path.write_bytes(path.read_bytes() + "هذا\t".encode() + b"\xff\n")
        code = main(["--tables", str(table_dir), "scan", "-i",
                     str(SNAPSHOT / "mask_input.txt")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"arud: {path}:{lines + 1}: not valid "
                                "UTF-8: invalid start byte\n")


# هَذَا scans to 1010 with the shipped special word (هَاذَا) and to 110
# with a table set that lacks it.
THIS = "هَذَا"


@pytest.fixture
def no_special_dir(table_dir):
    (table_dir / "special_words.tsv").write_text("", encoding="utf-8")
    return table_dir


@pytest.fixture
def this_file(tmp_path):
    path = tmp_path / "in.txt"
    path.write_text(THIS + "\n", encoding="utf-8")
    return str(path)


class TestCliTableChoice:
    def scan(self, capsys, jobs, src, *top):
        before = dict(os.environ)
        code = main([*top, "scan", "--jobs", str(jobs), "-i", src])
        assert code == 0
        assert dict(os.environ) == before
        return capsys.readouterr().out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_call_honours_its_own_tables(
            self, capsys, monkeypatch, no_special_dir, this_file, jobs):
        monkeypatch.delenv(ENV_TABLE_DIR, raising=False)
        custom = ("--tables", str(no_special_dir))
        assert self.scan(capsys, jobs, this_file) == "1010\n"
        assert self.scan(capsys, jobs, this_file, *custom) == "110\n"
        assert self.scan(capsys, jobs, this_file) == "1010\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_environment_honoured_and_flag_wins(
            self, capsys, monkeypatch, no_special_dir, this_file, jobs):
        monkeypatch.setenv(ENV_TABLE_DIR, str(no_special_dir))
        assert self.scan(capsys, jobs, this_file) == "110\n"
        assert self.scan(capsys, jobs, this_file,
                         "--tables", str(SHIPPED)) == "1010\n"
        assert self.scan(capsys, jobs, this_file) == "110\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_normalize_uses_the_chosen_tables(
            self, capsys, monkeypatch, table_dir, tmp_path, jobs):
        # without the known-word table the bare من is rejected
        monkeypatch.delenv(ENV_TABLE_DIR, raising=False)
        (table_dir / "known_words.tsv").write_text("", encoding="utf-8")
        src = tmp_path / "in.txt"
        src.write_text("قِفَا نَبْكِ من ذِكْرَى حَبِيبٍ\n", encoding="utf-8")
        assert main(["normalize", "--jobs", jobs, "-i", str(src)]) == 0
        assert capsys.readouterr().out.count("\n") == 1
        assert main(["--tables", str(table_dir), "normalize",
                     "--jobs", jobs, "-i", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "1\tword_undiacritized\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_mask_uses_the_chosen_tables(
            self, capsys, monkeypatch, no_special_dir, tmp_path, jobs):
        monkeypatch.delenv(ENV_TABLE_DIR, raising=False)
        src = tmp_path / "in.txt"
        src.write_text(f"{THIS} {THIS}\n", encoding="utf-8")

        def beats(*top):
            argv = [*top, "mask", "--seed", "3", "--jobs", jobs,
                    "-i", str(src)]
            assert main(argv) == 0
            return {json.loads(r)["beats"]
                    for r in capsys.readouterr().out.splitlines()}

        assert beats() == {"1010"}
        assert beats("--tables", str(no_special_dir)) == {"110"}
