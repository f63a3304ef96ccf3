import logging

import pytest

from retroroute.errors import IoError
from retroroute.smiles import ToyNormalizer
from retroroute.stock import load_stocks


@pytest.fixture
def write_stock(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text, "utf-8")
        return path

    return _write


class TestLoadStock:
    def test_basic(self, write_stock, normalizer):
        stock = load_stocks([write_stock("s.txt", "C\nN\nO\n")], normalizer)
        assert len(stock) == 3
        assert stock.contains("C") and stock.contains("N")
        assert not stock.contains("S")

    def test_comments_and_blank_lines(self, write_stock, normalizer):
        stock = load_stocks(
            [write_stock("s.txt", "# header\nC\n\nN # inline\n   \n")], normalizer
        )
        assert stock.entries == {"C", "N"}

    def test_triple_bonds_are_not_comments(self, write_stock, normalizer):
        text = "C#N\nCC#N  # acetonitrile\n\tCC#CC\t#\n"
        stock = load_stocks([write_stock("s.txt", text)], normalizer)
        assert stock.entries == {"C#N", "CC#N", "CC#CC"}

    def test_entries_normalized(self, write_stock, normalizer):
        stock = load_stocks([write_stock("s.txt", "O~C\n")], normalizer)
        assert stock.contains("C~O")
        assert not stock.contains("O~C")  # exact-string lookup after normalization

    def test_duplicates_collapse(self, write_stock, normalizer):
        stock = load_stocks([write_stock("s.txt", "C\nC\nC\n")], normalizer)
        assert len(stock) == 1

    def test_bad_lines_skipped_and_counted(self, write_stock, normalizer, caplog):
        # a '#' joined to an entry belongs to it: N#note is an entry, and not a molecule
        with caplog.at_level(logging.WARNING):
            stock = load_stocks(
                [write_stock("s.txt", "C\nC!O\nN\nbad line\nN#note\n")], normalizer
            )
        assert stock.entries == {"C", "N"}
        assert caplog.records[2].message.endswith("s.txt:5: skipping unnormalizable entry 'N#note'")
        assert caplog.records[-1].message.endswith("rejected 3 unnormalizable entries")

    def test_missing_file(self, tmp_path, normalizer):
        with pytest.raises(IoError):
            load_stocks([tmp_path / "nope.txt"], normalizer)


class TestUnion:
    def test_load_stocks_union(self, write_stock, normalizer, caplog):
        a = write_stock("a.txt", "C\nN\n")
        b = write_stock("b.txt", "N\nO\nC!\n")
        with caplog.at_level(logging.WARNING):
            stock = load_stocks([a, b], normalizer)
        assert stock.entries == {"C", "N", "O"}
        assert caplog.records[-1].message.endswith("b.txt: rejected 1 unnormalizable entries")

    def test_union_preserves_counts(self, write_stock, normalizer):
        a = write_stock("a.txt", "C\nO\n")
        b = write_stock("b.txt", "N\nO\n")
        u = load_stocks([a, b], normalizer)
        assert u.entries == {"C", "N", "O"} and len(u) == 3
        assert u.contains("N") and not u.contains("S")
