import functools
import random
import re
import signal
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from retroroute import smiles
from retroroute.errors import (
    IndexOutOfRange,
    MalformedAnnotation,
    MalformedReaction,
    NotCanonicalizable,
    UnparsableCharacter,
)
from retroroute.smiles import (
    TOKEN_PATTERN,
    ToyNormalizer,
    atom_count,
    bind_fragments,
    parse_fragment_groups,
    render_fragment_groups,
    split_reaction,
    split_units,
    tokenize,
)


class TestTokenize:
    def test_single_letter_atoms(self):
        assert [t.text for t in tokenize("CCO").tokens] == ["C", "C", "O"]

    def test_aromatic_ring_digits(self):
        texts = [t.text for t in tokenize("c1ccccc1").tokens]
        assert texts == ["c", "1", "c", "c", "c", "c", "c", "1"]

    def test_bracket_atoms_and_dot(self):
        assert [t.text for t in tokenize("[Na+].[Cl-]").tokens] == ["[Na+]", ".", "[Cl-]"]

    def test_two_letter_halogens(self):
        assert [t.text for t in tokenize("ClBr").tokens] == ["Cl", "Br"]

    def test_tilde_is_one_token(self):
        assert [t.text for t in tokenize("C~O").tokens] == ["C", "~", "O"]

    def test_percent_ring_bond(self):
        assert [t.text for t in tokenize("C%12C").tokens] == ["C", "%12", "C"]

    def test_unparsable_character_position(self):
        with pytest.raises(UnparsableCharacter) as exc:
            tokenize("CC CO")
        assert exc.value.position == 2

    def test_empty_rejected(self):
        with pytest.raises(UnparsableCharacter):
            tokenize("")

    def test_spans_are_lossless(self):
        s = "CC(=O)Oc1ccccc1C(=O)O"
        stream = tokenize(s)
        assert stream.join() == s
        for t in stream.tokens:
            assert s[t.start:t.end] == t.text

    def test_atom_count_skips_punctuation(self):
        assert atom_count("C(=O)O") == 3
        assert atom_count("[Na+].[Cl-]") == 2


SMILES_ALPHABET = ["C", "N", "O", "S", "Cl", "Br", "c", "n", "[NH3+]", "[13C]",
                   "(", ")", "=", "#", "1", "2", "%10", ".", "~", "/", "\\", "@"]


@given(st.lists(st.sampled_from(SMILES_ALPHABET), min_size=1, max_size=30))
def test_tokenize_join_roundtrip(parts):
    s = "".join(parts)
    assert tokenize(s).join() == s


@pytest.mark.parametrize("s, atoms", [
    ("CCO", 3), ("c1ccccc1", 6), ("[Na+].[Cl-]", 2), ("ClBr", 2), ("C~O", 2),
    ("C%12C", 2), ("CC(=O)Oc1ccccc1C(=O)O", 13), ("C(=O)O", 3), ("O~C", 2),
    ("O.C~N.C", 4), ("[NH3+][13C]Br", 3), ("CNOS", 4),
])
def test_atom_count_on_fixtures(s, atoms):
    assert atom_count(s) == atoms


# every token kind of the grammar, plus stray letters and brackets that only some
# neighbours make parsable ("C" + "l" is one token, "B" + "r" another)
TOKEN_ALPHABET = SMILES_ALPHABET + [
    "B", "P", "F", "I", "b", "o", "s", "p", "[Na+]", "[[C]", "-", "+", ":", "?", ">", ">>",
    "*", "$", "%99", "9", "l", "r", "[", "]", "[]", "!", "x", " ", "%1",
]


@given(st.lists(st.sampled_from(TOKEN_ALPHABET), max_size=30))
def test_atom_count_equals_the_per_token_count(parts):
    s = "".join(parts)
    gap = first_gap(s)
    if s and gap is None:
        per_token = sum(1 for t in smiles._TOKEN_RE.findall(s) if smiles._ATOM_RE.fullmatch(t))
        assert atom_count(s) == per_token
    else:
        with pytest.raises(UnparsableCharacter) as exc:
            atom_count(s)
        assert str(exc.value) == str(UnparsableCharacter(s, gap or 0))


def test_atom_count_rejects_a_long_ambiguous_run_in_linear_time():
    """Runs of ">" split two ways (">>" or ">"); a backtracking whole-string
    match would take exponential time to reject one."""
    def too_slow(signum, frame):
        raise TimeoutError("atom_count took over 1 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(UnparsableCharacter) as exc:
            atom_count(">" * 5000 + "X")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert exc.value.position == 5000


# strings for the memo tests: repeats, several spellings of one normal form, and rejects
MEMO_STRINGS = ["C", "O~C", "C~O", "N.C", "C.N", "Cl.[NH3+]", "C" * 50, "C!", "", " C", "C..N", "x"]


def outcome(f, s):
    """What `f(s)` returns, or the type and message of the rejection it raises."""
    try:
        return f(s)
    except NotCanonicalizable as exc:
        return type(exc), str(exc)


def uncached(s):
    return outcome(smiles._normal_form.__wrapped__, s)


class TestNormalFormMemo:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        smiles._normal_form.cache_clear()
        yield
        smiles._normal_form.cache_clear()

    @given(st.lists(st.sampled_from(MEMO_STRINGS) | st.text("CNO~.! ", max_size=4), max_size=30))
    def test_memo_answers_as_the_uncached_normal_form(self, strings):
        # the memo outlives each example hypothesis draws, and is shared by every instance
        for s in strings:
            assert outcome(ToyNormalizer().normalize, s) == uncached(s)

    def test_a_rejection_is_not_remembered(self, monkeypatch):
        n = ToyNormalizer()
        for _ in range(2):
            with pytest.raises(NotCanonicalizable, match="unparsable character '!'"):
                n.normalize("C!")
        # a rejection that does not recur (a scanner that fails once) is not repeated
        scanned = []

        def scan_failing_once(s):
            scanned.append(s)
            if len(scanned) == 1:
                raise UnparsableCharacter(s, 0)
            return real_scan(s)

        real_scan = smiles._scan
        monkeypatch.setattr(smiles, "_scan", scan_failing_once)
        with pytest.raises(NotCanonicalizable):
            n.normalize("O~C")
        assert n.normalize("O~C") == n.normalize("O~C") == "C~O"
        assert scanned == ["O~C", "O~C"]  # the normal form, once computed, is remembered

    def test_a_full_memo_stays_bounded(self, monkeypatch):
        assert smiles._normal_form.cache_info().maxsize == 1 << 14
        monkeypatch.setattr(smiles, "_normal_form",
                            functools.lru_cache(maxsize=3)(smiles._normal_form.__wrapped__))
        n = ToyNormalizer()
        for s in MEMO_STRINGS * 3:
            assert outcome(n.normalize, s) == uncached(s)
            assert smiles._normal_form.cache_info().currsize <= 3

    @pytest.mark.parametrize("bound", [None, 3])
    def test_threads_sharing_the_memo_get_the_serial_results(self, bound, monkeypatch):
        if bound is not None:
            monkeypatch.setattr(smiles, "_normal_form",
                                functools.lru_cache(maxsize=bound)(smiles._normal_form.__wrapped__))
        strings = MEMO_STRINGS * 300
        serial = {s: uncached(s) for s in strings}
        normalizer = ToyNormalizer()
        results = [None] * 8

        def work(i):
            order = random.Random(i).sample(strings, len(strings))
            results[i] = [(s, outcome(normalizer.normalize, s)) for s in order]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for rows in results:
            assert rows is not None and len(rows) == len(strings)
            for s, normal in rows:
                assert normal == serial[s]


def first_gap(s):
    """Where a left-to-right walk over whole tokens gets stuck, or None."""
    token = re.compile(TOKEN_PATTERN)
    pos = 0
    while pos < len(s):
        m = token.match(s, pos)
        if m is None:
            return pos
        pos = m.end()
    return None


JUNK = ["!", "x", "%", "[", "]", " ", "\t"]


@given(st.lists(st.sampled_from(SMILES_ALPHABET + JUNK), min_size=1, max_size=20))
def test_normalize_accepts_what_tokenize_accepts(parts):
    """normalize rejects a string outside the token grammar at the position
    tokenize reports; otherwise it rejects only on its own rules
    (whitespace, empty fragments)."""
    s = "".join(parts)
    gap = first_gap(s)
    has_space = any(ch.isspace() for ch in s)
    if gap is not None:
        with pytest.raises(UnparsableCharacter) as tokenized:
            tokenize(s)
        assert tokenized.value.position == gap
        with pytest.raises(NotCanonicalizable) as normalized:
            ToyNormalizer().normalize(s)
        if not has_space:
            assert str(normalized.value) == str(tokenized.value)
        return
    assert tokenize(s).join() == s
    fragments = [m for unit in s.split(".") for m in unit.split("~")]
    if has_space or not all(fragments):
        with pytest.raises(NotCanonicalizable):
            ToyNormalizer().normalize(s)
    else:
        ToyNormalizer().normalize(s)


class TestFragmentGroups:
    def test_six_fragment_example(self):
        body, groups = parse_fragment_groups("C.N.O.S.P.I |f:1.2,4.5|")
        assert body == "C.N.O.S.P.I"
        assert groups == [[1, 2], [4, 5]]

    def test_no_annotation(self):
        assert parse_fragment_groups("CCO") == ("CCO", [])

    def test_single_group(self):
        body, groups = parse_fragment_groups("C.O |f:0.1|")
        assert body == "C.O"
        assert groups == [[0, 1]]

    def test_malformed_syntax(self):
        for bad in ["C.O |f:|", "C.O |f:1|", "C.O |f:1.|", "C.O |f:1.2,|", "C.O |f:1.2| x"]:
            with pytest.raises(MalformedAnnotation):
                parse_fragment_groups(bad)

    def test_duplicate_index(self):
        with pytest.raises(MalformedAnnotation):
            parse_fragment_groups("C.O.N |f:0.1,1.2|")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_fragment_groups("C.O |f:1.2|")

    def test_render_parse_identity(self):
        body = "C.N.O.S.P.I"
        groups = [[1, 2], [4, 5]]
        assert parse_fragment_groups(render_fragment_groups(body, groups)) == (
            body,
            groups,
        )


class TestBindFragments:
    def test_group_moves_adjacent(self):
        assert bind_fragments("C.N.O", [[0, 2]]) == "C~O.N"

    def test_empty_groups_identity(self):
        assert bind_fragments("C.N", []) == "C.N"

    def test_two_groups_of_two(self):
        assert bind_fragments("C.N.O.S.P.I", [[1, 2], [4, 5]]) == "C.N~O.S.P~I"

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            bind_fragments("C.N", [[0, 2]])

    def test_multiset_preserved_random(self):
        rng = random.Random(7)
        letters = ["C", "N", "O", "S", "P", "I", "F"]
        for _ in range(200):
            n = rng.randint(1, 7)
            fragments = [rng.choice(letters) for _ in range(n)]
            body = ".".join(fragments)
            indices = list(range(n))
            rng.shuffle(indices)
            groups = []
            while len(indices) >= 2 and rng.random() < 0.6:
                k = rng.randint(2, min(3, len(indices)))
                groups.append([indices.pop() for _ in range(k)])
            bound = bind_fragments(body, groups)
            rebuilt = sorted(
                f for unit in split_units(bound) for f in unit.split("~")
            )
            assert rebuilt == sorted(fragments)


class TestSplitReaction:
    def test_two_precursors(self):
        assert split_reaction("CC.O>>CCO") == (["CC", "O"], ["CCO"])

    def test_tilde_unit_preserved(self):
        assert split_reaction("C~N.O>>S") == (["C~N", "O"], ["S"])

    def test_multiple_arrows(self):
        with pytest.raises(MalformedReaction):
            split_reaction("C>>N>>O")

    def test_missing_arrow(self):
        with pytest.raises(MalformedReaction):
            split_reaction("C.N.O")


class TestToyNormalizer:
    def test_sorts_tilde_members(self):
        assert ToyNormalizer().normalize("O~C") == "C~O"

    def test_fixed_point(self):
        assert ToyNormalizer().normalize("C") == "C"

    def test_sorts_units(self):
        assert ToyNormalizer().normalize("O.C~N.C") == "C.C~N.O"

    def test_rejects_bad_tokens(self):
        with pytest.raises(NotCanonicalizable):
            ToyNormalizer().normalize("C!O")

    def test_rejects_whitespace(self):
        with pytest.raises(NotCanonicalizable):
            ToyNormalizer().normalize("C O")

    @given(st.lists(st.sampled_from(["C", "N", "O", "S", "Cl", "[NH3+]"]),
                    min_size=1, max_size=6))
    def test_idempotent(self, fragments):
        s = ".".join(fragments)
        norm = ToyNormalizer().normalize
        assert norm(norm(s)) == norm(s)

    @given(st.lists(st.sampled_from(["C", "N", "O~C", "C~O", "Cl", "C!", "", " "]), max_size=4),
           st.sampled_from(["C", "C~O", "C.N", "C.C~O"]))
    def test_spells_agrees_with_normalize(self, fragments, normal):
        s = ".".join(fragments)
        try:
            expected = ToyNormalizer().normalize(s) == normal
        except NotCanonicalizable:
            expected = False
        assert ToyNormalizer().spells(s, normal) == expected

    def test_spells_normalizes_only_other_spellings(self):
        seen = []

        class Recording(ToyNormalizer):
            def normalize(self, s):
                seen.append(s)
                return super().normalize(s)

        n = Recording()
        assert n.spells("C~O", "C~O") and seen == []
        assert n.spells("O~C", "C~O") and not n.spells("C!", "C")
        assert seen == ["O~C", "C!"]
