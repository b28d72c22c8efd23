import hashlib
import sys
import tracemalloc
from functools import reduce

import pytest

from rechml import formulas as fm
from rechml import testterms as tm
from rechml import textio
from rechml.generators import (
    TrialConfig,
    generate_formula,
    generate_lts,
    generate_sim_system,
    generate_test,
    spawn_rng,
)
from rechml.lts import OMEGA, TAU, Lts, LtsError, visible
from rechml.textio import (
    ParseError,
    format_formula,
    format_lts,
    format_test,
    parse_formula,
    parse_lts,
    parse_test,
)
from rechml.translate import _must_test

import oracles

A = visible("a")
B = visible("b")


# -- tokens ------------------------------------------------------------------

SYMBOL_SETS = (textio._FORMULA_SYMBOLS, textio._TEST_SYMBOLS)


def scanned(scan, text, symbols):
    try:
        return scan(text, symbols)
    except ParseError as err:
        return str(err)


@pytest.mark.parametrize("text", [
    # blanks to str.isspace, among them the separators and the C1 next line
    "a\x1cb\x1dc\x1ed\x1fe", "<a>\x85tt", "tt\xa0/\\\xa0ff", "a\u2028.0", "mu\u3000X.\u3000X",
    "01", "$", "a\\//\\b", "  <a>tt  ", "\t\n w.0 \r\n", "", "   ", "Acc{a,b}", "a.w.0 %",
])
def test_scanner_matches_the_character_loop(text):
    for symbols in SYMBOL_SETS:
        pattern = textio._token_pattern(symbols)
        assert scanned(textio._scan, text, pattern) == scanned(oracles.scan, text, symbols)


def test_scanner_matches_the_character_loop_on_random_texts():
    pieces = sorted(set("".join(textio._FORMULA_SYMBOLS + textio._TEST_SYMBOLS)))
    pieces += list("aZ_w9017") + ["tt", "mu", "Acc", "X1"]
    pieces += [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
    pieces += list("$%-!é\x00\u200b")
    rng = spawn_rng(28, "scanner")
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(12)))
        for symbols in SYMBOL_SETS:
            pattern = textio._token_pattern(symbols)
            assert scanned(textio._scan, text, pattern) == scanned(oracles.scan, text, symbols), text


# -- formulas ----------------------------------------------------------------

def test_parse_formula_basics():
    assert parse_formula("tt") == fm.Tt()
    assert parse_formula("ff") == fm.Ff()
    assert parse_formula("<a>tt") == fm.Dia(A, fm.Tt())
    assert parse_formula("[tau]ff") == fm.Box(TAU, fm.Ff())
    assert parse_formula("Acc{a,b}") == fm.Acc({"a", "b"})
    assert parse_formula("Acc{}") == fm.Acc(set())
    assert parse_formula("min X. X") == fm.Min("X", fm.Var("X"))
    assert parse_formula("max Y. <a>Y") == fm.Max("Y", fm.Dia(A, fm.Var("Y")))


def test_formula_precedence():
    # and binds tighter than or; modalities tighter than both
    phi = parse_formula(r"tt /\ ff \/ <a>tt")
    assert phi == fm.Or(fm.And(fm.Tt(), fm.Ff()), fm.Dia(A, fm.Tt()))
    nested = parse_formula(r"[a](tt \/ ff)")
    assert nested == fm.Box(A, fm.Or(fm.Tt(), fm.Ff()))


def test_binder_body_extends_right():
    phi = parse_formula(r"min X. <a>X \/ tt")
    assert phi == fm.Min("X", fm.Or(fm.Dia(A, fm.Var("X")), fm.Tt()))


def test_formula_round_trip_frozen():
    text = r"min X. [a](tt /\ Acc{a}) \/ <tau>X"
    assert format_formula(parse_formula(text)) == text


def test_binder_on_the_left_needs_parentheses():
    # a bare binder would swallow the rest of the line, so the printer
    # must parenthesize binders out of tail position
    phi = fm.Or(fm.Min("X", fm.Var("X")), fm.Tt())
    printed = format_formula(phi)
    assert parse_formula(printed) == phi
    deeper = fm.And(fm.Max("Y", fm.Tt()), fm.Box(A, fm.Min("Z", fm.Var("Z"))))
    assert parse_formula(format_formula(deeper)) == deeper


def test_reserved_words_rejected_in_formulas():
    with pytest.raises(ParseError):
        parse_formula("<w>tt")
    with pytest.raises(ParseError):
        parse_formula("<omega>tt")
    with pytest.raises(ParseError):
        parse_formula("Acc{tau}")
    with pytest.raises(ParseError):
        parse_formula("min tt. tt")


def test_formula_parse_errors():
    for bad in ("", "tt tt", "<a>", "min X", "Acc{a", "(tt", "tt /\\"):
        with pytest.raises(ParseError):
            parse_formula(bad)


@pytest.mark.parametrize("trial", range(80))
def test_formula_round_trip_random(trial):
    cfg = TrialConfig(max_formula_depth=5)
    phi = generate_formula(cfg, spawn_rng(41, "fmt_formula", trial), "full")
    assert parse_formula(format_formula(phi)) == phi


def _in_every_position(make):
    # make() gives the subterm.  A formula occurs left of \/, under <a> and
    # [b], left and right of /\, in a binder's body, and in tail position;
    # a test left and right of +, under a prefix, and in tail position
    if isinstance(make(), tm.Test):
        return tm.Sum(tm.Sum(tm.Sum(make(), make()), tm.Prefix(A, make())), tm.Prefix(B, make()))
    return fm.Or(
        fm.Or(make(), fm.And(fm.Dia(A, make()), make())),
        fm.Max("Y", fm.And(make(), fm.And(fm.Box(B, make()), make()))),
    )


@pytest.mark.parametrize("make", [
    lambda: fm.Min("X", fm.Or(fm.Dia(A, fm.Var("X")), fm.Tt())),
    lambda: fm.Or(fm.Tt(), fm.Box(A, fm.Ff())),
    lambda: fm.And(fm.Acc({"a"}), fm.Min("Z", fm.Box(TAU, fm.Var("Z")))),
    lambda: tm.Mu("X", tm.Prefix(A, tm.Var("X"))),
])
def test_shared_subformula_prints_as_its_unshared_copy(make):
    # the text of a shared node depends on where it stands: a binder is
    # parenthesized except in tail position, a disjunction or a sum except
    # at the top level, so one text per node object would be wrong
    node = make()
    shared = _in_every_position(lambda: node)
    unshared = _in_every_position(make)
    fmt, parse = (format_test, parse_test) if isinstance(node, tm.Test) else (format_formula, parse_formula)
    printed = fmt(shared)
    assert printed == fmt(unshared)
    assert parse(printed) == unshared
    if isinstance(node, fm.Min):
        assert printed.count("(min X. ") == 5 and printed.endswith("/\\ min X. <a>X \\/ tt)")
    if isinstance(node, tm.Mu):
        assert printed == "(mu X. a.X) + (mu X. a.X) + a.(mu X. a.X) + b.mu X. a.X"


def test_printing_a_deep_unshared_formula_keeps_memory_linear():
    # min X0. [a](X0 /\ min X1. [a](X1 /\ ...)), 6000 levels deep, no node
    # shared: keeping the text of every node would hold each subtree's
    # text, about 150 MB here
    phi = fm.Tt()
    for i in reversed(range(2000)):
        x = f"X{i}"
        phi = fm.Min(x, fm.Box(A, fm.And(fm.Var(x), phi)))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    tracemalloc.start()
    try:
        text = format_formula(phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(old)
    assert text.startswith("min X0. [a](X0 /\\ min X1. [a](X1 /\\ ")
    assert peak < 16 * 2**20, peak


# sha256 of the printed text, recorded before the printers dispatched on
# exact node types: a round trip alone would pass a printer that added
# parentheses
PRINTER_DIGEST = "b8cdb9062d130b5fa4b146df4b5696e80622ceffbd9ef52d26a89c16a5581c49"


def test_printer_output_frozen():
    # full-logic formulas, eliminated systems (shared nodes in every
    # precedence and tail position), approximants up to level 3, test
    # terms and compiled must tests
    cfg = TrialConfig(max_formula_depth=6)
    h = hashlib.sha256()
    for trial in range(1000):
        rng = spawn_rng(28, "printer", trial)
        must = generate_formula(cfg, rng, "must")
        texts = [format_formula(generate_formula(cfg, rng, "full")),
                 format_formula(fm.bekic_eliminate(generate_sim_system(cfg, rng)))]
        texts += [format_formula(fm.approximant(must, k)) for k in range(4)]
        texts += [format_test(generate_test(cfg, rng)), format_test(_must_test(must, escape=False))]
        for text in texts:
            h.update(f"{len(text)}:{text}".encode())
    assert h.hexdigest() == PRINTER_DIGEST


class _Dia(fm.Dia):
    pass


class _Success(tm.Success):
    pass


def test_printers_refuse_a_subclass_of_a_node_class():
    # the printers dispatch on exact node types, as the evaluator does, so
    # each also refuses the other language's nodes and a child that is no node
    with pytest.raises(ValueError, match=r"^cannot format 'x'"):
        format_formula(fm.Or(fm.Tt(), "x"))
    with pytest.raises(ValueError, match=r"^cannot format 'x'"):
        format_test(tm.Sum(tm.Nil(), "x"))
    with pytest.raises(ValueError, match=r"^cannot format Tt\(\)"):
        format_test(fm.Tt())
    with pytest.raises(ValueError, match=r"^cannot format Nil\(\)"):
        format_formula(tm.Nil())
    with pytest.raises(ValueError, match=r"^cannot format _Dia\("):
        format_formula(fm.Or(fm.Tt(), _Dia(A, fm.Tt())))
    with pytest.raises(ValueError, match=r"^cannot format _Success\("):
        format_test(tm.Prefix(A, _Success()))


# -- tests -------------------------------------------------------------------

def test_parse_test_basics():
    assert parse_test("0") == tm.Nil()
    assert parse_test("w.0") == tm.Success()
    assert parse_test("a.0") == tm.Prefix(A, tm.Nil())
    assert parse_test("tau.w.0") == tm.Prefix(TAU, tm.Success())
    assert parse_test("a.0 + b.w.0") == \
        tm.Sum(tm.Prefix(A, tm.Nil()), tm.Prefix(B, tm.Success()))
    loop = parse_test("mu X. a.X")
    assert loop == tm.Mu("X", tm.Prefix(A, tm.Var("X")))


def test_prefix_body_can_be_recursion():
    t = parse_test("a.mu X. tau.X")
    assert t == tm.Prefix(A, tm.Mu("X", tm.Prefix(TAU, tm.Var("X"))))


def test_test_round_trip_frozen():
    text = "mu X. a.X + tau.w.0"
    assert format_test(parse_test(text)) == text


def test_mu_on_the_left_needs_parentheses():
    t = tm.Sum(tm.Mu("X", tm.Prefix(A, tm.Var("X"))), tm.Success())
    printed = format_test(t)
    assert parse_test(printed) == t


def test_format_test_prints_deep_terms():
    # the printer keeps its own stack: 5000 summands nest 5000 sums deep
    # on the left, and a chain of 5000 prefixes under mu as deep; likewise
    # for formulas, with format_formula and str
    boxes = reduce(lambda body, _: fm.Box(A, body), range(5000), fm.Tt())
    disjuncts = reduce(fm.Or, [fm.Dia(A, fm.Tt()) for _ in range(5000)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        summands = format_test(reduce(tm.Sum, [tm.Prefix(A, tm.Nil())] * 5000))
        chain = format_test(tm.Mu("X", reduce(lambda body, _: tm.Prefix(A, body), range(5000), tm.Var("X"))))
        formulas = [format_formula(boxes), str(boxes), format_formula(disjuncts), str(disjuncts)]
    finally:
        sys.setrecursionlimit(old)
    assert summands == " + ".join(["a.0"] * 5000)
    assert chain == "mu X. " + "a." * 5000 + "X"
    assert formulas == ["[a]" * 5000 + "tt"] * 2 + [" \\/ ".join(["<a>tt"] * 5000)] * 2


def test_test_parse_errors():
    for bad in ("", "w", "a.", "mu X", "0 +", "a.0 +", "w.w.0", "omega.0"):
        with pytest.raises(ParseError):
            parse_test(bad)


@pytest.mark.parametrize("trial", range(80))
def test_test_round_trip_random(trial):
    cfg = TrialConfig(max_test_depth=5)
    t = generate_test(cfg, spawn_rng(43, "fmt_test", trial))
    assert parse_test(format_test(t)) == t


# -- systems -----------------------------------------------------------------

LTS_TEXT = """\
# a small system
lts demo
init s0
state s0
state s1
s0 a s1
s1 tau s0
s1 b s1
"""


def test_parse_lts_frozen():
    lts, init = parse_lts(LTS_TEXT)
    assert lts.name == "demo"
    assert init == "s0"
    assert lts.states == ("s0", "s1")
    assert lts.alphabet == ("a", "b")
    assert ("s1", TAU, "s0") in lts.transitions


def test_lts_round_trip_preserves_order():
    lts, init = parse_lts(LTS_TEXT)
    text = format_lts(lts, init)
    again, init2 = parse_lts(text)
    assert init2 == init
    assert again.states == lts.states
    assert again.transitions == lts.transitions
    assert format_lts(again, init2) == text


def test_parse_lts_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_lts("lts x\ns0 a\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_lts("init s0\nnonsense here at all\n")
    with pytest.raises(ParseError):
        parse_lts("s0 w s1\n")


@pytest.mark.parametrize("trial", range(25))
def test_lts_round_trip_random(trial):
    cfg = TrialConfig()
    lts = generate_lts(cfg, spawn_rng(47, "fmt_lts", trial))
    again, _ = parse_lts(format_lts(lts))
    assert again.states == lts.states
    assert set(again.transitions) == set(lts.transitions)
    assert again.alphabet == lts.alphabet


def test_parse_lts_line_shapes():
    # a three-token alphabet line declares letters; state and init lines
    # of three tokens are transitions from states called state and init
    lts, init = parse_lts("alphabet a b\n")
    assert (lts.states, lts.transitions, lts.alphabet, init) == ((), (), ("a", "b"), None)
    lts, init = parse_lts("state x y\ninit x y\n")
    assert lts.states == ("state", "y", "init") and init is None
    assert lts.transitions == (("state", visible("x"), "y"), ("init", visible("x"), "y"))


def test_a_second_init_line_is_an_error():
    # the last init line used to win silently, so a file could get the wrong root
    with pytest.raises(ParseError, match=r"^line 3: a second init line$"):
        parse_lts("init s0\ns0 a s1\ninit s1\n")
    with pytest.raises(ParseError, match=r"^line 2: a second init line$"):
        parse_lts("init s0\ninit s0\n")
    # likewise the last lts line used to name the system
    with pytest.raises(ParseError, match=r"^line 3: a second lts line$"):
        parse_lts("lts a\ns0 a s1\nlts b\n")


# names a caller may hand to visible(), Lts() or a term constructor: each
# is refused there or round-trips
NAMES = ("a", "aB_1", "_s", "S0", "Foo", "a b", "my sys", "x#y", "9x", "", "a\n",
         "tau", "omega", "w", "tt", "ff", "min", "max", "mu", "Acc")


@pytest.mark.parametrize("name", NAMES)
def test_constructors_refuse_names_the_printers_cannot_round_trip(name):
    # each name is refused where it is first given, or prints as text that
    # parses back to an equal formula, test or system
    # the binders of Max and Mu bind a name their bodies do not use, so
    # only the binder can refuse it
    terms = [
        (lambda: fm.Var(name), format_formula, parse_formula),
        (lambda: fm.Min(name, fm.Dia(A, fm.Var(name))), format_formula, parse_formula),
        (lambda: fm.Max(name, fm.Or(fm.Box(A, fm.Tt()), fm.Tt())), format_formula, parse_formula),
        (lambda: tm.Var(name), format_test, parse_test),
        (lambda: tm.Mu(name, tm.Sum(tm.Prefix(A, tm.Success()), tm.Nil())), format_test, parse_test),
    ]
    for make, fmt, parse in terms:
        try:
            term = make()
        except (fm.FormulaError if fmt is format_formula else tm.TestError) as err:
            assert str(err) == f"bad variable name {name!r}"
            continue
        assert parse(fmt(term)) == term
    # no body uses the name, so only SimFormula can refuse it before
    # bekic_eliminate binds it
    try:
        sim = fm.SimFormula((name, "Y"), (fm.Dia(A, fm.Var("Y")), fm.Tt()), 0)
    except fm.FormulaError as err:
        assert str(err) == f"bad variable name {name!r}"
    else:
        phi = fm.bekic_eliminate(sim)
        assert parse_formula(format_formula(phi)) == phi
    try:
        act = visible(name)
    except LtsError:
        act = None
    if act is not None:
        phi = fm.Or(fm.Dia(act, fm.Tt()), fm.Box(act, fm.Acc([name])))
        assert parse_formula(format_formula(phi)) == phi
        term = tm.Sum(tm.Prefix(act, tm.Success()), tm.Nil())
        assert parse_test(format_test(term)) == term
    systems = [
        lambda: Lts(states=[name, "s"], transitions=[(name, A, "s")]),
        lambda: Lts(states=["s"], transitions=[("s", act, "s")] if act else [], name=name),
        lambda: Lts(states=["s"], alphabet=[name]),
    ]
    for make in systems:
        try:
            lts = make()
        except LtsError:
            continue
        text = format_lts(lts, lts.states[0])
        again, init = parse_lts(text)
        assert (again.name, again.states, again.transitions, again.alphabet, init) == (
            lts.name, lts.states, lts.transitions, lts.alphabet, lts.states[0]), text


def test_format_lts_refuses_an_init_that_is_not_a_state():
    with pytest.raises(LtsError, match="unknown state 't'"):
        format_lts(Lts(states=["s"]), "t")


def test_bad_state_name_is_reported_where_it_first_appears():
    with pytest.raises(ParseError, match=r"^line 2: bad state name '9x'$"):
        parse_lts("s0 a s1\ns1 a 9x\n9x a s0\n")
    with pytest.raises(ParseError, match=r"^line 1: bad state name 'x-'$"):
        parse_lts("state x-\nx- a s0\n")


def parsed_as(text):
    lts, init = parse_lts(text)
    return lts.name, lts.states, lts.transitions, lts.alphabet, init


@pytest.mark.parametrize("text, expected", [
    # an alphabet line of any length; two tokens make an lts, state or init
    # line, three a move from a state of that name
    ("alphabet a\n", ("lts", (), (), ("a",), None)),
    ("alphabet\n", ("lts", (), (), (), None)),
    ("lts a b\n", ("lts", ("lts", "b"), (("lts", A, "b"),), ("a",), None)),
    ("lts\n", "line 1: cannot parse 'lts'"),
    ("state 9x\n", "line 1: bad state name '9x'"),
    ("state a b\n", ("lts", ("state", "b"), (("state", A, "b"),), ("a",), None)),
    ("init p0\ninit p0\n", "line 2: a second init line"),
    ("init 9x\n", "line 1: bad state name '9x'"),
    ("p0 a p1 p2\n", "line 1: cannot parse 'p0 a p1 p2'"),
    ("p0 a\n", "line 1: cannot parse 'p0 a'"),
    # a bad destination is reported before a bad label
    ("p0 B 9x\n", "line 1: bad state name '9x'"),
    # a state named alphabet would print its moves as alphabet lines
    ("p0 a alphabet\n", "line 1: bad state name 'alphabet'"),
    ("state alphabet\n", "line 1: bad state name 'alphabet'"),
])
def test_reader_line_table(text, expected):
    # recorded before parse_lts dispatched on the token count
    try:
        got = parsed_as(text)
    except ParseError as err:
        got = str(err)
    assert got == expected


@pytest.mark.parametrize("commented, stripped", [
    ("s0 a s1 # a move\n# a whole line\n  # indented\n#\ns1 b s0\n", "s0 a s1\ns1 b s0\n"),
    ("s0 a s1#x\ns1 b s0#x y\n", "s0 a s1\ns1 b s0\n"),
    ("lts demo # its name\nstate s2 # declared\ninit s0 #start\nalphabet a c # letters\n"
     "s0 a s1\n", "lts demo\nstate s2\ninit s0\nalphabet a c\ns0 a s1\n"),
    ("lts demo#x\nstate s2#\ninit s0#y\nalphabet a#z\ns0 a s1\n",
     "lts demo\nstate s2\ninit s0\nalphabet a\ns0 a s1\n"),
    ("lts demo\r\ninit s0\r\n\r\ns0\ta\ts1 # tabs\r\n\ts1  b\t s0\t\r\n",
     "lts demo\ninit s0\ns0 a s1\ns1 b s0\n"),
])
def test_comments_parse_as_their_stripped_text(commented, stripped):
    assert parsed_as(commented) == parsed_as(stripped)


def test_cannot_parse_quotes_the_raw_line_with_its_comment():
    with pytest.raises(ParseError, match=r"^line 2: cannot parse 's0 a s1 s2 # four tokens'$"):
        parse_lts("# header\n\ts0 a s1 s2 # four tokens\r\n")
    with pytest.raises(ParseError, match=r"^line 1: cannot parse 'lts#x y'$"):
        parse_lts("lts#x y\n")


@pytest.mark.parametrize("text, message", [
    # within a line: source, then destination, then label
    ("s0 a 9x\n8y a s0\n", "line 1: bad state name '9x'"),
    ("s0 B 9x\n", "line 1: bad state name '9x'"),
    ("9x B 8y\n", "line 1: bad state name '9x'"),
    # across lines: the first faulty line, whatever its fault
    ("s0 a s1\ns1 B s0\ns1 a 9x\n", "line 2: bad label 'B'"),
    ("s0 a 9x\ns0 a s1 s2\n", "line 1: bad state name '9x'"),
    ("init 9x\nnonsense here at all\n", "line 1: bad state name '9x'"),
    ("alphabet a Bad\ns0 a 9x\n", "line 1: bad letter 'Bad'"),
    ("s0 a s1 s2\ns0 a 9x\n", "line 1: cannot parse 's0 a s1 s2'"),
])
def test_the_first_faulty_line_wins(text, message):
    with pytest.raises(ParseError) as err:
        parse_lts(text)
    assert str(err.value) == message


def test_duplicate_transition_keeps_its_first_place():
    lts, _ = parse_lts("p a q\nq tau p\np a q\nq b p\nq tau p\n")
    assert lts.transitions == (("p", A, "q"), ("q", TAU, "p"), ("q", B, "p"))
    assert oracles.outgoing(lts, "q") == [("q", TAU, "p"), ("q", B, "p")]


def test_parsed_and_generated_systems_match_the_public_constructor():
    # parse_lts and generate_lts feed index triples to the build step; the
    # public constructor interns named triples (here each given twice)
    cfg = TrialConfig()
    for trial in range(500):
        lts = generate_lts(cfg, spawn_rng(53, "parse_parity", trial))
        text = format_lts(lts)
        parsed, _ = parse_lts(text)
        public = Lts(lts.states, list(lts.transitions) * 2, lts.alphabet, lts.name)
        acts = [TAU, OMEGA] + [visible(a) for a in public.alphabet]
        for built in (parsed, lts):
            assert built.states == public.states, text
            assert built.transitions == public.transitions, text
            assert built.alphabet == public.alphabet, text
            assert built.divergent_mask == public.divergent_mask, text
            for s in public.states:
                assert oracles.outgoing(built, s) == oracles.outgoing(public, s), text
            for act in acts:
                assert built.strong_row(act) == public.strong_row(act), text
        assert format_lts(parsed) == text
