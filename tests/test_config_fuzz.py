"""Fuzz the two config parsers: any text either parses or raises DomainError.

``ConfigError`` is a ``DomainError``; anything else (a bare ValueError,
IndexError, OverflowError, ...) would reach the CLI as an unexplained failure.
A potential that parses must also build its derivative table.
Each key gets either a well-formed value or an arbitrary one, so that
mostly-valid configs reach the later checks too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from parakahler.errors import DomainError
from parakahler.gradation import parse_diagram_config
from parakahler.paracomplex import parse_potential_config

ANY = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.fractions().map(str),
    st.sampled_from(["", "nan", "-inf", "1/0", "1e999", "0x10", "a", "1-", "1,,2"]),
    st.text(max_size=12),
)

POTENTIAL = {
    "n": ["1", "2", "0"],
    "kind": ["builtin", "polynomial"],
    "builtin": ["log1p_zzbar"],
    "scale": ["1", "-2/3"],
    "monomial": ["1 * z1 * zbar1", "2 * z1^2 * zbar1^2", "1 * z1 * zbar2", "1 * z3",
                 "1e308 * z1^2 * zbar1^2"],
    "lambda": ["0", "3/2"],
    "extent": ["0.3", "1e-3"],
    "grid": ["3", "-1"],
    "margin": ["0.1"],
    "lamda": ["7"],
}

DIAGRAM = {
    "type": list("ABCDEFGa"),
    "rank": [str(r) for r in range(0, 10)],
    "black": ["", "1, 3", "2", "9"],
    "arrows": ["1-3", "1-6, 3-5", "4-5", "1-2", "2-2"],
    "crossed": ["1", "2 4", "0"],
    "colour": ["red"],
}


def config_text(table, required):
    """The required keys, then distinct optional keys, then stray lines.

    Each value is well-formed or arbitrary, so mostly-valid configs reach the
    later checks; repeated keys and junk lines come from the stray lines.
    """

    def line(key):
        value = st.one_of(st.sampled_from(table[key]), ANY)
        return value.map(lambda v: f"{key} = {v}")

    optional = sorted(set(table) - set(required))
    keys = st.lists(st.sampled_from(optional), unique=True).map(lambda ks: required + ks)
    body = keys.flatmap(lambda ks: st.tuples(*map(line, ks)))
    stray = st.lists(st.one_of(st.sampled_from(sorted(table)).flatmap(line), st.text()),
                     max_size=2)
    return st.tuples(body, stray).map(lambda parts: "\n".join(parts[0] + tuple(parts[1])))


def _parses_or_domain_error(parse, text):
    try:
        parse(text)
    except DomainError:
        pass


def _potential_derivatives(text):
    potential, _ = parse_potential_config(text)
    return potential.derivatives


@settings(max_examples=150, deadline=None)
@given(config_text(POTENTIAL, ["n", "kind"]))
def test_potential_config_fuzz(text):
    _parses_or_domain_error(_potential_derivatives, text)


@settings(max_examples=150, deadline=None)
@given(config_text(DIAGRAM, ["type", "rank"]))
def test_diagram_config_fuzz(text):
    _parses_or_domain_error(parse_diagram_config, text)
