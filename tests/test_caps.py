import pytest

from latticecalc import caps, errors


def test_caps_parse_is_memoised_per_value(monkeypatch):
    monkeypatch.delenv(caps.ENV_VAR, raising=False)
    assert caps.current() == caps.Caps()
    monkeypatch.setenv(caps.ENV_VAR, "max_table=7, max_bfs=9")
    first = caps.current()
    assert (first.max_table, first.max_bfs) == (7, 9)
    assert caps.current() is first
    monkeypatch.setenv(caps.ENV_VAR, "max_bfs=5")
    assert caps.current() == caps.Caps(max_bfs=5)


@pytest.mark.parametrize("raw", ["max_table=abc", "nosuchcap=3", "max_bfs", "max_table=²",
                                 "max_table=" + "9" * 5000],
                         ids=["letters", "unknown", "no-value", "superscript", "5000-digits"])
def test_bad_caps_raise_on_every_call(monkeypatch, raw):
    monkeypatch.setenv(caps.ENV_VAR, raw)
    for _ in range(3):
        with pytest.raises(errors.SchemaError):
            caps.current()


def test_require_returns_the_limit_or_refuses_with_the_count(monkeypatch):
    monkeypatch.setenv(caps.ENV_VAR, "max_unknowns=7")
    assert caps.require("max_unknowns", 7, "{} unknowns exceed cap {}") == 7
    with pytest.raises(errors.CapExceededError, match="^8 unknowns exceed cap 7$"):
        caps.require("max_unknowns", 8, "{} unknowns exceed cap {}")


@pytest.mark.parametrize("needed,shown", [
    (10 ** 4000, "1" + "0" * 4000),  # printable: in full, as every other count
    (2 ** 15000, "2^15000+"),
    (2 ** 15001 - 1, "2^15000+"),
], ids=["4001-digits", "2^15000", "2^15001-1"])
def test_require_names_a_count_past_the_digit_limit_by_its_size(monkeypatch, needed, shown):
    monkeypatch.delenv(caps.ENV_VAR, raising=False)
    with pytest.raises(errors.CapExceededError) as refused:
        caps.require("max_table", needed, "{} configurations exceed cap {}")
    assert str(refused.value) == f"{shown} configurations exceed cap {2 ** 20}"
