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


@pytest.mark.parametrize("raw", ["max_table=abc", "nosuchcap=3", "max_bfs", "max_table=²"])
def test_bad_caps_raise_on_every_call(monkeypatch, raw):
    monkeypatch.setenv(caps.ENV_VAR, raw)
    for _ in range(3):
        with pytest.raises(errors.SchemaError):
            caps.current()
