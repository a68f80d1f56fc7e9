import pytest

from finsemi import NotACongruence


@pytest.fixture
def no_congruence(monkeypatch):
    """Make every congruence that `decompose` and the checks induce fail
    compatibility; returns the (witness, detail) of the NotACongruence
    raised.  No table of order <= 5 reaches the non-congruence paths
    otherwise.  Use fresh tables: a decomposition is a cached fact."""
    witness, detail = (0, 1, 0), "left multiplication separates related elements"

    def refuse(s, rel):
        raise NotACongruence(witness, detail)

    monkeypatch.setattr("finsemi.decomposition.induced_congruence", refuse)
    return witness, detail
