import pytest

from finsemi import NotACongruence


@pytest.fixture
def no_congruence(monkeypatch):
    """Make every congruence that check t4 induces fail compatibility;
    returns the (witness, detail) of the NotACongruence raised.  No
    table reaches t4's non-congruence path otherwise: every admissible
    candidate induces a congruence (`verify_congruence_construction`
    says why).  Use fresh tables: a decomposition is a cached fact."""
    witness, detail = (0, 1, 0), "left multiplication separates related elements"

    def refuse(s, rel):
        raise NotACongruence(witness, detail)

    monkeypatch.setattr("finsemi.decomposition.induced_congruence", refuse)
    return witness, detail
