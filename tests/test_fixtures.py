import re

import pytest

from sclkit.fixtures import ambient_pair, closed_genus, fold_necklace, one_holed, torus


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: closed_genus(0), "closed_genus wants g >= 1"),
        (lambda: one_holed(0), "one_holed wants g >= 1"),
        (lambda: ambient_pair(2, 2), "ambient_pair wants 1 <= inner < outer"),
        (lambda: fold_necklace(torus(), "f", 1, 0, 0), "necklace needs distinct positions on a face of degree >= 2"),
        (lambda: fold_necklace(torus(), "f", 1, 0, 4), "necklace needs distinct positions on a face of degree >= 2"),
        (lambda: fold_necklace(torus(), "f", 0, 0, 2), "fold_necklace wants m >= 1"),
        (lambda: fold_necklace(torus(), "f", -1, 0, 2), "fold_necklace wants m >= 1"),
    ],
    ids=[
        "closed genus 0", "one-holed genus 0", "inner not below outer", "fold at its back", "back off the face",
        "no discs", "negative disc count",
    ],
)
def test_every_fixture_refusal_is_reached(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
