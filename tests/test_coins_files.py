"""The shipped coin JSON files and the README's schema example parse back to
the coins they describe."""

import json
from pathlib import Path

import numpy as np
import pytest

from ctoqw import coin_from_dict, load_coin
from ctoqw.classify import classify
from ctoqw.coins import (
    SQRT2,
    diagonal_jumps_coin,
    scalar_coin,
    shared_eigenbasis_coin,
    three_level_coin,
    tilted_pair_coin,
)

COINS = Path(__file__).resolve().parents[1] / "coins"

CASES = {
    "diag_recurrent.json": (diagonal_jumps_coin(2.0 * SQRT2), "Recurrent"),
    "diag_transient.json": (diagonal_jumps_coin(3.0), "Transient"),
    "shared_transient.json": (shared_eigenbasis_coin(1.5, 1.0), "Transient"),
    "shared_recurrent.json": (shared_eigenbasis_coin(1.0, 2.0), "Recurrent"),
    "shared_partial_a.json": (shared_eigenbasis_coin(1.7, 2.0), "PartiallyRecurrent"),
    "shared_partial_c.json": (shared_eigenbasis_coin(1.0, 2.6), "PartiallyRecurrent"),
    "shared_mixing_ham.json": (
        shared_eigenbasis_coin(2.0, 1.0, ham=np.array([[1.0, 0.3], [0.3, 1.0]])),
        "Transient",
    ),
    "tilted_h1.json": (tilted_pair_coin(0.0, 1.0), "Transient"),
    "tilted_h43.json": (tilted_pair_coin(0.0, 4.0 / 3.0), "Recurrent"),
    "three_level_c0.json": (three_level_coin(0.0), "Transient"),
    "three_level_c1.json": (three_level_coin(1.0), "Recurrent"),
    "scalar_symmetric.json": (scalar_coin(1.0, 1.0), "Recurrent"),
    "scalar_biased.json": (scalar_coin(2.0, 1.0), "Transient"),
}


@pytest.mark.parametrize("filename", sorted(CASES))
def test_file_matches_constructor(filename):
    coin = load_coin(COINS / filename)
    reference, verdict = CASES[filename]
    # 17-significant-digit serialization round-trips float64 exactly
    assert np.array_equal(coin.left, reference.left)
    assert np.array_equal(coin.right, reference.right)
    assert np.array_equal(coin.ham, reference.ham)
    assert classify(coin).verdict.value == verdict


@pytest.mark.parametrize("filename", sorted(CASES))
def test_file_has_note(filename):
    doc = json.loads((COINS / filename).read_text())
    assert isinstance(doc.get("note"), str) and doc["note"]


def test_no_orphan_files():
    found = {p.name for p in COINS.glob("*.json")}
    assert found == set(CASES)


def test_readme_schema_example_loads():
    readme = (COINS.parent / "README.md").read_text()
    section = readme.split("### Coin JSON schema", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    coin = coin_from_dict(json.loads(block))
    assert coin.dim == 2
    assert np.array_equal(coin.left, np.diag([0.5, 1.0]))
    assert np.array_equal(coin.right, np.diag([1.0, 2.0]))
    assert np.array_equal(coin.ham, np.zeros((2, 2)))
