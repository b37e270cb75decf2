"""Byte identity of the CLI against the committed golden corpus.

Every case of tests/golden/regen.py runs again as a CLI process and must
reproduce its recorded exit code, stdout, stderr and output files. A
deliberate change of output rewrites the corpus with that script.
"""

import json

import numpy as np
import pytest

from golden import regen

CORPUS = json.loads(regen.CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return regen.record_all(tmp_path_factory.mktemp("golden"))


def test_corpus_holds_exactly_the_cases():
    assert {name: entry["argv"] for name, entry in CORPUS.items()} == regen.CASES


@pytest.mark.parametrize("name", list(regen.CASES))
def test_case_reproduces_its_record(records, name):
    expected = CORPUS[name]
    if records[name] != expected:
        # tells a difference of CPU path (SIMD targets, BLAS kernel) from a code change
        np.show_runtime()
    assert records[name] == expected
