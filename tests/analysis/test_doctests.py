"""The analysis, aggregate and crypto modules' docstring examples must stay runnable.

docs-check CI runs these via ``--doctest-modules``; this keeps them in
tier 1 too, so a drifting docstring fails fast locally.
"""

import doctest

import pytest

import repro.analysis.aggregates
import repro.analysis.chunks
import repro.analysis.engine
import repro.analysis.reports
import repro.core.spans
import repro.crypto.aes
import repro.crypto.mac


@pytest.mark.parametrize("module", [
    repro.analysis.chunks,
    repro.analysis.aggregates,
    repro.analysis.engine,
    repro.analysis.reports,
    repro.core.spans,
    repro.crypto.aes,
    repro.crypto.mac,
], ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0
