"""The failure branches of ``kgz check``: one side of a check moved past its tolerance.

Each test perturbs one row or value of the route a check verifies, by one
ulp where the check is bit for bit, and asserts that the check fails and
names where it differs.
"""

import multiprocessing
from dataclasses import replace
from itertools import count

import numpy as np
import pytest

import kgz.checks
import kgz.limits
from kgz import InitialLayer
from kgz.checks import (
    check_limit_closed_form,
    check_limit_lockstep,
    check_limit_producer,
    check_potential_blocks,
    check_potential_producer,
)


def _nudged(stream, k_first, at):
    """``stream`` with one value of the row of step ``at`` moved up by one ulp."""
    for k, row in enumerate(stream, k_first):
        if k == at:
            row = row.copy()
            row[5] = np.nextafter(row[5], np.inf)
        yield row


def test_potential_blocks_names_the_changed_step(monkeypatch):
    potentials = InitialLayer._potentials
    monkeypatch.setattr(
        InitialLayer, "_potentials",
        lambda self, k_first, k_stop, tau: _nudged(potentials(self, k_first, k_stop, tau), k_first, 700),
    )
    result = check_potential_blocks()
    assert not result.passed
    assert result.detail == "1 steps differ, the first at k=700"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no producer")
def test_potential_producer_names_the_changed_row(monkeypatch):
    produced = InitialLayer._produced
    monkeypatch.setattr(
        InitialLayer, "_produced",
        lambda self, k_first, k_stop, tau, rows: _nudged(
            produced(self, k_first, k_stop, tau, rows), k_first, 4
        ),
    )
    result = check_potential_producer()
    assert not result.passed
    assert result.detail == "1 rows differ, the first at k=4"


def test_limit_lockstep_names_the_changed_curve(monkeypatch):
    summary = kgz.checks._limit_summary

    def nudged(params, data):
        out = summary(params, data)
        f_l2 = out["curves"].f_l2.copy()
        f_l2[1] = np.nextafter(f_l2[1], np.inf)  # level 1, far below the maximum
        return dict(out, curves=replace(out["curves"], f_l2=f_l2))

    monkeypatch.setattr(kgz.checks, "_limit_summary", nudged)
    result = check_limit_lockstep()
    assert not result.passed
    assert result.detail == "differs in f_l2"


def test_limit_lockstep_checks_the_level_by_level_reference(monkeypatch):
    limit_metrics = kgz.checks.limit_metrics

    def nudged(*args):
        out = limit_metrics(*args)
        f_l2 = out.f_l2.copy()
        f_l2[1] = np.nextafter(f_l2[1], np.inf)  # level 1, far below the maximum
        return replace(out, f_l2=f_l2)

    monkeypatch.setattr(kgz.checks, "limit_metrics", nudged)
    result = check_limit_lockstep()
    assert not result.passed
    assert result.detail == "differs in f_l2"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no producer")
def test_limit_producer_names_the_changed_curve(monkeypatch):
    ahead = kgz.limits._limit_ahead

    def nudged(limit, st):
        follow, levels = ahead(limit, st), count(limit.k + 1)

        def step(potential):
            E = follow(potential)
            if next(levels) == 3:  # far below the maximum
                E = E.copy()
                E[24] = np.nextafter(E[24], np.inf)  # mid-grid, where the field is not tiny
            return E

        return step

    monkeypatch.setattr(kgz.limits, "_limit_ahead", nudged)
    result = check_limit_producer()
    assert not result.passed
    assert result.detail == "differs in eta_e"


def test_limit_closed_form_checks_limit_metrics(monkeypatch):
    limit_metrics = kgz.checks.limit_metrics

    def nudged(*args):
        out = limit_metrics(*args)
        return replace(out, eta_e=out.eta_e * (1.0 + 1e-2))

    monkeypatch.setattr(kgz.checks, "limit_metrics", nudged)
    result = check_limit_closed_form()
    assert not result.passed
    assert result.detail.startswith("worst 1.0")
