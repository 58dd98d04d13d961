"""Shared fixtures: the expensive designs are solved once per session."""

import importlib
import os
import sys

import numpy as np
import pytest

from maxflat.design import DesignSpec, design_filterbank
from maxflat.tracker import TRACKER_CONFIGS, tracker_design, tracker_spec


@pytest.fixture(scope="session")
def bw1_spec():
    """The K = 9 causal smoother/differentiator bank of the detection study."""
    return DesignSpec(f_s=1000.0, f_wb=0.05, f_nb=0.07,
                      k_w_dc=3, k_w_nb=3, k_w_pi=0, k_t=3,
                      group_delay="optimal")


@pytest.fixture(scope="session")
def bw1_design(bw1_spec):
    return design_filterbank(bw1_spec)


@pytest.fixture(scope="session")
def tracker_designs():
    return {tag: tracker_design(tag) for tag in TRACKER_CONFIGS}


@pytest.fixture(scope="session")
def tracker_specs():
    return {tag: tracker_spec(tag) for tag in TRACKER_CONFIGS}


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's workload module, for its spec generators."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    return importlib.import_module("workloads")
