import random

import pytest

import forcing_lab
from forcing_lab.graphs import build_graph


def pytest_report_header(config):
    return f"forcing_lab kernel backend: {forcing_lab.BACKEND_NAME}"


def random_graph(order: int, p: float, rng: random.Random):
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return build_graph(order, edges)


@pytest.fixture
def rng():
    return random.Random(0x5EED)
