import os
from pathlib import Path

import pytest
from hypothesis import settings

from deltaring import build_ring, harness

# ``python -m deltaring`` in a subprocess imports the checkout's src, as
# pytest's ``pythonpath`` makes this process do, installed copy or not
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("det", derandomize=True, max_examples=60)
settings.load_profile("det")


@pytest.fixture(scope="session")
def corpus():
    return harness.build_corpus()


@pytest.fixture(scope="session")
def corpus_rings(corpus):
    return {entry.spec_text: entry.ring for entry in corpus}


@pytest.fixture(scope="session")
def z2(corpus_rings):
    return corpus_rings["Z2"]


@pytest.fixture(scope="session")
def z4(corpus_rings):
    return corpus_rings["Z4"]


@pytest.fixture(scope="session")
def f4(corpus_rings):
    return corpus_rings["table:f4.json"]


@pytest.fixture(scope="session")
def t2z2(corpus_rings):
    return corpus_rings["T(2, Z2)"]


@pytest.fixture(scope="session")
def m2z2(corpus_rings):
    return corpus_rings["M(2, Z2)"]


# the rings of the benchmark's ring_ladder workload, 512 to 1024 elements
LADDER_SPECS = ("Z512", "T(2, Z8)", "H(1, 1, Z8)", "prod(M(2, Z2), T(2, Z4))", "quot(Z2048, 512)")


@pytest.fixture(scope="session")
def ladder_rings():
    return {spec: build_ring(spec) for spec in LADDER_SPECS}
