"""Session fixtures: one small trained classifier and one knowledge store.

Training is the slow part of the suite, so the small chain-topology
classifier is trained once and shared read-only by every test that needs a
realistic model.  Tests that mutate state build their own objects.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from faultcast.autoencoder import TrainingConfig
from faultcast.classifier import fit_classifier
from faultcast.knowledge import OfflineEmbedder, VectorStore, ingest_files
from faultcast.kpi import KpiId
from faultcast.simulate import FaultSpec, generate_normal, inject_fault, make_chain_spec

settings.register_profile(
    "suite", deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# A failing @given test makes hypothesis's pytest plugin import this module,
# whose libcst import warns with a DeprecationWarning; under the suite's
# error::DeprecationWarning that would end the session in an INTERNALERROR.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

FIXTURES = Path(__file__).parent / "fixtures"

MANUALS = [
    FIXTURES / "tank_pressure.md",
    FIXTURES / "engine.md",
    FIXTURES / "electrical.md",
]


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def manuals() -> list[Path]:
    return list(MANUALS)


@pytest.fixture(scope="session")
def chain_spec_small():
    """2 components x 2 KPIs: the smallest topology with a causal chain."""
    return make_chain_spec(
        components=2, kpis_per_component=2, noise_std=1.0, length=300, seed=0
    )


@pytest.fixture(scope="session")
def train_dataset_small(chain_spec_small):
    return generate_normal(chain_spec_small, seed=11)


@pytest.fixture(scope="session")
def small_classifier(train_dataset_small):
    classifier, curve = fit_classifier(
        train_dataset_small, TrainingConfig(epochs=80, seed=1)
    )
    assert len(curve) == 80
    return classifier


@pytest.fixture(scope="session")
def small_fault(chain_spec_small):
    return FaultSpec(
        onset=200,
        kind="offset",
        target=KpiId(metric="load", node="component-1"),
        magnitude=8.0,
    )


@pytest.fixture(scope="session")
def faulty_dataset_small(chain_spec_small, small_fault):
    clean = generate_normal(chain_spec_small, seed=12)
    faulty, _ = inject_fault(clean, chain_spec_small, small_fault)
    return faulty


@pytest.fixture(scope="session")
def kb_store(manuals) -> VectorStore:
    store = VectorStore(dimension=512, embedder_name="offline")
    added = ingest_files(store, manuals, OfflineEmbedder(512))
    assert added == len(store)
    return store
