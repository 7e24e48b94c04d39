"""The package's exported names: every one resolves, and retired ones stay gone."""
import discrep

RETIRED = (
    "LossSpec",
    "RegionWitness",
    "disc_01_bruteforce",
    "empirical_loss",
    "gen_gaussian_1d",
    "gen_gaussian_regression",
    "grid_oracle",
    "hinge_sigma_admissibility",
    "point_key",
)


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from discrep import *", namespace)
    missing = [name for name in discrep.__all__ if name not in namespace]
    assert missing == []
    assert len(set(discrep.__all__)) == len(discrep.__all__)


def test_retired_names_are_not_exported():
    assert [name for name in RETIRED if name in discrep.__all__ or hasattr(discrep, name)] == []
