"""The package keeps no state between calls but the partition table's cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cabee

# Runs in a fresh interpreter, so that no earlier test has filled a cache the
# calls would fill: imports every module of the package, takes the size of
# every dict, list and set bound at module level, makes a small search, a
# noisy and a zero-noise model-1 step and one exhaustive clustering, and
# prints the names of the containers that grew.
PROBE = """
import importlib, json, pkgutil
import numpy as np
import cabee
from cabee.applications.matching_pennies import (
    MatchingPenniesSpec, build_matching_pennies, solve_matching_pennies_cdabee,
)
from cabee.clustering import L2, global_cluster
from cabee.equilibrium import GLOBAL, SearchConfig, cd_abee_search
from cabee.learning import PerturbationSpec, model1_step, state_from_candidate

modules = [cabee] + [importlib.import_module(m.name) for m in pkgutil.walk_packages(cabee.__path__, "cabee.")]

def sizes():
    return {f"{m.__name__}.{name}": len(value) for m in modules for name, value in vars(m).items()
            if isinstance(value, (dict, list, set)) and not name.startswith("__")}

before = sizes()
spec = MatchingPenniesSpec(0.5, 1.0, 1.5)
env = build_matching_pennies(spec)
cd_abee_search(env, (2, 3), GLOBAL, L2, SearchConfig(lambda_step=0.5, max_evaluations=12))
state = state_from_candidate(env, solve_matching_pennies_cdabee(spec))
model1_step(env, state, (2, 3), L2, PerturbationSpec(0.05, seed=3), n_subjects=500)
model1_step(env, state, (2, 3), L2, PerturbationSpec(0.0), tie_break="incumbent")
rng = np.random.default_rng(1)
global_cluster(rng.dirichlet(np.ones(3), 7), rng.dirichlet(np.ones(7)), 3, L2)
after = sizes()
print(json.dumps(sorted(name for name, size in after.items() if size > before.get(name, 0))))
"""


def test_calls_grow_no_module_state_but_the_mask_cache():
    env = dict(os.environ, PYTHONPATH=str(Path(cabee.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == ["cabee.partitions._MASK_CACHE"]
