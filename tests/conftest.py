import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from cabee import abee
from cabee.abee import (
    StrategyProfile,
    aggregate,
    best_replies,
    class_payoffs,
    degenerate_pair,
    dist_abee_verify,
    unstack_plays,
)
from cabee.clustering import _projected, _prototype_divergences
from cabee.env import SOLVER_TOL, make_environment, pure_payoffs_against
from cabee.equilibrium import clustered_partition_set, infer_capacities
from cabee.numeric import first_best
from cabee.partitions import Partition

MAX_VERTEX_PROFILES = 512  # grand_map lists at most this many, and reports truncation


def patch_solver(monkeypatch, **values):
    """Set `abee`'s solver constants for one test, each named without its
    leading underscore, in lower case: max_regimes=1 sets `_MAX_REGIMES`."""
    for name, value in values.items():
        monkeypatch.setattr(abee, "_" + name.upper(), value)


def matching_pennies_env(a=0.5, b=1.0, c=1.5):
    pr = np.zeros((2, 2, 3))
    pc = np.zeros((2, 2, 3))
    for g, x in enumerate((a, b, c)):
        pr[:, :, g] = [[1 + x, 0], [0, 1]]
        pc[:, :, g] = [[0, 1], [1, 0]]
    return make_environment([1 / 3] * 3, pr, pc, game_labels=("a", "b", "c"))


def dominant_env(n_games=3):
    """Row action 0 and column action 0 strictly dominant in every game."""
    pr = np.zeros((2, 2, n_games))
    pc = np.zeros((2, 2, n_games))
    for g in range(n_games):
        pr[:, :, g] = [[2 + g, 2 + g], [0, 0]]
        pc[:, :, g] = [[1, 1], [0, 0]]
    return make_environment([1.0 / n_games] * n_games, pr, pc)


def class_of(partition, game):
    """Index of the class of `partition` that holds `game`."""
    for idx, cls in enumerate(partition.classes):
        if game in cls:
            return idx
    raise KeyError(game)


def analogy_best_response(env, player, game, expectation, tol=SOLVER_TOL):
    """Pure best replies of one game against the class expectation, plus an
    indifference flag: the per-game reference for `abee.best_replies`."""
    pays = pure_payoffs_against(env, player, game, expectation)
    replies = tuple(int(a) for a in np.flatnonzero(pays >= float(pays.max()) - tol))
    return replies, len(replies) >= 2


def abee_verify(env, partitions, profile, tol=SOLVER_TOL):
    """Equilibrium check of one fixed partition per player: `dist_abee_verify`
    on degenerate distributions, as (ok, worst gain, witness)."""
    return dist_abee_verify(env, degenerate_pair(*partitions), profile, tol=tol)


def solved_profile(res, lams, k, t=None) -> StrategyProfile:
    """The `StrategyProfile` of a `SolveResult`'s profile row k, or, given
    t, of its family k at t."""
    x = res.profiles[k] if t is None else res.continua[k, 0] + t * res.continua[k, 1]
    return unstack_plays((lams[0].support, lams[1].support), res.plays(x))


@dataclass
class GrandMapImage:
    vertex_profiles: list[StrategyProfile]
    admissible_partitions: tuple[list[Partition], list[Partition]]
    truncated: bool = False


def grand_map(env, candidate, capacities=None) -> GrandMapImage:
    """Successor set of a state: the vertex best-reply profiles on the
    current supports (the first MAX_VERTEX_PROFILES, with `truncated` set
    when there are more), and the clustering-admissible partitions per
    player."""
    lams = candidate.lams
    caps = capacities or infer_capacities(lams)
    aggs = aggregate(candidate.profile, lams)
    admissible = tuple(
        clustered_partition_set(env, aggs[1 - pl], caps[pl], candidate.mode, candidate.divergence)
        for pl in (0, 1)
    )
    choice_sets = []
    layout = []
    for player in (0, 1):
        for part in lams[player].support:
            replies = best_replies(class_payoffs(env.payoffs[player], aggs[1 - player], part, env.prior), SOLVER_TOL) > 0
            for g in itertools.chain.from_iterable(part.classes):
                choice_sets.append(tuple(int(a) for a in np.flatnonzero(replies[g])))
                layout.append((player, part, g))
    truncated = math.prod(len(s) for s in choice_sets) > MAX_VERTEX_PROFILES
    profiles = []
    for combo in itertools.islice(itertools.product(*choice_sets), MAX_VERTEX_PROFILES):
        plays: tuple[dict, dict] = ({}, {})
        for (player, part, g), act in zip(layout, combo):
            arr = plays[player].setdefault(part, np.zeros((env.n_games, env.n_actions(player))))
            arr[g, act] = 1.0
        profiles.append(StrategyProfile(plays=plays))
    return GrandMapImage(profiles, admissible, truncated)


def lloyd_assignments(s, prior, k, d, rng, rounds=25):
    """Lloyd runs over labels, one per subject, seeded at a random ordered
    k-subset of the subject's data points: the games of its k smallest keys
    of `rng.random((N, n_games))`, the keys model 1's Lloyd variant draws
    and `learning._lloyd_choices` takes.  Games go to the nearest prototype
    (the first on ties), prototypes to their class's prior-weighted mean of
    the (projected) data, and a class that empties is at infinite distance
    from then on.
    Per-subject game assignments (N, n_games) after `rounds` assignments.
    The reference of `learning._lloyd_choices`."""
    x, kind = _projected(s, d)
    seeds = rng.random(s.shape[:2]).argsort(axis=1)[:, : min(k, s.shape[1])]
    protos = np.take_along_axis(x, seeds[:, :, None], axis=1)
    live = np.ones(protos.shape[:2], dtype=bool)
    for _ in range(rounds):
        assign = first_best(np.where(live[:, None, :], _prototype_divergences(x, protos, kind), np.inf), np.minimum)
        for c in range(protos.shape[1]):
            w = np.where(assign == c, prior, 0.0)  # (N, n_games)
            mass = w.sum(axis=1)
            live[:, c] = mass > 0
            protos[:, c] = (w[:, :, None] * x).sum(axis=1) / np.where(live[:, c], mass, 1.0)[:, None]
    return assign


def label_array(n_games, max_classes):
    """Restricted-growth strings of all partitions of n_games games into at
    most max_classes classes, one int8 row each, in lexicographic order, by
    plain extension: each prefix whose largest label is t extends by the
    labels 0..min(t + 1, K - 1).  Row p holds each game's class label under
    row p of `partitions.class_masks`: the independent reference of the
    enumeration, and of `partitions.assignment_rows`."""
    rows = [(0,)]
    for _ in range(1, n_games):
        rows = [row + (label,) for row in rows for label in range(min(max(row) + 2, max_classes))]
    return np.array(rows, dtype=np.int8)


def sorted_assignment_rows(assign, max_classes):
    """Row of `label_array` of each assignment row, by sorting: relabel by
    first occurrence (two argsorts), then search the row's base-K code among
    the sorted codes of all rows.  The reference of
    `partitions.assignment_rows`."""
    assign = np.asarray(assign)
    n_games = assign.shape[1]
    present = assign[:, :, None] == np.arange(max_classes)
    first = np.where(present.any(axis=1), present.argmax(axis=1), n_games)
    rank = first.argsort(axis=1).argsort(axis=1)
    canon = np.take_along_axis(rank, assign, axis=1)
    powers = max_classes ** np.arange(n_games - 1, -1, -1, dtype=np.int64)
    # lexicographic rows have increasing codes, so the codes are sorted
    codes = label_array(n_games, max_classes) @ powers
    return np.searchsorted(codes, canon @ powers)


def random_distributions(rng, n, k):
    draws = rng.standard_exponential((n, k))
    return draws / draws.sum(axis=1, keepdims=True)


@pytest.fixture
def mp_env():
    return matching_pennies_env()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def finest3():
    return Partition.finest(3)
