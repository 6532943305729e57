"""Tail-bound certificates for solutions produced from product distributions.

Each certificate is a checkable claim of the form "with probability at least
``success_prob`` over a sample from the distribution, the objective beats
``bound`` (and the constraint holds)".  Certificates can come out vacuous;
they are flagged, never raised, so callers can report them honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import VolumeConstraint
from .graphs import Graph, cut_weight, is_clique, set_weight, volume

__all__ = [
    "Certificate",
    "CliqueObjective",
    "CutVolumeObjective",
    "markov_certificate",
    "penalty_certificate",
    "box_certificate",
    "sampling_success",
    "verify_solution",
]

KIND_MARKOV = "markov"
KIND_PENALTY = "penalty"
KIND_BOX = "box_constrained"

_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Certificate:
    """A tail-bound claim over samples from a node distribution.

    Attributes:
        kind: one of ``markov``, ``penalty``, ``box_constrained``.
        t: the Markov split point the bound was derived at.
        bound: certified objective threshold (loss / (1 - t)).
        success_prob: probability with which a sample satisfies the claim;
            clamped below at -1, and anything <= 0 means the certificate is
            vacuous.
        hoeffding_term: the constraint-violation allowance (box kind only).
        vacuous: True when the claim carries no information.
    """

    kind: str
    t: float
    bound: float
    success_prob: float
    hoeffding_term: float | None = None
    vacuous: bool = False

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "t": float(self.t),
            "bound": float(self.bound),
            "success_prob": float(self.success_prob),
            "hoeffding_term": None if self.hoeffding_term is None else float(self.hoeffding_term),
            "vacuous": bool(self.vacuous),
        }

    @classmethod
    def from_json(cls, data) -> "Certificate":
        """Inverse of ``to_json``.

        Raises:
            ValueError: naming the first field that is missing or of the wrong type.
        """
        if not isinstance(data, dict):
            raise ValueError(f"certificate must be a JSON object, not {type(data).__name__}")
        if not isinstance(data.get("kind"), str):
            raise ValueError(f"certificate field 'kind' must be a string, got {data.get('kind')!r}")
        if not isinstance(data.get("vacuous"), bool):
            raise ValueError(f"certificate field 'vacuous' must be true or false, got {data.get('vacuous')!r}")
        numbers = {k: _json_number(data.get(k), f"certificate field {k!r}") for k in ("t", "bound", "success_prob")}
        hoeffding = data.get("hoeffding_term")
        if hoeffding is not None:
            hoeffding = _json_number(hoeffding, "certificate field 'hoeffding_term'")
        return cls(kind=data["kind"], **numbers, hoeffding_term=hoeffding, vacuous=data["vacuous"])


def _json_number(value, name: str) -> float:
    """A JSON number as a float; anything else is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float, got {value!r}") from None


def _check_t(t: float) -> None:
    if not (0.0 <= t < 1.0):
        raise ValueError(f"t must lie in [0, 1), got {t}")


def markov_certificate(loss_value: float, t: float = 0.9) -> Certificate:
    """P(f(S) < loss / (1 - t)) > t for any non-negative objective with mean loss."""
    _check_t(t)
    if loss_value < 0.0:
        raise ValueError("Markov requires a non-negative expected objective")
    return Certificate(kind=KIND_MARKOV, t=t, bound=loss_value / (1.0 - t), success_prob=t)


def penalty_certificate(loss_value: float, beta: float, t: float = 0.9) -> Certificate:
    """Existence claim from a penalty loss.

    With probability at least t a sample has cost below ``eps = loss / (1 - t)``
    and satisfies the constraint, provided eps stays below the penalty weight
    beta.  At eps >= beta the claim says nothing and the certificate is
    flagged vacuous; a negative loss (inconsistent with a non-negative cost)
    is flagged the same way.  A zero loss certifies a cost of exactly zero.
    """
    _check_t(t)
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    eps = loss_value / (1.0 - t)
    vacuous = eps >= beta or eps < 0.0
    return Certificate(kind=KIND_PENALTY, t=t, bound=eps, success_prob=t, vacuous=vacuous)


def box_certificate(
    loss_value: float,
    t: float,
    a,
    interval: VolumeConstraint,
    *,
    p=None,
    scale_rel_tol: float = 1e-6,
) -> Certificate:
    """Objective bound plus a linear side constraint, paid for by a Hoeffding term.

    Requires the distribution to be rescaled so that sum_i a_i p_i hits the
    interval midpoint; pass ``p`` to have that checked.  The success
    probability is t - 2 exp(-(upper - lower)^2 / (2 sum_i a_i^2)) and the
    certificate is vacuous when that is not positive.
    """
    _check_t(t)
    if loss_value < 0.0:
        raise ValueError("box certificates require a non-negative expected objective")
    coeff = np.asarray(a, dtype=np.float64).reshape(-1)
    if np.any(coeff < 0.0):
        raise ValueError("coefficients must be non-negative")
    sq = float(np.sum(coeff * coeff))
    if sq == 0.0:
        raise ValueError("all-zero coefficients give a degenerate constraint")
    if p is not None:
        probs = np.asarray(p, dtype=np.float64).reshape(-1)
        achieved = float(coeff @ probs)
        if abs(achieved - interval.target) > scale_rel_tol * max(interval.target, 1.0):
            raise ValueError(
                f"distribution not rescaled: sum a_i p_i = {achieved}, midpoint {interval.target}"
            )
    width = interval.upper - interval.lower
    hoeffding = 2.0 * math.exp(-(width * width) / (2.0 * sq))
    success = max(t - hoeffding, -1.0)
    return Certificate(
        kind=KIND_BOX,
        t=t,
        bound=loss_value / (1.0 - t),
        success_prob=success,
        hoeffding_term=hoeffding,
        vacuous=success <= 0.0,
    )


def sampling_success(t: float, k: int) -> float:
    """Probability that at least one of k independent samples meets a level-t claim."""
    if not (0.0 < t <= 1.0):
        raise ValueError(f"t must lie in (0, 1], got {t}")
    if k < 1:
        raise ValueError("k must be at least 1")
    return 1.0 - (1.0 - t) ** k


@dataclass(frozen=True)
class CliqueObjective:
    """Clique problem view: cost gamma - set weight, constraint cliqueness."""

    gamma: float

    def cost(self, graph: Graph, members) -> float:
        return self.gamma - set_weight(graph, members)

    def constraint_ok(self, graph: Graph, members) -> bool:
        return is_clique(graph, members)


@dataclass(frozen=True)
class CutVolumeObjective:
    """Cut problem view: cost is the cut weight, constraint a volume interval."""

    interval: VolumeConstraint

    def cost(self, graph: Graph, members) -> float:
        return cut_weight(graph, members)

    def constraint_ok(self, graph: Graph, members) -> bool:
        return self.interval.contains(volume(graph, members))


def _meets_bound(cost: float, bound: float) -> bool:
    if bound == 0.0:
        return cost <= _BOUND_SLACK
    return cost <= bound + _BOUND_SLACK * max(1.0, abs(bound))


def verify_solution(graph: Graph, members, certificate: Certificate, problem, *, strict: bool = False) -> bool:
    """Check a concrete solution against a certificate's claim.

    Markov certificates check the cost bound only.  Penalty certificates
    require the bound and the constraint.  Box certificates accept either the
    bound or the constraint by default, because sequential decoding under a
    hard volume cap guarantees one of the two; pass ``strict=True`` to demand
    both (appropriate for sampled solutions).

    Raises:
        ValueError: when the certificate kind and problem type disagree.
    """
    if certificate.kind == KIND_PENALTY and not isinstance(problem, CliqueObjective):
        raise ValueError("penalty certificates apply to clique objectives")
    if certificate.kind == KIND_BOX and not isinstance(problem, CutVolumeObjective):
        raise ValueError("box certificates apply to cut-with-volume objectives")
    if certificate.kind not in (KIND_MARKOV, KIND_PENALTY, KIND_BOX):
        raise ValueError(f"unknown certificate kind {certificate.kind!r}")

    cost_ok = _meets_bound(problem.cost(graph, members), certificate.bound)
    if certificate.kind == KIND_MARKOV:
        return cost_ok
    constraint_ok = problem.constraint_ok(graph, members)
    if certificate.kind == KIND_PENALTY:
        return cost_ok and constraint_ok
    if strict:
        return cost_ok and constraint_ok
    return cost_ok or constraint_ok
