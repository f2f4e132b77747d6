"""Shared test configuration: a deterministic, deadline-free hypothesis profile,
and the integration operators on [0, b] from their definitions."""
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def operators_on(ops, b):
    """The nodes, Q1 and Q2 of ``ops`` on [0, b], from their definitions.

    The nodes are the standard nodes mapped onto [0, b], Q1 is b/2 times the
    standard Q1, and Q2 is (x_i - x_k) times Q1 on [0, b].
    """
    x = (b / 2.0) * (ops.standard.nodes + 1.0)
    q1 = (b / 2.0) * ops.q1
    return x, q1, (x[:, None] - x[None, :]) * q1
