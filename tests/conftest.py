import numpy as np
import pytest

from delayopt import hjb, models, sdde
from delayopt.core import LiftedBatch


def batch_of(*states):
    """LiftedStates, the simulators' argument, as one LiftedBatch, the
    operators' argument; each sample's tail is a C-ordered copy."""
    return LiftedBatch(states[0].grid, np.stack([s.head for s in states]),
                       np.stack([s.tail for s in states]))


def node_tuple_index(pol, pts):
    """PolicyField.index_at as it read the indices before the flat lookup:
    one node index array per axis (zeros on single-node axes), clamped by
    np.clip. The oracle of the flat lookup in test_hjb and test_sdde."""
    node = [np.zeros(len(pts), dtype=np.int64)] * len(pol.axes)
    for a, ax in enumerate(pol.axes):
        if len(ax) > 1:
            xc = np.clip(pts[:, a], ax[0], ax[-1])
            i0 = np.clip(np.searchsorted(ax, xc, side="right") - 1, 0, len(ax) - 2)
            node[a] = i0 + (xc - ax[i0] > ax[i0 + 1] - xc)
    return pol.indices[tuple(node)]


def node_tuple_control(chain, policy, delta):
    """feedback_from_policy as it read the policy before the flat lookup: a
    fancy-indexed register and the node-tuple lookup."""
    stride = sdde._steps_of(chain.delta, delta, "the lag step")
    nodes = np.arange(0, chain.m_lag * stride + 1, stride)

    def control(window):
        pts = chain.flatten(window[:, nodes, :])
        return policy.control_set[node_tuple_index(policy, pts)]

    return control


@pytest.fixture(scope="session")
def merton_nodelay_spec():
    return models.build_merton(models.MertonParams(), m=4)


@pytest.fixture(scope="session")
def merton_nodelay_solution(merton_nodelay_spec):
    """Shared no-delay portfolio solve on a geometric wealth grid."""
    spec = merton_nodelay_spec
    chain = hjb.reduce_to_lag_chain(spec, 1)
    axes = (np.array([1.0]), np.geomspace(0.005, 100.0, 281),
            np.array([1.0]), np.array([1.0]))
    result = hjb.value_iteration(chain, axes, tol=1e-7, max_iter=30000, gh_points=5)
    return chain, result


@pytest.fixture(scope="session")
def merton_delay_spec():
    p = models.MertonParams(
        mu=models.ClampedAffine(base=0.05, slope=0.4, lo=0.02, hi=0.12),
        nu=models.ClampedAffine(base=0.25, slope=0.5, lo=0.15, hi=0.45),
        d=0.2,
        kernel_drift={"preset": "affine_ramp", "scale": 0.5},
        kernel_noise={"preset": "affine_ramp", "scale": 0.5},
    )
    return models.build_merton(p, m=20)


@pytest.fixture(scope="session")
def merton_delay_solution(merton_delay_spec):
    spec = merton_delay_spec
    chain = hjb.reduce_to_lag_chain(spec, 1)
    axes = (np.geomspace(0.4, 2.5, 9), np.geomspace(0.01, 50.0, 81),
            np.geomspace(0.4, 2.5, 9), np.array([1.0]))
    result = hjb.value_iteration(chain, axes, tol=1e-6, max_iter=30000, gh_points=5)
    return chain, result


@pytest.fixture(scope="session")
def advertising_spec():
    return models.build_advertising(models.AdvertisingParams(), m=100)


@pytest.fixture(scope="session")
def advertising_solution(advertising_spec):
    chain = hjb.reduce_to_lag_chain(advertising_spec, 2)
    axes = (np.linspace(-1.0, 2.5, 29), np.linspace(-1.0, 2.5, 9),
            np.linspace(-1.0, 2.5, 9))
    result = hjb.value_iteration(chain, axes, tol=1e-8, max_iter=10000, gh_points=5)
    return chain, result
